#!/usr/bin/env python3
"""Exact work-count gate over perfbench.

    python3 ci/check_counts.py               # compare against COUNTS.json
    TELA_BLESS=1 python3 ci/check_counts.py  # rewrite COUNTS.json

Run from anywhere; paths resolve against the repository root. Each
workload runs traced (`--trace 1`) at every seed in SEEDS and must report
"correct": true. Its metrics measured in counts or bytes, plus the ratios
derived from counts alone, are a pure function of the seed, so they are
compared exactly against the committed COUNTS.json. A key missing on
either side is a failure. Each difference prints as
`workload seed key: committed X, got Y` and the script exits 1.

A change that alters search work on purpose re-blesses with TELA_BLESS=1
and explains the diff, the same rule as the golden traces.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COUNTS = os.path.join(ROOT, "COUNTS.json")
WORKLOADS = ["pixel-compile", "longtail-search", "serve-zipf"]
SEEDS = [1, 7919]
EXACT_UNITS = {"count", "bytes"}
# Ratios of two counts. Timing-derived ratios (server.hit.parse_share,
# trace.overhead_frac) are left out: they vary from run to run.
COUNT_RATIOS = {
    "heuristics.greedy_win_rate",
    "server.cache.hit_rate",
    "core.useful_step_ratio",
}


def traced_counts(workload, seed):
    """Runs one traced perfbench and returns its exact metrics, or None."""
    run = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "2", "--trace", "1"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True,
    )
    lines = run.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if run.returncode != 0 or result.get("correct") is not True:
        print("%s %d: perfbench not correct (exit %d)" % (workload, seed, run.returncode))
        return None
    counts = {}
    for key, metric in result["metrics"].items():
        if metric["unit"] in EXACT_UNITS:
            value = metric["value"]
            counts[key] = int(value) if float(value).is_integer() else value
        elif key in COUNT_RATIOS:
            counts[key] = metric["value"]
    return counts


def differences(workload, seed, committed, got):
    missing = "missing"
    for key in sorted(set(committed) | set(got)):
        old, new = committed.get(key, missing), got.get(key, missing)
        if old != new:
            yield "%s %d %s: committed %s, got %s" % (workload, seed, key, old, new)


def main():
    bless = "TELA_BLESS" in os.environ
    committed = {}
    if not bless:
        with open(COUNTS) as f:
            committed = json.load(f)
    fresh, failures = {}, []
    for workload in WORKLOADS:
        for seed in SEEDS:
            print("# %s seed %d" % (workload, seed), flush=True)
            got = traced_counts(workload, seed)
            if got is None:
                failures.append("%s %d: run failed" % (workload, seed))
                continue
            fresh.setdefault(workload, {})[str(seed)] = got
            if not bless:
                old = committed.get(workload, {}).get(str(seed), {})
                failures.extend(differences(workload, seed, old, got))
    if failures:
        for line in failures:
            print(line)
        print("check_counts: %d difference(s); if intended, re-bless with TELA_BLESS=1"
              % len(failures))
        return 1
    if bless:
        with open(COUNTS, "w") as f:
            json.dump(fresh, f, indent=2, sort_keys=True)
            f.write("\n")
        print("check_counts: wrote %s" % os.path.relpath(COUNTS, ROOT))
    else:
        print("check_counts: %d runs match COUNTS.json exactly" % (len(WORKLOADS) * len(SEEDS)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
