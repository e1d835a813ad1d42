//! The repository's end-to-end benchmark.
//!
//! ```text
//! perfbench --workload <pixel-compile|longtail-search|serve-zipf>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` runs a closed loop for `--seconds` and prints the
//! end-to-end metrics; `--trace 1` replays a fixed, seeded prefix of the
//! same workload with a self-time sample around every public call and
//! prints the per-layer metrics. Every answer is validated against the
//! exact problem sent; a wrong answer, a failed determinism self-check
//! or a failed attribution check makes the run incorrect and the exit
//! code non-zero. The last line of standard output is one JSON object;
//! everything human-readable goes to standard error. See `NOTES.md`.

mod inprocess;
mod serve;
mod solve;
mod stats;
mod workloads;

use solve::Counters;
use stats::{Layers, Report};

pub const WORKLOADS: [&str; 3] = ["pixel-compile", "longtail-search", "serve-zipf"];

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag}"))
    };
    let workload = value("--workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload '{workload}'; expected one of {WORKLOADS:?}"
        ));
    }
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} out of range (0, 600]"));
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got '{other}'")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    eprintln!(
        "# perfbench {} seed={} seconds={} trace={} threads_available={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let mut report = if args.workload == "serve-zipf" {
        serve::run(&args)
    } else {
        inprocess::run(&args)
    };
    let json = report.result_line();
    println!("{json}");
    if !report.correct() {
        std::process::exit(1);
    }
}

/// Reports the six end-to-end metrics of a closed loop.
pub fn end_to_end(report: &mut Report, latencies: &[f64], solved: u64, setup_s: f64) {
    let mut sorted = latencies.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len() as u64;
    let busy_s = sorted.iter().sum::<f64>() / 1e3;
    report.attempted = n;
    eprintln!(
        "# {n} answers ({} beyond p99), {solved} solved, {busy_s:.3} s answering",
        n - n * 99 / 100
    );
    if n < 1_000 {
        eprintln!("# warning: fewer than 1000 answers; p99 has fewer than 10 beyond it");
    }
    report.metric("setup_s", setup_s, "s");
    report.metric("latency_p50_ms", stats::percentile(&sorted, 0.5), "ms");
    report.metric("latency_p99_ms", stats::percentile(&sorted, 0.99), "ms");
    report.metric("throughput_per_s", n as f64 / busy_s.max(1e-12), "1/s");
    report.metric("solved_frac", solved as f64 / n.max(1) as f64, "ratio");
    match stats::peak_rss_mb() {
        Ok(mb) => report.metric("peak_rss_mb", mb, "MB"),
        Err(e) => report.error(e),
    }
}

/// Attribution check: the layers' self times plus the remainder layer
/// must add up to the traced end-to-end time, the remainder must not be
/// negative, and it may hold at most `max_remainder_share` of the total.
pub fn attribution(
    report: &mut Report,
    layers: &Layers,
    traced_ms: f64,
    remainder: &str,
    max_remainder_share: f64,
) {
    let sum = layers.sum();
    let rest = layers.total(remainder);
    eprintln!(
        "# attribution: layers {:.3} ms + {remainder} {rest:.3} ms = {sum:.3} ms; traced end to end {traced_ms:.3} ms",
        sum - rest
    );
    if (sum - traced_ms).abs() > 1e-6 * traced_ms.max(1.0) {
        report.error(format!(
            "attribution: layers sum to {sum} ms, traced end to end is {traced_ms} ms"
        ));
    }
    if rest < -1e-3 * traced_ms || rest > max_remainder_share * traced_ms {
        report.error(format!(
            "attribution: {remainder} is {rest} ms of {traced_ms} ms, outside [0, {max_remainder_share}]"
        ));
    }
}

/// What the traced `serve-zipf` run adds to the solve-side counters.
#[derive(Debug, Default)]
pub struct ServeCounts {
    pub requests: u64,
    pub hits: u64,
    pub frame_bytes: Vec<f64>,
    /// Request-parse self time and round-trip time summed over cache hits.
    pub hit_parse_ms: f64,
    pub hit_rtt_ms: f64,
}

/// Emits every per-layer metric, in one fixed order, on every workload:
/// a layer the workload bypasses reads zero.
pub fn layer_metrics(
    report: &mut Report,
    layers: &Layers,
    counters: &Counters,
    serve: Option<&ServeCounts>,
    overhead_frac: f64,
    problems: u64,
) {
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    for layer in [
        "server.protocol.parse",
        "server.protocol.render",
        "client.protocol.render",
        "client.protocol.parse",
        "model.parse_problem",
        "model.fingerprint",
        "server.cache.lookup",
        "server.cache.insert",
        "server.unattributed",
    ] {
        report.layer(layers, layer);
    }
    let empty = ServeCounts::default();
    let serve = serve.unwrap_or(&empty);
    let mut bytes = serve.frame_bytes.clone();
    bytes.sort_by(f64::total_cmp);
    report.metric(
        "server.frame_bytes.p50",
        stats::percentile(&bytes, 0.5),
        "bytes",
    );
    report.metric(
        "server.frame_bytes.p99",
        stats::percentile(&bytes, 0.99),
        "bytes",
    );
    report.metric("server.requests", serve.requests as f64, "count");
    report.metric("server.cache.hits", serve.hits as f64, "count");
    report.metric(
        "server.cache.hit_rate",
        ratio(serve.hits as f64, serve.requests as f64),
        "ratio",
    );
    report.metric(
        "server.hit.parse_share",
        ratio(serve.hit_parse_ms, serve.hit_rtt_ms),
        "ratio",
    );

    for layer in [
        "heuristics.greedy",
        "audit.preflight",
        "core.portfolio",
        "core.search",
        "solve.unattributed",
    ] {
        report.layer(layers, layer);
    }
    let mut wasted = counters.greedy_wasted_ms.clone();
    wasted.sort_by(f64::total_cmp);
    report.metric(
        "heuristics.greedy_wasted_ms.p50",
        stats::percentile(&wasted, 0.5),
        "ms",
    );
    report.metric(
        "heuristics.greedy_wasted_ms.p99",
        stats::percentile(&wasted, 0.99),
        "ms",
    );
    report.metric(
        "heuristics.greedy_attempts",
        counters.greedy_attempts as f64,
        "count",
    );
    report.metric(
        "heuristics.greedy_win_rate",
        ratio(counters.greedy_wins as f64, counters.greedy_attempts as f64),
        "ratio",
    );
    report.metric("core.races", counters.races as f64, "count");
    report.metric("core.variants_run", counters.variants_run as f64, "count");
    report.metric(
        "core.useful_step_ratio",
        ratio(counters.winner_steps as f64, counters.variant_steps as f64),
        "ratio",
    );
    report.metric("core.search.steps", counters.variant_steps as f64, "count");
    report.metric(
        "core.search.backtracks",
        counters.backtracks as f64,
        "count",
    );
    report.metric("cp.propagations", counters.propagations as f64, "count");
    report.metric(
        "cp.steps_per_s",
        ratio(
            counters.variant_steps as f64,
            layers.total("core.search") / 1e3,
        ),
        "1/s",
    );
    report.metric("trace.overhead_frac", overhead_frac, "ratio");
    report.metric("trace.problems", problems as f64, "count");
    eprintln!(
        "# ratios: greedy wins {}/{} attempts; winner steps {}/{} variant steps; cache hits {}/{} requests",
        counters.greedy_wins,
        counters.greedy_attempts,
        counters.winner_steps,
        counters.variant_steps,
        serve.hits,
        serve.requests
    );
}
