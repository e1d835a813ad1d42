//! CLI for `tela-lint`. Exit codes: 0 clean, 1 new violations or a
//! stale baseline, 2 usage/setup error (including a missing or malformed
//! baseline).

use std::path::PathBuf;
use std::process::ExitCode;

use tela_lint::baseline::Baseline;
use tela_lint::engine;
use tela_lint::manifest::{rules, Manifest};

const USAGE: &str = "\
tela-lint — workspace-invariant static analyzer

USAGE:
    cargo run -p tela-lint -- <COMMAND> [OPTIONS]

COMMANDS:
    check    Scan the workspace and compare against lint-baseline.json
    rules    List the rule set with rationales
    help     Show this message

OPTIONS (check):
    --root <DIR>        Workspace root (default: auto-detected from cwd)
    --baseline <FILE>   Baseline path (default: <root>/lint-baseline.json)
    --update-baseline   Rewrite the baseline from this scan (the ratchet)
    --no-baseline       Ignore the baseline: report every violation

Inline suppression:
    // tela-lint: allow(<rule>, reason = \"why this site is sound\")
Hot-path marking (enables no-hot-alloc for the next fn):
    // tela-lint: hot-path
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = args.first().map(String::as_str).unwrap_or("check");
    match command {
        "check" => check(&args[1..]),
        "rules" => {
            print_rules();
            ExitCode::SUCCESS
        }
        "help" | "--help" | "-h" => {
            print!("{USAGE}");
            ExitCode::SUCCESS
        }
        other => {
            eprintln!("tela-lint: unknown command `{other}`\n\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn print_rules() {
    let entries: &[(&str, &str)] = &[
        (
            rules::NO_SOLVE_PATH_PANIC,
            "no unwrap/expect/panic!/slice-indexing in solve-hot-path modules \
             (CP search & propagate, portfolio, resilience ladder, heuristic \
             placers, ILP baseline); degrade through typed errors instead",
        ),
        (
            rules::NO_HOT_ALLOC,
            "no allocating constructs (Vec::new, to_vec, clone, Box::new, \
             format!, collect, …) inside functions marked `// tela-lint: \
             hot-path`; static face of the counting-allocator tests",
        ),
        (
            rules::DETERMINISTIC_CLOCK,
            "Instant::now/SystemTime only inside the tela-trace clock and the \
             Budget/fault machinery; everything else stays logically clocked \
             so traces replay byte-identically",
        ),
        (
            rules::POISON_PROOF_LOCKS,
            "every .lock() recovers from poisoning via \
             .unwrap_or_else(PoisonError::into_inner); a panicked portfolio \
             worker must not wedge the race bookkeeping",
        ),
        (
            rules::SCOPED_THREADS_ONLY,
            "std::thread::spawn only inside the portfolio module; all other \
             concurrency uses scoped threads that join, cancel, and isolate \
             panics",
        ),
        (
            rules::FEATURE_GATE_HYGIENE,
            "cfg(feature = …) references must be declared in the crate's \
             [features] table, and declared trace/fault-inject/\
             debug-invariants features must gate code or forward",
        ),
        (
            rules::SUPPRESSION_HYGIENE,
            "allow(…) needs a reason and must still suppress something; \
             malformed tela-lint directives are errors",
        ),
    ];
    for (id, rationale) in entries {
        println!("{id}\n    {rationale}\n");
    }
}

fn check(args: &[String]) -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut baseline_path: Option<PathBuf> = None;
    let mut update = false;
    let mut no_baseline = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => root = it.next().map(PathBuf::from),
            "--baseline" => baseline_path = it.next().map(PathBuf::from),
            "--update-baseline" => update = true,
            "--no-baseline" => no_baseline = true,
            other => {
                eprintln!("tela-lint: unknown option `{other}`\n\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    let Some(root) = root.or_else(find_root) else {
        eprintln!(
            "tela-lint: could not find the workspace root (no Cargo.toml with \
             [workspace] above the current directory); pass --root"
        );
        return ExitCode::from(2);
    };
    let baseline_path = baseline_path.unwrap_or_else(|| root.join("lint-baseline.json"));

    let manifest = Manifest::default();
    let report = match engine::scan_workspace(&root, &manifest) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("tela-lint: scan failed: {e}");
            return ExitCode::from(2);
        }
    };
    let fresh = Baseline::from_diagnostics(&report.diagnostics);

    println!(
        "tela-lint: scanned {} files across {} crates ({} violation(s), {} suppressed)",
        report.files_scanned,
        report.crates_scanned,
        fresh.total(),
        report.suppressed
    );

    if update {
        if let Err(e) = std::fs::write(&baseline_path, fresh.render()) {
            eprintln!("tela-lint: cannot write {}: {e}", baseline_path.display());
            return ExitCode::from(2);
        }
        println!(
            "tela-lint: baseline written to {} ({} entries)",
            baseline_path.display(),
            fresh.total()
        );
        return ExitCode::SUCCESS;
    }

    if no_baseline {
        for d in &report.diagnostics {
            println!("{d}");
        }
        return if report.diagnostics.is_empty() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    let committed = match std::fs::read_to_string(&baseline_path) {
        Ok(text) => match Baseline::parse(&text) {
            Ok(b) => b,
            Err(e) => {
                eprintln!(
                    "tela-lint: {} is malformed ({e}); regenerate with \
                     --update-baseline",
                    baseline_path.display()
                );
                return ExitCode::from(2);
            }
        },
        Err(_) => {
            eprintln!(
                "tela-lint: no baseline at {}; run with --update-baseline to \
                 create the ratchet",
                baseline_path.display()
            );
            return ExitCode::from(2);
        }
    };

    let diff = committed.diff(&fresh);
    if diff.is_clean() {
        println!(
            "tela-lint: OK — no new violations; {} baselined (ratchet down by \
             fixing and re-running with --update-baseline)",
            committed.total()
        );
        return ExitCode::SUCCESS;
    }

    for (rule, file, base, found) in &diff.grown {
        println!("NEW: [{rule}] {file}: {found} violation(s), baseline allows {base}:");
        for d in report
            .diagnostics
            .iter()
            .filter(|d| d.rule == rule && &d.path == file)
        {
            println!("  {d}");
        }
    }
    for (rule, file, base, found) in &diff.stale {
        println!(
            "STALE: [{rule}] {file}: baseline says {base}, scan found {found} — \
             ratchet down with --update-baseline"
        );
    }
    println!(
        "tela-lint: FAILED — {} new, {} stale",
        diff.grown.len(),
        diff.stale.len()
    );
    ExitCode::FAILURE
}

/// Walks up from the current directory to the first `Cargo.toml`
/// containing a `[workspace]` section.
fn find_root() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        let candidate = dir.join("Cargo.toml");
        if candidate.is_file() {
            if let Ok(text) = std::fs::read_to_string(&candidate) {
                if text.contains("[workspace]") {
                    return Some(dir);
                }
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}
