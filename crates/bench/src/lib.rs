//! Shared harness utilities for the experiment binaries.
//!
//! Every table and figure of the paper's evaluation has a binary in
//! `src/bin/` that regenerates it (see `DESIGN.md` for the index); the
//! helpers here provide the common pieces: the model problem set,
//! repeat-timing, and plain-text table/series output.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::str::FromStr;
use std::time::{Duration, Instant};

use tela_model::{Budget, Problem, SolveOutcome};
use tela_workloads::{problem_with_slack, ModelKind};

/// The paper's evaluation slack: each model gets 110% of its minimum
/// required memory (§7; we use the contention lower bound as the
/// minimum).
pub const PAPER_SLACK_PERCENT: u32 = 10;

/// Default per-run wall-clock limit for solver-based allocators, standing
/// in for "tens of seconds or even minutes" of ILP time at benchmark
/// scale.
pub const SOLVER_TIMEOUT: Duration = Duration::from_secs(10);

/// The eleven Pixel 6 model workloads at the paper's 110% memory slack,
/// in Table 2 order.
pub fn model_problems(seed: u64) -> Vec<(ModelKind, Problem)> {
    ModelKind::PIXEL6
        .into_iter()
        .map(|kind| {
            (
                kind,
                problem_with_slack(kind.generate(seed), PAPER_SLACK_PERCENT),
            )
        })
        .collect()
}

/// A fresh solver budget: step-capped and wall-clock-capped. Budgets
/// hold absolute deadlines, so one must be built per run.
pub fn solver_budget() -> Budget {
    Budget::steps(2_000_000).with_timeout(SOLVER_TIMEOUT)
}

/// Times `f` over `runs` runs and reports the median, which the paper's
/// methodology approximates by taking the best runs of many (§7.2).
pub fn median_time<R>(runs: usize, mut f: impl FnMut() -> R) -> (Duration, R) {
    assert!(runs > 0);
    let mut times = Vec::with_capacity(runs);
    let mut last = None;
    for _ in 0..runs {
        let t0 = Instant::now();
        let r = f();
        times.push(t0.elapsed());
        last = Some(r);
    }
    times.sort_unstable();
    (times[times.len() / 2], last.expect("runs > 0"))
}

/// Short status string for an outcome.
pub fn outcome_tag(outcome: &SolveOutcome) -> &'static str {
    match outcome {
        SolveOutcome::Solved(_) => "solved",
        SolveOutcome::Infeasible => "infeasible",
        SolveOutcome::GaveUp => "gave-up",
        SolveOutcome::BudgetExceeded => "timeout",
        SolveOutcome::BestEffort(_) => "best-effort",
    }
}

/// Formats a duration in engineering style (`12.3ms`, `4.56s`).
pub fn fmt_duration(d: Duration) -> String {
    if d >= Duration::from_secs(1) {
        format!("{:.2}s", d.as_secs_f64())
    } else if d >= Duration::from_millis(1) {
        format!("{:.2}ms", d.as_secs_f64() * 1e3)
    } else {
        format!("{:.1}us", d.as_secs_f64() * 1e6)
    }
}

/// A minimal fixed-width table printer for experiment output.
#[derive(Debug, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(header: I) -> Self {
        TextTable {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header arity).
    pub fn row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, cells: I) -> &mut Self {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(row.len(), self.header.len(), "row arity mismatch");
        self.rows.push(row);
        self
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| {
            let mut line = String::new();
            for (cell, w) in cells.iter().zip(widths) {
                line.push_str(&format!("{cell:<w$}  "));
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// Reads the integer value of `--flag` from `std::env::args`, or
/// `default` when the flag is absent. A flag given without a value, or
/// with one that does not parse, ends the process with status 2 and
/// names the flag: a typo such as `--steps 5e5` must not silently run a
/// different configuration than the one asked for.
pub fn arg_usize(flag: &str, default: usize) -> usize {
    let args: Vec<String> = std::env::args().collect();
    usize_flag(&args, flag, default).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    })
}

/// The pure half of [`arg_usize`]: looks `flag` up in `args`.
fn usize_flag(args: &[String], flag: &str, default: usize) -> Result<usize, String> {
    Ok(flag_value(args, flag)?.unwrap_or(default))
}

/// Looks `flag` up in `args` and parses the argument after it:
/// `Ok(None)` when the flag is absent, and an error naming the flag and
/// the value when the value is missing or does not parse as a `T`.
pub fn flag_value<T: FromStr>(args: &[String], flag: &str) -> Result<Option<T>, String> {
    let Some(i) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    let value = args
        .get(i + 1)
        .ok_or_else(|| format!("{flag} needs a value"))?;
    value.parse().map(Some).map_err(|_| {
        let expected = std::any::type_name::<T>();
        format!("{flag} expects a {expected}, got {value:?}")
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_problem_set_is_complete() {
        let set = model_problems(0);
        assert_eq!(set.len(), 11);
        for (kind, p) in &set {
            assert!(p.len() > 100, "{}", kind.name());
        }
    }

    #[test]
    fn median_time_returns_result() {
        let (d, v) = median_time(3, || 42);
        assert_eq!(v, 42);
        assert!(d < Duration::from_secs(1));
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = TextTable::new(["name", "value"]);
        t.row(["a", "1"]).row(["longer", "2"]);
        let s = t.render();
        assert!(s.contains("name"));
        assert!(s.lines().count() == 4);
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(fmt_duration(Duration::from_micros(500)), "500.0us");
        assert_eq!(fmt_duration(Duration::from_millis(12)), "12.00ms");
        assert_eq!(fmt_duration(Duration::from_secs(2)), "2.00s");
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn row_arity_checked() {
        let mut t = TextTable::new(["a", "b"]);
        t.row(["only-one"]);
    }

    #[test]
    fn flag_value_names_the_flag_and_the_value() {
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(flag_value::<u64>(&args(&["gen"]), "--seed"), Ok(None));
        assert_eq!(
            flag_value::<u32>(&args(&["gen", "--slack", "15"]), "--slack"),
            Ok(Some(15))
        );
        assert_eq!(
            flag_value::<u64>(&args(&["solve", "--steps", "5e5"]), "--steps"),
            Err("--steps expects a u64, got \"5e5\"".to_string())
        );
        assert_eq!(
            flag_value::<u32>(&args(&["gen", "--slack"]), "--slack"),
            Err("--slack needs a value".to_string())
        );
    }

    #[test]
    fn usize_flag_rejects_missing_and_unparsable_values() {
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(usize_flag(&args(&["bin"]), "--steps", 7), Ok(7));
        assert_eq!(
            usize_flag(&args(&["bin", "--steps", "500000"]), "--steps", 7),
            Ok(500_000)
        );
        for bad in [
            &["bin", "--steps", "5e5"][..],
            &["bin", "--steps", "1_000"],
            &["bin", "--steps"],
        ] {
            let err = usize_flag(&args(bad), "--steps", 7).unwrap_err();
            assert!(err.contains("--steps"), "{err}");
        }
        // A flag followed by another flag has no value of its own.
        assert!(usize_flag(&args(&["bin", "--steps", "--inputs", "4"]), "--steps", 7).is_err());
    }
}
