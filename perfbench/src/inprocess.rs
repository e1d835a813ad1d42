//! `pixel-compile` and `longtail-search`: closed loops of one caller
//! solving seeded instances through the escalation ladder in-process.

use std::time::{Duration, Instant};

use tela_model::CanonicalForm;
use telamalloc::EscalationLadder;

use crate::solve::{self, Answer, Counters};
use crate::stats::{median, ms, Layers, Report};
use crate::workloads::{self, Instance, Longtail};
use crate::Args;

/// Which in-process stream to run.
#[derive(Debug, Clone)]
pub enum Stream {
    Pixel(u64),
    Longtail(Longtail),
}

impl Stream {
    fn build(name: &str, seed: u64) -> Stream {
        match name {
            "pixel-compile" => Stream::Pixel(seed),
            _ => Stream::Longtail(Longtail::new(seed)),
        }
    }

    pub fn instance(&self, index: u64) -> Instance {
        match self {
            Stream::Pixel(seed) => workloads::pixel(*seed, index),
            Stream::Longtail(longtail) => longtail.instance(index),
        }
    }

    /// Problems per second of `--seconds` that the traced run replays
    /// (a fixed count, so its counters repeat exactly for a seed).
    fn traced_quota(&self) -> u64 {
        match self {
            Stream::Pixel(_) => 100,
            Stream::Longtail(_) => 40,
        }
    }
}

/// Warm-up solves per set-up.
const WARMUP: u64 = 96;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Instances in each half of the determinism self-check.
const SELF_CHECK: u64 = 12;

/// Builds the stream and warms the solver up, `SETUPS` times; returns
/// the last stream and the median set-up time.
fn setup(name: &str, seed: u64, report: &mut Report) -> (Stream, f64) {
    let mut times = Vec::new();
    let mut stream = None;
    for _ in 0..SETUPS {
        let start = Instant::now();
        let built = Stream::build(name, seed);
        let ladder = EscalationLadder::new(solve::tela_config());
        for k in 0..WARMUP {
            let instance = workloads::warmup(k);
            let (_, result) = solve::solve(&ladder, &instance);
            if let Err(e) = solve::judge(&instance, &result.outcome) {
                report.error(format!("warm-up: {e}"));
            }
        }
        times.push(start.elapsed().as_secs_f64());
        stream = Some(built);
    }
    (stream.expect("at least one set-up"), median(&times))
}

/// Solves instances `0..n` through a fresh ladder, judging each answer.
fn answers(stream: &Stream, n: u64, report: &mut Report) -> (Vec<Answer>, Vec<f64>) {
    let ladder = EscalationLadder::new(solve::tela_config());
    let mut out = Vec::new();
    let mut latencies = Vec::new();
    for index in 0..n {
        let instance = stream.instance(index);
        let (elapsed, result) = solve::solve(&ladder, &instance);
        let solved = solve::judge(&instance, &result.outcome).unwrap_or_else(|e| {
            report.error(e);
            false
        });
        out.push(solve::answer_of(&result, solved));
        latencies.push(ms(elapsed));
    }
    (out, latencies)
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let (stream, setup_s) = setup(&args.workload, args.seed, &mut report);
    if args.trace {
        traced(&stream, args, &mut report);
    } else {
        timed(&stream, args.seconds, setup_s, &mut report);
    }
    self_check(&args.workload, args.seed, &mut report);
    report
}

/// The end-to-end run: a closed loop over the stream for `seconds`.
fn timed(stream: &Stream, seconds: f64, setup_s: f64, report: &mut Report) {
    let ladder = EscalationLadder::new(solve::tela_config());
    let mut latencies = Vec::new();
    let mut solved = 0u64;
    let end = Instant::now() + Duration::from_secs_f64(seconds);
    let mut index = 0;
    while Instant::now() < end {
        let instance = stream.instance(index);
        let (elapsed, result) = solve::solve(&ladder, &instance);
        latencies.push(ms(elapsed));
        match solve::judge(&instance, &result.outcome) {
            Ok(true) => solved += 1,
            Ok(false) => {}
            Err(e) => {
                report.failed += 1;
                report.error(e);
            }
        }
        index += 1;
    }
    crate::end_to_end(report, &latencies, solved, setup_s);
}

/// The traced run: the first `quota × seconds` instances, once through
/// the ladder untraced and once through the traced replay. Answers must
/// agree exactly, and the layers must account for the traced time.
fn traced(stream: &Stream, args: &Args, report: &mut Report) {
    let n = (stream.traced_quota() as f64 * args.seconds).ceil() as u64;
    let (untraced, latencies) = answers(stream, n, report);
    let untraced_ms: f64 = latencies.iter().sum();

    let mut layers = Layers::default();
    let mut counters = Counters::default();
    let mut traced_ms = 0.0;
    for (index, expected) in (0..n).zip(&untraced) {
        let instance = stream.instance(index);
        let wins_before = counters.greedy_wins;
        let replayed = solve::replay(&instance.problem, &mut layers, &mut counters);
        traced_ms += replayed.end_to_end_ms;
        layers.add(
            "solve.unattributed",
            replayed.end_to_end_ms - replayed.attributed_ms,
        );
        let solved = solve::judge(&instance, &replayed.outcome).unwrap_or_else(|e| {
            report.error(e);
            false
        });
        let got = Answer {
            solved,
            greedy: counters.greedy_wins > wins_before,
            steps: replayed.steps,
            backtracks: replayed.backtracks,
        };
        if got != *expected {
            report.error(format!(
                "instance {index} ({}): replay {got:?} differs from ladder {expected:?}",
                instance.family
            ));
        }
    }
    report.attempted = n;
    layers.print(
        &format!("{} traced replay of {n} problems", args.workload),
        traced_ms,
    );
    crate::attribution(report, &layers, traced_ms, "solve.unattributed", 0.05);
    crate::layer_metrics(report, &layers, &counters, None, traced_ms / untraced_ms, n);
}

/// Determinism self-check: a short run done twice with one seed yields
/// identical outcomes and step counts, and the next seed yields
/// different inputs.
fn self_check(name: &str, seed: u64, report: &mut Report) {
    let stream = Stream::build(name, seed);
    let (first, _) = answers(&stream, SELF_CHECK, report);
    let (second, _) = answers(&stream, SELF_CHECK, report);
    if first != second {
        report.error(format!(
            "determinism: seed {seed} gave {first:?} then {second:?}"
        ));
    }
    let other = Stream::build(name, seed.wrapping_add(1));
    let same = (0..SELF_CHECK)
        .filter(|&i| {
            let fingerprint = |s: &Stream| CanonicalForm::of(&s.instance(i).problem).fingerprint();
            fingerprint(&stream).as_u128() == fingerprint(&other).as_u128()
        })
        .count() as u64;
    if same == SELF_CHECK {
        report.error(format!(
            "determinism: seeds {seed} and {} gave the same inputs",
            seed.wrapping_add(1)
        ));
    }
}
