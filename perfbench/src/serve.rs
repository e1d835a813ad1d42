//! `serve-zipf`: `tela-server` on loopback with one worker and one
//! client connection, driven by a seeded zipf request mix.

use std::net::{SocketAddr, TcpListener};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use tela_model::{problem_to_text, CanonicalForm, Solution, SolveOutcome};
use tela_server::protocol::{parse_payload, parse_response, render_request, render_response};
use tela_server::{
    Client, Payload, Request, Response, Server, ServerConfig, SolutionCache, Status, TenantConfig,
};

use crate::solve::{self, Counters};
use crate::stats::{median, ms, Layers, Report};
use crate::workloads::{self, Instance, Zipf};
use crate::{Args, ServeCounts};

/// Shapes in the popularity pool.
const POOL: usize = 156;
/// Solution-cache entries: smaller than the pool, so LRU evicts.
const CACHE: usize = 64;
const ZIPF_EXPONENT: f64 = 1.0;
/// Requests per second of `--seconds` that the traced run replays.
const TRACED_QUOTA: f64 = 40.0;
/// Warm-up requests, of shapes outside the pool, before timing starts.
const WARMUP: u64 = 8;
const SETUPS: usize = 5;
/// Requests in each half of the determinism self-check.
const SELF_CHECK: u64 = 48;

fn server_config() -> ServerConfig {
    ServerConfig {
        workers: 1,
        max_connections: 4,
        cache_capacity: CACHE,
        admission: TenantConfig {
            // Admission is not under test: admit everything, and keep
            // the deadline the server always sets far beyond any solve.
            refill_per_sec: 1_000_000,
            burst: 1_000_000,
            step_quota: u64::MAX,
            deadline_cap: Duration::from_secs(600),
        },
        tela: solve::tela_config(),
        ..ServerConfig::default()
    }
}

/// Boots a fresh server on a loopback port, runs `f` against it, and
/// shuts it down (even if `f` panics).
fn with_server<T>(f: impl FnOnce(SocketAddr, &Server) -> T) -> T {
    let server = Server::new(server_config());
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind a loopback port");
    let addr = listener.local_addr().expect("bound address");
    let shutdown = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let serving = scope.spawn(|| server.serve(listener, &shutdown));
        let out = catch_unwind(AssertUnwindSafe(|| f(addr, &server)));
        shutdown.store(true, Ordering::Release);
        serving
            .join()
            .expect("server thread")
            .expect("server accept loop");
        out.unwrap_or_else(|payload| resume_unwind(payload))
    })
}

fn connect(addr: SocketAddr) -> Client {
    let mut client = Client::connect(addr).expect("connect to the server");
    client
        .set_reply_timeout(Some(Duration::from_secs(120)))
        .expect("set reply timeout");
    client
}

fn request(id: u64, instance: &Instance) -> Request {
    Request {
        id,
        tenant: "bench".into(),
        problem: problem_to_text(&instance.problem),
        max_steps: Some(solve::STEP_BUDGET),
        deadline_ms: None,
        trace: false,
    }
}

/// Checks a response against the exact problem the client sent (the
/// renamed, shifted variant). Returns whether it is a validated solve.
fn judge(instance: &Instance, id: u64, response: &Response) -> Result<bool, String> {
    if response.id != id {
        return Err(format!("response id {} for request {id}", response.id));
    }
    match response.status {
        Status::Solved => {
            let addresses = response
                .addresses
                .clone()
                .ok_or_else(|| format!("request {id}: solved without addresses"))?;
            Solution::new(addresses)
                .validate(&instance.problem)
                .map(|_| true)
                .map_err(|e| format!("request {id} ({}): invalid placement: {e}", instance.family))
        }
        Status::Infeasible if instance.certified => Err(format!(
            "request {id} ({}): Infeasible on a certified-solvable instance",
            instance.family
        )),
        Status::Infeasible | Status::BestEffort => Ok(false),
        Status::Rejected | Status::TimedOut => Err(format!(
            "request {id}: {:?} ({})",
            response.status, response.detail
        )),
    }
}

/// What one response looked like, for cross-run comparison.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Seen {
    status: Status,
    cache_hit: bool,
    steps: u64,
    addresses: Option<Vec<u64>>,
}

impl From<&Response> for Seen {
    fn from(r: &Response) -> Self {
        Seen {
            status: r.status,
            cache_hit: r.cache_hit,
            steps: r.steps,
            addresses: r.addresses.clone(),
        }
    }
}

/// Warm-up: `WARMUP` requests of shapes outside the pool. Returns their
/// responses so a replay can mirror the cache state they leave behind.
fn warm_up(client: &mut Client, report: &mut Report) -> Vec<(Instance, Response)> {
    (0..WARMUP)
        .map(|k| {
            let instance = workloads::warmup(k);
            let id = u64::MAX - k;
            let response = client
                .request(&request(id, &instance))
                .expect("warm-up response");
            if let Err(e) = judge(&instance, id, &response) {
                report.error(format!("warm-up: {e}"));
            }
            (instance, response)
        })
        .collect()
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    if args.trace {
        traced(args, &mut report);
    } else {
        let mut setups = Vec::new();
        for round in 0..SETUPS {
            let start = Instant::now();
            let zipf = Zipf::new(args.seed, POOL, ZIPF_EXPONENT);
            with_server(|addr, server| {
                let mut client = connect(addr);
                let warm = warm_up(&mut client, &mut report);
                setups.push(start.elapsed().as_secs_f64());
                if round + 1 == SETUPS {
                    let setup_s = median(&setups);
                    let session = Session {
                        zipf: &zipf,
                        server,
                        warm: &warm,
                    };
                    timed(&session, &mut client, args.seconds, setup_s, &mut report);
                }
            });
        }
    }
    self_check(args.seed, &mut report);
    report
}

/// A booted, warmed-up server and the stream it is about to serve.
struct Session<'a> {
    zipf: &'a Zipf,
    server: &'a Server,
    warm: &'a [(Instance, Response)],
}

/// The end-to-end run: one client, closed loop, for `seconds`; then the
/// client's tallies are cross-checked against the server's counters.
fn timed(session: &Session, client: &mut Client, seconds: f64, setup_s: f64, report: &mut Report) {
    let Session { zipf, server, warm } = session;
    let mut latencies = Vec::new();
    let (mut solved, mut hits) = (0u64, 0u64);
    let end = Instant::now() + Duration::from_secs_f64(seconds);
    let mut index = 0;
    while Instant::now() < end {
        let instance = zipf.request(index);
        let req = request(index, &instance);
        let start = Instant::now();
        let response = client.request(&req);
        latencies.push(ms(start.elapsed()));
        index += 1;
        let response = match response {
            Ok(response) => response,
            Err(e) => {
                report.failed += 1;
                report.error(format!("request {}: {e}", index - 1));
                break;
            }
        };
        hits += u64::from(response.cache_hit);
        match judge(&instance, index - 1, &response) {
            Ok(ok) => solved += u64::from(ok),
            Err(e) => {
                report.failed += 1;
                report.error(e);
            }
        }
    }
    crate::end_to_end(report, &latencies, solved, setup_s);
    eprintln!(
        "# cache hits {hits}/{index} requests ({:.3})",
        hits as f64 / index.max(1) as f64
    );
    let warm_hits = warm.iter().filter(|(_, r)| r.cache_hit).count() as u64;
    cross_check(server, WARMUP + index, warm_hits + hits, report);
}

/// The server's own counters must agree with the client's tallies: one
/// terminal response per request, one solve per cache miss, and the
/// cache's hit count equal to the hits the client saw.
fn cross_check(server: &Server, requests: u64, hits: u64, report: &mut Report) {
    let stats = server.stats();
    let responses = stats.responses.load(Ordering::Relaxed);
    let solves = stats.solve_calls.load(Ordering::Relaxed);
    let checks = [
        ("terminal_total", stats.terminal_total(), responses),
        ("responses", responses, requests),
        ("solve_calls", solves, requests - hits),
        ("cache hits", server.cache().hits(), hits),
        ("cache misses", server.cache().misses(), requests - hits),
    ];
    for (what, got, want) in checks {
        if got != want {
            report.error(format!(
                "server cross-check: {what} is {got}, expected {want}"
            ));
        }
    }
}

/// The traced run: the first `TRACED_QUOTA × seconds` requests against
/// two fresh servers, the first untraced; on the second, each response
/// is followed by an in-process replay of the request's pipeline through
/// the same public calls, with a self-time sample per call.
fn traced(args: &Args, report: &mut Report) {
    let n = (TRACED_QUOTA * args.seconds).ceil() as u64;
    let zipf = Zipf::new(args.seed, POOL, ZIPF_EXPONENT);
    let (untraced, untraced_ms) = with_server(|addr, server| {
        let mut client = connect(addr);
        let warm = warm_up(&mut client, report);
        let mut seen = Vec::new();
        let mut total = 0.0;
        for index in 0..n {
            let start = Instant::now();
            let response = client
                .request(&request(index, &zipf.request(index)))
                .expect("terminal response");
            total += ms(start.elapsed());
            seen.push(Seen::from(&response));
        }
        let hits = seen.iter().filter(|s| s.cache_hit).count() as u64;
        let warm_hits = warm.iter().filter(|(_, r)| r.cache_hit).count() as u64;
        cross_check(server, WARMUP + n, warm_hits + hits, report);
        (seen, total)
    });

    let mut layers = Layers::default();
    let mut hit_layers = Layers::default();
    let mut counters = Counters::default();
    let mut counts = ServeCounts::default();
    let mut traced_ms = 0.0;
    with_server(|addr, _| {
        let mut client = connect(addr);
        let mirror = SolutionCache::new(CACHE);
        for (instance, response) in warm_up(&mut client, report) {
            let form = CanonicalForm::of(&instance.problem);
            if mirror.lookup(&form).is_none() {
                if let Some(addresses) = response.addresses {
                    mirror.insert(&form, &Solution::new(addresses));
                }
            }
        }
        for (index, expected) in (0..n).zip(&untraced) {
            let instance = zipf.request(index);
            let req = request(index, &instance);
            let start = Instant::now();
            let response = client.request(&req).expect("terminal response");
            let rtt = ms(start.elapsed());
            traced_ms += rtt;
            if Seen::from(&response) != *expected {
                report.error(format!(
                    "request {index}: {:?} differs from the untraced run's {expected:?}",
                    Seen::from(&response)
                ));
            }
            if let Err(e) = judge(&instance, index, &response) {
                report.error(e);
            }
            let mut sample = Layers::default();
            let replayed = replay(&req, &response, &mirror, &mut sample, &mut counters);
            if let Err(e) = replayed {
                report.error(format!("request {index}: {e}"));
            }
            sample.add("server.unattributed", rtt - sample.sum());
            counts.requests += 1;
            counts
                .frame_bytes
                .push((render_request(&req).len() + 4) as f64);
            if response.cache_hit {
                counts.hits += 1;
                counts.hit_rtt_ms += rtt;
                sample.merge_into(&mut hit_layers);
            }
            sample.merge_into(&mut layers);
        }
    });
    counts.hit_parse_ms = hit_layers.total("server.protocol.parse");
    report.attempted = n;
    layers.print(
        &format!("serve-zipf traced replay of {n} requests"),
        traced_ms,
    );
    hit_layers.print("serve-zipf cache hits only", counts.hit_rtt_ms);
    if let Some((top, _, total)) = hit_layers.ranked().first() {
        eprintln!(
            "# largest self-time layer on cache hits: {top} ({:.1}% of hit round trips)",
            100.0 * total / counts.hit_rtt_ms.max(1e-12)
        );
    }
    crate::attribution(report, &layers, traced_ms, "server.unattributed", 1.0);
    crate::layer_metrics(
        report,
        &layers,
        &counters,
        Some(&counts),
        traced_ms / untraced_ms,
        n,
    );
}

/// Laps of consecutive calls, each recorded as one layer's self time.
struct Stopwatch(Instant);

impl Stopwatch {
    fn start() -> Self {
        Stopwatch(Instant::now())
    }

    fn restart(&mut self) {
        self.0 = Instant::now();
    }

    fn lap(&mut self, layers: &mut Layers, layer: &'static str) {
        let now = Instant::now();
        layers.add(layer, ms(now - self.0));
        self.0 = now;
    }
}

/// Replays one request's pipeline in pipeline order, as the server and
/// client run it, recording a self-time sample per public call, and
/// checks that the replay reaches the answer the server gave.
fn replay(
    req: &Request,
    response: &Response,
    mirror: &SolutionCache,
    layers: &mut Layers,
    counters: &mut Counters,
) -> Result<(), String> {
    let mut watch = Stopwatch::start();
    let payload = render_request(req);
    watch.lap(layers, "client.protocol.render");
    let parsed = parse_payload(&payload);
    watch.lap(layers, "server.protocol.parse");
    let Ok(Payload::Solve(parsed)) = parsed else {
        return Err("request payload does not parse as a solve".into());
    };
    let problem = tela_model::parse_problem(&parsed.problem);
    watch.lap(layers, "model.parse_problem");
    let problem = problem.map_err(|e| format!("problem text does not parse: {e}"))?;
    let form = CanonicalForm::of(&problem);
    watch.lap(layers, "model.fingerprint");
    let hit = mirror.lookup(&form);
    watch.lap(layers, "server.cache.lookup");
    let was_hit = hit.is_some();
    let addresses = match hit {
        Some(solution) => Some(solution.addresses().to_vec()),
        None => {
            let replayed = solve::replay(&problem, layers, counters);
            layers.add(
                "solve.unattributed",
                replayed.end_to_end_ms - replayed.attributed_ms,
            );
            watch.restart();
            if response.steps != replayed.steps {
                return Err(format!(
                    "replay took {} steps, the server {}",
                    replayed.steps, response.steps
                ));
            }
            match replayed.outcome {
                SolveOutcome::Solved(solution) => {
                    mirror.insert(&form, &solution);
                    watch.lap(layers, "server.cache.insert");
                    Some(solution.addresses().to_vec())
                }
                _ => None,
            }
        }
    };
    if was_hit != response.cache_hit || addresses != response.addresses {
        return Err(format!(
            "replay (hit {}, addresses {}) differs from the server's response (hit {}, addresses {})",
            was_hit,
            addresses.is_some(),
            response.cache_hit,
            response.addresses.is_some()
        ));
    }
    watch.restart();
    let rendered = render_response(response);
    watch.lap(layers, "server.protocol.render");
    let reparsed = parse_response(&rendered);
    watch.lap(layers, "client.protocol.parse");
    match reparsed {
        Ok(r) if r == *response => Ok(()),
        _ => Err("rendered response does not round-trip".into()),
    }
}

/// Determinism self-check: the first `SELF_CHECK` requests against two
/// fresh servers give identical statuses, cache hits, steps and
/// placements, and the next seed sends different requests.
fn self_check(seed: u64, report: &mut Report) {
    let zipf = Zipf::new(seed, POOL, ZIPF_EXPONENT);
    let run = |report: &mut Report| -> (Vec<Seen>, u64) {
        with_server(|addr, server| {
            let mut client = connect(addr);
            let seen = (0..SELF_CHECK)
                .map(|i| {
                    let response = client
                        .request(&request(i, &zipf.request(i)))
                        .expect("terminal response");
                    if let Err(e) = judge(&zipf.request(i), i, &response) {
                        report.error(format!("self-check: {e}"));
                    }
                    Seen::from(&response)
                })
                .collect();
            (seen, server.cache().hits())
        })
    };
    let first = run(report);
    let second = run(report);
    if first != second {
        report.error(format!(
            "determinism: seed {seed} gave different responses on two servers"
        ));
    }
    let other = Zipf::new(seed.wrapping_add(1), POOL, ZIPF_EXPONENT);
    let same = (0..SELF_CHECK)
        .filter(|&i| {
            problem_to_text(&zipf.request(i).problem) == problem_to_text(&other.request(i).problem)
        })
        .count() as u64;
    if same == SELF_CHECK {
        report.error(format!(
            "determinism: seeds {seed} and {} sent the same requests",
            seed.wrapping_add(1)
        ));
    }
}
