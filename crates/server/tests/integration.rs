//! End-to-end tests over real TCP: the full request pipeline, the
//! cache/no-solve-path guarantee, admission, degradation, deadlines,
//! live introspection (`stats`/`trace` commands, per-request tracing),
//! and the 32-client concurrency smoke with a latency budget.

use std::net::{SocketAddr, TcpListener};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};
use tela_model::{examples, problem_to_text, Buffer, Problem, Solution};
use tela_server::{
    AdmissionController, Client, Request, Server, ServerConfig, Status, TenantConfig,
};
use tela_trace::json::Value;

/// Runs `body` against a live server, guaranteeing shutdown (and thread
/// join) even when the body panics, so failed assertions fail fast
/// instead of hanging the suite.
fn with_server<T>(server: Server, body: impl FnOnce(SocketAddr, &Server) -> T) -> T {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let shutdown = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let serving = scope.spawn(|| server.serve(listener, &shutdown));
        let result = catch_unwind(AssertUnwindSafe(|| body(addr, &server)));
        shutdown.store(true, Ordering::Release);
        serving.join().unwrap().unwrap();
        match result {
            Ok(value) => value,
            Err(payload) => resume_unwind(payload),
        }
    })
}

fn request(id: u64, problem: &Problem) -> Request {
    Request {
        id,
        tenant: "test".into(),
        problem: problem_to_text(problem),
        max_steps: Some(500_000),
        deadline_ms: Some(5_000),
        trace: false,
    }
}

/// A solvable problem unique to `tag` (distinct canonical form per tag).
fn unique_problem(tag: u64) -> Problem {
    Problem::builder(64 + tag)
        .buffer(Buffer::new(0, 4, 30 + tag))
        .buffer(Buffer::new(2, 6, 20))
        .buffer(Buffer::new(5, 9, 34))
        .build()
        .unwrap()
}

#[test]
fn solves_over_the_wire_and_validates() {
    with_server(Server::new(ServerConfig::default()), |addr, server| {
        let mut client = Client::connect(addr).unwrap();
        let problem = examples::figure1();
        let response = client.request(&request(1, &problem)).unwrap();
        assert_eq!(response.status, Status::Solved);
        assert!(!response.cache_hit);
        let solution = Solution::new(response.addresses.unwrap());
        assert!(solution.validate(&problem).is_ok());
        assert_eq!(server.stats().solve_calls.load(Ordering::Relaxed), 1);
    });
}

#[test]
fn warm_cache_answers_without_entering_the_solve_path() {
    with_server(Server::new(ServerConfig::default()), |addr, server| {
        let mut client = Client::connect(addr).unwrap();
        let problem = examples::figure1();
        let cold = client.request(&request(1, &problem)).unwrap();
        assert_eq!(cold.status, Status::Solved);
        assert!(!cold.cache_hit);
        let solves_after_cold = server.stats().solve_calls.load(Ordering::Relaxed);

        // Same problem, buffers renamed and schedule shifted: still a hit.
        let mut renamed: Vec<Buffer> = problem
            .buffers()
            .iter()
            .map(|b| Buffer::new(b.start() + 7, b.end() + 7, b.size()).with_align(b.align()))
            .collect();
        renamed.reverse();
        let renamed = Problem::new(renamed, problem.capacity()).unwrap();
        for id in 2..5 {
            let warm = client.request(&request(id, &renamed)).unwrap();
            assert_eq!(warm.status, Status::Solved);
            assert!(warm.cache_hit, "request {id} must be served from cache");
            assert_eq!(warm.steps, 0);
            let solution = Solution::new(warm.addresses.unwrap());
            assert!(solution.validate(&renamed).is_ok());
        }
        // The solve path ran exactly once — for the cold request.
        assert_eq!(
            server.stats().solve_calls.load(Ordering::Relaxed),
            solves_after_cold
        );
        assert_eq!(server.cache().hits(), 3);
    });
}

#[test]
fn infeasible_problems_get_a_terminal_infeasible() {
    with_server(Server::new(ServerConfig::default()), |addr, _| {
        let mut client = Client::connect(addr).unwrap();
        let response = client
            .request(&request(1, &examples::infeasible()))
            .unwrap();
        assert_eq!(response.status, Status::Infeasible);
    });
}

#[test]
fn malformed_requests_are_rejected_terminally() {
    with_server(Server::new(ServerConfig::default()), |addr, _| {
        let mut client = Client::connect(addr).unwrap();
        // Parseable JSON, wrong shape: keeps the id in the rejection.
        let bad_shape = Request {
            id: 9,
            tenant: "t".into(),
            problem: "capacity ten\nbuffer what\n".into(),
            max_steps: None,
            deadline_ms: None,
            trace: false,
        };
        let response = client.request(&bad_shape).unwrap();
        assert_eq!(response.status, Status::Rejected);
        assert_eq!(response.id, 9);
        assert!(response.detail.contains("malformed problem"));
        // The connection survives a malformed request.
        let ok = client.request(&request(10, &examples::tiny())).unwrap();
        assert_eq!(ok.status, Status::Solved);
    });
}

#[test]
fn admission_control_rejects_with_a_retry_hint() {
    let admission = AdmissionController::new(TenantConfig::default()).with_tenant(
        "throttled",
        TenantConfig {
            refill_per_sec: 1,
            burst: 1,
            ..TenantConfig::default()
        },
    );
    let server = Server::with_admission(admission, ServerConfig::default());
    with_server(server, |addr, _| {
        let mut client = Client::connect(addr).unwrap();
        let mut first = request(1, &unique_problem(1));
        first.tenant = "throttled".into();
        let mut second = request(2, &unique_problem(2));
        second.tenant = "throttled".into();
        assert_eq!(client.request(&first).unwrap().status, Status::Solved);
        let denied = client.request(&second).unwrap();
        assert_eq!(denied.status, Status::Rejected);
        let retry = denied
            .retry_after_ms
            .expect("rejection carries a retry hint");
        assert!(retry >= 1, "retry hint must be positive");
        // An un-throttled tenant is unaffected.
        let other = client.request(&request(3, &unique_problem(3))).unwrap();
        assert_eq!(other.status, Status::Solved);
    });
}

#[test]
fn cache_hits_are_served_even_when_the_tenant_is_throttled() {
    let admission = AdmissionController::new(TenantConfig::default()).with_tenant(
        "throttled",
        TenantConfig {
            refill_per_sec: 1,
            burst: 1,
            ..TenantConfig::default()
        },
    );
    let server = Server::with_admission(admission, ServerConfig::default());
    with_server(server, |addr, _| {
        let mut client = Client::connect(addr).unwrap();
        let problem = unique_problem(7);
        let mut solve = request(1, &problem);
        solve.tenant = "throttled".into();
        assert_eq!(client.request(&solve).unwrap().status, Status::Solved);
        // The bucket is now empty, but the repeat is a cache hit and is
        // served unconditionally.
        let mut repeat = request(2, &problem);
        repeat.tenant = "throttled".into();
        let warm = client.request(&repeat).unwrap();
        assert_eq!(warm.status, Status::Solved);
        assert!(warm.cache_hit);
    });
}

#[test]
fn zero_deadline_times_out_terminally() {
    with_server(Server::new(ServerConfig::default()), |addr, _| {
        let mut client = Client::connect(addr).unwrap();
        let mut r = request(1, &unique_problem(11));
        r.deadline_ms = Some(0);
        let response = client.request(&r).unwrap();
        assert_eq!(response.status, Status::TimedOut);
    });
}

#[test]
fn saturation_degrades_to_greedy_with_a_terminal_answer() {
    // degrade_watermark 0: every admitted request takes the inline
    // greedy path, deterministically.
    let server = Server::new(ServerConfig {
        degrade_watermark: 0,
        ..ServerConfig::default()
    });
    with_server(server, |addr, server| {
        let mut client = Client::connect(addr).unwrap();
        let problem = examples::figure1();
        let response = client.request(&request(1, &problem)).unwrap();
        assert!(
            matches!(response.status, Status::Solved | Status::BestEffort),
            "degraded path must still answer terminally"
        );
        assert!(response.detail.contains("degraded"));
        assert_eq!(server.stats().degraded.load(Ordering::Relaxed), 1);
        // The full ladder never ran.
        assert_eq!(server.stats().solve_calls.load(Ordering::Relaxed), 0);
    });
}

#[test]
fn saturated_path_answers_with_a_validated_cached_greedy_placement() {
    let server = Server::new(ServerConfig {
        degrade_watermark: 0,
        ..ServerConfig::default()
    });
    with_server(server, |addr, server| {
        let mut client = Client::connect(addr).unwrap();
        let problem = unique_problem(60);
        let response = client.request(&request(1, &problem)).unwrap();
        assert_eq!(response.status, Status::Solved);
        assert!(!response.cache_hit);
        let solution = Solution::new(response.addresses.unwrap());
        assert!(solution.validate(&problem).is_ok());
        assert_eq!(server.stats().solve_calls.load(Ordering::Relaxed), 0);

        // The greedy placement was cached: a renamed, shifted repeat is
        // a hit and never reaches the saturated path again.
        let mut renamed: Vec<Buffer> = problem
            .buffers()
            .iter()
            .map(|b| Buffer::new(b.start() + 3, b.end() + 3, b.size()))
            .collect();
        renamed.reverse();
        let renamed = Problem::new(renamed, problem.capacity()).unwrap();
        let warm = client.request(&request(2, &renamed)).unwrap();
        assert_eq!(warm.status, Status::Solved);
        assert!(warm.cache_hit);
        assert!(Solution::new(warm.addresses.unwrap())
            .validate(&renamed)
            .is_ok());
        assert_eq!(server.stats().degraded.load(Ordering::Relaxed), 1);
        assert_eq!(server.stats().solve_calls.load(Ordering::Relaxed), 0);
    });
}

#[test]
fn thirty_two_concurrent_clients_all_get_terminal_answers() {
    const CLIENTS: u64 = 32;
    const PER_CLIENT: u64 = 4;
    let server = Server::new(ServerConfig {
        workers: 4,
        ..ServerConfig::default()
    });
    with_server(server, |addr, server| {
        let mut latencies: Vec<Duration> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|c| {
                    scope.spawn(move || {
                        let mut client = Client::connect(addr).unwrap();
                        let mut latencies = Vec::new();
                        for i in 0..PER_CLIENT {
                            // Half unique problems, half shared (cacheable).
                            let problem = if i % 2 == 0 {
                                unique_problem(c * PER_CLIENT + i)
                            } else {
                                examples::figure1()
                            };
                            let t0 = Instant::now();
                            let response = client.request(&request(c * 100 + i, &problem)).unwrap();
                            latencies.push(t0.elapsed());
                            // Every status in the enum is terminal; a
                            // solvable workload must never be Infeasible.
                            assert_ne!(response.status, Status::Infeasible);
                        }
                        latencies
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect()
        });
        let total = CLIENTS * PER_CLIENT;
        let stats = server.stats();
        // Zero non-terminal responses: every request answered, and every
        // answer carried a terminal status.
        assert_eq!(stats.responses.load(Ordering::Relaxed), total);
        assert_eq!(stats.terminal_total(), total);
        // p99 latency stays within a generous smoke budget.
        latencies.sort_unstable();
        let p99 = latencies[(latencies.len() * 99 / 100).min(latencies.len() - 1)];
        assert!(
            p99 < Duration::from_secs(5),
            "p99 latency {p99:?} exceeds the smoke budget"
        );
    });
}

#[test]
fn connection_flood_is_refused_with_terminal_rejections() {
    let server = Server::new(ServerConfig {
        max_connections: 2,
        ..ServerConfig::default()
    });
    with_server(server, |addr, server| {
        // Fill the cap, round-tripping a request on each connection so
        // both connection threads are provably live.
        let mut held: Vec<Client> = (0..2).map(|_| Client::connect(addr).unwrap()).collect();
        for (i, client) in held.iter_mut().enumerate() {
            let r = client
                .request(&request(i as u64, &unique_problem(900 + i as u64)))
                .unwrap();
            assert_eq!(r.status, Status::Solved);
        }
        // The connection over the cap gets a terminal rejection with a
        // retry hint, then the server closes it — no thread is spawned.
        let mut extra = Client::connect(addr).unwrap();
        extra
            .set_reply_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let refused = extra.read_response().unwrap();
        assert_eq!(refused.status, Status::Rejected);
        assert!(refused.detail.contains("connection capacity"));
        assert!(refused.retry_after_ms.is_some());
        assert!(server.stats().conn_refused.load(Ordering::Relaxed) >= 1);
        // Closing a held connection frees its slot (after the server's
        // poll notices the EOF), and new connections are served again.
        drop(held.pop());
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let mut fresh = Client::connect(addr).unwrap();
            fresh
                .set_reply_timeout(Some(Duration::from_secs(5)))
                .unwrap();
            let response = fresh.request(&request(99, &unique_problem(990))).unwrap();
            match response.status {
                Status::Solved => break,
                Status::Rejected if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(20));
                }
                other => panic!("expected the freed slot to serve, got {other:?}"),
            }
        }
    });
}

/// A server whose shared tracer is live (the introspection tests need
/// a metrics registry and a span stream to look at).
fn traced_server() -> Server {
    Server::new(ServerConfig {
        tela: telamalloc::TelaConfig {
            tracer: tela_trace::Tracer::wall(),
            ..telamalloc::TelaConfig::default()
        },
        ..ServerConfig::default()
    })
}

#[test]
fn stats_command_reports_negative_gauges() {
    let tracer = tela_trace::Tracer::wall();
    let server = Server::new(ServerConfig {
        tela: telamalloc::TelaConfig {
            tracer: tracer.clone(),
            ..telamalloc::TelaConfig::default()
        },
        ..ServerConfig::default()
    });
    with_server(server, |addr, _| {
        tracer.add_gauge("test.gauge", -3);
        let snapshot = Client::connect(addr).unwrap().stats().unwrap();
        let metrics = snapshot
            .get("stats")
            .and_then(|stats| stats.get("metrics"))
            .expect("metrics object");
        assert_eq!(metrics.get("test.gauge"), Some(&Value::I64(-3)));
    });
}

#[test]
fn stats_command_reports_counters_quantiles_and_tenants() {
    with_server(traced_server(), |addr, server| {
        let mut client = Client::connect(addr).unwrap();
        let problem = examples::figure1();
        assert_eq!(
            client.request(&request(1, &problem)).unwrap().status,
            Status::Solved
        );
        let warm = client.request(&request(2, &problem)).unwrap();
        assert!(warm.cache_hit);

        let snapshot = client.stats().unwrap();
        assert_eq!(snapshot.get("id").and_then(Value::as_u64), Some(1));
        let stats = snapshot.get("stats").expect("stats body");
        let responses = stats.get("responses").expect("responses object");
        assert_eq!(responses.get("total").and_then(Value::as_u64), Some(2));
        assert_eq!(responses.get("solved").and_then(Value::as_u64), Some(2));
        let cache = stats.get("cache").expect("cache object");
        assert_eq!(cache.get("hits").and_then(Value::as_u64), Some(1));
        assert_eq!(cache.get("misses").and_then(Value::as_u64), Some(1));
        assert_eq!(cache.get("hit_rate_pct").and_then(Value::as_u64), Some(50));
        assert_eq!(stats.get("queue_depth").and_then(Value::as_u64), Some(0));
        let tenants = stats.get("tenants").expect("tenants object");
        let test_tenant = tenants.get("test").expect("the requesting tenant appears");
        // Admission saw exactly the cold request (the warm one was a
        // cache hit, served before admission).
        assert_eq!(test_tenant.get("admitted").and_then(Value::as_u64), Some(1));
        assert_eq!(test_tenant.get("denied").and_then(Value::as_u64), Some(0));

        // The reply's counters are the atomics themselves; the registry
        // holds solver metrics only, no second copy of the responses.
        assert_eq!(
            responses.get("total").and_then(Value::as_u64),
            Some(server.stats().terminal_total())
        );
        let metrics = stats.get("metrics").expect("metrics object");
        let series = metrics.as_object().expect("metrics is an object");
        assert!(
            series
                .iter()
                .all(|(name, _)| !name.starts_with("server.responses")),
            "no server.responses* series in the registry"
        );
        // Histogram series carry quantiles (ladder stage steps exist
        // after one real solve).
        let histogram = metrics
            .get("ladder.stage.steps")
            .expect("ladder histogram present after a solve");
        for key in ["count", "p50", "p90", "p99"] {
            assert!(
                histogram.get(key).and_then(Value::as_u64).is_some(),
                "histogram carries {key}"
            );
        }
        // Introspection is not a terminal response: counts unchanged.
        assert_eq!(server.stats().terminal_total(), 2);
    });
}

#[test]
fn trace_command_returns_an_aggregate_rollup_without_request_fields() {
    with_server(traced_server(), |addr, _| {
        let mut client = Client::connect(addr).unwrap();
        assert_eq!(
            client
                .request(&request(1, &unique_problem(40)))
                .unwrap()
                .status,
            Status::Solved
        );
        let snapshot = client.trace_rollup().unwrap();
        let trace = snapshot.get("trace").expect("trace body");
        assert_eq!(trace.get("enabled").and_then(Value::as_bool), Some(true));
        assert_eq!(trace.get("clock").and_then(Value::as_str), Some("wall"));
        let spans = trace
            .get("spans")
            .and_then(Value::as_array)
            .expect("spans array");
        let request_span = spans
            .iter()
            .find(|s| s.get("span").and_then(Value::as_str) == Some("server.request"))
            .expect("server.request span in the rollup");
        assert!(request_span.get("count").and_then(Value::as_u64) >= Some(1));
        // Aggregates only: no per-request payloads anywhere in the body.
        let rendered = tela_trace::json::render(trace);
        assert!(!rendered.contains("problem"), "no request payloads leak");
    });
}

#[test]
fn stats_command_works_without_a_tracer() {
    with_server(Server::new(ServerConfig::default()), |addr, _| {
        let mut client = Client::connect(addr).unwrap();
        let snapshot = client.stats().unwrap();
        let stats = snapshot.get("stats").expect("stats body");
        assert_eq!(
            stats
                .get("responses")
                .and_then(|r| r.get("total"))
                .and_then(Value::as_u64),
            Some(0)
        );
        // No tracer → no registry, but the command still answers.
        assert!(matches!(stats.get("metrics"), Some(Value::Object(m)) if m.is_empty()));
        let trace = client.trace_rollup().unwrap();
        assert_eq!(
            trace
                .get("trace")
                .and_then(|t| t.get("enabled"))
                .and_then(Value::as_bool),
            Some(false)
        );
        // Server counts do not need the registry: the third command's
        // reply counts all three introspections.
        let snapshot = client.stats().unwrap();
        let stats = snapshot.get("stats").expect("stats body");
        assert_eq!(stats.get("introspections").and_then(Value::as_u64), Some(3));
        assert_eq!(stats.get("accept_errors").and_then(Value::as_u64), Some(0));
    });
}

#[test]
fn traced_requests_get_their_own_spans_and_only_theirs() {
    with_server(traced_server(), |addr, _| {
        let mut client = Client::connect(addr).unwrap();

        // An untraced request carries no trace.
        let plain = client.request(&request(1, &unique_problem(50))).unwrap();
        assert_eq!(plain.status, Status::Solved);
        assert!(plain.trace_jsonl.is_none());

        // Two traced requests from different tenants: each response
        // carries that request's spans, stamped with its id, and
        // nothing from the other.
        let mut traced_a = request(51, &unique_problem(51));
        traced_a.trace = true;
        let mut traced_b = request(52, &unique_problem(52));
        traced_b.trace = true;
        traced_b.tenant = "other".into();
        let a = client.request(&traced_a).unwrap();
        let b = client.request(&traced_b).unwrap();
        for (response, id) in [(&a, 51u64), (&b, 52u64)] {
            assert_eq!(response.status, Status::Solved);
            let jsonl = response
                .trace_jsonl
                .as_ref()
                .expect("traced request returns spans");
            let trace = tela_trace::parse_jsonl(jsonl).expect("returned trace parses");
            assert!(!trace.events.is_empty(), "the solve produced spans");
            // The ladder ran under the per-request tracer.
            assert!(trace
                .events
                .iter()
                .any(|e| e.layer.as_ref() == "ladder" && e.name.as_ref() == "solve"));
            // Per-request isolation: every event carries this request's
            // id and no event carries the other's.
            for event in &trace.events {
                let stamped = event
                    .fields
                    .iter()
                    .any(|(k, v)| k.as_ref() == "request" && *v == tela_trace::Value::U64(id));
                assert!(
                    stamped,
                    "event {}.{} missing request id",
                    event.layer, event.name
                );
            }
        }
    });
}

#[test]
fn shutdown_drains_queued_work_into_rejections() {
    // One worker, tiny watermark avoided; stuff the queue with slow-ish
    // work, then shut down and verify every response is terminal.
    let server = Server::new(ServerConfig {
        workers: 1,
        queue_capacity: 8,
        degrade_watermark: 8,
        ..ServerConfig::default()
    });
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let shutdown = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let serving = scope.spawn(|| server.serve(listener, &shutdown));
        let clients: Vec<_> = (0..4)
            .map(|c| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    client
                        .request(&request(c, &unique_problem(c)))
                        .map(|r| r.status)
                })
            })
            .collect();
        // Give the requests a moment to land, then pull the plug.
        std::thread::sleep(Duration::from_millis(150));
        shutdown.store(true, Ordering::Release);
        serving.join().unwrap().unwrap();
        for handle in clients {
            // Either a terminal response arrived (possibly the shutdown
            // rejection) or the connection closed before the reply could
            // be written — but never a hang and never a non-terminal.
            if let Ok(status) = handle.join().unwrap() {
                assert!(matches!(
                    status,
                    Status::Solved
                        | Status::Infeasible
                        | Status::BestEffort
                        | Status::Rejected
                        | Status::TimedOut
                ));
            }
        }
    });
}
