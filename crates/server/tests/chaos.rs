//! Seeded chaos soak (gating, `fault-inject` feature only): server-shaped
//! faults — worker panics mid-request, client stalls and disconnects,
//! queue-full bursts, solver-level stalls/cancellations — driven by
//! [`ServerFaultPlan`] seeds, with one invariant checked throughout:
//! **every surviving request gets exactly one terminal response, and the
//! service keeps answering afterwards.**

#![cfg(feature = "fault-inject")]

use std::net::{SocketAddr, TcpListener};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;
use tela_model::{problem_to_text, Buffer, Problem, ServerFaultPlan};
use tela_server::{Client, Request, Server, ServerConfig, Status, TenantConfig};

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

fn chaos_config(plan: ServerFaultPlan) -> ServerConfig {
    ServerConfig {
        workers: 2,
        queue_capacity: 8,
        degrade_watermark: 6,
        admission: TenantConfig {
            // Generous admission so the interesting rejections come from
            // shedding and faults, not the token bucket.
            refill_per_sec: 10_000,
            burst: 1_000,
            deadline_cap: Duration::from_secs(5),
            ..TenantConfig::default()
        },
        fault_plan: Some(plan),
        ..ServerConfig::default()
    }
}

/// A solvable problem unique to `tag`.
fn unique_problem(tag: u64) -> Problem {
    Problem::builder(64 + tag)
        .buffer(Buffer::new(0, 4, 30 + tag))
        .buffer(Buffer::new(2, 6, 20))
        .buffer(Buffer::new(5, 9, 34))
        .build()
        .unwrap()
}

fn request(id: u64, problem: &Problem) -> Request {
    Request {
        id,
        tenant: "chaos".into(),
        problem: problem_to_text(problem),
        max_steps: Some(200_000),
        deadline_ms: Some(3_000),
        trace: false,
    }
}

const TERMINAL: [Status; 5] = [
    Status::Solved,
    Status::Infeasible,
    Status::BestEffort,
    Status::Rejected,
    Status::TimedOut,
];

/// Deterministic reply-then-die: the request whose worker panics still
/// gets a terminal answer, the worker is respawned, and the next
/// request solves normally.
#[test]
fn worker_panic_answers_terminally_and_respawns() {
    let plan = ServerFaultPlan {
        worker_panic_request: Some(2),
        ..ServerFaultPlan::default()
    };
    with_server(Server::new(chaos_config(plan)), |addr, server| {
        let mut client = Client::connect(addr).unwrap();
        for ordinal in 0u64..5 {
            let response = client
                .request(&request(ordinal, &unique_problem(ordinal)))
                .unwrap();
            if ordinal == 2 {
                assert_eq!(response.status, Status::BestEffort);
                assert!(response.detail.contains("worker fault"));
            } else {
                assert_eq!(response.status, Status::Solved, "request {ordinal}");
            }
        }
        // The reply goes out before the panic unwinds, and the other
        // worker can answer the last requests while the panic hook
        // still runs, so give the supervisor a bounded wait to count
        // the respawn.
        let respawns = || server.stats().worker_respawns.load(Ordering::Relaxed);
        let mut waited = 0;
        while respawns() == 0 && waited < 200 {
            std::thread::sleep(Duration::from_millis(10));
            waited += 1;
        }
        assert_eq!(respawns(), 1);
        assert_eq!(server.stats().responses.load(Ordering::Relaxed), 5);
        assert_eq!(server.stats().terminal_total(), 5);
    });
}

/// A client that sends a request and hangs up must flip the job's
/// cancel flag; the server stays healthy and still counts a terminal
/// response for the abandoned request.
#[test]
fn client_disconnect_cancels_and_leaves_the_server_healthy() {
    with_server(
        Server::new(chaos_config(ServerFaultPlan::default())),
        |addr, server| {
            {
                let mut ghost = Client::connect(addr).unwrap();
                ghost.send(&request(1, &unique_problem(100))).unwrap();
                // Drop without reading: mid-flight disconnect.
            }
            // The service keeps serving new clients.
            let mut client = Client::connect(addr).unwrap();
            for id in 2..6 {
                let response = client.request(&request(id, &unique_problem(id))).unwrap();
                assert_eq!(response.status, Status::Solved);
            }
            // The ghost's request was answered terminally (even though
            // nobody read it) — give the worker a moment to finish.
            let mut waited = 0;
            while server.stats().responses.load(Ordering::Relaxed) < 5 && waited < 200 {
                std::thread::sleep(Duration::from_millis(25));
                waited += 1;
            }
            assert_eq!(server.stats().responses.load(Ordering::Relaxed), 5);
            assert_eq!(server.stats().terminal_total(), 5);
        },
    );
}

/// A stalled reader does not lose its response: the server keeps the
/// terminal reply waiting on the socket.
#[test]
fn stalled_clients_still_receive_their_answer() {
    with_server(
        Server::new(chaos_config(ServerFaultPlan::default())),
        |addr, _| {
            let mut client = Client::connect(addr).unwrap();
            client.send(&request(1, &unique_problem(200))).unwrap();
            std::thread::sleep(Duration::from_millis(300));
            let response = client.read_response().unwrap();
            assert_eq!(response.status, Status::Solved);
        },
    );
}

/// A burst far beyond queue capacity: some requests are shed with
/// `Rejected{retry_after}` or degraded to greedy, but all of them get a
/// terminal answer and the queue never wedges.
#[test]
fn queue_full_burst_sheds_with_backpressure_not_silence() {
    let server = Server::new(ServerConfig {
        workers: 1,
        queue_capacity: 2,
        degrade_watermark: 64, // keep degradation out of this test's way
        fault_plan: None,
        ..chaos_config(ServerFaultPlan::default())
    });
    with_server(server, |addr, server| {
        let answered = AtomicU64::new(0);
        std::thread::scope(|scope| {
            for c in 0u64..12 {
                let answered = &answered;
                scope.spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    let response = client
                        .request(&request(c, &unique_problem(300 + c)))
                        .unwrap();
                    assert!(TERMINAL.contains(&response.status));
                    if response.status == Status::Rejected {
                        assert!(
                            response.retry_after_ms.is_some(),
                            "shed rejections carry a retry hint"
                        );
                    }
                    answered.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(answered.load(Ordering::Relaxed), 12);
        assert_eq!(server.stats().terminal_total(), 12);
    });
}

/// The seeded soak: 24 seeds × a mixed workload under whatever faults
/// the seed scripts, including scripted client misbehaviour. The
/// invariant is liveness + terminality, not any particular status mix.
#[test]
fn seeded_soak_survives_scripted_faults() {
    for seed in 0u64..24 {
        let plan = ServerFaultPlan::from_seed(seed);
        let client_disconnect = plan.client_disconnect_request;
        let client_stall = plan.client_stall_request;
        let burst = plan.burst;
        let server = Server::new(chaos_config(plan));
        with_server(server, |addr, server| {
            let abandoned = AtomicU64::new(0);
            std::thread::scope(|scope| {
                for lane in 0u64..4 {
                    let abandoned = &abandoned;
                    scope.spawn(move || {
                        let mut client = Client::connect(addr).unwrap();
                        for slot in 0..6 {
                            let ordinal = lane * 6 + slot;
                            let problem = unique_problem(seed * 1_000 + ordinal);
                            let r = request(ordinal, &problem);
                            if client_disconnect == Some(ordinal) {
                                // Scripted mid-flight disconnect.
                                client.send(&r).unwrap();
                                abandoned.fetch_add(1, Ordering::Relaxed);
                                client = Client::connect(addr).unwrap();
                                continue;
                            }
                            if let Some((at, stall)) = client_stall {
                                if at == ordinal {
                                    client.send(&r).unwrap();
                                    std::thread::sleep(stall.min(Duration::from_millis(150)));
                                    let response = client.read_response().unwrap();
                                    assert!(TERMINAL.contains(&response.status));
                                    continue;
                                }
                            }
                            if let Some((at, size)) = burst {
                                if at == ordinal {
                                    // Scripted thundering herd.
                                    std::thread::scope(|burst_scope| {
                                        for b in 0..size {
                                            let extra =
                                                unique_problem(seed * 1_000 + 500 + u64::from(b));
                                            let req = request(9_000 + u64::from(b), &extra);
                                            burst_scope.spawn(move || {
                                                let mut c = Client::connect(addr).unwrap();
                                                let response = c.request(&req).unwrap();
                                                assert!(TERMINAL.contains(&response.status));
                                            });
                                        }
                                    });
                                }
                            }
                            let response = client.request(&r).unwrap();
                            assert!(
                                TERMINAL.contains(&response.status),
                                "seed {seed} ordinal {ordinal}"
                            );
                        }
                    });
                }
            });
            // Post-soak liveness probe: the service still solves.
            let mut client = Client::connect(addr).unwrap();
            let probe = client
                .request(&request(77, &unique_problem(seed * 1_000 + 999)))
                .unwrap();
            assert!(
                matches!(probe.status, Status::Solved | Status::Rejected),
                "seed {seed}: post-soak probe got {:?}",
                probe.status
            );
            // Terminality in countable form; abandoned requests may
            // still be mid-solve, so allow the in-flight remainder to
            // settle before checking.
            let expected_min = 24 - abandoned.load(Ordering::Relaxed) + 1;
            let mut waited = 0;
            while server.stats().terminal_total()
                != server.stats().responses.load(Ordering::Relaxed)
                && waited < 100
            {
                std::thread::sleep(Duration::from_millis(10));
                waited += 1;
            }
            let stats = server.stats();
            assert_eq!(
                stats.terminal_total(),
                stats.responses.load(Ordering::Relaxed),
                "seed {seed}: some response carried a non-terminal accounting"
            );
            assert!(
                stats.responses.load(Ordering::Relaxed) >= expected_min,
                "seed {seed}: {} responses < {expected_min} minimum",
                stats.responses.load(Ordering::Relaxed)
            );
        });
    }
}
