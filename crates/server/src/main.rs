//! The `tela-server` binary: bind, serve, and (optionally) stop after a
//! fixed run time.
//!
//! ```text
//! tela-server [--addr 127.0.0.1:7171] [--workers 4] [--queue 64]
//!             [--degrade 48] [--cache 256] [--max-conns 128]
//!             [--run-seconds 0]
//! ```
//!
//! `--run-seconds 0` (the default) serves until the process is killed;
//! a positive value runs a timed session and prints a stats summary —
//! which is how the CI smoke drives it.
//!
//! The `stats` command reports the server's counters whether or not
//! tracing is on. `TELA_TRACE=1` (wall clock) opts the shared pipeline
//! into tracing as well: `stats` then adds the solver's metrics and
//! histogram quantiles from the live registry, and the `trace` command
//! returns a span rollup. Off by default — a shared tracer's
//! event buffer grows for the life of the process. Per-request tracing
//! (`"trace": true` on a solve request) works either way.

use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;
use tela_server::{Server, ServerConfig};

fn arg<T: std::str::FromStr>(flag: &str, default: T) -> T {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == flag {
            if let Some(value) = args.next() {
                if let Ok(parsed) = value.parse() {
                    return parsed;
                }
            }
        }
    }
    default
}

fn main() -> std::io::Result<()> {
    let addr: String = arg("--addr", "127.0.0.1:7171".to_string());
    let run_seconds: u64 = arg("--run-seconds", 0);
    let config = ServerConfig {
        workers: arg("--workers", 4),
        queue_capacity: arg("--queue", 64),
        degrade_watermark: arg("--degrade", 48),
        cache_capacity: arg("--cache", 256),
        max_connections: arg("--max-conns", 128),
        tela: telamalloc::TelaConfig {
            tracer: tela_trace::Tracer::from_env(),
            ..telamalloc::TelaConfig::default()
        },
        ..ServerConfig::default()
    };
    let listener = TcpListener::bind(&addr)?;
    println!("tela-server listening on {}", listener.local_addr()?);
    let server = Server::new(config);
    let shutdown = AtomicBool::new(false);
    std::thread::scope(|scope| {
        if run_seconds > 0 {
            scope.spawn(|| {
                std::thread::sleep(Duration::from_secs(run_seconds));
                shutdown.store(true, Ordering::Release);
            });
        }
        server.serve(listener, &shutdown)
    })?;
    let stats = server.stats();
    println!(
        "served {} responses (solved {}, infeasible {}, best_effort {}, rejected {}, timed_out {}); \
         cache hits {}, shed {}, degraded {}, worker respawns {}",
        stats.responses.load(Ordering::Relaxed),
        stats.solved.load(Ordering::Relaxed),
        stats.infeasible.load(Ordering::Relaxed),
        stats.best_effort.load(Ordering::Relaxed),
        stats.rejected.load(Ordering::Relaxed),
        stats.timed_out.load(Ordering::Relaxed),
        server.cache().hits(),
        stats.shed.load(Ordering::Relaxed),
        stats.degraded.load(Ordering::Relaxed),
        stats.worker_respawns.load(Ordering::Relaxed),
    );
    Ok(())
}
