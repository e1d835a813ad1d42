//! Request parsing is linear in the frame size.
//!
//! A 64 KB request frame must parse in about 16× the time of a 4 KB
//! one. A parser that rescans the rest of the frame per character is
//! quadratic and lands far above the bound. Run it in release for a
//! stable reading: `cargo test --release -p tela-server --test
//! parse_scaling`.

use std::time::{Duration, Instant};
use tela_server::protocol::{parse_payload, render_request};
use tela_server::{Payload, Request};

/// A solve-request frame of at least `bytes` bytes whose problem text
/// is a run of `buffer` lines, as clients send them.
fn request_frame(bytes: usize) -> String {
    let mut problem = String::from("capacity 1048576\n");
    let mut i = 0u32;
    while problem.len() < bytes {
        problem.push_str(&format!("buffer {} {} {}\n", i, i + 7, 64 + i % 4096));
        i += 1;
    }
    render_request(&Request {
        id: 1,
        tenant: "scaling".into(),
        problem,
        max_steps: Some(5000),
        deadline_ms: None,
        trace: false,
    })
}

/// Minimum over 7 samples of the time to parse `frame` `reps` times.
fn min_of_7(frame: &str, reps: usize) -> Duration {
    (0..7)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..reps {
                let parsed = parse_payload(std::hint::black_box(frame));
                assert!(matches!(parsed, Ok(Payload::Solve(_))));
            }
            start.elapsed()
        })
        .min()
        .unwrap()
}

#[test]
fn parse_time_grows_linearly_with_frame_size() {
    const STEP: usize = 16;
    let small = request_frame(4 << 10);
    let large = request_frame(64 << 10);
    // Each sample covers the same number of bytes at both sizes, so the
    // small frame's timing is not lost in timer resolution.
    let ratio =
        min_of_7(&large, 1).as_secs_f64() * STEP as f64 / min_of_7(&small, STEP).as_secs_f64();
    println!("64 KB / 4 KB parse-time ratio: {ratio:.1} (linear: {STEP})");
    assert!(
        ratio < 2.0 * STEP as f64,
        "a 16x larger frame took {ratio:.1}x as long to parse"
    );
}
