//! Mutation fuzzing of the problem text format (`parse_problem`), which
//! the allocation service parses from every client frame.
//!
//! `problem_to_text` output is mutated with byte flips, byte
//! replacements from the format's own alphabet, truncations, deletions
//! and swapped lines. Invariants: `parse_problem` never panics, and
//! every problem it accepts round-trips through `problem_to_text`.

use proptest::prelude::*;
use tela_model::{parse_problem, problem_to_text, Buffer, Problem};

/// One edit: `(kind, position, argument)`; positions wrap to the input.
type Mutation = (u8, usize, u32);

const BYTES: &[u8] = b"0123456789 \n#-+bufercapity";

fn problem_texts() -> Vec<String> {
    let aligned = Problem::builder(4096)
        .buffer(Buffer::new(0, 4, 128))
        .buffer(Buffer::new(2, 6, 64).with_align(32))
        .buffer(Buffer::new(5, 9, 256).with_align(8))
        .buffer(Buffer::new(1, 3, 1000))
        .build()
        .expect("valid problem");
    let near_limits = Problem::builder(u64::MAX / 2)
        .buffer(Buffer::new(0, u32::MAX, u64::MAX / 4))
        .buffer(Buffer::new(7, 8, 1).with_align(1 << 40))
        .build()
        .expect("valid problem");
    vec![
        problem_to_text(&aligned),
        problem_to_text(&near_limits),
        problem_to_text(&tela_model::examples::figure1()),
    ]
}

fn mutate(text: &str, mutations: &[Mutation]) -> String {
    let mut bytes = text.as_bytes().to_vec();
    for &(kind, pos, arg) in mutations {
        let at = pos % (bytes.len() + 1);
        match kind % 5 {
            0 if at < bytes.len() => bytes[at] ^= 1 + (arg % 255) as u8,
            1 if at < bytes.len() => bytes[at] = BYTES[arg as usize % BYTES.len()],
            2 => bytes.truncate(at),
            3 => {
                let end = (at + 1 + arg as usize % 8).min(bytes.len());
                bytes.drain(at..end);
            }
            4 => {
                let text = String::from_utf8_lossy(&bytes).into_owned();
                let mut lines: Vec<&str> = text.lines().collect();
                if !lines.is_empty() {
                    let a = at % lines.len();
                    let b = arg as usize % lines.len();
                    lines.swap(a, b);
                }
                bytes = lines.join("\n").into_bytes();
            }
            _ => {}
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Parses one mutated text; an accepted problem must round-trip.
/// Returns whether the text was accepted.
fn accepted(text: &str) -> bool {
    match parse_problem(text) {
        Ok(problem) => {
            assert_eq!(
                parse_problem(&problem_to_text(&problem)).as_ref(),
                Ok(&problem),
                "accepted problem does not round-trip; input:\n{text}"
            );
            true
        }
        Err(_) => false,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn mutated_problems_never_panic_and_round_trip(
        seed in 0usize..3,
        mutations in prop::collection::vec((0u8..5, 0usize..1 << 16, 0u32..1 << 16), 1..4),
    ) {
        accepted(&mutate(&problem_texts()[seed], &mutations));
    }
}

#[test]
fn mutations_reach_accepted_and_rejected_problems() {
    // Guards the generator: if every mutant were rejected (or every one
    // accepted unchanged) the property above would pass vacuously.
    let texts = problem_texts();
    let mut rng = proptest::test_runner::TestRng::deterministic("text_fuzz");
    let (mut changed_and_accepted, mut rejected) = (0, 0);
    for _ in 0..2048 {
        let text = &texts[rng.below(texts.len() as u64) as usize];
        let mutation = (
            rng.below(5) as u8,
            rng.below(1 << 16) as usize,
            rng.below(1 << 16) as u32,
        );
        let mutant = mutate(text, &[mutation]);
        if accepted(&mutant) {
            changed_and_accepted += usize::from(&mutant != text);
        } else {
            rejected += 1;
        }
    }
    assert!(changed_and_accepted > 0, "no altered problem was accepted");
    assert!(rejected > 0, "no mutant was rejected");
}
