//! Mutation fuzzing of the model text format (`persist::load_model`).
//!
//! The text of a small trained forest is mutated with byte flips, byte
//! replacements from the format's own alphabet, truncations and swapped
//! lines. Invariants: `load_model` never panics, and every model it
//! accepts returns from `predict` on a zero row (no out-of-bounds read,
//! no cycle between nodes).

use proptest::prelude::*;
use tela_learned::persist::{load_model, save_model};
use tela_learned::{Gbt, GbtParams};

/// One edit: `(kind, position, argument)`; positions wrap to the input.
type Mutation = (u8, usize, u32);

const BYTES: &[u8] = b"0123456789 .-e\ngbtvrlafsp";

fn model_text() -> String {
    let rows: Vec<Vec<f64>> = (0..40)
        .map(|i| vec![f64::from(i % 8), f64::from(i / 8)])
        .collect();
    let targets: Vec<f64> = rows.iter().map(|r| r[0] - 2.0 * r[1]).collect();
    let params = GbtParams {
        n_trees: 3,
        max_depth: 2,
        min_samples_leaf: 2,
        ..GbtParams::default()
    };
    save_model(&Gbt::fit(&rows, &targets, &params))
}

fn mutate(text: &str, mutations: &[Mutation]) -> String {
    let mut bytes = text.as_bytes().to_vec();
    for &(kind, pos, arg) in mutations {
        let at = pos % (bytes.len() + 1);
        match kind % 4 {
            0 if at < bytes.len() => bytes[at] ^= 1 + (arg % 255) as u8,
            1 if at < bytes.len() => bytes[at] = BYTES[arg as usize % BYTES.len()],
            2 => bytes.truncate(at),
            3 => {
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

/// Loads one mutated text; an accepted model must predict on a zero
/// row. Returns whether the text was accepted.
fn accepted(text: &str) -> bool {
    match load_model(text) {
        Ok(model) => {
            let _ = model.predict(&[0.0, 0.0]);
            true
        }
        Err(_) => false,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn mutated_models_never_panic_or_hang(
        mutations in prop::collection::vec((0u8..4, 0usize..1 << 16, 0u32..1 << 16), 1..4),
    ) {
        accepted(&mutate(&model_text(), &mutations));
    }
}

#[test]
fn mutations_reach_accepted_and_rejected_models() {
    // Guards the generator: if every mutant were rejected (or every one
    // accepted unchanged) the property above would pass vacuously.
    let text = model_text();
    let mut rng = proptest::test_runner::TestRng::deterministic("model_fuzz");
    let (mut changed_and_accepted, mut rejected) = (0, 0);
    for _ in 0..2048 {
        let mutation = (
            rng.below(4) as u8,
            rng.below(1 << 16) as usize,
            rng.below(1 << 16) as u32,
        );
        let mutant = mutate(&text, &[mutation]);
        if accepted(&mutant) {
            changed_and_accepted += usize::from(mutant != text);
        } else {
            rejected += 1;
        }
    }
    assert!(changed_and_accepted > 0, "no altered model was accepted");
    assert!(rejected > 0, "no mutant was rejected");
}
