//! End-to-end mini-compiler flow (paper §2.3): graph → schedule →
//! buffers → TelaMalloc packing, with the DRAM-spill fallback when the
//! scratchpad is too small.
//!
//! Run with: `cargo run --release --example pixel_compiler`

use tela_model::ResilienceStage;
use tela_pixel::ir::zoo;
use tela_pixel::{Compiler, CompilerSettings};

fn main() {
    let models: [(&str, tela_pixel::ir::Graph); 3] = [
        ("mobilenet-like", zoo::mobilenet_like(96, 8)),
        ("unet-like", zoo::unet_like(96, 3)),
        ("detector-like", zoo::detector_like(96, 4)),
    ];

    for (name, graph) in &models {
        println!("== {name}: {} ops", graph.len());
        for scratchpad_kib in [2048u64, 512, 192, 96] {
            let settings = CompilerSettings {
                scratchpad_bytes: scratchpad_kib * 1024,
                ..CompilerSettings::default()
            };
            match Compiler::new(settings).compile(graph) {
                Ok(c) => {
                    let stage = if c.stage == ResilienceStage::Heuristic {
                        "heuristic"
                    } else {
                        "telamalloc"
                    };
                    println!(
                        "  {scratchpad_kib:>5} KiB: ok via {stage:10} ({} buffers, {} spills, {} KiB moved to DRAM)",
                        c.problem.len(),
                        c.spills.evicted.len(),
                        c.spills.bytes_spilled / 1024,
                    );
                }
                Err(e) => println!("  {scratchpad_kib:>5} KiB: FAILED ({e})"),
            }
        }
        println!();
    }
    println!("smaller scratchpads force the spill fallback the paper's intro");
    println!("describes: memory pressure is traded for extra DMA transfers.");
}
