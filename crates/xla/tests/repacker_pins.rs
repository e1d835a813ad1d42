//! Pins what the TelaMalloc repacker decides on every Figure 18
//! program: how many buffers reach SRAM, the access-weighted bytes they
//! carry and how many repacks the loop spent. Budgets are steps only,
//! so each triple is a pure function of the packer; a change to the
//! repacker's solve path that moves any of them fails here.

use tela_xla::{assign_memory_space, tpu_workloads, MemoryConfig, Packer};

/// `(name, sram_buffers, sram_traffic, repacks)` per program of
/// `tpu_workloads(0)` at `MemoryConfig::default()`.
const PINNED: [(&str, usize, u64, u32); 8] = [
    ("transformer-big", 50, 1_498_414, 50),
    ("transformer-small", 50, 357_598, 50),
    ("bert-like", 50, 868_235, 50),
    ("resnet-like", 50, 282_216, 50),
    ("mlp-mixer", 50, 882_743, 50),
    ("recommender", 50, 1_673_530, 50),
    ("speech-rnn", 50, 249_551, 50),
    ("vision-vit", 50, 585_645, 50),
];

#[test]
fn telamalloc_repacker_decisions_are_pinned() {
    let config = MemoryConfig::default();
    let got: Vec<(String, usize, u64, u32)> = tpu_workloads(0)
        .iter()
        .map(|program| {
            let report = assign_memory_space(program, &config, Packer::TelaMalloc);
            (
                program.name.clone(),
                report.sram_buffers,
                report.sram_traffic,
                report.repacks,
            )
        })
        .collect();
    let want: Vec<(String, usize, u64, u32)> = PINNED
        .iter()
        .map(|&(name, buffers, traffic, repacks)| (name.to_string(), buffers, traffic, repacks))
        .collect();
    assert_eq!(got, want);
}
