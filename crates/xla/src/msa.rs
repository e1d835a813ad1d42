//! Memory-space assignment with an allocator-driven repacking loop
//! (paper §2.3, §5.6, §7.4).

use tela_model::{Budget, Problem, Size};
use telamalloc::{EscalationLadder, LadderConfig, TelaConfig};

use crate::workloads::XlaProgram;

/// SRAM/HBM cost model.
#[derive(Debug, Clone, Copy)]
pub struct MemoryConfig {
    /// On-chip SRAM (CMEM) capacity, in the workload's size units.
    pub sram_capacity: Size,
    /// Cost per byte-access served from SRAM.
    pub sram_cost: f64,
    /// Cost per byte-access served from HBM.
    pub hbm_cost: f64,
    /// Maximum repacker invocations in the inner loop (the paper's is
    /// "up to 50 times").
    pub max_repacks: u32,
    /// Step budget per repack.
    pub repack_steps: u64,
}

impl Default for MemoryConfig {
    fn default() -> Self {
        MemoryConfig {
            sram_capacity: 2048,
            sram_cost: 0.35,
            hbm_cost: 1.0,
            max_repacks: 50,
            repack_steps: 50_000,
        }
    }
}

/// Which allocator serves as the repacker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Packer {
    /// The best-fit baseline (TensorFlow/XLA's previous algorithm).
    BestFit,
    /// The TelaMalloc pipeline (greedy heuristic, then the hybrid
    /// search).
    TelaMalloc,
}

impl Packer {
    fn pack(&self, problem: &Problem, steps: u64) -> bool {
        match self {
            Packer::BestFit => tela_heuristics::bfc::solve(problem).solution.is_some(),
            // The escalation ladder: greedy first, the search only when
            // greedy fails (§5.6); no spilling — "does not pack" is the
            // answer the loop needs.
            Packer::TelaMalloc => EscalationLadder::new(TelaConfig {
                ladder: LadderConfig {
                    max_spill_rounds: 0,
                },
                ..TelaConfig::default()
            })
            .solve(problem, &Budget::steps(steps))
            .outcome
            .is_solved(),
        }
    }
}

/// Result of the memory-space assignment loop.
#[derive(Debug, Clone)]
pub struct AssignmentReport {
    /// Per-buffer: promoted to SRAM?
    pub in_sram: Vec<bool>,
    /// Number of buffers promoted.
    pub sram_buffers: usize,
    /// Access-weighted bytes served from SRAM.
    pub sram_traffic: u64,
    /// Repacker invocations consumed.
    pub repacks: u32,
}

/// Greedily promotes access-intensive buffers into SRAM, invoking the
/// repacker whenever the current SRAM set plus the candidate no longer
/// packs. Candidates are tried in decreasing benefit (`accesses ×
/// size`), matching XLA's utility-maximizing heuristic (§2.3).
pub fn assign_memory_space(
    program: &XlaProgram,
    config: &MemoryConfig,
    packer: Packer,
) -> AssignmentReport {
    let n = program.buffers.len();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| {
        let b = &program.buffers[i];
        (std::cmp::Reverse(b.accesses * b.buffer.size()), i)
    });

    let mut in_sram = vec![false; n];
    let mut chosen: Vec<usize> = Vec::new();
    let mut repacks = 0u32;
    for i in order {
        let candidate = &program.buffers[i];
        if candidate.buffer.size() > config.sram_capacity {
            continue;
        }
        // Quick admission test: does the contention bound still fit? If
        // not, no packing exists and the repacker need not run.
        let mut buffers: Vec<_> = chosen.iter().map(|&j| program.buffers[j].buffer).collect();
        buffers.push(candidate.buffer);
        let Ok(problem) = Problem::new(buffers, config.sram_capacity) else {
            continue;
        };
        if problem.max_contention() > config.sram_capacity {
            continue;
        }
        // The repacker decides whether the denser set still packs.
        if repacks >= config.max_repacks {
            break;
        }
        repacks += 1;
        if packer.pack(&problem, config.repack_steps) {
            in_sram[i] = true;
            chosen.push(i);
        }
    }
    let sram_traffic = program
        .buffers
        .iter()
        .zip(&in_sram)
        .filter(|&(_, &s)| s)
        .map(|(b, _)| b.accesses * b.buffer.size())
        .sum();
    AssignmentReport {
        sram_buffers: chosen.len(),
        in_sram,
        sram_traffic,
        repacks,
    }
}

/// Analytic execution time: compute plus access-weighted memory cost of
/// every tensor from its assigned memory.
pub fn execution_time(
    program: &XlaProgram,
    report: &AssignmentReport,
    config: &MemoryConfig,
) -> f64 {
    let memory: f64 = program
        .buffers
        .iter()
        .zip(&report.in_sram)
        .map(|(b, &sram)| {
            let traffic = (b.accesses * b.buffer.size()) as f64;
            traffic
                * if sram {
                    config.sram_cost
                } else {
                    config.hbm_cost
                }
        })
        .sum();
    program.compute_time + memory
}

/// End-to-end program speedup of the TelaMalloc repacker over the
/// best-fit repacker (the Figure 18 metric: execution-time speedup of
/// the compiled program).
pub fn speedup_over_best_fit(program: &XlaProgram, config: &MemoryConfig) -> f64 {
    let best_fit = assign_memory_space(program, config, Packer::BestFit);
    let tela = assign_memory_space(program, config, Packer::TelaMalloc);
    let t_best_fit = execution_time(program, &best_fit, config);
    let t_tela = execution_time(program, &tela, config);
    t_best_fit / t_tela
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::tpu_workloads;

    fn small_config() -> MemoryConfig {
        MemoryConfig {
            sram_capacity: 1024,
            ..MemoryConfig::default()
        }
    }

    #[test]
    fn assignment_respects_capacity() {
        let p = &tpu_workloads(0)[0];
        let config = small_config();
        for packer in [Packer::BestFit, Packer::TelaMalloc] {
            let report = assign_memory_space(p, &config, packer);
            // The promoted set must actually pack into SRAM.
            let buffers: Vec<_> = p
                .buffers
                .iter()
                .zip(&report.in_sram)
                .filter(|&(_, &s)| s)
                .map(|(b, _)| b.buffer)
                .collect();
            let problem = Problem::new(buffers, config.sram_capacity).unwrap();
            assert!(problem.max_contention() <= config.sram_capacity);
            assert!(report.repacks <= config.max_repacks);
        }
    }

    #[test]
    fn telamalloc_promotes_at_least_as_much_traffic() {
        let config = small_config();
        for p in &tpu_workloads(0)[..4] {
            let bf = assign_memory_space(p, &config, Packer::BestFit);
            let tm = assign_memory_space(p, &config, Packer::TelaMalloc);
            assert!(
                tm.sram_traffic * 100 >= bf.sram_traffic * 95,
                "{}: tela {} vs best-fit {}",
                p.name,
                tm.sram_traffic,
                bf.sram_traffic
            );
        }
    }

    #[test]
    fn execution_time_decreases_with_promotion() {
        let p = &tpu_workloads(0)[0];
        let config = small_config();
        let none = AssignmentReport {
            in_sram: vec![false; p.buffers.len()],
            sram_buffers: 0,
            sram_traffic: 0,
            repacks: 0,
        };
        let some = assign_memory_space(p, &config, Packer::TelaMalloc);
        assert!(execution_time(p, &some, &config) <= execution_time(p, &none, &config));
    }

    #[test]
    fn speedup_is_at_least_break_even_on_average() {
        let config = small_config();
        let speedups: Vec<f64> = tpu_workloads(0)
            .iter()
            .take(4)
            .map(|p| speedup_over_best_fit(p, &config))
            .collect();
        let mean = speedups.iter().sum::<f64>() / speedups.len() as f64;
        assert!(
            mean >= 0.99,
            "mean speedup {mean}, per-program {speedups:?}"
        );
    }

    #[test]
    fn oversized_buffers_never_promoted() {
        let p = &tpu_workloads(0)[0];
        let config = MemoryConfig {
            sram_capacity: 1,
            ..MemoryConfig::default()
        };
        let report = assign_memory_space(p, &config, Packer::TelaMalloc);
        assert_eq!(report.sram_buffers, 0);
    }
}
