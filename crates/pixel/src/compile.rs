//! The compilation driver: schedule → lower → allocate → (spill →
//! retry)*, mirroring the on-device flow of paper §2.3.

use tela_model::{Budget, Problem, ResilienceStage, Solution, SolveOutcome, SolveStats};
use telamalloc::{EscalationLadder, LadderConfig, SpillHook, TelaConfig};

use crate::ir::Graph;
use crate::memory::{lower, Lowered, LoweringConfig};
use crate::schedule::{schedule, Schedule, ScheduleStrategy};
use crate::spill::{evict, pick_victim, SpillReport};

/// Settings "provided by the application or system" (§2.3).
#[derive(Debug, Clone, Copy)]
pub struct CompilerSettings {
    /// On-chip scratchpad capacity in bytes.
    pub scratchpad_bytes: u64,
    /// Scheduling strategy.
    pub schedule: ScheduleStrategy,
    /// Lowering knobs (element width, DRAM threshold, alignment).
    pub lowering: LoweringConfig,
    /// Maximum spill-and-retry rounds before giving up.
    pub max_spill_rounds: u32,
    /// Step budget per allocation attempt.
    pub allocation_steps: u64,
}

impl Default for CompilerSettings {
    fn default() -> Self {
        CompilerSettings {
            scratchpad_bytes: 512 * 1024,
            schedule: ScheduleStrategy::MemoryAware,
            lowering: LoweringConfig::default(),
            max_spill_rounds: 64,
            allocation_steps: 200_000,
        }
    }
}

/// A successful compilation.
#[derive(Debug, Clone)]
pub struct Compiled {
    /// The allocation problem finally packed (post-spill buffer set).
    pub problem: Problem,
    /// The packing.
    pub solution: Solution,
    /// The operator schedule.
    pub schedule: Schedule,
    /// Which ladder stage succeeded.
    pub stage: ResilienceStage,
    /// Aggregate allocation statistics across every attempt.
    pub stats: SolveStats,
    /// What had to be spilled to DRAM to fit.
    pub spills: SpillReport,
}

/// Compilation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// Even after exhausting spill rounds the buffers cannot be packed.
    Unallocatable {
        /// Spill rounds performed before giving up.
        rounds: u32,
    },
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::Unallocatable { rounds } => {
                write!(f, "buffers cannot be packed after {rounds} spill rounds")
            }
        }
    }
}

impl std::error::Error for CompileError {}

/// The mini compiler.
#[derive(Debug, Clone, Default)]
pub struct Compiler {
    settings: CompilerSettings,
}

impl Compiler {
    /// Creates a compiler with the given settings.
    pub fn new(settings: CompilerSettings) -> Self {
        Compiler { settings }
    }

    /// The settings in use.
    pub fn settings(&self) -> &CompilerSettings {
        &self.settings
    }

    /// Compiles `graph`: schedules it, lowers it to buffers, and packs
    /// them into the scratchpad through the resilient escalation ladder,
    /// spilling activations to DRAM and retrying when packing fails.
    ///
    /// # Errors
    ///
    /// [`CompileError::Unallocatable`] when the buffer set cannot be
    /// packed even after `max_spill_rounds` evictions.
    pub fn compile(&self, graph: &Graph) -> Result<Compiled, CompileError> {
        let s = &self.settings;
        let sched = schedule(graph, s.schedule, s.lowering.bytes_per_element);
        let mut lowered: Lowered = lower(graph, &sched, &s.lowering);
        let mut spills = SpillReport::empty();

        // Pre-spill down to the first buffer set that can possibly fit:
        // the search stages should never be asked to disprove what
        // arithmetic (oversized buffer, contention bound) already rules
        // out. Eviction terminates — each round removes an activation.
        let initial = loop {
            if let Ok(problem) = lowered.problem(s.scratchpad_bytes) {
                if problem.max_contention() <= problem.capacity() {
                    break problem;
                }
            }
            if !spill_once(&mut lowered, &mut spills, s.lowering.dma_staging_bytes) {
                return Err(CompileError::Unallocatable {
                    rounds: spills.evicted.len() as u32,
                });
            }
        };

        let config = TelaConfig {
            ladder: LadderConfig {
                max_spill_rounds: s.max_spill_rounds,
            },
            ..TelaConfig::default()
        };
        // The whole ladder shares one budget sized for the worst case:
        // one full-strength attempt per spill round.
        let budget = Budget::steps(
            s.allocation_steps
                .saturating_mul(u64::from(s.max_spill_rounds).saturating_add(1)),
        );
        let mut hook = LoweredSpillHook {
            lowered: &mut lowered,
            spills: &mut spills,
            capacity: s.scratchpad_bytes,
            staging_bytes: s.lowering.dma_staging_bytes,
        };
        let result = EscalationLadder::new(config).solve_with_spill(initial, &budget, &mut hook);
        match result.outcome {
            SolveOutcome::Solved(solution) => Ok(Compiled {
                solution,
                problem: result.problem,
                schedule: sched,
                stage: result.stage,
                stats: result.stats,
                spills,
            }),
            // Infeasible and BestEffort both mean "does not fit even
            // after spilling": the compiler's contract only has one
            // failure mode.
            _ => Err(CompileError::Unallocatable {
                rounds: spills.evicted.len() as u32,
            }),
        }
    }
}

/// Evicts one activation into `spills`. Returns false when nothing
/// spillable remains.
fn spill_once(lowered: &mut Lowered, spills: &mut SpillReport, staging_bytes: u64) -> bool {
    let Some(victim) = pick_victim(lowered, staging_bytes) else {
        return false;
    };
    let (op, bytes, staging) = evict(lowered, victim, staging_bytes);
    spills.evicted.push(op);
    spills.bytes_spilled += bytes;
    spills.staging_buffers += staging;
    true
}

/// The [`SpillHook`] the compiler hands to the escalation ladder: each
/// ladder round evicts activations until the rebuilt problem clears the
/// static bounds again (matching the pre-spill loop), so every problem
/// the search sees is at least arithmetically packable.
struct LoweredSpillHook<'a> {
    lowered: &'a mut Lowered,
    spills: &'a mut SpillReport,
    capacity: u64,
    staging_bytes: u64,
}

impl SpillHook for LoweredSpillHook<'_> {
    fn spill(&mut self, _round: u32) -> Option<Problem> {
        loop {
            if !spill_once(self.lowered, self.spills, self.staging_bytes) {
                return None;
            }
            if let Ok(problem) = self.lowered.problem(self.capacity) {
                if problem.max_contention() <= problem.capacity() {
                    return Some(problem);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::zoo;

    #[test]
    fn roomy_scratchpad_compiles_without_spills() {
        let settings = CompilerSettings {
            scratchpad_bytes: 8 * 1024 * 1024,
            ..CompilerSettings::default()
        };
        let compiled = Compiler::new(settings)
            .compile(&zoo::mobilenet_like(96, 8))
            .expect("roomy compile succeeds");
        assert!(compiled.spills.is_empty());
        assert!(compiled.solution.validate(&compiled.problem).is_ok());
    }

    #[test]
    fn tight_scratchpad_forces_spills() {
        let g = zoo::unet_like(96, 3);
        // Find a scratchpad just below the no-spill requirement.
        let roomy = Compiler::new(CompilerSettings {
            scratchpad_bytes: 64 * 1024 * 1024,
            ..CompilerSettings::default()
        })
        .compile(&g)
        .expect("roomy compile succeeds");
        let tight_bytes = roomy.problem.max_contention() / 2;
        let tight = Compiler::new(CompilerSettings {
            scratchpad_bytes: tight_bytes,
            ..CompilerSettings::default()
        })
        .compile(&g)
        .expect("spilling rescues the tight compile");
        assert!(!tight.spills.is_empty());
        assert!(tight.solution.validate(&tight.problem).is_ok());
        assert!(tight.problem.capacity() <= tight_bytes);
    }

    #[test]
    fn hopeless_scratchpad_reports_unallocatable() {
        let g = zoo::mobilenet_like(64, 4);
        let err = Compiler::new(CompilerSettings {
            scratchpad_bytes: 64, // smaller than any weight slice
            max_spill_rounds: 8,
            ..CompilerSettings::default()
        })
        .compile(&g)
        .unwrap_err();
        assert!(matches!(err, CompileError::Unallocatable { .. }));
        assert!(err.to_string().contains("spill rounds"));
    }

    #[test]
    fn spilled_set_still_covers_all_weights_and_scratch() {
        // Spilling only ever evicts activations; weights/scratch remain.
        let g = zoo::detector_like(96, 4);
        let roomy = Compiler::new(CompilerSettings {
            scratchpad_bytes: 64 * 1024 * 1024,
            ..CompilerSettings::default()
        })
        .compile(&g)
        .expect("roomy");
        let tight = Compiler::new(CompilerSettings {
            scratchpad_bytes: roomy.problem.max_contention() * 6 / 10,
            ..CompilerSettings::default()
        })
        .compile(&g)
        .expect("tight with spills");
        let weights = |c: &Compiled| {
            c.problem
                .buffers()
                .iter()
                .filter(|b| b.align() == 64)
                .count()
        };
        assert_eq!(weights(&roomy), weights(&tight));
    }

    #[test]
    fn compilation_is_deterministic() {
        let g = zoo::mobilenet_like(64, 6);
        let run = || {
            Compiler::new(CompilerSettings {
                scratchpad_bytes: 768 * 1024,
                ..CompilerSettings::default()
            })
            .compile(&g)
            .expect("compiles")
        };
        let a = run();
        let b = run();
        assert_eq!(a.solution, b.solution);
        assert_eq!(a.spills, b.spills);
    }

    #[test]
    fn memory_aware_schedule_spills_no_more_than_program_order() {
        let g = zoo::unet_like(96, 3);
        let spills = |strategy| {
            let settings = CompilerSettings {
                scratchpad_bytes: 600 * 1024,
                schedule: strategy,
                ..CompilerSettings::default()
            };
            Compiler::new(settings)
                .compile(&g)
                .map(|c| c.spills.evicted.len())
                .unwrap_or(usize::MAX)
        };
        assert!(spills(ScheduleStrategy::MemoryAware) <= spills(ScheduleStrategy::Program));
    }
}
