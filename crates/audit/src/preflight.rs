//! The preflight driver: runs every pass in cost order and produces one
//! [`Verdict`].

use tela_model::{maximal_live_sets, BufferId, InstanceStats, Problem, Solution};

use crate::certificate::Certificate;
use crate::passes;

/// Which passes the preflight runs, and how hard it may work.
///
/// All passes default to on; disabling passes only ever weakens the
/// audit (it can never change a sound verdict into an unsound one,
/// merely turn `ProvablyInfeasible`/`TriviallyFeasible` into
/// `NeedsSearch`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditConfig {
    /// Reject problems with a buffer larger than the whole memory.
    pub oversized: bool,
    /// Run the per-time-step contention bound (paper §3.1).
    pub contention: bool,
    /// Run the alignment-padding pair pigeonhole over overlapping pairs.
    pub pair_pigeonhole: bool,
    /// Run the gcd-block bound over maximal live sets.
    pub aligned_contention: bool,
    /// Run the per-alignment sub-clique block bound.
    pub clique_blocks: bool,
    /// Solve overlap-free and single-clique instances constructively.
    pub trivial_feasibility: bool,
    /// Skip the pair/clique/trivial passes (which enumerate overlap
    /// structure and can cost `O(n²)` on dense instances) for problems
    /// with more buffers than this. The `O(n + horizon)` passes always
    /// run.
    pub exhaustive_limit: usize,
}

impl Default for AuditConfig {
    fn default() -> Self {
        AuditConfig {
            oversized: true,
            contention: true,
            pair_pigeonhole: true,
            aligned_contention: true,
            clique_blocks: true,
            trivial_feasibility: true,
            exhaustive_limit: 10_000,
        }
    }
}

/// What the static audit concluded about a problem.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// No solution exists; the certificate is independently checkable
    /// with [`Certificate::verify`].
    ProvablyInfeasible(Certificate),
    /// The instance is degenerate enough to solve without search; the
    /// solution has already passed
    /// [`Solution::validate`](tela_model::Solution::validate).
    TriviallyFeasible(Solution),
    /// The audit proved nothing either way; the instance needs a real
    /// solver. Carries the structural summary the passes computed.
    NeedsSearch(InstanceStats),
}

impl Verdict {
    /// The certificate, if the verdict is `ProvablyInfeasible`.
    pub fn certificate(&self) -> Option<&Certificate> {
        match self {
            Verdict::ProvablyInfeasible(cert) => Some(cert),
            _ => None,
        }
    }

    /// True if the audit proved no solution exists.
    pub fn is_infeasible(&self) -> bool {
        matches!(self, Verdict::ProvablyInfeasible(_))
    }

    /// True if the instance must go to a solver.
    pub fn needs_search(&self) -> bool {
        matches!(self, Verdict::NeedsSearch(_))
    }
}

/// Audits `problem` with the default [`AuditConfig`].
///
/// This is the preflight every solver in the workspace runs before
/// search: it either proves infeasibility with a [`Certificate`], solves
/// a degenerate instance outright, or hands back instance statistics for
/// the search to use.
pub fn preflight(problem: &Problem) -> Verdict {
    preflight_with(problem, &AuditConfig::default())
}

/// Audits `problem` with an explicit pass selection.
pub fn preflight_with(problem: &Problem, config: &AuditConfig) -> Verdict {
    if problem.is_empty() {
        return Verdict::TriviallyFeasible(Solution::new(Vec::new()));
    }
    // Cheap O(n + horizon) passes first.
    if config.oversized {
        if let Some(cert) = passes::oversized_buffer(problem) {
            return Verdict::ProvablyInfeasible(cert);
        }
    }
    if config.contention {
        if let Some(cert) = passes::contention_bound(problem) {
            return Verdict::ProvablyInfeasible(cert);
        }
    }
    // Passes that need the explicit overlap structure.
    if problem.len() <= config.exhaustive_limit {
        let pairs: Vec<(BufferId, BufferId)> = problem.overlapping_pairs().collect();
        if config.pair_pigeonhole {
            if let Some(cert) = passes::pair_pigeonhole(problem, &pairs) {
                return Verdict::ProvablyInfeasible(cert);
            }
        }
        if config.aligned_contention || config.clique_blocks {
            let sets = maximal_live_sets(problem);
            if config.aligned_contention {
                if let Some(cert) = passes::aligned_contention_bound(problem, &sets) {
                    return Verdict::ProvablyInfeasible(cert);
                }
            }
            if config.clique_blocks {
                if let Some(cert) = passes::clique_block_bound(problem, &sets) {
                    return Verdict::ProvablyInfeasible(cert);
                }
            }
        }
        if config.trivial_feasibility {
            if let Some(solution) = passes::trivial_solution(problem, pairs.len()) {
                return Verdict::TriviallyFeasible(solution);
            }
        }
    }
    Verdict::NeedsSearch(InstanceStats::of(problem))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tela_model::{examples, Buffer};

    #[test]
    fn infeasible_example_gets_certificate() {
        let verdict = preflight(&examples::infeasible());
        let cert = verdict.certificate().expect("provably infeasible");
        assert!(cert.verify(&examples::infeasible()));
    }

    #[test]
    fn figure1_needs_search() {
        // Tight but feasible: zero slack, so no bound fires and it is not
        // degenerate; search must handle it.
        let verdict = preflight(&examples::figure1());
        assert!(verdict.needs_search());
        match verdict {
            Verdict::NeedsSearch(stats) => {
                assert_eq!(stats.buffers, 10);
                assert_eq!(stats.max_contention, 4);
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn empty_problem_is_trivially_feasible() {
        let p = Problem::builder(0).build().unwrap();
        match preflight(&p) {
            Verdict::TriviallyFeasible(sol) => assert!(sol.is_empty()),
            other => panic!("expected trivial solution, got {other:?}"),
        }
    }

    #[test]
    fn overlap_free_instance_is_trivially_feasible() {
        let p = Problem::builder(100)
            .buffers((0..5).map(|i| Buffer::new(i * 2, i * 2 + 2, 90).with_align(4)))
            .build()
            .unwrap();
        match preflight(&p) {
            Verdict::TriviallyFeasible(sol) => {
                assert!(sol.validate(&p).is_ok());
            }
            other => panic!("expected trivial solution, got {other:?}"),
        }
    }

    #[test]
    fn exhaustive_limit_degrades_to_needs_search() {
        // Force the limit below the instance size: the pair pass would
        // have proven infeasibility, but only cheap passes run.
        let p = Problem::builder(12)
            .buffer(Buffer::new(0, 4, 5).with_align(8))
            .buffer(Buffer::new(0, 4, 6).with_align(8))
            .build()
            .unwrap();
        let full = preflight(&p);
        assert!(full.is_infeasible());
        let capped = preflight_with(
            &p,
            &AuditConfig {
                exhaustive_limit: 1,
                ..AuditConfig::default()
            },
        );
        assert!(capped.needs_search());
    }

    #[test]
    fn disabled_passes_turn_verdicts_into_needs_search() {
        let config = AuditConfig {
            contention: false,
            aligned_contention: false,
            clique_blocks: false,
            pair_pigeonhole: false,
            trivial_feasibility: false,
            ..AuditConfig::default()
        };
        assert!(preflight_with(&examples::infeasible(), &config).needs_search());
    }
}
