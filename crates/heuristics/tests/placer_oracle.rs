//! Reference-oracle equivalence for the greedy fast path.
//!
//! The oracle below is the straightforward implementation the
//! allocation-free [`Placer`] replaced: a `Vec<Vec<u32>>` neighbour list
//! built from `Problem::overlapping_pairs`, a freshly collected and
//! sorted interval list per fit, and a stable sort whose key closure
//! recomputes each buffer's contention step by step. The fast path must
//! agree with it exactly: same order, same addresses, same peak, same
//! verdict.

use proptest::prelude::*;
use tela_heuristics::{greedy, ordered, place_in_order, HeuristicResult, Placer};
use tela_model::{Address, Buffer, BufferId, Problem, Solution};
use tela_workloads::{problem_with_slack, ModelKind};

/// The original lowest-fit placer.
struct RefPlacer<'p> {
    problem: &'p Problem,
    neighbors: Vec<Vec<u32>>,
    addresses: Vec<Address>,
    placed: Vec<bool>,
    peak: Address,
}

impl<'p> RefPlacer<'p> {
    fn new(problem: &'p Problem) -> Self {
        let mut neighbors = vec![Vec::new(); problem.len()];
        for (a, b) in problem.overlapping_pairs() {
            neighbors[a.index()].push(b.index() as u32);
            neighbors[b.index()].push(a.index() as u32);
        }
        RefPlacer {
            problem,
            neighbors,
            addresses: vec![0; problem.len()],
            placed: vec![false; problem.len()],
            peak: 0,
        }
    }

    fn lowest_fit(&self, id: BufferId) -> Option<Address> {
        let b = self.problem.buffer(id);
        let mut occupied: Vec<(Address, Address)> = self.neighbors[id.index()]
            .iter()
            .filter(|&&n| self.placed[n as usize])
            .map(|&n| {
                let nb = &self.problem.buffers()[n as usize];
                (
                    self.addresses[n as usize],
                    self.addresses[n as usize].saturating_add(nb.size()),
                )
            })
            .collect();
        occupied.sort_unstable();
        let mut addr: Address = 0;
        for &(s, e) in &occupied {
            if s >= addr.checked_add(b.size())? {
                break;
            }
            if e > addr {
                addr = b.align_up(e)?;
            }
        }
        addr.checked_add(b.size())?;
        Some(addr)
    }

    fn place(&mut self, id: BufferId) -> Option<Address> {
        assert!(!self.placed[id.index()], "buffer {id} is already placed");
        let addr = self.lowest_fit(id)?;
        self.addresses[id.index()] = addr;
        self.placed[id.index()] = true;
        self.peak = self.peak.max(addr + self.problem.buffer(id).size());
        Some(addr)
    }

    fn finish(self) -> HeuristicResult {
        assert!(self.placed.iter().all(|&p| p), "all blocks must be placed");
        HeuristicResult {
            solution: (self.peak <= self.problem.capacity()).then(|| Solution::new(self.addresses)),
            peak: self.peak,
        }
    }
}

fn ref_place_in_order(problem: &Problem, order: &[BufferId]) -> HeuristicResult {
    let mut placer = RefPlacer::new(problem);
    for &id in order {
        if placer.place(id).is_none() {
            return HeuristicResult {
                solution: None,
                peak: Address::MAX,
            };
        }
    }
    placer.finish()
}

/// The original stable-sort placement order.
fn ref_placement_order(problem: &Problem) -> Vec<BufferId> {
    let contention = problem.contention();
    let buffer_contention: Vec<u64> = problem
        .buffers()
        .iter()
        .map(|b| {
            (b.start()..b.end())
                .map(|t| contention.at(t))
                .max()
                .unwrap_or(0)
        })
        .collect();
    let mut order: Vec<BufferId> = problem.iter().map(|(id, _)| id).collect();
    order.sort_by_key(|&id| {
        let b = problem.buffer(id);
        (
            std::cmp::Reverse(buffer_contention[id.index()]),
            std::cmp::Reverse(b.align()),
            std::cmp::Reverse(u128::from(b.size()) * u128::from(b.lifetime()).pow(2)),
            std::cmp::Reverse(b.lifetime()),
            id.index(),
        )
    });
    order
}

fn ref_greedy(problem: &Problem) -> HeuristicResult {
    if problem.max_contention() > problem.capacity() {
        HeuristicResult {
            solution: None,
            peak: problem.max_contention(),
        }
    } else {
        ref_place_in_order(problem, &ref_placement_order(problem))
    }
}

/// The original best-fit loop over the reference placer.
fn ref_best_fit(problem: &Problem) -> HeuristicResult {
    let mut placer = RefPlacer::new(problem);
    let mut remaining: Vec<BufferId> = problem.iter().map(|(id, _)| id).collect();
    while !remaining.is_empty() {
        let Some((pos, _)) = remaining.iter().enumerate().min_by_key(|&(_, &id)| {
            (
                placer.lowest_fit(id).unwrap_or(Address::MAX),
                std::cmp::Reverse(problem.buffer(id).size()),
                id.index(),
            )
        }) else {
            break;
        };
        let id = remaining.swap_remove(pos);
        if placer.place(id).is_none() {
            return HeuristicResult {
                solution: None,
                peak: Address::MAX,
            };
        }
    }
    placer.finish()
}

fn addresses(r: &HeuristicResult) -> Option<&[Address]> {
    r.solution.as_ref().map(Solution::addresses)
}

/// Asserts the greedy fast path and the oracle agree on `problem`,
/// including on the raw packing (rerun at unbounded capacity, so a
/// greedy failure still compares addresses).
fn assert_greedy_equivalent(problem: &Problem) {
    assert_eq!(
        greedy::placement_order(problem),
        ref_placement_order(problem)
    );
    let (fast, oracle) = (greedy::solve(problem), ref_greedy(problem));
    assert_eq!(fast.peak, oracle.peak);
    assert_eq!(fast.solution.is_some(), oracle.solution.is_some());
    assert_eq!(addresses(&fast), addresses(&oracle));

    let order = ref_placement_order(problem);
    let unbounded = problem.with_capacity(u64::MAX).expect("widening is valid");
    assert_eq!(
        place_in_order(&unbounded, &order),
        ref_place_in_order(&unbounded, &order)
    );
}

fn buffer_strategy() -> impl Strategy<Value = Buffer> {
    (
        0u32..40,
        1u32..12,
        1u64..100,
        prop_oneof![Just(1u64), Just(2), Just(8), Just(32), Just(64)],
    )
        .prop_map(|(start, len, size, align)| {
            Buffer::new(start, start + len, size).with_align(align)
        })
}

/// Random problems at 0–30% slack over the contention bound: zero slack
/// is the common case where alignment padding defeats greedy.
fn problem_strategy() -> impl Strategy<Value = Problem> {
    (
        prop::collection::vec(buffer_strategy(), 0..60),
        prop_oneof![Just(0u64), Just(0), 1u64..30],
    )
        .prop_map(|(buffers, slack)| {
            let loose = Problem::new(buffers, u64::MAX).expect("valid buffers");
            let capacity = (loose.max_contention() * (100 + slack) / 100).max(1);
            loose
                .with_capacity(capacity)
                .expect("contention covers every size")
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    #[test]
    fn fast_greedy_matches_reference_oracle(problem in problem_strategy()) {
        assert_greedy_equivalent(&problem);
    }

    #[test]
    fn best_fit_matches_reference_oracle(problem in problem_strategy()) {
        prop_assert_eq!(ordered::solve_best_fit(&problem), ref_best_fit(&problem));
    }
}

#[test]
fn fast_greedy_matches_reference_on_pixel_models() {
    // The `pixel-compile` shape: every Pixel-6 stand-in plus SRGAN at
    // 105% and 110% of its contention.
    for kind in ModelKind::PIXEL6.into_iter().chain([ModelKind::Srgan]) {
        for slack in [5, 10] {
            for seed in 0..3 {
                assert_greedy_equivalent(&problem_with_slack(kind.generate(seed), slack));
            }
        }
    }
}

#[test]
fn placer_api_matches_reference_step_by_step() {
    let p = problem_with_slack(ModelKind::OpenPose.generate(1), 10);
    let order = ref_placement_order(&p);
    let mut fast = Placer::new(&p);
    let mut oracle = RefPlacer::new(&p);
    for &id in &order {
        assert_eq!(fast.lowest_fit(id), oracle.lowest_fit(id), "{id}");
        assert_eq!(fast.place(id), oracle.place(id), "{id}");
        assert!(fast.is_placed(id));
        assert_eq!(fast.peak(), oracle.peak);
    }
    assert_eq!(fast.finish(), oracle.finish());
}
