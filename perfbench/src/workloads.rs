//! Seeded instance streams for the three workloads.
//!
//! Every instance is a pure function of `(seed, index)`: instance `i` of
//! a stream is generated on demand, so a run answers as many distinct
//! instances as fit in its time and never repeats one (except where the
//! workload repeats on purpose: `serve-zipf` re-requests popular shapes).

use tela_model::{Buffer, Problem};
use tela_workloads::{problem_with_slack, sweep, ModelKind};

/// SplitMix64: a tiny, well-mixed, dependency-free generator. The
/// benchmark owns its randomness so its inputs never shift when a
/// workspace crate changes its own generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Derives the sub-seed for element `index` of the stream named `tag`.
pub fn mix(seed: u64, tag: u64, index: u64) -> u64 {
    Rng::new(seed ^ tag.wrapping_mul(0xD6E8_FEB8_6659_FD93))
        .next_u64()
        .wrapping_add(index.wrapping_mul(0xA24B_AED4_963E_E407))
}

/// One allocation problem and what is known about it.
#[derive(Debug, Clone)]
pub struct Instance {
    /// Instance family, e.g. `"pixel@110%"` or `"certified@1%"`.
    pub family: &'static str,
    pub problem: Problem,
    /// Solvable by construction: an `Infeasible` answer is wrong.
    pub certified: bool,
}

/// The 11 Pixel-6 stand-ins plus SRGAN.
const PIXEL_MODELS: [ModelKind; 12] = [
    ModelKind::Fpn,
    ModelKind::ConvNet2d,
    ModelKind::InceptionResnet,
    ModelKind::FaceDetection,
    ModelKind::OpenPose,
    ModelKind::StereoNet,
    ModelKind::Segmentation,
    ModelKind::ResNet152,
    ModelKind::Saliency,
    ModelKind::ImageModel1,
    ModelKind::ImageModel2,
    ModelKind::Srgan,
];

/// `pixel-compile` instance `index`: model `index % 12` at 105% or 110%
/// of its maximum contention, generated from its own sub-seed.
pub fn pixel(seed: u64, index: u64) -> Instance {
    let model = PIXEL_MODELS[(index % 12) as usize];
    let (slack, family) = if (index / 12).is_multiple_of(2) {
        (10, "pixel@110%")
    } else {
        (5, "pixel@105%")
    };
    let buffers = model.generate(mix(seed, 1, index));
    Instance {
        family,
        problem: problem_with_slack(buffers, slack),
        certified: false,
    }
}

/// Warm-up instance `index`: the same for every seed, so set-up does the
/// same work on every run.
pub fn warmup(index: u64) -> Instance {
    pixel(0, index)
}

/// Sweep inputs scanned for the `longtail-search` corpus: the first
/// `SWEEP_SCAN` inputs of the Figure 14 sweep at 5% slack.
const SWEEP_SCAN: usize = 480;

/// The `longtail-search` sampler: certified-solvable instances at 1% and
/// 3% over their known packing, drawn from per-index seeds, plus the
/// sweep configurations at 5% slack on which the greedy heuristic fails.
#[derive(Debug, Clone)]
pub struct Longtail {
    seed: u64,
    /// Sweep problems at 5% slack that greedy cannot place.
    greedy_hard: Vec<Problem>,
}

impl Longtail {
    /// Scans the sweep corpus for its greedy-hard configurations.
    pub fn new(seed: u64) -> Self {
        let greedy_hard = sweep::sweep_inputs(SWEEP_SCAN)
            .into_iter()
            .filter(|(name, _)| name.starts_with("model-") || name.starts_with("resid-"))
            .map(|(_, buffers)| problem_with_slack(buffers, 5))
            .filter(|p| tela_heuristics::greedy::solve(p).solution.is_none())
            .collect();
        Longtail { seed, greedy_hard }
    }

    /// Instance `index`: two of every three are certified (alternating
    /// 1% and 3% slack), the third is a draw from the greedy-hard sweep.
    pub fn instance(&self, index: u64) -> Instance {
        let sub = mix(self.seed, 2, index);
        match index % 3 {
            2 => Instance {
                family: "sweep@5%",
                problem: self.greedy_hard[(sub % self.greedy_hard.len() as u64) as usize].clone(),
                certified: false,
            },
            k => {
                let base = sweep::certified_solvable(sub);
                let (slack, family) = if k == 0 {
                    (1, "certified@1%")
                } else {
                    (3, "certified@3%")
                };
                let capacity = base.capacity() * (100 + slack) / 100;
                Instance {
                    family,
                    problem: base.with_capacity(capacity).expect("raising capacity"),
                    certified: true,
                }
            }
        }
    }
}

/// `serve-zipf`'s request stream: a pool of shapes from both in-process
/// workloads, requested with seeded zipf popularity, each request a
/// freshly renamed and time-shifted variant of its shape.
///
/// The pool is stratified: pool slot `k` holds the Pixel-6 or SRGAN model
/// `k % 13` (or, for `k % 13 == 12`, a greedy-hard sweep shape), and slot
/// `k` has popularity rank `k`. Every seed therefore puts the same mix of
/// shape kinds at every popularity rank, and only the instances differ;
/// otherwise whichever model a seed happened to make most popular would
/// set the run's latency.
#[derive(Debug, Clone)]
pub struct Zipf {
    seed: u64,
    pool: Vec<Instance>,
    /// Cumulative popularity by rank (= pool slot).
    cdf: Vec<f64>,
}

impl Zipf {
    /// Builds a pool of `pool_size` shapes with zipf exponent `exponent`.
    pub fn new(seed: u64, pool_size: usize, exponent: f64) -> Self {
        let longtail = Longtail::new(mix(seed, 3, 1));
        let pool: Vec<Instance> = (0..pool_size as u64)
            .map(|k| match k % 13 {
                12 => longtail.instance(3 * (k / 13) + 2),
                kind => pixel(mix(seed, 3, 0), 12 * (k / 13) + kind),
            })
            .collect();
        let weights: Vec<f64> = (1..=pool_size)
            .map(|r| (r as f64).powf(-exponent))
            .collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Zipf { seed, pool, cdf }
    }

    /// Request `index`: a variant of the pool shape it draws.
    pub fn request(&self, index: u64) -> Instance {
        let mut rng = Rng::new(mix(self.seed, 5, index));
        let u = rng.unit();
        let rank = self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1);
        let base = &self.pool[rank];
        Instance {
            problem: variant(&base.problem, &mut rng),
            ..base.clone()
        }
    }
}

/// A renamed (buffers permuted) and time-shifted copy of `problem`:
/// a different request text with the same canonical form.
fn variant(problem: &Problem, rng: &mut Rng) -> Problem {
    let shift = 1 + rng.below(1_000) as u32;
    let mut buffers: Vec<Buffer> = problem
        .buffers()
        .iter()
        .map(|b| Buffer::new(b.start() + shift, b.end() + shift, b.size()).with_align(b.align()))
        .collect();
    for i in (1..buffers.len()).rev() {
        buffers.swap(i, rng.below(i as u64 + 1) as usize);
    }
    Problem::new(buffers, problem.capacity()).expect("a shifted permutation stays valid")
}
