//! Figure 19: the memory allocation problem of OpenPose — the contention
//! profile that motivates contention-based grouping (paper §8.1).
//!
//! Shape: one dense high-contention phase at the beginning (the
//! backbone), then alternating high/low phases (the refinement stages)
//! that grouping solves mostly in isolation.

use tela_bench::{arg_usize, TextTable};
use tela_model::PhasePartition;
use tela_workloads::{problem_with_slack, ModelKind};

fn main() {
    let buckets = arg_usize("--buckets", 32);
    let problem = problem_with_slack(ModelKind::OpenPose.generate(0), 10);
    let contention = problem.contention();
    let horizon = problem.horizon() as usize;

    println!("# Figure 19: OpenPose contention profile");
    println!(
        "# buffers={} horizon={} capacity={} peak contention={}\n",
        problem.len(),
        horizon,
        problem.capacity(),
        problem.max_contention()
    );

    let mut table = TextTable::new(["t", "contention", "% of capacity", "bar"]);
    let step = horizon.div_ceil(buckets).max(1);
    for t0 in (0..horizon).step_by(step) {
        let t1 = (t0 + step).min(horizon);
        let max = contention.max_over(t0 as u32, t1 as u32);
        let pct = max as f64 / problem.capacity() as f64 * 100.0;
        let bar = "#".repeat((pct / 2.5) as usize);
        table.row([t0.to_string(), max.to_string(), format!("{pct:.0}%"), bar]);
    }
    print!("{}", table.render());

    let partition = PhasePartition::compute(&problem);
    println!("\n# contention phases found (threshold%, time range, blocks):");
    for phase in partition.phases() {
        println!(
            "#   {:>3}%  [{:>4}, {:>4})  {} blocks",
            phase.threshold_percent,
            phase.start,
            phase.end,
            phase.blocks.len()
        );
    }
}
