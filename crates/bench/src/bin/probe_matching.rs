//! Calibration probe: how often does tier-based matching engage, and what
//! cost ratios does it see? Not a paper figure — a diagnostic for the
//! matching trigger (Algorithm 2).
//!
//! Run: `cargo run --release -p venn-bench --bin probe_matching`

use venn_bench::Experiment;
use venn_core::{VennConfig, VennScheduler};
use venn_sim::Simulation;
use venn_traces::WorkloadKind;

fn main() {
    venn_bench::cli::no_args();
    for wk in [WorkloadKind::Low, WorkloadKind::High, WorkloadKind::Even] {
        let exp = Experiment::paper_default(wk, None, 100);
        let mut venn = VennScheduler::new(VennConfig {
            seed: 1,
            ..VennConfig::default()
        });
        let result = Simulation::new(exp.sim).run(&exp.workload, &mut venn);
        let stats = venn.matching_stats();
        let b = result.breakdown();
        println!(
            "{:>5}: considered={} fired={} not_ready={} mean_c={:.2} | \
             avg_sched={:.0}s avg_resp={:.0}s completion={:.2}",
            wk.label(),
            stats.considered,
            stats.fired,
            stats.not_ready,
            stats.mean_cost_ratio(),
            b.avg_sched_delay_ms() / 1000.0,
            b.avg_response_ms() / 1000.0,
            result.completion_rate(),
        );
    }
}
