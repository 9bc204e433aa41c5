//! Figure 13 — Venn's improvement across the number of device tiers V used
//! by the matching algorithm (1 = no tiering).
//!
//! Paper shape: improvement rises with tier granularity, then plateaus —
//! finer tiers add scheduling delay without further response-time gains.
//!
//! Run: `cargo run --release -p venn-bench --bin fig13_tier_sweep [seeds]`

use venn_bench::{cli, mean_speedups_detailed, Experiment, SchedKind};
use venn_core::VennConfig;
use venn_metrics::Table;
use venn_traces::WorkloadKind;

fn main() {
    let seeds = cli::seeds(950, 2);
    let mut table = Table::new(
        "Figure 13: Venn speed-up over Random vs number of tiers (Low workload)",
        &["speed-up"],
    );
    for tiers in 1usize..=4 {
        let kind = SchedKind::VennWith(VennConfig {
            tiers,
            ..VennConfig::default()
        });
        let (speedups, _) = mean_speedups_detailed(
            |seed| Experiment::paper_default(WorkloadKind::Low, None, seed),
            &[kind],
            &seeds,
        );
        table.row(&format!("V = {tiers}"), &speedups);
        eprintln!("V={tiers}: {:.3}", speedups[0]);
    }
    println!("{table}");
    println!("(paper: gains rise with V then plateau)");
}
