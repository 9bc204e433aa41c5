//! Design-choice ablation (beyond the paper's figures): how much of IRS's
//! benefit comes from the greedy cross-group reallocation (Algorithm 1
//! lines 10–23) versus the scarcest-first seeding alone?
//!
//! Run: `cargo run --release -p venn-bench --bin ablation_steal [seeds]`

use venn_bench::{cli, mean_speedups_detailed, Experiment, SchedKind};
use venn_core::VennConfig;
use venn_metrics::Table;
use venn_traces::{BiasKind, WorkloadKind};

fn main() {
    let seeds = cli::seeds(640, 2);
    let kinds = [
        SchedKind::VennWith(VennConfig {
            use_steal: false,
            ..VennConfig::default()
        }),
        SchedKind::Venn,
    ];
    let mut table = Table::new(
        "Ablation: IRS without vs with cross-group reallocation",
        &["scarcity-only", "full IRS"],
    );
    // The steal step matters most when queue lengths are uneven across
    // groups — exactly the biased workloads of Table 4.
    for bias in [None, Some(BiasKind::General), Some(BiasKind::ComputeHeavy)] {
        let label = bias.map(|b| b.label()).unwrap_or("Even (unbiased)");
        let (speedups, completion) = mean_speedups_detailed(
            |seed| Experiment::paper_default(WorkloadKind::Even, bias, seed),
            &kinds,
            &seeds,
        );
        table.row(label, &speedups);
        eprintln!("{label}: completion {completion:?}");
    }
    println!("{table}");
    println!("(speed-ups over Random; the gap isolates Algorithm 1's steal step)");
}
