//! Table 3 — Venn's average-JCT improvement over Random broken down by the
//! jobs' device-requirement category, per workload.
//!
//! Paper shape: jobs asking for scarcer resources (Compute-/Memory-rich,
//! High-Perf) benefit more than General jobs.
//!
//! Run: `cargo run --release -p venn-bench --bin table3_spec_breakdown`

use venn_bench::{run, subset_speedup, Experiment, SchedKind};
use venn_core::SpecCategory;
use venn_metrics::Table;
use venn_traces::WorkloadKind;

fn main() {
    venn_bench::cli::no_args();
    let mut table = Table::new(
        "Table 3: Venn speed-up over Random by requirement category",
        &["General", "Compute", "Memory", "High-perf"],
    );
    for wk in WorkloadKind::ALL {
        let exp = Experiment::paper_default(wk, None, 700);
        let random = run(&exp, SchedKind::Random);
        let venn = run(&exp, SchedKind::Venn);

        let mut row = Vec::new();
        for cat in SpecCategory::ALL {
            let subset: Vec<usize> = exp
                .workload
                .jobs
                .iter()
                .enumerate()
                .filter(|(_, j)| j.category == cat)
                .map(|(i, _)| i)
                .collect();
            row.push(subset_speedup(&random, &venn, &subset).unwrap_or(f64::NAN));
        }
        table.row(wk.label(), &row);
    }
    println!("{table}");
    println!("(paper shape: scarcer-requirement jobs gain the most)");
}
