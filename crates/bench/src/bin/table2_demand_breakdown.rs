//! Table 2 — Venn's average-JCT improvement over Random for the jobs with
//! the lowest 25 % / 50 % / 75 % of total demand, per workload.
//!
//! Paper shape: smaller jobs benefit the most (e.g. Even: 11.5× / 7.2× /
//! 5.6× on the smallest quartile → 75 %).
//!
//! Run: `cargo run --release -p venn-bench --bin table2_demand_breakdown`

use venn_bench::{run, subset_speedup, Experiment, SchedKind};
use venn_metrics::Table;
use venn_traces::WorkloadKind;

fn main() {
    venn_bench::cli::no_args();
    let mut table = Table::new(
        "Table 2: Venn speed-up over Random by total-demand percentile",
        &["25th", "50th", "75th"],
    );
    for wk in WorkloadKind::ALL {
        let exp = Experiment::paper_default(wk, None, 600);
        let random = run(&exp, SchedKind::Random);
        let venn = run(&exp, SchedKind::Venn);

        // Rank jobs by total demand, ascending.
        let mut order: Vec<usize> = (0..exp.workload.jobs.len()).collect();
        order.sort_by_key(|&i| exp.workload.jobs[i].total_demand());

        let mut row = Vec::new();
        for pct in [0.25, 0.50, 0.75] {
            let k = ((order.len() as f64 * pct).ceil() as usize).max(1);
            let subset: Vec<usize> = order[..k].to_vec();
            row.push(subset_speedup(&random, &venn, &subset).unwrap_or(f64::NAN));
        }
        table.row(wk.label(), &row);
    }
    println!("{table}");
    println!("(paper shape: the smaller the jobs, the larger the improvement)");
}
