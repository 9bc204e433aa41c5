//! Figure 5 — breakdown of one round's completion time under random
//! device-to-job matching: average scheduling delay vs response collection
//! time as the number of concurrent jobs grows.
//!
//! Paper shape: scheduling delay grows sharply with contention and
//! dominates response time once demand outstrips supply.
//!
//! Run: `cargo run --release -p venn-bench --bin fig5_breakdown`

use venn_bench::{run, Experiment, SchedKind};
use venn_metrics::Table;
use venn_traces::WorkloadKind;

fn main() {
    venn_bench::cli::no_args();
    let mut table = Table::new(
        "Figure 5: per-round JCT breakdown under random matching (seconds)",
        &["sched delay", "resp. time"],
    );
    for jobs in [5usize, 10, 20, 40] {
        let exp = Experiment::with_jobs(WorkloadKind::Even, None, jobs, 500);
        let r = run(&exp, SchedKind::Random);
        // Per completed round averages across jobs.
        let mut sched = 0.0;
        let mut resp = 0.0;
        let mut rounds = 0u64;
        for rec in &r.records {
            sched += rec.sched_delay_ms as f64;
            resp += rec.response_ms as f64;
            rounds += rec.rounds_completed as u64;
        }
        let rounds = rounds.max(1) as f64;
        table.row(
            &format!("{jobs} jobs"),
            &[sched / rounds / 1000.0, resp / rounds / 1000.0],
        );
    }
    println!("{table}");
    println!("(paper Fig 5: scheduling delay grows with contention and dominates)");
}
