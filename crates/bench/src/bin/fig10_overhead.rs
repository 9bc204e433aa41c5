//! Figure 10 — scheduler overhead: latency of one scheduling trigger
//! (Algorithm 1 rebuild + matching decision) as the number of jobs and job
//! groups grows.
//!
//! Paper values: sub-millisecond per trigger up to 1 000 jobs / 100 groups
//! thanks to the `max(O(m log m), O(n²))` complexity. The criterion bench
//! `sched_overhead` measures the same quantity with statistical rigor.
//!
//! Run: `cargo run --release -p venn-bench --bin fig10_overhead`

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use venn_core::{
    Capacity, DeviceId, DeviceInfo, JobId, Request, ResourceSpec, Scheduler, VennConfig,
    VennScheduler,
};
use venn_metrics::Table;

/// Builds a Venn scheduler preloaded with `jobs` jobs over `groups`
/// distinct specs and a populated supply window.
fn loaded_scheduler(jobs: usize, groups: usize, seed: u64) -> VennScheduler {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut venn = VennScheduler::new(VennConfig::default());
    // Supply: 4 000 recorded check-ins across the capacity square.
    for i in 0..4_000u64 {
        let cap = Capacity::new(rng.gen(), rng.gen());
        venn.on_check_in(&DeviceInfo::new(DeviceId::new(i), cap), i);
    }
    // Distinct quadrant specs, then jobs round-robin over them.
    let specs: Vec<ResourceSpec> = (0..groups)
        .map(|g| {
            let t = g as f64 / groups as f64 * 0.9;
            ResourceSpec::new(t, t * 0.8)
        })
        .collect();
    for j in 0..jobs {
        venn.submit(
            Request::new(
                JobId::new(j as u64),
                specs[j % groups],
                1 + (j % 50) as u32,
                100 + j as u64,
            ),
            5_000,
        );
    }
    venn
}

fn measure_trigger_us(venn: &mut VennScheduler, iters: u32) -> f64 {
    let start = Instant::now();
    for i in 0..iters {
        venn.rebuild_now(10_000 + i as u64);
    }
    start.elapsed().as_secs_f64() * 1e6 / iters as f64
}

fn main() {
    venn_bench::cli::no_args();
    let mut jobs_table = Table::new(
        "Figure 10 (left): trigger latency vs number of jobs (20 groups)",
        &["latency (us)"],
    );
    for jobs in [100usize, 250, 500, 750, 1_000] {
        let mut venn = loaded_scheduler(jobs, 20, 1);
        jobs_table.row(
            &format!("{jobs} jobs"),
            &[measure_trigger_us(&mut venn, 50)],
        );
    }
    println!("{jobs_table}");

    let mut groups_table = Table::new(
        "Figure 10 (right): trigger latency vs number of job groups (500 jobs)",
        &["latency (us)"],
    );
    for groups in [20usize, 40, 60, 80, 100] {
        let mut venn = loaded_scheduler(500, groups, 2);
        groups_table.row(
            &format!("{groups} groups"),
            &[measure_trigger_us(&mut venn, 50)],
        );
    }
    println!("{groups_table}");
    println!("(paper Fig 10: 0.2-1 ms per trigger at this scale)");
}
