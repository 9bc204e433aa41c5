//! Figure 14 — the fairness knob ε: (a) average-JCT speed-up over Random
//! decreases as ε grows; (b) the fraction of jobs that meet their
//! fair-share JCT (`T_i = M · sd_i`) increases with ε.
//!
//! `sd_i` (the job's JCT without contention) is estimated analytically from
//! the trace models: rounds × (allocation time at the uncontended eligible
//! arrival rate + straggler-weighted response time). The paper reports
//! ε = 2 putting ~69 % of jobs within their fair share.
//!
//! Run: `cargo run --release -p venn-bench --bin fig14_fairness [seeds]`

use rand::rngs::StdRng;
use rand::SeedableRng;
use venn_bench::{cli, run, Experiment, SchedKind};
use venn_core::VennConfig;
use venn_metrics::Table;
use venn_traces::{CapacityModel, WorkloadKind};

/// Analytic uncontended-JCT estimate per job, in milliseconds.
fn uncontended_jct(exp: &Experiment) -> Vec<f64> {
    // Reconstruct the device population the sim will draw (same seed and
    // sampling order as the engine) to measure eligible fractions.
    let mut rng = StdRng::seed_from_u64(exp.sim.seed);
    let pop = CapacityModel::default().sample_population(exp.sim.population, &mut rng);
    let daily_unique = (1.0 - (-1.5f64).exp()) * exp.sim.population as f64;
    exp.workload
        .jobs
        .iter()
        .map(|j| {
            let spec = j.spec(exp.sim.thresholds);
            let frac = pop.iter().filter(|d| spec.is_eligible(&d.capacity)).count() as f64
                / pop.len() as f64;
            // Uncontended, a fresh request captures the idle eligible
            // online pool within one poll interval; only demand beyond
            // that waits for the daily trickle.
            let online_eligible = 0.19 * exp.sim.population as f64 * frac.max(1e-6);
            let trickle_per_ms = (daily_unique * frac.max(1e-6)) / venn_core::DAY_MS as f64;
            let excess = (j.demand as f64 - online_eligible).max(0.0);
            let alloc_ms = venn_sim::config::REPOLL_MS as f64
                * (1.0 + j.demand as f64 / online_eligible)
                + excess / trickle_per_ms;
            let resp_ms = 1.5 * j.task_ms as f64;
            j.rounds as f64 * (alloc_ms + resp_ms)
        })
        .collect()
}

fn main() {
    let seeds = cli::seeds(980, 1);
    let mut table = Table::new(
        "Figure 14: fairness knob epsilon",
        &["speed-up over Random", "% jobs <= fair JCT"],
    );
    for epsilon in [0.0, 1.0, 2.0, 4.0, 6.0] {
        let mut speedup_sum = 0.0;
        let mut fair_sum = 0.0;
        for &seed in &seeds {
            let exp = Experiment::paper_default(WorkloadKind::Even, None, seed);
            let random = run(&exp, SchedKind::Random);
            let venn = run(
                &exp,
                SchedKind::VennWith(VennConfig {
                    epsilon,
                    ..VennConfig::default()
                }),
            );
            speedup_sum += random.avg_jct_ms() / venn.avg_jct_ms();
            let sd = uncontended_jct(&exp);
            // M_i = number of jobs whose lifetime overlaps job i's — the
            // "simultaneous jobs" in the paper's fair-share definition.
            let horizon = exp.sim.horizon_ms();
            let windows: Vec<(u64, u64)> = venn
                .records
                .iter()
                .map(|r| (r.arrival_ms, r.finish_ms.unwrap_or(horizon)))
                .collect();
            let fair_met = venn
                .records
                .iter()
                .enumerate()
                .filter(|(i, rec)| {
                    let (a, f) = windows[*i];
                    let m = windows
                        .iter()
                        .filter(|(a2, f2)| *a2 < f && *f2 > a)
                        .count()
                        .max(1) as f64;
                    rec.jct_ms()
                        .map(|jct| (jct as f64) <= m * sd[*i])
                        .unwrap_or(false)
                })
                .count() as f64
                / venn.records.len() as f64;
            fair_sum += fair_met * 100.0;
        }
        let n = seeds.len() as f64;
        table.row(
            &format!("eps = {epsilon}"),
            &[speedup_sum / n, fair_sum / n],
        );
        eprintln!("eps {epsilon} done");
    }
    println!("{table}");
    println!("(paper: speed-up decreases with eps; eps=2 -> ~69% meet fair JCT)");
}
