//! Figure 9 — end-to-end CL experiment: average test accuracy over
//! wall-clock time under FIFO, SRSF, and Venn. The scheduler decides *when*
//! each job's rounds run and *which* devices participate; FedAvg turns the
//! resulting participant sets into accuracy curves.
//!
//! Paper shape: Venn converges fastest in wall-clock time; the final
//! accuracy is the same for all schedulers.
//!
//! Run: `cargo run --release -p venn-bench --bin fig9_accuracy`

use rand::rngs::StdRng;
use rand::SeedableRng;
use venn_bench::{Experiment, SchedKind};
use venn_core::MINUTE_MS;
use venn_fl::{FedAvg, FedAvgConfig, FederatedDataset, FlDataConfig};
use venn_metrics::Series;
use venn_sim::Simulation;
use venn_traces::{JobDemandModel, Workload, WorkloadKind};

const CLIENTS: usize = 200;

fn experiment(seed: u64) -> Experiment {
    let mut rng = StdRng::seed_from_u64(seed);
    let workload = Workload::generate(
        WorkloadKind::Even,
        None,
        16,
        &JobDemandModel {
            rounds_mean: 8.0,
            rounds_max: 15,
            demand_mean: 15.0,
            demand_max: 30,
            ..JobDemandModel::default()
        },
        10.0 * MINUTE_MS as f64,
        &mut rng,
    );
    let mut exp = Experiment::paper_default(WorkloadKind::Even, None, seed);
    exp.workload = workload;
    exp.sim.record_rounds = true;
    exp
}

fn main() {
    venn_bench::cli::no_args();
    let seed = 77;
    let exp = experiment(seed);
    let mut data_rng = StdRng::seed_from_u64(seed ^ 0xF00D);
    let data = FederatedDataset::generate(
        FlDataConfig {
            clients: CLIENTS,
            ..FlDataConfig::default()
        },
        &mut data_rng,
    );

    for kind in [SchedKind::Fifo, SchedKind::Srsf, SchedKind::Venn] {
        let mut scheduler = kind.build(seed);
        let result = Simulation::new(exp.sim).run(&exp.workload, &mut *scheduler);

        // Replay each job's rounds through FedAvg at their completion times.
        let n_jobs = exp.workload.jobs.len();
        let mut runs: Vec<FedAvg> = (0..n_jobs)
            .map(|_| FedAvg::new(data.clone(), FedAvgConfig::default()))
            .collect();
        // (time, job, accuracy-after-round) breakpoints.
        let mut breakpoints: Vec<(u64, usize, f64)> = Vec::new();
        let mut rounds = result.rounds.clone();
        rounds.sort_by_key(|r| r.end_ms);
        for log in &rounds {
            let participants: Vec<usize> = log.participants.iter().map(|d| d % CLIENTS).collect();
            runs[log.job_idx].run_round(&participants);
            breakpoints.push((log.end_ms, log.job_idx, runs[log.job_idx].test_accuracy()));
        }

        // Average accuracy across jobs on a 30-minute grid.
        let horizon = rounds.last().map(|r| r.end_ms).unwrap_or(0);
        let mut series = Series::new(&format!("{} (x = hours)", kind.label()));
        let mut acc = vec![runs[0].test_accuracy().min(0.1); n_jobs];
        // Start all curves from the untrained model's accuracy.
        for a in &mut acc {
            *a = 1.0 / 10.0;
        }
        let mut bp = breakpoints.iter().peekable();
        let mut t = 0u64;
        while t <= horizon {
            while let Some(&&(bt, job, a)) = bp.peek() {
                if bt <= t {
                    acc[job] = a;
                    bp.next();
                } else {
                    break;
                }
            }
            let mean = acc.iter().sum::<f64>() / n_jobs as f64;
            series.point(t as f64 / 3_600_000.0, mean);
            t += 30 * MINUTE_MS;
        }
        println!("{series}");
        println!(
            "{}: final avg accuracy {:.3}, avg JCT {:.0}s, completion {:.2}\n",
            kind.label(),
            series.last_y().unwrap_or(0.0),
            result.avg_jct_ms() / 1000.0,
            result.completion_rate()
        );
    }
    println!("(paper Fig 9: Venn converges fastest; final accuracy unaffected)");
}
