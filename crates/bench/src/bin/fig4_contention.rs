//! Figure 4 — impact of resource contention on model quality: the client
//! pool is evenly partitioned among 1/5/10/20 concurrent jobs; each job
//! wants 20 participants per round but can only draw from its partition.
//! More jobs → smaller partitions → less participant diversity → worse
//! round-to-accuracy.
//!
//! Run: `cargo run --release -p venn-bench --bin fig4_contention`

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use venn_fl::{FedAvg, FedAvgConfig, FederatedDataset, FlDataConfig};
use venn_metrics::Series;

const ROUNDS: usize = 40;
const TARGET_PER_ROUND: usize = 20;
const CLIENTS: usize = 200;

fn main() {
    venn_bench::cli::no_args();
    let mut rng = StdRng::seed_from_u64(44);
    let data = FederatedDataset::generate(
        FlDataConfig {
            clients: CLIENTS,
            ..FlDataConfig::default()
        },
        &mut rng,
    );

    for jobs in [1usize, 5, 10, 20] {
        let partition = CLIENTS / jobs;
        // Train every job on its own partition; report the average curve.
        let mut runs: Vec<FedAvg> = (0..jobs)
            .map(|_| FedAvg::new(data.clone(), FedAvgConfig::default()))
            .collect();
        let mut series = Series::new(&format!("{jobs} job(s) (x = round)"));
        for round in 0..ROUNDS {
            let mut acc_sum = 0.0;
            for (j, fed) in runs.iter_mut().enumerate() {
                let base = j * partition;
                let k = TARGET_PER_ROUND.min(partition);
                let participants: Vec<usize> =
                    (0..k).map(|_| base + rng.gen_range(0..partition)).collect();
                fed.run_round(&participants);
                acc_sum += fed.test_accuracy();
            }
            series.point(round as f64, acc_sum / jobs as f64);
        }
        println!("{series}");
        println!(
            "final avg accuracy with {jobs:>2} job(s): {:.3}\n",
            series.last_y().unwrap()
        );
    }
    println!("(paper Fig 4: more concurrent jobs -> slower round-to-accuracy)");
}
