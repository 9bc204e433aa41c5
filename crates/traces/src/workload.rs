//! Workload scenario builders (paper §5.1).
//!
//! The evaluation samples jobs from the demand trace five ways — **Even**
//! (all jobs), **Small**/**Large** (below/above-average *total* demand),
//! **Low**/**High** (below/above-average *per-round* demand) — and, for the
//! Table 4 case study, biases the device-requirement mix toward one
//! category. Jobs arrive by a Poisson process with 30-minute mean
//! inter-arrival.

use rand::Rng;

use venn_core::{JobId, SimTime, SpecCategory, MINUTE_MS};

use crate::dist::Exponential;
use crate::jobs::{JobDemandModel, JobPlan};

/// Which slice of the job-demand trace a workload samples (paper §5.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadKind {
    /// Sampled from all jobs (the default trace).
    Even,
    /// Only jobs with below-average total demand.
    Small,
    /// Only jobs with above-average total demand.
    Large,
    /// Only jobs with below-average demand per round.
    Low,
    /// Only jobs with above-average demand per round.
    High,
}

impl WorkloadKind {
    /// All five scenarios in the paper's table order.
    pub const ALL: [WorkloadKind; 5] = [
        WorkloadKind::Even,
        WorkloadKind::Small,
        WorkloadKind::Large,
        WorkloadKind::Low,
        WorkloadKind::High,
    ];

    /// Row label used in experiment tables.
    pub fn label(&self) -> &'static str {
        match self {
            WorkloadKind::Even => "Even",
            WorkloadKind::Small => "Small",
            WorkloadKind::Large => "Large",
            WorkloadKind::Low => "Low",
            WorkloadKind::High => "High",
        }
    }
}

/// Resource-requirement bias for the Table 4 case study: half the jobs ask
/// for the named category, the rest spread evenly over the other three.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BiasKind {
    /// Half the jobs want General resources.
    General,
    /// Half the jobs want Compute-Rich resources.
    ComputeHeavy,
    /// Half the jobs want Memory-Rich resources.
    MemoryHeavy,
    /// Half the jobs want High-Performance resources.
    ResourceHeavy,
}

impl BiasKind {
    /// All four biased scenarios in the paper's table order.
    pub const ALL: [BiasKind; 4] = [
        BiasKind::General,
        BiasKind::ComputeHeavy,
        BiasKind::MemoryHeavy,
        BiasKind::ResourceHeavy,
    ];

    /// Row label used in experiment tables.
    pub fn label(&self) -> &'static str {
        match self {
            BiasKind::General => "General",
            BiasKind::ComputeHeavy => "Compute-heavy",
            BiasKind::MemoryHeavy => "Memory-heavy",
            BiasKind::ResourceHeavy => "Resource-heavy",
        }
    }

    fn favored(&self) -> SpecCategory {
        match self {
            BiasKind::General => SpecCategory::General,
            BiasKind::ComputeHeavy => SpecCategory::ComputeRich,
            BiasKind::MemoryHeavy => SpecCategory::MemoryRich,
            BiasKind::ResourceHeavy => SpecCategory::HighPerf,
        }
    }
}

/// A generated workload: the job list handed to the simulator.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    /// Jobs sorted by arrival time.
    pub jobs: Vec<JobPlan>,
}

impl Workload {
    /// Generates `num_jobs` jobs of the given `kind`, with optional
    /// category `bias`, Poisson arrivals at `mean_interarrival_ms`, sampling
    /// demands from `model`.
    ///
    /// # Panics
    ///
    /// Panics if `num_jobs == 0` or `mean_interarrival_ms <= 0`.
    pub fn generate<R: Rng + ?Sized>(
        kind: WorkloadKind,
        bias: Option<BiasKind>,
        num_jobs: usize,
        model: &JobDemandModel,
        mean_interarrival_ms: f64,
        rng: &mut R,
    ) -> Workload {
        assert!(num_jobs > 0, "workload needs at least one job");
        assert!(mean_interarrival_ms > 0.0, "inter-arrival must be positive");

        // Estimate the trace averages from a large candidate pool, then
        // rejection-sample the requested slice — mirroring "uniformly
        // sampled only from jobs with below-average ..." in §5.1.
        let pool: Vec<(u32, u32, u64)> = (0..2_000).map(|_| model.sample(rng)).collect();
        let avg_total: f64 = pool
            .iter()
            .map(|(r, d, _)| *r as f64 * *d as f64)
            .sum::<f64>()
            / pool.len() as f64;
        let avg_demand: f64 =
            pool.iter().map(|(_, d, _)| *d as f64).sum::<f64>() / pool.len() as f64;

        let accepts = |r: u32, d: u32| -> bool {
            let total = r as f64 * d as f64;
            match kind {
                WorkloadKind::Even => true,
                WorkloadKind::Small => total <= avg_total,
                WorkloadKind::Large => total > avg_total,
                WorkloadKind::Low => (d as f64) <= avg_demand,
                WorkloadKind::High => (d as f64) > avg_demand,
            }
        };

        let interarrival = Exponential::from_mean(mean_interarrival_ms);
        let mut jobs = Vec::with_capacity(num_jobs);
        let mut arrival = 0.0f64;
        for i in 0..num_jobs {
            let (rounds, demand, task_ms) = loop {
                let s = model.sample(rng);
                if accepts(s.0, s.1) {
                    break s;
                }
            };
            let category = sample_category(bias, rng);
            arrival += interarrival.sample(rng);
            jobs.push(JobPlan {
                id: JobId::new(i as u64),
                arrival_ms: arrival as SimTime,
                category,
                rounds,
                demand,
                task_ms,
            });
        }
        Workload { jobs }
    }

    /// Convenience: the paper's default scenario (Even, unbiased, 30-minute
    /// Poisson arrivals).
    pub fn default_scenario<R: Rng + ?Sized>(num_jobs: usize, rng: &mut R) -> Workload {
        Workload::generate(
            WorkloadKind::Even,
            None,
            num_jobs,
            &JobDemandModel::default(),
            30.0 * MINUTE_MS as f64,
            rng,
        )
    }

    /// Total demand of the workload in device-rounds.
    pub fn total_demand(&self) -> u64 {
        self.jobs.iter().map(|j| j.total_demand()).sum()
    }

    /// Checks every job with [`JobPlan::check`].
    ///
    /// # Errors
    ///
    /// Names the first job that breaks a rule (by its index) and the rule.
    pub fn check(&self) -> Result<(), String> {
        for (i, job) in self.jobs.iter().enumerate() {
            job.check()
                .map_err(|why| format!("workload job {i}: {why}"))?;
        }
        Ok(())
    }
}

fn sample_category<R: Rng + ?Sized>(bias: Option<BiasKind>, rng: &mut R) -> SpecCategory {
    match bias {
        None => SpecCategory::ALL[rng.gen_range(0..4usize)],
        Some(b) => {
            let favored = b.favored();
            if rng.gen::<f64>() < 0.5 {
                favored
            } else {
                let others: Vec<SpecCategory> = SpecCategory::ALL
                    .iter()
                    .copied()
                    .filter(|c| *c != favored)
                    .collect();
                others[rng.gen_range(0..others.len())]
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Number of jobs per category, in [`SpecCategory::ALL`] order.
    fn category_counts(w: &Workload) -> [usize; 4] {
        let mut counts = [0usize; 4];
        for j in &w.jobs {
            let idx = SpecCategory::ALL
                .iter()
                .position(|c| *c == j.category)
                .expect("category in ALL");
            counts[idx] += 1;
        }
        counts
    }

    fn gen(kind: WorkloadKind, bias: Option<BiasKind>, n: usize, seed: u64) -> Workload {
        let mut rng = StdRng::seed_from_u64(seed);
        Workload::generate(
            kind,
            bias,
            n,
            &JobDemandModel::default(),
            30.0 * MINUTE_MS as f64,
            &mut rng,
        )
    }

    #[test]
    fn arrivals_are_increasing_and_poisson_scaled() {
        let w = gen(WorkloadKind::Even, None, 50, 1);
        assert_eq!(w.jobs.len(), 50);
        assert!(w
            .jobs
            .windows(2)
            .all(|p| p[0].arrival_ms <= p[1].arrival_ms));
        let span = w.jobs.last().unwrap().arrival_ms as f64;
        let expected = 50.0 * 30.0 * MINUTE_MS as f64;
        assert!(
            span > expected * 0.5 && span < expected * 2.0,
            "span {span}"
        );
    }

    #[test]
    fn small_and_large_partition_around_average() {
        let small = gen(WorkloadKind::Small, None, 200, 2);
        let large = gen(WorkloadKind::Large, None, 200, 2);
        let avg_small = small.total_demand() as f64 / 200.0;
        let avg_large = large.total_demand() as f64 / 200.0;
        assert!(
            avg_large > 3.0 * avg_small,
            "large ({avg_large}) should dwarf small ({avg_small})"
        );
    }

    #[test]
    fn low_and_high_split_per_round_demand() {
        let low = gen(WorkloadKind::Low, None, 200, 3);
        let high = gen(WorkloadKind::High, None, 200, 3);
        let mean_d = |w: &Workload| {
            w.jobs.iter().map(|j| j.demand as f64).sum::<f64>() / w.jobs.len() as f64
        };
        assert!(mean_d(&high) > 2.0 * mean_d(&low));
    }

    #[test]
    fn unbiased_categories_are_roughly_uniform() {
        let w = gen(WorkloadKind::Even, None, 1_000, 4);
        for count in category_counts(&w) {
            assert!((150..=350).contains(&count), "count {count}");
        }
    }

    #[test]
    fn bias_puts_half_on_favored_category() {
        let w = gen(WorkloadKind::Even, Some(BiasKind::ComputeHeavy), 1_000, 5);
        let counts = category_counts(&w);
        let compute_idx = SpecCategory::ALL
            .iter()
            .position(|c| *c == SpecCategory::ComputeRich)
            .unwrap();
        assert!(
            (400..=600).contains(&counts[compute_idx]),
            "favored {counts:?}"
        );
        for (i, c) in counts.iter().enumerate() {
            if i != compute_idx {
                assert!((100..=250).contains(c), "others {counts:?}");
            }
        }
    }

    #[test]
    fn generation_is_deterministic() {
        assert_eq!(
            gen(WorkloadKind::High, Some(BiasKind::General), 30, 9),
            gen(WorkloadKind::High, Some(BiasKind::General), 30, 9)
        );
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(WorkloadKind::Even.label(), "Even");
        assert_eq!(BiasKind::ResourceHeavy.label(), "Resource-heavy");
        assert_eq!(WorkloadKind::ALL.len(), 5);
        assert_eq!(BiasKind::ALL.len(), 4);
    }

    #[test]
    #[should_panic(expected = "at least one job")]
    fn empty_workload_panics() {
        gen(WorkloadKind::Even, None, 0, 1);
    }
}
