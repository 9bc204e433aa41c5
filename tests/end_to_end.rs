//! Cross-crate integration tests: full simulations driving every
//! scheduler, checking the paper's qualitative claims end to end.

use rand::rngs::StdRng;
use rand::SeedableRng;

use venn::core::{Scheduler, MINUTE_MS};
use venn::serve::SchedSpec;
use venn::sim::{SimConfig, SimResult, Simulation};
use venn::traces::{JobDemandModel, Workload, WorkloadKind};

fn contended_workload(seed: u64, jobs: usize) -> Workload {
    let mut rng = StdRng::seed_from_u64(seed);
    Workload::generate(
        WorkloadKind::Even,
        None,
        jobs,
        &JobDemandModel::default(),
        10.0 * MINUTE_MS as f64,
        &mut rng,
    )
}

fn sim_config() -> SimConfig {
    SimConfig {
        population: 1_500,
        days: 6,
        ..SimConfig::default()
    }
}

/// The registered arm `name` with fairness knob `epsilon`.
fn arm(name: &str, epsilon: f64, seed: u64) -> Box<dyn Scheduler> {
    SchedSpec {
        epsilon,
        ..SchedSpec::named(name, seed)
    }
    .build()
    .unwrap()
}

fn run_with(workload: &Workload, mut scheduler: Box<dyn Scheduler>) -> SimResult {
    Simulation::new(sim_config()).run(workload, &mut *scheduler)
}

#[test]
fn all_schedulers_complete_a_feasible_workload() {
    let w = contended_workload(1, 12);
    // Per-device random stalls by design (the next test).
    let arms = SchedSpec::NAMES
        .iter()
        .filter(|&&name| name != "random-per-device")
        .map(|name| arm(name, 0.0, 1))
        .chain([arm("venn", 2.0, 1)]);
    for s in arms {
        let name = s.name().to_string();
        let r = run_with(&w, s);
        assert!(
            r.completion_rate() > 0.9,
            "{name} completed only {:.2}",
            r.completion_rate()
        );
        // Conservation: every record's rounds must match the plan.
        for (rec, plan) in r.records.iter().zip(&w.jobs) {
            if rec.is_finished() {
                assert_eq!(rec.rounds_completed, plan.rounds, "{name}");
            }
        }
    }
}

#[test]
fn naive_per_device_random_scatters_and_stalls() {
    // The paper strengthens its Random baseline from per-device sampling to
    // a randomized fixed order precisely because per-device sampling
    // scatters devices across jobs and stalls round allocation under
    // contention. Our simulator reproduces that pathology.
    let w = contended_workload(1, 12);
    let naive = run_with(&w, arm("random-per-device", 0.0, 1));
    let strong = run_with(&w, arm("random", 0.0, 1));
    assert!(
        naive.completion_rate() <= strong.completion_rate(),
        "naive {} vs strengthened {}",
        naive.completion_rate(),
        strong.completion_rate()
    );
}

#[test]
fn venn_beats_random_under_contention() {
    // Average over a few seeds to keep the assertion robust to noise.
    let mut venn_total = 0.0;
    let mut random_total = 0.0;
    for seed in [3u64, 4, 5] {
        let w = contended_workload(seed, 16);
        let random = run_with(&w, arm("random", 0.0, seed));
        let venn = run_with(&w, arm("venn", 0.0, 1));
        assert!(random.completion_rate() > 0.8);
        assert!(venn.completion_rate() > 0.8);
        random_total += random.avg_jct_ms();
        venn_total += venn.avg_jct_ms();
    }
    assert!(
        venn_total < random_total,
        "venn {venn_total} must beat random {random_total}"
    );
}

#[test]
fn jct_decomposes_into_sched_delay_and_response() {
    let w = contended_workload(6, 10);
    let r = run_with(&w, arm("venn", 0.0, 1));
    for rec in r.records.iter().filter(|r| r.is_finished()) {
        let jct = rec.jct_ms().unwrap();
        // Per Fig. 1: JCT >= total sched delay + total response collection
        // (the remainder is aggregation gaps and abort backoffs).
        assert!(rec.sched_delay_ms + rec.response_ms <= jct);
        assert!(rec.response_ms > 0);
    }
}

#[test]
fn identical_seeds_give_identical_results_for_every_scheduler() {
    let w = contended_workload(7, 8);
    for name in ["random", "srsf", "venn"] {
        let a = run_with(&w, arm(name, 0.0, 9));
        let b = run_with(&w, arm(name, 0.0, 9));
        assert_eq!(a.records, b.records, "{}", a.scheduler_name);
    }
}

#[test]
fn contention_raises_scheduling_delay() {
    // Same environment, 4 vs 24 jobs: average scheduling delay per round
    // must grow (the paper's Fig. 5 claim).
    let light = contended_workload(8, 4);
    let heavy = contended_workload(8, 24);
    let per_round_delay = |r: &SimResult| {
        let (mut delay, mut rounds) = (0.0, 0u64);
        for rec in &r.records {
            delay += rec.sched_delay_ms as f64;
            rounds += rec.rounds_completed as u64;
        }
        delay / rounds.max(1) as f64
    };
    let l = run_with(&light, arm("random", 0.0, 2));
    let h = run_with(&heavy, arm("random", 0.0, 2));
    assert!(
        per_round_delay(&h) > per_round_delay(&l),
        "heavy {} <= light {}",
        per_round_delay(&h),
        per_round_delay(&l)
    );
}

#[test]
fn fairness_knob_protects_the_largest_job() {
    let w = contended_workload(10, 16);
    let biggest = (0..w.jobs.len())
        .max_by_key(|&i| w.jobs[i].total_demand())
        .unwrap();
    let plain = run_with(&w, arm("venn", 0.0, 1));
    let fair = run_with(&w, arm("venn", 4.0, 1));
    let jct = |r: &SimResult| r.records[biggest].jct_ms().unwrap_or(u64::MAX);
    // With a strong knob the largest job must not be (much) worse off.
    assert!(
        jct(&fair) <= jct(&plain).saturating_mul(2),
        "fair {} vs plain {}",
        jct(&fair),
        jct(&plain)
    );
}
