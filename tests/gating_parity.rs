//! Demand gating must be observationally identical to the un-gated
//! reference arm: same assignment stream, same final JCT stats, for every
//! `SchedKind` across several seeds.
//!
//! The assignment stream (every `(time, job, device)` decision, in order)
//! is the scheduler's complete observable output, so equal streams on the
//! same deterministic environment mean gating cannot have changed
//! behavior — only cost.
//!
//! Built on the shared differential harness in `tests/common/parity.rs`.

mod common;

use common::parity::{
    assert_outcome_parity, contended_workload, every_sched_kind, observe, observe_kind,
    observe_ungated, SCHED_SEED_SALT,
};

use venn::baselines::BaselineScheduler;
use venn::core::{JobId, SpecCategory};
use venn::sim::SimConfig;
use venn::traces::{JobPlan, Workload};

const SEEDS: [u64; 3] = [101, 102, 103];

/// A small but contended experiment: enough churn to cross the periodic
/// refresh interval and exercise steals, tiers, and re-submissions.
fn experiment(seed: u64) -> SimConfig {
    SimConfig {
        population: 400,
        days: 2,
        seed,
        ..SimConfig::default()
    }
}

/// Demand gating is a kernel *cost* optimization: for every `SchedKind`
/// and seed, the gated default must produce the exact assignment stream
/// and JCT stats of the un-gated reference arm (the same scheduler
/// keeping the default `has_open_demand`). Only the dispatched event
/// count may shrink.
#[test]
fn gating_arms_are_behavior_identical_for_every_sched_kind() {
    for &seed in &SEEDS {
        let sim = experiment(seed);
        let workload = contended_workload(seed);
        for kind in every_sched_kind() {
            let def = observe_kind(sim, &workload, kind);
            let mut sched = kind.build(sim.seed ^ SCHED_SEED_SALT);
            let ungated = observe_ungated(sim, &workload, &mut *sched);
            assert_outcome_parity(&def, &ungated, &format!("{kind:?} seed {seed} vs un-gated"));
            assert!(
                def.result.events <= ungated.result.events,
                "{kind:?} seed {seed}: gating may only remove events"
            );
        }
    }
}

#[test]
fn gating_prunes_idle_repolls_without_changing_outcomes() {
    // Few small jobs on a large population: most polls land while no
    // request is open, so gating must prune events massively — while
    // every scheduler-visible outcome stays bit-identical.
    let jobs = (0..3)
        .map(|i| JobPlan {
            id: JobId::new(i),
            arrival_ms: 1_000 * i,
            category: SpecCategory::General,
            rounds: 2,
            demand: 5,
            task_ms: 30_000,
        })
        .collect();
    let w = Workload { jobs };
    let sim = SimConfig::small();
    let gated = observe(sim, &w, &mut BaselineScheduler::fifo()).result;
    let ungated = observe_ungated(sim, &w, &mut BaselineScheduler::fifo()).result;
    assert_eq!(gated.records, ungated.records, "JCT stats must not move");
    assert_eq!(gated.assignments, ungated.assignments);
    assert_eq!(gated.aborted_rounds, ungated.aborted_rounds);
    assert_eq!(gated.failures, ungated.failures);
    assert!(
        gated.events * 2 < ungated.events,
        "gating must prune the repoll flood: {} vs {}",
        gated.events,
        ungated.events
    );
}
