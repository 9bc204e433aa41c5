//! Incremental Venn scheduling must be observationally identical to the
//! full-rebuild reference: same assignment stream, same final JCT stats,
//! for every `SchedKind` across several seeds.
//!
//! The assignment stream (every `(time, job, device)` decision, in order)
//! is the scheduler's complete observable output, so equal streams on the
//! same deterministic environment mean the delta maintenance in
//! `venn_core::venn` cannot have changed behavior — only cost.
//!
//! Built on the shared differential harness in `tests/common/parity.rs`.

mod common;

use common::parity::{
    assert_outcome_parity, assert_run_parity, contended_workload, every_sched_kind, observe,
    observe_kind, observe_ungated, SCHED_SEED_SALT,
};

use venn::baselines::BaselineScheduler;
use venn::bench::SchedKind;
use venn::core::{JobId, SpecCategory, VennConfig};
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

/// The Venn configuration behind each Venn-flavoured `SchedKind`, if any.
fn venn_config_of(kind: SchedKind) -> Option<VennConfig> {
    match kind {
        SchedKind::Venn => Some(VennConfig::default()),
        SchedKind::VennWoSched => Some(VennConfig::matching_only()),
        SchedKind::VennWoMatch => Some(VennConfig::scheduling_only()),
        SchedKind::VennWith(cfg) => Some(cfg),
        SchedKind::Random | SchedKind::Fifo | SchedKind::Srsf => None,
    }
}

#[test]
fn incremental_equals_full_rebuild_for_every_sched_kind() {
    for &seed in &SEEDS {
        let sim = experiment(seed);
        let workload = contended_workload(seed);
        for kind in every_sched_kind() {
            let (inc, full) = match venn_config_of(kind) {
                Some(cfg) => {
                    let sched_seed = sim.seed ^ SCHED_SEED_SALT;
                    let mut a = venn::core::VennScheduler::new(VennConfig {
                        incremental: true,
                        seed: sched_seed,
                        ..cfg
                    });
                    let mut b = venn::core::VennScheduler::new(VennConfig {
                        incremental: false,
                        seed: sched_seed,
                        ..cfg
                    });
                    (
                        observe(sim, &workload, &mut a),
                        observe(sim, &workload, &mut b),
                    )
                }
                // Baselines have no rebuild machinery: parity degenerates
                // to determinism across two runs, asserted all the same so
                // the harness covers every `SchedKind`.
                None => (
                    observe_kind(sim, &workload, kind),
                    observe_kind(sim, &workload, kind),
                ),
            };
            assert_run_parity(&inc, &full, &format!("{kind:?} seed {seed}"));
        }
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

#[test]
fn full_rebuild_kind_reports_suffixed_name() {
    let sim = experiment(SEEDS[0]);
    let workload = contended_workload(SEEDS[0]);
    let mut sched = venn::core::VennScheduler::new(VennConfig::full_rebuild());
    let run = observe(sim, &workload, &mut sched);
    assert_eq!(run.result.scheduler_name, "venn-full");
}
