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
    observe_kind, SCHED_SEED_SALT,
};

use venn::bench::SchedKind;
use venn::core::VennConfig;
use venn::sim::SimConfig;

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
/// and JCT stats of the un-gated reference arm. Only the dispatched
/// event count may shrink.
#[test]
fn gating_arms_are_behavior_identical_for_every_sched_kind() {
    for &seed in &SEEDS {
        let sim = experiment(seed);
        let workload = contended_workload(seed);
        for kind in every_sched_kind() {
            let def = observe_kind(sim, &workload, kind);
            let ungated = observe_kind(
                SimConfig {
                    demand_gating: false,
                    ..sim
                },
                &workload,
                kind,
            );
            assert_outcome_parity(
                &def,
                &ungated,
                &format!("{kind:?} seed {seed} vs gating-off"),
            );
            assert!(
                def.result.events <= ungated.result.events,
                "{kind:?} seed {seed}: gating may only remove events"
            );
        }
    }
}

#[test]
fn full_rebuild_kind_reports_suffixed_name() {
    let sim = experiment(SEEDS[0]);
    let workload = contended_workload(SEEDS[0]);
    let mut sched = venn::core::VennScheduler::new(VennConfig::full_rebuild());
    let run = observe(sim, &workload, &mut sched);
    assert_eq!(run.result.scheduler_name, "venn-full");
}
