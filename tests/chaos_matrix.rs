//! The durability chaos matrix: every fault kind at every durable-write
//! site of the checkpoint store, plus seeded-random chaos and corrupted
//! checkpoint files — recovery from whatever survives on disk must be
//! **zero-drift** (final accounting byte-identical to the uninterrupted
//! run), every failure typed, and nothing ever panics.
//!
//! Complements `crash_resume.rs`: that suite proves targeted scripted
//! faults behave exactly as designed; this one sweeps the whole
//! fault × site space and the file-corruption space mechanically.

mod common;

use common::parity::{contended_workload, observe_kind, SCHED_SEED_SALT};

use venn::bench::SchedKind;
use venn::core::faultio::{Fault, FaultFs, FaultRule, FioOp, MemFs, SimFs};
use venn::env::EnvPreset;
use venn::sim::{CheckpointStore, PopMode, SimConfig, SimResult, World};
use venn::traces::Workload;

fn experiment(seed: u64) -> SimConfig {
    SimConfig {
        population: 400,
        days: 2,
        seed,
        env: EnvPreset::Chaos.config(),
        pop_mode: PopMode::Eager,
        ..SimConfig::default()
    }
}

fn assert_result_parity(a: &SimResult, b: &SimResult, ctx: &str) {
    assert_eq!(a.records, b.records, "{ctx}: job records");
    assert_eq!(a.rounds, b.rounds, "{ctx}: round logs");
    assert_eq!(a.aborted_rounds, b.aborted_rounds, "{ctx}: aborts");
    assert_eq!(a.assignments, b.assignments, "{ctx}: assignment count");
    assert_eq!(a.failures, b.failures, "{ctx}: failures");
    assert_eq!(a.events, b.events, "{ctx}: dispatched events");
    assert_eq!(a.peak_queue_len, b.peak_queue_len, "{ctx}: peak queue");
    assert_eq!(a.env, b.env, "{ctx}: env counters");
}

/// Runs the experiment over `fs`, checkpointing every `every` events
/// into `dir`; checkpoint-write errors are collected, never fatal.
/// Returns the write errors (the run itself always goes to completion —
/// checkpointing is a side channel).
fn run_with_checkpoints(
    sim: SimConfig,
    workload: &Workload,
    kind: SchedKind,
    fs: &mut dyn SimFs,
    dir: &str,
    every: u64,
) -> Vec<String> {
    let mut store = CheckpointStore::open(fs, dir, 2).expect("open store");
    let mut sched = kind.build(sim.seed ^ SCHED_SEED_SALT);
    let mut world = World::new(sim, workload, sched.name());
    let mut errors = Vec::new();
    let mut next = every;
    while world.step(&mut *sched, &mut []) {
        if world.events_processed() >= next {
            if let Err(e) = store.write(&world, &*sched) {
                errors.push(e.to_string());
            }
            next = world.events_processed() + every;
        }
    }
    errors
}

/// Resumes from whatever `fs` holds and runs to the end.
fn recover_and_finish(
    sim: SimConfig,
    workload: &Workload,
    kind: SchedKind,
    fs: &mut dyn SimFs,
    dir: &str,
    ctx: &str,
) -> (SimResult, Vec<String>) {
    let mut store = CheckpointStore::open(fs, dir, 2).expect("reopen store");
    let stale = store.clean_stale_tmp().expect("hygiene scan");
    let mut build = || kind.build(sim.seed ^ SCHED_SEED_SALT);
    let outcome = store
        .resume(sim, workload, &mut build)
        .unwrap_or_else(|e| panic!("{ctx}: resume triage errored: {e}"));
    let (mut world, mut sched) = outcome
        .run
        .unwrap_or_else(|| panic!("{ctx}: no checkpoint survived (stale tmp: {stale:?})"));
    while world.step(&mut *sched, &mut []) {}
    (world.finish(&mut []), outcome.warnings)
}

/// One scripted fault at every (site, kind) cell: the first checkpoint
/// publishes clean, the second hits the fault. Whatever the disk holds
/// afterwards must resume the run with zero drift.
#[test]
fn every_fault_kind_at_every_site_recovers_zero_drift() {
    let sim = experiment(7_001);
    let workload = contended_workload(sim.seed);
    let kind = SchedKind::Venn;
    let whole = observe_kind(sim, &workload, kind);
    let every = whole.result.events / 4;

    let sites = [
        (FioOp::Write, ".vsnp.tmp"),
        (FioOp::Sync, ".vsnp.tmp"),
        (FioOp::Rename, ".vsnp"),
    ];
    let faults = [
        Fault::NoSpace,
        Fault::Io,
        Fault::Torn { keep: 5 },
        Fault::CrashAfter,
        Fault::CrashBefore,
    ];
    for (op, pat) in sites {
        for fault in &faults {
            let ctx = format!("{op:?}@{pat} {fault:?}");
            let mut fs = FaultFs::scripted(
                MemFs::new(),
                vec![FaultRule::after(op, pat, 1, fault.clone())],
            );
            let errors = run_with_checkpoints(sim, &workload, kind, &mut fs, "ckpt", every);
            let crashed = fs.is_crashed();
            let (_, injected) = fs.stats();
            assert!(injected >= 1, "{ctx}: the scripted fault never fired");
            if crashed {
                assert!(!errors.is_empty(), "{ctx}: a crash must surface errors");
            } else {
                // Transient faults are absorbed by the retry budget.
                assert!(errors.is_empty(), "{ctx}: unexpected errors {errors:?}");
            }
            let mut disk = fs.into_inner();
            let (result, _) = recover_and_finish(sim, &workload, kind, &mut disk, "ckpt", &ctx);
            assert_result_parity(&whole.result, &result, &ctx);
        }
    }
}

/// Seeded-random chaos (the `--fault-inject` plan): transient faults
/// sprayed over every durable write at 8% per op. The retry budget
/// absorbs most; whatever checkpoints publish, recovery is zero-drift.
#[test]
fn seeded_random_chaos_recovers_zero_drift() {
    let sim = experiment(7_002);
    let workload = contended_workload(sim.seed);
    let kind = SchedKind::Srsf;
    let whole = observe_kind(sim, &workload, kind);
    let every = whole.result.events / 5;

    for chaos_seed in [1u64, 2, 3] {
        let ctx = format!("chaos seed {chaos_seed}");
        let mut fs = FaultFs::random(MemFs::new(), chaos_seed, 0.08);
        let errors = run_with_checkpoints(sim, &workload, kind, &mut fs, "ckpt", every);
        assert!(!fs.is_crashed(), "{ctx}: random plans never crash");
        // Errors (retry budget exhausted) are legitimate under chaos —
        // but they must be typed checkpoint errors, not panics.
        for e in &errors {
            assert!(e.starts_with("checkpoint "), "{ctx}: untyped error {e}");
        }
        let mut disk = fs.into_inner();
        let (result, _) = recover_and_finish(sim, &workload, kind, &mut disk, "ckpt", &ctx);
        assert_result_parity(&whole.result, &result, &ctx);
    }
}

/// Corruption sweep over a published checkpoint *file*: truncations and
/// single-bit flips at sampled offsets. Resume triage must degrade to
/// the older checkpoint with a warning — or accept the file if the
/// mutation was a no-op — and either way finish with zero drift.
#[test]
fn corrupted_newest_checkpoint_degrades_with_warnings() {
    let sim = experiment(7_003);
    let workload = contended_workload(sim.seed);
    let kind = SchedKind::Venn;
    let whole = observe_kind(sim, &workload, kind);
    let every = whole.result.events / 3;

    let mut pristine = MemFs::new();
    let errors = run_with_checkpoints(sim, &workload, kind, &mut pristine, "ckpt", every);
    assert!(errors.is_empty(), "clean run: {errors:?}");
    let ckpts = CheckpointStore::open(&mut pristine, "ckpt", 2)
        .unwrap()
        .list()
        .unwrap();
    assert_eq!(ckpts.len(), 2, "need a fallback checkpoint: {ckpts:?}");
    let newest = ckpts.last().unwrap().1.clone();
    let bytes = pristine.read(&newest).unwrap();

    // 16 truncation points and 16 bit flips, evenly spread.
    let mut mutations: Vec<(String, Vec<u8>)> = Vec::new();
    for i in 0..16usize {
        let cut = bytes.len() * i / 16;
        mutations.push((format!("truncate@{cut}"), bytes[..cut].to_vec()));
    }
    for i in 0..16usize {
        let pos = (bytes.len() - 1) * i / 15;
        let mut m = bytes.clone();
        m[pos] ^= 1 << (i % 8);
        mutations.push((format!("flip@{pos}"), m));
    }

    for (ctx, mutated) in mutations {
        let changed = mutated != bytes;
        let mut disk = pristine.clone();
        disk.write(&newest, &mutated).unwrap();
        let (result, warnings) = recover_and_finish(sim, &workload, kind, &mut disk, "ckpt", &ctx);
        assert_result_parity(&whole.result, &result, &ctx);
        if changed {
            assert!(
                warnings.iter().any(|w| w.contains(&newest)),
                "{ctx}: damage to {newest} must be reported, got {warnings:?}"
            );
        }
    }
}
