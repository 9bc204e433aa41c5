//! Checkpoint / crash / resume: a run interrupted at an arbitrary event
//! boundary and rebuilt from its snapshot in a fresh world + scheduler
//! must be **byte-identical** to the uninterrupted run — records, round
//! logs, assignment stream, dispatched event trace, environment
//! counters, peak statistics, everything `assert_run_parity` pins.
//!
//! Four layers:
//!
//! 1. The full differential matrix: every `SchedKind` × {env off, chaos}
//!    × all three population modes, crashed at the run's halfway point.
//! 2. Property-based random crash points over random run parameters.
//! 3. Targeted edge states: crashing *inside* an allocating/running
//!    round, and crashing with parked (demand-gated) polls pending.
//! 4. Integrity: a truncated or bit-flipped checkpoint is detected as an
//!    error — never a panic, never a silently wrong resume.
//!
//! Built on `tests/common/crash.rs` (in-process crash injection) and
//! `tests/common/parity.rs` (the shared observation harness). Every
//! injected crash also asserts snapshot idempotence — see the harness
//! docs.

mod common;

use common::crash::{observe_kind_crashed, observe_kind_crashed_when};
use common::parity::{
    assert_run_parity, contended_workload, every_sched_kind, observe_kind, SCHED_SEED_SALT,
};

use venn::bench::SchedKind;
use venn::core::faultio::{Fault, FaultFs, FaultRule, FioError, FioOp, MemFs, SimFs};
use venn::core::snapshot::{seal, unseal};
use venn::core::{SnapError, SnapReader, SnapWriter, Snapshot, SupplyEstimator};
use venn::env::EnvPreset;
use venn::sim::{
    resume_world, snapshot_world, CheckpointStore, CkptError, JobPhase, PopMode, SimConfig,
    SimResult, World,
};
use venn::traces::Workload;

const POP_MODES: [PopMode; 3] = [PopMode::Eager, PopMode::SplitEager, PopMode::Lazy];

fn experiment(seed: u64, env: EnvPreset, pop_mode: PopMode) -> SimConfig {
    SimConfig {
        population: 400,
        days: 2,
        seed,
        env: env.config(),
        pop_mode,
        ..SimConfig::default()
    }
}

/// The full matrix the tentpole promises: all eight scheduler arms,
/// with and without environment dynamics, on every population mode — each crashed at its halfway event and
/// required to finish byte-identically to the uninterrupted run.
#[test]
fn crash_at_halfway_is_invisible_across_the_full_matrix() {
    for env in [EnvPreset::Off, EnvPreset::Chaos] {
        for pop_mode in POP_MODES {
            let sim = experiment(2_024, env, pop_mode);
            let workload = contended_workload(sim.seed);
            for kind in every_sched_kind() {
                let ctx = format!("{env:?} {pop_mode:?} {kind:?}");
                let whole = observe_kind(sim, &workload, kind);
                assert!(whole.result.events > 10, "{ctx}: trivial run");
                let crashed = observe_kind_crashed(sim, &workload, kind, whole.result.events / 2);
                assert_run_parity(&whole, &crashed, &ctx);
            }
        }
    }
}

/// A crash immediately after the *first* event and immediately before
/// the *last* one — the boundary positions a halfway sweep misses.
#[test]
fn crash_at_the_first_and_last_event_boundaries() {
    let sim = experiment(77, EnvPreset::Chaos, PopMode::Lazy);
    let workload = contended_workload(sim.seed);
    for kind in [SchedKind::Venn, SchedKind::Srsf] {
        let whole = observe_kind(sim, &workload, kind);
        for crash_after in [1, whole.result.events - 1] {
            let crashed = observe_kind_crashed(sim, &workload, kind, crash_after);
            assert_run_parity(&whole, &crashed, &format!("{kind:?} crash@{crash_after}"));
        }
    }
}

/// Property test over random run parameters and crash points, driven by
/// the deterministic proptest stream (the full `proptest!` macro runs 64
/// cases — too many whole-simulation differentials — so this draws a
/// bounded batch from the same strategies by hand; inputs are a pure
/// function of the case index and replayable from the failure message).
#[test]
fn random_crash_points_resume_byte_identically() {
    use proptest::Strategy;
    let mut rng = proptest::test_rng();
    for case in 0..12 {
        let seed = (0u64..10_000).generate(&mut rng);
        let population = (150usize..450).generate(&mut rng);
        let pop_mode = POP_MODES[(0usize..3).generate(&mut rng)];
        let env = if (0u32..2).generate(&mut rng) == 0 {
            EnvPreset::Off
        } else {
            EnvPreset::Chaos
        };
        let kind = every_sched_kind()[(0usize..8).generate(&mut rng)];
        let crash_frac = (0.05f64..0.95).generate(&mut rng);

        let sim = SimConfig {
            population,
            days: 2,
            seed,
            env: env.config(),
            pop_mode,
            ..SimConfig::default()
        };
        let workload = contended_workload(seed);
        let whole = observe_kind(sim, &workload, kind);
        let crash_after = ((whole.result.events as f64) * crash_frac) as u64;
        let crashed = observe_kind_crashed(sim, &workload, kind, crash_after.max(1));
        assert_run_parity(
            &whole,
            &crashed,
            &format!(
                "case {case}: seed {seed} pop {population} {pop_mode:?} {env:?} \
                 {kind:?} crash@{crash_after}"
            ),
        );
    }
}

/// Crashing while a round is mid-flight — devices held, responses
/// outstanding — must restore the allocation in progress exactly.
#[test]
fn crash_inside_an_active_round_is_invisible() {
    let sim = experiment(31, EnvPreset::Off, PopMode::Eager);
    let workload = contended_workload(sim.seed);
    for kind in [SchedKind::Venn, SchedKind::Fifo] {
        let whole = observe_kind(sim, &workload, kind);
        let mut crashed_at = None;
        let crashed = observe_kind_crashed_when(
            sim,
            &workload,
            kind,
            |world: &World| {
                (0..world.jobs.len()).any(|i| {
                    let j = world.jobs.get(i);
                    matches!(j.phase, JobPhase::Allocating | JobPhase::Running)
                        && !j.held().is_empty()
                })
            },
            &mut crashed_at,
        );
        assert!(
            crashed_at.is_some(),
            "{kind:?}: the workload must reach a mid-round state"
        );
        assert_run_parity(&whole, &crashed, &format!("{kind:?} mid-round crash"));
    }
}

/// Crashing with demand-gated polls parked must preserve their reserved
/// `(time, seq)` identities — later wake-ups re-enter the stream at their
/// original tie-break positions.
#[test]
fn crash_with_parked_polls_is_invisible() {
    let sim = experiment(93, EnvPreset::Off, PopMode::SplitEager);
    let workload = contended_workload(sim.seed);
    let kind = SchedKind::Venn;
    let whole = observe_kind(sim, &workload, kind);
    let mut crashed_at = None;
    let crashed = observe_kind_crashed_when(
        sim,
        &workload,
        kind,
        |world: &World| world.parked_poll_count() > 20,
        &mut crashed_at,
    );
    assert!(
        crashed_at.is_some(),
        "the run must park polls under demand gating"
    );
    assert_run_parity(&whole, &crashed, "parked-poll crash");
}

/// Damage detection: every truncation length and a sweep of single-bit
/// flips across the container must yield a clean error — the resume path
/// never panics and never accepts damaged bytes.
#[test]
fn truncated_and_bit_flipped_checkpoints_are_rejected() {
    let sim = experiment(55, EnvPreset::Chaos, PopMode::Lazy);
    let workload = contended_workload(sim.seed);
    let kind = SchedKind::Venn;
    let mut sched = kind.build(sim.seed ^ SCHED_SEED_SALT);
    let mut world = World::new(sim, &workload, sched.name());
    for _ in 0..500 {
        assert!(world.step(&mut *sched, &mut []), "run too short");
    }
    let bytes = snapshot_world(&world, &*sched).expect("snapshot");

    // Undamaged control: the bytes resume cleanly.
    let mut fresh = kind.build(sim.seed ^ SCHED_SEED_SALT);
    resume_world(&bytes, sim, &workload, &mut *fresh).expect("clean resume");

    // Every truncation point in the frame header, and a spread through
    // the body.
    for cut in (0..32.min(bytes.len())).chain((32..bytes.len()).step_by(997)) {
        let mut fresh = kind.build(sim.seed ^ SCHED_SEED_SALT);
        assert!(
            resume_world(&bytes[..cut], sim, &workload, &mut *fresh).is_err(),
            "truncation to {cut} bytes must be rejected"
        );
    }

    // Single-bit flips: all header bytes, sampled body bytes.
    for pos in (0..28.min(bytes.len())).chain((28..bytes.len()).step_by(499)) {
        for bit in [0u8, 3, 7] {
            let mut damaged = bytes.clone();
            damaged[pos] ^= 1 << bit;
            if damaged == bytes {
                continue;
            }
            let mut fresh = kind.build(sim.seed ^ SCHED_SEED_SALT);
            assert!(
                resume_world(&damaged, sim, &workload, &mut *fresh).is_err(),
                "bit flip at byte {pos} bit {bit} must be rejected"
            );
        }
    }
}

/// A checksum-valid checkpoint whose Venn state names a job group that is
/// not a registered spec is refused as corrupt when it is resumed — not
/// accepted, only to panic at the job's next submission or assignment.
#[test]
fn a_resealed_checkpoint_with_an_unregistered_job_group_is_corrupt() {
    let sim = experiment(55, EnvPreset::Off, PopMode::Lazy);
    let workload = contended_workload(sim.seed);
    let kind = SchedKind::Venn;
    let mut sched = kind.build(sim.seed ^ SCHED_SEED_SALT);
    let mut world = World::new(sim, &workload, sched.name());
    for _ in 0..500 {
        assert!(world.step(&mut *sched, &mut []), "run too short");
    }
    let sealed = snapshot_world(&world, &*sched).expect("snapshot");
    let mut body = unseal(&sealed).expect("a sealed checkpoint").to_vec();

    // The scheduler's state closes the body: its name, the supply
    // estimator, then the job table, whose first cell is job 0's
    // (presence byte, group).
    let mut state = SnapWriter::new();
    sched.save_state(&mut state).unwrap();
    let state = state.into_bytes();
    let mut r = SnapReader::new(&state);
    assert_eq!(r.str().unwrap(), "venn");
    SupplyEstimator::decode(&mut r).unwrap();
    assert!(r.len_prefix().unwrap() > 0, "jobs were submitted");
    assert_eq!(r.u8().unwrap(), 1, "job 0's cell is occupied");
    let group_at = body.len() - r.remaining();
    body[group_at..group_at + 8].copy_from_slice(&200u64.to_le_bytes());

    let mut w = SnapWriter::new();
    for &b in &body {
        w.u8(b);
    }
    let resealed = seal(w);
    let mut fresh = kind.build(sim.seed ^ SCHED_SEED_SALT);
    match resume_world(&resealed, sim, &workload, &mut *fresh) {
        Err(SnapError::Corrupt(msg)) => assert!(msg.contains("registered spec"), "{msg}"),
        other => panic!("expected a corrupt job group, got {:?}", other.err()),
    }
}

/// Result-level zero-drift comparison for checkpoint-store recovery:
/// the resumed run's final accounting must match the uninterrupted
/// run's byte for byte. (The full-stream `assert_run_parity` does not
/// apply here — resume from an *earlier* checkpoint legitimately
/// re-dispatches the events between the checkpoint and the crash, so
/// observers outside the world would see that window twice.)
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

/// Drives a run over a [`CheckpointStore`], checkpointing every
/// `every` events, until `crash_at` events have dispatched (the crash)
/// or the run ends. Checkpoint write errors go to `on_write` so callers
/// can assert the typed failure they scripted.
fn run_store_until(
    sim: SimConfig,
    workload: &Workload,
    kind: SchedKind,
    store: &mut CheckpointStore,
    every: u64,
    crash_at: u64,
    on_write: &mut dyn FnMut(Result<String, CkptError>),
) {
    let mut sched = kind.build(sim.seed ^ SCHED_SEED_SALT);
    let mut world = World::new(sim, workload, sched.name());
    let mut next = every;
    while world.events_processed() < crash_at && world.step(&mut *sched, &mut []) {
        if world.events_processed() >= next {
            on_write(store.write(&world, &*sched));
            next = world.events_processed() + every;
        }
    }
    // The crash: world and scheduler drop here; only the store's
    // backend survives into the "new process".
}

/// Resumes from whatever the store holds and runs to completion.
fn resume_store_to_end(
    sim: SimConfig,
    workload: &Workload,
    kind: SchedKind,
    disk: &mut dyn SimFs,
    dir: &str,
) -> (SimResult, Vec<String>) {
    let mut store = CheckpointStore::open(disk, dir, 2).expect("open store on survivor disk");
    let mut build = || kind.build(sim.seed ^ SCHED_SEED_SALT);
    let outcome = store
        .resume(sim, workload, &mut build)
        .expect("resume triage must not error");
    let (mut world, mut sched) = outcome.run.expect("a checkpoint must survive");
    while world.step(&mut *sched, &mut []) {}
    (world.finish(&mut []), outcome.warnings)
}

/// Transient ENOSPC / torn writes during checkpoint publication are
/// absorbed by retry-with-backoff: every `store.write` still succeeds,
/// the faults are visible only in the injector's stats, and a crash
/// later in the run resumes from the (fault-tested) checkpoints with
/// zero drift.
#[test]
fn transient_faults_during_checkpoint_are_absorbed_by_retry() {
    let sim = experiment(641, EnvPreset::Chaos, PopMode::Eager);
    let workload = contended_workload(sim.seed);
    let kind = SchedKind::Venn;
    let whole = observe_kind(sim, &workload, kind);
    let every = whole.result.events / 6;
    let crash_at = whole.result.events * 2 / 3;

    // First checkpoint clean; the second hits ENOSPC on attempt one;
    // a later one hits a torn tmp write. Both retries must succeed.
    let mut fs = FaultFs::scripted(
        MemFs::new(),
        vec![
            FaultRule::after(FioOp::Write, ".vsnp.tmp", 1, Fault::NoSpace),
            FaultRule::after(FioOp::Write, ".vsnp.tmp", 1, Fault::Torn { keep: 7 }),
        ],
    );
    {
        let mut store = CheckpointStore::open(&mut fs, "ckpt", 2).expect("open");
        run_store_until(
            sim,
            &workload,
            kind,
            &mut store,
            every,
            crash_at,
            &mut |r| {
                r.expect("retry must absorb transient checkpoint faults");
            },
        );
    }
    let (_, injected) = fs.stats();
    assert_eq!(injected, 2, "both scripted faults must have fired");

    let mut disk = fs.into_inner();
    let (result, warnings) = resume_store_to_end(sim, &workload, kind, &mut disk, "ckpt");
    assert!(warnings.is_empty(), "no degraded checkpoints: {warnings:?}");
    assert_result_parity(&whole.result, &result, "transient-fault checkpoints");
}

/// Persistent ENOSPC exhausts the retry budget and surfaces as a typed
/// `CkptError::Io` — and the *previous* checkpoint, published before
/// the disk filled up, still resumes the run with zero drift.
#[test]
fn persistent_enospc_surfaces_typed_and_older_checkpoint_still_resumes() {
    let sim = experiment(642, EnvPreset::Chaos, PopMode::Lazy);
    let workload = contended_workload(sim.seed);
    let kind = SchedKind::Srsf;
    let whole = observe_kind(sim, &workload, kind);
    let every = whole.result.events / 5;
    let crash_at = whole.result.events * 3 / 5;

    // Checkpoint 1 clean; checkpoint 2 fails on all four write attempts.
    let mut fs = FaultFs::scripted(
        MemFs::new(),
        vec![
            FaultRule::after(FioOp::Write, ".vsnp.tmp", 1, Fault::NoSpace),
            FaultRule::on(FioOp::Write, ".vsnp.tmp", Fault::NoSpace),
            FaultRule::on(FioOp::Write, ".vsnp.tmp", Fault::NoSpace),
            FaultRule::on(FioOp::Write, ".vsnp.tmp", Fault::NoSpace),
        ],
    );
    let mut write_errors = Vec::new();
    {
        let mut store = CheckpointStore::open(&mut fs, "ckpt", 2).expect("open");
        run_store_until(
            sim,
            &workload,
            kind,
            &mut store,
            every,
            crash_at,
            &mut |r| {
                if let Err(e) = r {
                    write_errors.push(e);
                }
            },
        );
    }
    assert!(
        write_errors
            .iter()
            .any(|e| matches!(e, CkptError::Io(FioError::NoSpace { .. }))),
        "the exhausted retry must surface as a typed ENOSPC: {write_errors:?}"
    );

    let mut disk = fs.into_inner();
    assert!(
        !disk.list("ckpt").expect("list").is_empty(),
        "checkpoint 1 must have survived the full disk"
    );
    let (result, _) = resume_store_to_end(sim, &workload, kind, &mut disk, "ckpt");
    assert_result_parity(&whole.result, &result, "persistent-ENOSPC fallback");
}

/// A crash *before the rename* that publishes a checkpoint strands a
/// `.tmp` file and nothing else: startup hygiene removes it (logging
/// the name), listing never shows it, and resume falls back to the
/// previous published checkpoint with zero drift.
#[test]
fn crash_before_rename_strands_tmp_and_resume_falls_back() {
    let sim = experiment(643, EnvPreset::Off, PopMode::SplitEager);
    let workload = contended_workload(sim.seed);
    let kind = SchedKind::Venn;
    let whole = observe_kind(sim, &workload, kind);
    let every = whole.result.events / 5;

    // Checkpoint 1 publishes; checkpoint 2 crashes between the tmp
    // write and the rename — exactly the window atomic publish protects.
    let mut fs = FaultFs::scripted(
        MemFs::new(),
        vec![FaultRule::after(
            FioOp::Rename,
            ".vsnp",
            1,
            Fault::CrashBefore,
        )],
    );
    let mut write_errors = Vec::new();
    {
        let mut store = CheckpointStore::open(&mut fs, "ckpt", 2).expect("open");
        run_store_until(
            sim,
            &workload,
            kind,
            &mut store,
            every,
            u64::MAX,
            &mut |r| {
                if let Err(e) = r {
                    write_errors.push(e);
                }
            },
        );
    }
    assert!(fs.is_crashed(), "the scripted crash must have fired");
    assert!(
        write_errors
            .iter()
            .all(|e| matches!(e, CkptError::Io(FioError::Crashed))),
        "post-crash writes surface as typed Crashed errors: {write_errors:?}"
    );

    // The "reboot": inspect the survivor disk directly.
    let mut disk = fs.into_inner();
    let names = disk.list("ckpt").expect("list");
    assert!(
        names.iter().any(|n| n.ends_with(".vsnp.tmp")),
        "the crash must strand a tmp file: {names:?}"
    );
    {
        let mut store = CheckpointStore::open(&mut disk, "ckpt", 2).expect("open");
        let removed = store.clean_stale_tmp().expect("hygiene scan");
        assert_eq!(removed.len(), 1, "exactly the stranded tmp: {removed:?}");
        assert!(removed[0].starts_with("ckpt-") && removed[0].ends_with(".vsnp.tmp"));
        let listed = store.list().expect("list");
        assert_eq!(listed.len(), 1, "only checkpoint 1 is published");
    }
    assert!(
        !disk
            .list("ckpt")
            .expect("list")
            .iter()
            .any(|n| n.ends_with(".tmp")),
        "hygiene must actually remove the tmp file"
    );
    let (result, _) = resume_store_to_end(sim, &workload, kind, &mut disk, "ckpt");
    assert_result_parity(&whole.result, &result, "crash-before-rename fallback");
}

/// A snapshot taken under one run identity must not resume another:
/// different seed, different population, different pop mode, different
/// scheduler — each is a distinct run and must be refused. Two arms of
/// one scheduler struct (`venn-wo-sched` → `venn`) differ only in the
/// name their `load_state` checks, so that row pins the one identity
/// check a resume makes.
#[test]
fn snapshots_are_pinned_to_their_run_identity() {
    let sim = experiment(12, EnvPreset::Off, PopMode::Eager);
    let workload = contended_workload(sim.seed);
    let snapshot_under = |kind: SchedKind| {
        let mut sched = kind.build(sim.seed ^ SCHED_SEED_SALT);
        let mut world = World::new(sim, &workload, sched.name());
        for _ in 0..200 {
            assert!(world.step(&mut *sched, &mut []), "run too short");
        }
        snapshot_world(&world, &*sched).expect("snapshot")
    };
    let kind = SchedKind::Venn;
    let bytes = snapshot_under(kind);
    let wo_sched = snapshot_under(SchedKind::VennWoSched);

    let wrong: [(&str, &[u8], SimConfig, &Workload, SchedKind); 5] = [
        (
            "seed",
            &bytes,
            SimConfig { seed: 13, ..sim },
            &workload,
            kind,
        ),
        (
            "population",
            &bytes,
            SimConfig {
                population: 401,
                ..sim
            },
            &workload,
            kind,
        ),
        (
            "pop mode",
            &bytes,
            SimConfig {
                pop_mode: PopMode::Lazy,
                ..sim
            },
            &workload,
            kind,
        ),
        ("scheduler", &bytes, sim, &workload, SchedKind::Fifo),
        ("arm of the same scheduler", &wo_sched, sim, &workload, kind),
    ];
    for (what, snap, config, w, k) in wrong {
        let mut fresh = k.build(config.seed ^ SCHED_SEED_SALT);
        assert!(
            resume_world(snap, config, w, &mut *fresh).is_err(),
            "a snapshot must not resume under a different {what}"
        );
    }

    // The positive controls: the identity each was taken under resumes.
    for (snap, k) in [(&bytes, kind), (&wo_sched, SchedKind::VennWoSched)] {
        let mut fresh = k.build(sim.seed ^ SCHED_SEED_SALT);
        assert!(
            resume_world(snap, sim, &workload, &mut *fresh).is_ok(),
            "a snapshot must resume under its own run identity"
        );
    }
}
