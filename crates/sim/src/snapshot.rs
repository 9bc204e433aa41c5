//! Whole-run checkpoints: a sealed container pairing a [`World`]
//! snapshot with the scheduler's saved state, pinned to the `(config,
//! workload)` pair that produced it.
//!
//! # Container layout
//!
//! The body inside the [`seal`]ed frame (magic, format version, length,
//! XXH64 checksum — see [`venn_core::snapshot`]) is:
//!
//! 1. run fingerprint (`u64`) — see [`run_fingerprint`]
//! 2. [`World::encode_state`] — all mutable kernel state in canonical
//!    (layout-independent) form
//! 3. [`Scheduler::save_state`] — the scheduler's own arm-fingerprinted
//!    dump
//!
//! # What resume means
//!
//! [`resume_world`] builds a world skeleton (`World::skeleton`) — which
//! re-derives every immutable or deterministically-recomputable artifact
//! (device profiles, session streams, compiled environment schedule, job
//! specs) but none of the initial dynamic state [`World::new`] primes —
//! then sets the mutable state from the snapshot. The
//! resumed run's remaining event stream, RNG draws, and final
//! [`SimResult`](crate::SimResult) are byte-identical to the
//! uninterrupted run's: the checkpoint captures the full `(time, seq)`
//! total order, every split RNG stream position, and all reserved seqs.
//!
//! Everything about the run — population, seed, environment preset,
//! population mode, workload — must match the fingerprint, because the
//! snapshot stores only state those inputs cannot re-derive.

use venn_core::snapshot::{checksum, seal, unseal};
use venn_core::{Scheduler, SnapError, SnapReader, SnapWriter};
use venn_traces::Workload;

use crate::config::{ExecMode, SimConfig};
use crate::world::World;

/// A collision-resistant-enough identity for "the same run": the XXH64
/// checksum of the config and workload debug renderings, with the
/// inert [`ExecMode`] normalized away.
///
/// Debug renderings make every field — including ones future PRs add —
/// part of the identity by default; a field must be *explicitly*
/// normalized here to opt out. The population mode stays in: the split
/// and eager arms share results but not RNG stream lineage, so their
/// snapshots are not interchangeable.
pub(crate) fn run_fingerprint(config: &SimConfig, workload: &Workload) -> u64 {
    let mut canon = *config;
    canon.exec = ExecMode::Sequential;
    checksum(format!("{canon:?}|{workload:?}").as_bytes())
}

/// Serializes a mid-run world and its scheduler into a sealed checkpoint.
///
/// Call between [`World::step`]s — snapshots are only well-defined at
/// event boundaries. Returns [`SnapError::Unsupported`] when the
/// scheduler does not implement state capture.
pub fn snapshot_world(world: &World, scheduler: &dyn Scheduler) -> Result<Vec<u8>, SnapError> {
    let mut w = SnapWriter::new();
    w.u64(run_fingerprint(world.config(), world.workload()));
    world.encode_state(&mut w);
    scheduler.save_state(&mut w)?;
    Ok(seal(w))
}

/// The prologue [`resume_world`] and [`fork_world`] share: verifies the
/// container and the run fingerprint, builds the world's skeleton under
/// `scheduler_name` (everything [`World::new`] builds but the initial
/// queue and cohort streams, which the snapshot holds), and restores its
/// kernel state. Returns the world and the reader, left at the
/// scheduler's saved state.
fn restore<'a>(
    bytes: &'a [u8],
    config: SimConfig,
    workload: &Workload,
    scheduler_name: &str,
) -> Result<(World, SnapReader<'a>), SnapError> {
    let mut r = SnapReader::new(unseal(bytes)?);
    let stored = r.u64()?;
    let expected = run_fingerprint(&config, workload);
    if stored != expected {
        return Err(SnapError::Corrupt(format!(
            "snapshot fingerprint {stored:#018x} does not match this \
             (config, workload) pair {expected:#018x} — resume and fork \
             must use the run's original parameters"
        )));
    }
    let mut world = World::skeleton(config, workload, scheduler_name);
    world.restore_state(&mut r)?;
    Ok((world, r))
}

/// Rebuilds a world (and overwrites `scheduler`'s state) from a sealed
/// checkpoint, ready to continue stepping exactly where the checkpointed
/// run left off.
///
/// `config` and `workload` must be the pair the snapshot was taken
/// under; `scheduler` must be a fresh instance of the same scheduler
/// build, which its [`Scheduler::load_state`] checks. Every failure mode
/// — truncation, bit flips, wrong format version, mismatched run or
/// scheduler — returns a [`SnapError`]; nothing in this path panics.
pub fn resume_world(
    bytes: &[u8],
    config: SimConfig,
    workload: &Workload,
    scheduler: &mut dyn Scheduler,
) -> Result<World, SnapError> {
    let (world, mut r) = restore(bytes, config, workload, scheduler.name())?;
    scheduler.load_state(&mut r)?;
    r.finish()?;
    Ok(world)
}

/// Rebuilds a world from a sealed checkpoint under a *different*
/// scheduler — the what-if `fork`: the kernel state (devices, jobs,
/// pending events, RNG positions) continues exactly where the snapshot
/// left off, but scheduling decisions from here on are `scheduler`'s.
///
/// Where [`resume_world`] demands the original scheduler and overwrites
/// its state from the snapshot, a fork gives the new scheduler a *cold*
/// book and replays into it only what the kernel can prove it must know:
/// every still-open allocation request, resubmitted with its remaining
/// demand (`World::resubmit_open_requests`). The snapshot's trailing
/// scheduler-state bytes are deliberately ignored — they are the old
/// arm's private state and have no meaning to the new one. Supply
/// observations accumulate naturally as devices poll; schedulers start
/// every run with an empty supply book anyway.
///
/// The forked child's result reports `scheduler.name()`, not the parent
/// run's scheduler. `config` and `workload` must still be the snapshot's
/// pair — a fork changes the *policy*, never the world.
pub fn fork_world(
    bytes: &[u8],
    config: SimConfig,
    workload: &Workload,
    scheduler: &mut dyn Scheduler,
) -> Result<World, SnapError> {
    let (mut world, _) = restore(bytes, config, workload, scheduler.name())?;
    world.resubmit_open_requests(scheduler);
    Ok(world)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PopMode;
    use crate::{Event, EventKind, EventQueue};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use venn_baselines::BaselineScheduler;
    use venn_core::JobId;
    use venn_env::EnvPreset;

    fn setup() -> (SimConfig, Workload) {
        let mut rng = StdRng::seed_from_u64(7);
        let workload = Workload::default_scenario(4, &mut rng);
        (SimConfig::small(), workload)
    }

    #[test]
    fn fingerprint_ignores_result_invariant_arms() {
        let (config, workload) = setup();
        let base = run_fingerprint(&config, &workload);
        let mut other = config;
        other.exec = ExecMode::Sharded { shards: 4 };
        assert_eq!(run_fingerprint(&other, &workload), base);
    }

    #[test]
    fn fingerprint_pins_seed_and_pop_mode() {
        let (config, workload) = setup();
        let base = run_fingerprint(&config, &workload);
        let mut reseeded = config;
        reseeded.seed += 1;
        assert_ne!(run_fingerprint(&reseeded, &workload), base);
        let mut split = config;
        split.pop_mode = PopMode::Lazy;
        assert_ne!(run_fingerprint(&split, &workload), base);
    }

    #[test]
    fn resume_rejects_wrong_run() {
        let (config, workload) = setup();
        let mut sched = BaselineScheduler::fifo();
        let mut world = World::new(config, &workload, sched.name());
        for _ in 0..50 {
            if !world.step(&mut sched, &mut []) {
                break;
            }
        }
        let bytes = snapshot_world(&world, &sched).expect("snapshot");
        let mut other = config;
        other.seed ^= 0xdead_beef;
        let mut fresh = BaselineScheduler::fifo();
        let err = resume_world(&bytes, other, &workload, &mut fresh).unwrap_err();
        assert!(matches!(err, SnapError::Corrupt(_)), "got {err:?}");
    }

    #[test]
    fn resume_rejects_tampered_bytes() {
        let (config, workload) = setup();
        let mut sched = BaselineScheduler::fifo();
        let mut world = World::new(config, &workload, sched.name());
        for _ in 0..50 {
            if !world.step(&mut sched, &mut []) {
                break;
            }
        }
        let mut bytes = snapshot_world(&world, &sched).expect("snapshot");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        let mut fresh = BaselineScheduler::fifo();
        let err = resume_world(&bytes, config, &workload, &mut fresh).unwrap_err();
        assert!(
            matches!(err, SnapError::ChecksumMismatch { .. }),
            "got {err:?}"
        );
    }

    /// A hold list the device roles contradict must not resume: the next
    /// steps would index the pool with it.
    #[test]
    fn resume_rejects_inconsistent_holds() {
        let (config, workload) = setup();
        let mut sched = BaselineScheduler::fifo();
        let mut world = World::new(config, &workload, sched.name());
        let (job, device) = loop {
            assert!(world.step(&mut sched, &mut []), "no job ever held a device");
            let held = (0..world.jobs.len()).find_map(|j| {
                let rt = world.jobs.get(j);
                let live = rt.held_devices().next()?;
                (rt.phase == crate::JobPhase::Allocating).then_some((j, live))
            });
            if let Some(found) = held {
                break found;
            }
        };
        let resume = |world: &World| {
            let bytes = snapshot_world(world, &sched).expect("snapshot");
            let mut fresh = BaselineScheduler::fifo();
            resume_world(&bytes, config, &workload, &mut fresh).unwrap_err()
        };

        world.jobs.get_mut(job).hold(1_000_000_000);
        let err = resume(&world);
        assert!(
            matches!(&err, SnapError::Corrupt(m) if m.contains("names device 1000000000, which is absent")),
            "got {err:?}"
        );

        // The first live hold now names an idle device; it is checked
        // before the out-of-range one appended above.
        world
            .devices
            .set_role(device, crate::device_pool::Role::Idle);
        let err = resume(&world);
        assert!(
            matches!(&err, SnapError::Corrupt(m)
                if m.contains(&format!("job {job} hold slot")) && m.contains(&format!("names device {device}, which is Idle"))),
            "got {err:?}"
        );
    }

    /// An event the world cannot dispatch must not resume: the next steps
    /// would index the pool with it, take a cohort set the eager arm does
    /// not have, or run the clock backwards.
    #[test]
    fn resume_rejects_events_the_world_cannot_dispatch() {
        let (config, workload) = setup();
        let mut sched = BaselineScheduler::fifo();
        let mut world = World::new(config, &workload, sched.name());
        while world.now() < 600_000 {
            assert!(world.step(&mut sched, &mut []), "run ended before 600 s");
        }
        let now = world.now();
        let pending = world.queue.snapshot_events();
        let next_seq = world.queue.next_seq();
        let peak_len = world.queue.peak_len();
        let mut resume_with = |time, kind| {
            // `restore`, not `push`: a push into the past debug-asserts.
            let mut events = pending.clone();
            events.push(Event {
                time,
                seq: next_seq,
                kind,
            });
            world.queue = EventQueue::restore(&events, next_seq + 1, peak_len);
            let bytes = snapshot_world(&world, &sched).expect("snapshot");
            let mut fresh = BaselineScheduler::fifo();
            resume_world(&bytes, config, &workload, &mut fresh).unwrap_err()
        };
        let cases = [
            (
                now,
                EventKind::CheckIn {
                    device: 1_000_000_000,
                },
                "names device 1000000000 of 600".to_string(),
            ),
            (
                now,
                EventKind::CohortWake { cohort: 0 },
                "names cohort 0 of 0".to_string(),
            ),
            (
                now,
                EventKind::RoundDeadline {
                    job: JobId::new(4),
                    epoch: 0,
                },
                "names job 4 of 4".to_string(),
            ),
            (
                now - 500_000,
                EventKind::CheckIn { device: 0 },
                format!("precedes the clock ({now} ms)"),
            ),
        ];
        for (time, kind, why) in cases {
            let err = resume_with(time, kind);
            assert!(
                matches!(&err, SnapError::Corrupt(m) if m.contains(&why)),
                "{kind:?} at {time}: got {err:?}"
            );
        }
    }

    /// Whether some cohort heap of `world` is non-empty.
    fn has_pending_cohort(world: &World) -> bool {
        world
            .cohorts
            .as_ref()
            .is_some_and(|c| (0..c.cohort_count()).any(|k| c.next_wake(k).is_some()))
    }

    /// A `pop_mode` world under `env`, stepped to the first instant whose
    /// snapshot holds every structure a restore sets: parked polls, a
    /// non-empty cohort heap (split arms), durable overlay entries and
    /// retire notes (lazy arm).
    fn world_holding_every_structure(
        pop_mode: PopMode,
        env: EnvPreset,
    ) -> (SimConfig, Workload, World, BaselineScheduler) {
        let (mut config, workload) = setup();
        config.pop_mode = pop_mode;
        config.env = env.config();
        let mut sched = BaselineScheduler::fifo();
        let mut world = World::new(config, &workload, sched.name());
        let holds_all = |world: &World| {
            !world.parked.is_empty()
                && world
                    .devices
                    .lazy_overlay_len()
                    .is_none_or(|(durable, notes)| durable > 0 && notes > 0)
                && (pop_mode == PopMode::Eager || has_pending_cohort(world))
        };
        while !holds_all(&world) {
            assert!(
                world.step(&mut sched, &mut []),
                "{pop_mode:?} {env:?}: no instant holds every structure"
            );
        }
        (config, workload, world, sched)
    }

    /// Re-encoding a resumed world reproduces its checkpoint byte for
    /// byte, so the skeleton a restore starts from leaves nothing unset
    /// that the primed constructor would have set; a fork child holds the
    /// same kernel state as its parent.
    #[test]
    fn a_resume_is_a_fixed_point() {
        let section = |world: &World| {
            let mut w = SnapWriter::new();
            world.encode_state(&mut w);
            w.into_bytes()
        };
        for pop_mode in [PopMode::Eager, PopMode::SplitEager, PopMode::Lazy] {
            for env in [EnvPreset::Off, EnvPreset::Chaos] {
                let ctx = format!("{pop_mode:?} {env:?}");
                let (config, workload, world, sched) = world_holding_every_structure(pop_mode, env);
                let bytes = snapshot_world(&world, &sched).expect("snapshot");
                let mut fresh = BaselineScheduler::fifo();
                let resumed = resume_world(&bytes, config, &workload, &mut fresh)
                    .unwrap_or_else(|e| panic!("{ctx}: resume: {e}"));
                assert!(
                    snapshot_world(&resumed, &fresh).expect("re-snapshot") == bytes,
                    "{ctx}: a resumed world re-encodes other bytes"
                );
                // A cold book of the same arm: the section's result
                // counters hold the scheduler's name.
                let mut cold = BaselineScheduler::fifo();
                let child = fork_world(&bytes, config, &workload, &mut cold)
                    .unwrap_or_else(|e| panic!("{ctx}: fork: {e}"));
                assert!(
                    section(&child) == section(&world),
                    "{ctx}: a fork child re-encodes another world section"
                );
            }
        }
    }

    /// A queue that breaks the cohort wake invariant — one wake per
    /// non-empty cohort, at its earliest start, none for an empty one —
    /// must not resume: a late wake misses a session start, a missing one
    /// strands its cohort.
    #[test]
    fn resume_rejects_mismatched_cohort_wakes() {
        let (mut config, workload) = setup();
        config.pop_mode = PopMode::Lazy;
        config.days = 1;
        let mut sched = BaselineScheduler::fifo();
        let mut world = World::new(config, &workload, sched.name());
        while world.now() < 600_000 {
            assert!(world.step(&mut sched, &mut []), "run ended before 600 s");
        }
        let resume_with = |world: &mut World, sched: &BaselineScheduler, events: Vec<Event>| {
            let next_seq = world.queue.next_seq() + 1;
            let peak_len = world.queue.peak_len();
            world.queue = EventQueue::restore(&events, next_seq, peak_len);
            let bytes = snapshot_world(world, sched).expect("snapshot");
            let mut fresh = BaselineScheduler::fifo();
            resume_world(&bytes, config, &workload, &mut fresh).unwrap_err()
        };
        let pending = world.queue.snapshot_events();
        let at = pending
            .iter()
            .position(|e| matches!(e.kind, EventKind::CohortWake { cohort: 0 }))
            .expect("cohort 0 has a wake pending");
        let wake = pending[at];
        let mut late = pending.clone();
        late[at].time += 1;
        late.sort_by_key(|e| (e.time, e.seq));
        let mut missing = pending.clone();
        missing.remove(at);
        let mut twice = pending.clone();
        twice.push(Event {
            time: wake.time + 5,
            seq: world.queue.next_seq(),
            kind: wake.kind,
        });
        twice.sort_by_key(|e| (e.time, e.seq));
        let cases = [
            (
                late,
                format!(
                    "cohort 0 has wake at {} ms, but its earliest session starts at {} ms",
                    wake.time + 1,
                    wake.time
                ),
            ),
            (
                missing,
                format!(
                    "cohort 0 has no wake queued, but a session starts at {} ms",
                    wake.time
                ),
            ),
            (twice, "cohort 0 has two wakes queued".to_string()),
        ];
        for (events, why) in cases {
            let err = resume_with(&mut world, &sched, events);
            assert!(
                matches!(&err, SnapError::Corrupt(m) if m.contains(&why)),
                "{why}: got {err:?}"
            );
        }

        // Run on until every device's stream is spent; a wake for the
        // now-empty cohort must not resume either.
        world.queue = EventQueue::restore(&pending, world.queue.next_seq(), world.queue.peak_len());
        while has_pending_cohort(&world) {
            assert!(
                world.step(&mut sched, &mut []),
                "run ended with a wake pending"
            );
        }
        let mut stray = world.queue.snapshot_events();
        stray.push(Event {
            time: world.now(),
            seq: world.queue.next_seq(),
            kind: wake.kind,
        });
        stray.sort_by_key(|e| (e.time, e.seq));
        let err = resume_with(&mut world, &sched, stray);
        assert!(
            matches!(&err, SnapError::Corrupt(m) if m.contains("but no session pending")),
            "got {err:?}"
        );
    }

    #[test]
    fn resume_rejects_truncation() {
        let (config, workload) = setup();
        let sched = BaselineScheduler::fifo();
        let world = World::new(config, &workload, sched.name());
        let bytes = snapshot_world(&world, &sched).expect("snapshot");
        for cut in [0, 3, 16, bytes.len() - 1] {
            let mut fresh = BaselineScheduler::fifo();
            assert!(
                resume_world(&bytes[..cut], config, &workload, &mut fresh).is_err(),
                "truncation to {cut} bytes must not resume"
            );
        }
    }
}
