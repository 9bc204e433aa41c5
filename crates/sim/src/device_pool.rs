//! The device population: availability sessions, each device's [`Role`]
//! towards the jobs, and the one-task-per-day realism cap.
//!
//! Two storage arms back the pool:
//!
//! * **Dense** — one `DeviceState` per population index, fully
//!   materialized at construction. Used by
//!   [`PopMode::Eager`](crate::config::PopMode::Eager) and
//!   [`PopMode::SplitEager`](crate::config::PopMode::SplitEager).
//! * **Lazy** — a slot table of `Option<Box<DeviceState>>` plus a small
//!   durable overlay. A device materializes (profile drawn from its own
//!   split RNG stream, a pure function of `(seed, device)`) the first
//!   time a session begins, and *retires* — its slot freed, its durable
//!   facts (daily-cap day, hold generation) parked in the overlay — once
//!   it is idle past its session end. Live state is O(active ∪ assigned);
//!   the per-device fixed cost is one pointer-sized slot.
//!
//! Retirement is driven by *retire notes*: every code path that ends a
//! device's activity (a poll chain dying, a release, a hold expiry)
//! drops a `(session_end, device)` note into a min-heap, and the world
//! sweeps due notes once per event. Notes are hints, not commands — the
//! sweep re-validates (still present, idle, session really over) before
//! retiring, so stale notes from extended sessions are simply dropped.
//! Retiring only ever removes state that is *scheduler-invisible* (an
//! offline idle device can neither poll nor be drawn as a disturbance
//! victim), which is why the lazy arm stays byte-identical to the dense
//! split arm.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

use venn_core::{
    Capacity, DeviceId, DeviceInfo, SimTime, SnapError, SnapReader, SnapWriter, DAY_MS,
};
use venn_traces::{CapacityModel, DeviceProfile};

/// What a materialized device is doing for the jobs. Written only by the
/// `lifecycle` transitions, which keep it in step with
/// the holding job's hold list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Role {
    /// Free: may poll the resource manager.
    Idle,
    /// Allocated to `job`'s open request, not yet computing; `slot` is
    /// the device's index in that job's hold list, making release O(1).
    Held { job: usize, slot: usize },
    /// Computing a task. `failed` is set when an environment fault forced
    /// the device offline mid-task: its report must count as a failure.
    Computing { failed: bool },
}

/// Per-device simulation state.
#[derive(Debug)]
pub(crate) struct DeviceState {
    /// Static capacity/speed profile (sampled at world construction on
    /// the dense arms, from the device's split stream at materialization
    /// on the lazy arm).
    pub(crate) profile: DeviceProfile,
    /// Scheduler-facing identity/capacity view, derived from `profile`
    /// once per materialization — check-ins are the kernel's hottest path
    /// and must not reconstruct a `DeviceInfo` per poll.
    pub(crate) info: DeviceInfo,
    /// End of the current availability session (0 = offline).
    pub(crate) session_end: SimTime,
    /// Idle, held, or computing.
    pub(crate) role: Role,
    /// Day index of the device's last computation (one-task-per-day cap).
    pub(crate) last_task_day: Option<u64>,
    /// Hold-generation counter, bumped on every hold.
    /// A pending `HoldExpire` only releases when its recorded generation
    /// still matches — environment faults can release holds early, which
    /// would otherwise let the stale expiry free a *new* hold. Survives
    /// retirement via the durable overlay: a re-materialized device must
    /// not restart the counter under stale expiries still in flight.
    pub(crate) hold_seq: u64,
}

impl DeviceState {
    fn fresh(device: usize, profile: DeviceProfile) -> Self {
        DeviceState {
            info: DeviceInfo::new(DeviceId::new(device as u64), profile.capacity),
            profile,
            session_end: 0,
            role: Role::Idle,
            last_task_day: None,
            hold_seq: 0,
        }
    }
}

/// The facts that must survive a device's retirement: the daily-cap day
/// (a re-materialized device must still refuse a second same-day task)
/// and the hold generation (stale `HoldExpire` events must keep failing
/// their guard). Everything else about a retired device is derivable
/// (profile, from its split stream) or definitionally reset (offline,
/// idle).
#[derive(Debug, Clone, Copy, Default)]
struct Durable {
    last_task_day: Option<u64>,
    hold_seq: u64,
}

/// The lazy (cohort-compressed) storage arm.
#[derive(Debug)]
struct LazyStore {
    /// One slot per population index; `None` = not materialized.
    slots: Vec<Option<Box<DeviceState>>>,
    /// Durable facts of retired devices (only devices that ever computed
    /// or held have an entry — the overlay stays O(assigned-ever)).
    durable: HashMap<u32, Durable>,
    /// Pending `(session_end, device)` retirement hints, swept per event.
    retire_notes: BinaryHeap<Reverse<(SimTime, u32)>>,
    capacity: CapacityModel,
    seed: u64,
    live: usize,
    peak_live: usize,
}

#[derive(Debug)]
enum Store {
    Dense(Vec<DeviceState>),
    Lazy(LazyStore),
}

/// All devices of one simulated world, indexed by population index.
///
/// The pool owns session bookkeeping, device roles and the daily cap.
/// Roles change only through the device × job transitions of
/// `lifecycle`; the pool's own rules (sessions only
/// extend, a busy device never checks in, one task per day) stay here.
///
/// Absent (never-materialized or retired) devices on the lazy arm answer
/// read queries exactly like offline idle devices — `session_end` 0,
/// `can_check_in` false, `hold_is_current` false — which is precisely
/// the state a dense arm would report for them, so the event handlers
/// need no lazy-awareness.
#[derive(Debug)]
pub struct DevicePool {
    store: Store,
    population: usize,
}

impl DevicePool {
    /// Builds a dense pool from sampled capacity profiles; all devices
    /// start offline and idle.
    pub(crate) fn new(profiles: Vec<DeviceProfile>) -> Self {
        let population = profiles.len();
        DevicePool {
            store: Store::Dense(
                profiles
                    .into_iter()
                    .enumerate()
                    .map(|(i, profile)| DeviceState::fresh(i, profile))
                    .collect(),
            ),
            population,
        }
    }

    /// Builds a lazy pool: no device is materialized until its first
    /// session begins. Profiles come from per-device split RNG streams
    /// ([`CapacityModel::sample_device`]), so materialization order is
    /// irrelevant to the drawn state.
    pub fn lazy(capacity: CapacityModel, seed: u64, population: usize) -> Self {
        DevicePool {
            store: Store::Lazy(LazyStore {
                slots: (0..population).map(|_| None).collect(),
                durable: HashMap::new(),
                retire_notes: BinaryHeap::new(),
                capacity,
                seed,
                live: 0,
                peak_live: 0,
            }),
            population,
        }
    }

    /// Number of devices in the population (materialized or not).
    pub(crate) fn len(&self) -> usize {
        self.population
    }

    /// Whether this pool uses the lazy storage arm.
    pub fn is_lazy(&self) -> bool {
        matches!(self.store, Store::Lazy(_))
    }

    /// Currently materialized devices (== population on the dense arms).
    pub(crate) fn live_devices(&self) -> usize {
        match &self.store {
            Store::Dense(v) => v.len(),
            Store::Lazy(l) => l.live,
        }
    }

    /// High-water mark of materialized devices (== population on the
    /// dense arms) — the "O(active)" the scale benchmark reports.
    pub fn peak_live_devices(&self) -> usize {
        match &self.store {
            Store::Dense(v) => v.len(),
            Store::Lazy(l) => l.peak_live,
        }
    }

    #[inline]
    fn state(&self, device: usize) -> Option<&DeviceState> {
        match &self.store {
            Store::Dense(v) => Some(&v[device]),
            Store::Lazy(l) => l.slots[device].as_deref(),
        }
    }

    #[inline]
    fn state_mut(&mut self, device: usize) -> Option<&mut DeviceState> {
        match &mut self.store {
            Store::Dense(v) => Some(&mut v[device]),
            Store::Lazy(l) => l.slots[device].as_deref_mut(),
        }
    }

    #[inline]
    fn expect_mut(&mut self, device: usize) -> &mut DeviceState {
        self.state_mut(device)
            .expect("operation on a device that is not materialized")
    }

    /// Read access to one device.
    ///
    /// # Panics
    ///
    /// Panics on the lazy arm if the device is not materialized — every
    /// caller reaches `get` through a guard (busy, or `session_end > now`)
    /// that implies materialization.
    pub(crate) fn get(&self, device: usize) -> &DeviceState {
        self.state(device)
            .expect("read of a device that is not materialized")
    }

    /// The scheduler-facing identity/capacity view of a device (cached at
    /// materialization — no per-check-in rebuild).
    pub(crate) fn info(&self, device: usize) -> &DeviceInfo {
        &self.get(device).info
    }

    /// An availability session begins (or overlaps): the session end only
    /// ever extends, never shrinks. On the lazy arm this is the
    /// materialization point — the device's profile is drawn from its
    /// split stream and its durable facts are restored.
    pub fn begin_session(&mut self, device: usize, session_end: SimTime) {
        let d = match &mut self.store {
            Store::Dense(v) => &mut v[device],
            Store::Lazy(l) => l.materialize(device),
        };
        d.session_end = d.session_end.max(session_end);
    }

    /// End of the device's current session (0 = offline or retired).
    pub(crate) fn session_end(&self, device: usize) -> SimTime {
        self.state(device).map_or(0, |d| d.session_end)
    }

    /// Whether the device may poll the resource manager at `now`: online,
    /// idle, and not already used today (the paper's one-task-per-day
    /// cap). Absent devices are offline, hence `false`.
    pub(crate) fn can_check_in(&self, device: usize, now: SimTime) -> bool {
        let Some(d) = self.state(device) else {
            return false;
        };
        if d.role != Role::Idle || now >= d.session_end {
            return false;
        }
        d.last_task_day != Some(now / DAY_MS)
    }

    /// Marks the device held by `job` at `slot` of the job's hold list,
    /// and returns the new hold generation (carried by the matching
    /// `HoldExpire` event).
    pub(crate) fn mark_held(&mut self, device: usize, job: usize, slot: usize) -> u64 {
        let d = self.expect_mut(device);
        d.role = Role::Held { job, slot };
        d.hold_seq += 1;
        d.hold_seq
    }

    /// Sets the device's role, returning the one it replaces.
    pub(crate) fn set_role(&mut self, device: usize, role: Role) -> Role {
        std::mem::replace(&mut self.expect_mut(device).role, role)
    }

    /// The device's role, or `None` if it is out of range or not
    /// materialized.
    pub(crate) fn role(&self, device: usize) -> Option<Role> {
        let d = (device < self.population).then(|| self.state(device));
        d.flatten().map(|d| d.role)
    }

    /// Whether the device is still in the hold instance identified by
    /// `hold_seq` (the guard a `HoldExpire` must pass before releasing).
    /// Absent devices hold nothing.
    pub(crate) fn hold_is_current(&self, device: usize, hold_seq: u64) -> bool {
        self.state(device)
            .is_some_and(|d| matches!(d.role, Role::Held { .. }) && d.hold_seq == hold_seq)
    }

    /// Forces the device offline *now* (environment fault): the session
    /// end shrinks to `now` — the one place the sessions-only-extend
    /// rule is deliberately broken, which is why parked check-ins
    /// re-validate their session before replaying.
    pub(crate) fn cut_session(&mut self, device: usize, now: SimTime) {
        let d = self.expect_mut(device);
        d.session_end = d.session_end.min(now);
    }

    /// Records that the device computed a task today (daily-cap
    /// bookkeeping).
    pub(crate) fn note_task(&mut self, device: usize, now: SimTime) {
        self.expect_mut(device).last_task_day = Some(now / DAY_MS);
    }

    /// Hints that `device` may be retirable: if it is already idle past
    /// its session end it retires immediately, otherwise a note is filed
    /// for [`sweep_retire`](Self::sweep_retire) at its session end. The
    /// world calls this wherever a device's activity ends (poll-chain
    /// death, release, parked-poll death). No-op on the dense arms.
    pub(crate) fn note_possible_retire(&mut self, device: usize, now: SimTime) {
        let Store::Lazy(l) = &mut self.store else {
            return;
        };
        let Some(d) = l.slots[device].as_deref() else {
            return;
        };
        if d.role == Role::Idle && d.session_end <= now {
            l.retire(device);
        } else {
            l.retire_notes.push(Reverse((d.session_end, device as u32)));
        }
    }

    /// Retires every noted device whose session end has passed and that
    /// is still present and idle. Stale notes (session extended since the
    /// note, device busy again, already retired) are dropped — the next
    /// activity end files a fresh note. O(due notes) per call with an
    /// O(1) peek when nothing is due; no-op on the dense arms.
    pub(crate) fn sweep_retire(&mut self, now: SimTime) {
        let Store::Lazy(l) = &mut self.store else {
            return;
        };
        while let Some(&Reverse((end, device))) = l.retire_notes.peek() {
            if end > now {
                break;
            }
            l.retire_notes.pop();
            let retire = l.slots[device as usize]
                .as_deref()
                .is_some_and(|d| d.role == Role::Idle && d.session_end <= now);
            if retire {
                l.retire(device as usize);
            }
        }
    }

    /// The capacity the scheduler would see for `device`, if the device
    /// is materialized. Used when re-parking restored polls (a snapshot
    /// carries no capacities); absent lazy devices fall back to
    /// re-deriving the profile from the capacity model at the caller.
    pub(crate) fn snapshot_capacity(&self, device: usize) -> Option<Capacity> {
        self.state(device).map(|d| *d.info.capacity())
    }

    /// Encodes the pool's mutable state. Static facts — population size,
    /// per-device profiles on the dense arms, the lazy arm's capacity
    /// model and split seed — are re-derived by world reconstruction and
    /// deliberately not written; only what runtime events have changed is.
    pub(crate) fn encode_state(&self, w: &mut SnapWriter) {
        match &self.store {
            Store::Dense(v) => {
                w.u8(0);
                w.len_prefix(v.len());
                for d in v {
                    encode_mutable(d, w);
                }
            }
            Store::Lazy(l) => {
                w.u8(1);
                // Materialized devices, in index order (slot order).
                w.len_prefix(l.live);
                for (device, slot) in l.slots.iter().enumerate() {
                    if let Some(d) = slot.as_deref() {
                        w.u32(device as u32);
                        encode_mutable(d, w);
                    }
                }
                // Durable overlay, sorted by device for a canonical byte
                // stream (HashMap iteration order is not deterministic).
                let mut durable: Vec<(u32, Durable)> =
                    l.durable.iter().map(|(&k, &v)| (k, v)).collect();
                durable.sort_unstable_by_key(|&(k, _)| k);
                w.len_prefix(durable.len());
                for (device, d) in &durable {
                    w.u32(*device);
                    w.option(&d.last_task_day, |w, &day| w.u64(day));
                    w.u64(d.hold_seq);
                }
                // Pending retire notes, sorted (heap layout is an
                // implementation detail; only the multiset matters).
                let mut notes: Vec<(SimTime, u32)> =
                    l.retire_notes.iter().map(|&Reverse(n)| n).collect();
                notes.sort_unstable();
                w.len_prefix(notes.len());
                for (end, device) in &notes {
                    w.u64(*end);
                    w.u32(*device);
                }
                w.usize(l.peak_live);
            }
        }
    }

    /// Restores the pool's mutable state into a freshly constructed pool
    /// of the same arm and population (world reconstruction provides the
    /// static facts). Fails with [`SnapError::Corrupt`] on arm or
    /// population mismatch rather than producing a half-restored pool.
    pub(crate) fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let tag = r.u8()?;
        let expected = if self.is_lazy() { 1 } else { 0 };
        if tag != expected {
            return Err(SnapError::Corrupt(format!(
                "device pool storage tag {tag}, expected {expected}"
            )));
        }
        let population = self.population;
        match &mut self.store {
            Store::Dense(v) => {
                let n = r.len_prefix()?;
                if n != v.len() {
                    return Err(SnapError::Corrupt(format!(
                        "dense pool population {} != snapshot {n}",
                        v.len()
                    )));
                }
                for d in v.iter_mut() {
                    decode_mutable(d, r)?;
                }
            }
            Store::Lazy(l) => {
                l.slots.iter_mut().for_each(|s| *s = None);
                l.durable.clear();
                l.retire_notes.clear();
                l.live = 0;
                l.peak_live = 0;
                let live = r.len_prefix()?;
                for _ in 0..live {
                    let device = r.u32()? as usize;
                    if device >= population {
                        return Err(SnapError::Corrupt(format!(
                            "materialized device {device} out of population {population}"
                        )));
                    }
                    if l.slots[device].is_some() {
                        return Err(SnapError::Corrupt(format!(
                            "device {device} materialized twice"
                        )));
                    }
                    let d = l.materialize(device);
                    decode_mutable(d, r)?;
                }
                let durable = r.len_prefix()?;
                for _ in 0..durable {
                    let device = r.u32()?;
                    if device as usize >= population {
                        return Err(SnapError::Corrupt(format!(
                            "durable device {device} out of population {population}"
                        )));
                    }
                    let last_task_day = r.option(|r| r.u64())?;
                    let hold_seq = r.u64()?;
                    l.durable.insert(
                        device,
                        Durable {
                            last_task_day,
                            hold_seq,
                        },
                    );
                }
                let notes = r.len_prefix()?;
                for _ in 0..notes {
                    let end = r.u64()?;
                    let device = r.u32()?;
                    if device as usize >= population {
                        return Err(SnapError::Corrupt(format!(
                            "retire note for device {device} out of population {population}"
                        )));
                    }
                    l.retire_notes.push(Reverse((end, device)));
                }
                let peak = r.usize()?;
                if peak < l.live {
                    return Err(SnapError::Corrupt(format!(
                        "peak_live {peak} below live {}",
                        l.live
                    )));
                }
                l.peak_live = peak;
            }
        }
        Ok(())
    }
}

/// The per-device words runtime events mutate (profile and info are
/// static per materialization and re-derived on restore). The role is
/// spread over five of the eight words — busy, held slot, held, held job,
/// failed task — and the words a role gives no meaning to are written 0.
fn encode_mutable(d: &DeviceState, w: &mut SnapWriter) {
    let (busy, held, (job, slot), failed) = match d.role {
        Role::Idle => (false, false, (0, 0), false),
        Role::Held { job, slot } => (true, true, (job, slot), false),
        Role::Computing { failed } => (true, false, (0, 0), failed),
    };
    w.u64(d.session_end);
    w.bool(busy);
    w.option(&d.last_task_day, |w, &day| w.u64(day));
    w.usize(slot);
    w.bool(held);
    w.usize(job);
    w.u64(d.hold_seq);
    w.bool(failed);
}

/// Reads [`encode_mutable`]'s words back into a role; the held job and
/// slot words are ignored unless the device is held.
fn decode_mutable(d: &mut DeviceState, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
    d.session_end = r.u64()?;
    let busy = r.bool()?;
    d.last_task_day = r.option(|r| r.u64())?;
    let slot = r.usize()?;
    let held = r.bool()?;
    let job = r.usize()?;
    d.hold_seq = r.u64()?;
    let failed = r.bool()?;
    d.role = match (busy, held, failed) {
        (false, false, false) => Role::Idle,
        (true, true, false) => Role::Held { job, slot },
        (true, false, failed) => Role::Computing { failed },
        _ => {
            return Err(SnapError::Corrupt(format!(
                "device words busy={busy} held={held} failed_task={failed} name no role"
            )));
        }
    };
    Ok(())
}

impl LazyStore {
    /// Materializes `device` if absent: profile from its split stream
    /// (touch-order independent by construction), durable facts restored
    /// from the overlay.
    fn materialize(&mut self, device: usize) -> &mut DeviceState {
        if self.slots[device].is_none() {
            let profile = self.capacity.sample_device(self.seed, device);
            let mut state = DeviceState::fresh(device, profile);
            if let Some(d) = self.durable.get(&(device as u32)) {
                state.last_task_day = d.last_task_day;
                state.hold_seq = d.hold_seq;
            }
            self.slots[device] = Some(Box::new(state));
            self.live += 1;
            self.peak_live = self.peak_live.max(self.live);
        }
        self.slots[device]
            .as_deref_mut()
            .expect("just materialized")
    }

    /// Frees the device's slot, parking its durable facts. Caller has
    /// verified the device is present, idle, and past its session end.
    fn retire(&mut self, device: usize) {
        let state = self.slots[device].take().expect("retire of absent device");
        self.live -= 1;
        if state.last_task_day.is_some() || state.hold_seq > 0 {
            self.durable.insert(
                device as u32,
                Durable {
                    last_task_day: state.last_task_day,
                    hold_seq: state.hold_seq,
                },
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use venn_core::Capacity;

    fn pool(n: usize) -> DevicePool {
        DevicePool::new(
            (0..n)
                .map(|_| DeviceProfile {
                    capacity: Capacity::new(0.5, 0.5),
                    speed: 1.0,
                })
                .collect(),
        )
    }

    fn lazy_pool(n: usize) -> DevicePool {
        DevicePool::lazy(CapacityModel::default(), 42, n)
    }

    #[test]
    fn sessions_only_extend() {
        let mut p = pool(2);
        p.begin_session(0, 1_000);
        p.begin_session(0, 500);
        assert_eq!(p.session_end(0), 1_000);
        p.begin_session(0, 2_000);
        assert_eq!(p.session_end(0), 2_000);
    }

    #[test]
    fn check_in_requires_online_and_idle() {
        let mut p = pool(1);
        assert!(!p.can_check_in(0, 0), "offline device cannot poll");
        p.begin_session(0, 10_000);
        assert!(p.can_check_in(0, 5_000));
        assert!(!p.can_check_in(0, 10_000), "session over");
        p.set_role(0, Role::Computing { failed: false });
        assert!(!p.can_check_in(0, 5_000), "busy device cannot poll");
        p.set_role(0, Role::Idle);
        assert!(p.can_check_in(0, 5_000));
    }

    #[test]
    fn daily_cap_blocks_second_task() {
        let mut p = pool(1);
        p.begin_session(0, 2 * DAY_MS);
        p.note_task(0, 1_000);
        assert!(!p.can_check_in(0, 2_000), "cap applies same day");
        assert!(p.can_check_in(0, DAY_MS + 1), "next day resets cap");
    }

    #[test]
    fn hold_generations_guard_stale_expiries() {
        let mut p = pool(1);
        p.begin_session(0, 10_000);
        let g1 = p.mark_held(0, 3, 0);
        assert!(p.hold_is_current(0, g1));
        p.set_role(0, Role::Idle);
        assert!(!p.hold_is_current(0, g1), "released hold is stale");
        let g2 = p.mark_held(0, 3, 1);
        assert_ne!(g1, g2);
        assert!(!p.hold_is_current(0, g1), "old generation must not match");
        assert!(p.hold_is_current(0, g2));
        p.set_role(0, Role::Computing { failed: false });
        assert!(!p.hold_is_current(0, g2), "computing devices are not held");
    }

    #[test]
    fn force_offline_shrinks_session_and_flags_tasks() {
        let mut p = pool(1);
        p.begin_session(0, 10_000);
        p.cut_session(0, 4_000);
        assert_eq!(p.session_end(0), 4_000);
        assert!(!p.can_check_in(0, 5_000), "forced offline at 4000");
        // A later session start extends again (only-extend vs the new end).
        p.begin_session(0, 8_000);
        assert_eq!(p.session_end(0), 8_000);
        p.set_role(0, Role::Computing { failed: false });
        let was = p.set_role(0, Role::Computing { failed: true });
        assert_eq!(was, Role::Computing { failed: false });
        assert_eq!(p.role(0), Some(Role::Computing { failed: true }));
    }

    #[test]
    fn info_exposes_identity_and_capacity() {
        let p = pool(3);
        let info = p.info(2);
        assert_eq!(info.id().as_u64(), 2);
        assert_eq!(*info.capacity(), p.get(2).profile.capacity);
    }

    #[test]
    fn lazy_pool_materializes_on_first_session() {
        let mut p = lazy_pool(100);
        assert_eq!(p.live_devices(), 0);
        assert_eq!(p.len(), 100);
        assert_eq!(p.session_end(7), 0, "absent device reads as offline");
        assert!(!p.can_check_in(7, 0));
        assert!(!p.hold_is_current(7, 1));
        p.begin_session(7, 10_000);
        assert_eq!(p.live_devices(), 1);
        assert!(p.can_check_in(7, 5_000));
        assert_eq!(p.info(7).id().as_u64(), 7);
    }

    #[test]
    fn lazy_profiles_are_touch_order_independent() {
        let mut a = lazy_pool(50);
        let mut b = lazy_pool(50);
        // Touch in opposite orders; profiles must match exactly.
        for d in 0..50 {
            a.begin_session(d, 1_000);
        }
        for d in (0..50).rev() {
            b.begin_session(d, 1_000);
        }
        for d in 0..50 {
            assert_eq!(a.get(d).profile, b.get(d).profile, "device {d}");
        }
        // And match the dense split arm.
        let dense = DevicePool::new(
            (0..50)
                .map(|d| CapacityModel::default().sample_device(42, d))
                .collect(),
        );
        for d in 0..50 {
            assert_eq!(a.get(d).profile, dense.get(d).profile, "device {d}");
        }
    }

    #[test]
    fn retire_frees_the_slot_and_preserves_durables() {
        let mut p = lazy_pool(10);
        p.begin_session(3, 5_000);
        p.note_task(3, 1_000);
        let g = p.mark_held(3, 0, 0);
        p.set_role(3, Role::Idle);
        // Idle past session end: the note retires it immediately.
        p.note_possible_retire(3, 6_000);
        assert_eq!(p.live_devices(), 0);
        assert_eq!(p.session_end(3), 0);
        assert!(!p.hold_is_current(3, g), "retired devices hold nothing");
        // Re-materialize: durable facts survive.
        p.begin_session(3, 90_000_000);
        assert_eq!(p.get(3).last_task_day, Some(0), "daily cap survives");
        assert!(!p.can_check_in(3, 10_000), "cap still applies today");
        assert!(p.can_check_in(3, DAY_MS + 1), "next day resets");
        let g2 = p.mark_held(3, 0, 0);
        assert!(g2 > g, "hold generations never restart");
    }

    #[test]
    fn sweep_retires_only_dormant_past_end_devices() {
        let mut p = lazy_pool(10);
        p.begin_session(0, 5_000);
        p.begin_session(1, 5_000);
        p.note_possible_retire(0, 1_000); // files a note at end 5_000
        p.note_possible_retire(1, 1_000);
        p.begin_session(1, 20_000); // session 1 extends past the note
        p.sweep_retire(4_999);
        assert_eq!(p.live_devices(), 2, "nothing due yet");
        p.sweep_retire(5_000);
        assert_eq!(p.live_devices(), 1, "device 0 retired at its end");
        assert_eq!(p.session_end(1), 20_000, "extended session survives");
        // Busy devices never retire, even past their end.
        p.set_role(1, Role::Computing { failed: false });
        p.note_possible_retire(1, 30_000);
        p.sweep_retire(30_000);
        assert_eq!(p.live_devices(), 1);
        // Released after the end: immediate retirement.
        p.set_role(1, Role::Idle);
        p.note_possible_retire(1, 30_000);
        assert_eq!(p.live_devices(), 0);
        assert_eq!(p.peak_live_devices(), 2);
    }

    /// Writes one dense device record with the given role words.
    fn device_words(busy: bool, held: bool, failed_task: bool) -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.u8(0);
        w.len_prefix(1);
        w.u64(10_000);
        w.bool(busy);
        w.option(&None::<u64>, |w, &day| w.u64(day));
        w.usize(0);
        w.bool(held);
        w.usize(0);
        w.u64(1);
        w.bool(failed_task);
        w.into_bytes()
    }

    #[test]
    fn decoder_rejects_role_less_device_words() {
        for (busy, held, failed) in [
            (false, true, false),
            (false, false, true),
            (true, true, true),
        ] {
            let bytes = device_words(busy, held, failed);
            let err = pool(1)
                .restore_state(&mut SnapReader::new(&bytes))
                .unwrap_err();
            assert!(
                matches!(&err, SnapError::Corrupt(m) if m.contains("name no role")),
                "busy={busy} held={held} failed={failed}: {err:?}"
            );
        }
        let mut p = pool(1);
        p.restore_state(&mut SnapReader::new(&device_words(true, false, true)))
            .expect("a failed task on a computing device is a role");
        assert_eq!(p.role(0), Some(Role::Computing { failed: true }));
    }

    #[test]
    fn lazy_restore_rejects_a_retire_note_out_of_population() {
        let mut w = SnapWriter::new();
        w.u8(1);
        w.len_prefix(0); // materialized devices
        w.len_prefix(0); // durable records
        w.len_prefix(1); // retire notes
        w.u64(5_000);
        w.u32(99);
        w.usize(0); // peak live
        let bytes = w.into_bytes();
        let mut p = lazy_pool(10);
        let err = p.restore_state(&mut SnapReader::new(&bytes)).unwrap_err();
        assert!(
            matches!(&err, SnapError::Corrupt(m) if m.contains("device 99 out of population 10")),
            "{err:?}"
        );
    }
}
