//! Dense, generation-checked storage for per-job scheduler state.
//!
//! The scheduler data plane is index-addressed, not hash-addressed: job
//! state lives in a [`SlotMap`] (a `Vec` with a free list), internal
//! references are [`JobSlot`]s (array index + generation), and the only
//! translation from the external [`JobId`] space happens at the trait
//! boundary through a [`JobIdIndex`] — a direct-indexed table, so even that
//! translation never hashes. Every lookup on the check-in/assign hot path
//! is therefore one bounds-checked array access plus a generation compare.
//!
//! Generations make stale references safe: removing an entry bumps its
//! slot's generation, so a [`JobSlot`] captured before the removal misses
//! on every subsequent access instead of silently aliasing whatever job
//! reused the slot (pinned by the slot-reuse property tests).

use std::fmt;

use crate::snapshot::{SnapError, SnapReader, SnapWriter, Snapshot};
use crate::JobId;

/// Reference to one live entry of a [`SlotMap`]: array index + generation.
///
/// A slot is only as valid as its generation: once the entry is removed,
/// the generation advances and the old slot dangles harmlessly (`get`
/// returns `None`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobSlot {
    index: u32,
    generation: u32,
}

impl JobSlot {
    /// Sentinel for "no slot" — never returned by [`SlotMap::insert`].
    pub(crate) const NULL: JobSlot = JobSlot {
        index: u32::MAX,
        generation: u32::MAX,
    };

    /// Raw array index (meaningful only together with the generation).
    pub fn index(&self) -> usize {
        self.index as usize
    }

    /// Whether this is the [`NULL`](Self::NULL) sentinel.
    pub(crate) fn is_null(&self) -> bool {
        *self == JobSlot::NULL
    }
}

impl Default for JobSlot {
    fn default() -> Self {
        JobSlot::NULL
    }
}

impl fmt::Display for JobSlot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "slot-{}@{}", self.index, self.generation)
    }
}

#[derive(Debug, Clone)]
enum Entry<T> {
    /// Live entry.
    Occupied(T),
    /// Free entry; holds the next free index (`u32::MAX` terminates).
    Vacant(u32),
}

/// A dense map keyed by [`JobSlot`]s: `Vec` storage, free-list reuse,
/// generation-checked access.
///
/// # Examples
///
/// ```
/// use venn_core::slotmap::SlotMap;
///
/// let mut m = SlotMap::new();
/// let a = m.insert("a");
/// assert_eq!(m.get(a), Some(&"a"));
/// m.remove(a);
/// let b = m.insert("b"); // reuses the slot...
/// assert_eq!(b.index(), a.index());
/// assert_eq!(m.get(a), None); // ...but the stale handle is rejected
/// assert_eq!(m.get(b), Some(&"b"));
/// ```
#[derive(Debug, Clone)]
pub struct SlotMap<T> {
    entries: Vec<Entry<T>>,
    generations: Vec<u32>,
    free_head: u32,
    len: usize,
}

impl<T> Default for SlotMap<T> {
    fn default() -> Self {
        SlotMap::new()
    }
}

impl<T> SlotMap<T> {
    /// Creates an empty map.
    pub fn new() -> Self {
        SlotMap {
            entries: Vec::new(),
            generations: Vec::new(),
            free_head: u32::MAX,
            len: 0,
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no entry is live.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts `value`, reusing a freed slot when one exists.
    ///
    /// # Panics
    ///
    /// Panics past `u32::MAX - 1` simultaneous entries.
    pub fn insert(&mut self, value: T) -> JobSlot {
        self.len += 1;
        if self.free_head != u32::MAX {
            let index = self.free_head;
            match self.entries[index as usize] {
                Entry::Vacant(next) => self.free_head = next,
                Entry::Occupied(_) => unreachable!("free list points at a live entry"),
            }
            self.entries[index as usize] = Entry::Occupied(value);
            return JobSlot {
                index,
                generation: self.generations[index as usize],
            };
        }
        let index = u32::try_from(self.entries.len()).expect("slot map exceeds u32 indices");
        assert!(index != u32::MAX, "slot map exceeds u32 indices");
        self.entries.push(Entry::Occupied(value));
        self.generations.push(0);
        JobSlot {
            index,
            generation: 0,
        }
    }

    /// Removes the entry at `slot`, returning it; `None` if the slot is
    /// stale or vacant. The slot's generation advances so outstanding
    /// copies of `slot` are rejected from now on.
    pub fn remove(&mut self, slot: JobSlot) -> Option<T> {
        let i = slot.index as usize;
        if i >= self.entries.len()
            || self.generations[i] != slot.generation
            || matches!(self.entries[i], Entry::Vacant(_))
        {
            return None;
        }
        let entry = std::mem::replace(&mut self.entries[i], Entry::Vacant(self.free_head));
        self.free_head = slot.index;
        self.generations[i] = self.generations[i].wrapping_add(1);
        self.len -= 1;
        match entry {
            Entry::Occupied(v) => Some(v),
            Entry::Vacant(_) => unreachable!("vacancy checked above"),
        }
    }

    /// Read access; `None` when the slot is stale or vacant.
    pub fn get(&self, slot: JobSlot) -> Option<&T> {
        match self.entries.get(slot.index as usize) {
            Some(Entry::Occupied(v))
                if self.generations[slot.index as usize] == slot.generation =>
            {
                Some(v)
            }
            _ => None,
        }
    }

    /// Write access; `None` when the slot is stale or vacant.
    pub fn get_mut(&mut self, slot: JobSlot) -> Option<&mut T> {
        match self.entries.get_mut(slot.index as usize) {
            Some(Entry::Occupied(v))
                if self.generations[slot.index as usize] == slot.generation =>
            {
                Some(v)
            }
            _ => None,
        }
    }

    /// Whether `slot` refers to a live entry.
    pub fn contains(&self, slot: JobSlot) -> bool {
        self.get(slot).is_some()
    }

    /// Live values in slot-index order.
    pub(crate) fn values(&self) -> impl Iterator<Item = &T> {
        self.entries.iter().filter_map(|e| match e {
            Entry::Occupied(v) => Some(v),
            Entry::Vacant(_) => None,
        })
    }
}

/// Direct-indexed translation table from the external dense [`JobId`]
/// space to [`JobSlot`]s — the hash-free boundary between the `Scheduler`
/// trait (keyed by `JobId`) and the slot-addressed data plane.
///
/// The table grows to the largest raw id seen, so it assumes ids are
/// *dense* (the simulator numbers jobs `0..n`); a guard rejects ids that
/// would make the table degenerate.
#[derive(Debug, Clone, Default)]
pub struct JobIdIndex {
    slots: Vec<JobSlot>,
}

/// Largest raw [`JobId`] the dense index accepts. Ids are table offsets, so
/// an id far outside the workload's range is a caller bug, not sparse data.
const MAX_DENSE_JOB_ID: u64 = 1 << 32;

impl JobIdIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        JobIdIndex::default()
    }

    /// The slot registered for `job`, if any.
    pub fn get(&self, job: JobId) -> Option<JobSlot> {
        match self.slots.get(job.as_u64() as usize) {
            Some(&slot) if !slot.is_null() => Some(slot),
            _ => None,
        }
    }

    /// Registers `slot` for `job`, growing the table as needed.
    ///
    /// # Panics
    ///
    /// Panics if the raw id exceeds the dense-id bound.
    pub fn set(&mut self, job: JobId, slot: JobSlot) {
        let raw = job.as_u64();
        assert!(
            raw < MAX_DENSE_JOB_ID,
            "job id {raw} outside the dense id space"
        );
        let i = raw as usize;
        if i >= self.slots.len() {
            self.slots.resize(i + 1, JobSlot::NULL);
        }
        self.slots[i] = slot;
    }

    /// Every registered slot, in job-id order.
    pub(crate) fn slots(&self) -> impl Iterator<Item = JobSlot> + '_ {
        self.slots.iter().copied().filter(|s| !s.is_null())
    }

    /// Unregisters `job` (no-op if absent).
    pub fn clear(&mut self, job: JobId) {
        if let Some(s) = self.slots.get_mut(job.as_u64() as usize) {
            *s = JobSlot::NULL;
        }
    }
}

impl Snapshot for JobSlot {
    fn encode(&self, w: &mut SnapWriter) {
        w.u32(self.index);
        w.u32(self.generation);
    }

    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(JobSlot {
            index: r.u32()?,
            generation: r.u32()?,
        })
    }
}

/// The snapshot preserves the *exact* internal layout — entry order,
/// free-list chain, generations — not just the live values, because
/// outstanding [`JobSlot`] handles elsewhere in a snapshot are raw
/// `(index, generation)` pairs and must keep resolving identically, and
/// future `insert`s must reuse slots in the same LIFO order.
impl<T: Snapshot> Snapshot for SlotMap<T> {
    fn encode(&self, w: &mut SnapWriter) {
        w.len_prefix(self.entries.len());
        for e in &self.entries {
            match e {
                Entry::Occupied(v) => {
                    w.u8(1);
                    v.encode(w);
                }
                Entry::Vacant(next) => {
                    w.u8(0);
                    w.u32(*next);
                }
            }
        }
        w.seq(&self.generations, |w, &g| w.u32(g));
        w.u32(self.free_head);
        w.usize(self.len);
    }

    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let n = r.len_prefix()?;
        let mut entries = Vec::with_capacity(n);
        for _ in 0..n {
            entries.push(match r.u8()? {
                1 => Entry::Occupied(T::decode(r)?),
                0 => Entry::Vacant(r.u32()?),
                tag => return Err(SnapError::Corrupt(format!("slot entry tag {tag}"))),
            });
        }
        let generations = r.seq(|r| r.u32())?;
        if generations.len() != entries.len() {
            return Err(SnapError::Corrupt(
                "slot map generations/entries length mismatch".into(),
            ));
        }
        let free_head = r.u32()?;
        let len = r.usize()?;
        if len > entries.len() {
            return Err(SnapError::Corrupt("slot map live count too large".into()));
        }
        Ok(SlotMap {
            entries,
            generations,
            free_head,
            len,
        })
    }
}

impl Snapshot for JobIdIndex {
    fn encode(&self, w: &mut SnapWriter) {
        w.seq(&self.slots, |w, s| s.encode(w));
    }

    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(JobIdIndex {
            slots: r.seq(JobSlot::decode)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut m = SlotMap::new();
        let a = m.insert(10);
        let b = m.insert(20);
        assert_eq!(m.len(), 2);
        assert_eq!(m.get(a), Some(&10));
        assert_eq!(m.get(b), Some(&20));
        assert_eq!(m.remove(a), Some(10));
        assert_eq!(m.len(), 1);
        assert_eq!(m.get(a), None);
        assert_eq!(m.remove(a), None, "double remove rejected");
    }

    #[test]
    fn freed_slots_are_reused_with_fresh_generation() {
        let mut m = SlotMap::new();
        let a = m.insert("a");
        let b = m.insert("b");
        m.remove(a);
        m.remove(b);
        // LIFO free list: b's index comes back first.
        let c = m.insert("c");
        assert_eq!(c.index(), b.index());
        assert_ne!(c.generation, b.generation);
        let d = m.insert("d");
        assert_eq!(d.index(), a.index());
        assert_eq!(m.entries.len(), 2, "no new storage grown");
        // Stale handles miss; fresh ones hit.
        assert_eq!(m.get(a), None);
        assert_eq!(m.get(b), None);
        assert!(m.get_mut(a).is_none());
        assert_eq!(m.get(c), Some(&"c"));
        assert_eq!(m.get(d), Some(&"d"));
    }

    #[test]
    fn iter_walks_live_entries_in_index_order() {
        let mut m = SlotMap::new();
        let a = m.insert(1);
        let b = m.insert(2);
        let c = m.insert(3);
        m.remove(b);
        assert_eq!(m.values().copied().collect::<Vec<_>>(), vec![1, 3]);
        assert!(m.contains(a) && !m.contains(b) && m.contains(c));
    }

    #[test]
    fn null_slot_never_resolves() {
        let mut m = SlotMap::<i32>::new();
        m.insert(1);
        assert_eq!(m.get(JobSlot::NULL), None);
        assert!(JobSlot::NULL.is_null());
        assert_eq!(JobSlot::default(), JobSlot::NULL);
    }

    #[test]
    fn job_index_translates_and_clears() {
        let mut m = SlotMap::new();
        let mut idx = JobIdIndex::new();
        let s = m.insert(7);
        idx.set(JobId::new(3), s);
        assert_eq!(idx.get(JobId::new(3)), Some(s));
        assert_eq!(idx.get(JobId::new(4)), None, "unset id");
        assert_eq!(idx.get(JobId::new(1_000)), None, "beyond table");
        idx.clear(JobId::new(3));
        assert_eq!(idx.get(JobId::new(3)), None);
        idx.clear(JobId::new(99)); // no-op beyond table
    }

    #[test]
    #[should_panic(expected = "dense id space")]
    fn absurd_job_id_rejected() {
        let mut idx = JobIdIndex::new();
        idx.set(JobId::new(u64::MAX), JobSlot::NULL);
    }

    #[test]
    fn display_shows_index_and_generation() {
        let mut m = SlotMap::new();
        let a = m.insert(());
        assert_eq!(a.to_string(), "slot-0@0");
    }
}
