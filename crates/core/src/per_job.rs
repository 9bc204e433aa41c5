//! Per-job scheduler state indexed directly by [`JobId`].
//!
//! Job ids are dense workload indices (`0..n`), so a job's id is its
//! index: both schedulers keep their per-job state in a [`PerJob`],
//! and their internal lists (group members, serving orders, the active
//! list) hold the raw `u32` id. Every lookup on the check-in/assign hot
//! path is one bounds-checked array access, with no second id space to
//! translate through.

use crate::snapshot::{SnapError, SnapReader, SnapWriter, Snapshot};
use crate::JobId;

/// Largest raw [`JobId`] (exclusive) a table accepts. Ids are table
/// offsets, so an id far outside the workload's range is a caller bug,
/// not sparse data; the bound also lets internal lists hold `u32` ids.
const MAX_DENSE_JOB_ID: u64 = 1 << 32;

/// Per-job state as a `Vec<Option<T>>` indexed by the job id.
///
/// # Examples
///
/// ```
/// use venn_core::{JobId, PerJob};
///
/// let mut t = PerJob::new();
/// *t.entry(JobId::new(2)) = Some("b");
/// assert_eq!(t.get(JobId::new(2)), Some(&"b"));
/// assert_eq!(t.get(JobId::new(1)), None); // below the largest id: vacant
/// assert_eq!(t.remove(JobId::new(2)), Some("b"));
/// assert_eq!(t.get(JobId::new(2)), None);
/// ```
#[derive(Debug, Clone)]
pub struct PerJob<T> {
    entries: Vec<Option<T>>,
}

impl<T> Default for PerJob<T> {
    fn default() -> Self {
        PerJob::new()
    }
}

impl<T> PerJob<T> {
    /// Creates an empty table.
    pub fn new() -> Self {
        PerJob {
            entries: Vec::new(),
        }
    }

    /// The state of `job`; `None` when it is vacant or beyond the table.
    pub fn get(&self, job: JobId) -> Option<&T> {
        self.entries.get(job.index())?.as_ref()
    }

    /// Write access to the state of `job`; `None` when it is vacant.
    pub fn get_mut(&mut self, job: JobId) -> Option<&mut T> {
        self.entries.get_mut(job.index())?.as_mut()
    }

    /// The cell of `job`, growing the table with vacant cells up to it.
    /// Past this call `job`'s raw id fits a `u32`.
    ///
    /// # Panics
    ///
    /// Panics if the raw id exceeds the dense-id bound.
    pub fn entry(&mut self, job: JobId) -> &mut Option<T> {
        let raw = job.as_u64();
        assert!(
            raw < MAX_DENSE_JOB_ID,
            "job id {raw} outside the dense id space"
        );
        let i = raw as usize;
        if i >= self.entries.len() {
            self.entries.resize_with(i + 1, || None);
        }
        &mut self.entries[i]
    }

    /// Vacates the cell of `job`, returning its state (`None` if vacant).
    pub fn remove(&mut self, job: JobId) -> Option<T> {
        self.entries.get_mut(job.index())?.take()
    }

    /// Occupied cells as `(id, state)`, in id order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &T)> {
        (0u32..)
            .zip(&self.entries)
            .filter_map(|(id, e)| Some((id, e.as_ref()?)))
    }
}

impl<T: Snapshot> Snapshot for PerJob<T> {
    fn encode(&self, w: &mut SnapWriter) {
        w.seq(&self.entries, |w, e| w.option(e, |w, v| v.encode(w)));
    }

    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let entries = r.seq(|r| r.option(T::decode))?;
        if entries.len() as u64 > MAX_DENSE_JOB_ID {
            return Err(SnapError::Corrupt(
                "job table exceeds the dense id space".into(),
            ));
        }
        Ok(PerJob { entries })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut t = PerJob::new();
        *t.entry(JobId::new(0)) = Some(10);
        *t.entry(JobId::new(1)) = Some(20);
        assert_eq!(t.get(JobId::new(0)), Some(&10));
        assert_eq!(t.get(JobId::new(1)), Some(&20));
        assert_eq!(t.remove(JobId::new(0)), Some(10));
        assert_eq!(t.get(JobId::new(0)), None);
        assert_eq!(t.remove(JobId::new(0)), None, "double remove rejected");
        *t.get_mut(JobId::new(1)).unwrap() += 1;
        assert_eq!(t.get(JobId::new(1)), Some(&21));
    }

    #[test]
    fn iter_walks_live_entries_in_index_order() {
        let mut t = PerJob::new();
        for (id, v) in [(3, 'c'), (0, 'a'), (1, 'b')] {
            *t.entry(JobId::new(id)) = Some(v);
        }
        t.remove(JobId::new(1));
        assert_eq!(t.iter().collect::<Vec<_>>(), vec![(0, &'a'), (3, &'c')]);
    }

    #[test]
    fn unset_and_out_of_range_ids_miss() {
        let mut t = PerJob::new();
        *t.entry(JobId::new(3)) = Some(7);
        assert_eq!(t.get(JobId::new(2)), None, "vacant id below the largest");
        assert_eq!(t.get(JobId::new(1_000)), None, "beyond table");
        assert!(t.get_mut(JobId::new(u64::MAX)).is_none(), "absurd id");
        assert_eq!(t.remove(JobId::new(99)), None, "no-op beyond table");
        assert_eq!(t.entries.len(), 4, "lookups never grow the table");
    }

    #[test]
    #[should_panic(expected = "dense id space")]
    fn absurd_job_id_rejected() {
        PerJob::<()>::new().entry(JobId::new(u64::MAX));
    }

    #[derive(Debug, PartialEq)]
    struct V(u64);

    impl Snapshot for V {
        fn encode(&self, w: &mut SnapWriter) {
            w.u64(self.0);
        }

        fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
            Ok(V(r.u64()?))
        }
    }

    #[test]
    fn snapshot_keeps_vacant_cells() {
        let mut t = PerJob::new();
        *t.entry(JobId::new(2)) = Some(V(5));
        let mut w = SnapWriter::new();
        t.encode(&mut w);
        let bytes = w.into_bytes();
        let back = PerJob::<V>::decode(&mut SnapReader::new(&bytes)).unwrap();
        assert_eq!(back.iter().collect::<Vec<_>>(), vec![(2, &V(5))]);
        assert_eq!(back.entries.len(), 3);
    }
}
