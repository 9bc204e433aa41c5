//! Interning of [`ResourceSpec`]s into dense [`GroupId`]s.
//!
//! Jobs with equal device requirements form one *resource-homogeneous job
//! group* (paper §4.2). The scheduler used to discover that grouping with a
//! `HashMap<ResourceSpec, usize>`; the interner replaces it with a plain
//! append-only table — specs are capped at 128 (the region-mask width), so
//! a linear scan over two bit-compared `f64` pairs beats hashing and keeps
//! the submit path allocation-free once the group exists. The returned
//! [`GroupId`] doubles as the spec's bit position in every eligibility mask
//! and as the index into the scheduler's per-group vectors.

use crate::{GroupId, ResourceSpec};

/// Append-only [`ResourceSpec`] → [`GroupId`] interner.
///
/// Equal specs (bit-identical thresholds, the same equivalence
/// `ResourceSpec::eq` uses) always intern to the same id; `resolve` is the
/// exact inverse.
///
/// # Examples
///
/// ```
/// use venn_core::{intern::SpecInterner, ResourceSpec};
///
/// let mut interner = SpecInterner::new();
/// let (a, new_a) = interner.intern(ResourceSpec::new(0.5, 0.5));
/// let (b, new_b) = interner.intern(ResourceSpec::new(0.5, 0.5));
/// assert_eq!(a, b);
/// assert!(new_a && !new_b);
/// assert_eq!(interner.resolve(a), ResourceSpec::new(0.5, 0.5));
/// ```
#[derive(Debug, Clone, Default)]
pub struct SpecInterner {
    specs: Vec<ResourceSpec>,
}

impl SpecInterner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        SpecInterner::default()
    }

    /// Interns `spec`, returning its group id and whether the group is new.
    pub fn intern(&mut self, spec: ResourceSpec) -> (GroupId, bool) {
        if let Some(g) = self.lookup(spec) {
            return (g, false);
        }
        let g = GroupId::new(self.specs.len() as u64);
        self.specs.push(spec);
        (g, true)
    }

    /// The id `spec` would intern to, if it already has one.
    pub fn lookup(&self, spec: ResourceSpec) -> Option<GroupId> {
        self.specs
            .iter()
            .position(|s| *s == spec)
            .map(|i| GroupId::new(i as u64))
    }

    /// The spec `group` was interned from.
    ///
    /// # Panics
    ///
    /// Panics if `group` was not issued by this interner.
    pub fn resolve(&self, group: GroupId) -> ResourceSpec {
        self.specs[group.index()]
    }

    /// All interned specs, in [`GroupId`] order (bit order of the masks).
    pub(crate) fn specs(&self) -> &[ResourceSpec] {
        &self.specs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_specs_share_an_id() {
        let mut i = SpecInterner::new();
        let (a, _) = i.intern(ResourceSpec::new(0.5, 0.0));
        let (b, _) = i.intern(ResourceSpec::new(0.25, 0.75));
        let (a2, new) = i.intern(ResourceSpec::new(0.5, 0.0));
        assert_eq!(a, a2);
        assert!(!new);
        assert_ne!(a, b);
        assert_eq!(i.specs.len(), 2);
    }

    #[test]
    fn resolve_inverts_intern() {
        let mut i = SpecInterner::new();
        let specs = [
            ResourceSpec::any(),
            ResourceSpec::new(0.5, 0.0),
            ResourceSpec::new(0.0, 0.5),
        ];
        for s in specs {
            let (g, _) = i.intern(s);
            assert_eq!(i.resolve(g), s);
            assert_eq!(i.lookup(s), Some(g));
        }
        assert_eq!(i.specs(), &specs);
    }

    #[test]
    fn ids_are_dense_in_first_seen_order() {
        let mut i = SpecInterner::new();
        assert!(i.specs.is_empty());
        let (g0, _) = i.intern(ResourceSpec::new(0.9, 0.9));
        let (g1, _) = i.intern(ResourceSpec::any());
        assert_eq!(g0.index(), 0);
        assert_eq!(g1.index(), 1);
    }

    #[test]
    fn negative_zero_interns_like_zero() {
        // ResourceSpec::new normalizes -0.0, so the interner never splits a
        // group on the sign of zero.
        let mut i = SpecInterner::new();
        let (a, _) = i.intern(ResourceSpec::new(0.5, 0.0));
        let (b, fresh) = i.intern(ResourceSpec::new(0.5, -0.0_f64 + 0.0));
        assert_eq!(a, b);
        assert!(!fresh);
    }

    #[test]
    fn unknown_spec_lookup_is_none() {
        let i = SpecInterner::new();
        assert_eq!(i.lookup(ResourceSpec::any()), None);
    }
}
