//! Identifier newtypes for jobs, devices, and job groups.

use std::fmt;

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident, $prefix:literal) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
        pub struct $name(u64);

        impl $name {
            /// Creates an identifier from a raw integer.
            pub fn new(raw: u64) -> Self {
                $name(raw)
            }

            /// Returns the raw integer value.
            pub fn as_u64(&self) -> u64 {
                self.0
            }

            /// The id as a dense array index.
            pub fn index(&self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<u64> for $name {
            fn from(raw: u64) -> Self {
                $name(raw)
            }
        }

        impl From<$name> for u64 {
            fn from(id: $name) -> u64 {
                id.0
            }
        }
    };
}

id_type!(
    /// Identifier of one collaborative-learning job.
    JobId,
    "job-"
);
id_type!(
    /// Identifier of one edge device.
    DeviceId,
    "dev-"
);
id_type!(
    /// Identifier of one resource-homogeneous job group.
    GroupId,
    "grp-"
);

/// Schedulers keep job ids as `u32` (see [`PerJob`](crate::PerJob)).
impl From<u32> for JobId {
    fn from(raw: u32) -> Self {
        JobId(u64::from(raw))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn roundtrip_through_u64() {
        let id = JobId::new(42);
        assert_eq!(id.as_u64(), 42);
        assert_eq!(u64::from(id), 42);
        assert_eq!(JobId::from(42u64), id);
    }

    #[test]
    fn display_has_prefix() {
        assert_eq!(JobId::new(3).to_string(), "job-3");
        assert_eq!(DeviceId::new(7).to_string(), "dev-7");
        assert_eq!(GroupId::new(1).to_string(), "grp-1");
    }

    #[test]
    fn ids_are_hashable_and_ordered() {
        let mut set = HashSet::new();
        set.insert(DeviceId::new(1));
        set.insert(DeviceId::new(1));
        set.insert(DeviceId::new(2));
        assert_eq!(set.len(), 2);
        assert!(JobId::new(1) < JobId::new(2));
    }

    #[test]
    fn distinct_id_types_are_distinct() {
        // This is a compile-time property; the test documents intent.
        fn takes_job(_: JobId) {}
        takes_job(JobId::new(1));
    }
}
