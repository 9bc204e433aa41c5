//! Core of the Venn collaborative-learning (CL) resource manager.
//!
//! Venn (MLSys 2025) schedules ephemeral, heterogeneous edge devices among
//! many concurrent CL jobs to minimize the average job completion time
//! (JCT). This crate implements the paper's two contributions from scratch:
//!
//! * **Intersection Resource Scheduling (IRS)** — [`irs`] implements
//!   Algorithm 1: jobs are grouped into *resource-homogeneous job groups*
//!   (same device requirement), ordered within a group by smallest remaining
//!   demand, and the groups' overlapping eligible-device sets are allocated
//!   by a scarcity-first pass followed by a greedy queue-ratio reallocation.
//! * **Resource-aware device matching** — [`matching`] implements
//!   Algorithm 2: a served job's eligible devices are partitioned into `V`
//!   capacity tiers and the job is restricted to one randomly rotating tier
//!   whenever the projected JCT improves (`1 + c > V + c·g_u`).
//!
//! The two pieces are composed by [`VennScheduler`], which implements the
//! same [`Scheduler`] trait as the baselines (Random / FIFO / SRSF in the
//! `venn-baselines` crate), so the event-driven simulator in `venn-sim` can
//! drive any of them interchangeably.
//!
//! # Examples
//!
//! ```
//! use venn_core::{
//!     Capacity, DeviceInfo, DeviceId, JobId, Request, ResourceSpec, Scheduler,
//!     VennConfig, VennScheduler,
//! };
//!
//! let mut sched = VennScheduler::new(VennConfig::default());
//! sched.submit(
//!     Request::new(JobId::new(1), ResourceSpec::any(), 2, 10),
//!     0,
//! );
//! let device = DeviceInfo::new(DeviceId::new(7), Capacity::new(0.9, 0.9));
//! sched.on_check_in(&device, 5);
//! assert_eq!(sched.assign(&device, 5), Some(JobId::new(1)));
//! ```

mod config;
mod device;
pub mod fairness;
pub mod faultio;
mod ids;
pub mod irs;
pub mod matching;
mod per_job;
mod request;
mod resource;
mod scheduler;
pub mod snapshot;
pub mod supply;
mod venn;

pub use config::VennConfig;
pub use device::DeviceInfo;
pub use faultio::{FaultFs, MemFs, RealFs, SimFs};
pub use ids::{DeviceId, GroupId, JobId};
pub use per_job::PerJob;
pub use request::Request;
pub use resource::{Capacity, CategoryThresholds, ResourceSpec, SpecCategory};
pub use scheduler::{CheckInRecord, Scheduler};
pub use snapshot::{SnapError, SnapReader, SnapWriter, Snapshot};
pub use supply::SupplyEstimator;
pub use venn::{MatchingStats, VennScheduler};

/// Simulated time in milliseconds since the start of a run.
///
/// Integer milliseconds keep event ordering total and runs reproducible.
pub type SimTime = u64;

/// One simulated day in milliseconds.
pub const DAY_MS: SimTime = 24 * 60 * 60 * 1000;

/// One simulated hour in milliseconds.
pub const HOUR_MS: SimTime = 60 * 60 * 1000;

/// One simulated minute in milliseconds.
pub const MINUTE_MS: SimTime = 60 * 1000;

/// Spec interning: a job's [`ResourceSpec`] names its resource-homogeneous
/// group (paper §4.2), and the group id is the spec's bit in the supply
/// estimator's registry. `VennScheduler::group_index` looks a spec up there
/// and registers it on first sight; these tests pin that contract.
#[cfg(test)]
mod intern {
    mod tests {
        use crate::{ResourceSpec, SupplyEstimator, VennConfig, VennScheduler};

        fn scheduler() -> VennScheduler {
            VennScheduler::new(VennConfig::default())
        }

        #[test]
        fn equal_specs_share_an_id() {
            let mut s = scheduler();
            let a = s.group_index(ResourceSpec::new(0.5, 0.0));
            let b = s.group_index(ResourceSpec::new(0.25, 0.75));
            let a2 = s.group_index(ResourceSpec::new(0.5, 0.0));
            assert_eq!(a, a2);
            assert_ne!(a, b);
            // Only two specs were registered: the next new one gets bit 2.
            assert_eq!(s.group_index(ResourceSpec::any()).index(), 2);
        }

        #[test]
        fn resolve_inverts_intern() {
            let mut e = SupplyEstimator::new(1_000);
            let specs = [
                ResourceSpec::any(),
                ResourceSpec::new(0.5, 0.0),
                ResourceSpec::new(0.0, 0.5),
            ];
            for spec in specs {
                let j = e.register_spec(spec);
                assert_eq!(e.specs()[j], spec);
                assert_eq!(e.lookup_spec(spec), Some(j));
            }
            assert_eq!(e.specs(), &specs);
        }

        #[test]
        fn ids_are_dense_in_first_seen_order() {
            let mut s = scheduler();
            let g0 = s.group_index(ResourceSpec::new(0.9, 0.9));
            let g1 = s.group_index(ResourceSpec::any());
            assert_eq!(g0.index(), 0);
            assert_eq!(g1.index(), 1);
        }

        #[test]
        fn negative_zero_interns_like_zero() {
            // ResourceSpec::new normalizes -0.0, so the sign of zero never
            // splits a group.
            let mut s = scheduler();
            let a = s.group_index(ResourceSpec::new(0.5, 0.0));
            let b = s.group_index(ResourceSpec::new(0.5, -0.0));
            assert_eq!(a, b);
            assert_eq!(s.group_index(ResourceSpec::any()).index(), 1);
        }

        #[test]
        fn unknown_spec_lookup_is_none() {
            let mut e = SupplyEstimator::new(1_000);
            assert_eq!(e.lookup_spec(ResourceSpec::any()), None);
            e.register_spec(ResourceSpec::new(0.5, 0.0));
            assert_eq!(e.lookup_spec(ResourceSpec::any()), None);
        }
    }
}
