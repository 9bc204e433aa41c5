//! Synthetic trace generation for the Venn evaluation.
//!
//! The paper drives its event-driven simulation with three real data
//! sources none of which can ship with a reproduction:
//!
//! | Paper source | Generator here |
//! |---|---|
//! | FedScale client-availability trace (diurnal, Fig. 2a) | [`AvailabilityModel`] |
//! | AI-Benchmark device capacities (Fig. 2b / 8a) | [`CapacityModel`] |
//! | Production CL job demands (Fig. 8b) | [`JobDemandModel`] + [`Workload`] |
//!
//! Each generator is a calibrated synthetic equivalent: the scheduler only
//! observes check-in event streams, capacity distributions, and
//! (rounds, demand) marginals, so generators matched to the published
//! figures exercise the exact same code paths (see `DESIGN.md` for the
//! substitution argument).
//!
//! Everything samples from caller-provided [`rand::Rng`] state, and all the
//! classical distributions (normal, log-normal, exponential) are
//! implemented in [`dist`] on top of uniform draws — no extra dependencies.

mod availability;
mod capacity;
pub mod dist;
pub mod io;
mod jobs;
mod stream;
mod workload;

pub use availability::{AvailabilityModel, Session};
pub use capacity::{CapacityModel, DeviceProfile};
pub use jobs::{JobDemandModel, JobPlan};
pub use workload::{BiasKind, Workload, WorkloadKind};
