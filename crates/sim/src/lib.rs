//! Deterministic event-driven simulator for CL resource management.
//!
//! Reproduces the paper's evaluation harness (§5.1): devices with
//! heterogeneous capacities come online in diurnal availability sessions
//! and periodically check in; jobs submit per-round resource requests;
//! the [`Scheduler`] under test assigns each check-in; responses stream
//! back; a round succeeds when ≥ 80 % of the requested participants report
//! before its deadline (5–15 min depending on demand), otherwise it aborts
//! and retries. Job completion time (JCT) decomposes into scheduling delay
//! and response collection time exactly as in the paper's Fig. 1.
//!
//! Everything is driven off one seeded RNG and an event heap with total
//! ordering, so runs are bit-for-bit reproducible.
//!
//! # Examples
//!
//! ```
//! use rand::{rngs::StdRng, SeedableRng};
//! use venn_baselines::BaselineScheduler;
//! use venn_sim::{SimConfig, Simulation};
//! use venn_traces::Workload;
//!
//! let mut rng = StdRng::seed_from_u64(1);
//! let workload = Workload::default_scenario(5, &mut rng);
//! let config = SimConfig::small();
//! let mut sched = BaselineScheduler::fifo();
//! let result = Simulation::new(config).run(&workload, &mut sched);
//! assert_eq!(result.records.len(), 5);
//! println!("finished {} jobs", result.breakdown().finished());
//! ```

mod checkpoint;
mod cohort;
pub mod config;
mod device_pool;
mod engine;
mod event;
mod job_table;
mod lifecycle;
mod observer;
mod parked;
mod result;
mod snapshot;
mod world;

pub use checkpoint::{publish_checkpoint, CheckpointStore, CkptError, ResumeOutcome};
pub use config::{ExecMode, PopMode, SimConfig};
pub use device_pool::DevicePool;
pub use engine::Simulation;
pub use event::{Event, EventKind, EventQueue};
pub use job_table::{JobPhase, JobRuntime, JobTable};
pub use observer::{AssignmentLog, CompletionLog, EventTrace, RoundRecorder, SimObserver};
pub use parked::ParkedPolls;
pub use result::{RoundLog, SimResult};
pub use snapshot::{fork_world, resume_world, snapshot_world};
pub use venn_core::Scheduler;
pub use world::{SubmitError, World};
