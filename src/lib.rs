//! Facade crate re-exporting the whole Venn workspace under one name.
//!
//! The reproduction is split into nine focused crates (see
//! `ARCHITECTURE.md` at the repository root for the full map):
//!
//! * [`core`] — the `Scheduler` trait, the incremental `VennScheduler`,
//!   IRS (Algorithm 1), tier matching (Algorithm 2), supply estimation,
//!   and the fairness knob;
//! * [`sim`] — the deterministic event-driven `World` simulator with
//!   pluggable `SimObserver`s;
//! * [`mod@env`] — deterministic environment dynamics: churn, flash crowds,
//!   straggler/network tiers, and fault-injection plans on split RNG
//!   streams;
//! * [`traces`] — synthetic availability / capacity / workload models
//!   calibrated to the paper's figures;
//! * [`baselines`] — the Random / FIFO / SRSF reference schedulers;
//! * [`metrics`] — streaming statistics, JCT accounting, tables, CSV;
//! * [`fl`] — a minimal FedAvg stack for the accuracy experiments;
//! * [`opt`] — an exact solver validating IRS on small instances;
//! * [`serve`] — the online control plane: line-delimited JSON command
//!   protocol, virtual/real time decoupled driver, session journal with
//!   byte-identical replay, and snapshot-fork what-if runs;
//! * [`mod@bench`] — the experiment harness and sweep executor behind
//!   the `reproduce` binary's paper figures and tables.
//!
//! Root integration tests (and any downstream user who wants a single
//! dependency) import everything through this crate:
//!
//! ```
//! use rand::SeedableRng;
//! use venn::baselines::BaselineScheduler;
//! use venn::sim::{SimConfig, Simulation};
//! use venn::traces::Workload;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let workload = Workload::default_scenario(3, &mut rng);
//! let mut sched = BaselineScheduler::fifo();
//! let result = Simulation::new(SimConfig::small()).run(&workload, &mut sched);
//! assert_eq!(result.records.len(), 3);
//! ```
pub use venn_baselines as baselines;
pub use venn_bench as bench;
pub use venn_core as core;
pub use venn_env as env;
pub use venn_fl as fl;
pub use venn_metrics as metrics;
pub use venn_opt as opt;
pub use venn_serve as serve;
pub use venn_sim as sim;
pub use venn_traces as traces;
