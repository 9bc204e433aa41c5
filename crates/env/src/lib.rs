//! Deterministic environment dynamics for the simulation kernel.
//!
//! The paper's setting — heterogeneous edge devices shared across CL
//! jobs — is defined by *dynamics*: devices join and leave the
//! population, flash crowds surge online, whole cohorts drop off WiFi at
//! once, slow network tiers stretch response times, and participants
//! fail mid-round. This crate models those dynamics as data, compiled
//! once per run into an [`EnvRuntime`] the kernel consults; the kernel
//! (`venn-sim`) owns all state mutation, so the crate stays a leaf
//! dependency (only `venn-core` and the RNG shim).
//!
//! ## Determinism and RNG stream splitting
//!
//! Every environment component draws from its **own** RNG stream,
//! split off the simulation seed with a fixed salt
//! (`EnvStream`): churn, network-tier assignment, fault plans, and
//! mid-round drop decisions never share a generator with each other or
//! with the kernel's response-noise RNG. Two consequences, both load-
//! bearing:
//!
//! * **Per-seed reproducibility** — a scenario replays bit-for-bit for
//!   a given `(config, seed)`, however its components are combined.
//! * **Env-off parity** — with [`EnvConfig::off`] (the default) the
//!   environment makes *zero* draws and injects *zero* events, so the
//!   env-off arm is byte-identical to the kernel without this crate
//!   compiled in. `tests/env_parity.rs` pins that against the committed
//!   benchmark baseline.
//!
//! ## Components
//!
//! * **Churn** ([`EnvConfig::join_frac`], [`EnvConfig::leave_frac`],
//!   [`FlashCrowd`], [`MassOffline`]) — population drift via per-device
//!   active windows, surges of extra availability sessions, and
//!   correlated mass-offline disturbances.
//! * **Network tiers** ([`NetTier`]) — per-device classes that stretch
//!   response times and can drop a participant mid-round, feeding the
//!   kernel's existing quorum/abort machinery.
//! * **Fault plans** ([`DeviceFault`], [`AbortStorm`]) — scripted
//!   single-device failures and stochastic job abort/retry storms.
//!
//! [`EnvPreset`] names ready-made scenario mixes (`flash-crowd`,
//! `straggler-heavy`, `mass-dropout`, `chaos`) for the CLIs and sweep
//! harness.

mod config;
mod runtime;

pub use config::{AbortStorm, DeviceFault, EnvConfig, EnvPreset, FlashCrowd, MassOffline, NetTier};
pub use runtime::{Disturbance, EnvRuntime, EnvSession};
