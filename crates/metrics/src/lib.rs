//! Streaming statistics, JCT accounting, and ASCII rendering for Venn
//! experiments.
//!
//! The Venn paper reports averages, percentile breakdowns, and speed-up
//! tables over job completion times (JCT). This crate provides the small,
//! dependency-free measurement substrate those reports are built on:
//!
//! * [`Samples`] — a sample buffer with exact percentiles.
//! * [`Histogram`] — fixed-width binning for distribution sketches.
//! * [`JctRecord`] / [`JctBreakdown`] — per-job completion-time accounting
//!   split into scheduling delay and response collection time (paper Fig. 1).
//! * [`Table`] and [`Series`] — plain-text renderers used by the bench
//!   binaries so every paper table/figure prints in the same shape the paper
//!   reports it.
//!
//! # Examples
//!
//! ```
//! use venn_metrics::Samples;
//!
//! let mut s = Samples::new();
//! for v in [4.0, 1.0, 3.0, 2.0] {
//!     s.push(v);
//! }
//! assert_eq!(s.mean(), 2.5);
//! assert_eq!(s.percentile(50.0), 2.5);
//! ```

pub mod alloc;
pub mod csv;
mod env;
mod frame;
mod histogram;
mod jct;
mod samples;
mod series;
mod table;
mod welford;

pub use env::EnvStats;
pub use frame::MetricsFrame;
pub use histogram::Histogram;
pub use jct::{JctBreakdown, JctRecord};
pub use samples::Samples;
pub use series::Series;
pub use table::Table;
