//! Online control plane for the Venn simulator: `vennsim serve`.
//!
//! A batch run answers one question per process; this crate turns the
//! same deterministic kernel into a long-lived **session** that accepts
//! line-delimited JSON commands while the world runs:
//!
//! ```text
//! {"cmd":"submit","category":"general","rounds":4,"demand":50,"task_ms":60000}
//! {"cmd":"advance","ms":3600000}
//! {"cmd":"stats"}
//! {"cmd":"fork","scheduler":"srsf"}
//! {"cmd":"quit"}
//! ```
//!
//! The pieces:
//!
//! * [`json`] — a dependency-free JSON value model with a canonical
//!   compact writer (the protocol's wire format);
//! * [`Command`] / [`CmdError`] — the command grammar, typed error codes,
//!   and the canonical journal form (a serialization fixed point, which is
//!   what makes journal replay byte-identical);
//! * [`ServeSession`] — one world plus its scheduler,
//!   mutated mid-run by submit/withdraw, streaming [`venn_metrics::MetricsFrame`]
//!   telemetry, checkpointing via the snapshot layer, and answering
//!   what-if questions by forking the live state under a different
//!   scheduler arm;
//! * [`run_lines`] / [`replay`] / [`serve`] — commands from any line
//!   source, a recovered journal, and the scripted / wall-clock-paced
//!   stdin and TCP input loops; the last two end every session the same
//!   way (journal seal, final checkpoint).
//!
//! Virtual time is decoupled from real time throughout: scripted
//! sessions advance only on explicit `advance` commands and are fully
//! deterministic; paced sessions journal their synthesized advances so
//! the recording replays deterministically anyway.

mod driver;
pub mod json;
mod protocol;
mod session;
mod wal;

pub use driver::{replay, run_lines, serve, OutQueue, ServeOpts};
pub use protocol::{CmdError, Command};
pub use session::{result_csv, LineOutcome, SchedSpec, ServeSession};
pub use wal::{
    recover_journal, shared_fs, JournalError, Recovered, SharedFs, SyncPolicy, TornTail, WalWriter,
};
