//! `simlint` — static topology and fault-plan analysis for lossless
//! fabrics, before a single event is scheduled.
//!
//! * [`topolint`] builds the directed buffer-dependency graph from
//!   routing tables and reports potential PFC/CBFC deadlock cycles (à la
//!   DCFIT), unreachable host pairs, routing asymmetries and
//!   under-provisioned PFC headroom. Fault plans are analyzed too: every
//!   registered `RouteChange` set is composed onto the baseline tables and
//!   run through the same cycle finder, so a route swap that wedges the
//!   fabric is a *static* error, cross-checked against the runtime
//!   PFC-deadlock watchdog.
//! * [`output`] renders the reports as the one-line JSON of
//!   `tcdsim lint --json`.
//!
//! The runtime audit layer catches these properties *while simulating*;
//! `simlint` moves the same guarantees left, wired into `scripts/ci.sh`
//! via `tcdsim lint`. Source-level policy (determinism, panic-freedom)
//! is the toolchain's job — `clippy.toml` and the crate-root lint lines;
//! see README "Static analysis".

#![forbid(unsafe_code)]

pub mod output;
pub mod topolint;

pub use output::json_report;
pub use topolint::{analyze, Severity, TopoDiag, TopoReport, TopoSpec, DEFAULT_PFC_HEADROOM_BYTES};
