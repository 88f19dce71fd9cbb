//! Umbrella crate for the TCD reproduction.
//!
//! Re-exports the workspace's crates and provides the shared experiment
//! scenario builders ([`scenarios`]) used by the examples and the
//! integration tests, the paper's figures as one table ([`figures`], run by
//! `tcdsim fig`) and the plain-text reporting helpers ([`report`]) they
//! print with.

#![forbid(unsafe_code)]

pub use lossless_cc as cc;
pub use lossless_flowctl as flowctl;
pub use lossless_netsim as netsim;
pub use lossless_obs as obs;
pub use lossless_stats as stats;
pub use lossless_workloads as workloads;
pub use tcd_core as tcd;

pub mod figures;
pub mod harness;
pub mod lintspec;
pub mod obs_export;
pub mod report;
pub mod scenarios;
