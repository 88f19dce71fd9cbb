//! Hop-by-hop flow control for lossless networks.
//!
//! This crate implements the two flow controls that make mainstream lossless
//! networks lossless:
//!
//! * **PFC** (Priority Flow Control, IEEE 802.1Qbb) used by Converged
//!   Enhanced Ethernet — see [`pfc`].
//! * **CBFC** (Credit-Based Flow Control) used by InfiniBand — see [`cbfc`].
//!
//! Both are pure state machines: they own no clocks, sockets or queues.
//! A switch model (e.g. `lossless-netsim`) feeds them enqueue/dequeue and
//! frame/credit events and acts on the commands they return. This makes every
//! protocol rule unit-testable in isolation.
//!
//! The crate also hosts the base quantities shared by the whole workspace:
//! simulated [`time`] (integer picoseconds) and link [`units`] (rates and
//! exact serialization arithmetic), plus the [`onoff`] tracker that observes
//! the ON–OFF sending pattern both flow controls induce — the observable that
//! Ternary Congestion Detection (the `tcd-core` crate) is built on.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(
    clippy::indexing_slicing,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::allow_attributes_without_reason
)]

pub mod cbfc;
pub mod onoff;
pub mod pfc;
pub mod time;
pub mod units;

pub use onoff::OnOffTracker;
pub use time::{SimDuration, SimTime};
pub use units::Rate;
