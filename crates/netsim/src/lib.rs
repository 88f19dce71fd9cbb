//! `lossless-netsim` — a deterministic, packet-level, discrete-event
//! simulator for lossless networks.
//!
//! This is the substrate on which the TCD paper's experiments run. It
//! models:
//!
//! * **CEE mode**: shared-buffer Ethernet switches with per-ingress PFC
//!   accounting (the architecture of the ns-3 RDMA simulator the paper
//!   builds on) — see [`switch`];
//! * **InfiniBand mode**: input-buffered virtual-output-queue switches with
//!   per-VL credit-based flow control and periodic FCCL credit updates —
//!   see [`ibswitch`];
//! * **hosts** with per-flow rate-paced NICs, receiver-side feedback
//!   generation (CNP / per-packet ACK / BECN) and pluggable end-to-end
//!   congestion controllers — see [`host`] and the [`cchooks`] traits;
//! * congestion detectors ([`tcd_core::CongestionDetector`]) attached to
//!   every egress (port, priority/VL) pair — TCD or the binary baselines.
//!
//! The engine ([`sim`]) is single-threaded and totally deterministic:
//! events are ordered by `(time, sequence)`, time is integer picoseconds,
//! and all randomness comes from seeded generators. Two runs with the same
//! configuration produce bit-identical traces, which the test suite relies
//! on. (A discrete-event simulator is pure CPU-bound computation, so per
//! the async-Rust guidance there is deliberately no async runtime here.)

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(
    clippy::indexing_slicing,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::allow_attributes_without_reason
)]

#[cfg(feature = "audit")]
pub mod audit;
pub mod cchooks;
pub mod config;
pub mod event;
pub mod fault;
pub mod host;
pub mod ibswitch;
pub mod packet;
pub mod routing;
pub mod sim;
pub mod switch;
pub mod topology;
pub mod trace;

#[cfg(feature = "audit")]
pub use audit::{Audit, AuditConfig, AuditMode, InvariantFamily, Violation};
pub use cchooks::{CcAction, CcEvent, RateController};
pub use config::{DetectorKind, FeedbackMode, SimConfig};
pub use fault::{FaultEvent, FaultKind, FaultPlan, LinkState};
pub use packet::{FlowId, Packet, PacketKind};
pub use sim::Simulator;
pub use topology::{NodeId, NodeKind, Topology};

// Re-export base quantities for downstream convenience.
pub use lossless_flowctl::{Rate, SimDuration, SimTime};
pub use tcd_core::{CodePoint, TernaryState};
