//! Ternary Congestion Detection (TCD) — the primary contribution of
//! *"Congestion Detection in Lossless Networks"* (SIGCOMM 2021).
//!
//! In a lossless network, hop-by-hop flow control (PFC in Converged Enhanced
//! Ethernet, credit-based flow control in InfiniBand) makes switch egress
//! ports alternate between sending (ON) and pausing (OFF). This breaks the
//! classic "queue buildup ⇒ congestion" inference twice over:
//!
//! 1. a paused port builds queue *without* being congested, and
//! 2. the ON-OFF arrival pattern masks the real input rate of downstream
//!    ports, so two ports with identical queue evolutions can be in
//!    different congestion states.
//!
//! The paper's answer is a **ternary** port state — [`state::TernaryState`]:
//! non-congestion (0), congestion (1) and *undetermined* (/) — and a
//! detector that distinguishes the continuous-ON pattern from the ON-OFF
//! pattern by bounding the length of an ON period, `max(T_on)`
//! ([`model`]), then classifies a port leaving the undetermined state by
//! the *trend* of its queue length ([`detector::TcdDetector`], the paper's
//! Fig. 9 flowchart). Endpoints are told about both congestion (CE) and
//! undetermined (UE) encounters through a 2-bit code point
//! ([`marking::CodePoint`], Table 1).
//!
//! The crate also implements the binary baselines TCD is evaluated against
//! ([`baseline`]): RED/ECN dequeue marking (DCQCN's congestion point) and
//! the InfiniBand congestion-control FECN root/victim rule.
//!
//! Everything here is a pure state machine over explicit inputs (dequeue
//! events, pause/resume transitions, timer ticks); the `lossless-netsim`
//! crate drives these machines from a packet-level simulator, and a real
//! switch data plane could drive them from its egress pipeline — the paper
//! argues the per-dequeue work is O(1) and feasible at line rate (§4.5).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(
    clippy::indexing_slicing,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::allow_attributes_without_reason
)]

pub mod baseline;
pub mod cycles;
pub mod detector;
pub mod marking;
pub mod model;
pub mod state;
pub mod tree;

pub use detector::{CongestionDetector, DequeueContext, TcdConfig, TcdDetector};
pub use marking::CodePoint;
pub use state::TernaryState;

// Re-export the base quantities so downstream crates need only one import
// path for time/rate arithmetic.
pub use lossless_flowctl::{Rate, SimDuration, SimTime};
