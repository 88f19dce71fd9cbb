//! End-to-end congestion control for lossless networks: the three
//! algorithms the paper studies (§5.2), each in its standard form and in a
//! TCD-aware variant.
//!
//! | algorithm | signal | standard reaction | TCD-aware change (paper §5.2) |
//! |-----------|--------|-------------------|-------------------------------|
//! | [`dcqcn::Dcqcn`]   | ECN → CNP       | `Rc ← Rc(1 − α/2)` | hold on UE; reduction factor 0.5 → 1.2 on CE |
//! | [`timely::Timely`] | RTT gradient    | gradient MD        | hold when UE and gradient > 0; β 0.8 → 1.6 |
//! | [`ibcc::IbCc`]     | FECN → BECN     | CCTI += 1          | hold on UE; CCTI step 1 → 2 |
//!
//! [`hpcc::Hpcc`] (INT-driven, SIGCOMM'19) is additionally provided as the
//! §7 related-work baseline; it has no TCD variant — the point of including
//! it is that utilization telemetry alone cannot separate paused victims
//! from congested culprits.
//!
//! All four implement
//! [`RateController`](lossless_netsim::cchooks::RateController), so an
//! experiment switches algorithm (or TCD-awareness) by constructing a
//! different controller per flow — nothing else in the simulator changes.
//!
//! A controller borrows its parameters. Each preset is an associated
//! const ([`DcqcnConfig::STANDARD`], [`DcqcnConfig::TCD`], and likewise for
//! the other three), so `Dcqcn::with_tcd()` holds a `&'static` reference
//! and every flow of a simulation shares one copy of its preset.
//!
//! The rate-adjustment principles for the TCD variants follow the paper:
//! *congested* flows (CE) decrease aggressively because they are the real
//! contributors; *undetermined* flows (UE) hold their rate — they may be
//! victims that should not back off, but blindly increasing could worsen
//! congestion spreading.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(
    clippy::indexing_slicing,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::allow_attributes_without_reason
)]

pub mod dcqcn;
pub mod hpcc;
pub mod ibcc;
pub mod timely;

pub use dcqcn::{Dcqcn, DcqcnConfig};
pub use hpcc::{Hpcc, HpccConfig};
pub use ibcc::{IbCc, IbCcConfig};
pub use timely::{Timely, TimelyConfig};
