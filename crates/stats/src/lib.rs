//! Measurement post-processing: FCT slowdown, exact percentiles,
//! per-size-bucket breakdowns, and timeseries helpers for queue length and
//! sending rate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fct;
pub mod percentile;
pub mod timeseries;

pub use fct::{ideal_fct, SizeBuckets, SlowdownSummary};
pub use percentile::{mean, median, percentile};
pub use timeseries::RatePoint;
