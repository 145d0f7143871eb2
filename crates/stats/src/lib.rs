#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

//! # simstats — statistics for simulation experiments
//!
//! The paper reports that "each data point in our experiments is within 1%
//! of the mean or better, using 95% confidence intervals" (§4). This crate
//! provides the machinery to reproduce that protocol:
//!
//! * [`RunningStats`] — single-pass (Welford) mean/variance accumulation,
//! * [`ConfidenceInterval`] — Student-t / normal confidence intervals,
//! * [`PrecisionController`] — run replications until the interval's
//!   relative half-width meets a target (the paper's 1 %),
//! * [`Histogram`] — fixed-bin latency distributions for the report files.

pub mod ci;
pub mod histogram;
pub mod precision;
pub mod running;

pub use ci::{ConfidenceInterval, ConfidenceLevel};
pub use histogram::Histogram;
pub use precision::PrecisionController;
pub use running::RunningStats;
