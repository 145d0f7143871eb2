#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

//! # spam-metrics — deterministic sim-time telemetry
//!
//! Fabric-over-time observability for the wormhole engine. Where
//! `spam-trace` explains *one message's* latency, this crate watches the
//! *whole fabric*: a periodic sampler snapshots engine gauges into a
//! preallocated ring-buffered time-series, and per-channel accumulators
//! fold into a lattice-shaped congestion heatmap that localizes hot
//! channels in space.
//!
//! The pieces:
//!
//! * [`MetricsConfig`] — sampling cadence + ring capacity (derivable
//!   from a horizon so long runs keep the tail);
//! * [`GaugeSample`] / [`GaugeSeries`] — per-instant gauge snapshots
//!   (pending events, live worms/segments, OCRQ
//!   depth, routing epoch, delivery/teardown running totals) in a ring
//!   that never reallocates after construction;
//! * [`ChannelAccum`] / [`ChannelScoreboard`] — per-channel congestion
//!   totals (wire-busy ns, acquisitions, exact OCRQ-depth time
//!   integrals, header stalls) with allocation-free record hooks;
//! * [`CongestionHeatmap`] — the accumulators folded onto the
//!   [`netgraph::gen::lattice::LatticeLayout`] grid, with CSV
//!   export and a terminal rendering.
//!
//! Two contracts the engine integration keeps (and the workspace test
//! suite pins): telemetry is a **pure observer** — enabling it changes
//! no simulated outcome, byte for byte — and recording is **zero-alloc
//! at steady state** — everything is preallocated when metrics are
//! enabled.

pub mod channels;
pub mod heatmap;
pub mod series;

pub use channels::{ChannelAccum, ChannelScoreboard};
pub use heatmap::{CellHeat, CongestionHeatmap, HeatKey};
pub use series::{GaugeSample, GaugeSeries};

use desim::Duration;

/// Default ring capacity when none is derived from a horizon.
pub const DEFAULT_SERIES_CAPACITY: usize = 4096;

/// How telemetry samples: the cadence and how many samples the ring
/// retains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricsConfig {
    /// Gauge-sampling period.
    pub sample_every: Duration,
    /// Ring capacity, in samples.
    pub capacity: usize,
}

impl MetricsConfig {
    /// A cadence of `ns` nanoseconds with the default ring capacity.
    ///
    /// # Panics
    ///
    /// Panics on a zero cadence (the sampler would never fire).
    pub fn every_ns(ns: u64) -> Self {
        assert!(ns > 0, "sampling cadence must be non-zero");
        MetricsConfig {
            sample_every: Duration::from_ns(ns),
            capacity: DEFAULT_SERIES_CAPACITY,
        }
    }

    /// Replaces the ring capacity.
    ///
    /// # Panics
    ///
    /// Panics on zero capacity.
    pub fn with_capacity(mut self, capacity: usize) -> Self {
        assert!(capacity > 0, "series capacity must be non-zero");
        self.capacity = capacity;
        self
    }

    /// A cadence of `ns` with capacity sized so a run of `horizon_ns`
    /// keeps every sample (clamped to `[16, 1 << 20]` so degenerate
    /// horizons stay sane).
    pub fn for_horizon(ns: u64, horizon_ns: u64) -> Self {
        let cfg = Self::every_ns(ns);
        let wanted = (horizon_ns / ns).saturating_add(2);
        cfg.with_capacity((wanted as usize).clamp(16, 1 << 20))
    }
}

/// Everything telemetry recorded about one run: the gauge series and the
/// per-channel accumulators. Carried on `wormsim::SimOutcome` when
/// metrics were enabled; excluded from outcome digests by construction
/// (telemetry observes, it never participates).
#[derive(Debug, Clone, PartialEq)]
pub struct RunMetrics {
    /// Sampling cadence used, ns.
    pub sample_every_ns: u64,
    /// The gauge time-series.
    pub series: GaugeSeries,
    /// Per-channel congestion totals, indexed by `ChannelId`.
    pub channels: Vec<ChannelAccum>,
}

impl RunMetrics {
    /// A fresh, fully preallocated recording surface for `num_channels`
    /// channels.
    pub fn new(cfg: &MetricsConfig, num_channels: usize) -> Self {
        RunMetrics {
            sample_every_ns: cfg.sample_every.as_ns(),
            series: GaugeSeries::with_capacity(cfg.capacity),
            channels: vec![ChannelAccum::default(); num_channels],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_constructors_validate() {
        let c = MetricsConfig::every_ns(250);
        assert_eq!(c.sample_every.as_ns(), 250);
        assert_eq!(c.capacity, DEFAULT_SERIES_CAPACITY);
        assert_eq!(c.with_capacity(7).capacity, 7);
    }

    #[test]
    fn horizon_capacity_keeps_every_sample() {
        let c = MetricsConfig::for_horizon(1_000, 2_000_000);
        assert!(c.capacity >= 2_000, "2 ms / 1 µs = 2000 samples retained");
        assert_eq!(MetricsConfig::for_horizon(1_000, 0).capacity, 16);
        assert_eq!(
            MetricsConfig::for_horizon(1, u64::MAX).capacity,
            1 << 20,
            "clamped"
        );
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_cadence_panics() {
        MetricsConfig::every_ns(0);
    }

    #[test]
    fn run_metrics_preallocates() {
        let m = RunMetrics::new(&MetricsConfig::every_ns(100).with_capacity(32), 12);
        assert_eq!(m.series.capacity(), 32);
        assert_eq!(m.channels.len(), 12);
        assert_eq!(m.sample_every_ns, 100);
        assert!(m.series.is_empty());
    }
}
