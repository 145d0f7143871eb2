//! The run-report layer: one glanceable summary per finished run.
//!
//! [`RunReport`] condenses a [`RunMetrics`] into the numbers an operator
//! scans first — sampling coverage, gauge peaks, final message
//! accounting, and the two most interesting channels (busiest wire, most
//! OCRQ-contended) — with a terminal rendering. It is pure derivation:
//! building a report reads the metrics and touches nothing else.

use crate::channels::ChannelAccum;
use crate::RunMetrics;
use std::fmt::Write as _;

/// Summary statistics derived from one run's [`RunMetrics`].
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Samples ever recorded (including ring-evicted ones).
    pub samples: u64,
    /// Sampling cadence, ns.
    pub sample_every_ns: u64,
    /// Peak pending-event count across samples.
    pub peak_queue_len: usize,
    /// Peak live-worm count.
    pub peak_live_worms: u32,
    /// Peak live-segment count.
    pub peak_live_segments: u32,
    /// Peak total OCRQ entries.
    pub peak_ocrq_total: u32,
    /// Peak single-channel OCRQ depth.
    pub peak_ocrq_max: u32,
    /// Epoch in effect at the last sample.
    pub final_epoch: u32,
    /// Delivered / torn-down / unreachable totals at the last sample.
    pub delivered: u64,
    /// Torn-down total at the last sample.
    pub torn_down: u64,
    /// Unreachable total at the last sample.
    pub unreachable: u64,
    /// `(channel id, accum)` with the largest `busy_ns`, if any heat.
    pub busiest_channel: Option<(usize, ChannelAccum)>,
    /// `(channel id, accum)` with the largest `ocrq_wait_ns`, if any.
    pub most_contended_channel: Option<(usize, ChannelAccum)>,
}

fn argmax_by(
    accums: &[ChannelAccum],
    key: impl Fn(&ChannelAccum) -> u64,
) -> Option<(usize, ChannelAccum)> {
    accums
        .iter()
        .enumerate()
        .max_by_key(|(_, a)| key(a))
        .filter(|(_, a)| key(a) > 0)
        .map(|(i, a)| (i, *a))
}

impl RunReport {
    /// Derives the report.
    pub fn from_metrics(m: &RunMetrics) -> Self {
        let s = &m.series;
        let last = s.latest();
        RunReport {
            samples: s.total_recorded(),
            sample_every_ns: m.sample_every_ns,
            peak_queue_len: s.peak(|g| g.queue_len).unwrap_or(0),
            peak_live_worms: s.peak(|g| g.live_worms).unwrap_or(0),
            peak_live_segments: s.peak(|g| g.live_segments).unwrap_or(0),
            peak_ocrq_total: s.peak(|g| g.ocrq_total).unwrap_or(0),
            peak_ocrq_max: s.peak(|g| g.ocrq_max).unwrap_or(0),
            final_epoch: last.map_or(0, |g| g.epoch),
            delivered: last.map_or(0, |g| g.delivered),
            torn_down: last.map_or(0, |g| g.torn_down),
            unreachable: last.map_or(0, |g| g.unreachable),
            busiest_channel: argmax_by(&m.channels, |a| a.busy_ns),
            most_contended_channel: argmax_by(&m.channels, |a| a.ocrq_wait_ns),
        }
    }

    /// Terminal rendering.
    pub fn render(&self) -> String {
        let mut out = String::new();
        writeln!(
            out,
            "telemetry: {} samples @ {} ns",
            self.samples, self.sample_every_ns
        )
        .unwrap();
        writeln!(
            out,
            "  peaks: queue {} events, {} worms / {} segments in flight, \
             OCRQ {} total / {} deepest",
            self.peak_queue_len,
            self.peak_live_worms,
            self.peak_live_segments,
            self.peak_ocrq_total,
            self.peak_ocrq_max
        )
        .unwrap();
        writeln!(
            out,
            "  at last sample: epoch {}, {} delivered, {} torn down, {} unreachable",
            self.final_epoch, self.delivered, self.torn_down, self.unreachable
        )
        .unwrap();
        match self.busiest_channel {
            Some((ch, a)) => writeln!(
                out,
                "  busiest wire: channel {ch} ({} ns busy, {} acquisitions)",
                a.busy_ns, a.acquisitions
            )
            .unwrap(),
            None => writeln!(out, "  busiest wire: none (no wire traffic)").unwrap(),
        }
        match self.most_contended_channel {
            Some((ch, a)) => writeln!(
                out,
                "  most contended: channel {ch} ({} entry-ns OCRQ wait, {} header stalls)",
                a.ocrq_wait_ns, a.header_stalls
            )
            .unwrap(),
            None => writeln!(out, "  most contended: none (no OCRQ waiting)").unwrap(),
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::series::GaugeSample;
    use crate::MetricsConfig;

    #[test]
    fn report_reflects_peaks_and_finals() {
        let mut m = RunMetrics::new(&MetricsConfig::every_ns(100), 2);
        m.series.push(GaugeSample {
            at_ns: 100,
            queue_len: 40,
            live_worms: 3,
            ocrq_total: 5,
            ocrq_max: 4,
            delivered: 1,
            ..GaugeSample::default()
        });
        m.series.push(GaugeSample {
            at_ns: 200,
            queue_len: 10,
            live_worms: 1,
            epoch: 2,
            delivered: 7,
            torn_down: 1,
            ..GaugeSample::default()
        });
        m.channels[0].busy_ns = 500;
        m.channels[1].ocrq_wait_ns = 900;

        let r = RunReport::from_metrics(&m);
        assert_eq!(r.samples, 2);
        assert_eq!(r.peak_queue_len, 40);
        assert_eq!(r.peak_live_worms, 3);
        assert_eq!(r.peak_ocrq_total, 5);
        assert_eq!(r.final_epoch, 2);
        assert_eq!(r.delivered, 7);
        assert_eq!(r.torn_down, 1);
        assert_eq!(r.busiest_channel.unwrap().0, 0);
        assert_eq!(r.most_contended_channel.unwrap().0, 1);

        let text = r.render();
        assert!(text.contains("2 samples @ 100 ns"));
        assert!(text.contains("channel 0 (500 ns busy"));
        assert!(text.contains("channel 1 (900 entry-ns"));
    }

    #[test]
    fn empty_metrics_report_is_graceful() {
        let m = RunMetrics::new(&MetricsConfig::every_ns(50), 0);
        let r = RunReport::from_metrics(&m);
        assert_eq!(r.samples, 0);
        assert_eq!(r.busiest_channel, None);
        let text = r.render();
        assert!(text.contains("none (no wire traffic)"));
        assert!(text.contains("none (no OCRQ waiting)"));
    }
}
