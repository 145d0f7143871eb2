//! The reference kernel that turns host time into calibrated time.
//!
//! This box shares its cores with other tenants: one fixed engine
//! request takes 30–56 ms from one minute to the next, while a
//! register-only spin loop stays within 3 % — the interference slows
//! cache-using, high-IPC code and leaves a dependent-chain loop alone.
//! So the harness carries a small kernel shaped like the simulator's hot
//! loop (a binary-heap event queue, a pseudo-random read-modify-write
//! over a 256 KiB table, a data-dependent branch), runs it for about a
//! millisecond every 20 ms of set-up and of the timed phase, and reports
//! every wall-clock metric as host time on a box where the kernel runs
//! at its nominal speed. The per-pass metrics are lower envelopes, so
//! they are scaled by `NOMINAL_NS / (fastest decile of the kernel's
//! times)`; a set-up is fixed work that takes whatever slow-downs it
//! meets, so it is scaled by `NOMINAL_NS / (mean kernel time while it
//! ran)`. Measured over ten-run sets on every workload, run-to-run
//! spread fell from 7–19 % (raw) to 2–8 % for the per-pass metrics and
//! from 12 % to 3–6 % for set-up.
//!
//! The kernel is part of the ruler, not of the system: a change that
//! claims a gain may not touch it.

use crate::alloc;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

/// Events per kernel run.
const STEPS: usize = 20_000;
/// What one kernel run takes on the box the workloads were sized on,
/// undisturbed. Frozen: it only fixes the unit of calibrated time.
const NOMINAL_NS: f64 = 1_100_000.0;
/// Minimum spacing of kernel runs.
const EVERY_NS: u128 = 20_000_000;
/// Room for the samples of a 60-second phase.
const MAX_SAMPLES: usize = 8 << 10;

struct Kernel {
    queue: BinaryHeap<Reverse<(u64, u32)>>,
    table: Vec<u32>,
    x: u64,
}

impl Kernel {
    fn new() -> Self {
        let mut queue = BinaryHeap::with_capacity(4097);
        for id in 0..4096u32 {
            queue.push(Reverse((u64::from(id) * 7 % 1000, id)));
        }
        Kernel {
            queue,
            table: vec![0; 1 << 16],
            x: 0x9E37_79B9_7F4A_7C15,
        }
    }

    fn run(&mut self) -> u64 {
        let mut acc = 0u64;
        for _ in 0..STEPS {
            let Some(Reverse((at, id))) = self.queue.pop() else {
                break;
            };
            self.x ^= self.x << 13;
            self.x ^= self.x >> 7;
            self.x ^= self.x << 17;
            let slot = (self.x as usize ^ id as usize) & 0xFFFF;
            let v = self.table[slot].wrapping_add(id);
            self.table[slot] = v;
            if v & 3 == 0 {
                acc += u64::from(v);
            }
            self.queue.push(Reverse((at + 1 + (self.x >> 54), id)));
        }
        acc
    }
}

pub struct Calibrator {
    kernel: &'static mut Kernel,
    samples: &'static mut Vec<u64>,
    last: Instant,
    /// Host time spent inside the kernel so far, ns.
    spent_ns: u64,
}

/// A point in a run from which a stretch of fixed work is measured
/// ([`Calibrator::calibrated_since`]).
pub struct Mark {
    at: Instant,
    sample: usize,
    spent_ns: u64,
}

impl Calibrator {
    /// The kernel and its samples live outside the counted heap.
    pub fn new() -> Self {
        Calibrator {
            kernel: alloc::uncounted(Kernel::new),
            samples: alloc::uncounted(|| Vec::with_capacity(MAX_SAMPLES)),
            last: Instant::now(),
            spent_ns: 0,
        }
    }

    /// Runs the kernel once and records how long it took.
    pub fn sample(&mut self) {
        let t0 = Instant::now();
        std::hint::black_box(self.kernel.run());
        self.last = Instant::now();
        let ns = (self.last - t0).as_nanos() as u64;
        self.spent_ns += ns;
        if self.samples.len() < self.samples.capacity() {
            self.samples.push(ns);
        }
    }

    /// Samples if the last sample is at least 20 ms old.
    #[inline]
    pub fn tick(&mut self) {
        if self.last.elapsed().as_nanos() >= EVERY_NS {
            self.sample();
        }
    }

    fn fast_decile_ns(samples: &[u64]) -> f64 {
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        match sorted.len() {
            0 => NOMINAL_NS,
            n => sorted[n / 10] as f64,
        }
    }

    /// Factor that turns host time into calibrated time.
    pub fn scale(&self) -> f64 {
        NOMINAL_NS / Self::fast_decile_ns(self.samples)
    }

    /// Starts measuring a stretch of fixed work; samples once, so that
    /// even a short stretch has a kernel reading.
    pub fn mark(&mut self) -> Mark {
        let sample = self.samples.len();
        self.sample();
        Mark {
            at: Instant::now(),
            sample,
            spent_ns: self.spent_ns,
        }
    }

    /// Host seconds since `mark` with the kernel's own runs taken out,
    /// raw and calibrated. Fixed work done across changing regimes takes
    /// the *integral* of the slow-downs it meets, so it is scaled by the
    /// mean kernel time over the same stretch, where the per-pass
    /// metrics — lower envelopes — are scaled by the fastest decile.
    pub fn calibrated_since(&self, mark: &Mark) -> (f64, f64) {
        let net_ns = mark.at.elapsed().as_nanos() as u64 - (self.spent_ns - mark.spent_ns);
        let raw_s = net_ns as f64 / 1e9;
        (raw_s, raw_s * self.mean_scale_since(mark))
    }

    /// `NOMINAL_NS / (mean kernel time since mark)`.
    pub fn mean_scale_since(&self, mark: &Mark) -> f64 {
        let window = &self.samples[mark.sample.min(self.samples.len())..];
        match window.len() {
            0 => 1.0,
            n => NOMINAL_NS * n as f64 / window.iter().sum::<u64>() as f64,
        }
    }

    /// Kernel speed over the first and the last quarter of the samples,
    /// million events per second: the noise sentinel.
    pub fn mops_before_after(&self) -> (f64, f64) {
        let quarter = (self.samples.len() / 4).max(1).min(self.samples.len());
        let mops = |s: &[u64]| STEPS as f64 * 1e3 / Self::fast_decile_ns(s);
        (
            mops(&self.samples[..quarter]),
            mops(&self.samples[self.samples.len() - quarter..]),
        )
    }

    pub fn samples(&self) -> usize {
        self.samples.len()
    }
}
