//! Parallel replication control under the paper's §4 stopping rule.
//!
//! Each replication is an independent seeded simulation (no shared mutable
//! state), so they fan out perfectly across threads with
//! `std::thread::scope`. Batches of `available_parallelism` replications
//! run between stopping-rule checks; seeds are consumed in order, so the
//! final statistics are independent of thread scheduling.

use crate::PointSummary;
use simstats::{ConfidenceLevel, PrecisionController};
use spam_scenario::split_seed;

/// The generic parallel replication driver every sweep builds on: runs
/// seeded replications of `rep` in deterministic seed order, fanning each
/// batch of `available_parallelism` runs across scoped threads, and feeds
/// the results **in seed order** to `consume`, which folds them into the
/// caller's stopping state and returns `true` to stop. Results past the
/// stop point (the rest of the final batch) are discarded, so the
/// statistics are independent of thread scheduling.
///
/// `rep(seed)` must be a pure function of its seed.
pub fn replicate_parallel_with<T, F>(base_seed: u64, rep: F, mut consume: impl FnMut(T) -> bool)
where
    T: Send,
    F: Fn(u64) -> T + Sync,
{
    let batch = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let mut next = 0u64;
    loop {
        let seeds: Vec<u64> = (0..batch as u64)
            .map(|i| split_seed(base_seed, next + i))
            .collect();
        next += batch as u64;
        let results: Vec<T> = std::thread::scope(|s| {
            let rep = &rep;
            let handles: Vec<_> = seeds
                .iter()
                .map(|&seed| s.spawn(move || rep(seed)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("replication panicked"))
                .collect()
        });
        for r in results {
            if consume(r) {
                return;
            }
        }
    }
}

/// The §4 stopping rule: 95 % CI half-width within `target_rel` of the
/// mean, at least 3 and at most `max_reps` replications.
pub fn controller(target_rel: f64, max_reps: u64) -> PrecisionController {
    PrecisionController::new(target_rel, ConfidenceLevel::P95, 3, max_reps)
}

/// Summarizes a finished controller as the point at `x`. An arm that
/// never produced a sample (a reconfiguration cell whose storm starved
/// it) reports NaN, which the JSON writer turns into `null`.
pub fn point(ctl: &PrecisionController, x: f64) -> PointSummary {
    let (mean, ci_half_width) = ctl
        .interval()
        .map_or((f64::NAN, f64::NAN), |ci| (ci.mean, ci.half_width));
    PointSummary {
        x,
        mean,
        ci_half_width,
        reps: ctl.count(),
        target_met: ctl.met_target(),
    }
}

/// One data point of a figure: replicates `rep` over the seed stream
/// `base_seed` until the §4 rule is satisfied.
pub fn replicate_point<F>(
    target_rel: f64,
    max_reps: u64,
    base_seed: u64,
    x: f64,
    rep: F,
) -> PointSummary
where
    F: Fn(u64) -> f64 + Sync,
{
    let mut ctl = controller(target_rel, max_reps);
    replicate_parallel_with(base_seed, rep, |r| {
        ctl.push(r);
        ctl.satisfied()
    });
    point(&ctl, x)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noisy(seed: u64) -> f64 {
        // Deterministic pseudo-noise around 100.
        100.0 + ((seed % 21) as f64 - 10.0)
    }

    #[test]
    fn parallel_and_sequential_agree() {
        let mut seq = controller(0.02, 500);
        let mut i = 0u64;
        while !seq.satisfied() {
            seq.push(noisy(split_seed(7, i)));
            i += 1;
        }
        let par = replicate_point(0.02, 500, 7, 0.0, noisy);
        // Seeds are consumed in order, so the parallel driver stops at
        // exactly the sequential loop's replication.
        assert!(seq.met_target() && par.target_met);
        assert_eq!(par.reps, seq.count());
        assert_eq!(par.mean, seq.stats().mean());
    }

    #[test]
    fn constant_function_stops_at_min_reps() {
        let p = replicate_point(0.01, 100, 1, 0.0, |_| 42.0);
        assert_eq!(p.reps, 3);
        assert!(p.target_met);
        assert_eq!(p.mean, 42.0);
    }
}
