//! The paper's §4 stopping rule, once: a data point (a *cell* of one or
//! more arms measured on the same replications) is replicated until the
//! 95 % CI of every arm is within a target fraction of its mean.
//!
//! Each replication is an independent seeded simulation (no shared mutable
//! state), so they fan out perfectly across threads with
//! `std::thread::scope`. Batches of `available_parallelism` replications
//! run between stopping-rule checks; seeds are consumed in order, so the
//! final statistics are independent of thread scheduling.

use crate::PointSummary;
use simstats::{ConfidenceLevel, PrecisionController};
use spam_scenario::split_seed;

/// When a cell stops replicating: every arm's 95 % CI half-width within
/// `target_rel` of its mean (after at least 3 samples), or `max_reps`
/// replications run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stop {
    /// Relative CI target (the paper uses 0.01).
    pub target_rel: f64,
    /// Replication budget per cell.
    pub max_reps: u64,
}

impl Stop {
    /// Stop within `target_rel` of the mean or after `max_reps`.
    pub const fn new(target_rel: f64, max_reps: u64) -> Self {
        Stop {
            target_rel,
            max_reps,
        }
    }
}

/// One cell of a sweep: runs seeded replications of `rep` over the seed
/// stream `base_seed` and hands each result, **in seed order**, to
/// `samples`, which names that replication's sample for each of the `N`
/// arms (`None` for an arm the replication starved — a storm that
/// delivered nothing) and may fold whatever else the caller aggregates
/// per replication. Returns one point at `x` per arm; an arm that never
/// produced a sample reports NaN, which the JSON writer turns into `null`.
pub fn cell<T: Send, const N: usize>(
    stop: Stop,
    base_seed: u64,
    x: f64,
    rep: impl Fn(u64) -> T + Sync,
    mut samples: impl FnMut(T) -> [Option<f64>; N],
) -> [PointSummary; N] {
    let mut arms: [PrecisionController; N] = std::array::from_fn(|_| {
        PrecisionController::new(stop.target_rel, ConfidenceLevel::P95, 3, stop.max_reps)
    });
    let mut reps = 0u64;
    replicate_parallel_with(base_seed, rep, |r| {
        reps += 1;
        for (arm, sample) in arms.iter_mut().zip(samples(r)) {
            if let Some(v) = sample {
                arm.push(v);
            }
        }
        reps >= stop.max_reps || arms.iter().all(PrecisionController::satisfied)
    });
    arms.map(|arm| {
        let (mean, ci_half_width) = arm
            .interval()
            .map_or((f64::NAN, f64::NAN), |ci| (ci.mean, ci.half_width));
        PointSummary {
            x,
            mean,
            ci_half_width,
            reps: arm.count(),
            target_met: arm.met_target(),
        }
    })
}

/// A one-arm [`cell`]: every replication yields its sample.
pub fn single(stop: Stop, base_seed: u64, x: f64, rep: impl Fn(u64) -> f64 + Sync) -> PointSummary {
    let [point] = cell(stop, base_seed, x, rep, |v| [Some(v)]);
    point
}

/// Runs seeded replications of `rep` in deterministic seed order, fanning each
/// batch of `available_parallelism` runs across scoped threads, and feeds
/// the results **in seed order** to `consume`, which folds them into the
/// caller's stopping state and returns `true` to stop. Results past the
/// stop point (the rest of the final batch) are discarded, so the
/// statistics are independent of thread scheduling.
///
/// `rep(seed)` must be a pure function of its seed.
fn replicate_parallel_with<T: Send>(
    base_seed: u64,
    rep: impl Fn(u64) -> T + Sync,
    mut consume: impl FnMut(T) -> bool,
) {
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
                .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                .collect()
        });
        for r in results {
            if consume(r) {
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noisy(seed: u64) -> f64 {
        // Deterministic pseudo-noise around 100.
        100.0 + ((seed % 21) as f64 - 10.0)
    }

    fn sequential(stop: Stop, base_seed: u64, f: impl Fn(u64) -> f64) -> PrecisionController {
        let mut seq =
            PrecisionController::new(stop.target_rel, ConfidenceLevel::P95, 3, stop.max_reps);
        let mut i = 0u64;
        while !seq.satisfied() {
            seq.push(f(split_seed(base_seed, i)));
            i += 1;
        }
        seq
    }

    const LOOSE: Stop = Stop::new(0.02, 500);

    #[test]
    fn parallel_and_sequential_agree() {
        let seq = sequential(LOOSE, 7, noisy);
        let par = single(LOOSE, 7, 0.0, noisy);
        // Seeds are consumed in order, so the parallel driver stops at
        // exactly the sequential loop's replication.
        assert!(seq.met_target() && par.target_met);
        assert_eq!(par.reps, seq.count());
        assert_eq!(par.mean, seq.stats().mean());
    }

    #[test]
    fn constant_function_stops_at_min_reps() {
        let p = single(Stop::new(0.01, 100), 1, 0.0, |_| 42.0);
        assert_eq!(p.reps, 3);
        assert!(p.target_met);
        assert_eq!(p.mean, 42.0);
    }

    #[test]
    fn a_cell_stops_only_when_every_arm_is_satisfied() {
        // A constant arm is satisfied after 3 samples; its cell keeps
        // replicating until the noisy arm is too, and both arms saw every
        // replication.
        let [flat, rough] = cell(LOOSE, 7, 1.5, noisy, |v| [Some(42.0), Some(v)]);
        let alone = sequential(LOOSE, 7, noisy);
        assert!(alone.count() > 3, "the noisy arm needs more than the floor");
        assert_eq!((flat.reps, rough.reps), (alone.count(), alone.count()));
        assert_eq!(rough.mean, alone.stats().mean());
        assert!(flat.target_met && rough.target_met);
        assert_eq!((flat.x, flat.mean), (1.5, 42.0));
    }

    #[test]
    fn a_starved_arm_ends_the_cell_at_max_reps() {
        let [fed, starved] = cell(Stop::new(0.01, 9), 3, 0.0, |_| 42.0, |v| [Some(v), None]);
        assert_eq!((fed.reps, fed.target_met), (9, true));
        assert_eq!((starved.reps, starved.target_met), (0, false));
        assert!(starved.mean.is_nan() && starved.ci_half_width.is_nan());
    }
}
