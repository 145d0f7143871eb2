//! Periodic sampling cadence for sim-time telemetry.
//!
//! A [`Ticker`] is the event-kind-free way to drive periodic work (gauge
//! sampling, watermark snapshots) from a discrete-event loop. Scheduling
//! real queue events for sampling would perturb everything an observer
//! must not touch: the popped-event count, the end-of-run clock, watchdog
//! arithmetic, and same-instant FIFO interleaving. A `Ticker` instead
//! lives *beside* the queue: the simulation loop asks "which tick
//! instants are due strictly before the event I am about to fire?" and
//! drains them synchronously, so the event stream — and therefore every
//! simulated outcome — is byte-identical with sampling on or off.
//!
//! ```
//! use desim::{Duration, Ticker, Time};
//!
//! let mut t = Ticker::every(Duration::from_ns(100));
//! assert_eq!(t.next_at(), Time::from_ns(100));
//! let mut fired = Vec::new();
//! t.drain_through(Time::from_ns(350), |at| fired.push(at.as_ns()));
//! assert_eq!(fired, vec![100, 200, 300]);
//! assert_eq!(t.next_at(), Time::from_ns(400));
//! ```

use crate::time::{Duration, Time};

/// A fixed-period cadence over simulation time. See the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ticker {
    period: u64,
    next: u64,
}

impl Ticker {
    /// A cadence firing at `period`, `2*period`, `3*period`, ... (the
    /// instant 0 is skipped: a sample there would observe nothing but
    /// initial state).
    ///
    /// # Panics
    ///
    /// Panics on a zero period — that cadence never advances.
    pub fn every(period: Duration) -> Self {
        assert!(period.as_ns() > 0, "a Ticker needs a non-zero period");
        Ticker {
            period: period.as_ns(),
            next: period.as_ns(),
        }
    }

    /// The configured period.
    #[inline]
    pub fn period(&self) -> Duration {
        Duration::from_ns(self.period)
    }

    /// The next instant this cadence fires at.
    #[inline]
    pub fn next_at(&self) -> Time {
        Time::from_ns(self.next)
    }

    /// Consumes the pending tick, advancing to the following one.
    /// Saturates at the far end of simulated time rather than wrapping.
    #[inline]
    pub fn advance(&mut self) {
        self.next = self.next.saturating_add(self.period);
    }

    /// Fires `f` once per due tick, in order, for every tick instant
    /// `<= t`. Call with the timestamp of the event about to be handled
    /// (ticks are conceptually processed *before* the instant's events).
    /// One call per tick: a caller facing a far jump counts the ticks
    /// with [`Ticker::due_through`] and passes over the ones it does not
    /// need with [`Ticker::skip`] first.
    #[inline]
    pub fn drain_through(&mut self, t: Time, mut f: impl FnMut(Time)) {
        for _ in 0..self.due_through(t) {
            f(Time::from_ns(self.next));
            self.advance();
        }
    }

    /// How many tick instants are due at or before `t` — what
    /// [`Ticker::drain_through`] would fire — in O(1).
    #[inline]
    pub fn due_through(&self, t: Time) -> u64 {
        match t.as_ns().checked_sub(self.next) {
            Some(gap) => (gap / self.period).saturating_add(1),
            None => 0,
        }
    }

    /// Consumes `n` ticks at once: the state `n` calls of
    /// [`Ticker::advance`] leave, saturating the same way, in O(1).
    #[inline]
    pub fn skip(&mut self, n: u64) {
        self.next = n
            .checked_mul(self.period)
            .and_then(|d| self.next.checked_add(d))
            .unwrap_or(u64::MAX);
    }

    /// The cadence's raw `(period_ns, next_ns)` state, for snapshots.
    #[inline]
    pub fn parts(&self) -> (u64, u64) {
        (self.period, self.next)
    }

    /// Rebuilds a cadence from [`Ticker::parts`]. Returns `None` for a
    /// zero period (that cadence never advances), so corrupted snapshot
    /// input surfaces as a typed error instead of an infinite loop.
    pub fn from_parts(period_ns: u64, next_ns: u64) -> Option<Self> {
        if period_ns == 0 {
            return None;
        }
        Some(Ticker {
            period: period_ns,
            next: next_ns,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ticks_are_periodic_and_skip_zero() {
        let mut t = Ticker::every(Duration::from_ns(50));
        assert_eq!(t.period(), Duration::from_ns(50));
        assert_eq!(t.next_at(), Time::from_ns(50));
        t.advance();
        assert_eq!(t.next_at(), Time::from_ns(100));
    }

    #[test]
    fn drain_fires_every_due_instant_once() {
        let mut t = Ticker::every(Duration::from_ns(10));
        let mut fired = Vec::new();
        t.drain_through(Time::from_ns(35), |at| fired.push(at.as_ns()));
        assert_eq!(fired, vec![10, 20, 30]);
        // Nothing new due until 40.
        t.drain_through(Time::from_ns(39), |at| fired.push(at.as_ns()));
        assert_eq!(fired, vec![10, 20, 30]);
        // An exactly-due boundary fires (ticks precede the instant's events).
        t.drain_through(Time::from_ns(40), |at| fired.push(at.as_ns()));
        assert_eq!(fired, vec![10, 20, 30, 40]);
    }

    #[test]
    fn advance_saturates_instead_of_wrapping() {
        let mut t = Ticker::every(Duration::from_ns(u64::MAX / 2));
        t.advance();
        t.advance();
        t.advance();
        assert_eq!(t.next_at(), Time::from_ns(u64::MAX));
    }

    #[test]
    fn skip_and_due_count_match_ticking_one_by_one() {
        for (period, start, upto) in [(10, 10, 9), (10, 10, 10), (7, 7, 1_000), (3, 5, 5_000)] {
            let mut slow = Ticker::from_parts(period, start).unwrap();
            let mut fast = slow;
            let due = fast.due_through(Time::from_ns(upto));
            let mut fired = 0u64;
            slow.drain_through(Time::from_ns(upto), |_| fired += 1);
            assert_eq!(due, fired);
            fast.skip(due);
            assert_eq!(fast.parts(), slow.parts());
        }
        // Saturates like `advance`, and a jump to the end of time is one
        // count, not 2^64 / period iterations.
        let mut t = Ticker::every(Duration::from_ns(1 << 20));
        assert_eq!(t.due_through(Time::from_ns(u64::MAX)), u64::MAX >> 20);
        t.skip(u64::MAX);
        assert_eq!(t.next_at(), Time::from_ns(u64::MAX));
    }

    #[test]
    #[should_panic(expected = "non-zero period")]
    fn zero_period_panics() {
        Ticker::every(Duration::from_ns(0));
    }
}
