//! Interarrival-time processes.
//!
//! §4 drives the Figure 3 experiments with "a negative binomial
//! distribution with varying average arrival rates". The negative binomial
//! counts discrete slots (channel cycles here) between arrivals; with
//! dispersion `r = 1` it reduces to the geometric distribution — the
//! discrete memoryless process. Larger `r` gives smoother (less bursty)
//! arrivals at the same mean rate; the paper fixes only the mean, so the
//! dispersion is exposed as a knob (default 1).
//!
//! An [`ArrivalKind`] names the process; every source draws its gaps from
//! its own generator, built by `ArrivalKind::generator`.

use crate::error::TrafficError;
use desim::Duration;
use rand::Rng;

/// The negative-binomial slot: one 10 ns channel cycle, as in §4.
const SLOT: Duration = Duration::from_ns(10);

/// Which arrival process drives each node's generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrivalKind {
    /// §4: negative binomial slot counts with dispersion `r` over 10 ns
    /// slots.
    NegativeBinomial {
        /// Dispersion; 1 = geometric.
        r: u32,
    },
    /// Exponential gaps (sensitivity analysis).
    Poisson,
    /// Fixed gaps (stress tests).
    Deterministic,
    /// Bursty on/off arrivals: the §4 negative-binomial process modulated
    /// by a two-state MMPP. While the source is ON, arrivals follow the
    /// inner process; ON periods alternate with silent OFF periods, both
    /// exponentially distributed. The configured rate is the *in-burst*
    /// rate; the long-run rate is scaled by the duty cycle
    /// `on / (on + off)`.
    OnOff {
        /// Dispersion of the inner negative-binomial process.
        r: u32,
        /// Mean ON-state duration in µs (must be positive).
        mean_on_us: u64,
        /// Mean OFF-state duration in µs (zero = always on).
        mean_off_us: u64,
    },
}

impl ArrivalKind {
    /// Validates `rate` (messages/µs/source) and this kind's own knobs,
    /// so a validated configuration always builds its generators.
    pub fn validate_rate(&self, rate: f64) -> Result<(), TrafficError> {
        if !(rate > 0.0 && rate.is_finite()) {
            return Err(TrafficError::NonPositiveRate { rate });
        }
        match *self {
            ArrivalKind::NegativeBinomial { r } => {
                // Mean gap must span at least one 10 ns slot.
                if 1_000.0 / rate < 10.0 {
                    return Err(TrafficError::RateTooHigh { rate });
                }
                check_dispersion(r)
            }
            ArrivalKind::OnOff {
                r,
                mean_on_us,
                mean_off_us,
            } => {
                if 1_000.0 / rate < 10.0 {
                    return Err(TrafficError::RateTooHigh { rate });
                }
                check_dispersion(r)?;
                if mean_on_us == 0 {
                    return Err(TrafficError::ZeroDuration {
                        what: "mean ON period",
                    });
                }
                // `Duration::from_us` multiplies by 1000; reject values
                // that would overflow the nanosecond representation.
                const MAX_US: u64 = u64::MAX / 1_000;
                if mean_on_us > MAX_US {
                    return Err(TrafficError::DurationTooLarge {
                        what: "mean ON period",
                    });
                }
                if mean_off_us > MAX_US {
                    return Err(TrafficError::DurationTooLarge {
                        what: "mean OFF period",
                    });
                }
                Ok(())
            }
            ArrivalKind::Poisson | ArrivalKind::Deterministic => {
                // The continuous kinds still need a representable gap:
                // past 1000 msg/µs the mean gap truncates to 0 ns and the
                // configured rate silently vanishes.
                if 1_000.0 / rate < 1.0 {
                    return Err(TrafficError::RateTooHigh { rate });
                }
                Ok(())
            }
        }
    }

    /// Builds one source's gap generator at `rate` messages/µs. An on/off
    /// generator carries its modulation state, so every source needs its
    /// own.
    pub(crate) fn generator(&self, rate: f64) -> Result<ArrivalGen, TrafficError> {
        self.validate_rate(rate)?;
        // NB(r, p) has mean r·(1−p)/p slots; solve p = r / (r + m) for a
        // mean gap of m slots.
        let ln_q = |r: u32| {
            let mean_slots = 1_000.0 / rate / SLOT.as_ns() as f64;
            (1.0 - r as f64 / (r as f64 + mean_slots)).ln()
        };
        Ok(match *self {
            ArrivalKind::NegativeBinomial { r } => {
                ArrivalGen::NegativeBinomial { r, ln_q: ln_q(r) }
            }
            ArrivalKind::Poisson => ArrivalGen::Poisson {
                mean_gap_ns: 1_000.0 / rate,
            },
            ArrivalKind::Deterministic => {
                ArrivalGen::Deterministic(Duration::from_ns((1_000.0 / rate) as u64))
            }
            ArrivalKind::OnOff {
                r,
                mean_on_us,
                mean_off_us,
            } => ArrivalGen::OnOff {
                r,
                ln_q: ln_q(r),
                mean_on_ns: Duration::from_us(mean_on_us).as_ns(),
                mean_off_ns: Duration::from_us(mean_off_us).as_ns(),
                on_left_ns: None,
            },
        })
    }
}

/// The negative-binomial dispersion must be at least 1 (the number of
/// geometric components).
fn check_dispersion(r: u32) -> Result<(), TrafficError> {
    if r == 0 {
        return Err(TrafficError::ZeroDuration {
            what: "negative-binomial dispersion r",
        });
    }
    Ok(())
}

/// One source's interarrival generator, built by
/// `ArrivalKind::generator`: one variant per kind, holding what its
/// draws need.
pub(crate) enum ArrivalGen {
    /// `r` geometric slot counts per gap; `ln_q` is `ln(1 − p)`.
    NegativeBinomial { r: u32, ln_q: f64 },
    /// Exponential gaps of this mean.
    Poisson { mean_gap_ns: f64 },
    /// This gap, every time.
    Deterministic(Duration),
    /// The negative-binomial gaps walked through exponential ON budgets,
    /// with an exponential OFF period added at each exhaustion.
    OnOff {
        r: u32,
        ln_q: f64,
        mean_on_ns: u64,
        mean_off_ns: u64,
        /// What is left of the current ON period (`None` before the
        /// first draw).
        on_left_ns: Option<u64>,
    },
}

impl ArrivalGen {
    /// Draws the gap until the next arrival.
    pub(crate) fn next_gap<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Duration {
        match self {
            ArrivalGen::NegativeBinomial { r, ln_q } => negative_binomial(*r, *ln_q, rng),
            ArrivalGen::Poisson { mean_gap_ns } => Duration::from_ns(exp_ns(*mean_gap_ns, rng)),
            ArrivalGen::Deterministic(gap) => *gap,
            ArrivalGen::OnOff {
                r,
                ln_q,
                mean_on_ns,
                mean_off_ns,
                on_left_ns,
            } => {
                let on_period = |rng: &mut R| exp_ns(*mean_on_ns as f64, rng).max(1);
                // The source starts ON (first burst underway at time zero).
                let mut rem = match *on_left_ns {
                    Some(ns) => ns,
                    None => on_period(rng),
                };
                let on_gap = negative_binomial(*r, *ln_q, rng).as_ns();
                // Walk the gap through the ON budget; every exhaustion
                // inserts one OFF period and a fresh ON period.
                let mut left = on_gap;
                let mut off_total = 0u64;
                while left > rem {
                    left -= rem;
                    if *mean_off_ns > 0 {
                        off_total += exp_ns(*mean_off_ns as f64, rng);
                    }
                    rem = on_period(rng);
                }
                *on_left_ns = Some(rem - left);
                Duration::from_ns(on_gap + off_total)
            }
        }
    }
}

/// `r` geometric slot counts (failures before the first success, by
/// inverse CDF), summed and scaled to the slot.
fn negative_binomial<R: Rng + ?Sized>(r: u32, ln_q: f64, rng: &mut R) -> Duration {
    let slots: u64 = (0..r)
        .map(|_| {
            let u: f64 = rng.gen_range(f64::EPSILON..1.0);
            (u.ln() / ln_q).floor() as u64
        })
        .sum();
    SLOT.scaled(slots)
}

/// An exponential draw of mean `mean_ns`, rounded to whole ns (inverse
/// CDF; the open interval keeps `ln(0)` out).
fn exp_ns<R: Rng + ?Sized>(mean_ns: f64, rng: &mut R) -> u64 {
    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
    (-mean_ns * u.ln()).round() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn gaps(kind: ArrivalKind, rate: f64, n: usize, seed: u64) -> Vec<f64> {
        let mut g = kind.generator(rate).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| g.next_gap(&mut rng).as_ns() as f64)
            .collect()
    }

    fn mean(xs: &[f64]) -> f64 {
        xs.iter().sum::<f64>() / xs.len() as f64
    }

    /// Squared coefficient of variation.
    fn cv2(xs: &[f64]) -> f64 {
        let m = mean(xs);
        xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / xs.len() as f64 / (m * m)
    }

    #[test]
    fn deterministic_is_constant() {
        assert!(gaps(ArrivalKind::Deterministic, 0.5, 10, 0)
            .iter()
            .all(|&g| g == 2_000.0));
    }

    #[test]
    fn poisson_mean_matches_rate() {
        // rate 0.02 /µs -> mean gap 50_000 ns.
        let m = mean(&gaps(ArrivalKind::Poisson, 0.02, 60_000, 42));
        assert!(
            (m - 50_000.0).abs() < 1_500.0,
            "poisson mean {m} far from 50_000"
        );
    }

    #[test]
    fn negative_binomial_mean_matches_rate() {
        for r in [1u32, 3, 8] {
            let kind = ArrivalKind::NegativeBinomial { r };
            let m = mean(&gaps(kind, 0.02, 60_000, 7 + r as u64));
            assert!(
                (m - 50_000.0).abs() < 2_000.0,
                "NB(r={r}) mean {m} far from 50_000"
            );
        }
    }

    #[test]
    fn higher_dispersion_reduces_variance() {
        let var = |r| cv2(&gaps(ArrivalKind::NegativeBinomial { r }, 0.02, 40_000, 99));
        assert!(
            var(8) < var(1) * 0.5,
            "r=8 should be much smoother than geometric"
        );
    }

    #[test]
    fn paper_process_is_geometric_10ns_slots() {
        // Gaps are multiples of the 10 ns slot.
        let kind = ArrivalKind::NegativeBinomial { r: 1 };
        assert!(gaps(kind, 0.01, 100, 1).iter().all(|&g| g % 10.0 == 0.0));
    }

    #[test]
    fn onoff_duty_cycle_scales_the_mean() {
        // 50% duty cycle: long-run rate halves, so the mean gap doubles.
        let kind = ArrivalKind::OnOff {
            r: 1,
            mean_on_us: 200,
            mean_off_us: 200,
        };
        let m = mean(&gaps(kind, 0.02, 60_000, 17));
        assert!(
            (m - 100_000.0).abs() < 5_000.0,
            "on/off mean {m} far from 100_000"
        );
    }

    #[test]
    fn onoff_is_burstier_than_its_inner_process() {
        let plain = cv2(&gaps(
            ArrivalKind::NegativeBinomial { r: 1 },
            0.02,
            40_000,
            55,
        ));
        let bursty = ArrivalKind::OnOff {
            r: 1,
            mean_on_us: 150,
            mean_off_us: 450,
        };
        let bursty = cv2(&gaps(bursty, 0.02, 40_000, 55));
        assert!(
            bursty > plain * 1.5,
            "on/off CV² {bursty} not above inner CV² {plain}"
        );
    }

    #[test]
    fn onoff_zero_off_reduces_to_inner() {
        // No OFF time is ever added: every gap is whole slots, at the
        // inner process's mean.
        let kind = ArrivalKind::OnOff {
            r: 1,
            mean_on_us: 100,
            mean_off_us: 0,
        };
        let xs = gaps(kind, 0.02, 60_000, 3);
        assert!(xs.iter().all(|&g| g % 10.0 == 0.0));
        let m = mean(&xs);
        assert!((m - 50_000.0).abs() < 2_000.0, "mean {m} far from 50_000");
    }

    #[test]
    fn impossible_rate_rejected() {
        // Mean gap below one slot cannot be represented.
        let kind = ArrivalKind::NegativeBinomial { r: 1 };
        assert_eq!(
            kind.generator(200.0).err(),
            Some(TrafficError::RateTooHigh { rate: 200.0 })
        );
    }

    #[test]
    fn onoff_rejects_zero_on_period() {
        let kind = ArrivalKind::OnOff {
            r: 1,
            mean_on_us: 0,
            mean_off_us: 1,
        };
        assert_eq!(
            kind.generator(0.01).err(),
            Some(TrafficError::ZeroDuration {
                what: "mean ON period"
            })
        );
    }
}
