//! Disk time-to-failure models (paper §3 "Fault simulation": distributions,
//! rules, or real traces).
//!
//! The paper's durability results use independent exponential failures with
//! a 1% annual failure rate; Weibull is provided for infant-mortality /
//! wear-out sensitivity studies and trace playback for replaying recorded
//! failure logs.
//!
//! Failure-arrival times are not sampled here: the inverse-CDF exponential
//! sampler is private to [`crate::kernel`], so every arrival is drawn
//! through a [`HazardKernel`](crate::kernel::HazardKernel). This module
//! keeps the models and the Poisson sampler of the pools' rare-stripe
//! thinning, a draw that is identical under the true and biased measures.

use mlec_runner::TrialRng;

/// A time-to-failure model for a single disk.
#[derive(Debug, Clone, PartialEq)]
pub enum FailureModel {
    /// Memoryless failures at a constant hazard rate (AFR per year).
    Exponential {
        /// Annual failure rate, e.g. 0.01.
        afr: f64,
    },
    /// Weibull-distributed time to failure.
    Weibull {
        /// Shape parameter (`< 1` infant mortality, `> 1` wear-out).
        shape: f64,
        /// Scale parameter in hours (the 63.2% life quantile).
        scale_hours: f64,
    },
    /// Replay an explicit list of failure times (hours, ascending).
    Trace {
        /// Failure timestamps in hours.
        times: Vec<f64>,
    },
}

impl FailureModel {
    /// The paper's default: exponential with 1% AFR.
    pub fn paper_default() -> FailureModel {
        FailureModel::Exponential { afr: 0.01 }
    }

    /// Mean time to failure (infinite for an exhausted trace).
    pub fn mttf(&self) -> mlec_units::Duration {
        let hours = match self {
            FailureModel::Exponential { afr } => crate::config::HOURS_PER_YEAR / afr,
            FailureModel::Weibull { shape, scale_hours } => {
                scale_hours * gamma_fn(1.0 + 1.0 / shape)
            }
            FailureModel::Trace { times } => {
                if times.is_empty() {
                    f64::INFINITY
                } else {
                    // Mean inter-arrival spacing of the trace.
                    // PANICS: the enclosing branch established the trace has events.
                    let span = times.last().unwrap() - times.first().unwrap();
                    if times.len() > 1 {
                        span / (times.len() - 1) as f64
                    } else {
                        f64::INFINITY
                    }
                }
            }
        };
        mlec_units::Duration::from_hours(hours)
    }
}

/// Sample a Poisson variate (Knuth's method for small means, normal
/// approximation above 64 — the census code only needs "0 / small / huge").
pub fn sample_poisson(rng: &mut TrialRng, mean: f64) -> u64 {
    assert!(!mean.is_nan(), "Poisson mean must not be NaN");
    if mean <= 0.0 {
        return 0;
    }
    if mean.is_infinite() {
        return u64::MAX;
    }
    if mean > 64.0 {
        // Normal approximation, clamped at zero.
        let z: f64 = sample_standard_normal(rng);
        return (mean + z * mean.sqrt()).round().max(0.0) as u64;
    }
    let l = (-mean).exp();
    let mut k = 0u64;
    let mut p = 1.0;
    loop {
        p *= rng.gen_f64(0.0, 1.0);
        if p <= l {
            return k;
        }
        k += 1;
    }
}

/// Box–Muller standard normal.
fn sample_standard_normal(rng: &mut TrialRng) -> f64 {
    let u1 = rng.gen_f64(f64::MIN_POSITIVE, 1.0);
    let u2 = rng.gen_f64(0.0, 1.0);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Lanczos approximation of the Gamma function (for Weibull MTTF and the
/// pool simulator's Weibull renewal rate — the truncated Stirling series
/// this crate once used for the latter was off by ~0.2% near `x = 1`,
/// silently biasing every Weibull per-disk rate).
pub(crate) fn gamma_fn(x: f64) -> f64 {
    // Coefficients for g = 7, n = 9.
    const G: f64 = 7.0;
    // Canonical published coefficients, kept verbatim.
    #[allow(clippy::excessive_precision)]
    const C: [f64; 9] = [
        0.99999999999980993,
        676.5203681218851,
        -1259.1392167224028,
        771.32342877765313,
        -176.61502916214059,
        12.507343278686905,
        -0.13857109526572012,
        9.9843695780195716e-6,
        1.5056327351493116e-7,
    ];
    if x < 0.5 {
        std::f64::consts::PI / ((std::f64::consts::PI * x).sin() * gamma_fn(1.0 - x))
    } else {
        let x = x - 1.0;
        // PANICS: `C` is a fixed non-empty Lanczos coefficient table.
        let mut a = C[0];
        let t = x + G + 0.5;
        for (i, &c) in C.iter().enumerate().skip(1) {
            a += c / (x + i as f64);
        }
        (2.0 * std::f64::consts::PI).sqrt() * t.powf(x + 0.5) * (-t).exp() * a
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlec_runner::rng::ChaCha12Rng;

    #[test]
    fn weibull_shape_one_is_exponential() {
        let model = FailureModel::Weibull {
            shape: 1.0,
            scale_hours: 1000.0,
        };
        assert!((model.mttf().to_hours() - 1000.0).abs() < 1.0);
    }

    #[test]
    fn weibull_wearout_mttf() {
        // Shape 2: MTTF = scale * Gamma(1.5) = scale * sqrt(pi)/2.
        let model = FailureModel::Weibull {
            shape: 2.0,
            scale_hours: 100.0,
        };
        let expected = 100.0 * (std::f64::consts::PI).sqrt() / 2.0;
        assert!((model.mttf().to_hours() - expected).abs() < 0.01);
    }

    #[test]
    fn lanczos_gamma_matches_known_values() {
        // The accuracy bar the pool simulator's Weibull rate depends on:
        // a truncated Stirling series is ~2e-3 off near x = 1; Lanczos is
        // good to ~1e-13 relative everywhere we evaluate it.
        let cases = [
            (0.5, std::f64::consts::PI.sqrt()),
            (1.0, 1.0),
            (1.5, std::f64::consts::PI.sqrt() / 2.0),
            (2.0, 1.0),
            (3.0, 2.0),
            (4.0, 6.0),
            (5.0, 24.0),
            (7.5, 1871.254305797788),
        ];
        for (x, expect) in cases {
            let got = gamma_fn(x);
            assert!(
                ((got - expect) / expect).abs() < 1e-12,
                "Gamma({x}) = {got}, expected {expect}"
            );
        }
    }

    #[test]
    fn lanczos_gamma_beats_truncated_stirling_near_one() {
        // Regression for the statistical_gamma bug: the old one-term
        // Stirling series was ~0.2% off at Gamma(1 + 1/shape) for shape
        // near 1, the exact regime every Weibull per-disk rate lives in.
        let stirling = |v: f64| -> f64 {
            ((v - 0.5) * v.ln() - v + 0.5 * (2.0 * std::f64::consts::PI).ln() + 1.0 / (12.0 * v))
                .exp()
        };
        let x = 1.1; // Gamma(1 + 1/shape) for a shape-10 wear-out Weibull
        let exact = gamma_fn(x);
        let old = stirling(x);
        assert!(
            ((exact - 0.951_350_769_866_873_2) / exact).abs() < 1e-12,
            "exact={exact}"
        );
        assert!(
            ((old - exact) / exact).abs() > 1e-3,
            "Stirling at {x} should be visibly wrong: old={old} exact={exact}"
        );
    }

    #[test]
    fn poisson_mean_and_zero() {
        let mut rng = ChaCha12Rng::seed_from_u64(4);
        assert_eq!(sample_poisson(&mut rng, 0.0), 0);
        let n = 20_000;
        for mean in [0.5f64, 5.0, 200.0] {
            let total: u64 = (0..n).map(|_| sample_poisson(&mut rng, mean)).sum();
            let empirical = total as f64 / n as f64;
            assert!(
                (empirical - mean).abs() / mean < 0.05,
                "mean={mean} empirical={empirical}"
            );
        }
    }
}
