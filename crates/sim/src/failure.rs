//! Disk time-to-failure model (paper §3 "Fault simulation": distributions,
//! rules, or real traces).
//!
//! The paper's durability results use independent exponential failures with
//! a 1% annual failure rate, the one model here. Recorded failure logs
//! replay through [`crate::trace::FailureTrace`] instead.
//!
//! Failure-arrival times are not sampled here: the inverse-CDF exponential
//! sampler is private to [`crate::kernel`], so every arrival is drawn
//! through a [`HazardKernel`](crate::kernel::HazardKernel). This module
//! keeps the model and the Poisson sampler of the pools' rare-stripe
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
}

impl FailureModel {
    /// The paper's default: exponential with 1% AFR.
    pub fn paper_default() -> FailureModel {
        FailureModel::Exponential { afr: 0.01 }
    }

    /// Mean time to failure.
    pub fn mttf(&self) -> mlec_units::Duration {
        let FailureModel::Exponential { afr } = self;
        mlec_units::Duration::from_hours(crate::config::HOURS_PER_YEAR / afr)
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

#[cfg(test)]
mod tests {
    use super::*;
    use mlec_runner::rng::ChaCha12Rng;

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
