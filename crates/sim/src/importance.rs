//! Forced-failure importance sampling for the stage-1 pool simulator.
//!
//! At the paper's true 1% AFR a catastrophic local-pool failure is a
//! once-per-10⁸-pool-years event for clustered pools and far rarer for
//! declustered ones — direct simulation observes nothing (the reason the
//! paper's §3 splitting method exists). The fix is a *biased* failure
//! process: per-disk exponential arrivals are sampled at `b × rate` with a
//! state-dependent multiplier `b`, and every trajectory carries the exact
//! likelihood ratio of the true measure against the biased one, so each
//! observed catastrophe contributes its weight — not 1 — to the rate
//! estimate. The estimator stays unbiased at any `b > 0`.
//!
//! ## Exact likelihood-ratio accounting
//!
//! Failure arrivals form a (state-modulated) Poisson process with true
//! intensity `r(t)` — surviving disks × per-disk rate — simulated at
//! `b(t) r(t)`. For a trajectory with failures at times `t_i`, the
//! Radon–Nikodym derivative of the true law against the biased law is
//!
//! ```text
//! L  =  Π_i 1/b(t_i)  ×  exp( ∫ (b(t) − 1) r(t) dt )
//! ```
//!
//! The hazard kernel accumulates `ln L` in two moves that mirror the
//! simulator's event loop exactly: an *exposure* adds `(b−1) r Δt` for
//! every elapsed interval ([`HazardKernel::advance_to`]), an *event*
//! subtracts `ln b` at every failure arrival
//! ([`HazardKernel::record_failure`]). Repairs, detection delays, and the
//! Poisson rare-stripe draws are identical under both measures and
//! contribute nothing.
//!
//! ## Regeneration: weights reset at every return to healthy
//!
//! The pool is a regenerative process — every return to the all-healthy
//! state is a renewal point (arrivals are memoryless). Weights therefore
//! reset at each regeneration and events are weighted by the *current
//! excursion's* likelihood ratio only. This is the standard
//! measure-specific dynamic-IS refinement: still exactly unbiased (the
//! optional-stopping argument applies excursion by excursion) but immune
//! to the weight degeneracy a whole-trajectory product suffers over long
//! horizons. Each completed excursion's final weight is recorded; their
//! mean is 1 in expectation — the built-in unbiasedness diagnostic the
//! tests and figure binaries report.
//!
//! With [`FailureBias::NONE`] every multiplier is 1, `ln L` stays exactly
//! 0.0, and the biased simulator is bit-identical to the direct one (the
//! RNG consumes the same draws).
//!
//! This module holds only the measure change, [`FailureBias`]. The running
//! weight is private to [`crate::kernel`]: the [`HazardKernel`] is the
//! single owner of the exposure/event moves (and of the RNG stream they
//! must stay in lockstep with), so the likelihood-ratio bookkeeping lives
//! in exactly one place, and the compiler keeps it there.
//!
//! [`HazardKernel`]: crate::kernel::HazardKernel
//! [`HazardKernel::advance_to`]: crate::kernel::HazardKernel::advance_to
//! [`HazardKernel::record_failure`]: crate::kernel::HazardKernel::record_failure

use crate::config::MlecDeployment;
use crate::failure::FailureModel;

/// State-dependent rate multiplier on per-disk failure arrivals.
///
/// `healthy` applies while no disk is failed, `degraded` while at least
/// one is. The interesting regime is `healthy = 1` (first failures are
/// common — no bias needed) with `degraded ≫ 1` (forcing the overlapping
/// failures that escalate a degraded pool to catastrophe).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FailureBias {
    /// Multiplier while the pool has no failed disk.
    pub healthy: f64,
    /// Multiplier while at least one disk is failed.
    pub degraded: f64,
}

impl FailureBias {
    /// No biasing: the direct simulator, bit for bit.
    pub const NONE: FailureBias = FailureBias {
        healthy: 1.0,
        degraded: 1.0,
    };

    /// Bias only the degraded state by `mult` (the usual configuration).
    pub fn degraded_only(mult: f64) -> FailureBias {
        assert!(
            mult.is_finite() && mult > 0.0,
            "bias multiplier must be finite and positive, got {mult}"
        );
        FailureBias {
            healthy: 1.0,
            degraded: mult,
        }
    }

    /// A sensible default for the deployment: pick `degraded` so that a
    /// degraded pool sees about two biased failure arrivals per
    /// single-disk repair window — enough to force escalation chains with
    /// non-negligible probability, without driving the weights to zero.
    /// Unbiased when the failure rate is already high enough (the
    /// multiplier would be ≤ 1) or when the model has no finite rate.
    pub fn auto(dep: &MlecDeployment, model: &FailureModel) -> FailureBias {
        let rate = 1.0 / model.mttf().to_hours(); // per-disk failures/hour
        if !rate.is_finite() || rate <= 0.0 {
            return FailureBias::NONE;
        }
        let d = dep.local_pools().pool_size();
        let window_h = crate::bandwidth::single_disk_repair_time(dep).to_hours();
        let others = (d.saturating_sub(1)).max(1) as f64;
        let mult = 2.0 / (others * rate * window_h);
        FailureBias {
            healthy: 1.0,
            degraded: mult.clamp(1.0, 1e6),
        }
    }

    /// The multiplier in effect with `failed_disks` concurrent failures.
    #[inline]
    pub fn multiplier(&self, failed_disks: u32) -> f64 {
        if failed_disks == 0 {
            self.healthy
        } else {
            self.degraded
        }
    }

    /// True when both multipliers are exactly 1 (direct simulation).
    pub fn is_unbiased(&self) -> bool {
        self.healthy == 1.0 && self.degraded == 1.0
    }
}

impl Default for FailureBias {
    fn default() -> FailureBias {
        FailureBias::NONE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlec_topology::MlecScheme;

    #[test]
    fn auto_bias_is_large_at_paper_afr_and_unity_when_saturated() {
        let dep = MlecDeployment::paper_default(MlecScheme::CC);
        let low = FailureBias::auto(&dep, &FailureModel::Exponential { afr: 0.01 });
        assert_eq!(low.healthy, 1.0);
        assert!(
            low.degraded > 100.0 && low.degraded < 1e5,
            "degraded={}",
            low.degraded
        );
        // At an already-inflated AFR the window sees plenty of arrivals;
        // auto must not bias further.
        let high = FailureBias::auto(&dep, &FailureModel::Exponential { afr: 50.0 });
        assert!(high.is_unbiased(), "degraded={}", high.degraded);
    }

    #[test]
    fn multiplier_switches_on_degraded_state() {
        let bias = FailureBias::degraded_only(300.0);
        assert_eq!(bias.multiplier(0), 1.0);
        assert_eq!(bias.multiplier(1), 300.0);
        assert_eq!(bias.multiplier(7), 300.0);
        assert!(!bias.is_unbiased());
        assert!(FailureBias::NONE.is_unbiased());
    }
}
