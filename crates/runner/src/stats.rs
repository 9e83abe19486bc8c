//! Streaming statistics: Welford mean/variance with exact parallel merge,
//! Wilson score intervals for rare-event proportions, and weighted variants
//! ([`WeightedWelford`], [`WeightedRate`]) for importance-sampled campaigns
//! where every observation carries a likelihood-ratio weight.

use crate::json::Json;
use crate::trial::Summary;

/// `-ln(0.05)`: the 95% upper confidence bound on a Poisson mean when zero
/// events were observed (divide by the exposure to get a rate bound).
const POISSON_ZERO_EVENT_UPPER_95: f64 = 2.995_732_273_553_991;

/// Welford's online mean/variance accumulator.
///
/// Merging follows Chan et al.'s pairwise update, so batch-wise accumulation
/// merged in a fixed order is deterministic. State round-trips through JSON
/// bit-exactly (floats are stored as raw bit patterns), which is what makes
/// checkpoint/resume reproduce uninterrupted runs to the last ulp.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
}

impl Welford {
    pub fn new() -> Welford {
        Welford::default()
    }

    #[inline]
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
    }

    pub fn merge(&mut self, other: &Welford) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n = self.n + other.n;
        let delta = other.mean - self.mean;
        let nf = n as f64;
        self.mean += delta * (other.n as f64 / nf);
        self.m2 += other.m2 + delta * delta * (self.n as f64 * other.n as f64 / nf);
        self.n = n;
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance.
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            f64::NAN
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Standard error of the mean.
    pub fn std_err(&self) -> f64 {
        if self.n < 2 {
            f64::NAN
        } else {
            (self.variance() / self.n as f64).sqrt()
        }
    }

    /// |`std_err` / mean|; infinite when the mean is zero or before two
    /// samples (an empty or single-sample accumulator has not converged —
    /// returning NaN here would silently defeat `rel_err <= target`
    /// stopping rules, since every NaN comparison is false).
    pub fn rel_err(&self) -> f64 {
        if self.n < 2 {
            return f64::INFINITY;
        }
        let se = self.std_err();
        if self.mean == 0.0 {
            if se == 0.0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            (se / self.mean).abs()
        }
    }

    /// The runner's summary of the mean, with the normal 95% interval
    /// `mean ± 1.96·se`.
    pub fn summary(&self) -> Summary {
        let mean = self.mean();
        let se = self.std_err();
        Summary {
            trials: self.count(),
            mean,
            std_err: se,
            ci_low: mean - 1.96 * se,
            ci_high: mean + 1.96 * se,
            rel_err: self.rel_err(),
        }
    }

    /// Bit-exact state for manifests.
    pub fn save(&self) -> Json {
        Json::obj(vec![
            ("n", Json::U64(self.n)),
            ("mean_bits", Json::U64(self.mean.to_bits())),
            ("m2_bits", Json::U64(self.m2.to_bits())),
        ])
    }

    pub fn load(value: &Json) -> Option<Welford> {
        Some(Welford {
            n: value.get("n")?.as_u64()?,
            mean: f64::from_bits(value.get("mean_bits")?.as_u64()?),
            m2: f64::from_bits(value.get("m2_bits")?.as_u64()?),
        })
    }
}

/// Weighted Welford mean/variance accumulator (West's incremental
/// algorithm with reliability weights).
///
/// Built for importance sampling: each observation `x` carries a
/// likelihood-ratio weight `w`, the mean estimates `E[w x] / E[w]`, and
/// [`WeightedWelford::ess`] reports the effective sample size
/// `(Σw)² / Σw²` — the number of unweighted samples the weighted set is
/// worth. With all weights 1 it reduces to [`Welford`] exactly. Merging
/// follows the same pairwise update, so batch-order merges are
/// deterministic, and state round-trips through JSON bit-exactly.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct WeightedWelford {
    n: u64,
    sum_w: f64,
    sum_w2: f64,
    mean: f64,
    m2: f64,
}

impl WeightedWelford {
    pub fn new() -> WeightedWelford {
        WeightedWelford::default()
    }

    /// Fold in observation `x` with weight `w > 0` (non-positive weights
    /// are ignored: a zero-weight sample carries no information).
    #[inline]
    pub fn push(&mut self, x: f64, w: f64) {
        if w.is_nan() || w <= 0.0 {
            return;
        }
        self.n += 1;
        self.sum_w += w;
        self.sum_w2 += w * w;
        let delta = x - self.mean;
        self.mean += delta * (w / self.sum_w);
        self.m2 += w * delta * (x - self.mean);
    }

    pub fn merge(&mut self, other: &WeightedWelford) {
        if other.sum_w == 0.0 {
            return;
        }
        if self.sum_w == 0.0 {
            *self = *other;
            return;
        }
        let sum_w = self.sum_w + other.sum_w;
        let delta = other.mean - self.mean;
        self.mean += delta * (other.sum_w / sum_w);
        self.m2 += other.m2 + delta * delta * (self.sum_w * other.sum_w / sum_w);
        self.sum_w = sum_w;
        self.sum_w2 += other.sum_w2;
        self.n += other.n;
    }

    /// Observations folded in (regardless of weight).
    pub fn count(&self) -> u64 {
        self.n
    }

    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.mean
        }
    }

    /// Unbiased (reliability-weights) sample variance.
    pub fn variance(&self) -> f64 {
        let denom = self.sum_w - self.sum_w2 / self.sum_w;
        if self.n < 2 || denom.is_nan() || denom <= 0.0 {
            f64::NAN
        } else {
            self.m2 / denom
        }
    }

    /// Effective sample size `(Σw)² / Σw²`; 0 before the first sample.
    pub fn ess(&self) -> f64 {
        if self.sum_w2 > 0.0 {
            self.sum_w * self.sum_w / self.sum_w2
        } else {
            0.0
        }
    }

    /// Standard error of the weighted mean, using the effective sample
    /// size in place of the raw count.
    pub fn std_err(&self) -> f64 {
        let ess = self.ess();
        if ess > 0.0 {
            (self.variance() / ess).sqrt()
        } else {
            f64::NAN
        }
    }

    /// Bit-exact state for manifests.
    pub fn save(&self) -> Json {
        Json::obj(vec![
            ("n", Json::U64(self.n)),
            ("sum_w_bits", Json::U64(self.sum_w.to_bits())),
            ("sum_w2_bits", Json::U64(self.sum_w2.to_bits())),
            ("mean_bits", Json::U64(self.mean.to_bits())),
            ("m2_bits", Json::U64(self.m2.to_bits())),
        ])
    }

    pub fn load(value: &Json) -> Option<WeightedWelford> {
        Some(WeightedWelford {
            n: value.get("n")?.as_u64()?,
            sum_w: f64::from_bits(value.get("sum_w_bits")?.as_u64()?),
            sum_w2: f64::from_bits(value.get("sum_w2_bits")?.as_u64()?),
            mean: f64::from_bits(value.get("mean_bits")?.as_u64()?),
            m2: f64::from_bits(value.get("m2_bits")?.as_u64()?),
        })
    }
}

/// Weighted rare-event rate over a continuous exposure (events per
/// pool-year, say), where each event carries a likelihood-ratio weight.
///
/// The estimate is `Σw / exposure`; its standard error uses the
/// compound-Poisson approximation `se = sqrt(Σw²) / exposure`, which for
/// unit weights reduces to the classic counting-statistics
/// `sqrt(N) / exposure`. All state is plain sums, so batch-order merges
/// are deterministic and JSON round-trips are bit-exact.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct WeightedRate {
    exposure: f64,
    events: u64,
    sum_w: f64,
    sum_w2: f64,
}

impl WeightedRate {
    pub fn new() -> WeightedRate {
        WeightedRate::default()
    }

    /// Add observation time (pool-years, disk-hours, ...) with no event.
    #[inline]
    pub fn add_exposure(&mut self, exposure: f64) {
        self.exposure += exposure;
    }

    /// Record one event with likelihood weight `w > 0` (non-positive
    /// weights are ignored).
    #[inline]
    pub fn push(&mut self, w: f64) {
        if w.is_nan() || w <= 0.0 {
            return;
        }
        self.events += 1;
        self.sum_w += w;
        self.sum_w2 += w * w;
    }

    pub fn merge(&mut self, other: &WeightedRate) {
        self.exposure += other.exposure;
        self.events += other.events;
        self.sum_w += other.sum_w;
        self.sum_w2 += other.sum_w2;
    }

    /// Raw (unweighted) event count.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Total observation time.
    pub fn exposure(&self) -> f64 {
        self.exposure
    }

    /// Weighted event count `Σw`.
    pub fn weighted_events(&self) -> f64 {
        self.sum_w
    }

    /// Weighted rate `Σw / exposure`; 0 with no exposure (an empty or
    /// zero-trial resume must not yield NaN in reports).
    pub fn rate(&self) -> f64 {
        if self.exposure > 0.0 {
            self.sum_w / self.exposure
        } else {
            0.0
        }
    }

    /// Standard error of the rate; 0 with no exposure.
    pub fn std_err(&self) -> f64 {
        if self.exposure > 0.0 {
            self.sum_w2.sqrt() / self.exposure
        } else {
            0.0
        }
    }

    /// Normal-approximation 95% interval on the rate, clamped at zero.
    pub fn ci95(&self) -> (f64, f64) {
        let rate = self.rate();
        let half = 1.96 * self.std_err();
        ((rate - half).max(0.0), rate + half)
    }

    /// `se / rate`; infinite until the first event (the natural rare-event
    /// stopping criterion, matching `1/sqrt(N)` for unit weights).
    pub fn rel_err(&self) -> f64 {
        if self.sum_w > 0.0 {
            self.sum_w2.sqrt() / self.sum_w
        } else {
            f64::INFINITY
        }
    }

    /// Effective sample size `(Σw)² / Σw²` of the event weights; 0 before
    /// the first event.
    pub fn ess(&self) -> f64 {
        if self.sum_w2 > 0.0 {
            self.sum_w * self.sum_w / self.sum_w2
        } else {
            0.0
        }
    }

    /// Exact Poisson 95% upper bound on the rate after observing **zero**
    /// events: `-ln(0.05) / exposure`. Infinite with no exposure. For a
    /// biased (importance-sampled) process this is conservative: biasing
    /// only makes events more likely, so zero biased events bounds the
    /// true rate at least as tightly.
    pub fn zero_event_upper_95(&self) -> f64 {
        if self.exposure > 0.0 {
            POISSON_ZERO_EVENT_UPPER_95 / self.exposure
        } else {
            f64::INFINITY
        }
    }

    /// Bit-exact state for manifests.
    pub fn save(&self) -> Json {
        Json::obj(vec![
            ("exposure_bits", Json::U64(self.exposure.to_bits())),
            ("events", Json::U64(self.events)),
            ("sum_w_bits", Json::U64(self.sum_w.to_bits())),
            ("sum_w2_bits", Json::U64(self.sum_w2.to_bits())),
        ])
    }

    pub fn load(value: &Json) -> Option<WeightedRate> {
        Some(WeightedRate {
            exposure: f64::from_bits(value.get("exposure_bits")?.as_u64()?),
            events: value.get("events")?.as_u64()?,
            sum_w: f64::from_bits(value.get("sum_w_bits")?.as_u64()?),
            sum_w2: f64::from_bits(value.get("sum_w2_bits")?.as_u64()?),
        })
    }
}

/// Counter for rare-event proportions with Wilson score intervals.
///
/// The Wilson interval stays honest at tiny hit counts (even zero hits),
/// where the Wald interval collapses to width zero — exactly the regime of
/// catastrophic-failure estimation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Proportion {
    trials: u64,
    hits: u64,
}

impl Proportion {
    pub fn new() -> Proportion {
        Proportion::default()
    }

    #[inline]
    pub fn push(&mut self, hit: bool) {
        self.trials += 1;
        self.hits += hit as u64;
    }

    pub fn merge(&mut self, other: &Proportion) {
        self.trials += other.trials;
        self.hits += other.hits;
    }

    pub fn trials(&self) -> u64 {
        self.trials
    }

    pub fn hits(&self) -> u64 {
        self.hits
    }

    pub fn estimate(&self) -> f64 {
        if self.trials == 0 {
            f64::NAN
        } else {
            self.hits as f64 / self.trials as f64
        }
    }

    /// Wilson score interval at critical value `z` (1.96 for 95%).
    pub fn wilson(&self, z: f64) -> (f64, f64) {
        if self.trials == 0 {
            return (0.0, 1.0);
        }
        let n = self.trials as f64;
        let p = self.hits as f64 / n;
        let z2 = z * z;
        let denom = 1.0 + z2 / n;
        let center = (p + z2 / (2.0 * n)) / denom;
        let half = (z / denom) * (p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt();
        ((center - half).max(0.0), (center + half).min(1.0))
    }

    /// Half-width of the 95% Wilson interval.
    pub fn wilson_half_width(&self) -> f64 {
        let (lo, hi) = self.wilson(1.96);
        (hi - lo) / 2.0
    }

    /// Relative half-width against the point estimate (infinite until the
    /// first hit) — the natural stopping criterion for rare events.
    pub fn rel_half_width(&self) -> f64 {
        if self.hits == 0 {
            f64::INFINITY
        } else {
            self.wilson_half_width() / self.estimate()
        }
    }

    /// The runner's summary of the proportion, with the 95% Wilson
    /// interval.
    pub fn summary(&self) -> Summary {
        let (lo, hi) = self.wilson(1.96);
        Summary {
            trials: self.trials(),
            mean: self.estimate(),
            std_err: self.wilson_half_width() / 1.96,
            ci_low: lo,
            ci_high: hi,
            rel_err: self.rel_half_width(),
        }
    }

    pub fn save(&self) -> Json {
        Json::obj(vec![
            ("trials", Json::U64(self.trials)),
            ("hits", Json::U64(self.hits)),
        ])
    }

    pub fn load(value: &Json) -> Option<Proportion> {
        Some(Proportion {
            trials: value.get("trials")?.as_u64()?,
            hits: value.get("hits")?.as_u64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

    #[test]
    fn welford_matches_two_pass() {
        let mut rng = SplitMix64::new(3);
        let xs: Vec<f64> = (0..5000).map(|_| rng.next_f64() * 10.0 - 2.0).collect();
        let mut w = Welford::new();
        for &x in &xs {
            w.push(x);
        }
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (xs.len() - 1) as f64;
        assert!((w.mean() - mean).abs() < 1e-12);
        assert!((w.variance() - var).abs() < 1e-10);
    }

    #[test]
    fn merge_equals_sequential() {
        let mut rng = SplitMix64::new(4);
        let xs: Vec<f64> = (0..1000).map(|_| rng.next_f64()).collect();
        let mut whole = Welford::new();
        for &x in &xs {
            whole.push(x);
        }
        let mut left = Welford::new();
        let mut right = Welford::new();
        for &x in &xs[..317] {
            left.push(x);
        }
        for &x in &xs[317..] {
            right.push(x);
        }
        left.merge(&right);
        assert_eq!(left.count(), whole.count());
        assert!((left.mean() - whole.mean()).abs() < 1e-12);
        assert!((left.variance() - whole.variance()).abs() < 1e-12);
    }

    #[test]
    fn welford_state_round_trips_bit_exact() {
        let mut w = Welford::new();
        for i in 0..97 {
            w.push((i as f64).sin());
        }
        let back = Welford::load(&w.save()).unwrap();
        assert_eq!(back, w);
    }

    #[test]
    fn wilson_brackets_true_p() {
        // 10_000 Bernoulli(0.03) trials: the 95% interval should contain
        // 0.03 for this fixed seed.
        let mut rng = SplitMix64::new(5);
        let mut prop = Proportion::new();
        for _ in 0..10_000 {
            prop.push(rng.next_f64() < 0.03);
        }
        let (lo, hi) = prop.wilson(1.96);
        assert!(lo < 0.03 && 0.03 < hi, "({lo}, {hi})");
        assert!(hi - lo < 0.02);
    }

    #[test]
    fn rel_err_is_infinite_before_two_samples() {
        // NaN here would make `rel_err <= target` stopping rules silently
        // false-converge-never/always; empty accumulators must read as
        // "not converged", not NaN.
        let mut w = Welford::new();
        assert!(w.rel_err().is_infinite());
        w.push(3.5);
        assert!(w.rel_err().is_infinite());
        w.push(4.5);
        assert!(w.rel_err().is_finite());
    }

    #[test]
    fn weighted_welford_unit_weights_match_welford() {
        let mut rng = SplitMix64::new(8);
        let mut plain = Welford::new();
        let mut weighted = WeightedWelford::new();
        for _ in 0..3000 {
            let x = rng.next_f64() * 4.0 - 1.0;
            plain.push(x);
            weighted.push(x, 1.0);
        }
        assert_eq!(weighted.count(), plain.count());
        assert!((weighted.mean() - plain.mean()).abs() < 1e-12);
        assert!((weighted.variance() - plain.variance()).abs() < 1e-9);
        assert!((weighted.ess() - 3000.0).abs() < 1e-9);
    }

    #[test]
    fn weighted_welford_matches_two_pass() {
        let mut rng = SplitMix64::new(9);
        let data: Vec<(f64, f64)> = (0..2000)
            .map(|_| (rng.next_f64() * 10.0, rng.next_f64() + 0.1))
            .collect();
        let mut w = WeightedWelford::new();
        for &(x, wt) in &data {
            w.push(x, wt);
        }
        let sum_w: f64 = data.iter().map(|&(_, wt)| wt).sum();
        let mean = data.iter().map(|&(x, wt)| x * wt).sum::<f64>() / sum_w;
        let m2: f64 = data.iter().map(|&(x, wt)| wt * (x - mean).powi(2)).sum();
        let sum_w2: f64 = data.iter().map(|&(_, wt)| wt * wt).sum();
        let var = m2 / (sum_w - sum_w2 / sum_w);
        assert!((w.mean() - mean).abs() < 1e-10);
        assert!((w.variance() - var).abs() < 1e-8);
        assert!((w.ess() - sum_w * sum_w / sum_w2).abs() < 1e-6);
    }

    #[test]
    fn weighted_welford_merge_equals_sequential_and_round_trips() {
        let mut rng = SplitMix64::new(10);
        let data: Vec<(f64, f64)> = (0..800)
            .map(|_| (rng.next_f64(), rng.next_f64() * 2.0 + 0.01))
            .collect();
        let mut whole = WeightedWelford::new();
        for &(x, wt) in &data {
            whole.push(x, wt);
        }
        let mut left = WeightedWelford::new();
        let mut right = WeightedWelford::new();
        for &(x, wt) in &data[..271] {
            left.push(x, wt);
        }
        for &(x, wt) in &data[271..] {
            right.push(x, wt);
        }
        left.merge(&right);
        assert_eq!(left.count(), whole.count());
        assert!((left.mean() - whole.mean()).abs() < 1e-12);
        assert!((left.variance() - whole.variance()).abs() < 1e-10);
        let back = WeightedWelford::load(&left.save()).unwrap();
        assert_eq!(back, left);
    }

    #[test]
    fn weighted_welford_ignores_non_positive_weights() {
        let mut w = WeightedWelford::new();
        w.push(5.0, 0.0);
        w.push(5.0, -1.0);
        w.push(5.0, f64::NAN);
        assert_eq!(w.count(), 0);
        assert!(w.mean().is_nan());
        w.push(7.0, 2.0);
        assert_eq!(w.mean(), 7.0);
    }

    #[test]
    fn weighted_rate_unit_weights_match_poisson_counting() {
        let mut r = WeightedRate::new();
        r.add_exposure(50.0);
        r.push(1.0);
        r.push(1.0);
        assert_eq!(r.events(), 2);
        assert!((r.rate() - 0.04).abs() < 1e-15);
        assert!((r.std_err() - 2.0f64.sqrt() / 50.0).abs() < 1e-15);
        assert!((r.rel_err() - 1.0 / 2.0f64.sqrt()).abs() < 1e-15);
        assert!((r.ess() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn weighted_rate_zero_exposure_yields_no_nan() {
        let r = WeightedRate::new();
        assert_eq!(r.rate(), 0.0);
        assert_eq!(r.std_err(), 0.0);
        assert_eq!(r.ci95(), (0.0, 0.0));
        assert!(r.rel_err().is_infinite());
        assert_eq!(r.ess(), 0.0);
        assert!(r.zero_event_upper_95().is_infinite());
    }

    #[test]
    fn weighted_rate_zero_event_upper_bound() {
        let mut r = WeightedRate::new();
        r.add_exposure(100.0);
        // -ln(0.05)/100: the exact 95% Poisson upper bound at zero events.
        assert!((r.zero_event_upper_95() - 0.02995732273553991).abs() < 1e-15);
    }

    #[test]
    fn weighted_rate_merge_and_round_trip() {
        let mut a = WeightedRate::new();
        a.add_exposure(10.0);
        a.push(0.25);
        let mut b = WeightedRate::new();
        b.add_exposure(30.0);
        b.push(0.5);
        b.push(0.125);
        a.merge(&b);
        assert_eq!(a.events(), 3);
        assert!((a.exposure() - 40.0).abs() < 1e-15);
        assert!((a.weighted_events() - 0.875).abs() < 1e-15);
        let back = WeightedRate::load(&a.save()).unwrap();
        assert_eq!(back, a);
    }

    #[test]
    fn wilson_zero_hits_still_informative() {
        let mut prop = Proportion::new();
        for _ in 0..1000 {
            prop.push(false);
        }
        let (lo, hi) = prop.wilson(1.96);
        assert_eq!(lo, 0.0);
        assert!(hi > 0.0 && hi < 0.01, "hi={hi}");
        assert!(prop.rel_half_width().is_infinite());
    }
}
