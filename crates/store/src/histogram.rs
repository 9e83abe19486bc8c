//! Streaming latency histograms with bounded error, HDR-style.
//!
//! Values (microseconds) land in buckets that are exact below 64 µs and
//! logarithmic above, with 32 sub-buckets per octave — ≤ ~1.6% relative
//! quantile error, constant memory, O(1) insert, and deterministic
//! mergeable state. This is what lets a million-op run keep p50/p99/p999
//! per phase without storing per-op samples.

/// Sub-buckets per octave above the exact range.
const SUBS: u64 = 32;
/// Values below `2 * SUBS` get exact (1 µs) buckets.
const EXACT: u64 = 2 * SUBS;
/// Total buckets: exact range + 58 octaves × 32 subs covers all of `u64`.
const BUCKETS: usize = (EXACT + 58 * SUBS) as usize;

/// Streaming log-bucketed histogram of microsecond latencies.
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    counts: Vec<u64>,
    total: u64,
    sum: u64,
    max: u64,
}

impl Default for LatencyHistogram {
    fn default() -> LatencyHistogram {
        LatencyHistogram::new()
    }
}

fn bucket_of(v: u64) -> usize {
    if v < EXACT {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros() as u64; // >= 6 here
    let sub = (v >> (msb - 5)) & (SUBS - 1);
    ((msb - 5) * SUBS + EXACT - SUBS + sub) as usize
}

/// Midpoint representative of bucket `i`: the center of the bucket's value
/// range, so quantile estimates are unbiased within a bucket (worst-case
/// relative error `width/2 / lower_edge <= 1/64` in the log range). Exact
/// buckets represent themselves.
fn representative(i: usize) -> u64 {
    let i = i as u64;
    if i < EXACT {
        return i;
    }
    let octave = (i - EXACT) / SUBS; // 0-based above the exact range
    let sub = (i - EXACT) % SUBS;
    let base = 1u64 << (octave + 6);
    let width = base / SUBS;
    base + sub * width + width / 2
}

impl LatencyHistogram {
    /// Empty histogram.
    pub fn new() -> LatencyHistogram {
        LatencyHistogram {
            counts: vec![0; BUCKETS],
            total: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Record one latency (µs).
    pub fn record(&mut self, us: u64) {
        #[expect(
            clippy::indexing_slicing,
            reason = "`bucket_of` saturates into the fixed bucket array."
        )]
        let count = &mut self.counts[bucket_of(us)];
        *count += 1;
        self.total += 1;
        self.sum = self.sum.saturating_add(us);
        self.max = self.max.max(us);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Mean latency (µs); 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Largest recorded value (exact, not bucketed).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The `q`-quantile (`0 < q <= 1`) as the representative of the bucket
    /// holding the `ceil(q * n)`-th smallest sample; 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        if rank == self.total {
            return self.max; // the top sample is tracked exactly
        }
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return representative(i).min(self.max);
            }
        }
        self.max
    }

    /// Fold another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_below_64us() {
        let mut h = LatencyHistogram::new();
        for v in 0..64u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 64);
        assert_eq!(h.quantile(0.5), 31);
        assert_eq!(h.quantile(1.0), 63);
    }

    #[test]
    fn bounded_relative_error_above() {
        // Every bucket representative is within ~1/32 of the true value.
        for v in [100u64, 999, 12_345, 1_000_000, 123_456_789] {
            let r = representative(bucket_of(v)) as f64;
            let rel = (r - v as f64).abs() / v as f64;
            assert!(rel < 0.04, "v={v} repr={r} rel={rel}");
        }
    }

    #[test]
    fn quantiles_of_a_known_distribution() {
        let mut h = LatencyHistogram::new();
        // 990 samples at ~1ms, 10 at ~100ms.
        for _ in 0..990 {
            h.record(1_000);
        }
        for _ in 0..10 {
            h.record(100_000);
        }
        let p50 = h.quantile(0.5);
        let p99 = h.quantile(0.99);
        let p999 = h.quantile(0.999);
        assert!((p50 as f64 - 1_000.0).abs() / 1_000.0 < 0.05, "p50={p50}");
        assert!((p99 as f64 - 1_000.0).abs() / 1_000.0 < 0.05, "p99={p99}");
        assert!(
            (p999 as f64 - 100_000.0).abs() / 100_000.0 < 0.05,
            "p999={p999}"
        );
        assert_eq!(h.max(), 100_000);
    }

    #[test]
    fn merge_matches_pooled_recording() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut pooled = LatencyHistogram::new();
        for i in 0..1000u64 {
            let v = i * 37 % 50_000;
            if i % 2 == 0 { &mut a } else { &mut b }.record(v);
            pooled.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), pooled.count());
        for q in [0.5, 0.9, 0.99, 0.999] {
            assert_eq!(a.quantile(q), pooled.quantile(q));
        }
        assert!((a.mean() - pooled.mean()).abs() < 1e-9);
    }

    #[test]
    fn representative_round_trips_every_bucket() {
        // Exhaustive over all 1920 buckets: the representative must land
        // back in its own bucket (midpoint, not the upper edge — the upper
        // edge of the top octave would overflow u64), the bucket edges
        // derived from first principles must map to the bucket, and the
        // midpoint's relative error against either edge stays <= 1/32.
        for i in 0..BUCKETS {
            let rep = representative(i);
            assert_eq!(bucket_of(rep), i, "representative({i})={rep} escapes");

            let (lower, upper) = if (i as u64) < EXACT {
                (i as u64, i as u64)
            } else {
                let octave = (i as u64 - EXACT) / SUBS;
                let sub = (i as u64 - EXACT) % SUBS;
                let base = 1u64 << (octave + 6);
                let width = base / SUBS;
                let lower = base + sub * width;
                (lower, lower + (width - 1))
            };
            assert_eq!(bucket_of(lower), i, "lower edge {lower} of bucket {i}");
            assert_eq!(bucket_of(upper), i, "upper edge {upper} of bucket {i}");
            assert!(
                lower <= rep && rep <= upper,
                "rep {rep} outside [{lower}, {upper}]"
            );

            // Relative error bound at both edges (1/32 claimed, 1/64 actual).
            if lower > 0 {
                let err_low = (rep - lower) as f64 / lower as f64;
                let err_high = (upper - rep) as f64 / upper as f64;
                assert!(err_low <= 1.0 / 32.0, "bucket {i}: err_low={err_low}");
                assert!(err_high <= 1.0 / 32.0, "bucket {i}: err_high={err_high}");
            }
        }
        // Top bucket covers up to u64::MAX exactly, with no arithmetic
        // overflow anywhere in the sweep above.
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn representative_is_strictly_monotonic() {
        let mut prev = representative(0);
        for i in 1..BUCKETS {
            let r = representative(i);
            assert!(r > prev, "representative not increasing at bucket {i}");
            prev = r;
        }
    }

    #[test]
    fn giant_values_do_not_overflow_buckets() {
        let mut h = LatencyHistogram::new();
        h.record(u64::MAX);
        h.record(0);
        assert_eq!(h.count(), 2);
        assert_eq!(h.quantile(1.0), u64::MAX);
    }
}
