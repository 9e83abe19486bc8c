//! The stripe-census model for declustered pools.
//!
//! A 120-disk local-Dp pool holds ~10^9 stripes; materializing them is
//! impossible at simulation scale. The census tracks the *expected number of
//! stripes by failure multiplicity* `n[m]` (stripes with exactly `m` failed
//! chunks) and updates it exactly under the declustered-placement
//! hypergeometric law:
//!
//! - when a new disk fails while `f_prev` disks are already failed, a stripe
//!   currently at multiplicity `m` gains a failed chunk with probability
//!   `(w - m) / (D - f_prev)` (its `w - m` surviving chunks are uniform over
//!   the `D - f_prev` surviving disks);
//! - priority repair drains the highest multiplicity class first (the
//!   paper's "high-priority stripes ... can be prioritized and repaired
//!   quickly", §4.1.3), rebuilding all of a stripe's missing chunks at once.
//!
//! The same machinery answers the static combinatorial questions used by the
//! traffic analysis (Fig 8): expected lost stripes when `p_l + 1` disks fail
//! simultaneously.

/// Probability that a random declustered stripe of width `w` in a `d`-disk
/// pool covers **all** of `f` specific failed disks.
pub fn prob_cover_all(d: u32, w: u32, f: u32) -> f64 {
    if f > w || f > d {
        return 0.0;
    }
    (0..f).fold(1.0, |acc, i| acc * (w - i) as f64 / (d - i) as f64)
}

/// Hypergeometric pmf: probability that a random `w`-subset of `d` disks
/// contains exactly `m` of `f` marked disks.
pub fn hypergeom_pmf(d: u32, w: u32, f: u32, m: u32) -> f64 {
    if m > f || m > w || (w - m) > (d - f) {
        return 0.0;
    }
    // C(f, m) * C(d-f, w-m) / C(d, w) computed in log space for stability.
    (ln_choose(f, m) + ln_choose(d - f, w - m) - ln_choose(d, w)).exp()
}

/// Natural log of the binomial coefficient `C(n, k)`.
pub fn ln_choose(n: u32, k: u32) -> f64 {
    if k > n {
        return f64::NEG_INFINITY;
    }
    ln_factorial(n) - ln_factorial(k) - ln_factorial(n - k)
}

/// Natural log of `n!`: tabulated cumulative sums below 1024 (covering all
/// pool/rack-scale arguments exactly to f64 rounding), Stirling series with
/// two correction terms above (error < 1e-17 relative there).
pub fn ln_factorial(n: u32) -> f64 {
    const TABLE_SIZE: usize = 1024;
    static TABLE: std::sync::OnceLock<Vec<f64>> = std::sync::OnceLock::new();
    if (n as usize) < TABLE_SIZE {
        let table = TABLE.get_or_init(|| {
            let mut t = Vec::with_capacity(TABLE_SIZE);
            t.push(0.0);
            // Kahan summation keeps the cumulative error near one ulp.
            let mut sum = 0.0f64;
            let mut c = 0.0f64;
            for i in 1..TABLE_SIZE {
                let y = (i as f64).ln() - c;
                let s = sum + y;
                c = (s - sum) - y;
                sum = s;
                t.push(sum);
            }
            t
        });
        #[expect(
            clippy::indexing_slicing,
            reason = "the enclosing branch checks `n < TABLE_SIZE`, the table's exact length."
        )]
        table[n as usize]
    } else {
        let x = n as f64 + 1.0;
        (x - 0.5) * x.ln() - x + 0.5 * (2.0 * std::f64::consts::PI).ln() + 1.0 / (12.0 * x)
            - 1.0 / (360.0 * x.powi(3))
    }
}

/// Expected-value census of stripes by failure multiplicity in one
/// declustered pool.
///
/// Every walk over the classes stops at `top`, the highest class that may
/// be non-zero: a pool with `f` failed disks holds no stripe above class
/// `f`, so a failure event costs what the live classes cost, not `w + 1`.
#[derive(Debug, Clone)]
pub struct StripeCensus {
    /// Pool size in disks.
    pub pool_disks: u32,
    /// Stripe width `k_l + p_l`.
    pub stripe_width: u32,
    /// `n[m]` = expected stripes with exactly `m` failed chunks,
    /// `m in 0..=stripe_width`.
    counts: Vec<f64>,
    /// Currently failed disks reflected in the census.
    failed_disks: u32,
    /// Highest class that may be non-zero: every class above it is exactly
    /// `+0.0`. One more per failure (capped at `stripe_width`), back to 0
    /// when a drain snaps the census to all-healthy.
    top: usize,
}

/// Equality of the model state; `top` is a cache of where that state's
/// non-zero classes end.
impl PartialEq for StripeCensus {
    fn eq(&self, other: &StripeCensus) -> bool {
        self.pool_disks == other.pool_disks
            && self.stripe_width == other.stripe_width
            && self.counts == other.counts
            && self.failed_disks == other.failed_disks
    }
}

impl StripeCensus {
    /// A healthy pool with `total_stripes` stripes.
    pub fn new(pool_disks: u32, stripe_width: u32, total_stripes: f64) -> StripeCensus {
        assert!(stripe_width >= 2 && stripe_width <= pool_disks);
        let counts = std::iter::once(total_stripes)
            .chain(std::iter::repeat_n(0.0, stripe_width as usize))
            .collect();
        StripeCensus {
            pool_disks,
            stripe_width,
            counts,
            failed_disks: 0,
            top: 0,
        }
    }

    /// Expected stripes at exactly multiplicity `m`.
    pub fn at(&self, m: u32) -> f64 {
        self.counts.get(m as usize).copied().unwrap_or(0.0)
    }

    /// Expected stripes at multiplicity `m` or higher.
    pub fn at_or_above(&self, m: u32) -> f64 {
        self.live_sum(m as usize, |_, n| n)
    }

    /// Currently failed disks.
    pub fn failed_disks(&self) -> u32 {
        self.failed_disks
    }

    /// Total stripes (conserved by all operations).
    pub fn total_stripes(&self) -> f64 {
        self.live_sum(0, |_, n| n)
    }

    /// Failed chunks outstanding (sum of `m * n[m]`).
    pub fn failed_chunks(&self) -> f64 {
        self.live_sum(0, |m, n| m as f64 * n)
    }

    /// `term(m, n[m])` summed over the classes `m >= from`, walking only
    /// `from..=top`. The result is bit-identical to the sum over every class:
    /// `f64::sum` starts from `-0.0`, so a walk that covers no non-zero
    /// class returns `-0.0`, and the skipped classes' `+0.0` terms would
    /// have turned it into `+0.0`. One `+ 0.0` stands for all of them.
    fn live_sum(&self, from: usize, term: impl Fn(usize, f64) -> f64) -> f64 {
        let live: f64 = self
            .counts
            .iter()
            .enumerate()
            .take(self.top + 1)
            .skip(from)
            .map(|(m, &n)| term(m, n))
            .sum();
        if from.max(self.top + 1) < self.counts.len() {
            live + 0.0
        } else {
            live
        }
    }

    /// Register a new disk failure: every stripe at multiplicity `m` gains a
    /// failed chunk with probability `(w - m) / (D - f_prev)`.
    ///
    /// # Panics
    /// Panics if every disk is already failed (the caller must treat the
    /// pool as lost before that point).
    pub fn add_disk_failure(&mut self) {
        let d = self.pool_disks as f64;
        let f_prev = self.failed_disks as f64;
        assert!(self.failed_disks < self.pool_disks, "no disks left to fail");
        let survivors = d - f_prev;
        // Walk top-down so each class is promoted from its pre-update value.
        // Classes above `top` hold `+0.0` and would move nothing.
        let w = self.stripe_width as usize;
        for m in (0..w.min(self.top + 1)).rev() {
            let q = (self.stripe_width as f64 - m as f64) / survivors;
            if let Some([from, to]) = self.counts.get_mut(m..m + 2) {
                let moved = *from * q;
                *from -= moved;
                *to += moved;
            }
        }
        self.top = w.min(self.top + 1);
        self.failed_disks += 1;
    }

    /// Drain up to `chunk_budget` failed chunks of repair work, highest
    /// multiplicity class first (priority rebuild). Repairing a class-`m`
    /// stripe costs `m` chunks of writes and returns it to class 0.
    /// Returns the chunks actually repaired.
    pub fn drain_priority(&mut self, mut chunk_budget: f64) -> f64 {
        let mut repaired = 0.0;
        if let Some((healthy, failed)) = self.counts.split_first_mut() {
            // `failed[i]` is class `i + 1`; the classes above `top` are empty.
            for (i, n) in failed.iter_mut().take(self.top).enumerate().rev() {
                if chunk_budget <= 0.0 {
                    break;
                }
                let m = (i + 1) as f64;
                let class_chunks = *n * m;
                if class_chunks <= 0.0 {
                    continue;
                }
                let take_chunks = class_chunks.min(chunk_budget);
                let take_stripes = take_chunks / m;
                *n -= take_stripes;
                *healthy += take_stripes;
                chunk_budget -= take_chunks;
                repaired += take_chunks;
            }
        }
        // All failed data rebuilt: the failed disks no longer hold live
        // chunks; the pool is effectively healthy (spare-space model — the
        // admin rebalances onto replacement disks in the background). A
        // residue below half a chunk is floating-point noise at the 10^8
        // expected-count scale, not data.
        if self.failed_chunks() < 0.5 {
            self.failed_disks = 0;
            let total = self.total_stripes();
            self.counts.fill(0.0);
            if let Some(healthy) = self.counts.first_mut() {
                *healthy = total;
            }
            self.top = 0;
        }
        repaired
    }

    /// Release one failed disk without touching the stripe classes: its
    /// lost chunks have been rebuilt into spare space, so it no longer
    /// constrains future stripe-placement updates. Used by the pool
    /// simulator's FIFO disk-exit approximation.
    pub fn release_disk(&mut self) {
        self.failed_disks = self.failed_disks.saturating_sub(1);
    }

    /// Consume `repaired` chunks of completed drain against a FIFO of
    /// per-failure outstanding chunk volumes, releasing (oldest first) every
    /// disk whose volume is fully covered — the spare-drain disk-exit model
    /// shared by the pool and system simulators.
    ///
    /// A head entry within `1e-9` chunks of the remaining budget counts as
    /// covered (floating-point slack at the 10^8 expected-count scale); a
    /// partial head is reduced in place and stops the walk. The helper never
    /// clears the FIFO wholesale — callers that treat a fully-drained census
    /// as all-healthy do that themselves.
    pub fn consume_drain(
        &mut self,
        pending: &mut std::collections::VecDeque<f64>,
        mut repaired: f64,
    ) {
        while repaired > 0.0 {
            let Some(head) = pending.front_mut() else {
                break;
            };
            if *head <= repaired + 1e-9 {
                repaired -= *head;
                pending.pop_front();
                self.release_disk();
            } else {
                *head -= repaired;
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cover_all_matches_paper_fig8_fraction() {
        // (17+3) stripes in a 120-disk pool, 4 failed disks: the fraction of
        // stripes that lose all 4 chunks is ~5.9e-4 (drives the 3.1 TB
        // R_HYB number).
        let p = prob_cover_all(120, 20, 4);
        assert!((p - 5.899e-4).abs() / 5.899e-4 < 0.01, "p={p}");
    }

    #[test]
    fn hypergeom_sums_to_one() {
        let (d, w, f) = (120, 20, 4);
        let total: f64 = (0..=f).map(|m| hypergeom_pmf(d, w, f, m)).sum();
        assert!((total - 1.0).abs() < 1e-9, "total={total}");
        // And the top bucket agrees with prob_cover_all.
        assert!((hypergeom_pmf(d, w, f, f) - prob_cover_all(d, w, f)).abs() < 1e-12);
    }

    #[test]
    fn ln_factorial_exact_small_and_stirling_large() {
        assert_eq!(ln_factorial(0), 0.0);
        assert_eq!(ln_factorial(1), 0.0);
        assert!((ln_factorial(5) - (120.0f64).ln()).abs() < 1e-12);
        // Stirling region vs exact summation.
        let exact: f64 = (2..=100u32).map(|i| (i as f64).ln()).sum();
        assert!((ln_factorial(100) - exact).abs() < 1e-9);
    }

    #[test]
    fn ln_choose_known_values() {
        assert!((ln_choose(5, 2) - (10.0f64).ln()).abs() < 1e-12);
        assert!((ln_choose(120, 20) - 51.7374).abs() < 0.001); // ln C(120,20)
        assert_eq!(ln_choose(3, 5), f64::NEG_INFINITY);
    }

    #[test]
    fn census_failure_updates_match_hypergeometric() {
        // After f sequential failures, the census must equal the static
        // hypergeometric distribution over f failed disks.
        let (d, w) = (120u32, 20u32);
        let s = 1e6;
        let mut census = StripeCensus::new(d, w, s);
        for f in 1..=4u32 {
            census.add_disk_failure();
            for m in 0..=f {
                let expect = s * hypergeom_pmf(d, w, f, m);
                let got = census.at(m);
                assert!(
                    (got - expect).abs() / expect.max(1e-9) < 1e-9,
                    "f={f} m={m} got={got} expect={expect}"
                );
            }
        }
        assert_eq!(census.failed_disks(), 4);
    }

    #[test]
    fn census_conserves_stripes() {
        let mut census = StripeCensus::new(60, 10, 5e5);
        for _ in 0..5 {
            census.add_disk_failure();
            assert!((census.total_stripes() - 5e5).abs() < 1.0);
        }
        census.drain_priority(1e4);
        assert!((census.total_stripes() - 5e5).abs() < 1.0);
    }

    #[test]
    fn priority_drain_clears_top_class_first() {
        let mut census = StripeCensus::new(120, 20, 1e6);
        for _ in 0..3 {
            census.add_disk_failure();
        }
        let top = census.at(3);
        assert!(top > 0.0);
        // Budget exactly the top class.
        census.drain_priority(top * 3.0);
        assert!(census.at(3) < 1e-9, "top class should be cleared");
        assert!(census.at(2) > 0.0, "lower class untouched");
    }

    #[test]
    fn full_drain_resets_pool() {
        let mut census = StripeCensus::new(120, 20, 1e6);
        census.add_disk_failure();
        census.add_disk_failure();
        let chunks = census.failed_chunks();
        assert!(chunks > 0.0);
        let repaired = census.drain_priority(chunks + 1.0);
        assert!((repaired - chunks).abs() < 1e-6);
        assert_eq!(census.failed_disks(), 0);
        assert!((census.at(0) - 1e6).abs() < 1e-6);
    }

    /// The census as it was before it tracked `top`: every walk visits all
    /// `w + 1` classes.
    struct FullWidth {
        pool_disks: u32,
        stripe_width: u32,
        counts: Vec<f64>,
        failed_disks: u32,
    }

    impl FullWidth {
        fn new(pool_disks: u32, stripe_width: u32, total_stripes: f64) -> FullWidth {
            let mut counts = vec![0.0; stripe_width as usize + 1];
            counts[0] = total_stripes;
            FullWidth {
                pool_disks,
                stripe_width,
                counts,
                failed_disks: 0,
            }
        }

        fn at(&self, m: u32) -> f64 {
            self.counts.get(m as usize).copied().unwrap_or(0.0)
        }

        fn at_or_above(&self, m: u32) -> f64 {
            self.counts.iter().skip(m as usize).sum()
        }

        fn total_stripes(&self) -> f64 {
            self.counts.iter().sum()
        }

        fn failed_chunks(&self) -> f64 {
            self.counts
                .iter()
                .enumerate()
                .map(|(m, &n)| m as f64 * n)
                .sum()
        }

        fn add_disk_failure(&mut self) {
            let survivors = self.pool_disks as f64 - self.failed_disks as f64;
            for m in (0..self.stripe_width as usize).rev() {
                let q = (self.stripe_width as f64 - m as f64) / survivors;
                let moved = self.counts[m] * q;
                self.counts[m] -= moved;
                self.counts[m + 1] += moved;
            }
            self.failed_disks += 1;
        }

        fn drain_priority(&mut self, mut chunk_budget: f64) -> f64 {
            let mut repaired = 0.0;
            for m in (1..=self.stripe_width as usize).rev() {
                if chunk_budget <= 0.0 {
                    break;
                }
                let class_chunks = self.counts[m] * m as f64;
                if class_chunks <= 0.0 {
                    continue;
                }
                let take_chunks = class_chunks.min(chunk_budget);
                let take_stripes = take_chunks / m as f64;
                self.counts[m] -= take_stripes;
                self.counts[0] += take_stripes;
                chunk_budget -= take_chunks;
                repaired += take_chunks;
            }
            if self.failed_chunks() < 0.5 {
                self.failed_disks = 0;
                let total = self.total_stripes();
                self.counts.fill(0.0);
                self.counts[0] = total;
            }
            repaired
        }
    }

    #[test]
    fn top_bounded_walks_equal_the_full_width_walks_bit_for_bit() {
        use mlec_runner::rng::ChaCha12Rng;
        let shapes = [(120u32, 20u32), (60, 10), (12, 4), (8, 8)];
        for seed in 0..40u64 {
            let mut rng = ChaCha12Rng::seed_from_u64(seed);
            let (d, w) = shapes[seed as usize % shapes.len()];
            let stripes = [0.0, 1.0, 5e5, 1e9][(seed / 4) as usize % 4];
            let mut census = StripeCensus::new(d, w, stripes);
            let mut reference = FullWidth::new(d, w, stripes);
            for step in 0..200 {
                let what = if census.failed_disks() + 1 < d && rng.gen_bool(0.6) {
                    census.add_disk_failure();
                    reference.add_disk_failure();
                    "add".to_string()
                } else {
                    // Mostly partial drains; about one in four overshoots
                    // the outstanding work and snaps back to healthy.
                    let budget = census.failed_chunks() * rng.gen_f64(0.0, 1.35);
                    let got = census.drain_priority(budget);
                    let want = reference.drain_priority(budget);
                    assert_eq!(got.to_bits(), want.to_bits(), "seed {seed} step {step}");
                    format!("drain {budget}")
                };
                let ctx = format!("seed {seed} step {step} ({what}), top {}", census.top);
                for m in 0..=w + 1 {
                    assert_eq!(
                        census.at(m).to_bits(),
                        reference.at(m).to_bits(),
                        "{ctx}: at({m})"
                    );
                    assert_eq!(
                        census.at_or_above(m).to_bits(),
                        reference.at_or_above(m).to_bits(),
                        "{ctx}: at_or_above({m})"
                    );
                }
                assert_eq!(
                    census.failed_chunks().to_bits(),
                    reference.failed_chunks().to_bits(),
                    "{ctx}: failed_chunks"
                );
                assert_eq!(
                    census.total_stripes().to_bits(),
                    reference.total_stripes().to_bits(),
                    "{ctx}: total_stripes"
                );
                assert_eq!(census.failed_disks(), reference.failed_disks, "{ctx}");
            }
        }
    }

    #[test]
    fn consume_drain_releases_head_exactly_equal_to_repaired() {
        // Epsilon boundary: a head entry exactly equal to the repaired
        // budget is covered (<= repaired + 1e-9) and its disk released.
        let mut census = StripeCensus::new(120, 20, 1e6);
        census.add_disk_failure();
        census.add_disk_failure();
        let mut pending: std::collections::VecDeque<f64> = [100.0, 50.0].into_iter().collect();
        census.consume_drain(&mut pending, 100.0);
        assert_eq!(census.failed_disks(), 1, "exact head released");
        assert_eq!(pending.len(), 1);
        assert_eq!(pending[0], 50.0, "second entry untouched");
    }

    #[test]
    fn consume_drain_releases_zero_volume_head_for_free() {
        // A zero-volume head entry (a failure that added no outstanding
        // chunks) is released by any positive budget without consuming it.
        let mut census = StripeCensus::new(120, 20, 1e6);
        census.add_disk_failure();
        census.add_disk_failure();
        let mut pending: std::collections::VecDeque<f64> = [0.0, 30.0].into_iter().collect();
        census.consume_drain(&mut pending, 30.0);
        assert_eq!(
            census.failed_disks(),
            0,
            "both released: 0.0 free, 30.0 exact"
        );
        assert!(pending.is_empty());
    }

    #[test]
    fn consume_drain_zero_budget_is_a_noop_even_with_zero_volume_head() {
        // `repaired == 0.0` never enters the loop (`while repaired > 0.0`),
        // so even a zero-volume head stays queued — the original simulators
        // only release on actual drain progress.
        let mut census = StripeCensus::new(120, 20, 1e6);
        census.add_disk_failure();
        let mut pending: std::collections::VecDeque<f64> = [0.0].into_iter().collect();
        census.consume_drain(&mut pending, 0.0);
        assert_eq!(census.failed_disks(), 1);
        assert_eq!(pending.len(), 1);
    }

    #[test]
    fn consume_drain_within_epsilon_and_partial_head() {
        let mut census = StripeCensus::new(120, 20, 1e6);
        census.add_disk_failure();
        census.add_disk_failure();
        // Head within 1e-9 of the budget: covered. Second head larger than
        // the leftover: reduced in place, walk stops.
        let mut pending: std::collections::VecDeque<f64> =
            [100.0 + 5e-10, 40.0].into_iter().collect();
        census.consume_drain(&mut pending, 100.0);
        assert_eq!(census.failed_disks(), 1, "head within epsilon released");
        assert_eq!(pending.len(), 1);
        // The leftover budget went slightly negative (-5e-10), so the
        // second entry is untouched.
        assert_eq!(pending[0], 40.0);
    }
}
