//! The shared hazard-process simulation kernel under all three simulators.
//!
//! Before this module existed, `simulate_clustered_pool`,
//! `simulate_declustered_pool`, and the [`crate::system_sim`] loop each
//! hand-rolled the same four concerns: biased-exponential failure-arrival
//! sampling, exact likelihood-ratio exposure accounting,
//! excursion/regeneration bookkeeping, and horizon censoring. The
//! [`HazardKernel`] owns all of them — plus the `ChaCha12` RNG stream they
//! draw from — so the simulators reduce to *policies over the kernel*:
//!
//! - the pool simulators implement [`PoolPolicy`] (the rules: state
//!   transitions, loss detection, and the repair-time model, over a
//!   per-pool state) and run one pool's state under the shared next-event
//!   loop [`run_pool_policy`];
//! - the system simulator races each failure arrival, drawn from the
//!   kernel via [`ArrivalSource`] (stochastic or trace-replay), against its
//!   earliest network repair in flight, and advances the per-pool state of
//!   the same rules lazily to each arrival in a touched pool;
//! - trace synthesis ([`crate::trace`]) draws its exponential gaps from an
//!   unbiased kernel too.
//!
//! The likelihood-ratio accumulator (`PathWeight`) and the inverse-CDF
//! exponential sampler (`sample_exponential`) are private to this module:
//! outside it, a failure arrival can only be sampled — and a weight only
//! charged — through a [`HazardKernel`], so the rare-event estimator's
//! weights are charged in exactly one place by construction.
//!
//! Every RNG draw the kernel makes mirrors the original hand-rolled loops
//! operation for operation, so fixed-seed results are bit-identical — the
//! `golden_*` tests in [`crate::pool_sim`], [`crate::system_sim`],
//! `tests/pool_goldens.rs` and `tests/trace_goldens.rs` pin this.
//!
//! [`SimObserver`] is the uniform hook layer: per-event callbacks for
//! failure/repair/catastrophe/data-loss plus degraded-interval accounting,
//! driven identically by all three simulators. The default methods are
//! empty and [`NoopObserver`] is a zero-sized type, so the monomorphized
//! unobserved simulators compile to exactly the pre-observer code.

use crate::importance::FailureBias;
use crate::pool_sim::CatastrophicEvent;
use mlec_runner::{trial_rng, TrialRng};

/// Uniform per-event hook layer for all three simulators.
///
/// Every method has an empty default body: implement only what you need.
/// Observers must not consume randomness or mutate simulator state — they
/// see events, they do not steer them (the fixed-seed goldens hold with any
/// observer attached).
pub trait SimObserver {
    /// A disk failed at `time_h`; `concurrent` is the failed-disk count of
    /// the affected pool after the failure (0 when the pool was already
    /// under network reconstruction and the failure was absorbed by it).
    fn on_disk_failure(&mut self, _time_h: f64, _concurrent: u32) {}

    /// A repair event completed at `time_h` (clustered disk rebuild,
    /// declustered drain completion, or a network-level pool
    /// reconstruction); `concurrent` is the pool's failed-disk count after
    /// the repair.
    fn on_repair(&mut self, _time_h: f64, _concurrent: u32) {}

    /// A pool went catastrophic: `lost_stripes` local stripes lost at
    /// `concurrent` concurrent failures, with likelihood-ratio `weight`
    /// (exactly 1.0 under unbiased simulation).
    fn on_catastrophe(&mut self, _time_h: f64, _concurrent: u32, _lost_stripes: f64, _weight: f64) {
    }

    /// A network-level data-loss event (system simulator only).
    fn on_data_loss(&mut self, _time_h: f64) {}

    /// The pool spent `(from_h, to_h]` with `failed_disks ≥ 1` disks down
    /// (degraded-time accounting; pool simulators only).
    fn on_degraded_interval(&mut self, _from_h: f64, _to_h: f64, _failed_disks: u32) {}
}

/// The do-nothing observer: zero-sized, every callback compiles away.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopObserver;

impl SimObserver for NoopObserver {}

/// The shared hazard-process kernel: one `ChaCha12` stream, state-dependent
/// [`FailureBias`] application, exact likelihood-ratio exposure/jump
/// accounting, excursion bookkeeping, and horizon censoring.
///
/// The kernel memoizes the `(multiplier, true rate)` pair of the most
/// recent [`Self::sample_next_failure`]/[`Self::sample_gap`] call; every
/// subsequent [`Self::advance_to`] charges exposure at exactly those values
/// — the same interval-start convention the hand-rolled loops used, so the
/// likelihood ratio is exact, not an approximation.
#[derive(Debug, Clone)]
pub struct HazardKernel {
    rng: TrialRng,
    bias: FailureBias,
    pw: PathWeight,
    now: f64,
    horizon: f64,
    /// Multiplier in force since the last failure-time sample.
    mult: f64,
    /// True aggregate failure intensity (events/hour) since the last sample.
    true_rate: f64,
    disk_failures: u64,
    excursions: u64,
    excursion_weight: f64,
}

impl HazardKernel {
    /// A kernel seeded raw, simulating until `horizon_h` hours under
    /// `bias`: `seed` feeds [`trial_rng`] directly. This is the clustered
    /// pool simulator's historical convention; the draw stream is
    /// bit-identical to pre-kernel code.
    ///
    /// This and [`Self::from_seed_stream`] are the only ways to make a
    /// kernel, and the exponential sampler and likelihood-ratio accumulator
    /// are private to this module, so every failure-arrival draw and weight
    /// charge goes through one of these kernels.
    pub fn from_seed(seed: u64, bias: FailureBias, horizon_h: f64) -> HazardKernel {
        HazardKernel {
            rng: trial_rng(seed),
            bias,
            pw: PathWeight::default(),
            now: 0.0,
            horizon: horizon_h,
            mult: 1.0,
            true_rate: 0.0,
            disk_failures: 0,
            excursions: 0,
            excursion_weight: 0.0,
        }
    }

    /// A kernel seeded through the runner's [`mlec_runner::SeedStream`]
    /// convention: the stream is labeled, and trial 0 of the derived
    /// stream seeds the `ChaCha12` generator (the declustered-pool and
    /// system simulators' convention).
    pub fn from_seed_stream(
        seed: u64,
        label: &str,
        bias: FailureBias,
        horizon_h: f64,
    ) -> HazardKernel {
        HazardKernel::from_seed(
            mlec_runner::SeedStream::new(seed, label).trial_seed(0),
            bias,
            horizon_h,
        )
    }

    /// Current simulation clock, hours.
    #[inline]
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Censoring horizon, hours.
    #[inline]
    pub fn horizon(&self) -> f64 {
        self.horizon
    }

    /// The kernel's RNG, for policy-owned draws that are identical under
    /// the true and biased measures (Poisson rare-stripe thinning, disk
    /// selection, survival coin-flips). Failure *arrival* times must come
    /// from [`Self::sample_next_failure`] instead so the likelihood ratio
    /// stays exact.
    #[inline]
    pub fn rng(&mut self) -> &mut TrialRng {
        &mut self.rng
    }

    /// The current excursion's likelihood ratio (exactly 1.0 unbiased).
    #[inline]
    pub fn weight(&self) -> f64 {
        self.pw.weight()
    }

    /// Failure arrivals recorded so far.
    #[inline]
    pub fn disk_failures(&self) -> u64 {
        self.disk_failures
    }

    /// Completed likelihood-ratio excursions (regeneration cycles plus the
    /// censored one closed at the horizon).
    #[inline]
    pub fn excursions(&self) -> u64 {
        self.excursions
    }

    /// Sum of final excursion weights (`E[weight] = 1` per excursion).
    #[inline]
    pub fn excursion_weight(&self) -> f64 {
        self.excursion_weight
    }

    /// Sample the gap (hours) to the next failure arrival with
    /// `failed_disks` currently down and true aggregate intensity
    /// `true_rate`, drawn at `bias.multiplier(failed_disks) × true_rate`.
    /// Memoizes the pair for subsequent exposure accounting.
    #[inline]
    pub fn sample_gap(&mut self, failed_disks: u32, true_rate: f64) -> f64 {
        self.mult = self.bias.multiplier(failed_disks);
        self.true_rate = true_rate;
        sample_exponential(&mut self.rng, self.mult * true_rate)
    }

    /// [`Self::sample_gap`] expressed as an absolute time: `now + gap`.
    #[inline]
    pub fn sample_next_failure(&mut self, failed_disks: u32, true_rate: f64) -> f64 {
        let gap = self.sample_gap(failed_disks, true_rate);
        self.now + gap
    }

    /// Advance the clock to `t`, charging likelihood-ratio exposure for the
    /// elapsed interval at the memoized multiplier/rate.
    #[inline]
    pub fn advance_to(&mut self, t: f64) {
        self.pw.exposure(self.mult, self.true_rate, t - self.now);
        self.now = t;
    }

    /// Record one failure arrival (jump term of the likelihood ratio).
    #[inline]
    pub fn record_failure(&mut self) {
        self.disk_failures += 1;
        self.pw.event(self.mult);
    }

    /// Close the current excursion at a regeneration point (return to
    /// all-healthy, or a catastrophic reset): record its final weight and
    /// start a fresh one.
    #[inline]
    pub fn regenerate(&mut self) {
        self.excursions += 1;
        self.excursion_weight += self.pw.weight();
        self.pw.reset();
    }

    /// Censor the run at the horizon: charge exposure for the remaining
    /// interval and close the in-progress excursion (valid by optional
    /// stopping at a bounded time).
    pub fn censor_at_horizon(&mut self) {
        self.pw
            .exposure(self.mult, self.true_rate, self.horizon - self.now);
        self.now = self.horizon;
        self.regenerate();
    }
}

/// Running log-likelihood-ratio of the current excursion: `ln L` of the
/// formula in [`crate::importance`], in its two moves.
#[derive(Debug, Clone, Default)]
struct PathWeight {
    log_w: f64,
}

impl PathWeight {
    /// Account an interval of length `dt` hours during which the true
    /// failure intensity was `rate` (events/hour, all surviving disks
    /// pooled) and the multiplier was `mult`.
    #[inline]
    fn exposure(&mut self, mult: f64, rate: f64, dt: f64) {
        if mult != 1.0 {
            self.log_w += (mult - 1.0) * rate * dt;
        }
    }

    /// Account one failure arrival sampled under multiplier `mult`.
    #[inline]
    fn event(&mut self, mult: f64) {
        if mult != 1.0 {
            self.log_w -= mult.ln();
        }
    }

    /// The excursion's likelihood ratio so far (exactly 1.0 while
    /// unbiased).
    #[inline]
    fn weight(&self) -> f64 {
        self.log_w.exp()
    }

    /// Start a fresh excursion (regeneration point reached).
    #[inline]
    fn reset(&mut self) {
        self.log_w = 0.0;
    }
}

/// Sample an exponential variate with the given rate (events/hour) by
/// inverse CDF; infinite for a non-positive rate.
#[inline]
fn sample_exponential(rng: &mut TrialRng, rate_per_hour: f64) -> f64 {
    if rate_per_hour <= 0.0 {
        return f64::INFINITY;
    }
    let u = rng.gen_f64(f64::MIN_POSITIVE, 1.0);
    -u.ln() / rate_per_hour
}

/// Where the system simulator's disk-failure arrivals come from. Trace
/// replay is just another arrival source behind the same interface (build
/// one with [`crate::trace::FailureTrace::arrival_source`]).
#[derive(Debug, Clone)]
pub enum ArrivalSource {
    /// Exponential inter-arrival at the given aggregate rate per hour;
    /// disks chosen uniformly by the consumer.
    Exponential {
        /// Aggregate failure intensity, events/hour.
        rate_per_hour: f64,
    },
    /// Pre-recorded `(time_h, disk)` events, time-ascending.
    Trace {
        /// The recorded events.
        events: Vec<(f64, u32)>,
        /// Replay cursor.
        index: usize,
    },
}

impl ArrivalSource {
    /// A stochastic source at the given aggregate intensity.
    pub fn exponential(rate_per_hour: f64) -> ArrivalSource {
        ArrivalSource::Exponential { rate_per_hour }
    }

    /// A trace-replay source over pre-sorted `(time_h, disk)` records.
    pub fn trace(events: Vec<(f64, u32)>) -> ArrivalSource {
        ArrivalSource::Trace { events, index: 0 }
    }

    /// The next arrival at or after `from`: a fresh exponential gap sampled
    /// through the kernel (one RNG draw), or the next in-order trace record
    /// (records behind `from` are skipped, uncounted — traces are
    /// pre-sorted, so this is defensive only). `None` once a trace is
    /// exhausted. The disk is `Some` for trace records and `None` for
    /// stochastic arrivals (the consumer draws it uniformly at pop time,
    /// preserving the gap-then-disk draw order).
    pub fn next_arrival(
        &mut self,
        kernel: &mut HazardKernel,
        from: f64,
    ) -> Option<(f64, Option<u32>)> {
        match self {
            ArrivalSource::Exponential { rate_per_hour } => {
                let dt = kernel.sample_gap(0, *rate_per_hour);
                Some((from + dt, None))
            }
            ArrivalSource::Trace { events, index } => {
                while let Some(&(t, disk)) = events.get(*index) {
                    *index += 1;
                    if t < from {
                        continue;
                    }
                    return Some((t, Some(disk)));
                }
                None
            }
        }
    }
}

/// What a [`PoolPolicy`] decided about a failure arrival.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FailureOutcome {
    /// The pool absorbed the failure and remains degraded (or healthy).
    Continue,
    /// Thinning/repair concluded the pool is back to all-healthy: a
    /// regeneration point (the kernel closes the excursion).
    Regenerated,
    /// The pool went catastrophic; the policy has already reset its own
    /// state to healthy (network repair rebuilds the pool).
    Catastrophic {
        /// Concurrently failed disks at the event.
        concurrent_failures: u32,
        /// Lost local stripes (sampled for Dp, all stripes for Cp).
        lost_stripes: f64,
    },
}

/// A local pool's rules, driven by [`run_pool_policy`] and by
/// [`crate::system_sim`]: the clustered and declustered pool models
/// expressed as transitions of a per-pool [`PoolPolicy::State`] over the
/// shared kernel. The implementors are the per-deployment constants
/// (`ClusteredParams`/`DeclusteredParams` in [`crate::pool_sim`]), built
/// once and shared by every pool of a run or mission; a pool itself is
/// only its state.
pub trait PoolPolicy {
    /// What one pool carries between events.
    type State;

    /// The state of a healthy pool.
    fn healthy(&self) -> Self::State;

    /// Pool size in disks; the survivors carry the pool's failure hazard.
    fn pool_disks(&self) -> u32;

    /// Currently failed disks (drives the bias multiplier).
    fn failed_disks(&self, state: &Self::State) -> u32;

    /// Absolute time of the next internal repair event — clustered rebuild
    /// completion or declustered full-drain completion — or infinity.
    fn next_repair_event(&self, state: &Self::State, now: f64) -> f64;

    /// Tie rule at `next_failure == next_repair_event`: `true` handles the
    /// failure first (declustered), `false` the repair (clustered). The
    /// asymmetry is load-bearing for the fixed-seed goldens.
    fn failure_wins_ties(&self) -> bool;

    /// Apply continuous repair progress from the last time the state was
    /// advanced to `to` (the declustered drain; a no-op for clustered
    /// pools).
    fn on_repair_progress(&self, state: &mut Self::State, to: f64);

    /// Handle the internal repair event at `now`; `failed_before` is the
    /// failed-disk count at the start of the step. Returns `true` when the
    /// pool returned to all-healthy (a regeneration point).
    fn on_repair_event(&self, state: &mut Self::State, now: f64, failed_before: u32) -> bool;

    /// Handle a failure arrival at `kernel.now()`. The kernel has already
    /// recorded the arrival (jump weight); the policy may draw thinning
    /// randomness through `kernel.rng()`. On a catastrophic outcome the
    /// policy resets the state to healthy before returning.
    fn on_failure(&self, state: &mut Self::State, kernel: &mut HazardKernel) -> FailureOutcome;

    /// Whether an arrival that finds `failed` disks down leaves nothing to
    /// place stripes on. Such an arrival is catastrophic unconditionally
    /// and, mirroring the original declustered loop, is not counted into
    /// the pool simulator's maximum concurrency.
    fn overwhelmed(&self, _failed: u32) -> bool {
        false
    }
}

/// The shared next-event loop of both pool simulators: sample the next
/// biased failure arrival (every surviving disk fails at `per_disk_rate`
/// events/hour), race it against the policy's next repair event, charge
/// exposure, censor at the horizon, and route regeneration and
/// catastrophic outcomes through the kernel. Returns the catastrophic
/// events observed (each carrying its excursion's likelihood weight) and
/// the most disks down at once, counted at each arrival that did not
/// overwhelm the pool ([`PoolPolicy::overwhelmed`]).
pub fn run_pool_policy<P: PoolPolicy, O: SimObserver>(
    kernel: &mut HazardKernel,
    policy: &P,
    state: &mut P::State,
    per_disk_rate: f64,
    observer: &mut O,
) -> (Vec<CatastrophicEvent>, u32) {
    let mut events = Vec::new();
    let mut max_concurrent = 0;
    loop {
        let failed = policy.failed_disks(state);
        let true_rate = (policy.pool_disks() - failed) as f64 * per_disk_rate;
        let next_fail = kernel.sample_next_failure(failed, true_rate);
        let next_repair = policy.next_repair_event(state, kernel.now());
        let step_to = next_fail.min(next_repair);
        if step_to > kernel.horizon() {
            let from = kernel.now();
            kernel.censor_at_horizon();
            if failed > 0 {
                observer.on_degraded_interval(from, kernel.now(), failed);
            }
            break;
        }
        let from = kernel.now();
        kernel.advance_to(step_to);
        if failed > 0 {
            observer.on_degraded_interval(from, step_to, failed);
        }
        policy.on_repair_progress(state, step_to);
        let failure_fires = if policy.failure_wins_ties() {
            next_fail <= next_repair
        } else {
            next_fail < next_repair
        };
        if failure_fires {
            kernel.record_failure();
            let found = policy.failed_disks(state);
            if !policy.overwhelmed(found) {
                max_concurrent = max_concurrent.max(found + 1);
            }
            match policy.on_failure(state, kernel) {
                FailureOutcome::Continue => {
                    observer.on_disk_failure(step_to, policy.failed_disks(state));
                }
                FailureOutcome::Regenerated => {
                    observer.on_disk_failure(step_to, policy.failed_disks(state));
                    kernel.regenerate();
                }
                FailureOutcome::Catastrophic {
                    concurrent_failures,
                    lost_stripes,
                } => {
                    let weight = kernel.weight();
                    observer.on_disk_failure(step_to, concurrent_failures);
                    observer.on_catastrophe(step_to, concurrent_failures, lost_stripes, weight);
                    events.push(CatastrophicEvent {
                        time_h: step_to,
                        concurrent_failures,
                        lost_stripes,
                        weight,
                    });
                    kernel.regenerate();
                }
            }
        } else {
            let healthy = policy.on_repair_event(state, step_to, failed);
            observer.on_repair(step_to, policy.failed_disks(state));
            if healthy {
                kernel.regenerate();
            }
        }
    }
    (events, max_concurrent)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kernel(bias: FailureBias) -> HazardKernel {
        HazardKernel::from_seed(7, bias, 1000.0)
    }

    #[test]
    fn unbiased_weight_is_exactly_one() {
        let mut w = PathWeight::default();
        w.exposure(1.0, 0.3, 1234.5);
        w.event(1.0);
        w.event(1.0);
        assert_eq!(w.weight(), 1.0, "log-weight must stay exactly 0.0");
    }

    #[test]
    fn weight_matches_closed_form() {
        // One interval of exposure then one event under bias b: the LR is
        // exp((b-1) r dt) / b.
        let (b, r, dt) = (50.0, 2e-6, 40.0);
        let mut w = PathWeight::default();
        w.exposure(b, r, dt);
        w.event(b);
        let expect = ((b - 1.0) * r * dt).exp() / b;
        assert!((w.weight() - expect).abs() / expect < 1e-12);
        w.reset();
        assert_eq!(w.weight(), 1.0);
    }

    #[test]
    fn exponential_mean_matches_afr() {
        let expected = crate::config::HOURS_PER_YEAR / 0.5;
        let mut rng = trial_rng(1);
        let n = 20_000;
        let mean: f64 = (0..n)
            .map(|_| sample_exponential(&mut rng, 1.0 / expected))
            .sum::<f64>()
            / n as f64;
        assert!(
            (mean - expected).abs() / expected < 0.03,
            "mean={mean} expected={expected}"
        );
    }

    #[test]
    fn exponential_zero_rate_never_fires() {
        let mut rng = trial_rng(5);
        assert_eq!(sample_exponential(&mut rng, 0.0), f64::INFINITY);
    }

    #[test]
    fn unbiased_kernel_weight_stays_exactly_one() {
        let mut k = kernel(FailureBias::NONE);
        let t = k.sample_next_failure(0, 0.01);
        k.advance_to(t);
        k.record_failure();
        assert_eq!(k.weight(), 1.0);
        assert_eq!(k.disk_failures(), 1);
        k.censor_at_horizon();
        assert_eq!(k.excursions(), 1);
        assert_eq!(k.excursion_weight(), 1.0);
    }

    #[test]
    fn kernel_draws_match_raw_sampling() {
        // The kernel consumes exactly the draws the hand-rolled loops did:
        // one exponential per sample_next_failure, nothing else.
        let mut raw = trial_rng(42);
        let mut k = HazardKernel::from_seed(42, FailureBias::NONE, 1e9);
        for _ in 0..100 {
            // The policy hands the kernel the total rate for the current
            // state (here: 3 failed disks, total rate 0.02/h).
            let expect = sample_exponential(&mut raw, 0.02);
            let got = k.sample_next_failure(3, 0.02) - k.now();
            assert_eq!(got.to_bits(), expect.to_bits());
        }
    }

    #[test]
    fn biased_kernel_accumulates_exact_likelihood_ratio() {
        // One exposure interval then one jump under bias b: LR must equal
        // exp((b-1) r dt) / b bit-for-bit with the PathWeight closed form.
        let bias = FailureBias::degraded_only(50.0);
        let mut k = kernel(bias);
        let r = 2e-4;
        let t = k.sample_next_failure(2, r);
        let dt = t - k.now();
        k.advance_to(t);
        k.record_failure();
        let mut pw = PathWeight::default();
        pw.exposure(50.0, r, dt);
        pw.event(50.0);
        assert_eq!(k.weight().to_bits(), pw.weight().to_bits());
        k.regenerate();
        assert_eq!(k.weight(), 1.0, "regeneration resets the excursion");
        assert_eq!(k.excursions(), 1);
    }

    #[test]
    fn exponential_arrival_source_matches_direct_gap() {
        let mut raw = trial_rng(9);
        let expect = sample_exponential(&mut raw, 5.0);
        let mut k = HazardKernel::from_seed(9, FailureBias::NONE, 1e9);
        let mut src = ArrivalSource::exponential(5.0);
        let (t, disk) = src.next_arrival(&mut k, 100.0).unwrap();
        assert_eq!(disk, None);
        assert_eq!(t.to_bits(), (100.0 + expect).to_bits());
    }

    #[test]
    fn trace_arrival_source_skips_stale_records_and_exhausts() {
        let mut k = kernel(FailureBias::NONE);
        let mut src = ArrivalSource::trace(vec![(1.0, 10), (2.0, 20), (5.0, 30)]);
        assert_eq!(src.next_arrival(&mut k, 1.5), Some((2.0, Some(20))));
        assert_eq!(src.next_arrival(&mut k, 2.0), Some((5.0, Some(30))));
        assert_eq!(src.next_arrival(&mut k, 0.0), None, "exhausted");
    }
}
