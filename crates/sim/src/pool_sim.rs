//! Long-horizon durability simulation of a single local pool.
//!
//! This is splitting stage 1 (paper §3 "Splitting"): simulate one local pool
//! under independent disk failures and collect catastrophic-failure samples.
//! Clustered pools track per-disk rebuilds directly; declustered pools use
//! the [`crate::census::StripeCensus`] expected-value model with priority
//! (most-failed-first) rebuild and Poisson rare-stripe sampling at the
//! catastrophic boundary.
//!
//! The two [`PoolPolicy`] implementations here are the only model of a
//! local pool in the crate: [`simulate_pool_observed`] races one pool's
//! state against its own hazard under [`run_pool_policy`], and
//! [`crate::system_sim`] keeps one state per touched pool of a whole
//! deployment. The rules are per-deployment constants ([`ClusteredParams`],
//! [`DeclusteredParams`] — built once per run or mission); a pool is only
//! the state that changes: a clustered pool its rebuild-completion times, a
//! declustered pool its [`DeclusteredState`].
//!
//! At the paper's true 1% AFR direct simulation observes nothing; the
//! [`crate::importance`] layer fixes that: failure arrivals can be sampled
//! at a biased rate ([`FailureBias`], typically only while the pool is
//! degraded) and every emitted [`CatastrophicEvent`] carries the exact
//! likelihood-ratio weight of the true measure against the biased one, so
//! weighted rates stay unbiased. [`simulate_pool`] is the unbiased entry
//! point (all weights exactly 1.0); [`simulate_pool_observed`] takes a bias
//! and an observer and is bit-identical to it under [`FailureBias::NONE`].
//!
//! Modeling notes (see DESIGN.md):
//! - failure arrivals are exponential per surviving disk, resampled at every
//!   state change (exact for the memoryless model);
//! - each failure adds a detection delay during which repair of the pool is
//!   paused (conservative: detection of a new failure stalls the repairer);
//! - a declustered pool whose failed chunks are fully rebuilt into spare
//!   space counts as healthy (the admin rebalances in the background,
//!   paper §2.1);
//! - when the failed-disk count reaches `p_l + 1`, the *expected* number of
//!   stripes at multiplicity `p_l + 1` is `λ`; the pool is catastrophic with
//!   probability `1 - exp(-λ)` (a Poisson draw decides), which is the
//!   rare-stripe sampling that distinguishes Dp pools from Cp pools;
//! - likelihood-ratio weights reset at every return to the all-healthy
//!   state (a regeneration point of the memoryless process), which bounds
//!   weight degeneracy over long horizons without giving up exactness; the
//!   per-excursion weights are recorded and their mean is 1 in expectation
//!   (the unbiasedness diagnostic surfaced as
//!   [`crate::trials::PoolAcc::mean_excursion_weight`]).

use crate::census::StripeCensus;
use crate::config::{MlecDeployment, HOURS_PER_YEAR};
use crate::failure::{sample_poisson, FailureModel};
use crate::importance::FailureBias;
use crate::kernel::{
    run_pool_policy, FailureOutcome, HazardKernel, NoopObserver, PoolPolicy, SimObserver,
};
use mlec_topology::Placement;
use mlec_units::Volume;
use std::collections::VecDeque;

/// One catastrophic local-pool failure observed by the simulator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CatastrophicEvent {
    /// Simulation time of the event, hours.
    pub time_h: f64,
    /// Concurrently failed disks at the event.
    pub concurrent_failures: u32,
    /// Lost local stripes (sampled for Dp, all stripes for Cp).
    pub lost_stripes: f64,
    /// Likelihood-ratio weight of the trajectory excursion that produced
    /// this event (exactly 1.0 under unbiased simulation).
    pub weight: f64,
}

/// Raw result of one pool simulation run; [`crate::trials::PoolAcc`]
/// accumulates runs into rates, means and confidence intervals.
#[derive(Debug, Clone, PartialEq)]
pub struct PoolSimResult {
    /// Simulated pool-years.
    pub pool_years: f64,
    /// Catastrophic events observed (each carrying its importance weight).
    pub events: Vec<CatastrophicEvent>,
    /// Total disk failures generated.
    pub disk_failures: u64,
    /// Maximum concurrent failures seen.
    pub max_concurrent: u32,
    /// Completed likelihood-ratio excursions (regeneration cycles plus the
    /// censored one closed at the horizon).
    pub excursions: u64,
    /// Sum of final excursion weights; `E[weight] = 1` per excursion, so
    /// `excursion_weight / excursions ≈ 1` is the unbiasedness diagnostic.
    pub excursion_weight: f64,
}

/// Simulate one local pool of the deployment for `years` simulated years,
/// unbiased (every event weight is exactly 1.0).
///
/// After a catastrophic event the pool is reset to healthy (the network
/// level repairs it; the sojourn time is accounted analytically per repair
/// method by the splitting estimator).
pub fn simulate_pool(
    dep: &MlecDeployment,
    failure_model: &FailureModel,
    years: f64,
    seed: u64,
) -> PoolSimResult {
    simulate_pool_observed(
        dep,
        failure_model,
        years,
        seed,
        FailureBias::NONE,
        &mut NoopObserver,
    )
}

/// Simulate one local pool with importance-sampled failure arrivals and a
/// [`SimObserver`] attached.
///
/// Arrivals are drawn at `bias.multiplier(failed_disks) ×` the true rate and
/// every emitted event carries the exact likelihood-ratio weight, so
/// `Σ weight / pool_years` estimates the true catastrophic rate at any bias.
/// With [`FailureBias::NONE`] this is bit-identical to [`simulate_pool`]
/// (the RNG consumes the same draws). The observer gets per-event callbacks
/// for failures/repairs/catastrophes plus degraded-interval accounting;
/// observers never consume randomness, so results are bit-identical with
/// any observer (and with [`NoopObserver`] the monomorphized code is the
/// unobserved simulator).
pub fn simulate_pool_observed<O: SimObserver>(
    dep: &MlecDeployment,
    failure_model: &FailureModel,
    years: f64,
    seed: u64,
    bias: FailureBias,
    observer: &mut O,
) -> PoolSimResult {
    let horizon_h = years * HOURS_PER_YEAR;
    let rate = per_disk_rate(failure_model);
    match dep.scheme.local {
        Placement::Clustered => {
            // The clustered simulator predates the seed-stream convention
            // and seeds its ChaCha12 stream raw; changing this would shift
            // every fixed-seed golden.
            let kernel = HazardKernel::from_seed(seed, bias, horizon_h);
            run_pool(kernel, &ClusteredParams::new(dep), rate, years, observer)
        }
        Placement::Declustered => {
            let kernel =
                HazardKernel::from_seed_stream(seed, "pool_sim/declustered", bias, horizon_h);
            run_pool(kernel, &DeclusteredParams::new(dep), rate, years, observer)
        }
    }
}

/// Run one healthy pool to the kernel's horizon and assemble a
/// [`PoolSimResult`] from the kernel's bookkeeping and the loop's
/// concurrency accounting.
fn run_pool<P: PoolPolicy, O: SimObserver>(
    mut kernel: HazardKernel,
    policy: &P,
    per_disk_rate: f64,
    years: f64,
    observer: &mut O,
) -> PoolSimResult {
    let mut state = policy.healthy();
    let (events, max_concurrent) =
        run_pool_policy(&mut kernel, policy, &mut state, per_disk_rate, observer);
    PoolSimResult {
        pool_years: years,
        events,
        disk_failures: kernel.disk_failures(),
        max_concurrent,
        excursions: kernel.excursions(),
        excursion_weight: kernel.excursion_weight(),
    }
}

/// Per-disk failure rate (events/hour) implied by the model, for the pool
/// and system simulators alike.
pub(crate) fn per_disk_rate(model: &FailureModel) -> f64 {
    let FailureModel::Exponential { afr } = model;
    afr / HOURS_PER_YEAR
}

/// The clustered pool's rules, shared by every clustered pool of a run or
/// mission: per-disk rebuilds tracked directly, catastrophe when `p_l + 1`
/// failures overlap — at which point every stripe spans the pool and all
/// are lost. A pool's state is the list of its rebuild-completion times;
/// the failure that would be its `p_l + 1`-th entry is the catastrophe, so
/// the list never holds more than `p_l`.
pub struct ClusteredParams {
    /// Pool size in disks.
    d: u32,
    /// Catastrophic threshold `p_l + 1`.
    threshold: u32,
    /// Deterministic single-disk rebuild time, hours.
    repair_hours: f64,
    /// Stripes in the pool (all lost at catastrophe).
    total_stripes: f64,
}

impl ClusteredParams {
    /// The clustered-pool constants of the deployment.
    pub fn new(dep: &MlecDeployment) -> ClusteredParams {
        let d = dep.local_pools().pool_size();
        ClusteredParams {
            d,
            threshold: dep.params.local.p as u32 + 1,
            repair_hours: (dep.config.detection()
                + Volume::from_tb(dep.geometry.disk_capacity_tb)
                    .transfer_time_mb(dep.config.disk_repair_bw()))
            .to_hours(),
            total_stripes: dep.stripes_per_pool(),
        }
    }
}

impl PoolPolicy for ClusteredParams {
    /// Repair-completion times of the currently failed disks.
    type State = Vec<f64>;

    fn healthy(&self) -> Vec<f64> {
        Vec::with_capacity(self.threshold as usize - 1)
    }

    fn pool_disks(&self) -> u32 {
        self.d
    }

    fn failed_disks(&self, active: &Vec<f64>) -> u32 {
        active.len() as u32
    }

    fn next_repair_event(&self, active: &Vec<f64>, _now: f64) -> f64 {
        active.iter().copied().fold(f64::INFINITY, f64::min)
    }

    fn failure_wins_ties(&self) -> bool {
        // At a tie the repair is handled first: an arrival never sees a
        // rebuild that finished at its own timestamp.
        false
    }

    fn on_repair_progress(&self, _active: &mut Vec<f64>, _to: f64) {}

    fn on_repair_event(&self, active: &mut Vec<f64>, now: f64, _failed_before: u32) -> bool {
        active.retain(|&t| t > now);
        // Back to all-healthy: regeneration point, weight resets.
        active.is_empty()
    }

    fn on_failure(&self, active: &mut Vec<f64>, kernel: &mut HazardKernel) -> FailureOutcome {
        let concurrent_failures = active.len() as u32 + 1;
        if concurrent_failures >= self.threshold {
            // Every stripe spans the pool: all stripes are lost.
            active.clear(); // network repair resets the pool
            FailureOutcome::Catastrophic {
                concurrent_failures,
                lost_stripes: self.total_stripes,
            }
        } else {
            active.push(kernel.now() + self.repair_hours);
            FailureOutcome::Continue
        }
    }
}

/// The declustered pool's rules, shared by every declustered pool of a run
/// or mission, so the drain-rate table exists once however many pools a
/// mission touches: the [`StripeCensus`] expected-value model with priority
/// (most-failed-first) drain, FIFO spare-drain disk release,
/// detection-delay repair pauses, and Poisson rare-stripe sampling at the
/// catastrophic boundary.
pub struct DeclusteredParams {
    /// Pool size in disks.
    d: u32,
    /// Local stripe width `k_l + p_l`.
    w: u32,
    /// Catastrophic threshold `p_l + 1`.
    threshold: u32,
    /// Stripes in the pool.
    total_stripes: f64,
    /// Detection delay added after every failure, hours.
    detection_hours: f64,
    /// Drain bandwidth in chunks/hour at each failed-disk count `0..=d`:
    /// `local_repair_bw(dep, 1, f) * 3600 / chunk_mb` (interval-start
    /// convention: looked up per step, held constant over it).
    drain_chunks_per_hour: Vec<f64>,
}

impl DeclusteredParams {
    /// The declustered-pool constants of the deployment.
    pub fn new(dep: &MlecDeployment) -> DeclusteredParams {
        let d = dep.local_pools().pool_size();
        let chunk_mb = dep.geometry.chunk_kb / 1e3;
        DeclusteredParams {
            d,
            w: dep.local_width(),
            threshold: dep.params.local.p as u32 + 1,
            total_stripes: dep.stripes_per_pool(),
            detection_hours: dep.config.detection_hours,
            drain_chunks_per_hour: (0..=d)
                .map(|f| crate::bandwidth::local_repair_bw(dep, 1, f).to_mbs() * 3600.0 / chunk_mb)
                .collect(),
        }
    }

    fn drain_rate(&self, failed: u32) -> f64 {
        #[expect(
            clippy::indexing_slicing,
            reason = "callers pass `failed <= d`, the inclusive bound the table was built with."
        )]
        self.drain_chunks_per_hour[failed as usize]
    }

    /// Reset to healthy after a catastrophe (the network level rebuilds the
    /// pool); repair of future failures resumes immediately.
    fn reset_after_catastrophe(&self, state: &mut DeclusteredState, now: f64) {
        state.census = StripeCensus::new(self.d, self.w, self.total_stripes);
        state.pending.clear();
        state.drain_paused_until = now;
    }
}

/// One declustered pool between events.
pub struct DeclusteredState {
    census: StripeCensus,
    /// Repair is paused until the most recent failure is detected.
    drain_paused_until: f64,
    /// FIFO of per-failure outstanding chunk volumes: when cumulative drain
    /// covers the head entry, that disk's data is fully in spare space and
    /// the disk is released (it no longer constrains stripe placement).
    pending: VecDeque<f64>,
    /// The time the drain was last applied up to, hours.
    advanced_to: f64,
}

impl PoolPolicy for DeclusteredParams {
    type State = DeclusteredState;

    fn healthy(&self) -> DeclusteredState {
        DeclusteredState {
            census: StripeCensus::new(self.d, self.w, self.total_stripes),
            drain_paused_until: 0.0,
            pending: VecDeque::new(),
            advanced_to: 0.0,
        }
    }

    fn pool_disks(&self) -> u32 {
        self.d
    }

    fn failed_disks(&self, state: &DeclusteredState) -> u32 {
        state.census.failed_disks()
    }

    fn next_repair_event(&self, state: &DeclusteredState, now: f64) -> f64 {
        // Time at which the current drain would finish everything.
        let remaining_chunks = state.census.failed_chunks();
        if remaining_chunks > 0.5 {
            let rate = self.drain_rate(state.census.failed_disks());
            // Floor the step so floating-point rounding at large `now` can
            // never produce a zero-length step (which would livelock).
            (state.drain_paused_until.max(now) + remaining_chunks / rate).max(now + 1e-6)
        } else {
            f64::INFINITY
        }
    }

    fn failure_wins_ties(&self) -> bool {
        // At a tie the failure is handled first (after the interval's drain
        // has been applied by `on_repair_progress`).
        true
    }

    fn on_repair_progress(&self, state: &mut DeclusteredState, to: f64) {
        // Apply the drain since the last advance; the rate is held at the
        // interval-start value (the same convention the exposure accounting
        // uses, so the likelihood ratio stays exact).
        let remaining_chunks = state.census.failed_chunks();
        let drain_start = state.drain_paused_until.max(state.advanced_to);
        state.advanced_to = to;
        if to > drain_start && remaining_chunks > 1e-9 {
            let budget = (to - drain_start) * self.drain_rate(state.census.failed_disks());
            let repaired = state.census.drain_priority(budget);
            state.census.consume_drain(&mut state.pending, repaired);
            if state.census.failed_chunks() < 0.5 {
                state.pending.clear();
            }
        }
    }

    fn on_repair_event(&self, state: &mut DeclusteredState, _now: f64, failed_before: u32) -> bool {
        // A pure drain step (already applied by `on_repair_progress`)
        // finished every outstanding chunk: back to all-healthy.
        failed_before > 0 && state.census.failed_disks() == 0
    }

    fn on_failure(
        &self,
        state: &mut DeclusteredState,
        kernel: &mut HazardKernel,
    ) -> FailureOutcome {
        let now = kernel.now();
        let threshold = self.threshold;
        if self.overwhelmed(state.census.failed_disks()) {
            self.reset_after_catastrophe(state, now);
            return FailureOutcome::Catastrophic {
                concurrent_failures: self.d,
                lost_stripes: self.total_stripes,
            };
        }
        let census = &mut state.census;
        let before = census.failed_chunks();
        census.add_disk_failure();
        state.pending.push_back(census.failed_chunks() - before);
        state.drain_paused_until = now + self.detection_hours;
        if census.failed_disks() >= threshold {
            let lambda = census.at_or_above(threshold);
            let lost = if lambda > 30.0 {
                lambda
            } else {
                sample_poisson(kernel.rng(), lambda) as f64
            };
            if lost >= 1.0 {
                let concurrent_failures = census.failed_disks();
                // Network repair resets the pool to healthy.
                self.reset_after_catastrophe(state, now);
                return FailureOutcome::Catastrophic {
                    concurrent_failures,
                    lost_stripes: lost,
                };
            }
            // Rare-stripe sampling says no stripe actually reached the
            // catastrophic multiplicity: zero those classes (drain clears
            // the top classes first by construction).
            let removed = census.at_or_above(threshold);
            let repaired = census.drain_priority(removed * threshold as f64 * 2.0);
            census.consume_drain(&mut state.pending, repaired);
            if census.failed_disks() == 0 {
                // All-healthy (possibly by the census's half-chunk snap):
                // no failed disk is left to release.
                state.pending.clear();
                return FailureOutcome::Regenerated;
            }
        }
        FailureOutcome::Continue
    }

    fn overwhelmed(&self, failed: u32) -> bool {
        // Essentially every disk is down: nothing is left to place stripes
        // on.
        failed + 1 >= self.d
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlec_topology::MlecScheme;

    fn dep(scheme: MlecScheme) -> MlecDeployment {
        MlecDeployment::paper_default(scheme)
    }

    fn simulate_pool_biased(
        dep: &MlecDeployment,
        model: &FailureModel,
        years: f64,
        seed: u64,
        bias: FailureBias,
    ) -> PoolSimResult {
        simulate_pool_observed(dep, model, years, seed, bias, &mut NoopObserver)
    }

    fn rate_per_pool_year(r: &PoolSimResult) -> f64 {
        r.events.iter().map(|e| e.weight).sum::<f64>() / r.pool_years
    }

    fn mean_excursion_weight(r: &PoolSimResult) -> f64 {
        r.excursion_weight / r.excursions as f64
    }

    #[test]
    fn deterministic_under_seed() {
        let model = FailureModel::Exponential { afr: 2.0 };
        let a = simulate_pool(&dep(MlecScheme::CC), &model, 10.0, 7);
        let b = simulate_pool(&dep(MlecScheme::CC), &model, 10.0, 7);
        assert_eq!(a, b);
    }

    #[test]
    fn clustered_failure_count_sane() {
        // 20 disks at AFR 1 for 50 years ≈ 1000 failures (small repair
        // windows barely matter).
        let model = FailureModel::Exponential { afr: 1.0 };
        let r = simulate_pool(&dep(MlecScheme::CC), &model, 50.0, 3);
        assert!(
            (r.disk_failures as f64 - 1000.0).abs() < 150.0,
            "failures={}",
            r.disk_failures
        );
    }

    #[test]
    fn no_catastrophe_at_negligible_afr() {
        let model = FailureModel::Exponential { afr: 1e-4 };
        let r = simulate_pool(&dep(MlecScheme::CC), &model, 100.0, 11);
        assert!(r.events.is_empty());
        let r = simulate_pool(&dep(MlecScheme::CD), &model, 100.0, 11);
        assert!(r.events.is_empty());
    }

    #[test]
    fn catastrophes_appear_at_inflated_afr() {
        // AFR 20: a 20-disk Cp pool sees 4-overlaps constantly.
        let model = FailureModel::Exponential { afr: 20.0 };
        let r = simulate_pool(&dep(MlecScheme::CC), &model, 20.0, 5);
        assert!(!r.events.is_empty());
        assert!(r.events.iter().all(|e| e.concurrent_failures >= 4));
        // Every Cp catastrophic event loses all stripes.
        let stripes = 20.0 * 156.25e6 / 20.0;
        assert!(r
            .events
            .iter()
            .all(|e| (e.lost_stripes - stripes).abs() < 1.0));
    }

    #[test]
    fn unbiased_events_carry_unit_weights() {
        // simulate_pool must stay the exact direct simulator: every event
        // weight exactly 1.0, every excursion weight exactly 1.0, and the
        // biased entry point with FailureBias::NONE is bit-identical.
        for scheme in [MlecScheme::CC, MlecScheme::CD] {
            let model = FailureModel::Exponential { afr: 10.0 };
            let direct = simulate_pool(&dep(scheme), &model, 30.0, 9);
            let via_biased = simulate_pool_biased(&dep(scheme), &model, 30.0, 9, FailureBias::NONE);
            assert_eq!(direct, via_biased);
            assert!(direct.events.iter().all(|e| e.weight == 1.0));
            assert!(direct.excursions > 0);
            assert_eq!(direct.excursion_weight, direct.excursions as f64);
            assert_eq!(mean_excursion_weight(&direct), 1.0);
        }
    }

    #[test]
    fn biased_rate_agrees_with_direct_at_inflated_afr() {
        // Unbiasedness cross-check in a regime where direct simulation is
        // cheap: the weighted biased estimate must fall within overlapping
        // 95% CIs of the direct one, and the mean excursion weight ≈ 1.
        // AFR 1.0 keeps the pool mostly healthy so excursions regenerate
        // often — the regime the weight-reset scheme is designed for (at
        // AFR ≥ 4 the pool is permanently degraded and degraded-only bias
        // degenerates into whole-path biasing).
        let model = FailureModel::Exponential { afr: 1.0 };
        let d = dep(MlecScheme::CC);
        let years = 2000.0;
        let direct = simulate_pool(&d, &model, years, 17);
        let biased = simulate_pool_biased(&d, &model, years, 18, FailureBias::degraded_only(3.0));
        let rate_d = rate_per_pool_year(&direct);
        let rate_b = rate_per_pool_year(&biased);
        assert!(
            direct.events.len() > 30,
            "direct events={}",
            direct.events.len()
        );
        assert!(!biased.events.is_empty());
        // Compound-Poisson standard errors: sqrt(sum w^2) / exposure.
        let se_d = (direct
            .events
            .iter()
            .map(|e| e.weight * e.weight)
            .sum::<f64>())
        .sqrt()
            / years;
        let se_b = (biased
            .events
            .iter()
            .map(|e| e.weight * e.weight)
            .sum::<f64>())
        .sqrt()
            / years;
        assert!(
            (rate_d - rate_b).abs() < 1.96 * (se_d + se_b),
            "direct={rate_d}±{se_d} biased={rate_b}±{se_b}"
        );
        let mw = mean_excursion_weight(&biased);
        assert!((mw - 1.0).abs() < 0.3, "mean excursion weight {mw}");
    }

    #[test]
    fn auto_bias_observes_events_at_paper_afr() {
        // The whole point: at the paper's true 1% AFR the direct simulator
        // sees nothing, while the auto-biased one observes catastrophes and
        // reports a tiny but finite weighted rate.
        let model = FailureModel::Exponential { afr: 0.01 };
        let d = dep(MlecScheme::CC);
        let direct = simulate_pool(&d, &model, 500.0, 23);
        assert!(
            direct.events.is_empty(),
            "1% AFR should be unobservable directly"
        );
        let bias = FailureBias::auto(&d, &model);
        assert!(bias.degraded > 10.0, "auto bias={bias:?}");
        let biased = simulate_pool_biased(&d, &model, 500.0, 23, bias);
        assert!(
            !biased.events.is_empty(),
            "importance sampling must observe events at 1% AFR"
        );
        let rate = rate_per_pool_year(&biased);
        assert!(rate.is_finite() && rate > 0.0, "rate={rate}");
        // Each event needed ~3 forced arrivals: weights are far below 1.
        assert!(biased
            .events
            .iter()
            .all(|e| e.weight.is_finite() && e.weight < 1e-2));
        let mw = mean_excursion_weight(&biased);
        assert!(mw > 0.1 && mw < 10.0, "mean excursion weight {mw}");
    }

    #[test]
    fn declustered_pool_more_durable_than_clustered_at_same_afr() {
        // The paper's Fig 7 core finding: */D pools are orders of magnitude
        // less likely to go catastrophic, thanks to priority rebuild of the
        // tiny multi-failure stripe classes. The effect needs repair windows
        // that don't permanently overlap, so inflate AFR only to 100%/yr
        // (still 100x the paper's). Compare per disk-failure because a
        // 120-disk Dp pool sees 6x the failures of a 20-disk Cp pool.
        let model = FailureModel::Exponential { afr: 1.0 };
        let cp = simulate_pool(&dep(MlecScheme::CC), &model, 600.0, 21);
        let dp = simulate_pool(&dep(MlecScheme::CD), &model, 600.0, 21);
        let cp_per_failure = cp.events.len() as f64 / cp.disk_failures.max(1) as f64;
        let dp_per_failure = dp.events.len() as f64 / dp.disk_failures.max(1) as f64;
        assert!(
            dp_per_failure < cp_per_failure / 3.0,
            "cp={cp_per_failure} dp={dp_per_failure}"
        );
    }

    #[test]
    fn declustered_lost_stripes_are_small_fraction() {
        // When a Dp pool does go catastrophic, only a small fraction of
        // stripes are lost (the mechanism behind R_HYB's 3.1 TB).
        let model = FailureModel::Exponential { afr: 12.0 };
        let r = simulate_pool(&dep(MlecScheme::DD), &model, 150.0, 13);
        assert!(!r.events.is_empty(), "need events at this AFR");
        let total_stripes = 120.0 * 156.25e6 / 20.0;
        for e in &r.events {
            assert!(
                e.lost_stripes < total_stripes * 0.10,
                "lost={} of {total_stripes}",
                e.lost_stripes
            );
        }
    }
}
