//! Whole-datacenter discrete-event simulation: every pool of the deployment
//! simulated together, with network-level repair of catastrophic pools and
//! data-loss detection — the paper's direct "Simulation" methodology (§3).
//!
//! Direct simulation resolves probabilities down to roughly `1/iterations`;
//! the paper (and this suite) uses it to validate the splitting estimator at
//! inflated failure rates, to measure repair-traffic distributions, and to
//! drive trace-based what-if studies. The rare-event durability numbers of
//! Fig 10 come from `mlec-analysis`'s splitting path instead.
//!
//! The local pools *are* [`crate::pool_sim`]'s policies: a mission keeps
//! one [`PoolPolicy`] per touched pool and advances it lazily to each
//! arrival in that pool (`on_repair_progress` → `on_repair_event` →
//! `on_failure`), so rebuild tracking, census drain, detection pauses and
//! rare-stripe sampling have one implementation. The network level treats a
//! catastrophic pool as its "disk": it enters a network-repair sojourn whose
//! length depends on the repair method; while `p_n + 1` pools in loss
//! position overlap, a data-loss event is recorded (with rare-stripe
//! thinning for chunk-knowledge methods on declustered locals).
//!
//! The next event is a race of two times, as in the pool simulators'
//! [`crate::kernel::run_pool_policy`]: the one pending failure arrival and
//! the earliest network repair in flight. A completion at or before the
//! arrival's time goes first, and completions that tie go in admission
//! order. Failure arrivals come from the shared
//! [`crate::kernel::HazardKernel`] through an [`ArrivalSource`] (stochastic
//! or trace-replay); the RNG draw order (inter-arrival gap, then disk
//! index, then per-pool processing draws) matches the original hand-rolled
//! loop exactly, so fixed-seed results are bit-identical — see the
//! `golden_*` tests below.

use crate::config::{MlecDeployment, HOURS_PER_YEAR};
use crate::failure::FailureModel;
use crate::importance::FailureBias;
use crate::kernel::{
    ArrivalSource, FailureOutcome, HazardKernel, NoopObserver, PoolPolicy, SimObserver,
};
use crate::pool_sim::{
    per_disk_rate, ClusteredParams, ClusteredPolicy, DeclusteredParams, DeclusteredPolicy,
};
use crate::repair::{chunk_knowledge_survival, inject_catastrophic, RepairMethod};
use mlec_topology::Placement;
use std::collections::BTreeMap;

/// Result of one system simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemSimResult {
    /// Simulated mission time in years.
    pub years: f64,
    /// Disk failures generated.
    pub disk_failures: u64,
    /// Catastrophic local-pool events.
    pub catastrophic_pools: u64,
    /// Data-loss events (a network stripe lost).
    pub data_loss_events: u64,
    /// Time of the first data loss, hours (None if none).
    pub first_loss_h: Option<f64>,
    /// Total cross-rack repair traffic, TB.
    pub cross_rack_traffic_tb: f64,
    /// Summed network-repair sojourn hours over all catastrophic pools
    /// (grows under bandwidth contention).
    pub total_sojourn_h: f64,
}

impl SystemSimResult {
    /// Empirical probability of data loss in the mission (0/1 per run; use
    /// many seeds and average).
    pub fn lost_data(&self) -> bool {
        self.data_loss_events > 0
    }
}

/// Optional realism knobs for the system simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SystemSimOptions {
    /// Model cross-rack bandwidth contention between concurrent
    /// catastrophic-pool repairs: a newly admitted repair's sojourn is
    /// stretched by the number of active repairs sharing its bottleneck
    /// (same target rack for network-clustered schemes, the global fabric
    /// for network-declustered ones). Off by default so results match the
    /// analytic splitting model, which assumes independent sojourns.
    pub shared_repair_bandwidth: bool,
}

/// What a mission fixes before its first event.
struct Mission<'a> {
    dep: &'a MlecDeployment,
    method: RepairMethod,
    years: f64,
    seed: u64,
    opts: SystemSimOptions,
}

/// Replay a recorded failure trace through the system simulator: identical
/// semantics to [`simulate_system_opts`] but failures come from the trace
/// rather than a stochastic model (the paper's trace-driven
/// fault-simulation mode).
pub fn simulate_system_trace(
    dep: &MlecDeployment,
    trace: &crate::trace::FailureTrace,
    method: RepairMethod,
    seed: u64,
) -> SystemSimResult {
    let mission = Mission {
        dep,
        method,
        years: (trace.span_h() / HOURS_PER_YEAR).max(f64::MIN_POSITIVE),
        seed,
        opts: SystemSimOptions::default(),
    };
    run_system(
        &mission,
        trace.arrival_source(dep.geometry.total_disks()),
        &mut NoopObserver,
    )
}

/// Simulate the whole deployment for `years`, with catastrophic pools
/// repaired over the network using `method`.
pub fn simulate_system_opts(
    dep: &MlecDeployment,
    failure_model: &FailureModel,
    method: RepairMethod,
    years: f64,
    seed: u64,
    opts: SystemSimOptions,
) -> SystemSimResult {
    simulate_system_observed(
        dep,
        failure_model,
        method,
        years,
        seed,
        opts,
        &mut NoopObserver,
    )
}

/// [`simulate_system_opts`] with a [`SimObserver`] attached: per-event
/// callbacks for disk failures, catastrophic pools, network-repair
/// completions, and data-loss events, plus degraded-interval accounting of
/// each pool's network-repair sojourn.
pub fn simulate_system_observed<O: SimObserver>(
    dep: &MlecDeployment,
    failure_model: &FailureModel,
    method: RepairMethod,
    years: f64,
    seed: u64,
    opts: SystemSimOptions,
    observer: &mut O,
) -> SystemSimResult {
    let rate = per_disk_rate(failure_model);
    let mission = Mission {
        dep,
        method,
        years,
        seed,
        opts,
    };
    run_system(
        &mission,
        // One aggregate arrival process over every disk in the deployment;
        // the same product the pre-kernel loop computed per draw.
        ArrivalSource::exponential(dep.geometry.total_disks() as f64 * rate),
        observer,
    )
}

/// A catastrophic pool's in-flight network reconstruction.
struct RepairInFlight {
    /// The pool under repair.
    pool: u32,
    /// Scheduled completion time, hours.
    done_h: f64,
    /// Admission time, hours (for degraded-interval accounting).
    admitted_h: f64,
    /// Concurrently failed disks when the pool went catastrophic.
    concurrent: u32,
}

/// Run the mission with the pool policy of the deployment's local
/// placement; the loop is monomorphised per policy type, so a clustered
/// pool's state is its rebuild list and nothing else.
fn run_system<O: SimObserver>(
    mission: &Mission,
    arrivals: ArrivalSource,
    observer: &mut O,
) -> SystemSimResult {
    match mission.dep.scheme.local {
        Placement::Clustered => {
            let params = ClusteredParams::new(mission.dep);
            run_pools(mission, arrivals, observer, || {
                ClusteredPolicy::new(&params)
            })
        }
        Placement::Declustered => {
            let params = DeclusteredParams::new(mission.dep);
            run_pools(mission, arrivals, observer, || {
                DeclusteredPolicy::new(&params)
            })
        }
    }
}

fn run_pools<P: PoolPolicy, O: SimObserver>(
    mission: &Mission,
    mut arrivals: ArrivalSource,
    observer: &mut O,
    healthy_pool: impl Fn() -> P,
) -> SystemSimResult {
    let &Mission {
        dep,
        method,
        years,
        seed,
        opts,
    } = mission;
    // Unbiased kernel: with multiplier 1 the exposure/jump accounting is a
    // no-op and the arrival draws are bit-identical to raw sampling; the
    // kernel still owns the RNG stream and the failure counter.
    let mut kernel = HazardKernel::from_seed_stream(
        seed,
        "system_sim",
        FailureBias::NONE,
        years * HOURS_PER_YEAR,
    );
    let pools = dep.local_pools();
    let pn1 = dep.params.network.p as u32 + 1;
    let horizon = kernel.horizon();

    // Repair plan for the configured method (identical for every pool), and
    // the chance that an overlap in loss position really loses a network
    // stripe: with chunk knowledge only each pool's actually-lost stripes
    // count, so the overlap may hold no lost network stripe (paper §4.2.3
    // F#1).
    let injected = inject_catastrophic(dep);
    let plan = method.plan(dep, &injected);
    let sojourn_h = plan.network_time_h;
    let survival =
        chunk_knowledge_survival(dep, method, injected.lost_stripes, injected.total_stripes);

    // Touched pools not under network repair, each with the time its policy
    // was last advanced to. A pool is advanced only when a failure lands in
    // it: whatever repair completed since is applied first, so an arrival
    // never sees a rebuild that finished at its own timestamp, and the
    // drain guard and thresholds are the policy's own.
    let mut states: BTreeMap<u32, (f64, P)> = BTreeMap::new();
    // Catastrophic pools under network repair, in admission order.
    let mut in_flight: Vec<RepairInFlight> = Vec::new();

    let mut catastrophic_pools = 0u64;
    let mut data_loss_events = 0u64;
    let mut first_loss_h = None;
    let mut cross_rack_traffic_tb = 0.0f64;
    let mut total_sojourn_h = 0.0f64;

    // Failure arrivals: stochastic (aggregate-rate exponential; the rate
    // reduction from <0.1% failed disks is negligible) or trace records.
    let mut pending = arrivals.next_arrival(&mut kernel, 0.0);
    loop {
        // Race the pending arrival against the earliest repair in flight. A
        // completion at or before the arrival's time goes first, so an
        // arrival never sees a repair that finished at its own timestamp;
        // `min_by` keeps the first of tied completions, the earliest
        // admitted. With no arrival left, every repair drains.
        let due = in_flight
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| a.done_h.total_cmp(&b.done_h))
            .filter(|(_, r)| pending.is_none_or(|(t, _)| r.done_h <= t))
            .map(|(i, _)| i);
        if let Some(i) = due {
            let repair = in_flight.remove(i);
            observer.on_degraded_interval(repair.admitted_h, repair.done_h, repair.concurrent);
            observer.on_repair(repair.done_h, 0);
            continue;
        }
        // The mission ends at the first arrival past the horizon, or once a
        // trace is exhausted and its repairs have drained.
        let Some((now, disk)) = pending.filter(|&(t, _)| t <= horizon) else {
            break;
        };
        let disk = disk.unwrap_or_else(|| {
            kernel
                .rng()
                .gen_below(u64::from(dep.geometry.total_disks())) as u32
        });
        kernel.advance_to(now);
        kernel.record_failure();

        let pool = pools.pool_of(disk);
        // The failed-disk count of a pool this failure sends catastrophic.
        let catastrophe = if in_flight.iter().any(|r| r.pool == pool) {
            // Pool already under network reconstruction; the failure is
            // absorbed by that repair.
            observer.on_disk_failure(now, 0);
            None
        } else {
            let (advanced_to, policy) = states.entry(pool).or_insert_with(|| (0.0, healthy_pool()));
            let failed_before = policy.failed_disks();
            policy.on_repair_progress(*advanced_to, now);
            policy.on_repair_event(now, failed_before);
            *advanced_to = now;
            // The failed-disk count of the pool after this failure feeds the
            // observer hooks.
            let (catastrophe, pool_failed) = match policy.on_failure(&mut kernel) {
                FailureOutcome::Catastrophic {
                    concurrent_failures,
                    ..
                } => (Some(concurrent_failures), concurrent_failures),
                FailureOutcome::Continue | FailureOutcome::Regenerated => {
                    (None, policy.failed_disks())
                }
            };
            observer.on_disk_failure(now, pool_failed);
            catastrophe
        };

        if let Some(pool_failed) = catastrophe {
            catastrophic_pools += 1;
            cross_rack_traffic_tb += plan.cross_rack_traffic_tb;
            observer.on_catastrophe(now, pool_failed, injected.lost_stripes, 1.0);
            states.remove(&pool); // network repair rebuilds the pool

            // Bandwidth contention: concurrent repairs sharing this repair's
            // bottleneck stretch its sojourn (snapshot at admission).
            let contention = if opts.shared_repair_bandwidth {
                let sharing = match dep.scheme.network {
                    Placement::Clustered => {
                        // Same target rack shares its ingress link.
                        let rack = pools.rack_of_pool(pool);
                        in_flight
                            .iter()
                            .filter(|r| pools.rack_of_pool(r.pool) == rack)
                            .count()
                    }
                    // Declustered repairs all share the global fabric.
                    Placement::Declustered => in_flight.len(),
                };
                (sharing + 1) as f64
            } else {
                1.0
            };
            total_sojourn_h += sojourn_h * contention;
            in_flight.push(RepairInFlight {
                pool,
                done_h: now + sojourn_h * contention,
                admitted_h: now,
                concurrent: pool_failed,
            });

            // Data-loss check: p_n+1 overlapping catastrophic pools in loss
            // position.
            let in_loss_position = match dep.scheme.network {
                Placement::Clustered => {
                    let group_size = dep.network_width();
                    let mut slots: BTreeMap<(u32, u32), u32> = BTreeMap::new();
                    for r in &in_flight {
                        let key = (
                            pools.rack_of_pool(r.pool) / group_size,
                            pools.position_in_rack(r.pool),
                        );
                        *slots.entry(key).or_insert(0) += 1;
                    }
                    slots.values().any(|&n| n >= pn1)
                }
                Placement::Declustered => {
                    let mut racks: Vec<u32> = in_flight
                        .iter()
                        .map(|r| pools.rack_of_pool(r.pool))
                        .collect();
                    racks.sort_unstable();
                    racks.dedup();
                    racks.len() as u32 >= pn1
                }
            };
            if in_loss_position && kernel.rng().gen_bool(survival.clamp(0.0, 1.0)) {
                data_loss_events += 1;
                first_loss_h.get_or_insert(now);
                observer.on_data_loss(now);
            }
        }
        pending = arrivals.next_arrival(&mut kernel, now);
    }

    // Censored degraded intervals for pools still under network repair at
    // the end of the run, in pool order.
    in_flight.sort_unstable_by_key(|r| r.pool);
    for repair in &in_flight {
        observer.on_degraded_interval(
            repair.admitted_h,
            repair.done_h.min(horizon),
            repair.concurrent,
        );
    }

    SystemSimResult {
        years,
        disk_failures: kernel.disk_failures(),
        catastrophic_pools,
        data_loss_events,
        first_loss_h,
        cross_rack_traffic_tb,
        total_sojourn_h,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlec_topology::MlecScheme;

    fn dep(scheme: MlecScheme) -> MlecDeployment {
        MlecDeployment::paper_default(scheme)
    }

    /// A 144-disk system with (2+1)/(3+1) codes: failures and losses are
    /// cheap to provoke, keeping statistical tests fast.
    fn small_dep(scheme: MlecScheme) -> MlecDeployment {
        MlecDeployment {
            geometry: mlec_topology::Geometry::small_test(),
            params: mlec_ec::MlecParams::new(2, 1, 3, 1),
            scheme,
            config: crate::SimConfig::paper_default(),
        }
    }

    /// The default-options mission most tests run.
    fn simulate_system(
        dep: &MlecDeployment,
        failure_model: &FailureModel,
        method: RepairMethod,
        years: f64,
        seed: u64,
    ) -> SystemSimResult {
        let opts = SystemSimOptions::default();
        simulate_system_opts(dep, failure_model, method, years, seed, opts)
    }

    /// Kernel-invariance goldens: bit-identical values captured from the
    /// original hand-rolled loop. Every structural change to the mission
    /// loop must reproduce every counter and the exact f64 bits of the
    /// first-loss timestamp.
    #[test]
    fn golden_small_system_kernel_invariance() {
        // (seed, disk_failures, catastrophic, losses, first_loss bits,
        //  traffic TB, sojourn h)
        let expect = [
            (
                0u64,
                11525u64,
                4095u64,
                4059u64,
                Some(4629182367612455520u64),
                982800.0,
                184047.5,
            ),
            (
                1,
                11559,
                4120,
                4091,
                Some(4634701570660637926),
                988800.0,
                185171.111111,
            ),
            (
                2,
                11600,
                4152,
                4107,
                Some(4632270670623875367),
                996480.0,
                186609.333333,
            ),
            (
                3,
                11623,
                4160,
                4125,
                Some(4626115151872540084),
                998400.0,
                186968.888889,
            ),
        ];
        let model = FailureModel::Exponential { afr: 20.0 };
        for (seed, df, cat, loss, first_bits, traffic, sojourn) in expect {
            let r = simulate_system(
                &small_dep(MlecScheme::DC),
                &model,
                RepairMethod::All,
                4.0,
                seed,
            );
            assert_eq!(r.disk_failures, df, "seed {seed}");
            assert_eq!(r.catastrophic_pools, cat, "seed {seed}");
            assert_eq!(r.data_loss_events, loss, "seed {seed}");
            assert_eq!(r.first_loss_h.map(f64::to_bits), first_bits, "seed {seed}");
            assert!(
                (r.cross_rack_traffic_tb - traffic).abs() < 1e-3,
                "seed {seed}: {r:?}"
            );
            assert!(
                (r.total_sojourn_h - sojourn).abs() < 1e-3,
                "seed {seed}: {r:?}"
            );
        }
    }

    /// Kernel-invariance golden at paper scale (57,600 disks).
    #[test]
    fn golden_paper_scale_kernel_invariance() {
        let model = FailureModel::Exponential { afr: 1.0 };
        let r = simulate_system(&dep(MlecScheme::CD), &model, RepairMethod::Fco, 2.0, 7);
        assert_eq!(r.disk_failures, 115255);
        assert_eq!(r.catastrophic_pools, 44);
        assert_eq!(r.data_loss_events, 0);
        assert_eq!(r.first_loss_h, None);
        assert!((r.cross_rack_traffic_tb - 38720.0).abs() < 1e-3, "{r:?}");
        assert!((r.total_sojourn_h - 3933.111111).abs() < 1e-3, "{r:?}");
    }

    /// One fixed-seed mission result, every float as its exact bits:
    /// `(disk_failures, catastrophic, losses, first_loss, traffic TB,
    /// sojourn h)`.
    type Golden = (u64, u64, u64, Option<u64>, u64, u64);

    fn golden_of(r: &SystemSimResult) -> Golden {
        (
            r.disk_failures,
            r.catastrophic_pools,
            r.data_loss_events,
            r.first_loss_h.map(f64::to_bits),
            r.cross_rack_traffic_tb.to_bits(),
            r.total_sojourn_h.to_bits(),
        )
    }

    /// Goldens recorded from the inlined `PoolState` loop before
    /// `run_system` was ported onto the pool policies: declustered locals
    /// under a chunk-knowledge method with data loss, so the census drain,
    /// the per-pool catastrophe decision and the network-level thinning
    /// draw are all pinned through the port.
    #[test]
    fn golden_declustered_locals_with_chunk_knowledge() {
        let expect: [(MlecScheme, RepairMethod, [Golden; 4]); 2] = [
            (
                MlecScheme::DD,
                RepairMethod::Hyb,
                [
                    (
                        11670,
                        4643,
                        2442,
                        Some(4628139500544131491),
                        4684461068791340553,
                        4674102240725538641,
                    ),
                    (
                        11562,
                        4622,
                        2451,
                        Some(4629168181892938633),
                        4684437454280244006,
                        4674064370046631937,
                    ),
                    (
                        11538,
                        4621,
                        2396,
                        Some(4634638952016308595),
                        4684436329779715599,
                        4674062566680969713,
                    ),
                    (
                        11420,
                        4529,
                        2338,
                        Some(4621192125440000031),
                        4684332875731102155,
                        4673896657040045105,
                    ),
                ],
            ),
            (
                MlecScheme::CD,
                RepairMethod::Min,
                [
                    (
                        11690,
                        4661,
                        838,
                        Some(4643336830256199054),
                        4679977710173481383,
                        4674134701307458673,
                    ),
                    (
                        11469,
                        4593,
                        824,
                        Some(4638868826519741148),
                        4679901244137549707,
                        4674012072442427441,
                    ),
                    (
                        11594,
                        4611,
                        754,
                        Some(4639910338779900940),
                        4679921485147061033,
                        4674044533024347473,
                    ),
                    (
                        11441,
                        4544,
                        815,
                        Some(4632433872153273915),
                        4679846143611657764,
                        4673923707524978465,
                    ),
                ],
            ),
        ];
        let model = FailureModel::Exponential { afr: 20.0 };
        for (scheme, method, goldens) in expect {
            for (seed, golden) in goldens.into_iter().enumerate() {
                let r = simulate_system(&small_dep(scheme), &model, method, 4.0, seed as u64);
                assert_eq!(golden_of(&r), golden, "{scheme} {method} seed {seed}");
            }
        }
    }

    /// Parent-recorded goldens for the contention stretch (3-year missions,
    /// seed 5): same-rack sharing on a clustered network level, the global
    /// fabric on a declustered one.
    #[test]
    fn golden_shared_repair_bandwidth() {
        let expect: [(MlecScheme, RepairMethod, f64, Golden); 3] = [
            (
                MlecScheme::DC,
                RepairMethod::All,
                10.0,
                (
                    4314,
                    586,
                    584,
                    Some(4640988482051324060),
                    4684072366442020864,
                    4693041427341610548,
                ),
            ),
            (
                MlecScheme::CD,
                RepairMethod::Fco,
                20.0,
                (
                    8680,
                    2101,
                    1956,
                    Some(4634396530864369907),
                    4687902790075285504,
                    4684039633064602186,
                ),
            ),
            (
                MlecScheme::DD,
                RepairMethod::Hyb,
                20.0,
                (
                    8569,
                    2979,
                    2461,
                    Some(4631567718469540016),
                    4681436187358825745,
                    4677921463084094536,
                ),
            ),
        ];
        let opts = SystemSimOptions {
            shared_repair_bandwidth: true,
        };
        for (scheme, method, afr, golden) in expect {
            let model = FailureModel::Exponential { afr };
            let r = simulate_system_opts(&small_dep(scheme), &model, method, 3.0, 5, opts);
            assert_eq!(golden_of(&r), golden, "{scheme} {method}");
        }
    }

    /// Kernel-invariance golden for the trace-replay arrival source.
    #[test]
    fn golden_trace_replay_kernel_invariance() {
        let g = mlec_topology::Geometry::paper_default();
        let trace = crate::trace::synthesize(
            &g,
            &crate::trace::TraceSpec {
                background_afr: 0.05,
                bursts_per_year: 1.0,
                burst_size: 20,
                burst_racks: 2,
                years: 2.0,
            },
            5,
        )
        .unwrap();
        let r = simulate_system_trace(&dep(MlecScheme::CC), &trace, RepairMethod::Fco, 9);
        assert_eq!(r.disk_failures, 5889);
        assert_eq!(r.catastrophic_pools, 0);
        assert_eq!(r.data_loss_events, 0);
        assert_eq!(r.cross_rack_traffic_tb, 0.0);
        assert_eq!(r.total_sojourn_h, 0.0);

        // The `trace` experiment's defaults: single-rack bursts drive pools
        // catastrophic, so the replay reaches network repair.
        let trace = crate::trace::synthesize(
            &g,
            &crate::trace::TraceSpec {
                background_afr: 0.01,
                bursts_per_year: 1.0,
                burst_size: 60,
                burst_racks: 1,
                years: 5.0,
            },
            42,
        )
        .unwrap();
        let expect: [(MlecScheme, Golden); 4] = [
            (
                MlecScheme::CC,
                (3246, 9, 0, None, 4656422947538337792, 4641399220656406529),
            ),
            (
                MlecScheme::CD,
                (3246, 55, 0, None, 4631223181357346278, 4629651226824065253),
            ),
            (
                MlecScheme::DC,
                (3246, 9, 0, None, 4656422947538337792, 4630990510580127063),
            ),
            (
                MlecScheme::DD,
                (3246, 55, 0, None, 4631223181357346278, 4628656978210110714),
            ),
        ];
        for (scheme, golden) in expect {
            let r = simulate_system_trace(&dep(scheme), &trace, RepairMethod::Min, 1);
            assert_eq!(golden_of(&r), golden, "{scheme}");
        }
    }

    /// A completion is handled before an arrival at its own timestamp: the
    /// second burst lands in the pool the instant its network repair
    /// completes, so it finds a healthy pool and goes catastrophic again
    /// instead of being absorbed by the finished repair.
    #[test]
    fn completion_precedes_arrival_at_the_same_time() {
        let d = dep(MlecScheme::CC);
        let pools = d.local_pools();
        let sojourn_h = RepairMethod::All
            .plan(&d, &inject_catastrophic(&d))
            .network_time_h;
        let burst = d.params.local.p + 1;
        let mut events: Vec<crate::trace::TraceEvent> = [0.0, sojourn_h]
            .into_iter()
            .flat_map(|time_h| {
                pools
                    .disks_of_pool(3)
                    .take(burst)
                    .map(move |disk| crate::trace::TraceEvent { time_h, disk })
            })
            .collect();
        // A later failure elsewhere puts the horizon past the tie.
        let later = pools.disks_of_pool(40).next().unwrap();
        events.push(crate::trace::TraceEvent {
            time_h: 2.0 * sojourn_h,
            disk: later,
        });
        let trace = crate::trace::FailureTrace::new(events);
        let r = simulate_system_trace(&d, &trace, RepairMethod::All, 0);
        assert_eq!(r.disk_failures, 2 * burst as u64 + 1);
        assert_eq!(r.catastrophic_pools, 2, "{r:?}");
    }

    #[test]
    fn deterministic_under_seed() {
        let model = FailureModel::Exponential { afr: 0.5 };
        let a = simulate_system(&dep(MlecScheme::CC), &model, RepairMethod::All, 2.0, 3);
        let b = simulate_system(&dep(MlecScheme::CC), &model, RepairMethod::All, 2.0, 3);
        assert_eq!(a, b);
    }

    #[test]
    fn failure_volume_matches_afr() {
        // 57,600 disks at AFR 1% over 10 years ≈ 5,760 failures.
        let model = FailureModel::Exponential { afr: 0.01 };
        let r = simulate_system(&dep(MlecScheme::CC), &model, RepairMethod::All, 10.0, 7);
        assert!(
            (r.disk_failures as f64 - 5760.0).abs() < 400.0,
            "failures={}",
            r.disk_failures
        );
    }

    #[test]
    fn weibull_mission_runs_at_the_renewal_rate() {
        // Shape 2 with a one-year MTTF: 57,600 disks over 1 year at the
        // renewal rate 1 / MTTF ≈ 57,600 failures.
        let shape = 2.0;
        let model = FailureModel::Weibull {
            shape,
            scale_hours: HOURS_PER_YEAR / crate::failure::gamma_fn(1.0 + 1.0 / shape),
        };
        let r = simulate_system(&dep(MlecScheme::CC), &model, RepairMethod::All, 1.0, 7);
        assert!(
            (r.disk_failures as f64 - 57_600.0).abs() < 1_200.0,
            "failures={}",
            r.disk_failures
        );
    }

    #[test]
    fn no_loss_at_paper_afr_over_short_missions() {
        // At 1% AFR the system must survive a few years with overwhelming
        // probability (its durability is tens of nines).
        let model = FailureModel::Exponential { afr: 0.01 };
        for scheme in MlecScheme::ALL {
            let r = simulate_system(&dep(scheme), &model, RepairMethod::Fco, 3.0, 11);
            assert_eq!(r.data_loss_events, 0, "{scheme}");
        }
    }

    #[test]
    fn inflated_afr_produces_catastrophic_pools_and_traffic() {
        let model = FailureModel::Exponential { afr: 2.0 };
        let r = simulate_system(&dep(MlecScheme::CC), &model, RepairMethod::All, 3.0, 13);
        assert!(r.catastrophic_pools > 0, "{r:?}");
        assert!(r.cross_rack_traffic_tb > 0.0);
        // Traffic accounting: every catastrophic pool moved one R_ALL plan's
        // worth of bytes.
        let expected = r.catastrophic_pools as f64 * 4400.0;
        assert!((r.cross_rack_traffic_tb - expected).abs() < 1.0);
    }

    #[test]
    fn rmin_moves_less_traffic_than_rall_at_same_seed() {
        let model = FailureModel::Exponential { afr: 2.0 };
        let all = simulate_system(&dep(MlecScheme::CC), &model, RepairMethod::All, 3.0, 17);
        let min = simulate_system(&dep(MlecScheme::CC), &model, RepairMethod::Min, 3.0, 17);
        if all.catastrophic_pools > 0 && min.catastrophic_pools > 0 {
            let all_per = all.cross_rack_traffic_tb / all.catastrophic_pools as f64;
            let min_per = min.cross_rack_traffic_tb / min.catastrophic_pools as f64;
            assert!(min_per < all_per / 10.0, "all={all_per} min={min_per}");
        }
    }

    #[test]
    fn extreme_afr_eventually_loses_data() {
        // Sanity: the loss path fires under absurd failure pressure.
        let model = FailureModel::Exponential { afr: 20.0 };
        let mut any_loss = false;
        for seed in 0..8 {
            let r = simulate_system(
                &small_dep(MlecScheme::DC),
                &model,
                RepairMethod::All,
                4.0,
                seed,
            );
            any_loss |= r.lost_data();
        }
        assert!(any_loss, "no data loss at AFR 20 across seeds");
    }

    #[test]
    fn bandwidth_contention_stretches_sojourns() {
        // The direct property: under contention, the per-repair sojourn can
        // only grow, so the mean sojourn per catastrophic pool is at least
        // the uncontended one.
        let model = FailureModel::Exponential { afr: 10.0 };
        let mut base_h = 0.0;
        let mut base_n = 0u64;
        let mut shared_h = 0.0;
        let mut shared_n = 0u64;
        for seed in 0..10 {
            let b = simulate_system(
                &small_dep(MlecScheme::DC),
                &model,
                RepairMethod::All,
                3.0,
                seed,
            );
            base_h += b.total_sojourn_h;
            base_n += b.catastrophic_pools;
            let s = simulate_system_opts(
                &small_dep(MlecScheme::DC),
                &model,
                RepairMethod::All,
                3.0,
                seed,
                SystemSimOptions {
                    shared_repair_bandwidth: true,
                },
            );
            shared_h += s.total_sojourn_h;
            shared_n += s.catastrophic_pools;
        }
        assert!(base_n > 0 && shared_n > 0);
        let base_mean = base_h / base_n as f64;
        let shared_mean = shared_h / shared_n as f64;
        assert!(
            shared_mean >= base_mean,
            "base={base_mean} shared={shared_mean}"
        );
    }

    #[test]
    fn trace_replay_matches_trace_volume() {
        let g = mlec_topology::Geometry::paper_default();
        let trace = crate::trace::synthesize(
            &g,
            &crate::trace::TraceSpec {
                background_afr: 0.05,
                bursts_per_year: 1.0,
                burst_size: 20,
                burst_racks: 2,
                years: 2.0,
            },
            5,
        )
        .unwrap();
        let r = simulate_system_trace(&dep(MlecScheme::CC), &trace, RepairMethod::Fco, 9);
        assert_eq!(r.disk_failures as usize, trace.len());
        assert!((r.years - trace.span_h() / 8766.0).abs() < 0.01);
    }

    #[test]
    fn trace_burst_can_cause_catastrophic_pool() {
        // A synthetic trace with a dense burst confined to one rack must
        // drive at least one pool catastrophic under clustered placement.
        let _ = mlec_topology::Geometry::paper_default();
        let dep_cc = dep(MlecScheme::CC);
        let pools = dep_cc.local_pools();
        // Fail 5 disks of pool 7 within a minute.
        let events: Vec<crate::trace::TraceEvent> = pools
            .disks_of_pool(7)
            .take(5)
            .enumerate()
            .map(|(i, disk)| crate::trace::TraceEvent {
                time_h: 1.0 + i as f64 * 0.01,
                disk,
            })
            .collect();
        let trace = crate::trace::FailureTrace::new(events);
        let r = simulate_system_trace(&dep_cc, &trace, RepairMethod::All, 2);
        assert!(r.catastrophic_pools >= 1, "{r:?}");
    }

    #[test]
    fn knowledge_methods_lose_less_often_on_dp_locals() {
        // The §4.2.3 F#1 effect, observed directly in simulation: R_ALL on
        // a local-Dp scheme declares loss in overlaps where R_FCO's chunk
        // knowledge (few actually-lost stripes + shorter sojourn) survives.
        // Statistical comparison over many small-system missions.
        let model = FailureModel::Exponential { afr: 6.0 };
        let mut all_losses = 0u64;
        let mut fco_losses = 0u64;
        for seed in 0..40 {
            all_losses += simulate_system(
                &small_dep(MlecScheme::CD),
                &model,
                RepairMethod::All,
                4.0,
                seed,
            )
            .data_loss_events;
            fco_losses += simulate_system(
                &small_dep(MlecScheme::CD),
                &model,
                RepairMethod::Fco,
                4.0,
                seed,
            )
            .data_loss_events;
        }
        assert!(all_losses > 0, "need R_ALL losses for a meaningful test");
        assert!(
            (fco_losses as f64) < all_losses as f64 * 0.8,
            "all={all_losses} fco={fco_losses}"
        );
    }
}
