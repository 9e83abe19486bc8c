//! Pool-level Markov chain builders: the analytic counterpart of
//! [`mlec_sim::pool_sim`] that reaches the 10^-9-per-pool-year catastrophic
//! rates (Fig 7) no Monte Carlo budget could resolve.
//!
//! State = current maximum stripe-failure multiplicity in the pool
//! (equivalently, concurrent unrepaired failures for clustered pools).
//! Absorption at `p_l + 1` is a catastrophic (locally-unrecoverable) pool.
//!
//! - **Clustered pools** rebuild failed disks one at a time onto the
//!   pool's spare (rate `1 / T_disk` out of every state).
//! - **Declustered pools** repair by priority: the de-escalation rate out of
//!   state `m ≥ 2` is the inverse of the time to drain the class-`m` stripe
//!   census (tiny — this is why Dp pools are orders of magnitude more
//!   durable, paper §4.1.3), while state 1 drains a whole disk's worth of
//!   chunks at the declustered rate.

use crate::markov::BirthDeathChain;
use mlec_sim::bandwidth::{local_repair_bw, single_disk_repair_bw};
use mlec_sim::census::prob_cover_all;
use mlec_sim::config::MlecDeployment;
use mlec_topology::Placement;
use mlec_units::{Bandwidth, Duration, Rate, Volume};

/// Build the catastrophic-failure chain of one local pool of `dep`.
pub fn pool_chain(dep: &MlecDeployment) -> BirthDeathChain {
    match dep.scheme.local {
        Placement::Clustered => generic_clustered_chain(
            dep.local_pools().pool_size(),
            dep.params.local.p,
            dep.config.disk_failure_rate(),
            dep.config.detection()
                + Volume::from_tb(dep.geometry.disk_capacity_tb)
                    .transfer_time_mb(single_disk_repair_bw(dep)),
        ),
        Placement::Declustered => declustered_pool_chain(dep),
    }
}

/// Catastrophic-event rate of one local pool (per pool-year).
pub fn pool_catastrophic_rate(dep: &MlecDeployment) -> Rate {
    pool_chain(dep).absorb_hazard()
}

/// Catastrophic-event rate of the whole system (all pools; Fig 7's y-axis
/// is this expressed as a probability, identical for rare events).
pub fn system_catastrophic_rate(dep: &MlecDeployment) -> Rate {
    pool_catastrophic_rate(dep) * dep.local_pools().num_pools() as f64
}

fn declustered_pool_chain(dep: &MlecDeployment) -> BirthDeathChain {
    let pools = dep.local_pools();
    let d = pools.pool_size();
    let w = dep.local_width();
    let pl = dep.params.local.p;
    let lambda = dep.config.disk_failure_rate().to_per_hour();
    let chunk_mb = dep.geometry.chunk_kb / 1e3;
    let total_stripes = dep.stripes_per_pool();

    let fail: Vec<f64> = (0..=pl).map(|m| (d as f64 - m as f64) * lambda).collect();
    let mut repair = Vec::with_capacity(pl);
    for m in 1..=pl as u32 {
        // Window at state m: detection + time to drain the class-m census
        // that exists right after the m-th failure (priority rebuild).
        let class_m_stripes = total_stripes * prob_cover_all(d, w, m);
        let class_m_chunks = class_m_stripes * m as f64;
        let bw = local_repair_bw(dep, 1, m).to_mbs();
        let chunks_per_hour = bw * 3600.0 / chunk_mb;
        let drain_hours = if m == 1 {
            // State 1 must drain the whole disk's content.
            dep.geometry.disk_capacity_tb * 1e6 / bw / 3600.0
        } else {
            class_m_chunks / chunks_per_hour
        };
        let window = dep.config.detection_hours + drain_hours;
        repair.push(1.0 / window);
    }
    BirthDeathChain::new(fail, repair)
}

/// Inputs of [`generic_declustered_chain`]. The quantity fields keep the
/// raw-`f64`-with-suffix convention (this is a parameter record, the same
/// boundary role as `SimConfig`); the chain builder is the only consumer
/// and does its arithmetic on the named fields directly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeclusteredChainSpec {
    /// Disks in the (declustered) pool.
    pub pool_disks: u32,
    /// Stripe width `k + p`.
    pub width: u32,
    /// Failures tolerated per stripe (`p` for MR codes).
    pub tolerance: usize,
    /// Per-disk failure rate, events/hour.
    pub lambda_per_hour: f64,
    /// Failure-detection delay, hours.
    pub detection_hours: f64,
    /// Per-disk capacity, TB.
    pub disk_capacity_tb: f64,
    /// Chunk size, KB.
    pub chunk_kb: f64,
    /// Chunks per disk.
    pub chunks_per_disk: f64,
    /// Bandwidth draining a whole failed disk (state 1), MB/s.
    pub single_bw_mbs: f64,
    /// Bandwidth draining multi-failure stripe classes (states ≥ 2), MB/s.
    pub class_bw_mbs: f64,
}

/// Generic declustered-pool chain: `pool_disks` disks, stripes of
/// `width`, absorption when some stripe reaches `tolerance + 1` failed
/// chunks. `single_bw_mbs` drains a whole failed disk (state 1);
/// `class_bw_mbs` drains the multi-failure stripe classes (states ≥ 2).
pub fn generic_declustered_chain(spec: &DeclusteredChainSpec) -> BirthDeathChain {
    let DeclusteredChainSpec {
        pool_disks,
        width,
        tolerance,
        lambda_per_hour,
        detection_hours,
        disk_capacity_tb,
        chunk_kb,
        chunks_per_disk,
        single_bw_mbs,
        class_bw_mbs,
    } = *spec;
    let total_stripes = pool_disks as f64 * chunks_per_disk / width as f64;
    let chunk_mb = chunk_kb / 1e3;
    // Escalation from state m requires the new failed disk to intersect a
    // surviving class-m stripe. In a small pool (120 disks) the class-m
    // census is millions of stripes and this is certain; in a system-wide
    // declustered pool (tens of thousands of disks) the top classes hold
    // only a handful of stripes and the thinning factor is the dominant
    // protection.
    let fail: Vec<f64> = (0..=tolerance)
        .map(|m| {
            let base = (pool_disks as f64 - m as f64) * lambda_per_hour;
            if m == 0 {
                return base;
            }
            let n_m = total_stripes * prob_cover_all(pool_disks, width, m as u32);
            let hit = (width as f64 - m as f64) / (pool_disks as f64 - m as f64);
            let intersect = -(-n_m * hit).exp_m1();
            base * intersect.clamp(0.0, 1.0)
        })
        .collect();
    let mut repair = Vec::with_capacity(tolerance);
    for m in 1..=tolerance as u32 {
        let drain_hours = if m == 1 {
            Volume::from_tb(disk_capacity_tb)
                .transfer_time_mb(Bandwidth::from_mbs(single_bw_mbs))
                .to_hours()
        } else {
            let class_chunks = total_stripes * prob_cover_all(pool_disks, width, m) * m as f64;
            class_chunks * chunk_mb / Bandwidth::from_mbs(class_bw_mbs).to_mb_per_hour()
        };
        repair.push(1.0 / (detection_hours + drain_hours));
    }
    BirthDeathChain::new(fail, repair)
}

/// Generic clustered-pool chain: `width` disks per pool, per-disk rebuild
/// time `t_disk`, absorption at `tolerance + 1` concurrent failures. It is
/// also [`pool_chain`]'s clustered variant.
///
/// Rebuilds serialize on the pool's spare disk (paper Fig 2d: "repair to
/// spare disk" — one write target), so the de-escalation rate does not
/// grow with the number of concurrent failures. This is exactly the
/// repair-parallelism disadvantage that declustered placement removes.
pub fn generic_clustered_chain(
    width: u32,
    tolerance: usize,
    lambda: Rate,
    t_disk: Duration,
) -> BirthDeathChain {
    let lambda_per_hour = lambda.to_per_hour();
    let fail: Vec<f64> = (0..=tolerance)
        .map(|m| (width as f64 - m as f64) * lambda_per_hour)
        .collect();
    let repair: Vec<f64> = (1..=tolerance).map(|_| 1.0 / t_disk.to_hours()).collect();
    BirthDeathChain::new(fail, repair)
}

/// One-year durability (in nines) of a SLEC deployment over the given
/// geometry, used by the Fig 12 tradeoff scatter.
pub fn slec_durability_nines(
    geometry: &mlec_topology::Geometry,
    config: &mlec_sim::SimConfig,
    params: mlec_ec::SlecParams,
    placement: mlec_topology::SlecPlacement,
) -> f64 {
    use mlec_topology::SlecPlacement as P;
    let w = params.width() as u32;
    let lambda = config.disk_failure_rate();
    let disk_bw = config.disk_repair_bw().to_mbs();
    let t_disk = (config.detection()
        + Volume::from_tb(geometry.disk_capacity_tb).transfer_time_mb(config.disk_repair_bw()))
    .to_hours();
    let (chain, pools) = match placement {
        P::LocalCp | P::NetCp => {
            let chain = generic_clustered_chain(w, params.p, lambda, Duration::from_hours(t_disk));
            (chain, geometry.total_disks() as f64 / w as f64)
        }
        P::LocalDp => {
            let d = geometry.disks_per_enclosure;
            let survivors = (d - 1) as f64;
            let single_bw = survivors * disk_bw / (params.k as f64 + 1.0);
            let chain = generic_declustered_chain(&DeclusteredChainSpec {
                pool_disks: d,
                width: w,
                tolerance: params.p,
                lambda_per_hour: lambda.to_per_hour(),
                detection_hours: config.detection_hours,
                disk_capacity_tb: geometry.disk_capacity_tb,
                chunk_kb: geometry.chunk_kb,
                chunks_per_disk: geometry.chunks_per_disk(),
                single_bw_mbs: single_bw,
                class_bw_mbs: single_bw,
            });
            (chain, geometry.total_enclosures() as f64)
        }
        P::NetDp => {
            // System-wide pool; repair crosses racks: all racks participate,
            // k reads + 1 write per rebuilt byte.
            let d = geometry.total_disks();
            let net_bw =
                geometry.racks as f64 * config.rack_repair_bw().to_mbs() / (params.k as f64 + 1.0);
            let disk_side = (d - 1) as f64 * disk_bw / (params.k as f64 + 1.0);
            let bw = net_bw.min(disk_side);
            let chain = generic_declustered_chain(&DeclusteredChainSpec {
                pool_disks: d,
                width: w,
                tolerance: params.p,
                lambda_per_hour: lambda.to_per_hour(),
                detection_hours: config.detection_hours,
                disk_capacity_tb: geometry.disk_capacity_tb,
                chunk_kb: geometry.chunk_kb,
                chunks_per_disk: geometry.chunks_per_disk(),
                single_bw_mbs: bw,
                class_bw_mbs: bw,
            });
            (chain, 1.0)
        }
    };
    let hazard = chain.absorb_hazard() * pools; // per pool-yr, scaled to system
    crate::markov::nines(crate::markov::pdl_from_hazard(
        hazard,
        Duration::from_years(1.0),
    ))
}

/// One-year durability (in nines) of a declustered LRC over the geometry
/// (Fig 15). `undecodable_at_limit` is the probability that an erasure
/// pattern of `r + 2` uniform chunks is undecodable (thinning of the
/// absorbing transition; any `r + 1` failures are always decodable for the
/// MR construction).
pub fn lrc_durability_nines(
    geometry: &mlec_topology::Geometry,
    config: &mlec_sim::SimConfig,
    params: mlec_ec::LrcParams,
    undecodable_at_limit: f64,
) -> f64 {
    let w = params.width() as u32;
    let lambda = config.disk_failure_rate();
    let d = geometry.total_disks();
    // Single-chunk repairs read the local group (k/l chunks); multi-failure
    // stripes may need a global decode (k reads). All traffic crosses racks.
    let group_reads = (params.k as f64 / params.l as f64).ceil();
    let rack_bw_total = geometry.racks as f64 * config.rack_repair_bw().to_mbs();
    let single_bw = rack_bw_total / (group_reads + 1.0);
    let class_bw = rack_bw_total / (params.k as f64 + 1.0);
    let chain = generic_declustered_chain(&DeclusteredChainSpec {
        pool_disks: d,
        width: w,
        tolerance: params.r + 1,
        lambda_per_hour: lambda.to_per_hour(),
        detection_hours: config.detection_hours,
        disk_capacity_tb: geometry.disk_capacity_tb,
        chunk_kb: geometry.chunk_kb,
        chunks_per_disk: geometry.chunks_per_disk(),
        single_bw_mbs: single_bw,
        class_bw_mbs: class_bw,
    });
    let hazard = chain.absorb_hazard() * undecodable_at_limit.max(1e-300);
    crate::markov::nines(crate::markov::pdl_from_hazard(
        hazard,
        Duration::from_years(1.0),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlec_topology::MlecScheme;

    fn dep(scheme: MlecScheme) -> MlecDeployment {
        MlecDeployment::paper_default(scheme)
    }

    #[test]
    fn fig7_clustered_rate_magnitude() {
        // Paper Fig 7: C/C and D/C catastrophic probability below 0.001%
        // per year (1e-5 per system-year), but clearly above 1e-7.
        let rate = system_catastrophic_rate(&dep(MlecScheme::CC)).to_per_year();
        assert!(rate < 1e-4 && rate > 1e-7, "rate={rate}");
        // D/C has the same local structure.
        let rate_dc = system_catastrophic_rate(&dep(MlecScheme::DC)).to_per_year();
        assert!((rate - rate_dc).abs() / rate < 1e-9);
    }

    #[test]
    fn fig7_declustered_orders_of_magnitude_better() {
        // Paper Fig 7: "the probability is almost 0.00001%" (1e-7) for C/D
        // and D/D — at least ~100x below the clustered schemes.
        let cp = system_catastrophic_rate(&dep(MlecScheme::CC)).to_per_year();
        let dp = system_catastrophic_rate(&dep(MlecScheme::CD)).to_per_year();
        assert!(dp < cp / 20.0, "cp={cp} dp={dp}");
        assert!(dp < 1e-5 && dp > 1e-10, "dp={dp}");
    }

    #[test]
    fn per_pool_rates_scale_with_pool_count() {
        let d = dep(MlecScheme::CC);
        let per_pool = pool_catastrophic_rate(&d).to_per_year();
        let system = system_catastrophic_rate(&d).to_per_year();
        assert!((system / per_pool - 2880.0).abs() < 1e-6);
    }

    #[test]
    fn declustered_windows_shrink_with_multiplicity() {
        // The chain's repair rates must increase with state (higher classes
        // drain faster), which is the priority-rebuild effect.
        let chain_dep = dep(MlecScheme::CD);
        let pools = chain_dep.local_pools();
        let total_stripes = pools.pool_size() as f64 * chain_dep.geometry.chunks_per_disk() / 20.0;
        let c2 = total_stripes * prob_cover_all(120, 20, 2) * 2.0;
        let c3 = total_stripes * prob_cover_all(120, 20, 3) * 3.0;
        assert!(c3 < c2, "class volumes must shrink: c2={c2} c3={c3}");
    }

    #[test]
    fn higher_afr_higher_rate() {
        let mut d = dep(MlecScheme::CC);
        let base = pool_catastrophic_rate(&d).to_per_year();
        d.config.afr = 0.05;
        let inflated = pool_catastrophic_rate(&d).to_per_year();
        assert!(inflated > base * 100.0, "base={base} inflated={inflated}");
    }

    #[test]
    fn faster_detection_helps() {
        let mut d = dep(MlecScheme::CD);
        let base = pool_catastrophic_rate(&d).to_per_year();
        d.config.detection_hours = 1.0 / 60.0; // 1 minute
        let fast = pool_catastrophic_rate(&d).to_per_year();
        assert!(fast < base, "base={base} fast={fast}");
    }

    #[test]
    fn slec_more_parities_more_nines() {
        let g = mlec_topology::Geometry::paper_default();
        let c = mlec_sim::SimConfig::paper_default();
        let p2 = slec_durability_nines(
            &g,
            &c,
            mlec_ec::SlecParams::new(10, 2),
            mlec_topology::SlecPlacement::LocalCp,
        );
        let p5 = slec_durability_nines(
            &g,
            &c,
            mlec_ec::SlecParams::new(10, 5),
            mlec_topology::SlecPlacement::LocalCp,
        );
        assert!(p5 > p2 + 5.0, "p2={p2} p5={p5}");
    }

    #[test]
    fn slec_durability_plausible_range() {
        // Paper Fig 12: a local (28+12) SLEC reaches ~33 nines. Our model
        // should land in the same regime (tens of nines).
        let g = mlec_topology::Geometry::paper_default();
        let c = mlec_sim::SimConfig::paper_default();
        let n = slec_durability_nines(
            &g,
            &c,
            mlec_ec::SlecParams::new(28, 12),
            mlec_topology::SlecPlacement::LocalCp,
        );
        assert!(n > 20.0 && n < 60.0, "n={n}");
    }

    #[test]
    fn lrc_durability_scales_with_global_parities() {
        let g = mlec_topology::Geometry::paper_default();
        let c = mlec_sim::SimConfig::paper_default();
        let r2 = lrc_durability_nines(&g, &c, mlec_ec::LrcParams::new(12, 2, 2), 0.2);
        let r4 = lrc_durability_nines(&g, &c, mlec_ec::LrcParams::new(12, 2, 4), 0.2);
        assert!(r4 > r2 + 2.0, "r2={r2} r4={r4}");
        // Thinning with a smaller undecodable fraction helps.
        let thin = lrc_durability_nines(&g, &c, mlec_ec::LrcParams::new(12, 2, 2), 0.002);
        assert!(thin > r2 + 1.0, "r2={r2} thin={thin}");
    }

    #[test]
    fn generic_clustered_chain_matches_mlec_builder() {
        // The MLEC clustered local pool is an instance of the generic chain.
        let d = dep(MlecScheme::CC);
        let lambda = d.config.disk_failure_rate();
        let t_disk = d.config.detection_hours
            + d.geometry.disk_capacity_tb * 1e6
                / mlec_sim::bandwidth::single_disk_repair_bw(&d).to_mbs()
                / 3600.0;
        let generic = generic_clustered_chain(20, 3, lambda, Duration::from_hours(t_disk));
        let built = pool_chain(&d);
        assert!(
            (generic.absorb_hazard().to_per_hour() - built.absorb_hazard().to_per_hour()).abs()
                / built.absorb_hazard().to_per_hour()
                < 1e-12
        );
    }
}
