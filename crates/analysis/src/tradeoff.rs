//! Durability-vs-encoding-throughput tradeoff enumeration (paper Fig 12 and
//! Fig 15): sweep code configurations at a fixed parity-space overhead band
//! and pair each with its one-year durability and predicted single-core
//! encoding throughput.
//!
//! Throughput comes from [`mlec_ec::throughput::ThroughputModel`] (one
//! measured reference scaled by the multiply-per-byte cost model), so a
//! full sweep takes milliseconds; the Fig 11 harness validates the model
//! against direct measurement.

use crate::chains::{lrc_durability_nines, slec_durability_nines};
use crate::splitting::mlec_durability_nines;
use mlec_ec::throughput::ThroughputModel;
use mlec_ec::{EcScheme, LrcParams, MlecParams, SlecParams};
use mlec_sim::config::MlecDeployment;
use mlec_sim::repair::RepairMethod;
use mlec_sim::SimConfig;
use mlec_topology::{Geometry, MlecScheme, Placement, SlecPlacement};

/// One point of the scatter plot.
#[derive(Debug, Clone, PartialEq)]
pub struct TradeoffPoint {
    /// Configuration label, e.g. `"(10+2)/(17+3)"`.
    pub label: String,
    /// Series name, e.g. `"C/D"` or `"Loc-Cp-S"`.
    pub family: String,
    /// One-year durability in nines.
    pub durability_nines: f64,
    /// Predicted single-core encoding throughput, MB/s.
    pub throughput_mbs: f64,
    /// Parity-space overhead of the configuration.
    pub overhead: f64,
}

/// Inclusive parity-overhead band used by the paper ("around 30%"): we use
/// 25%–45%, which admits the paper's own examples ((10+2)/(17+3) is 41%).
pub const OVERHEAD_BAND: (f64, f64) = (0.25, 0.45);

fn in_band(overhead: f64, band: (f64, f64)) -> bool {
    overhead >= band.0 && overhead <= band.1
}

/// Enumerate MLEC configurations of a scheme within the overhead band.
/// Clustered levels respect the divisibility constraints of §2.2 (enclosure
/// size multiple of `k_l + p_l`, rack count multiple of `k_n + p_n`).
pub fn enumerate_mlec(
    geometry: &Geometry,
    config: &SimConfig,
    scheme: MlecScheme,
    band: (f64, f64),
    model: &ThroughputModel,
) -> Vec<TradeoffPoint> {
    let mut out = Vec::new();
    for pn in 1..=3usize {
        for kn in 2..=30usize {
            let wn = kn + pn;
            if scheme.network == Placement::Clustered
                && !(geometry.racks as usize).is_multiple_of(wn)
            {
                continue;
            }
            if wn > geometry.racks as usize {
                continue;
            }
            for pl in 1..=4usize {
                for kl in 2..=40usize {
                    let wl = kl + pl;
                    let de = geometry.disks_per_enclosure as usize;
                    if wl > de {
                        continue;
                    }
                    if scheme.local == Placement::Clustered && !de.is_multiple_of(wl) {
                        continue;
                    }
                    let params = MlecParams::new(kn, pn, kl, pl);
                    if !in_band(params.overhead(), band) {
                        continue;
                    }
                    let dep = MlecDeployment {
                        geometry: *geometry,
                        params,
                        scheme,
                        config: *config,
                    };
                    let nines = mlec_durability_nines(&dep, RepairMethod::Min);
                    let throughput = model.predict(EcScheme::Mlec(params));
                    out.push(TradeoffPoint {
                        label: params.to_string(),
                        family: scheme.name(),
                        durability_nines: nines,
                        throughput_mbs: throughput,
                        overhead: params.overhead(),
                    });
                }
            }
        }
    }
    out
}

/// Enumerate SLEC configurations of a placement within the overhead band.
pub fn enumerate_slec(
    geometry: &Geometry,
    config: &SimConfig,
    placement: SlecPlacement,
    band: (f64, f64),
    model: &ThroughputModel,
) -> Vec<TradeoffPoint> {
    let mut out = Vec::new();
    let family = format!("{}-S", placement.name());
    for p in 1..=15usize {
        for k in 2..=50usize {
            let w = k + p;
            let fits = match placement {
                SlecPlacement::LocalCp => (geometry.disks_per_enclosure as usize).is_multiple_of(w),
                SlecPlacement::LocalDp => w <= geometry.disks_per_enclosure as usize,
                SlecPlacement::NetCp => (geometry.racks as usize).is_multiple_of(w),
                SlecPlacement::NetDp => w <= geometry.racks as usize,
            };
            if !fits {
                continue;
            }
            let params = SlecParams::new(k, p);
            if !in_band(params.overhead(), band) {
                continue;
            }
            out.push(TradeoffPoint {
                label: params.to_string(),
                family: family.clone(),
                durability_nines: slec_durability_nines(geometry, config, params, placement),
                throughput_mbs: model.predict(EcScheme::Slec(params)),
                overhead: params.overhead(),
            });
        }
    }
    out
}

/// Enumerate declustered-LRC configurations within the overhead band.
/// `undecodable_at_limit` supplies the `P(undecodable | r + 2 uniform
/// erasures)` thinning per configuration, in enumeration order; the first
/// error it returns ends the enumeration and is returned. Wrap
/// [`ideal_lrc_undecodable_at_limit`] in `Ok` for the fast analytic
/// estimate.
pub fn enumerate_lrc<E>(
    geometry: &Geometry,
    config: &SimConfig,
    band: (f64, f64),
    model: &ThroughputModel,
    mut undecodable_at_limit: impl FnMut(LrcParams) -> Result<f64, E>,
) -> Result<Vec<TradeoffPoint>, E> {
    let mut out = Vec::new();
    for l in 2..=4usize {
        for r in 1..=8usize {
            for k in (l..=50).step_by(1) {
                if k % l != 0 {
                    continue; // balanced groups only, as deployed LRCs use
                }
                let params = LrcParams::new(k, l, r);
                if params.width() > geometry.racks as usize {
                    continue; // every chunk in a separate rack
                }
                if !in_band(params.overhead(), band) {
                    continue;
                }
                out.push(TradeoffPoint {
                    label: params.to_string(),
                    family: "LRC-Dp".to_string(),
                    durability_nines: lrc_durability_nines(
                        geometry,
                        config,
                        params,
                        undecodable_at_limit(params)?,
                    ),
                    throughput_mbs: model.predict(EcScheme::Lrc(params)),
                    overhead: params.overhead(),
                });
            }
        }
    }
    Ok(out)
}

/// Analytic estimate of `P(an (r+2)-erasure pattern at uniform positions is
/// undecodable)` for a maximally recoverable `(k, l, r)` LRC: the pattern is
/// undecodable iff, after each group with a surviving local parity fixes one
/// erasure, more data erasures remain than surviving globals. Computed by
/// exhaustive-style expectation over the multivariate hypergeometric group
/// split (groups are symmetric, so a DP over per-group erasure counts
/// suffices).
pub fn ideal_lrc_undecodable_at_limit(params: LrcParams) -> f64 {
    let n = params.width();
    let m = params.r + 2; // erasure count at the absorption boundary
    if m > n {
        return 1.0;
    }
    // Monte-Carlo-free enumeration is exponential in l; use the paper-scale
    // structure: groups are symmetric with g = k/l data + 1 parity chunks.
    // Sample-free approach: enumerate compositions of the m erasures over
    // (l groups of size g+1) + (r globals) with hypergeometric weights via
    // a DP over groups tracking (erasures used, residual demand).
    let g = params.k / params.l; // data chunks per group
    let gs = g + 1; // group size incl. local parity
    let mut total_prob = 0.0;
    let mut undec_prob = 0.0;
    // dist over (used, residual) after processing all groups; then globals.
    // residual = sum over groups of erasures the group cannot fix itself.
    let mut dp: Vec<Vec<f64>> = vec![vec![0.0; m + 1]; m + 1];
    dp[0][0] = 1.0;
    let ln_total = mlec_sim::census::ln_choose(n as u32, m as u32);
    for _group in 0..params.l {
        let mut next = vec![vec![0.0; m + 1]; m + 1];
        for used in 0..=m {
            for res in 0..=m {
                let p = dp[used][res];
                if p == 0.0 {
                    continue;
                }
                for e in 0..=gs.min(m - used) {
                    // Within the group, e erasures: parity survives unless
                    // one of the e hits it. P(parity erased | e) = e / gs.
                    let ways = mlec_sim::census::ln_choose(gs as u32, e as u32).exp();
                    if e == 0 {
                        next[used][res] += p * ways;
                        continue;
                    }
                    let p_parity_hit = e as f64 / gs as f64;
                    // Parity survives: residual e-1 data erasures.
                    next[used + e][(res + e - 1).min(m)] += p * ways * (1.0 - p_parity_hit);
                    // Parity erased: e-1 data erasures remain, parity itself
                    // is recomputable → residual e-1.
                    next[used + e][(res + e - 1).min(m)] += p * ways * p_parity_hit;
                }
            }
        }
        dp = next;
    }
    // Globals: remaining erasures hit global parities.
    for (used, row) in dp.iter().enumerate().take(m + 1) {
        for (res, &p) in row.iter().enumerate().take(m + 1) {
            if p == 0.0 {
                continue;
            }
            let globals_erased = m - used;
            if globals_erased > params.r {
                continue; // impossible: only r global chunks exist
            }
            let ways = mlec_sim::census::ln_choose(params.r as u32, globals_erased as u32).exp();
            let weight = p * ways / ln_total.exp();
            total_prob += weight;
            let surviving_globals = params.r - globals_erased;
            if res > surviving_globals {
                undec_prob += weight;
            }
        }
    }
    if total_prob <= 0.0 {
        return 0.0;
    }
    (undec_prob / total_prob).clamp(0.0, 1.0)
}

mlec_runner::impl_to_json!(TradeoffPoint {
    label,
    family,
    durability_nines,
    throughput_mbs,
    overhead,
});

#[cfg(test)]
mod tests {
    use super::*;
    use mlec_ec::Lrc;
    use std::convert::Infallible;

    fn setup() -> (Geometry, SimConfig, ThroughputModel) {
        (
            Geometry::paper_default(),
            SimConfig::paper_default(),
            ThroughputModel::from_rate(12_000.0),
        )
    }

    #[test]
    fn mlec_enumeration_respects_band_and_constraints() {
        let (g, c, model) = setup();
        let points = enumerate_mlec(&g, &c, MlecScheme::CC, OVERHEAD_BAND, &model);
        assert!(!points.is_empty());
        for p in &points {
            assert!(
                in_band(p.overhead, OVERHEAD_BAND),
                "{}: {}",
                p.label,
                p.overhead
            );
            // Even the weakest in-band config (single parity at both
            // levels, e.g. (3+1)/(23+1)) keeps a few nines.
            assert!(
                p.durability_nines > 3.0,
                "{}: {} nines",
                p.label,
                p.durability_nines
            );
            assert!(p.throughput_mbs > 0.0);
        }
        // The paper's (10+2)/(17+3) (41% overhead) must be in the band.
        assert!(points.iter().any(|p| p.label == "(10+2)/(17+3)"));
    }

    #[test]
    fn fig12_f1_durability_throughput_anticorrelate() {
        // Within a family, the most durable configs are slower encoders.
        let (g, c, model) = setup();
        let points = enumerate_slec(&g, &c, SlecPlacement::LocalCp, OVERHEAD_BAND, &model);
        assert!(
            points.len() >= 3,
            "need a few configs, got {}",
            points.len()
        );
        let most_durable = points
            .iter()
            .max_by(|a, b| a.durability_nines.total_cmp(&b.durability_nines))
            .unwrap();
        let fastest = points
            .iter()
            .max_by(|a, b| a.throughput_mbs.total_cmp(&b.throughput_mbs))
            .unwrap();
        assert!(most_durable.throughput_mbs <= fastest.throughput_mbs);
        assert!(fastest.durability_nines <= most_durable.durability_nines);
    }

    #[test]
    fn fig12_f2_mlec_wins_at_high_durability() {
        // Paper F#2: above ~20 nines MLEC keeps much higher throughput than
        // SLEC at comparable durability.
        let (g, c, model) = setup();
        let mlec = enumerate_mlec(&g, &c, MlecScheme::CC, OVERHEAD_BAND, &model);
        let slec = enumerate_slec(&g, &c, SlecPlacement::LocalCp, OVERHEAD_BAND, &model);
        let best_mlec_at_30 = mlec
            .iter()
            .filter(|p| p.durability_nines >= 30.0)
            .map(|p| p.throughput_mbs)
            .fold(0.0f64, f64::max);
        let best_slec_at_30 = slec
            .iter()
            .filter(|p| p.durability_nines >= 30.0)
            .map(|p| p.throughput_mbs)
            .fold(0.0f64, f64::max);
        assert!(
            best_mlec_at_30 > best_slec_at_30,
            "mlec={best_mlec_at_30} slec={best_slec_at_30}"
        );
    }

    #[test]
    fn fig15_mlec_cd_beats_lrc_at_high_durability() {
        let (g, c, model) = setup();
        let mlec = enumerate_mlec(&g, &c, MlecScheme::CD, OVERHEAD_BAND, &model);
        let Ok(lrc) = enumerate_lrc(&g, &c, OVERHEAD_BAND, &model, |params| {
            Ok::<_, Infallible>(ideal_lrc_undecodable_at_limit(params))
        });
        assert!(!lrc.is_empty());
        let best_mlec = mlec
            .iter()
            .filter(|p| p.durability_nines >= 25.0)
            .map(|p| p.throughput_mbs)
            .fold(0.0f64, f64::max);
        let best_lrc = lrc
            .iter()
            .filter(|p| p.durability_nines >= 25.0)
            .map(|p| p.throughput_mbs)
            .fold(0.0f64, f64::max);
        assert!(best_mlec > best_lrc, "mlec={best_mlec} lrc={best_lrc}");
    }

    #[test]
    fn ideal_undecodable_matches_rank_test() {
        // The analytic MR predicate must agree with the exact rank-based
        // Monte Carlo estimate for a small code.
        let params = LrcParams::new(6, 2, 2);
        let analytic = ideal_lrc_undecodable_at_limit(params);
        let lrc = Lrc::new(6, 2, 2).unwrap();
        let curve = crate::burst::lrc_undecodable_by_count(&lrc, 4000, 99);
        let empirical = curve[params.r + 2];
        assert!(
            (analytic - empirical).abs() < 0.03,
            "analytic={analytic} empirical={empirical}"
        );
    }

    #[test]
    fn lrc_enumeration_has_paper_config() {
        let (g, c, model) = setup();
        let Ok(points) = enumerate_lrc(&g, &c, OVERHEAD_BAND, &model, |params| {
            Ok::<_, Infallible>(ideal_lrc_undecodable_at_limit(params))
        });
        assert!(
            points.iter().any(|p| p.label == "(14,2,4)"),
            "paper's (14,2,4) at 43% overhead"
        );
    }
}
