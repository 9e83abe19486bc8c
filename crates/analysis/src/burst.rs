//! Probability of data loss (PDL) under correlated failure bursts — the
//! dynamic-programming evaluation strategy of the paper (§3), producing the
//! heatmaps of Fig 5 (MLEC), Fig 13 (SLEC), and Fig 16 (LRC).
//!
//! A burst is `y` simultaneous disk failures scattered across exactly `x`
//! racks. The estimator is *conditional Monte Carlo*: sample only the coarse
//! per-rack failure counts (and rack identities), then compute the loss
//! probability of that layout **exactly** with per-rack dynamic programs and
//! Poissonization across placement positions. Because the inner quantity is
//! a smooth probability rather than a 0/1 indicator, a few hundred samples
//! resolve PDLs down to 10^-12 — far beyond what disk-level Monte Carlo
//! (also provided, as a cross-check) can reach.

use mlec_ec::lrc::Lrc;
use mlec_ec::{LrcParams, SlecParams};
use mlec_runner::rng::ChaCha12Rng;
use mlec_runner::TrialRng;
use mlec_sim::census::{hypergeom_pmf, ln_choose};
use mlec_sim::config::MlecDeployment;
use mlec_topology::burst::{sample_burst, sample_rack_counts};
use mlec_topology::placement::network_data_loss;
use mlec_topology::{Geometry, Placement, SlecPlacement};

/// Tail of a Poisson–binomial distribution: `P(sum of independent
/// Bernoulli(probs) >= k)`, by exact DP convolution.
pub fn poisson_binomial_tail(probs: &[f64], k: usize) -> f64 {
    if k == 0 {
        return 1.0;
    }
    if probs.len() < k {
        return 0.0;
    }
    // dist[j] = P(exactly j successes so far), j capped at k (bucket k
    // absorbs "k or more").
    let mut dist = vec![0.0f64; k + 1];
    dist[0] = 1.0;
    for &p in probs {
        for j in (0..=k).rev() {
            let stay = dist[j] * (1.0 - p);
            let up = dist[j] * p;
            dist[j] = stay;
            if j < k {
                dist[j + 1] += up;
            } else {
                dist[j] += up; // cap bucket
            }
        }
        // Re-absorb: moving up from bucket k stays in bucket k.
        // (handled above by the else branch)
    }
    dist[k]
}

/// Hypergeometric tail: `P(a specific pool of ``pool_size`` disks contains at
/// least `threshold` of the `c` failures uniform over ``rack_disks`` disks)`.
pub fn pool_tail_prob(rack_disks: u32, pool_size: u32, c: u32, threshold: u32) -> f64 {
    (threshold..=c.min(pool_size))
        .map(|m| hypergeom_pmf(rack_disks, pool_size, c, m))
        .sum()
}

/// Exact probability that **no** clustered pool in a rack reaches
/// `threshold` failures, given `c` failures uniform over the rack's
/// `pools * pool_size` disks. DP over pools counting constrained layouts.
pub fn cp_rack_no_cat_prob(pools: u32, pool_size: u32, c: u32, threshold: u32) -> f64 {
    let rack_disks = pools * pool_size;
    if c > rack_disks {
        return 0.0;
    }
    let cap = (threshold - 1).min(pool_size) as usize;
    // ways[t] = log-free count of layouts with t failures placed so far; use
    // log-space accumulation via f64 after normalizing with ln C(rack, c).
    // Direct f64 counts overflow, so work with scaled probabilities:
    // iterate the DP in probability space by dividing by C(rack_disks, c) at
    // the end — do everything in log-sum-exp-free normalized form using
    // ratios of binomials computed in log space.
    let mut ways = vec![f64::NEG_INFINITY; c as usize + 1];
    ways[0] = 0.0; // ln(1)
    for _pool in 0..pools {
        let mut next = vec![f64::NEG_INFINITY; c as usize + 1];
        for (t, &w) in ways.iter().enumerate() {
            if w == f64::NEG_INFINITY {
                continue;
            }
            for m in 0..=cap.min(c as usize - t) {
                let add = w + ln_choose(pool_size, m as u32);
                let slot = &mut next[t + m];
                *slot = ln_add_exp(*slot, add);
            }
        }
        ways = next;
    }
    let total = ln_choose(rack_disks, c);
    (ways[c as usize] - total).exp().clamp(0.0, 1.0)
}

/// Probability that a declustered pool (one enclosure) with `f` concurrent
/// failures contains at least one stripe with `threshold` failed chunks,
/// Poissonized over the `stripes` expected stripes of width `w`.
pub fn dp_pool_cat_prob(encl_size: u32, w: u32, f: u32, threshold: u32, stripes: f64) -> f64 {
    if f < threshold {
        return 0.0;
    }
    let p_stripe: f64 = (threshold..=f.min(w))
        .map(|m| hypergeom_pmf(encl_size, w, f, m))
        .sum();
    -(-stripes * p_stripe).exp_m1()
}

/// Exact probability that **no** declustered pool (enclosure) in a rack is
/// catastrophic, given `c` failures uniform over the rack. DP over
/// enclosures with per-enclosure survival weights.
pub fn dp_rack_no_cat_prob(
    enclosures: u32,
    encl_size: u32,
    c: u32,
    w: u32,
    threshold: u32,
    stripes_per_encl: f64,
) -> f64 {
    let rack_disks = enclosures * encl_size;
    if c > rack_disks {
        return 0.0;
    }
    let mut ways = vec![f64::NEG_INFINITY; c as usize + 1];
    ways[0] = 0.0;
    for _e in 0..enclosures {
        let mut next = vec![f64::NEG_INFINITY; c as usize + 1];
        for (t, &wv) in ways.iter().enumerate() {
            if wv == f64::NEG_INFINITY {
                continue;
            }
            for f in 0..=(c as usize - t).min(encl_size as usize) {
                let survive =
                    1.0 - dp_pool_cat_prob(encl_size, w, f as u32, threshold, stripes_per_encl);
                if survive <= 0.0 {
                    continue;
                }
                let add = wv + ln_choose(encl_size, f as u32) + survive.ln();
                let slot = &mut next[t + f];
                *slot = ln_add_exp(*slot, add);
            }
        }
        ways = next;
    }
    let total = ln_choose(rack_disks, c);
    (ways[c as usize] - total).exp().clamp(0.0, 1.0)
}

/// Marginal probability that one *specific* declustered pool (enclosure) in
/// the rack is catastrophic given `c` failures in the rack.
pub fn dp_pool_cat_prob_marginal(
    enclosures: u32,
    encl_size: u32,
    c: u32,
    w: u32,
    threshold: u32,
    stripes_per_encl: f64,
) -> f64 {
    let rack_disks = enclosures * encl_size;
    (0..=c.min(encl_size))
        .map(|f| {
            hypergeom_pmf(rack_disks, encl_size, c, f)
                * dp_pool_cat_prob(encl_size, w, f, threshold, stripes_per_encl)
        })
        .sum()
}

fn ln_add_exp(a: f64, b: f64) -> f64 {
    if a == f64::NEG_INFINITY {
        return b;
    }
    if b == f64::NEG_INFINITY {
        return a;
    }
    let (hi, lo) = if a > b { (a, b) } else { (b, a) };
    hi + (lo - hi).exp().ln_1p()
}

/// One conditional-Monte-Carlo sample of the MLEC burst PDL: draw a coarse
/// per-rack failure layout from `rng`, then evaluate its loss probability
/// exactly (per-rack DP + Poissonization). Averaging these over samples
/// gives the Fig 5 cell value; [`mlec_burst_pdl`] is that loop, and the
/// runner heatmaps feed per-trial seeds here instead.
///
/// Returns NaN when the `(failures, affected_racks)` cell is infeasible for
/// the geometry.
pub fn mlec_burst_sample(
    dep: &MlecDeployment,
    failures: u32,
    affected_racks: u32,
    rng: &mut TrialRng,
) -> f64 {
    let g = dep.geometry;
    let pools = dep.local_pools();
    let threshold = dep.params.local.p as u32 + 1;
    let pn1 = dep.params.network.p + 1;
    let w = dep.local_width();
    let stripes_per_pool = dep.stripes_per_pool();

    let Ok(counts) = sample_rack_counts(&g, failures, affected_racks, rng) else {
        return f64::NAN;
    };
    {
        match dep.scheme.network {
            Placement::Clustered => {
                // E[# (group, position) slots with >= p_n+1 catastrophic
                // pools], Poissonized.
                let group_size = dep.network_width();
                let positions = pools.pools_per_rack();
                let mut per_group: std::collections::BTreeMap<u32, Vec<f64>> =
                    std::collections::BTreeMap::new();
                for &(rack, c) in &counts {
                    let rho = match dep.scheme.local {
                        Placement::Clustered => {
                            pool_tail_prob(g.disks_per_rack(), pools.pool_size(), c, threshold)
                        }
                        Placement::Declustered => dp_pool_cat_prob_marginal(
                            g.enclosures_per_rack,
                            g.disks_per_enclosure,
                            c,
                            w,
                            threshold,
                            stripes_per_pool,
                        ),
                    };
                    per_group.entry(rack / group_size).or_default().push(rho);
                }
                let mut expected = 0.0f64;
                for rhos in per_group.values() {
                    expected += positions as f64 * poisson_binomial_tail(rhos, pn1);
                }
                -(-expected).exp_m1()
            }
            Placement::Declustered => {
                // Exact: P(>= p_n+1 racks each holding >= 1 catastrophic
                // pool) — network stripes need distinct racks.
                let pis: Vec<f64> = counts
                    .iter()
                    .map(|&(_, c)| {
                        1.0 - match dep.scheme.local {
                            Placement::Clustered => cp_rack_no_cat_prob(
                                pools.pools_per_rack(),
                                pools.pool_size(),
                                c,
                                threshold,
                            ),
                            Placement::Declustered => dp_rack_no_cat_prob(
                                g.enclosures_per_rack,
                                g.disks_per_enclosure,
                                c,
                                w,
                                threshold,
                                stripes_per_pool,
                            ),
                        }
                    })
                    .collect();
                poisson_binomial_tail(&pis, pn1)
            }
        }
    }
}

/// Mean of `samples` conditional-Monte-Carlo draws from one seeded
/// stream; NaN as soon as a draw is (the cell is infeasible).
fn mean_of_samples(samples: u32, seed: u64, mut sample: impl FnMut(&mut TrialRng) -> f64) -> f64 {
    let mut rng = ChaCha12Rng::seed_from_u64(seed);
    let mut total = 0.0f64;
    for _ in 0..samples {
        let v = sample(&mut rng);
        if v.is_nan() {
            return f64::NAN;
        }
        total += v;
    }
    total / samples as f64
}

/// MLEC burst PDL (Fig 5) via conditional Monte Carlo + exact inner DP.
pub fn mlec_burst_pdl(
    dep: &MlecDeployment,
    failures: u32,
    affected_racks: u32,
    samples: u32,
    seed: u64,
) -> f64 {
    mean_of_samples(samples, seed, |rng| {
        mlec_burst_sample(dep, failures, affected_racks, rng)
    })
}

/// One disk-level Monte Carlo trial of the MLEC burst estimator: sample a
/// concrete failed-disk layout and report whether it loses data. `None`
/// when the cell is infeasible for the geometry.
pub fn mlec_burst_direct_trial(
    dep: &MlecDeployment,
    failures: u32,
    affected_racks: u32,
    rng: &mut TrialRng,
) -> Option<bool> {
    let g = dep.geometry;
    let pools = dep.local_pools();
    let threshold = dep.params.local.p as u32 + 1;
    let w = dep.local_width();
    let stripes_per_pool = dep.stripes_per_pool();

    let layout = sample_burst(&g, failures, affected_racks, rng).ok()?;
    // Catastrophic pools (Bernoulli thinning for declustered).
    let mut cat_pools: Vec<u32> = Vec::new();
    for (pool, count) in layout.per_pool_counts(&pools) {
        if count < threshold {
            continue;
        }
        let is_cat = match dep.scheme.local {
            Placement::Clustered => true,
            Placement::Declustered => {
                let p = dp_pool_cat_prob(pools.pool_size(), w, count, threshold, stripes_per_pool);
                rng.gen_bool(p.clamp(0.0, 1.0))
            }
        };
        if is_cat {
            cat_pools.push(pool);
        }
    }
    Some(network_data_loss(
        &pools,
        dep.scheme.network,
        dep.network_width(),
        dep.params.network.p as u32,
        cat_pools,
    ))
}

/// MLEC burst PDL by direct disk-level Monte Carlo (the cross-check for
/// [`mlec_burst_pdl`]; resolution limited to ~1/trials).
pub fn mlec_burst_pdl_direct_mc(
    dep: &MlecDeployment,
    failures: u32,
    affected_racks: u32,
    trials: u32,
    seed: u64,
) -> f64 {
    let mut rng = ChaCha12Rng::seed_from_u64(seed);
    let mut losses = 0u32;
    for _ in 0..trials {
        match mlec_burst_direct_trial(dep, failures, affected_racks, &mut rng) {
            Some(true) => losses += 1,
            Some(false) => {}
            None => return f64::NAN,
        }
    }
    losses as f64 / trials as f64
}

/// One conditional-Monte-Carlo sample of the SLEC burst PDL (see
/// [`mlec_burst_sample`] for the scheme). NaN when the cell is infeasible.
pub fn slec_burst_sample(
    geometry: &Geometry,
    params: SlecParams,
    placement: SlecPlacement,
    failures: u32,
    affected_racks: u32,
    rng: &mut TrialRng,
) -> f64 {
    let w = params.width() as u32;
    let threshold = params.p as u32 + 1;
    let g = geometry;
    let chunks_per_encl = g.disks_per_enclosure as f64 * g.chunks_per_disk();
    let stripes_per_encl = chunks_per_encl / w as f64;
    let total_chunks = g.total_disks() as f64 * g.chunks_per_disk();

    let Ok(counts) = sample_rack_counts(g, failures, affected_racks, rng) else {
        return f64::NAN;
    };
    {
        match placement {
            SlecPlacement::LocalCp => {
                // Any clustered pool reaching p+1 failures is data loss.
                let pools_per_rack = g.disks_per_rack() / w;
                let mut survive = 1.0f64;
                for &(_, c) in &counts {
                    survive *= cp_rack_no_cat_prob(pools_per_rack, w, c, threshold);
                }
                1.0 - survive
            }
            SlecPlacement::LocalDp => {
                let mut survive = 1.0f64;
                for &(_, c) in &counts {
                    survive *= dp_rack_no_cat_prob(
                        g.enclosures_per_rack,
                        g.disks_per_enclosure,
                        c,
                        w,
                        threshold,
                        stripes_per_encl,
                    );
                }
                1.0 - survive
            }
            SlecPlacement::NetCp => {
                // Pools are one disk per rack across a group of `w` racks.
                let mut per_group: std::collections::BTreeMap<u32, Vec<f64>> =
                    std::collections::BTreeMap::new();
                for &(rack, c) in &counts {
                    per_group
                        .entry(rack / w)
                        .or_default()
                        .push(c as f64 / g.disks_per_rack() as f64);
                }
                let mut expected = 0.0f64;
                for qs in per_group.values() {
                    expected +=
                        g.disks_per_rack() as f64 * poisson_binomial_tail(qs, threshold as usize);
                }
                -(-expected).exp_m1()
            }
            SlecPlacement::NetDp => {
                // Stripes pick `w` distinct racks; chunk fails with c_r/960.
                let dist = stripe_failure_distribution(g, &counts, w, threshold);
                let p_lost: f64 = dist[threshold as usize..].iter().sum();
                let n_stripes = total_chunks / w as f64;
                -(-n_stripes * p_lost).exp_m1()
            }
        }
    }
}

/// Distribution of failed-chunk count for a random stripe of width `w`
/// placed on `w` distinct racks (uniform rack subset, uniform disk per
/// rack), given per-rack failure counts. Exact DP over racks; returns
/// `P(exactly m failed)` for `m in 0..=cap` with the last bucket absorbing
/// `>= cap`.
pub fn stripe_failure_distribution(
    geometry: &Geometry,
    counts: &[(u32, u32)],
    w: u32,
    cap: u32,
) -> Vec<f64> {
    let racks = geometry.racks as usize;
    let w = w as usize;
    let cap = cap as usize;
    let mut fail_prob = vec![0.0f64; racks];
    for &(rack, c) in counts {
        fail_prob[rack as usize] = c as f64 / geometry.disks_per_rack() as f64;
    }
    // dp[j][m]: ln(count-weighted prob) over processed racks with j chosen
    // and m failures (m capped). Count weight = number of rack subsets.
    let mut dp = vec![vec![f64::NEG_INFINITY; cap + 1]; w + 1];
    dp[0][0] = 0.0;
    for q in fail_prob.iter().copied().take(racks) {
        for j in (0..w).rev() {
            for m in (0..=cap).rev() {
                let v = dp[j][m];
                if v == f64::NEG_INFINITY {
                    continue;
                }
                // Choose this rack: chunk fails w.p. q.
                if q < 1.0 {
                    let tgt = &mut dp[j + 1][m];
                    *tgt = ln_add_exp(*tgt, v + (1.0 - q).ln());
                }
                if q > 0.0 {
                    let mc = (m + 1).min(cap);
                    let tgt = &mut dp[j + 1][mc];
                    *tgt = ln_add_exp(*tgt, v + q.ln());
                }
            }
        }
    }
    let total = ln_choose(geometry.racks, w as u32);
    (0..=cap).map(|m| (dp[w][m] - total).exp()).collect()
}

/// One conditional-Monte-Carlo sample of the LRC burst PDL (Fig 16):
/// declustered LRC with every chunk in a separate rack.
/// `undecodable_by_count[m]` must give `P(an m-chunk erasure pattern at
/// uniform positions is undecodable)` (see [`lrc_undecodable_by_count`]).
/// NaN when the cell is infeasible.
pub fn lrc_burst_sample(
    geometry: &Geometry,
    params: LrcParams,
    undecodable_by_count: &[f64],
    failures: u32,
    affected_racks: u32,
    rng: &mut TrialRng,
) -> f64 {
    let n = params.width() as u32;
    let total_chunks = geometry.total_disks() as f64 * geometry.chunks_per_disk();
    let n_stripes = total_chunks / n as f64;

    let Ok(counts) = sample_rack_counts(geometry, failures, affected_racks, rng) else {
        return f64::NAN;
    };
    let dist = stripe_failure_distribution(geometry, &counts, n, n);
    let p_lost: f64 = dist
        .iter()
        .enumerate()
        .map(|(m, &p)| p * undecodable_by_count.get(m).copied().unwrap_or(1.0))
        .sum();
    -(-n_stripes * p_lost).exp_m1()
}

/// Estimate `P(an erasure pattern of m uniform chunk positions is
/// undecodable)` for each `m in 0..=n` by Monte Carlo over the code's exact
/// rank test.
pub fn lrc_undecodable_by_count(lrc: &Lrc, samples_per_count: u32, seed: u64) -> Vec<f64> {
    let n = lrc.total_chunks();
    let mut rng = ChaCha12Rng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(n + 1);
    for m in 0..=n {
        if m == 0 {
            out.push(0.0);
            continue;
        }
        if m > n - lrc.data_chunks() {
            // Fewer than k survivors: always undecodable.
            out.push(1.0);
            continue;
        }
        let mut undec = 0u32;
        for _ in 0..samples_per_count {
            let mut erased = vec![false; n];
            // Floyd's algorithm for a uniform m-subset.
            let mut chosen = std::collections::BTreeSet::new();
            for j in (n - m)..n {
                let t = rng.gen_below(j as u64 + 1) as usize;
                let pick = if chosen.insert(t) { t } else { j };
                chosen.insert(pick);
                erased[pick] = true;
            }
            if !lrc.decodable(&erased) {
                undec += 1;
            }
        }
        out.push(undec as f64 / samples_per_count as f64);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlec_topology::MlecScheme;

    fn dep(scheme: MlecScheme) -> MlecDeployment {
        MlecDeployment::paper_default(scheme)
    }

    /// Fig 13 cell: the mean the heatmap runner takes over
    /// [`slec_burst_sample`].
    fn slec_burst_pdl(
        g: &Geometry,
        params: SlecParams,
        placement: SlecPlacement,
        failures: u32,
        racks: u32,
        samples: u32,
        seed: u64,
    ) -> f64 {
        mean_of_samples(samples, seed, |rng| {
            slec_burst_sample(g, params, placement, failures, racks, rng)
        })
    }

    /// Fig 16 cell, likewise over [`lrc_burst_sample`].
    fn lrc_burst_pdl(
        g: &Geometry,
        params: LrcParams,
        curve: &[f64],
        failures: u32,
        racks: u32,
        samples: u32,
        seed: u64,
    ) -> f64 {
        mean_of_samples(samples, seed, |rng| {
            lrc_burst_sample(g, params, curve, failures, racks, rng)
        })
    }

    #[test]
    fn poisson_binomial_tail_basics() {
        assert_eq!(poisson_binomial_tail(&[0.5, 0.5], 0), 1.0);
        assert!((poisson_binomial_tail(&[0.5, 0.5], 2) - 0.25).abs() < 1e-12);
        assert!((poisson_binomial_tail(&[0.5, 0.5], 1) - 0.75).abs() < 1e-12);
        assert_eq!(poisson_binomial_tail(&[0.9], 2), 0.0);
        // Heterogeneous case against manual enumeration.
        let p = [0.1, 0.2, 0.3];
        let expect = 0.1 * 0.2 * 0.7 + 0.1 * 0.8 * 0.3 + 0.9 * 0.2 * 0.3 + 0.1 * 0.2 * 0.3;
        assert!((poisson_binomial_tail(&p, 2) - expect).abs() < 1e-12);
    }

    #[test]
    fn cp_rack_dp_matches_marginal_union_bound() {
        // For tiny failure counts, P(any pool >= threshold) ≈ pools * rho.
        let pools = 48u32;
        let pool_size = 20u32;
        let c = 4u32;
        let threshold = 4u32;
        let rho = pool_tail_prob(960, pool_size, c, threshold);
        let p_any = 1.0 - cp_rack_no_cat_prob(pools, pool_size, c, threshold);
        assert!(
            (p_any - pools as f64 * rho).abs() / p_any < 0.01,
            "p_any={p_any} union={}",
            pools as f64 * rho
        );
    }

    #[test]
    fn fig5_finding3_cc_zero_pdl_below_tolerance() {
        // Paper F#3: PDL = 0 when <= p_n racks are affected, and when no
        // more than x+p_l... here: x + 8 failures in x racks cannot lose
        // data for C/C (each rack at most ~(p_l) extra failures).
        let d = dep(MlecScheme::CC);
        // 2 racks affected: any failure count is survivable at network level.
        let p = mlec_burst_pdl(&d, 40, 2, 50, 1);
        assert_eq!(p, 0.0, "p={p}");
        // 3 racks, 3 failures: far below the p_l+1 local threshold.
        let p = mlec_burst_pdl(&d, 3, 3, 50, 2);
        assert!(p < 1e-12);
    }

    #[test]
    fn fig5_finding1_pdl_grows_with_failures() {
        let d = dep(MlecScheme::CD);
        let p12 = mlec_burst_pdl(&d, 12, 3, 100, 3);
        let p30 = mlec_burst_pdl(&d, 30, 3, 100, 3);
        let p60 = mlec_burst_pdl(&d, 60, 3, 100, 3);
        assert!(p12 < p30 && p30 < p60, "p12={p12} p30={p30} p60={p60}");
    }

    #[test]
    fn fig5_finding2_scatter_lowers_pdl() {
        // Paper F#2: the same 60 failures over more racks → lower PDL.
        let d = dep(MlecScheme::DC);
        let concentrated = mlec_burst_pdl(&d, 60, 3, 100, 4);
        let scattered = mlec_burst_pdl(&d, 60, 30, 100, 4);
        assert!(
            scattered < concentrated / 10.0,
            "concentrated={concentrated} scattered={scattered}"
        );
    }

    #[test]
    fn fig5_finding7_dd_worst() {
        // Paper F#7: D/D has the highest PDL of the four schemes at the
        // worst-case burst (60 failures, p_n+1 = 3 racks).
        let cells: Vec<f64> = MlecScheme::ALL
            .iter()
            .map(|&s| mlec_burst_pdl(&dep(s), 60, 3, 100, 5))
            .collect();
        let (cc, cd, dc, dd) = (cells[0], cells[1], cells[2], cells[3]);
        assert!(
            dd >= cc && dd >= cd && dd >= dc,
            "cc={cc} cd={cd} dc={dc} dd={dd}"
        );
        // And C/C is the most robust (F: "C/C performs the best").
        assert!(cc <= cd && cc <= dc, "cc={cc} cd={cd} dc={dc}");
    }

    #[test]
    fn conditional_mc_matches_direct_mc_on_hot_cells() {
        // The exact-DP estimator must agree with disk-level Monte Carlo
        // where the latter has resolution (PDL >~ 0.05).
        for scheme in [MlecScheme::CD, MlecScheme::DD] {
            let d = dep(scheme);
            let exact = mlec_burst_pdl(&d, 60, 3, 200, 6);
            let direct = mlec_burst_pdl_direct_mc(&d, 60, 3, 400, 7);
            if exact > 0.05 {
                assert!(
                    (exact - direct).abs() < 0.12,
                    "{scheme}: exact={exact} direct={direct}"
                );
            }
        }
    }

    #[test]
    fn fig13_local_slec_patterns() {
        let g = Geometry::paper_default();
        let params = SlecParams::new(7, 3);
        // Localized burst (many failures, 1 rack): Loc-Cp loses data with
        // noticeable probability, and Loc-Dp is even worse (paper §5.1.3).
        let cp_local = slec_burst_pdl(&g, params, SlecPlacement::LocalCp, 40, 1, 100, 8);
        let dp_local = slec_burst_pdl(&g, params, SlecPlacement::LocalDp, 40, 1, 100, 8);
        assert!(dp_local >= cp_local, "cp={cp_local} dp={dp_local}");
        // Scattered burst: local SLEC survives (few failures per rack).
        let cp_scatter = slec_burst_pdl(&g, params, SlecPlacement::LocalCp, 60, 60, 100, 9);
        assert!(cp_scatter < 1e-6, "cp_scatter={cp_scatter}");
    }

    #[test]
    fn fig13_network_slec_patterns() {
        let g = Geometry::paper_default();
        let params = SlecParams::new(7, 3);
        // Net-Cp: zero PDL when <= p racks affected.
        let safe = slec_burst_pdl(&g, params, SlecPlacement::NetCp, 60, 3, 50, 10);
        assert_eq!(safe, 0.0);
        // Net-Dp is worse than Net-Cp under scattered failures.
        let cp = slec_burst_pdl(&g, params, SlecPlacement::NetCp, 60, 60, 50, 11);
        let dp = slec_burst_pdl(&g, params, SlecPlacement::NetDp, 60, 60, 50, 11);
        assert!(dp > cp, "cp={cp} dp={dp}");
        // Network SLEC survives localized bursts that kill local SLEC.
        let localized = slec_burst_pdl(&g, params, SlecPlacement::NetCp, 40, 2, 50, 12);
        assert_eq!(localized, 0.0);
    }

    #[test]
    fn stripe_failure_distribution_sums_to_one() {
        let g = Geometry::paper_default();
        let counts = vec![(0u32, 30u32), (5, 20), (17, 10)];
        let dist = stripe_failure_distribution(&g, &counts, 10, 10);
        let total: f64 = dist.iter().sum();
        assert!((total - 1.0).abs() < 1e-9, "total={total}");
        // With few failures, most stripes have zero failed chunks.
        assert!(dist[0] > 0.9);
    }

    #[test]
    fn lrc_undecodable_curve_is_monotone_with_floor_and_ceiling() {
        let lrc = Lrc::new(6, 2, 2).unwrap();
        let curve = lrc_undecodable_by_count(&lrc, 300, 13);
        assert_eq!(curve[0], 0.0);
        assert_eq!(curve[1], 0.0, "single failures always decodable");
        assert_eq!(*curve.last().unwrap(), 1.0);
        // r+1 = 3 failures always decodable for this MR construction.
        assert_eq!(curve[3], 0.0);
        for window in curve.windows(2) {
            assert!(window[1] >= window[0] - 0.05, "roughly monotone");
        }
    }

    #[test]
    fn fig16_lrc_scattered_burst_loses() {
        // Paper: LRC-Dp is susceptible to highly scattered bursts.
        let g = Geometry::paper_default();
        let params = LrcParams::paper_default();
        let lrc = Lrc::new(params.k, params.l, params.r).unwrap();
        let curve = lrc_undecodable_by_count(&lrc, 500, 14);
        let scattered = lrc_burst_pdl(&g, params, &curve, 60, 60, 30, 15);
        let tiny = lrc_burst_pdl(&g, params, &curve, 4, 4, 30, 16);
        assert!(scattered > tiny, "scattered={scattered} tiny={tiny}");
        assert!(scattered > 1e-6, "scattered={scattered}");
    }
}
