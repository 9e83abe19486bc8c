//! Numerical validation of the analysis layer against brute force on tiny
//! systems, plus cross-method consistency checks.

use mlec_analysis::burst::{
    cp_rack_no_cat_prob, poisson_binomial_tail, pool_tail_prob, stripe_failure_distribution,
};
use mlec_analysis::markov::{nines, pdl_from_hazard, BirthDeathChain};
use mlec_runner::{SeedStream, SplitMix64};
use mlec_sim::census::{hypergeom_pmf, ln_choose};
use mlec_topology::Geometry;
use mlec_units::Duration;

/// One RNG per (property, case), derived exactly like runner trial seeds.
fn case_rng(property: &str, case: u64) -> SplitMix64 {
    SplitMix64::new(SeedStream::new(0xA7A1515, property).trial_seed(case))
}

/// Brute-force P(no pool >= threshold) by enumerating every layout of `c`
/// failures over `pools * pool_size` disks (tiny sizes only).
fn brute_force_no_cat(pools: u32, pool_size: u32, c: u32, threshold: u32) -> f64 {
    let disks = (pools * pool_size) as usize;
    let mut good = 0u64;
    let mut total = 0u64;
    // Iterate all c-subsets via bitmask (disks <= 16).
    assert!(disks <= 16);
    for mask in 0u32..(1 << disks) {
        if mask.count_ones() != c {
            continue;
        }
        total += 1;
        let mut ok = true;
        for p in 0..pools {
            let lo = p * pool_size;
            let pool_mask = ((1u32 << pool_size) - 1) << lo;
            if (mask & pool_mask).count_ones() >= threshold {
                ok = false;
                break;
            }
        }
        if ok {
            good += 1;
        }
    }
    good as f64 / total as f64
}

#[test]
fn cp_rack_dp_matches_brute_force() {
    // 4 pools of 4 disks, various failure counts and thresholds.
    for c in 1..=8u32 {
        for threshold in 2..=4u32 {
            let exact = cp_rack_no_cat_prob(4, 4, c, threshold);
            let brute = brute_force_no_cat(4, 4, c, threshold);
            assert!(
                (exact - brute).abs() < 1e-9,
                "c={c} t={threshold}: dp={exact} brute={brute}"
            );
        }
    }
}

#[test]
fn pool_tail_matches_brute_force_marginal() {
    // Marginal catastrophic probability of pool 0 with c failures over 16
    // disks in 4 pools.
    for c in 1..=8u32 {
        let exact = pool_tail_prob(16, 4, c, 3);
        // Brute force over layouts.
        let mut hit = 0u64;
        let mut total = 0u64;
        for mask in 0u32..(1 << 16) {
            if mask.count_ones() != c {
                continue;
            }
            total += 1;
            if (mask & 0xF).count_ones() >= 3 {
                hit += 1;
            }
        }
        let brute = hit as f64 / total as f64;
        assert!((exact - brute).abs() < 1e-9, "c={c}: {exact} vs {brute}");
    }
}

#[test]
fn markov_two_state_against_closed_form() {
    // lambda0 -> state1, then race of mu vs lambda1: absorption prob by
    // time t has the closed form of a 3-state phase-type distribution; use
    // very different rates and compare against high-resolution numerical
    // integration.
    let (l0, l1, mu) = (0.02f64, 0.05f64, 1.3f64);
    let chain = BirthDeathChain::new(vec![l0, l1], vec![mu]);
    // Numerical integration of the Kolmogorov forward equations.
    let mut p0 = 1.0f64;
    let mut p1 = 0.0f64;
    let mut dead = 0.0f64;
    let dt = 1e-4;
    let t_end = 50.0;
    let steps = (t_end / dt) as usize;
    for _ in 0..steps {
        let d0 = -l0 * p0 + mu * p1;
        let d1 = l0 * p0 - (l1 + mu) * p1;
        let dd = l1 * p1;
        p0 += d0 * dt;
        p1 += d1 * dt;
        dead += dd * dt;
    }
    let exact = chain.absorb_prob(Duration::from_hours(t_end));
    assert!(
        (exact - dead).abs() < 1e-4,
        "uniformization={exact} integration={dead}"
    );
}

#[test]
fn stripe_distribution_against_monte_carlo() {
    use mlec_runner::rng::ChaCha12Rng;
    let g = Geometry::paper_default();
    let counts = vec![(2u32, 40u32), (10, 25), (30, 15)];
    let w = 10u32;
    let dist = stripe_failure_distribution(&g, &counts, w, w);
    // Monte Carlo the same quantity.
    let mut rng = ChaCha12Rng::seed_from_u64(11);
    let trials = 40_000;
    let mut histogram = vec![0u32; w as usize + 1];
    for _ in 0..trials {
        let mut failed = 0;
        for r in rng.choose_multiple(g.racks as usize, w as usize) {
            let q = counts
                .iter()
                .find(|&&(rack, _)| rack as usize == r)
                .map_or(0.0, |&(_, c)| c as f64 / g.disks_per_rack() as f64);
            if rng.gen_bool(q) {
                failed += 1;
            }
        }
        histogram[failed] += 1;
    }
    for m in 0..=4usize {
        let mc = histogram[m] as f64 / trials as f64;
        assert!(
            (dist[m] - mc).abs() < 0.01 + 0.1 * mc,
            "m={m}: dp={} mc={mc}",
            dist[m]
        );
    }
}

#[test]
fn ln_choose_against_exact_integers() {
    // Against exactly-computed binomials up to C(60, 30).
    let mut pascal = vec![vec![1u128]];
    for n in 1..=60usize {
        let prev = &pascal[n - 1];
        let mut row = vec![1u128];
        for k in 1..n {
            row.push(prev[k - 1] + prev[k]);
        }
        row.push(1);
        pascal.push(row);
    }
    for n in [5usize, 20, 45, 60] {
        for k in [0usize, 1, n / 3, n / 2, n] {
            let exact = (pascal[n][k] as f64).ln();
            let approx = ln_choose(n as u32, k as u32);
            assert!(
                (exact - approx).abs() < 1e-9 * exact.abs().max(1.0),
                "C({n},{k})"
            );
        }
    }
}

mod splitting_properties {
    use mlec_analysis::splitting::{
        catastrophic_sojourn, knowledge_survival_factor, stage1_analytic, stage2_pdl,
    };
    use mlec_sim::config::MlecDeployment;
    use mlec_sim::repair::RepairMethod;
    use mlec_topology::MlecScheme;
    use mlec_units::Duration;

    /// The survival factor is a probability and never higher for a
    /// chunk-knowledge method than for `R_ALL`.
    #[test]
    fn survival_factor_bounds() {
        for scheme in MlecScheme::ALL {
            let dep = MlecDeployment::paper_default(scheme);
            let s1 = stage1_analytic(&dep);
            let phi_all = knowledge_survival_factor(&dep, RepairMethod::All, &s1);
            for method in RepairMethod::PAPER {
                let phi = knowledge_survival_factor(&dep, method, &s1);
                assert!((0.0..=1.0).contains(&phi));
                assert!(phi <= phi_all + 1e-12);
            }
        }
    }

    /// Stage-2 PDL is monotone in mission time and in the sojourn (via
    /// method ordering).
    #[test]
    fn stage2_monotonicity() {
        for scheme in MlecScheme::ALL {
            let dep = MlecDeployment::paper_default(scheme);
            let s1 = stage1_analytic(&dep);
            let one = stage2_pdl(&dep, RepairMethod::Fco, &s1, Duration::from_years(1.0));
            let five = stage2_pdl(&dep, RepairMethod::Fco, &s1, Duration::from_years(5.0));
            assert!(five >= one);
            // Sojourn ordering follows method ordering.
            let mut last = f64::INFINITY;
            for m in RepairMethod::PAPER {
                let s = catastrophic_sojourn(&dep, m).to_hours();
                assert!(s <= last + 1e-9, "sojourns must not increase: {m}");
                last = s;
            }
        }
    }
}

/// The Poisson-binomial tail interpolates between binomial tails.
#[test]
fn poisson_binomial_homogeneous_is_binomial() {
    for case in 0..32u64 {
        let mut r = case_rng("poisson-binomial", case);
        let p = 0.01 + r.next_f64() * 0.98;
        let n = 1 + (r.next_u64() % 14) as usize;
        let k = (r.next_u64() % (n as u64 + 1)) as usize;
        let probs = vec![p; n];
        let tail = poisson_binomial_tail(&probs, k);
        // Binomial tail via hypergeometric-free direct sum.
        let mut expect = 0.0;
        for m in k..=n {
            expect += (ln_choose(n as u32, m as u32)
                + m as f64 * p.ln()
                + (n - m) as f64 * (1.0 - p).ln())
            .exp();
        }
        assert!((tail - expect).abs() < 1e-9, "tail={tail} expect={expect}");
    }
}

/// Hazard-based PDL and chain PDL agree in the strongly-repairing regime
/// for arbitrary small chains.
#[test]
fn hazard_matches_uniformization() {
    for case in 0..32u64 {
        let mut r = case_rng("hazard", case);
        let lam = 1e-6 + r.next_f64() * (1e-4 - 1e-6);
        let mu = 0.01 + r.next_f64() * 0.99;
        let states = 2 + (r.next_u64() % 3) as usize;
        let fail = vec![lam; states];
        let repair = vec![mu; states - 1];
        let chain = BirthDeathChain::new(fail, repair);
        let t = Duration::from_hours(8766.0);
        let exact = chain.absorb_prob(t);
        let approx = pdl_from_hazard(chain.absorb_hazard(), t);
        if exact <= 1e-300 {
            continue;
        }
        let rel = (exact - approx).abs() / exact;
        assert!(rel < 0.05, "exact={exact} approx={approx}");
    }
}

/// `nines()` and `pdl_from_hazard()` are inverse-consistent.
#[test]
fn nines_inverts_powers() {
    for case in 0..32u64 {
        let mut r = case_rng("nines", case);
        let exp = 1.0 + r.next_f64() * 29.0;
        let pdl = 10f64.powf(-exp);
        assert!((nines(pdl) - exp).abs() < 1e-9);
    }
}

/// Hypergeometric pmf is symmetric: drawing w and marking f is the same as
/// drawing f and marking w.
#[test]
fn hypergeometric_symmetry() {
    let mut tested = 0;
    for case in 0..128u64 {
        let mut r = case_rng("hypergeom", case);
        let d = 10 + (r.next_u64() % 90) as u32;
        let w = 1 + (r.next_u64() % 9) as u32;
        let f = 1 + (r.next_u64() % 9) as u32;
        let m = (r.next_u64() % 10) as u32;
        if !(w <= d && f <= d && m <= w.min(f)) {
            continue;
        }
        let a = hypergeom_pmf(d, w, f, m);
        let b = hypergeom_pmf(d, f, w, m);
        assert!((a - b).abs() < 1e-12, "a={a} b={b}");
        tested += 1;
    }
    assert!(tested >= 32, "only {tested} admissible cases drawn");
}
