//! Workspace-level property tests: invariants that must hold across
//! arbitrary configurations of the whole stack.
//!
//! Cases are driven by `mlec-runner`'s deterministic seed stream (one
//! substream per property, one seed per case), so every run exercises the
//! same inputs.

use mlec_analysis::burst::poisson_binomial_tail;
use mlec_ec::{Lrc, MlecCodec, ReedSolomon};
use mlec_runner::rng::ChaCha12Rng;
use mlec_runner::{SeedStream, SplitMix64};
use mlec_sim::census::{hypergeom_pmf, prob_cover_all, StripeCensus};
use mlec_topology::{burst, FailureLayout, Geometry, LocalPoolMap, Placement};

const CASES: u64 = 64;

fn case_rng(property: &str, case: u64) -> SplitMix64 {
    SplitMix64::new(SeedStream::new(0x1417A217, property).trial_seed(case))
}

fn in_range(r: &mut SplitMix64, lo: u64, hi: u64) -> u64 {
    lo + r.next_u64() % (hi - lo)
}

/// RS round-trips any erasure pattern of size <= p, for random (k, p).
#[test]
fn rs_reconstructs_any_tolerable_pattern() {
    for case in 0..CASES {
        let mut r = case_rng("rs-round-trip", case);
        let k = in_range(&mut r, 2, 20) as usize;
        let p = in_range(&mut r, 1, 6) as usize;
        let seed = r.next_u64();
        let len = in_range(&mut r, 1, 64) as usize;
        let rs = ReedSolomon::new(k, p).unwrap();
        let mut rng = ChaCha12Rng::seed_from_u64(seed);
        let data: Vec<Vec<u8>> = (0..k)
            .map(|_| (0..len).map(|_| rng.next_u64() as u8).collect())
            .collect();
        let encoded = rs.encode(&data).unwrap();
        // Random erasure pattern of size p.
        let idx = rng.shuffle(k + p);
        let mut shards: Vec<Option<Vec<u8>>> = encoded.iter().cloned().map(Some).collect();
        for &i in idx.iter().take(p) {
            shards[i] = None;
        }
        rs.reconstruct(&mut shards).unwrap();
        for i in 0..(k + p) {
            assert_eq!(shards[i].as_ref().unwrap(), &encoded[i]);
        }
    }
}

/// Parity verification catches any single-byte corruption.
#[test]
fn rs_verify_catches_corruption() {
    for case in 0..CASES {
        let mut r = case_rng("rs-verify", case);
        let k = in_range(&mut r, 2, 10) as usize;
        let p = in_range(&mut r, 1, 4) as usize;
        let rs = ReedSolomon::new(k, p).unwrap();
        let data: Vec<Vec<u8>> = (0..k).map(|s| vec![s as u8; 16]).collect();
        let mut shards = rs.encode(&data).unwrap();
        assert!(rs.verify(&shards).unwrap());
        let si = (r.next_u64() as usize) % (k + p);
        let bi = (r.next_u64() as usize) % 16;
        let bit = (r.next_u64() % 8) as u8;
        shards[si][bi] ^= 1 << bit;
        assert!(!rs.verify(&shards).unwrap());
    }
}

/// The MLEC grid is consistent: reconstruct after erasing anything within
/// tolerance returns the exact original.
#[test]
fn mlec_reconstruct_exactness() {
    for case in 0..CASES {
        let mut r = case_rng("mlec-exact", case);
        let kn = in_range(&mut r, 2, 5) as usize;
        let pn = in_range(&mut r, 1, 3) as usize;
        let kl = in_range(&mut r, 2, 6) as usize;
        let pl = in_range(&mut r, 1, 3) as usize;
        let seed = r.next_u64();
        let codec = MlecCodec::new(kn, pn, kl, pl).unwrap();
        let mut rng = ChaCha12Rng::seed_from_u64(seed);
        let data: Vec<Vec<u8>> = (0..kn * kl)
            .map(|_| (0..8).map(|_| rng.next_u64() as u8).collect())
            .collect();
        let stripe = codec.encode(&data).unwrap();
        let mut grid: Vec<Vec<Option<Vec<u8>>>> = stripe
            .iter()
            .map(|row| row.iter().cloned().map(Some).collect())
            .collect();
        // Erase pl chunks per row (always locally recoverable).
        for row in &mut grid {
            let len = row.len();
            for i in 0..pl {
                row[i * 2 % len] = None;
            }
        }
        codec.reconstruct(&mut grid).unwrap();
        for (j, row) in stripe.iter().enumerate() {
            for (i, chunk) in row.iter().enumerate() {
                assert_eq!(grid[j][i].as_ref().unwrap(), chunk);
            }
        }
    }
}

/// LRC: any single failure repairs with only its group (cost < k).
#[test]
fn lrc_local_repair_is_cheaper() {
    let mut tested = 0;
    for case in 0..(CASES * 2) {
        let mut r = case_rng("lrc-local-repair", case);
        let k = in_range(&mut r, 4, 30) as usize;
        let l = in_range(&mut r, 2, 4) as usize;
        let rr = in_range(&mut r, 1, 4) as usize;
        if !k.is_multiple_of(l) {
            continue;
        }
        let lrc = Lrc::new(k, l, rr).unwrap();
        for idx in 0..(k + l) {
            assert!(lrc.single_repair_cost(idx) <= k / l + 1);
            assert!(lrc.single_repair_cost(idx) < k);
        }
        tested += 1;
    }
    assert!(
        tested >= CASES as usize / 2,
        "only {tested} admissible cases"
    );
}

/// Census invariants under arbitrary failure/drain interleavings: stripes
/// conserved, counts non-negative, failed chunks consistent.
#[test]
fn census_invariants() {
    for case in 0..CASES {
        let mut r = case_rng("census", case);
        let num_ops = in_range(&mut r, 1, 30);
        let stripes = 1000.0 + r.next_f64() * (1e7 - 1000.0);
        let mut census = StripeCensus::new(60, 10, stripes);
        for _ in 0..num_ops {
            match r.next_u64() % 4 {
                0..=1 => {
                    if census.failed_disks() < 59 {
                        census.add_disk_failure();
                    }
                }
                2 => {
                    census.drain_priority(stripes * 0.01);
                }
                _ => {
                    census.drain_priority(census.failed_chunks() + 1.0);
                }
            }
            assert!((census.total_stripes() - stripes).abs() < stripes * 1e-9);
            for m in 0..=10u32 {
                assert!(census.at(m) >= -1e-9, "negative class {m}");
            }
        }
    }
}

/// Hypergeometric distributions sum to 1 and cover-all matches the top
/// bucket for any geometry.
#[test]
fn hypergeometric_consistency() {
    for case in 0..CASES {
        let mut r = case_rng("hypergeom-total", case);
        let d = in_range(&mut r, 10, 200) as u32;
        let w = in_range(&mut r, 2, 20) as u32;
        let f = in_range(&mut r, 0, 10) as u32;
        if !(w <= d && f <= d) {
            continue;
        }
        let total: f64 = (0..=f.min(w)).map(|m| hypergeom_pmf(d, w, f, m)).sum();
        assert!((total - 1.0).abs() < 1e-9, "total={total}");
        if f <= w {
            assert!((hypergeom_pmf(d, w, f, f) - prob_cover_all(d, w, f)).abs() < 1e-12);
        }
    }
}

/// Poisson-binomial tails are monotone in k and bounded by [0, 1].
#[test]
fn poisson_binomial_tail_properties() {
    for case in 0..CASES {
        let mut r = case_rng("pb-tail", case);
        let n = in_range(&mut r, 1, 20) as usize;
        let probs: Vec<f64> = (0..n).map(|_| r.next_f64()).collect();
        let mut last = 1.0f64;
        for k in 0..=probs.len() {
            let t = poisson_binomial_tail(&probs, k);
            assert!((0.0..=1.0 + 1e-12).contains(&t));
            assert!(t <= last + 1e-12, "tail must decrease in k");
            last = t;
        }
    }
}

/// Burst layouts always hit exactly the requested shape.
#[test]
fn burst_layout_shape() {
    let g = Geometry::small_test();
    let mut tested = 0;
    for case in 0..(CASES * 2) {
        let mut r = case_rng("burst-shape", case);
        let seed = r.next_u64();
        let y = in_range(&mut r, 1, 40) as u32;
        let x = in_range(&mut r, 1, 6) as u32;
        if y < x || y > g.disks_per_rack() * x {
            continue;
        }
        let mut rng = ChaCha12Rng::seed_from_u64(seed);
        let layout = burst::sample_burst(&g, y, x, &mut rng).unwrap();
        assert_eq!(layout.len() as u32, y);
        assert_eq!(layout.affected_racks(&g) as u32, x);
        tested += 1;
    }
    assert!(
        tested >= CASES as usize / 2,
        "only {tested} admissible cases"
    );
}

/// Pool maps partition the disks: every disk in exactly one pool, pool
/// sizes as declared.
#[test]
fn pool_map_partitions() {
    let g = Geometry::small_test(); // 12 disks/enclosure
    for width in 2..13u32 {
        if !g.disks_per_enclosure.is_multiple_of(width) && width != g.disks_per_enclosure {
            continue;
        }
        for placement in [Placement::Clustered, Placement::Declustered] {
            if placement == Placement::Clustered && !g.disks_per_enclosure.is_multiple_of(width) {
                continue;
            }
            let map = LocalPoolMap::new(g, placement, width);
            let mut seen = vec![false; g.total_disks() as usize];
            for pool in 0..map.num_pools() {
                for d in map.disks_of_pool(pool) {
                    assert!(!seen[d as usize], "disk {d} in two pools");
                    seen[d as usize] = true;
                }
            }
            assert!(seen.iter().all(|&s| s), "all disks covered");
        }
    }
}

/// Failure layout aggregation is conservative: per-rack counts sum to the
/// layout size.
#[test]
fn layout_counting_conservation() {
    for case in 0..CASES {
        let mut r = case_rng("layout-conservation", case);
        let n = in_range(&mut r, 0, 50);
        let disks: Vec<u32> = (0..n).map(|_| (r.next_u64() % 144) as u32).collect();
        let g = Geometry::small_test();
        let layout = FailureLayout::new(disks);
        let total: u32 = layout.per_rack_counts(&g).values().sum();
        assert_eq!(total as usize, layout.len());
    }
}
