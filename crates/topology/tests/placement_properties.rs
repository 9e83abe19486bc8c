//! Property tests of the placement layer: pool maps, network grouping,
//! burst generation, and the object mapper.
//!
//! Cases are driven by `mlec-runner`'s deterministic seed stream (one
//! substream per property, one seed per case), so every run exercises the
//! same inputs.

use mlec_runner::rng::ChaCha12Rng;
use mlec_runner::{SeedStream, SplitMix64};
use mlec_topology::objectmap::{MapperCode, ObjectMapper};
use mlec_topology::{burst, Geometry, LocalPoolMap, MlecScheme, Placement};

const CASES: u64 = 48;

fn case_rng(property: &str, case: u64) -> SplitMix64 {
    SplitMix64::new(SeedStream::new(0x7090109, property).trial_seed(case))
}

fn in_range(r: &mut SplitMix64, lo: u64, hi: u64) -> u64 {
    lo + r.next_u64() % (hi - lo)
}

/// Clustered pool maps tile the enclosure exactly.
#[test]
fn clustered_pools_tile_enclosures() {
    for widths in [2u32, 3, 4, 6, 12] {
        let g = Geometry::small_test(); // 12 disks per enclosure
        let map = LocalPoolMap::new(g, Placement::Clustered, widths);
        assert_eq!(map.pool_size(), widths);
        assert_eq!(map.pools_per_enclosure() * widths, g.disks_per_enclosure);
        // Every pool's disks share one enclosure.
        for pool in 0..map.num_pools() {
            let encls: std::collections::BTreeSet<u32> = map
                .disks_of_pool(pool)
                .map(|d| g.global_enclosure_of(d))
                .collect();
            assert_eq!(encls.len(), 1);
        }
    }
}

/// Burst sampling respects per-rack capacity even near the limit.
#[test]
fn burst_never_overflows_a_rack() {
    for case in 0..CASES {
        let mut r = case_rng("burst-capacity", case);
        let seed = r.next_u64();
        let x = in_range(&mut r, 1, 6) as u32;
        let g = Geometry::small_test();
        let capacity = g.disks_per_rack(); // 24
        let y = capacity * x; // exactly full
        let mut rng = ChaCha12Rng::seed_from_u64(seed);
        let counts = burst::sample_rack_counts(&g, y, x, &mut rng).unwrap();
        assert!(counts.iter().all(|&(_, c)| c <= capacity));
        assert_eq!(counts.iter().map(|&(_, c)| c).sum::<u32>(), y);
    }
}

/// Burst sampling fails cleanly when physically impossible.
#[test]
fn burst_overflow_detected() {
    for case in 0..CASES {
        let mut r = case_rng("burst-overflow", case);
        let seed = r.next_u64();
        let x = in_range(&mut r, 1, 4) as u32;
        let g = Geometry::small_test();
        let y = g.disks_per_rack() * x + 1;
        let mut rng = ChaCha12Rng::seed_from_u64(seed);
        assert!(burst::sample_rack_counts(&g, y, x, &mut rng).is_err());
    }
}

/// Object-mapper invariants hold for random stripes across all schemes:
/// rows on distinct racks, chunks of a row on distinct disks of one pool.
#[test]
fn objectmap_invariants() {
    for case in 0..CASES {
        let mut r = case_rng("objectmap", case);
        let stripe = in_range(&mut r, 0, 100_000);
        let seed = r.next_u64();
        let g = Geometry::paper_default();
        for scheme in MlecScheme::ALL {
            let mapper = ObjectMapper::new(g, MapperCode::paper_default(), scheme, 128_000, seed);
            let chunks = mapper.stripe_chunks(stripe);
            assert_eq!(chunks.len(), 240);
            let mut racks = std::collections::BTreeSet::new();
            for row in 0..12u32 {
                let row_chunks: Vec<_> = chunks.iter().filter(|c| c.row == row).collect();
                let pools: std::collections::BTreeSet<u32> =
                    row_chunks.iter().map(|c| c.pool).collect();
                assert_eq!(pools.len(), 1, "a local stripe lives in one pool");
                let disks: std::collections::BTreeSet<u32> =
                    row_chunks.iter().map(|c| c.disk).collect();
                assert_eq!(disks.len(), 20, "chunks on distinct disks");
                racks.insert(mapper.rack_of(row_chunks[0]));
            }
            assert_eq!(racks.len(), 12, "{scheme}: rows on distinct racks");
        }
    }
}

/// `locate()` is consistent with `stripe_chunks()`.
#[test]
fn locate_agrees_with_stripe_enumeration() {
    for case in 0..CASES {
        let mut r = case_rng("locate", case);
        let offset_chunks = in_range(&mut r, 0, 1_000_000);
        let g = Geometry::paper_default();
        let mapper = ObjectMapper::new(g, MapperCode::paper_default(), MlecScheme::CD, 128_000, 1);
        let offset = offset_chunks * 128_000;
        let loc = mapper.locate(offset);
        let from_enum = mapper
            .stripe_chunks(loc.network_stripe)
            .into_iter()
            .find(|c| c.row == loc.row && c.col == loc.col)
            .unwrap();
        assert_eq!(loc, from_enum);
        // Data offsets never map to parity positions.
        assert!(loc.row < 10);
        assert!(loc.col < 17);
    }
}

/// Disk coordinates round-trip through every geometry the suite uses.
#[test]
fn geometry_roundtrip() {
    for case in 0..CASES {
        let mut r = case_rng("geometry", case);
        let g = Geometry {
            racks: in_range(&mut r, 1, 100) as u32,
            enclosures_per_rack: in_range(&mut r, 1, 10) as u32,
            disks_per_enclosure: in_range(&mut r, 1, 200) as u32,
            disk_capacity_tb: 20.0,
            chunk_kb: 128.0,
        };
        let total = g.total_disks();
        for probe in [0, total / 3, total.saturating_sub(1)] {
            if probe < total {
                let (rk, e, s) = (g.rack_of(probe), g.enclosure_of(probe), g.slot_of(probe));
                assert_eq!(
                    rk * g.disks_per_rack() + e * g.disks_per_enclosure + s,
                    probe
                );
            }
        }
    }
}

#[test]
fn declustered_map_is_one_pool_per_enclosure() {
    let g = Geometry::paper_default();
    let map = LocalPoolMap::new(g, Placement::Declustered, 20);
    assert_eq!(map.num_pools(), g.total_enclosures());
    for pool in 0..map.num_pools() {
        assert_eq!(map.disks_of_pool(pool).len() as u32, g.disks_per_enclosure);
    }
}

/// A row drawn in one walk is the row `chunk_at` draws column by column,
/// and a row's rack is its first chunk's rack, on every placement of the
/// paper and the small test geometry.
#[test]
fn row_walk_agrees_with_chunk_at() {
    let setups = [
        (Geometry::paper_default(), MapperCode::paper_default()),
        (
            Geometry::small_test(),
            MapperCode {
                kn: 2,
                pn: 1,
                kl: 3,
                pl: 1,
            },
        ),
    ];
    for case in 0..CASES {
        let mut r = case_rng("row_disks", case);
        let stripe = in_range(&mut r, 0, 100_000);
        let seed = r.next_u64();
        for (g, code) in setups {
            for scheme in MlecScheme::ALL {
                let mapper = ObjectMapper::new(g, code, scheme, 128_000, seed);
                for row in 0..code.network_width() {
                    let disks: Vec<u32> = mapper.row_disks(stripe, row).collect();
                    assert_eq!(disks.len(), code.local_width() as usize);
                    for (col, &disk) in (0..).zip(&disks) {
                        assert_eq!(disk, mapper.chunk_at(stripe, row, col).disk, "{scheme}");
                    }
                    let first = mapper.chunk_at(stripe, row, 0);
                    assert_eq!(mapper.rack_of_row(stripe, row), mapper.rack_of(&first));
                }
            }
        }
    }
}
