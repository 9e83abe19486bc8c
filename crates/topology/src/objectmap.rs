//! Logical-object → physical-chunk address translation for MLEC.
//!
//! The paper's discussion (§6.1) calls out "efficiently mapping logical
//! objects to physical blocks in erasure-coded systems" as an open problem
//! that MLEC's layering makes harder. This module implements that mapping
//! for all four placement schemes: given a byte offset into the system's
//! logical data space, produce the exact `(network stripe, local stripe,
//! chunk position, disk)` holding it — deterministically, with the
//! pseudorandom declustered placements derived from a seeded hash so every
//! node in a cluster computes the same layout with no metadata lookups.

use crate::geometry::{DiskId, Geometry, RackId};
use crate::placement::{LocalPoolMap, MlecScheme, NetworkPoolMap, Placement};
use mlec_runner::rng::{mix64, GOLDEN_GAMMA};

/// Code parameters the mapper needs (decoupled from `mlec-ec` to keep the
/// layering acyclic: topology must not depend on the codec crate's types).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MapperCode {
    /// Network-level data chunks.
    pub kn: u32,
    /// Network-level parity chunks.
    pub pn: u32,
    /// Local-level data chunks.
    pub kl: u32,
    /// Local-level parity chunks.
    pub pl: u32,
}

impl MapperCode {
    /// The paper's `(10+2)/(17+3)`.
    pub const fn paper_default() -> MapperCode {
        MapperCode {
            kn: 10,
            pn: 2,
            kl: 17,
            pl: 3,
        }
    }

    /// Network stripe width.
    pub const fn network_width(&self) -> u32 {
        self.kn + self.pn
    }

    /// Local stripe width.
    pub const fn local_width(&self) -> u32 {
        self.kl + self.pl
    }

    /// Data bytes per network stripe given the chunk size.
    pub fn stripe_data_bytes(&self, chunk_bytes: u64) -> u64 {
        self.kn as u64 * self.kl as u64 * chunk_bytes
    }
}

/// The physical location of one chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkLocation {
    /// Network stripe index.
    pub network_stripe: u64,
    /// Row within the stripe: which local stripe (0..kn+pn); rows >= kn are
    /// network parity.
    pub row: u32,
    /// Column within the local stripe (0..kl+pl); cols >= kl are local
    /// parity.
    pub col: u32,
    /// The local pool holding this row.
    pub pool: u32,
    /// The disk holding the chunk.
    pub disk: DiskId,
}

/// Deterministic object-to-chunk mapper for an MLEC deployment.
#[derive(Debug, Clone)]
pub struct ObjectMapper {
    geometry: Geometry,
    code: MapperCode,
    scheme: MlecScheme,
    pools: LocalPoolMap,
    network_pools: Option<NetworkPoolMap>,
    chunk_bytes: u64,
    seed: u64,
}

impl ObjectMapper {
    /// Build a mapper. Clustered levels enforce the §2.2 divisibility
    /// constraints via the underlying pool maps.
    pub fn new(
        geometry: Geometry,
        code: MapperCode,
        scheme: MlecScheme,
        chunk_bytes: u64,
        seed: u64,
    ) -> ObjectMapper {
        let pools = LocalPoolMap::new(geometry, scheme.local, code.local_width());
        let network_pools = match scheme.network {
            Placement::Clustered => {
                Some(NetworkPoolMap::new_clustered(&pools, code.network_width()))
            }
            Placement::Declustered => None,
        };
        ObjectMapper {
            geometry,
            code,
            scheme,
            pools,
            network_pools,
            chunk_bytes,
            seed,
        }
    }

    /// Logical data capacity addressable by the mapper, in bytes.
    pub fn logical_capacity_bytes(&self) -> u64 {
        let total_chunks =
            self.geometry.total_disks() as u64 * self.geometry.chunks_per_disk() as u64;
        let stripes = total_chunks / (self.code.network_width() * self.code.local_width()) as u64;
        stripes * self.code.stripe_data_bytes(self.chunk_bytes)
    }

    /// Locate the chunk holding logical byte `offset`.
    ///
    /// # Panics
    /// Panics if `offset` exceeds [`ObjectMapper::logical_capacity_bytes`].
    pub fn locate(&self, offset: u64) -> ChunkLocation {
        assert!(
            offset < self.logical_capacity_bytes(),
            "offset beyond logical capacity"
        );
        let stripe_bytes = self.code.stripe_data_bytes(self.chunk_bytes);
        let network_stripe = offset / stripe_bytes;
        let within = offset % stripe_bytes;
        let data_chunk = (within / self.chunk_bytes) as u32;
        let row = data_chunk / self.code.kl;
        let col = data_chunk % self.code.kl;
        self.chunk_at(network_stripe, row, col)
    }

    /// All `(kn+pn) x (kl+pl)` chunk locations of a network stripe — what a
    /// repair coordinator enumerates when planning `R_FCO/R_MIN` reads.
    /// Each row is drawn in one walk ([`ObjectMapper::row_disks`]).
    pub fn stripe_chunks(&self, network_stripe: u64) -> Vec<ChunkLocation> {
        let mut out =
            Vec::with_capacity((self.code.network_width() * self.code.local_width()) as usize);
        for row in 0..self.code.network_width() {
            let pool = self.pool_of_row(network_stripe, row);
            for (col, disk) in (0..).zip(self.disks_of_row(network_stripe, pool)) {
                out.push(ChunkLocation {
                    network_stripe,
                    row,
                    col,
                    pool,
                    disk,
                });
            }
        }
        out
    }

    /// Location of one `(row, col)` chunk of a network stripe.
    pub fn chunk_at(&self, network_stripe: u64, row: u32, col: u32) -> ChunkLocation {
        assert!(row < self.code.network_width(), "row out of range");
        assert!(col < self.code.local_width(), "col out of range");
        let pool = self.pool_of_row(network_stripe, row);
        let disk = self.disk_of_chunk(network_stripe, pool, col);
        ChunkLocation {
            network_stripe,
            row,
            col,
            pool,
            disk,
        }
    }

    /// The rack hosting `row` of `network_stripe`: every column of a row
    /// lives in one pool, hence one rack, so only the pool is drawn.
    pub fn rack_of_row(&self, network_stripe: u64, row: u32) -> RackId {
        assert!(row < self.code.network_width(), "row out of range");
        self.pools
            .rack_of_pool(self.pool_of_row(network_stripe, row))
    }

    /// The disks of `row` of `network_stripe` in column order, drawn in one
    /// walk: the `col`-th is `chunk_at(network_stripe, row, col).disk`. On
    /// local widths up to 32 the walk does not allocate.
    pub fn row_disks(&self, network_stripe: u64, row: u32) -> RowDisks {
        assert!(row < self.code.network_width(), "row out of range");
        self.disks_of_row(network_stripe, self.pool_of_row(network_stripe, row))
    }

    /// The local pool hosting `row` of `network_stripe`.
    fn pool_of_row(&self, network_stripe: u64, row: u32) -> u32 {
        match (&self.network_pools, self.scheme.network) {
            (Some(np), Placement::Clustered) => {
                // Round-robin network stripes over network pools; row i uses
                // the pool at the same position in the i-th rack of the
                // group.
                let np_index = (network_stripe % np.num_network_pools() as u64) as u32;
                let group = np_index / self.pools.pools_per_rack();
                let position = np_index % self.pools.pools_per_rack();
                let rack = group * np.pools_per_network_pool() + row;
                rack * self.pools.pools_per_rack() + position
            }
            (_, Placement::Declustered) => {
                // Pseudorandom distinct racks per stripe, then a pseudorandom
                // pool within each chosen rack.
                let racks = self.geometry.racks;
                let rack = distinct_sample(
                    hash3(self.seed, network_stripe, 0x5ac5),
                    racks,
                    self.code.network_width(),
                    row,
                );
                let pool_in_rack =
                    (hash3(self.seed, network_stripe.wrapping_add(row as u64), 0x900d)
                        % self.pools.pools_per_rack() as u64) as u32;
                rack * self.pools.pools_per_rack() + pool_in_rack
            }
            (None, Placement::Clustered) => unreachable!("clustered network keeps a pool map"),
        }
    }

    /// The disk hosting chunk `col` of the row placed in `pool`: the
    /// `col`-th of [`ObjectMapper::disks_of_row`], drawn without the
    /// columns after it.
    fn disk_of_chunk(&self, network_stripe: u64, pool: u32, col: u32) -> DiskId {
        let pool_disks = self.pools.disks_of_pool(pool);
        match self.scheme.local {
            Placement::Clustered => pool_disks.start + col,
            Placement::Declustered => {
                pool_disks.start
                    + distinct_sample(
                        self.disk_key(network_stripe, pool),
                        pool_disks.len() as u32,
                        self.code.local_width(),
                        col,
                    )
            }
        }
    }

    /// The disks of the row of `network_stripe` placed in `pool`, in
    /// column order.
    fn disks_of_row(&self, network_stripe: u64, pool: u32) -> RowDisks {
        let pool_disks = self.pools.disks_of_pool(pool);
        let width = self.code.local_width();
        let slots = 2 * width as usize;
        RowDisks {
            first: pool_disks.start,
            cols: 0..width,
            walk: match self.scheme.local {
                // The stripe occupies the whole pool, one chunk per disk.
                Placement::Clustered => None,
                // Pseudorandom distinct disks within the pool per (stripe,
                // pool).
                Placement::Declustered => {
                    Some((self.disk_key(network_stripe, pool), pool_disks.len() as u32))
                }
            },
            stack: [(0, 0); STACK_SLOTS],
            heap: if slots > STACK_SLOTS {
                vec![(0, 0); slots]
            } else {
                Vec::new()
            },
            len: 0,
        }
    }

    /// The key of the walk that places the row of `network_stripe` on the
    /// disks of a declustered `pool`.
    fn disk_key(&self, network_stripe: u64, pool: u32) -> u64 {
        hash3(self.seed, network_stripe ^ (pool as u64) << 32, 0xd15c)
    }

    /// Rack of a chunk location (convenience).
    pub fn rack_of(&self, loc: &ChunkLocation) -> RackId {
        self.geometry.rack_of(loc.disk)
    }
}

/// One `SplitMix64` step from state `z` — a well-distributed 64-bit mixer.
fn mix(z: u64) -> u64 {
    mix64(z.wrapping_add(GOLDEN_GAMMA))
}

fn hash3(seed: u64, a: u64, b: u64) -> u64 {
    mix(seed ^ mix(a ^ mix(b)))
}

/// Touched slots a Fisher–Yates walk keeps on the stack: `steps` swaps
/// touch at most `2 * steps` slots, so every walk of up to 32 steps (every
/// stripe width of the paper) draws without allocating.
const STACK_SLOTS: usize = 64;

/// The disks of one row of a network stripe, in column order: the
/// iterator [`ObjectMapper::row_disks`] returns. A declustered row is one
/// keyed Fisher–Yates walk over its pool's disks, a step per column.
pub struct RowDisks {
    /// First disk of the row's pool.
    first: DiskId,
    /// Columns not yet drawn.
    cols: std::ops::Range<u32>,
    /// A declustered pool's walk key and disk count; a clustered row puts
    /// column `c` on the pool's `c`-th disk.
    walk: Option<(u64, u32)>,
    /// The walk's touched slots, for a row of up to 32 columns.
    stack: [(u32, u32); STACK_SLOTS],
    /// The walk's touched slots, for a wider row; empty otherwise.
    heap: Vec<(u32, u32)>,
    len: usize,
}

impl Iterator for RowDisks {
    type Item = DiskId;

    fn next(&mut self) -> Option<DiskId> {
        let col = self.cols.next()?;
        let Some((key, n)) = self.walk else {
            return Some(self.first + col);
        };
        let touched = if self.heap.is_empty() {
            &mut self.stack[..]
        } else {
            &mut self.heap[..]
        };
        let (offset, len) = fisher_yates_step(key, n, col, touched, self.len);
        self.len = len;
        Some(self.first + offset)
    }
}

/// The `index`-th element of a deterministic pseudorandom permutation-prefix
/// of `0..n` of length `count`, derived from `key`: the draw at step
/// `index` of the keyed Fisher–Yates walk — O(count) per call.
fn distinct_sample(key: u64, n: u32, count: u32, index: u32) -> u32 {
    debug_assert!(count <= n, "cannot draw {count} distinct of {n}");
    debug_assert!(index < count);
    let prefix = |touched: &mut [(u32, u32)]| {
        let mut len = 0;
        let mut result = 0;
        for step in 0..=index {
            (result, len) = fisher_yates_step(key, n, step, touched, len);
        }
        result
    };
    let slots = 2 * (index as usize + 1);
    if slots <= STACK_SLOTS {
        prefix(&mut [(0, 0); STACK_SLOTS])
    } else {
        prefix(&mut vec![(0, 0); slots])
    }
}

/// Step `step` of the virtual Fisher–Yates shuffle of `0..n` keyed by
/// `key`: swap position `step` with a keyed pick from `step..n`. Only
/// touched `(position, value)` slots are kept, the first `len` of
/// `touched`, which must hold `2(step + 1)`. Returns the value landing at
/// `step` and the new count of touched slots.
#[inline]
fn fisher_yates_step(
    key: u64,
    n: u32,
    step: u32,
    touched: &mut [(u32, u32)],
    len: usize,
) -> (u32, usize) {
    let lookup = |touched: &[(u32, u32)], i: u32| -> u32 {
        touched
            .iter()
            .find(|&&(k, _)| k == i)
            .map_or(i, |&(_, v)| v)
    };
    let j = step + (hash3(key, step as u64, 0x5eed) % (n - step) as u64) as u32;
    let vi = lookup(&touched[..len], step);
    let vj = lookup(&touched[..len], j);
    // swap positions step and j
    let len = upsert(touched, len, step, vj);
    (vj, upsert(touched, len, j, vi))
}

/// Set `key` to `value` among the first `len` slots, appending it when
/// absent; returns the new length.
fn upsert(touched: &mut [(u32, u32)], len: usize, key: u32, value: u32) -> usize {
    if let Some(slot) = touched[..len].iter_mut().find(|(k, _)| *k == key) {
        slot.1 = value;
        len
    } else {
        touched[len] = (key, value);
        len + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mapper(scheme: MlecScheme) -> ObjectMapper {
        ObjectMapper::new(
            Geometry::paper_default(),
            MapperCode::paper_default(),
            scheme,
            128_000, // geometry convention: decimal KB chunks
            0xfeed,
        )
    }

    #[test]
    fn distinct_sample_is_a_permutation_prefix() {
        for key in [1u64, 99, 12345] {
            for (n, count) in [(10u32, 10u32), (60, 12), (120, 20)] {
                let drawn: Vec<u32> = (0..count)
                    .map(|i| distinct_sample(key, n, count, i))
                    .collect();
                let mut sorted = drawn.clone();
                sorted.sort_unstable();
                sorted.dedup();
                assert_eq!(sorted.len(), count as usize, "distinct: {drawn:?}");
                assert!(drawn.iter().all(|&v| v < n));
            }
        }
    }

    #[test]
    fn locate_round_trips_rows_and_cols() {
        let m = mapper(MlecScheme::CC);
        let chunk = 128_000u64;
        // Byte 0 is stripe 0, row 0, col 0.
        let loc = m.locate(0);
        assert_eq!((loc.network_stripe, loc.row, loc.col), (0, 0, 0));
        // One local stripe of data later: row 1.
        let loc = m.locate(17 * chunk);
        assert_eq!((loc.row, loc.col), (1, 0));
        // One network stripe of data later: stripe 1.
        let loc = m.locate(170 * chunk);
        assert_eq!(loc.network_stripe, 1);
    }

    #[test]
    fn chunks_of_local_stripe_on_distinct_disks() {
        for scheme in MlecScheme::ALL {
            let m = mapper(scheme);
            for stripe in [0u64, 7, 1234] {
                let chunks = m.stripe_chunks(stripe);
                for row in 0..12u32 {
                    let mut disks: Vec<DiskId> = chunks
                        .iter()
                        .filter(|c| c.row == row)
                        .map(|c| c.disk)
                        .collect();
                    assert_eq!(disks.len(), 20);
                    disks.sort_unstable();
                    disks.dedup();
                    assert_eq!(disks.len(), 20, "{scheme} stripe {stripe} row {row}");
                }
            }
        }
    }

    #[test]
    fn rows_of_network_stripe_on_distinct_racks() {
        for scheme in MlecScheme::ALL {
            let m = mapper(scheme);
            for stripe in [0u64, 3, 999] {
                let chunks = m.stripe_chunks(stripe);
                let mut racks: Vec<RackId> = (0..12u32)
                    .map(|row| {
                        let c = chunks.iter().find(|c| c.row == row).unwrap();
                        m.rack_of(c)
                    })
                    .collect();
                racks.sort_unstable();
                racks.dedup();
                assert_eq!(racks.len(), 12, "{scheme} stripe {stripe}");
            }
        }
    }

    #[test]
    fn clustered_rows_stay_in_their_network_pool() {
        let m = mapper(MlecScheme::CC);
        let pools = LocalPoolMap::new(Geometry::paper_default(), Placement::Clustered, 20);
        let np = NetworkPoolMap::new_clustered(&pools, 12);
        for stripe in [0u64, 41, 500] {
            let chunks = m.stripe_chunks(stripe);
            let mut network_pools: Vec<u32> =
                chunks.iter().map(|c| np.network_pool_of(c.pool)).collect();
            network_pools.sort_unstable();
            network_pools.dedup();
            assert_eq!(network_pools.len(), 1, "one network pool per stripe");
        }
    }

    #[test]
    fn chunk_within_its_pool() {
        for scheme in MlecScheme::ALL {
            let m = mapper(scheme);
            let chunks = m.stripe_chunks(77);
            for c in &chunks {
                assert_eq!(m.pools.pool_of(c.disk), c.pool, "{scheme}");
            }
        }
    }

    #[test]
    fn mapping_is_deterministic_but_seed_sensitive() {
        let a = mapper(MlecScheme::DD).stripe_chunks(5);
        let b = mapper(MlecScheme::DD).stripe_chunks(5);
        assert_eq!(a, b);
        let other = ObjectMapper::new(
            Geometry::paper_default(),
            MapperCode::paper_default(),
            MlecScheme::DD,
            128_000,
            0xbeef,
        )
        .stripe_chunks(5);
        assert_ne!(a, other, "different seeds give different declustering");
    }

    #[test]
    fn capacity_accounting() {
        let m = mapper(MlecScheme::CC);
        // 57,600 disks * 156.25M chunks / 240 chunks-per-stripe...
        let cap = m.logical_capacity_bytes();
        // ... = data fraction 170/240 of raw capacity.
        let raw = 57_600.0 * 20e12;
        let expect = raw * 170.0 / 240.0;
        let got = cap as f64;
        assert!(
            (got - expect).abs() / expect < 1e-6,
            "cap={got} expect={expect}"
        );
    }

    #[test]
    #[should_panic]
    fn locate_rejects_out_of_range() {
        let m = mapper(MlecScheme::CC);
        m.locate(u64::MAX);
    }
}
