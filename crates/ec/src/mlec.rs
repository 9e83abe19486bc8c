//! The two-level MLEC codec `(k_n + p_n) / (k_l + p_l)` (paper §2.1,
//! Fig. 2c), operating on real bytes.
//!
//! Encoding follows the paper's data path exactly:
//!
//! 1. The storage server receives `k_n * k_l` data chunks, views them as
//!    `k_n` network-level chunks (each holding `k_l` local chunks), and
//!    computes `p_n` network parity chunks with the network RS code —
//!    position-wise across the network chunks (network parity `j`'s local
//!    chunk `i` is coded from local chunk `i` of every network data chunk).
//! 2. Each of the `k_n + p_n` enclosures receives its network chunk, splits
//!    it into `k_l` local chunks, and computes `p_l` local parities with the
//!    local RS code.
//!
//! The result is a `(k_n + p_n) x (k_l + p_l)` grid of chunks; row = local
//! stripe (one enclosure/rack), column = position within the local stripe.
//! A crucial structural property (paper §5.2.1 difference (c)): local
//! parities of the network-parity rows equal network parities of the local
//! parities — the grid is consistent both ways. This is tested.

use crate::rs::{ReedSolomon, PARALLEL_SEGMENT_BYTES};
use crate::EcError;

/// Bytes of every chunk one step of the encode walk covers: a step brings
/// that range of the data chunks into the grid and computes it for every
/// parity chunk while the bytes are in cache, so each user byte is read from
/// memory once and each coded byte written once. Measured on (10+2)/(17+3) x
/// 128 KiB at 4, 8, 16 and 64 KiB, fresh and reused grids, three alternating
/// rounds: no size separates beyond run-to-run spread on this host (2 MiB
/// L2, very large L3), so the middle one stands.
const SEGMENT_BYTES: usize = 8 * 1024;

/// One byte range of the whole grid: `segment[row][col]` is that range of
/// chunk `(row, col)`.
type Segment<'a> = Vec<Vec<&'a mut [u8]>>;

/// A two-level MLEC codec.
#[derive(Clone, Debug)]
pub struct MlecCodec {
    network: ReedSolomon,
    local: ReedSolomon,
}

/// A fully-encoded MLEC network stripe: `rows = k_n + p_n` local stripes,
/// each with `k_l + p_l` chunks.
pub type MlecStripe = Vec<Vec<Vec<u8>>>;

impl MlecCodec {
    /// Create a `(k_n + p_n) / (k_l + p_l)` codec.
    pub fn new(kn: usize, pn: usize, kl: usize, pl: usize) -> Result<MlecCodec, EcError> {
        Ok(MlecCodec {
            network: ReedSolomon::new(kn, pn)?,
            local: ReedSolomon::new(kl, pl)?,
        })
    }

    /// The network-level code.
    pub fn network(&self) -> &ReedSolomon {
        &self.network
    }

    /// The local-level code.
    pub fn local(&self) -> &ReedSolomon {
        &self.local
    }

    /// Data chunks per network stripe (`k_n * k_l`).
    pub fn data_chunks(&self) -> usize {
        self.network.data_shards() * self.local.data_shards()
    }

    /// Total chunks per network stripe (`(k_n+p_n) * (k_l+p_l)`).
    pub fn total_chunks(&self) -> usize {
        self.network.total_shards() * self.local.total_shards()
    }

    /// Parity overhead: `total/data - 1`.
    pub fn parity_overhead(&self) -> f64 {
        self.total_chunks() as f64 / self.data_chunks() as f64 - 1.0
    }

    /// Encode `k_n * k_l` data chunks (row-major: chunk `i` of network chunk
    /// `j` is `data[j * k_l + i]`) into the full stripe grid:
    /// [`MlecCodec::encode_into`] on an empty grid.
    pub fn encode<T: AsRef<[u8]>>(&self, data: &[T]) -> Result<MlecStripe, EcError> {
        self.encode_parallel(data, 1)
    }

    /// Multi-core [`MlecCodec::encode`]: the same segment walk with its
    /// steps dealt to up to `threads` scoped worker threads in
    /// [`PARALLEL_SEGMENT_BYTES`] ranges. Every coded byte depends only on
    /// the same byte position of the data chunks, so the stripe grid is
    /// **bit-identical** for every thread count. Same shape errors.
    pub fn encode_parallel<T: AsRef<[u8]>>(
        &self,
        data: &[T],
        threads: usize,
    ) -> Result<MlecStripe, EcError> {
        let mut stripe = MlecStripe::new();
        self.encode_with(data, &mut stripe, threads)?;
        Ok(stripe)
    }

    /// [`MlecCodec::encode`] into a grid the caller owns, reusing what it
    /// holds: the grid is reshaped to `(k_n+p_n) x (k_l+p_l)` chunks of the
    /// data's length keeping every capacity, and wholly overwritten — a grid
    /// that held a stripe of this shape is re-encoded without allocating.
    ///
    /// # Errors
    /// [`EcError::ShapeMismatch`], with `stripe` untouched, unless `data` is
    /// `k_n * k_l` chunks of one length.
    pub fn encode_into<T: AsRef<[u8]>>(
        &self,
        data: &[T],
        stripe: &mut MlecStripe,
    ) -> Result<(), EcError> {
        self.encode_with(data, stripe, 1)
    }

    /// The encode walk: `stripe` reshaped, then every [`SEGMENT_BYTES`] step
    /// through [`MlecCodec::encode_segment`]. The two schedules differ only
    /// in how a step's range of a chunk comes to exist: appended to the `Vec`
    /// as the walk reaches it (one worker), or split off a pre-sized one.
    fn encode_with<T: AsRef<[u8]>>(
        &self,
        data: &[T],
        stripe: &mut MlecStripe,
        threads: usize,
    ) -> Result<(), EcError> {
        let (kn, kl) = (self.network.data_shards(), self.local.data_shards());
        if data.len() != kn * kl {
            return Err(EcError::ShapeMismatch(format!(
                "expected {} data chunks, got {}",
                kn * kl,
                data.len()
            )));
        }
        let data: Vec<&[u8]> = data.iter().map(AsRef::as_ref).collect();
        let len = data[0].len();
        if data.iter().any(|d| d.len() != len) {
            return Err(EcError::ShapeMismatch(
                "data chunks differ in length".into(),
            ));
        }
        stripe.resize_with(self.network.total_shards(), Vec::new);
        for row in stripe.iter_mut() {
            row.resize_with(self.local.total_shards(), Vec::new);
            for chunk in row {
                chunk.clear();
                chunk.reserve_exact(len);
            }
        }
        // The user bytes chunk `(row, col)` carries, `None` for a parity.
        let source = |row: usize, col: usize| (row < kn && col < kl).then(|| data[row * kl + col]);

        let workers = threads.clamp(1, len.div_ceil(PARALLEL_SEGMENT_BYTES).max(1));
        if workers == 1 {
            for start in (0..len).step_by(SEGMENT_BYTES) {
                let end = len.min(start + SEGMENT_BYTES);
                // Each row grows by the step as the body reaches it: a data
                // chunk by its bytes, a parity chunk by zeroes the body
                // overwrites while they are still in L1.
                let rows = stripe.iter_mut().enumerate().map(|(j, row)| {
                    let ranges = row.iter_mut().enumerate().map(|(i, chunk)| {
                        match source(j, i) {
                            Some(bytes) => chunk.extend_from_slice(&bytes[start..end]),
                            None => chunk.resize(end, 0),
                        }
                        &mut chunk[start..end]
                    });
                    ranges.collect()
                });
                self.encode_segment(rows);
            }
            return Ok(());
        }

        // Workers write disjoint ranges of pre-sized chunks, no locking.
        // Sizing a fresh grid is a pass over memory of its own, so it is
        // dealt out too, by rows; the steps by the range they fall in.
        let rows_each = stripe.len().div_ceil(workers);
        std::thread::scope(|scope| {
            for rows in stripe.chunks_mut(rows_each) {
                scope.spawn(move || rows.iter_mut().flatten().for_each(|c| c.resize(len, 0)));
            }
        });
        let mut steps: Vec<Vec<_>> = stripe
            .iter_mut()
            .map(|row| {
                row.iter_mut()
                    .map(|c| c.chunks_mut(SEGMENT_BYTES))
                    .collect()
            })
            .collect();
        let mut assignments: Vec<Vec<(usize, Segment)>> =
            (0..workers).map(|_| Vec::new()).collect();
        for start in (0..len).step_by(SEGMENT_BYTES) {
            let segment = steps
                .iter_mut()
                .map(|row| row.iter_mut().filter_map(Iterator::next).collect())
                .collect();
            assignments[start / PARALLEL_SEGMENT_BYTES % workers].push((start, segment));
        }
        let source = &source;
        std::thread::scope(|scope| {
            for mine in assignments {
                scope.spawn(move || {
                    for (start, segment) in mine {
                        let rows = segment.into_iter().enumerate().map(|(j, mut row)| {
                            for (i, range) in row.iter_mut().enumerate() {
                                if let Some(bytes) = source(j, i) {
                                    range.copy_from_slice(&bytes[start..start + range.len()]);
                                }
                            }
                            row
                        });
                        self.encode_segment(rows);
                    }
                });
            }
        });
        Ok(())
    }

    /// The one encode body: the paper's data path on one byte range of the
    /// grid. `rows` yields that range of every row, top to bottom, the data
    /// chunks' already holding the user bytes, and is pulled a row at a time
    /// so a row is in cache when its `p_l` local parities are computed. Then
    /// come the `p_n` network parities of every column and the local
    /// parities of the network-parity rows.
    fn encode_segment<'a>(&self, mut rows: impl Iterator<Item = Vec<&'a mut [u8]>>) {
        let (kn, kl) = (self.network.data_shards(), self.local.data_shards());
        let local_parities = |row: &mut [&mut [u8]]| {
            let (chunks, parity) = row.split_at_mut(kl);
            let chunks: Vec<&[u8]> = chunks.iter().map(|c| &**c).collect();
            self.local.encode_slices(&chunks, parity);
        };
        let mut data_rows: Segment = Vec::with_capacity(kn);
        for mut row in rows.by_ref().take(kn) {
            local_parities(&mut row);
            data_rows.push(row);
        }
        let mut parity_rows: Segment = rows.collect();
        for i in 0..kl {
            let column: Vec<&[u8]> = data_rows.iter().map(|row| &*row[i]).collect();
            let mut parity: Vec<&mut [u8]> =
                parity_rows.iter_mut().map(|row| &mut *row[i]).collect();
            self.network.encode_slices(&column, &mut parity);
        }
        for row in &mut parity_rows {
            local_parities(row);
        }
    }

    /// Degraded read: return the content of chunk `(row, col)` from a
    /// stripe with erasures, touching as few chunks as possible — the read
    /// path equivalent of `R_MIN`'s repair planning. Preference order:
    ///
    /// 1. the chunk itself if present (zero extra reads);
    /// 2. local decode within its row when the row is locally recoverable
    ///    (`<= k_l` reads, no cross-rack traffic);
    /// 3. network decode of the column (`k_n` cross-rack reads) plus, for a
    ///    parity column of a lost row, a local re-encode.
    ///
    /// Returns `(bytes, chunks_read)`.
    ///
    /// # Errors
    /// [`EcError::TooManyErasures`] when the stripe cannot produce the
    /// chunk at all; [`EcError::ShapeMismatch`] when the grid is not
    /// `(k_n+p_n) x (k_l+p_l)` or `(row, col)` lies outside it.
    pub fn read_degraded(
        &self,
        stripe: &[Vec<Option<Vec<u8>>>],
        row: usize,
        col: usize,
    ) -> Result<(Vec<u8>, usize), EcError> {
        let (nn, nl) = self.check_grid(stripe)?;
        if row >= nn || col >= nl {
            return Err(EcError::ShapeMismatch(format!(
                "chunk ({row}, {col}) is outside the {nn} x {nl} grid"
            )));
        }
        // Fast path: the chunk survived.
        if let Some(chunk) = &stripe[row][col] {
            return Ok((chunk.clone(), 0));
        }
        // Local path: decode within the row.
        let kl = self.local.data_shards();
        let missing_in_row = stripe[row].iter().filter(|c| c.is_none()).count();
        if missing_in_row <= self.local.parity_shards() {
            let helpers: Vec<usize> = (0..nl)
                .filter(|&i| stripe[row][i].is_some())
                .take(kl)
                .collect();
            let rebuilt = self.local.reconstruct_one(&stripe[row], col, &helpers)?;
            return Ok((rebuilt, helpers.len()));
        }
        // Network path: decode column `col` across rows. Parity columns of
        // lost rows need the row's data columns first, so recurse per data
        // column and re-encode.
        if col < kl {
            let helpers: Vec<(usize, &[u8])> = stripe
                .iter()
                .enumerate()
                .filter_map(|(j, r)| Some((j, r[col].as_deref()?)))
                .collect();
            let rebuilt = self.network.reconstruct_one_from(row, &helpers)?;
            Ok((rebuilt, self.network.data_shards()))
        } else {
            let mut data = Vec::with_capacity(kl);
            let mut reads = 0usize;
            for c in 0..kl {
                let (chunk, r) = self.read_degraded(stripe, row, c)?;
                data.push(chunk);
                reads += r.max(1);
            }
            let mut parity = vec![vec![0u8; data[0].len()]; self.local.parity_shards()];
            self.local.encode_into(&data, &mut parity)?;
            Ok((parity.swap_remove(col - kl), reads))
        }
    }

    /// `(k_n + p_n, k_l + p_l)`, or the shape error if `stripe` is not a
    /// grid of exactly that many slots.
    fn check_grid(&self, stripe: &[Vec<Option<Vec<u8>>>]) -> Result<(usize, usize), EcError> {
        let nn = self.network.total_shards();
        let nl = self.local.total_shards();
        if stripe.len() != nn || stripe.iter().any(|r| r.len() != nl) {
            return Err(EcError::ShapeMismatch(format!(
                "expected a {nn} x {nl} grid"
            )));
        }
        Ok((nn, nl))
    }

    /// Repair a stripe grid with erasures (`None` entries), using local
    /// repair where a row is locally recoverable and network repair for the
    /// rest. Returns `(locally_repaired, network_repaired)` chunk counts —
    /// the accounting that distinguishes R_FCO-style from hybrid repairs.
    ///
    /// # Errors
    /// [`EcError::TooManyErasures`] when more than `p_n` rows are lost
    /// beyond local recoverability, [`EcError::ShapeMismatch`] for a grid of
    /// the wrong shape or surviving chunks of different lengths. A failed
    /// call leaves `stripe` exactly as it found it.
    pub fn reconstruct(
        &self,
        stripe: &mut [Vec<Option<Vec<u8>>>],
    ) -> Result<(usize, usize), EcError> {
        let (nn, _) = self.check_grid(stripe)?;
        let (kl, pl) = (self.local.data_shards(), self.local.parity_shards());
        // Everything that can fail is decided before the first repair, so a
        // refused grid is never left half-repaired.
        let missing_in = |row: &[Option<Vec<u8>>]| row.iter().filter(|c| c.is_none()).count();
        let lost_rows: Vec<usize> = (0..nn).filter(|&j| missing_in(&stripe[j]) > pl).collect();
        if lost_rows.len() > self.network.parity_shards() {
            return Err(EcError::TooManyErasures {
                present: nn - lost_rows.len(),
                needed: self.network.data_shards(),
            });
        }
        let mut survivors = stripe.iter().flatten().flatten();
        let len = survivors.next().map_or(0, Vec::len);
        if survivors.any(|c| c.len() != len) {
            return Err(EcError::ShapeMismatch(
                "surviving chunks differ in length".into(),
            ));
        }
        let mut local_repaired = 0usize;
        let mut network_repaired = 0usize;

        // Pass 1: repair every locally-recoverable row.
        for row in stripe.iter_mut() {
            let missing = missing_in(row);
            if missing > 0 && missing <= pl {
                self.local.reconstruct(row)?;
                local_repaired += missing;
            }
        }

        // Pass 2: lost rows are repaired over the network, chunk position by
        // chunk position: column `i` of all rows is moved out of the grid as
        // a network-level stripe, decoded, and moved back — whatever the
        // decoder answered.
        if lost_rows.is_empty() {
            return Ok((local_repaired, network_repaired));
        }
        for i in 0..kl {
            let mut column: Vec<Option<Vec<u8>>> =
                stripe.iter_mut().map(|row| row[i].take()).collect();
            let missing = missing_in(&column);
            let decoded = self.network.reconstruct(&mut column);
            for (row, chunk) in stripe.iter_mut().zip(column) {
                row[i] = chunk;
            }
            decoded?;
            network_repaired += missing;
        }
        // Re-encode the local parities the formerly-lost rows are missing.
        for &j in &lost_rows {
            let (data, parity) = stripe[j].split_at_mut(kl);
            let data: Vec<&[u8]> = data.iter().flatten().map(Vec::as_slice).collect();
            let mut encoded = vec![vec![0u8; len]; pl];
            self.local.encode_into(&data, &mut encoded)?;
            for (slot, chunk) in parity.iter_mut().zip(encoded) {
                if slot.is_none() {
                    *slot = Some(chunk);
                    network_repaired += 1;
                }
            }
        }
        Ok((local_repaired, network_repaired))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_data(n: usize, len: usize) -> Vec<Vec<u8>> {
        (0..n)
            .map(|s| {
                (0..len)
                    .map(|i| ((s * 83 + i * 29 + 7) % 256) as u8)
                    .collect()
            })
            .collect()
    }

    fn erase(stripe: &crate::mlec::MlecStripe) -> Vec<Vec<Option<Vec<u8>>>> {
        stripe
            .iter()
            .map(|row| row.iter().cloned().map(Some).collect())
            .collect()
    }

    #[test]
    fn paper_figure2c_shape() {
        // (2+1)/(2+1): 3 rows of 3 chunks from 4 data chunks.
        let codec = MlecCodec::new(2, 1, 2, 1).unwrap();
        let data = sample_data(4, 8);
        let stripe = codec.encode(&data).unwrap();
        assert_eq!(stripe.len(), 3);
        assert!(stripe.iter().all(|r| r.len() == 3));
        // Systematic: rows 0..2 carry the data chunks verbatim.
        assert_eq!(stripe[0][0], data[0]);
        assert_eq!(stripe[0][1], data[1]);
        assert_eq!(stripe[1][0], data[2]);
        assert_eq!(stripe[1][1], data[3]);
    }

    #[test]
    fn grid_is_consistent_both_ways() {
        // The local parity of the network-parity row must equal the network
        // parity of the local parities (paper §5.2.1(c): MLEC computes
        // double parities from network parities). With XOR codes this is
        // commutativity of the two linear maps.
        let codec = MlecCodec::new(2, 1, 2, 1).unwrap();
        let data = sample_data(4, 16);
        let stripe = codec.encode(&data).unwrap();
        // Network parity of the local parities (column 2).
        for (b, (&dp, (&l0, &l1))) in stripe[2][2]
            .iter()
            .zip(stripe[0][2].iter().zip(&stripe[1][2]))
            .enumerate()
        {
            assert_eq!(dp, l0 ^ l1, "byte {b}");
        }
    }

    #[test]
    fn encode_golden_for_every_thread_count() {
        let codec = MlecCodec::new(3, 2, 4, 2).unwrap();
        let data = sample_data(12, 512);
        let serial = codec.encode(&data).unwrap();
        // FNV-1a over the grid, row-major: the absolute pin for the stripe
        // bytes, so a later rewrite of `encode` is checked against this
        // body and not only against its own parallel schedule.
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &b in serial.iter().flatten().flatten() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        assert_eq!(h, 0x86c8_f5cb_b5e7_362d);
        for threads in [0usize, 1, 2, 3, 8] {
            let parallel = codec.encode_parallel(&data, threads).unwrap();
            assert_eq!(parallel, serial, "threads={threads}");
        }
    }

    #[test]
    fn encode_into_reuses_any_grid() {
        let codec = MlecCodec::new(3, 2, 4, 2).unwrap();
        // More than one step of the walk, with a ragged last one.
        let len = if cfg!(miri) { 1 } else { 2 } * SEGMENT_BYTES + 77;
        let data = sample_data(12, len);
        let expected = codec.encode(&data).unwrap();
        let grids: [(&str, MlecStripe); 6] = [
            ("empty", Vec::new()),
            ("dirty", vec![vec![vec![0xff; len]; 6]; 5]),
            ("oversized", vec![vec![vec![0xff; 3 * len]; 9]; 7]),
            ("short", vec![vec![vec![0xff; 5]; 6]; 5]),
            ("3 x 1", vec![vec![vec![0xff; len]]; 3]),
            (
                "ragged",
                vec![vec![], vec![vec![1; 9]; 2], vec![vec![2; 2 * len]; 8]],
            ),
        ];
        for (what, mut grid) in grids {
            codec.encode_into(&data, &mut grid).unwrap();
            assert_eq!(grid, expected, "{what} grid");
            // And again, now that the grid has the stripe's own shape.
            codec.encode_into(&data, &mut grid).unwrap();
            assert_eq!(grid, expected, "{what} grid, second encode");
        }
    }

    #[test]
    fn encode_into_shape_errors_leave_the_grid_alone() {
        let codec = MlecCodec::new(2, 1, 2, 1).unwrap();
        let data = sample_data(4, 40);
        let mut grid = codec.encode(&data).unwrap();
        let before = grid.clone();
        let mut ragged = sample_data(4, 40);
        ragged[3].pop();
        for bad in [sample_data(3, 40), ragged, Vec::new()] {
            let err = codec.encode_into(&bad, &mut grid).unwrap_err();
            assert!(matches!(err, EcError::ShapeMismatch(_)), "{err:?}");
            assert_eq!(grid, before);
        }
        // The refused calls left nothing behind for the next one to see.
        let other = sample_data(4, 24);
        codec.encode_into(&other, &mut grid).unwrap();
        assert_eq!(grid, codec.encode(&other).unwrap());
    }

    #[test]
    fn encode_parallel_shape_errors() {
        let codec = MlecCodec::new(2, 1, 2, 1).unwrap();
        assert!(codec.encode_parallel(&sample_data(3, 8), 4).is_err());
        let mut data = sample_data(4, 8);
        data[2].pop();
        assert!(codec.encode_parallel(&data, 4).is_err());
    }

    #[test]
    fn local_erasures_repaired_locally() {
        let codec = MlecCodec::new(3, 2, 4, 2).unwrap();
        let data = sample_data(12, 8);
        let stripe = codec.encode(&data).unwrap();
        let mut grid = erase(&stripe);
        grid[0][1] = None;
        grid[0][4] = None; // two failures in one row: within p_l = 2
        grid[2][3] = None;
        let (local, network) = codec.reconstruct(&mut grid).unwrap();
        assert_eq!(local, 3);
        assert_eq!(network, 0);
        for (j, row) in stripe.iter().enumerate() {
            for (i, chunk) in row.iter().enumerate() {
                assert_eq!(grid[j][i].as_ref().unwrap(), chunk);
            }
        }
    }

    #[test]
    fn lost_row_repaired_over_network() {
        let codec = MlecCodec::new(3, 2, 4, 2).unwrap();
        let data = sample_data(12, 8);
        let stripe = codec.encode(&data).unwrap();
        let mut grid = erase(&stripe);
        // Lose 3 chunks in row 1 (> p_l = 2): a lost local stripe.
        grid[1][0] = None;
        grid[1][2] = None;
        grid[1][5] = None;
        let (local, network) = codec.reconstruct(&mut grid).unwrap();
        assert_eq!(local, 0);
        assert_eq!(network, 3);
        for (j, row) in stripe.iter().enumerate() {
            for (i, chunk) in row.iter().enumerate() {
                assert_eq!(grid[j][i].as_ref().unwrap(), chunk);
            }
        }
    }

    #[test]
    fn tolerates_pn_lost_rows_plus_local_failures() {
        let codec = MlecCodec::new(2, 2, 3, 1).unwrap();
        let data = sample_data(6, 4);
        let stripe = codec.encode(&data).unwrap();
        let mut grid = erase(&stripe);
        // Lose rows 0 and 3 completely (p_n = 2 tolerated), plus a single
        // chunk in row 1 (locally recoverable).
        for row in [0, 3] {
            grid[row].iter_mut().for_each(|c| *c = None);
        }
        grid[1][2] = None;
        codec.reconstruct(&mut grid).unwrap();
        for (j, row) in stripe.iter().enumerate() {
            for (i, chunk) in row.iter().enumerate() {
                assert_eq!(grid[j][i].as_ref().unwrap(), chunk, "row {j} col {i}");
            }
        }
    }

    #[test]
    fn data_loss_when_too_many_rows_lost() {
        let codec = MlecCodec::new(2, 1, 2, 1).unwrap();
        let data = sample_data(4, 4);
        let stripe = codec.encode(&data).unwrap();
        let mut grid = erase(&stripe);
        // Lose 2 entire rows with p_n = 1: unrecoverable.
        for row in [0, 2] {
            grid[row].iter_mut().for_each(|c| *c = None);
        }
        assert!(codec.reconstruct(&mut grid).is_err());
    }

    #[test]
    fn degraded_read_prefers_cheapest_path() {
        let codec = MlecCodec::new(3, 2, 4, 2).unwrap();
        let data = sample_data(12, 16);
        let stripe = codec.encode(&data).unwrap();
        let mut grid = erase(&stripe);

        // Healthy chunk: zero reads.
        let (bytes, reads) = codec.read_degraded(&grid, 1, 2).unwrap();
        assert_eq!(bytes, stripe[1][2]);
        assert_eq!(reads, 0);

        // One erasure in a row: local decode with k_l = 4 reads.
        grid[1][2] = None;
        let (bytes, reads) = codec.read_degraded(&grid, 1, 2).unwrap();
        assert_eq!(bytes, stripe[1][2]);
        assert_eq!(reads, 4);

        // Lost row (3 > p_l = 2 erasures): network decode, k_n = 3 reads.
        grid[0][0] = None;
        grid[0][1] = None;
        grid[0][3] = None;
        let (bytes, reads) = codec.read_degraded(&grid, 0, 0).unwrap();
        assert_eq!(bytes, stripe[0][0]);
        assert_eq!(reads, 3);

        // Erased parity column of the lost row: rebuild the data columns
        // first, then locally re-encode.
        grid[0][5] = None;
        let (bytes, reads) = codec.read_degraded(&grid, 0, 5).unwrap();
        assert_eq!(bytes, stripe[0][5]);
        assert!(reads >= 4, "reads={reads}");
    }

    #[test]
    fn degraded_read_of_a_chunk_outside_the_grid_is_an_error() {
        let codec = MlecCodec::new(3, 2, 4, 2).unwrap();
        let mut grid = erase(&codec.encode(&sample_data(12, 8)).unwrap());
        grid[4][5] = None;
        for (row, col) in [(5, 0), (0, 6), (5, 6), (usize::MAX, 0)] {
            let err = codec.read_degraded(&grid, row, col).unwrap_err();
            assert!(
                matches!(err, EcError::ShapeMismatch(_)),
                "({row}, {col}): {err:?}"
            );
        }
    }

    #[test]
    fn failed_reconstruct_leaves_the_grid_as_it_found_it() {
        let codec = MlecCodec::new(2, 1, 2, 1).unwrap();
        let stripe = codec.encode(&sample_data(4, 16)).unwrap();
        // Two lost rows with p_n = 1, next to a row that one local repair
        // would have fixed: the refusal must come before that repair.
        let mut grid = erase(&stripe);
        grid[0][0] = None;
        grid[0][1] = None;
        grid[1][1] = None;
        grid[1][2] = None;
        grid[2][0] = None;
        let before = grid.clone();
        let err = codec.reconstruct(&mut grid).unwrap_err();
        assert!(matches!(err, EcError::TooManyErasures { .. }), "{err:?}");
        assert_eq!(grid, before);
        // Survivors of different lengths are refused the same way.
        let mut grid = erase(&stripe);
        grid[0][0] = None;
        grid[2][2].as_mut().unwrap().pop();
        let before = grid.clone();
        let err = codec.reconstruct(&mut grid).unwrap_err();
        assert!(matches!(err, EcError::ShapeMismatch(_)), "{err:?}");
        assert_eq!(grid, before);
    }

    #[test]
    fn degraded_read_fails_beyond_tolerance() {
        let codec = MlecCodec::new(2, 1, 2, 1).unwrap();
        let data = sample_data(4, 8);
        let stripe = codec.encode(&data).unwrap();
        let mut grid = erase(&stripe);
        // Lose two full rows with p_n = 1.
        for row in [0, 1] {
            grid[row].iter_mut().for_each(|c| *c = None);
        }
        assert!(codec.read_degraded(&grid, 0, 0).is_err());
    }

    #[test]
    fn overhead_math() {
        // (10+2)/(17+3): 240 total / 170 data - 1 = 41.2%.
        let codec = MlecCodec::new(10, 2, 17, 3).unwrap();
        assert_eq!(codec.data_chunks(), 170);
        assert_eq!(codec.total_chunks(), 240);
        assert!((codec.parity_overhead() - (240.0 / 170.0 - 1.0)).abs() < 1e-12);
    }
}
