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
//!
//! Repair relies on it: the grid is a product code, every column (local
//! parities included) a network codeword. `reconstruct` takes one local
//! decode plan per damaged-row pattern, then one network plan per
//! damaged-column pattern; `read_degraded` decodes a lost row's chunk, data
//! or parity, down its own column.

use crate::rs::{DecodePlan, ReedSolomon, PARALLEL_SEGMENT_BYTES};
use crate::EcError;
use std::borrow::Borrow;

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
    ///    (`k_l` reads, no cross-rack traffic);
    /// 3. for a chunk of a lost row, data or parity, network decode down its
    ///    own column (`k_n` cross-rack reads), a helper the column lacks
    ///    first decoded in its own row (`k_l` reads each).
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
        if let Some(chunk) = &stripe[row][col] {
            return Ok((chunk.clone(), 0));
        }
        if let Some(read) = self.read_in_row(&stripe[row], col) {
            return read;
        }
        let kn = self.network.data_shards();
        let mut helpers: Vec<(usize, &[u8])> = (0..nn)
            .filter_map(|j| Some((j, stripe[j][col].as_deref()?)))
            .take(kn)
            .collect();
        // `row` itself is lost, so `read_in_row` passes over it.
        let produced = (0..nn)
            .filter(|&j| stripe[j][col].is_none())
            .filter_map(|j| Some((j, self.read_in_row(&stripe[j], col)?)))
            .take(kn - helpers.len())
            .map(|(j, read)| read.map(|(bytes, reads)| (j, bytes, reads)))
            .collect::<Result<Vec<_>, _>>()?;
        let reads = helpers.len() + produced.iter().map(|p| p.2).sum::<usize>();
        helpers.extend(produced.iter().map(|(j, bytes, _)| (*j, bytes.as_slice())));
        let rebuilt = self.network.reconstruct_one_from(row, &helpers)?;
        Ok((rebuilt, reads))
    }

    /// Chunk `col` of `row` decoded inside the row from its first `k_l`
    /// survivors, with the chunks read; `None` when the row has lost more
    /// than `p_l` chunks.
    fn read_in_row(
        &self,
        row: &[Option<Vec<u8>>],
        col: usize,
    ) -> Option<Result<(Vec<u8>, usize), EcError>> {
        let helpers: Vec<usize> = (0..row.len()).filter(|&i| row[i].is_some()).collect();
        (row.len() - helpers.len() <= self.local.parity_shards()).then(|| {
            let rebuilt = self.local.reconstruct_one(row, col, &helpers);
            rebuilt.map(|bytes| (bytes, self.local.data_shards()))
        })
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
        let (nn, nl) = self.check_grid(stripe)?;
        let pl = self.local.parity_shards();
        // Everything that can fail is decided before the first repair, so a
        // refused grid is never left half-repaired: past these checks every
        // row below takes a local plan with `k_l` survivors, and every column
        // then has at most `p_n` losses, so its network plan exists too.
        let missing_in = |row: &[Option<Vec<u8>>]| row.iter().filter(|c| c.is_none()).count();
        let lost_rows = stripe.iter().filter(|row| missing_in(row) > pl).count();
        if lost_rows > self.network.parity_shards() {
            return Err(EcError::TooManyErasures {
                present: nn - lost_rows,
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

        // Rows with 1..=p_l losses, one local plan per erasure pattern.
        let mut local_repaired = 0usize;
        let mut plans = Vec::new();
        for row in stripe.iter_mut() {
            let missing = missing_in(row);
            if (1..=pl).contains(&missing) {
                plan_for(&mut plans, &self.local, row)?.fill(row);
                local_repaired += missing;
            }
        }
        // The lost rows are left; every column with a loss, local-parity
        // columns included, takes one network plan per erasure pattern.
        let mut network_repaired = 0usize;
        let mut plans = Vec::new();
        for i in 0..nl {
            let mut column: Vec<_> = stripe.iter_mut().map(|row| &mut row[i]).collect();
            if column.iter().all(|c| c.is_some()) {
                continue;
            }
            let plan = plan_for(&mut plans, &self.network, &column)?;
            plan.fill(&mut column);
            network_repaired += plan.targets.len();
        }
        Ok((local_repaired, network_repaired))
    }
}

/// The plan filling the empty `slots`, built the first time their erasure
/// pattern turns up in `plans`: a plan's targets are exactly its pattern's
/// empty slots, so they are the key.
fn plan_for<'p, S: Borrow<Option<Vec<u8>>>>(
    plans: &'p mut Vec<DecodePlan>,
    code: &ReedSolomon,
    slots: &[S],
) -> Result<&'p DecodePlan, EcError> {
    let present: Vec<bool> = slots.iter().map(|s| s.borrow().is_some()).collect();
    let absent = (0..slots.len()).filter(|&i| !present[i]);
    match plans
        .iter()
        .position(|p| p.targets.iter().copied().eq(absent.clone()))
    {
        Some(index) => Ok(&plans[index]),
        None => {
            plans.push(DecodePlan::for_erasures(code, &present)?);
            Ok(&plans[plans.len() - 1])
        }
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

        // Erased parity column of the lost row: network decode down that
        // column too, k_n = 3 reads.
        grid[0][5] = None;
        let (bytes, reads) = codec.read_degraded(&grid, 0, 5).unwrap();
        assert_eq!(bytes, stripe[0][5]);
        assert_eq!(reads, 3);
    }

    /// Lose `lost_row` whole and the listed chunks elsewhere, then read
    /// chunk `(lost_row, col)`: it must come back although its column is
    /// short of survivors, the missing helpers decoded in their own rows.
    fn read_through_short_column(
        codec: &MlecCodec,
        lost_row: usize,
        also: &[(usize, usize)],
        col: usize,
    ) -> usize {
        let (kn, kl) = (codec.network().data_shards(), codec.local().data_shards());
        let stripe = codec.encode(&sample_data(kn * kl, 24)).unwrap();
        let mut grid = erase(&stripe);
        grid[lost_row].iter_mut().for_each(|c| *c = None);
        for &(j, i) in also {
            grid[j][i] = None;
        }
        let mut repaired = grid.clone();
        assert!(codec.reconstruct(&mut repaired).is_ok());
        let (bytes, reads) = codec.read_degraded(&grid, lost_row, col).unwrap();
        assert_eq!(bytes, stripe[lost_row][col]);
        reads
    }

    #[test]
    fn degraded_read_decodes_a_missing_helper_in_its_row() {
        // (2+1)/(2+1), row 0 lost and (1, 0): column 0 holds one survivor of
        // the two it needs; (1, 0) comes from row 1 (k_l = 2 reads).
        let small = MlecCodec::new(2, 1, 2, 1).unwrap();
        assert_eq!(read_through_short_column(&small, 0, &[(1, 0)], 0), 1 + 2);
    }

    #[test]
    fn degraded_read_decodes_a_missing_helper_at_paper_scale() {
        // (10+2)/(17+3), row 0 lost and (1, 5), (2, 5): nine survivors in
        // column 5 where ten are needed; one helper is decoded in its row.
        let paper = MlecCodec::new(10, 2, 17, 3).unwrap();
        let reads = read_through_short_column(&paper, 0, &[(1, 5), (2, 5)], 5);
        assert_eq!(reads, 9 + 17);
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
