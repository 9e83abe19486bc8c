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

use crate::rs::ReedSolomon;
use crate::EcError;

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
    /// `j` is `data[j * k_l + i]`) into the full stripe grid.
    pub fn encode<T: AsRef<[u8]>>(&self, data: &[T]) -> Result<MlecStripe, EcError> {
        let kn = self.network.data_shards();
        let kl = self.local.data_shards();
        if data.len() != kn * kl {
            return Err(EcError::ShapeMismatch(format!(
                "expected {} data chunks, got {}",
                kn * kl,
                data.len()
            )));
        }
        let len = data[0].as_ref().len();
        if data.iter().any(|d| d.as_ref().len() != len) {
            return Err(EcError::ShapeMismatch(
                "data chunks differ in length".into(),
            ));
        }

        // Step 1: network encode, position-by-position across network chunks.
        // rows[j][i] = local chunk i of network chunk j.
        let mut rows: Vec<Vec<Vec<u8>>> = (0..kn)
            .map(|j| {
                (0..kl)
                    .map(|i| data[j * kl + i].as_ref().to_vec())
                    .collect()
            })
            .collect();
        for _ in 0..self.network.parity_shards() {
            rows.push(vec![Vec::new(); kl]);
        }
        // Column-major walk: `i` addresses position i of *every* row, so an
        // iterator over `rows` can't express it.
        #[allow(clippy::needless_range_loop)]
        for i in 0..kl {
            let column: Vec<&[u8]> = (0..kn).map(|j| rows[j][i].as_slice()).collect();
            let mut parity = vec![vec![0u8; len]; self.network.parity_shards()];
            // Compute network parities of this local-chunk position.
            let col_owned: Vec<Vec<u8>> = column.iter().map(|c| c.to_vec()).collect();
            self.network.encode_into(&col_owned, &mut parity)?;
            for (pj, pchunk) in parity.into_iter().enumerate() {
                rows[kn + pj][i] = pchunk;
            }
        }

        // Step 2: local encode each row (enclosure-level controller).
        let mut stripe: MlecStripe = Vec::with_capacity(self.network.total_shards());
        for row in rows {
            stripe.push(self.local.encode(&row)?);
        }
        Ok(stripe)
    }

    /// Multi-core [`MlecCodec::encode`]: the `k_l` independent network
    /// columns of step 1 and the `k_n + p_n` independent local stripes of
    /// step 2 are distributed round-robin over `threads` scoped worker
    /// threads. Work units are fixed (column index, row index) — never a
    /// function of the thread count — and each unit runs the same codec
    /// calls as the serial path, so the stripe grid is **bit-identical**
    /// to [`MlecCodec::encode`] for every thread count.
    ///
    /// # Errors
    /// Same shape errors as [`MlecCodec::encode`].
    pub fn encode_parallel<T: AsRef<[u8]> + Sync>(
        &self,
        data: &[T],
        threads: usize,
    ) -> Result<MlecStripe, EcError> {
        if threads <= 1 {
            return self.encode(data);
        }
        let kn = self.network.data_shards();
        let kl = self.local.data_shards();
        let pn = self.network.parity_shards();
        if data.len() != kn * kl {
            return Err(EcError::ShapeMismatch(format!(
                "expected {} data chunks, got {}",
                kn * kl,
                data.len()
            )));
        }
        let len = data[0].as_ref().len();
        if data.iter().any(|d| d.as_ref().len() != len) {
            return Err(EcError::ShapeMismatch(
                "data chunks differ in length".into(),
            ));
        }

        // Step 1: network parities, one independent unit per local-chunk
        // position (column). Worker `w` owns columns `w, w + workers, …`.
        let data_rows: Vec<Vec<&[u8]>> = (0..kn)
            .map(|j| (0..kl).map(|i| data[j * kl + i].as_ref()).collect())
            .collect();
        let workers = threads.min(kl.max(1));
        let mut col_parities: Vec<Vec<Vec<u8>>> = vec![Vec::new(); kl];
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(workers);
            for w in 0..workers {
                let data_rows = &data_rows;
                handles.push(scope.spawn(move || {
                    let mut mine = Vec::new();
                    let mut i = w;
                    while i < kl {
                        let column: Vec<&[u8]> = (0..kn).map(|j| data_rows[j][i]).collect();
                        let mut parity = vec![vec![0u8; len]; pn];
                        self.network
                            .encode_into(&column, &mut parity)
                            .expect("column shapes checked above");
                        mine.push((i, parity));
                        i += workers;
                    }
                    mine
                }));
            }
            for h in handles {
                for (i, parity) in h.join().expect("network-encode worker panicked") {
                    col_parities[i] = parity;
                }
            }
        });

        // Assemble the k_n + p_n network rows of local data chunks.
        let mut rows: Vec<Vec<Vec<u8>>> = (0..kn)
            .map(|j| {
                (0..kl)
                    .map(|i| data[j * kl + i].as_ref().to_vec())
                    .collect()
            })
            .collect();
        for pj in 0..pn {
            rows.push(
                col_parities
                    .iter_mut()
                    .map(|col| std::mem::take(&mut col[pj]))
                    .collect(),
            );
        }

        // Step 2: local encode, one independent unit per row.
        let nrows = rows.len();
        let workers = threads.min(nrows.max(1));
        let mut stripe: MlecStripe = vec![Vec::new(); nrows];
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(workers);
            for w in 0..workers {
                let rows = &rows;
                handles.push(scope.spawn(move || {
                    let mut mine = Vec::new();
                    let mut j = w;
                    while j < nrows {
                        mine.push((
                            j,
                            self.local
                                .encode(&rows[j])
                                .expect("row shapes checked above"),
                        ));
                        j += workers;
                    }
                    mine
                }));
            }
            for h in handles {
                for (j, full) in h.join().expect("local-encode worker panicked") {
                    stripe[j] = full;
                }
            }
        });
        Ok(stripe)
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
    /// chunk at all.
    pub fn read_degraded(
        &self,
        stripe: &[Vec<Option<Vec<u8>>>],
        row: usize,
        col: usize,
    ) -> Result<(Vec<u8>, usize), EcError> {
        let nn = self.network.total_shards();
        let nl = self.local.total_shards();
        if stripe.len() != nn || stripe.iter().any(|r| r.len() != nl) {
            return Err(EcError::ShapeMismatch(format!(
                "expected a {nn} x {nl} grid"
            )));
        }
        // Fast path: the chunk survived.
        if let Some(chunk) = &stripe[row][col] {
            return Ok((chunk.clone(), 0));
        }
        // Local path: decode within the row.
        let missing_in_row = stripe[row].iter().filter(|c| c.is_none()).count();
        if missing_in_row <= self.local.parity_shards() {
            let helpers: Vec<usize> = (0..nl)
                .filter(|&i| stripe[row][i].is_some())
                .take(self.local.data_shards())
                .collect();
            let row_shards: Vec<Option<Vec<u8>>> = stripe[row].clone();
            let rebuilt = self.local.reconstruct_one(&row_shards, col, &helpers)?;
            return Ok((rebuilt, helpers.len()));
        }
        // Network path: decode column `col` across rows. Parity columns of
        // lost rows need the row's data columns first, so recurse per data
        // column and re-encode.
        if col < self.local.data_shards() {
            let column: Vec<Option<Vec<u8>>> = (0..nn).map(|j| stripe[j][col].clone()).collect();
            let helpers: Vec<usize> = (0..nn).filter(|&j| column[j].is_some()).collect();
            if helpers.len() < self.network.data_shards() {
                return Err(EcError::TooManyErasures {
                    present: helpers.len(),
                    needed: self.network.data_shards(),
                });
            }
            let rebuilt = self.network.reconstruct_one(&column, row, &helpers)?;
            Ok((rebuilt, self.network.data_shards()))
        } else {
            // Rebuild the row's data columns over the network, then locally
            // re-encode the requested parity.
            let kl = self.local.data_shards();
            let mut data = Vec::with_capacity(kl);
            let mut reads = 0usize;
            for c in 0..kl {
                let (chunk, r) = self.read_degraded(stripe, row, c)?;
                data.push(chunk);
                reads += r.max(1);
            }
            let full = self.local.encode(&data)?;
            Ok((full[col].clone(), reads))
        }
    }

    /// Repair a stripe grid with erasures (`None` entries), using local
    /// repair where a row is locally recoverable and network repair for the
    /// rest. Returns `(locally_repaired, network_repaired)` chunk counts —
    /// the accounting that distinguishes R_FCO-style from hybrid repairs.
    ///
    /// # Errors
    /// [`EcError::TooManyErasures`] when more than `p_n` rows are lost
    /// beyond local recoverability.
    pub fn reconstruct(
        &self,
        stripe: &mut [Vec<Option<Vec<u8>>>],
    ) -> Result<(usize, usize), EcError> {
        let nn = self.network.total_shards();
        let nl = self.local.total_shards();
        if stripe.len() != nn || stripe.iter().any(|r| r.len() != nl) {
            return Err(EcError::ShapeMismatch(format!(
                "expected a {nn} x {nl} grid"
            )));
        }
        let mut local_repaired = 0usize;
        let mut network_repaired = 0usize;

        // Pass 1: repair every locally-recoverable row.
        for row in stripe.iter_mut() {
            let missing = row.iter().filter(|c| c.is_none()).count();
            if missing > 0 && missing <= self.local.parity_shards() {
                self.local.reconstruct(row)?;
                local_repaired += missing;
            }
        }

        // Pass 2: lost rows (more than p_l missing) are repaired over the
        // network, chunk position by chunk position, then re-encode local
        // parities of those rows.
        let lost_rows: Vec<usize> = (0..nn)
            .filter(|&j| stripe[j].iter().any(std::option::Option::is_none))
            .collect();
        if lost_rows.is_empty() {
            return Ok((local_repaired, network_repaired));
        }
        if lost_rows.len() > self.network.parity_shards() {
            return Err(EcError::TooManyErasures {
                present: nn - lost_rows.len(),
                needed: self.network.data_shards(),
            });
        }
        let kl = self.local.data_shards();
        // Column-major walk across all rows — not expressible as a single
        // iterator over `stripe`.
        #[allow(clippy::needless_range_loop)]
        for i in 0..kl {
            // Column i across all rows, as a network-level stripe.
            let mut column: Vec<Option<Vec<u8>>> = (0..nn).map(|j| stripe[j][i].clone()).collect();
            let missing_before = column.iter().filter(|c| c.is_none()).count();
            if missing_before == 0 {
                continue;
            }
            self.network.reconstruct(&mut column)?;
            network_repaired += missing_before;
            for j in 0..nn {
                if stripe[j][i].is_none() {
                    stripe[j][i] = column[j].take();
                }
            }
        }
        // Re-encode local parities of formerly-lost rows.
        for &j in &lost_rows {
            let data: Vec<Vec<u8>> = (0..kl)
                .map(|i| stripe[j][i].clone().expect("data rebuilt above"))
                .collect();
            let full = self.local.encode(&data)?;
            for (i, chunk) in full.into_iter().enumerate() {
                if stripe[j][i].is_none() {
                    stripe[j][i] = Some(chunk);
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
