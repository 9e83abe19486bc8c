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
//! parities included) a network codeword. One planner, `read_set`, serves
//! every decode: a lost chunk decodes in its row when the row lost at most
//! `p_l`, else down its own column. `reconstruct` is the read set of every
//! lost chunk, `read_degraded` that of one.

use crate::rs::{DecodePlan, ReedSolomon, PARALLEL_SEGMENT_BYTES};
use crate::EcError;
use std::collections::{BTreeMap, BTreeSet};

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

    /// Plan a degraded read of the chunks `targets` of a grid whose
    /// survivors are the `true` cells of `present`, reading as few as
    /// possible (`R_MIN`'s planning on the read path). A target comes from
    /// itself; else from `k_l` survivors of its row, if the row lost at most
    /// `p_l`; else down its column from `k_n` rows, a helper the column
    /// lacks decoded in its own row. Each decode is one plan per erasure
    /// pattern. When some target cannot be decoded, the set reads every
    /// survivor (as a store learns a stripe is dead) and decoding refuses.
    ///
    /// # Errors
    /// [`EcError::ShapeMismatch`] when `present` is not `(k_n+p_n) x
    /// (k_l+p_l)`, or a target lies outside it or is listed twice.
    pub fn read_set(
        &self,
        present: &[Vec<bool>],
        targets: &[(usize, usize)],
    ) -> Result<ReadSet, EcError> {
        let (nn, nl) = self.check_grid(present)?;
        for (n, &(j, i)) in targets.iter().enumerate() {
            if j >= nn || i >= nl || targets[..n].contains(&(j, i)) {
                return Err(EcError::ShapeMismatch(format!(
                    "chunk ({j}, {i}) is outside the {nn} x {nl} grid or listed twice"
                )));
            }
        }
        let (kn, pl) = (self.network.data_shards(), self.local.parity_shards());
        let lost = |j: usize| present[j].iter().filter(|&&p| !p).count() > pl;
        let targets = targets.to_vec();
        let mut set = ReadSet {
            targets,
            ..ReadSet::default()
        };
        // The cells each row decodes; per column, its helper rows and the
        // lost rows it decodes.
        let mut rows: BTreeMap<usize, BTreeSet<usize>> = BTreeMap::new();
        let mut columns: BTreeMap<usize, (Vec<usize>, Vec<usize>)> = BTreeMap::new();
        for &(row, col) in &set.targets {
            if present[row][col] {
                set.reads.insert((row, col));
                continue;
            }
            if !lost(row) {
                rows.entry(row).or_default().insert(col);
                set.local += 1;
                continue;
            }
            let present_at = (0..nn).filter(|&j| present[j][col]);
            let decodable = (0..nn).filter(|&j| !present[j][col] && !lost(j));
            let mut helpers: Vec<usize> = present_at.chain(decodable).take(kn).collect();
            if helpers.len() < kn {
                let cells = (0..nn).flat_map(|j| (0..nl).map(move |i| (j, i)));
                set.reads = cells.filter(|&(j, i)| present[j][i]).collect();
                let (present, needed) = (helpers.len(), kn);
                set.refused = Some(EcError::TooManyErasures { present, needed });
                return Ok(set);
            }
            helpers.sort_unstable();
            for &j in helpers.iter().filter(|&&j| !present[j][col]) {
                rows.entry(j).or_default().insert(col);
            }
            let (_, lost_rows) = columns.entry(col).or_insert((helpers, Vec::new()));
            lost_rows.push(row);
        }
        for (j, wanted) in rows {
            let survivors = (0..nl).filter(|&i| present[j][i]).take(nl - pl);
            let survivors: Vec<usize> = survivors.collect();
            set.reads.extend(survivors.iter().map(|&i| (j, i)));
            let wanted: Vec<usize> = wanted.into_iter().collect();
            let plan = plan_for(&mut set.plans[0], &self.local, &survivors, &wanted)?;
            set.steps.push((false, j, plan));
        }
        for (i, (helpers, mut lost_rows)) in columns {
            lost_rows.sort_unstable();
            set.reads
                .extend(helpers.iter().filter(|&&j| present[j][i]).map(|&j| (j, i)));
            let plan = plan_for(&mut set.plans[1], &self.network, &helpers, &lost_rows)?;
            set.steps.push((true, i, plan));
        }
        Ok(set)
    }

    /// Degraded read of the one chunk `(row, col)` of a stripe with
    /// erasures: its [`MlecCodec::read_set`], decoded. Returns `(bytes,
    /// chunks_read)`, the reads other than the chunk itself.
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
        let set = self.read_set(&present_in(stripe), &[(row, col)])?;
        let reads = set.reads().len() - usize::from(set.reads().contains(&(row, col)));
        Ok((set.decode(stripe)?.swap_remove(0), reads))
    }

    /// `(k_n + p_n, k_l + p_l)`, or the shape error if `grid` is not a
    /// grid of exactly that many slots.
    fn check_grid<T>(&self, grid: &[Vec<T>]) -> Result<(usize, usize), EcError> {
        let nn = self.network.total_shards();
        let nl = self.local.total_shards();
        if grid.len() != nn || grid.iter().any(|r| r.len() != nl) {
            return Err(EcError::ShapeMismatch(format!(
                "expected a {nn} x {nl} grid"
            )));
        }
        Ok((nn, nl))
    }

    /// Repair a stripe grid with erasures (`None` entries): the
    /// [`MlecCodec::read_set`] of every lost chunk, decoded, so a chunk
    /// comes back in its row where the row is locally recoverable and down
    /// its column otherwise. Returns `(locally_repaired, network_repaired)`
    /// chunk counts, the first [`ReadSet::local`].
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
        // Refusals come first, so a refused grid is left as found; with at
        // most `p_n` lost rows every lost chunk decodes.
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
        // Every lost chunk, data or parity, is a target of one read set.
        let present = present_in(stripe);
        let cells = (0..nn).flat_map(|j| (0..nl).map(move |i| (j, i)));
        let lost: Vec<(usize, usize)> = cells.filter(|&(j, i)| !present[j][i]).collect();
        let set = self.read_set(&present, &lost)?;
        for (&(j, i), chunk) in lost.iter().zip(set.decode(stripe)?) {
            stripe[j][i] = Some(chunk);
        }
        Ok((set.local(), lost.len() - set.local()))
    }
}

/// Which cells of `grid` hold a chunk.
fn present_in(grid: &[Vec<Option<Vec<u8>>>]) -> Vec<Vec<bool>> {
    let row = |cells: &Vec<Option<Vec<u8>>>| cells.iter().map(Option::is_some).collect();
    grid.iter().map(row).collect()
}

/// A degraded read planned by [`MlecCodec::read_set`]: the survivors it
/// fetches, and the decode that turns them into its targets.
#[derive(Default)]
pub struct ReadSet {
    reads: BTreeSet<(usize, usize)>,
    targets: Vec<(usize, usize)>,
    /// How many targets decode inside their own row.
    local: usize,
    /// Why some target cannot be decoded.
    refused: Option<EcError>,
    /// `(down a column?, row or column, plan)`, the row decodes first: a
    /// column decode may take their outputs as helpers.
    steps: Vec<(bool, usize, usize)>,
    /// The local plans, then the network plans, that the steps index.
    plans: [Vec<DecodePlan>; 2],
}

impl ReadSet {
    /// The survivor cells to fetch, in ascending `(row, col)` order.
    pub fn reads(&self) -> &BTreeSet<(usize, usize)> {
        &self.reads
    }

    /// How many targets a set that decodes produces inside their own row,
    /// from `k_l` survivors of it: the local repairs. Every other absent
    /// target goes down its column, a network repair.
    pub fn local(&self) -> usize {
        self.local
    }

    /// The targets' bytes, in target order, from a grid holding at least
    /// the cells of [`ReadSet::reads`].
    ///
    /// # Errors
    /// [`EcError::TooManyErasures`] when some target cannot be decoded or
    /// the grid lacks a planned read; [`EcError::ShapeMismatch`] for planned
    /// reads of different lengths.
    pub fn decode(&self, grid: &[Vec<Option<Vec<u8>>>]) -> Result<Vec<Vec<u8>>, EcError> {
        if let Some(refusal) = &self.refused {
            return Err(refusal.clone());
        }
        let read = |(j, i): (usize, usize)| grid.get(j).and_then(|row| row.get(i)?.as_deref());
        let fetched: Vec<&[u8]> = self.reads.iter().filter_map(|&cell| read(cell)).collect();
        let (present, needed) = (fetched.len(), self.reads.len());
        if present < needed {
            return Err(EcError::TooManyErasures { present, needed });
        }
        if fetched.iter().any(|c| c.len() != fetched[0].len()) {
            return Err(EcError::ShapeMismatch("reads differ in length".into()));
        }
        let mut decoded: BTreeMap<(usize, usize), Vec<u8>> = BTreeMap::new();
        for &(down, line, plan) in &self.steps {
            let plan = &self.plans[usize::from(down)][plan];
            let cell = |k: usize| if down { (k, line) } else { (line, k) };
            let input = |&k: &usize| match decoded.get(&cell(k)) {
                Some(bytes) => bytes.as_slice(),
                None => read(cell(k)).unwrap_or_default(),
            };
            let outputs = plan.decode(&plan.survivors.iter().map(input).collect::<Vec<_>>());
            decoded.extend(plan.targets.iter().map(|&k| cell(k)).zip(outputs));
        }
        let target = |&cell: &(usize, usize)| match decoded.remove(&cell) {
            Some(bytes) => bytes,
            None => read(cell).unwrap_or_default().to_vec(),
        };
        Ok(self.targets.iter().map(target).collect())
    }
}

/// Index in `plans` of the plan decoding `targets` from the first `k` of
/// `survivors`, slots of one row or column, built the first time that
/// pattern turns up.
fn plan_for(
    plans: &mut Vec<DecodePlan>,
    code: &ReedSolomon,
    survivors: &[usize],
    targets: &[usize],
) -> Result<usize, EcError> {
    let known = |p: &DecodePlan| p.targets == targets && survivors.starts_with(&p.survivors);
    if let Some(index) = plans.iter().position(known) {
        return Ok(index);
    }
    let generator = &code.generator;
    plans.push(DecodePlan::new(generator, survivors, targets.to_vec())?);
    Ok(plans.len() - 1)
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
