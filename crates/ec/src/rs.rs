//! Systematic Reed–Solomon codes over GF(2^8).
//!
//! Construction: the generator is `G = [I_k; C]` where `C` is a `p x k`
//! *column-normalized Cauchy matrix*: `C[i][j] = 1/(x_i + y_j)` over distinct
//! points `y_j = j`, `x_i = k + i`, with each column scaled so the first
//! parity row is all ones. Every square submatrix of a Cauchy matrix is
//! nonsingular, and column scaling preserves that, so any `k` rows of `G`
//! are linearly independent (the MDS property). The all-ones first parity
//! row makes the `p = 1` code exactly RAID-5 XOR parity — which is also what
//! gives the MLEC grid its both-ways parity consistency for XOR levels.
//!
//! Every product here is one `mlec_gf::slice::dot_many_into`: all outputs
//! from one pass over the inputs. Encode and verify use the parity block's
//! tables, built once in `new`. Decoding is one linear map per erasure
//! pattern, a `DecodePlan`: it inverts the `k x k` submatrix of `k`
//! survivors once and composes `G[targets] · inv`. Every missing shard,
//! data or parity, then comes from one pass over the same `k` survivors.
//! `reconstruct` and the single-shard repair are each a plan and one pass.

use crate::EcError;
use mlec_gf::field::{gf_div, gf_inv};
use mlec_gf::matrix::Matrix;
use mlec_gf::slice::{dot_many_into, dot_tables, NibbleTable};
use std::borrow::BorrowMut;

/// Segment size of the multi-worker schedule of
/// [`ReedSolomon::encode_into_parallel`]. 64 KiB keeps a segment's working
/// set (`k` data segments + `p` parity segments) around L2 size for
/// paper-scale stripes while leaving enough segments to spread a 128 KiB+
/// chunk across cores.
pub const PARALLEL_SEGMENT_BYTES: usize = 64 * 1024;

/// A systematic `(k + p)` Reed–Solomon codec.
///
/// Shards `0..k` are data, shards `k..k+p` are parity. Any `k` of the
/// `k + p` shards suffice to reconstruct everything.
#[derive(Clone)]
pub struct ReedSolomon {
    k: usize,
    p: usize,
    /// Full `(k+p) x k` generator matrix, top block = identity.
    pub(crate) generator: Matrix,
    /// Split tables of the `p x k` parity block.
    parity_tables: Vec<NibbleTable>,
}

impl ReedSolomon {
    /// Create a codec with `k` data and `p` parity shards.
    ///
    /// # Errors
    /// Returns [`EcError::InvalidParameters`] if `k == 0`, `p == 0`, or
    /// `k + p > 256` (the field size bounds the stripe width).
    pub fn new(k: usize, p: usize) -> Result<ReedSolomon, EcError> {
        if k == 0 || p == 0 {
            return Err(EcError::InvalidParameters(
                "k and p must both be positive".into(),
            ));
        }
        if k + p > 256 {
            return Err(EcError::InvalidParameters(format!(
                "k + p = {} exceeds the GF(2^8) stripe-width limit of 256",
                k + p
            )));
        }
        // Parity block: Cauchy over x_i = k+i (rows) and y_j = j (columns),
        // column-normalized so parity row 0 is all ones (XOR).
        let mut parity = Matrix::zero(p, k);
        for j in 0..k {
            let row0 = gf_inv((k as u8) ^ (j as u8));
            for i in 0..p {
                let c = gf_inv(((k + i) as u8) ^ (j as u8));
                parity.set(i, j, gf_div(c, row0));
            }
        }
        let generator = Matrix::identity(k).stack(&parity);
        let parity_tables = Self::tables_of(&generator, k..k + p);
        Ok(ReedSolomon {
            k,
            p,
            generator,
            parity_tables,
        })
    }

    /// Split tables of the listed rows of `matrix`, one output per row.
    fn tables_of(matrix: &Matrix, rows: impl IntoIterator<Item = usize>) -> Vec<NibbleTable> {
        let rows: Vec<&[u8]> = rows.into_iter().map(|r| matrix.row(r)).collect();
        dot_tables(&rows)
    }

    /// Number of data shards.
    pub fn data_shards(&self) -> usize {
        self.k
    }

    /// Number of parity shards.
    pub fn parity_shards(&self) -> usize {
        self.p
    }

    /// Total shards (`k + p`).
    pub fn total_shards(&self) -> usize {
        self.k + self.p
    }

    fn check_data_shape<T: AsRef<[u8]>>(&self, data: &[T]) -> Result<usize, EcError> {
        if data.len() != self.k {
            return Err(EcError::ShapeMismatch(format!(
                "expected {} data shards, got {}",
                self.k,
                data.len()
            )));
        }
        let len = data[0].as_ref().len();
        if data.iter().any(|d| d.as_ref().len() != len) {
            return Err(EcError::ShapeMismatch(
                "data shards differ in length".into(),
            ));
        }
        Ok(len)
    }

    fn check_parity_shape(&self, parity: &[Vec<u8>], len: usize) -> Result<(), EcError> {
        if parity.len() != self.p {
            return Err(EcError::ShapeMismatch(format!(
                "expected {} parity buffers, got {}",
                self.p,
                parity.len()
            )));
        }
        if parity.iter().any(|b| b.len() != len) {
            return Err(EcError::ShapeMismatch(
                "parity buffer length mismatch".into(),
            ));
        }
        Ok(())
    }

    /// Encode `k` data shards into `k + p` shards (data copied through,
    /// parities computed).
    pub fn encode<T: AsRef<[u8]>>(&self, data: &[T]) -> Result<Vec<Vec<u8>>, EcError> {
        let len = self.check_data_shape(data)?;
        let mut parity = vec![vec![0u8; len]; self.p];
        self.encode_into(data, &mut parity)?;
        let mut shards: Vec<Vec<u8>> = data.iter().map(|d| d.as_ref().to_vec()).collect();
        shards.append(&mut parity);
        Ok(shards)
    }

    /// All `p` parities of `data` into `parity` (overwritten), one pass over
    /// the data: the slice-level encoder under every method here and under
    /// [`crate::MlecCodec`]'s segment walk. Panics unless `data` is `k` and
    /// `parity` is `p` slices of one length.
    pub(crate) fn encode_slices(&self, data: &[&[u8]], parity: &mut [&mut [u8]]) {
        dot_many_into(&self.parity_tables, data, parity);
    }

    /// Compute parities into caller-provided buffers without allocating —
    /// the hot path measured by the Fig. 11 throughput experiment. This is
    /// the one-worker schedule of [`ReedSolomon::encode_into_parallel`].
    ///
    /// # Errors
    /// Shape errors if `data` or `parity` counts/lengths are inconsistent.
    pub fn encode_into<T: AsRef<[u8]>>(
        &self,
        data: &[T],
        parity: &mut [Vec<u8>],
    ) -> Result<(), EcError> {
        self.encode_into_parallel(data, parity, 1)
    }

    /// [`ReedSolomon::encode_into`] on up to `threads` workers: the stripe
    /// is cut into segments, dealt round-robin to the workers, and each
    /// worker computes all `p` parities for its byte ranges.
    ///
    /// One worker (`threads <= 1`, or a stripe of at most one
    /// [`PARALLEL_SEGMENT_BYTES`] segment) takes the whole stripe as a
    /// single segment on the calling thread — no thread is ever spawned for
    /// work that cannot split. More workers split at fixed
    /// [`PARALLEL_SEGMENT_BYTES`] boundaries and run on scoped threads.
    /// Every parity byte depends only on the same byte position of the data
    /// shards and GF arithmetic is exact, so the output is **bit-identical**
    /// for every thread count.
    ///
    /// # Errors
    /// Shape errors if `data` or `parity` counts/lengths are inconsistent.
    pub fn encode_into_parallel<T: AsRef<[u8]>>(
        &self,
        data: &[T],
        parity: &mut [Vec<u8>],
        threads: usize,
    ) -> Result<(), EcError> {
        // Per-worker work list: (segment start, that segment's slice of
        // every parity buffer).
        type SegmentWork<'a> = Vec<(usize, Vec<&'a mut [u8]>)>;
        let len = self.check_data_shape(data)?;
        self.check_parity_shape(parity, len)?;
        let refs: Vec<&[u8]> = data.iter().map(std::convert::AsRef::as_ref).collect();
        let workers = threads.clamp(1, len.div_ceil(PARALLEL_SEGMENT_BYTES).max(1));
        let seg_bytes = if workers == 1 {
            len.max(1)
        } else {
            PARALLEL_SEGMENT_BYTES
        };
        // Segment `si` owns bytes `si * seg_bytes ..` of every parity buffer,
        // worker `w` owns segments `w, w + workers, …` — disjoint buffers,
        // no locking.
        let mut steps: Vec<_> = parity.iter_mut().map(|b| b.chunks_mut(seg_bytes)).collect();
        let mut assignments: Vec<SegmentWork> = (0..workers).map(|_| Vec::new()).collect();
        for (si, start) in (0..len).step_by(seg_bytes).enumerate() {
            let segs = steps.iter_mut().filter_map(Iterator::next).collect();
            assignments[si % workers].push((start, segs));
        }
        let encode_segments = |mine: SegmentWork| {
            for (start, mut segs) in mine {
                let seg_len = segs[0].len();
                let seg_refs: Vec<&[u8]> =
                    refs.iter().map(|d| &d[start..start + seg_len]).collect();
                self.encode_slices(&seg_refs, &mut segs);
            }
        };
        if workers == 1 {
            assignments.into_iter().for_each(encode_segments);
        } else {
            std::thread::scope(|scope| {
                for mine in assignments {
                    let encode_segments = &encode_segments;
                    scope.spawn(move || encode_segments(mine));
                }
            });
        }
        Ok(())
    }

    /// Verify that the parity shards are consistent with the data shards.
    pub fn verify(&self, shards: &[Vec<u8>]) -> Result<bool, EcError> {
        if shards.len() != self.total_shards() {
            return Err(EcError::ShapeMismatch(format!(
                "expected {} shards, got {}",
                self.total_shards(),
                shards.len()
            )));
        }
        let (data, parity) = shards.split_at(self.k);
        let len = self.check_data_shape(data)?;
        let mut expected = vec![vec![0u8; len]; self.p];
        self.encode_into(data, &mut expected)?;
        Ok(expected == parity)
    }

    /// Reconstruct all missing shards in place. `shards[i] == None` marks an
    /// erasure; on success every slot is `Some`.
    ///
    /// # Errors
    /// [`EcError::TooManyErasures`] if fewer than `k` shards survive.
    pub fn reconstruct(&self, shards: &mut [Option<Vec<u8>>]) -> Result<(), EcError> {
        if shards.len() != self.total_shards() {
            return Err(EcError::ShapeMismatch(format!(
                "expected {} shard slots, got {}",
                self.total_shards(),
                shards.len()
            )));
        }
        let (survivors, absent): (Vec<usize>, Vec<usize>) =
            (0..shards.len()).partition(|&i| shards[i].is_some());
        if absent.is_empty() {
            return Ok(());
        }
        let plan = DecodePlan::new(&self.generator, &survivors, absent)?;
        let mut survivors = shards.iter().flatten();
        let len = survivors.next().map_or(0, Vec::len);
        if survivors.any(|s| s.len() != len) {
            return Err(EcError::ShapeMismatch(
                "surviving shards differ in length".into(),
            ));
        }
        plan.fill(shards);
        Ok(())
    }
}

/// One erasure pattern's decoder: the `targets` as one linear map of `k`
/// `survivors`, the split tables of `G[targets] · inv(G[survivors])`. Every
/// target, data or parity, comes from one [`dot_many_into`] pass over the
/// same `k` inputs, into a buffer allocated once and written once. It
/// decodes for [`ReedSolomon`], [`crate::MlecCodec`] and [`crate::Lrc`].
pub(crate) struct DecodePlan {
    /// The `k` shards the plan reads, in the order it takes their bytes.
    pub(crate) survivors: Vec<usize>,
    /// The shards it produces, in the order it returns them.
    pub(crate) targets: Vec<usize>,
    tables: Vec<NibbleTable>,
}

impl DecodePlan {
    /// The plan producing `targets` from the first `k` of `survivors`, for
    /// the code whose `n x k` generator is `generator`. The survivors are
    /// shards of the stripe whose rows are independent: any distinct ones of
    /// a Reed–Solomon code, ones chosen by rank for an LRC.
    ///
    /// # Errors
    /// [`EcError::TooManyErasures`] for fewer than `k` survivors.
    ///
    /// # Panics
    /// If a target is outside the stripe, or the first `k` survivors are
    /// not independent (one listed twice, say). Every caller passes distinct
    /// in-range shards.
    pub(crate) fn new(
        generator: &Matrix,
        survivors: &[usize],
        targets: Vec<usize>,
    ) -> Result<DecodePlan, EcError> {
        let k = generator.cols();
        if survivors.len() < k {
            return Err(EcError::TooManyErasures {
                present: survivors.len(),
                needed: k,
            });
        }
        let survivors = survivors[..k].to_vec();
        let inv = generator
            .select_rows(&survivors)
            .invert()
            .expect("callers pick survivors with independent rows");
        let composed = generator.select_rows(&targets).mul(&inv);
        let tables = ReedSolomon::tables_of(&composed, 0..targets.len());
        Ok(DecodePlan {
            survivors,
            targets,
            tables,
        })
    }

    /// Every target from the survivors' bytes, given in `survivors` order.
    /// Panics unless they are `k` slices of one length.
    pub(crate) fn decode(&self, inputs: &[&[u8]]) -> Vec<Vec<u8>> {
        let len = inputs.first().map_or(0, |s| s.len());
        let mut outs: Vec<Vec<u8>> = self.targets.iter().map(|_| vec![0u8; len]).collect();
        let mut views: Vec<&mut [u8]> = outs.iter_mut().map(Vec::as_mut_slice).collect();
        dot_many_into(&self.tables, inputs, &mut views);
        outs
    }

    /// Decode the targets among `slots` (a stripe's own, or references
    /// gathered from a grid) from the survivors there. Panics unless every
    /// survivor's slot holds a shard, all of one length.
    pub(crate) fn fill<S: BorrowMut<Option<Vec<u8>>>>(&self, slots: &mut [S]) {
        let read = |&s: &usize| {
            let slot: &Option<Vec<u8>> = slots[s].borrow();
            slot.as_deref().expect("a plan reads present shards")
        };
        let outs = self.decode(&self.survivors.iter().map(read).collect::<Vec<_>>());
        for (&t, out) in self.targets.iter().zip(outs) {
            *slots[t].borrow_mut() = Some(out);
        }
    }
}

impl std::fmt::Debug for ReedSolomon {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ReedSolomon({}+{})", self.k, self.p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_data(k: usize, len: usize) -> Vec<Vec<u8>> {
        (0..k)
            .map(|s| {
                (0..len)
                    .map(|i| ((s * 131 + i * 7 + 3) % 256) as u8)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn rejects_bad_parameters() {
        assert!(ReedSolomon::new(0, 2).is_err());
        assert!(ReedSolomon::new(3, 0).is_err());
        assert!(ReedSolomon::new(200, 57).is_err());
        assert!(ReedSolomon::new(200, 56).is_ok());
    }

    #[test]
    fn encode_is_systematic() {
        let rs = ReedSolomon::new(5, 3).unwrap();
        let data = sample_data(5, 32);
        let shards = rs.encode(&data).unwrap();
        assert_eq!(shards.len(), 8);
        for i in 0..5 {
            assert_eq!(shards[i], data[i]);
        }
    }

    #[test]
    fn verify_detects_corruption() {
        let rs = ReedSolomon::new(4, 2).unwrap();
        let mut shards = rs.encode(&sample_data(4, 16)).unwrap();
        assert!(rs.verify(&shards).unwrap());
        shards[5][3] ^= 1;
        assert!(!rs.verify(&shards).unwrap());
    }

    #[test]
    fn reconstructs_any_p_erasures() {
        let k = 5;
        let p = 3;
        let rs = ReedSolomon::new(k, p).unwrap();
        let data = sample_data(k, 20);
        let encoded = rs.encode(&data).unwrap();
        let n = k + p;
        // All erasure patterns of size <= p.
        for mask in 0u32..(1 << n) {
            if (mask.count_ones() as usize) > p {
                continue;
            }
            let mut shards: Vec<Option<Vec<u8>>> = encoded.iter().cloned().map(Some).collect();
            for (i, shard) in shards.iter_mut().enumerate() {
                if mask & (1 << i) != 0 {
                    *shard = None;
                }
            }
            rs.reconstruct(&mut shards).unwrap();
            for i in 0..n {
                assert_eq!(
                    shards[i].as_ref().unwrap(),
                    &encoded[i],
                    "mask={mask:b} i={i}"
                );
            }
        }
    }

    #[test]
    fn too_many_erasures_is_reported() {
        let rs = ReedSolomon::new(3, 2).unwrap();
        let encoded = rs.encode(&sample_data(3, 8)).unwrap();
        let mut shards: Vec<Option<Vec<u8>>> = encoded.into_iter().map(Some).collect();
        shards[0] = None;
        shards[1] = None;
        shards[3] = None;
        let err = rs.reconstruct(&mut shards).unwrap_err();
        assert_eq!(
            err,
            EcError::TooManyErasures {
                present: 2,
                needed: 3
            }
        );
    }

    #[test]
    fn encode_into_matches_encode() {
        let rs = ReedSolomon::new(6, 2).unwrap();
        let data = sample_data(6, 48);
        let full = rs.encode(&data).unwrap();
        let mut parity = vec![vec![0u8; 48]; 2];
        rs.encode_into(&data, &mut parity).unwrap();
        assert_eq!(parity[0], full[6]);
        assert_eq!(parity[1], full[7]);
    }

    /// FNV-1a over the concatenated buffers. Serial and parallel encode are
    /// one body, so its bytes are pinned absolutely rather than one
    /// schedule against another.
    fn fnv1a(bufs: &[Vec<u8>]) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &b in bufs.iter().flatten() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    #[test]
    fn encode_into_golden_for_every_thread_count() {
        // (6+3) parity of `sample_data` at lengths straddling the segment
        // size (one byte short, exact, one byte over, several segments with
        // a ragged tail). The goldens were recorded from a plain
        // per-parity `dot_into` loop over the whole stripe, so they do not
        // depend on the segmenting under test.
        const SEG: usize = PARALLEL_SEGMENT_BYTES;
        let goldens = [
            (100usize, 0xab6c_0a7a_6bf4_a603u64),
            (SEG - 1, 0x1cb5_797d_70c8_7666),
            (SEG, 0xde27_c7b2_501a_4f25),
            (SEG + 1, 0x0575_ebc4_db27_4724),
            (3 * SEG + 12_345, 0x58ff_52a0_f4bd_2c83),
        ];
        let rs = ReedSolomon::new(6, 3).unwrap();
        for (len, golden) in goldens {
            let data = sample_data(6, len);
            let mut serial = vec![vec![0xffu8; len]; 3];
            rs.encode_into(&data, &mut serial).unwrap();
            assert_eq!(fnv1a(&serial), golden, "encode_into len={len}");
            for threads in [0usize, 1, 2, 3, 8] {
                let mut parallel = vec![vec![0xffu8; len]; 3];
                rs.encode_into_parallel(&data, &mut parallel, threads)
                    .unwrap();
                assert_eq!(fnv1a(&parallel), golden, "len={len} threads={threads}");
            }
        }
    }

    #[test]
    fn encode_into_parallel_shape_errors() {
        let rs = ReedSolomon::new(3, 2).unwrap();
        let data = sample_data(3, 16);
        let mut wrong_count = vec![vec![0u8; 16]];
        assert!(rs.encode_into_parallel(&data, &mut wrong_count, 4).is_err());
        let mut wrong_len = vec![vec![0u8; 16], vec![0u8; 15]];
        assert!(rs.encode_into_parallel(&data, &mut wrong_len, 4).is_err());
    }

    #[test]
    fn xor_parity_matches_plain_xor_for_p1() {
        // With p = 1, RS degenerates to XOR parity (coefficients all 1).
        let rs = ReedSolomon::new(4, 1).unwrap();
        let data = sample_data(4, 10);
        let shards = rs.encode(&data).unwrap();
        for i in 0..10 {
            let x = data[0][i] ^ data[1][i] ^ data[2][i] ^ data[3][i];
            assert_eq!(shards[4][i], x);
        }
    }

    #[test]
    fn wide_stripe_still_mds() {
        // The paper's local code is (17+3); also check a wide (50+15).
        for (k, p) in [(17usize, 3usize), (50, 15)] {
            let rs = ReedSolomon::new(k, p).unwrap();
            let data = sample_data(k, 8);
            let encoded = rs.encode(&data).unwrap();
            let mut shards: Vec<Option<Vec<u8>>> = encoded.iter().cloned().map(Some).collect();
            for i in 0..p {
                shards[i * 2] = None; // erase p spread-out shards
            }
            rs.reconstruct(&mut shards).unwrap();
            for i in 0..(k + p) {
                assert_eq!(shards[i].as_ref().unwrap(), &encoded[i]);
            }
        }
    }

    #[test]
    fn empty_shards_round_trip() {
        let rs = ReedSolomon::new(3, 2).unwrap();
        let data = vec![vec![], vec![], vec![]];
        let encoded = rs.encode(&data).unwrap();
        assert!(encoded.iter().all(std::vec::Vec::is_empty));
        let mut shards: Vec<Option<Vec<u8>>> = encoded.into_iter().map(Some).collect();
        shards[1] = None;
        rs.reconstruct(&mut shards).unwrap();
        assert_eq!(shards[1].as_deref(), Some(&[][..]));
    }
}
