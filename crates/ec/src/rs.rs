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

use crate::EcError;
use mlec_gf::field::{gf_div, gf_inv};
use mlec_gf::matrix::Matrix;
use mlec_gf::slice::{dot_into, mul_add_slice};

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
    generator: Matrix,
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
        Ok(ReedSolomon { k, p, generator })
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

    /// Borrow the parity block (`p x k`) rows of the generator matrix.
    pub fn parity_row(&self, parity_index: usize) -> &[u8] {
        assert!(parity_index < self.p, "parity index out of range");
        self.generator.row(self.k + parity_index)
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
        let mut shards: Vec<Vec<u8>> = data.iter().map(|d| d.as_ref().to_vec()).collect();
        let refs: Vec<&[u8]> = data.iter().map(std::convert::AsRef::as_ref).collect();
        for pi in 0..self.p {
            let mut parity = vec![0u8; len];
            dot_into(self.parity_row(pi), &refs, &mut parity);
            shards.push(parity);
        }
        Ok(shards)
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
        // Regroup the parity buffers into per-segment bundles: segment
        // `si` owns bytes `si * seg_bytes ..` of every parity buffer.
        let mut per_seg: Vec<Vec<&mut [u8]>> = (0..len.div_ceil(seg_bytes))
            .map(|_| Vec::with_capacity(self.p))
            .collect();
        for buf in parity.iter_mut() {
            for (si, seg) in buf.chunks_mut(seg_bytes).enumerate() {
                per_seg[si].push(seg);
            }
        }
        // Static round-robin assignment: worker `w` owns segments
        // `w, w + workers, …` — disjoint buffers, no locking.
        let mut assignments: Vec<SegmentWork> = (0..workers).map(|_| Vec::new()).collect();
        for (si, segs) in per_seg.into_iter().enumerate() {
            assignments[si % workers].push((si * seg_bytes, segs));
        }
        let encode_segments = |mine: SegmentWork| {
            for (start, mut segs) in mine {
                let seg_len = segs[0].len();
                let seg_refs: Vec<&[u8]> =
                    refs.iter().map(|d| &d[start..start + seg_len]).collect();
                for (pi, seg) in segs.iter_mut().enumerate() {
                    dot_into(self.generator.row(self.k + pi), &seg_refs, seg);
                }
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
        let data = &shards[..self.k];
        let len = self.check_data_shape(data)?;
        let refs: Vec<&[u8]> = data.iter().map(std::vec::Vec::as_slice).collect();
        let mut scratch = vec![0u8; len];
        for pi in 0..self.p {
            dot_into(self.parity_row(pi), &refs, &mut scratch);
            if scratch != shards[self.k + pi] {
                return Ok(false);
            }
        }
        Ok(true)
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
        let present: Vec<usize> = (0..shards.len()).filter(|&i| shards[i].is_some()).collect();
        if present.len() < self.k {
            return Err(EcError::TooManyErasures {
                present: present.len(),
                needed: self.k,
            });
        }
        if present.len() == shards.len() {
            return Ok(());
        }
        let len = shards[present[0]].as_ref().unwrap().len();
        if present
            .iter()
            .any(|&i| shards[i].as_ref().unwrap().len() != len)
        {
            return Err(EcError::ShapeMismatch(
                "surviving shards differ in length".into(),
            ));
        }

        // Decode matrix: rows of G for the first k surviving shards.
        let rows: Vec<usize> = present.iter().copied().take(self.k).collect();
        let sub = self.generator.select_rows(&rows);
        let inv = sub
            .invert()
            .expect("any k rows of an MDS generator are independent");

        // data_j = sum_i inv[j][i] * surviving_i  — computed shard-wise so we
        // only materialize the data shards that are actually missing, then
        // re-encode the missing parities.
        let surviving: Vec<&[u8]> = rows
            .iter()
            .map(|&i| shards[i].as_deref().unwrap())
            .collect();

        let missing_data: Vec<usize> = (0..self.k).filter(|&i| shards[i].is_none()).collect();
        let mut rebuilt_data: Vec<(usize, Vec<u8>)> = Vec::with_capacity(missing_data.len());
        for &d in &missing_data {
            let mut out = vec![0u8; len];
            dot_into(inv.row(d), &surviving, &mut out);
            rebuilt_data.push((d, out));
        }
        for (d, buf) in rebuilt_data {
            shards[d] = Some(buf);
        }

        // All data shards are now present; rebuild any missing parity.
        let missing_parity: Vec<usize> = (self.k..self.total_shards())
            .filter(|&i| shards[i].is_none())
            .collect();
        let mut rebuilt_parity: Vec<(usize, Vec<u8>)> = Vec::with_capacity(missing_parity.len());
        {
            let data_refs: Vec<&[u8]> = (0..self.k)
                .map(|i| shards[i].as_deref().expect("data rebuilt above"))
                .collect();
            for &pi in &missing_parity {
                let mut out = vec![0u8; len];
                dot_into(self.generator.row(pi), &data_refs, &mut out);
                rebuilt_parity.push((pi, out));
            }
        }
        for (pi, buf) in rebuilt_parity {
            shards[pi] = Some(buf);
        }
        Ok(())
    }

    /// Decode with an explicit helper set: reconstruct shard `target` using
    /// exactly the shards listed in `helpers` (must contain at least `k`
    /// live shards). Returns the rebuilt shard. This models repair methods
    /// that choose *which* chunks to read (e.g. `R_MIN`'s stage 1).
    pub fn reconstruct_one(
        &self,
        shards: &[Option<Vec<u8>>],
        target: usize,
        helpers: &[usize],
    ) -> Result<Vec<u8>, EcError> {
        if helpers.len() < self.k {
            return Err(EcError::TooManyErasures {
                present: helpers.len(),
                needed: self.k,
            });
        }
        let rows: Vec<usize> = helpers.iter().copied().take(self.k).collect();
        if rows.iter().any(|&h| shards[h].is_none()) {
            return Err(EcError::ShapeMismatch("helper shard is missing".into()));
        }
        let sub = self.generator.select_rows(&rows);
        let inv = sub
            .invert()
            .expect("any k rows of an MDS generator are independent");
        // Row of G for the target, composed with the inverse, gives the
        // coefficients applying directly to the helper shards.
        let target_row = self.generator.row(target).to_vec();
        let len = shards[rows[0]].as_ref().unwrap().len();
        let mut out = vec![0u8; len];
        for (hi, &h) in rows.iter().enumerate() {
            // coeff = sum_j target_row[j] * inv[j][hi]
            let mut coeff = 0u8;
            for (j, &t) in target_row.iter().enumerate() {
                coeff ^= mlec_gf::field::gf_mul(t, inv.get(j, hi));
            }
            mul_add_slice(coeff, shards[h].as_deref().unwrap(), &mut out);
        }
        Ok(out)
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
    fn reconstruct_one_with_chosen_helpers() {
        let rs = ReedSolomon::new(4, 3).unwrap();
        let data = sample_data(4, 24);
        let encoded = rs.encode(&data).unwrap();
        let shards: Vec<Option<Vec<u8>>> = encoded.iter().cloned().map(Some).collect();
        // Rebuild data shard 2 from shards {0, 4, 5, 6} (one data, three parity).
        let rebuilt = rs.reconstruct_one(&shards, 2, &[0, 4, 5, 6]).unwrap();
        assert_eq!(rebuilt, encoded[2]);
        // Rebuild parity shard 5 from the data shards.
        let rebuilt = rs.reconstruct_one(&shards, 5, &[0, 1, 2, 3]).unwrap();
        assert_eq!(rebuilt, encoded[5]);
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
