//! Azure-style `(k, l, r)` Locally Repairable Codes (paper §5.2, Fig. 14).
//!
//! The `k` data chunks are split into `l` local groups; each group gets one
//! XOR local parity (cheap single-failure repair reads only the group), and
//! `r` Reed–Solomon global parities are computed over all `k` data chunks.
//!
//! Chunk index layout: `[0, k)` data, `[k, k+l)` local parities,
//! `[k+l, k+l+r)` global parities.
//!
//! Decodability of an erasure pattern is decided *exactly* by a rank test on
//! the surviving rows of the generator matrix (memoized, since the burst
//! analysis evaluates millions of patterns). This captures both the
//! guaranteed patterns (any `r+1` failures with at most one per group are
//! always recoverable) and the probabilistic ones the paper's PDL analysis
//! relies on.

use crate::rs::DecodePlan;
use crate::EcError;
use mlec_gf::field::gf_inv;
use mlec_gf::matrix::Matrix;
use mlec_gf::slice::dot_into;
use std::collections::BTreeMap;
use std::sync::Mutex;

/// A `(k, l, r)` LRC codec with exact decodability testing.
pub struct Lrc {
    k: usize,
    l: usize,
    r: usize,
    /// `n x k` generator matrix (`n = k + l + r`).
    generator: Matrix,
    /// Data-chunk indices of each local group.
    groups: Vec<Vec<usize>>,
    /// Memoized decodability verdicts keyed by erasure bitmask words.
    memo: Mutex<BTreeMap<Vec<u64>, bool>>,
}

impl Clone for Lrc {
    fn clone(&self) -> Lrc {
        Lrc {
            k: self.k,
            l: self.l,
            r: self.r,
            generator: self.generator.clone(),
            groups: self.groups.clone(),
            memo: Mutex::new(BTreeMap::new()),
        }
    }
}

impl Lrc {
    /// Create a `(k, l, r)` LRC. `k` need not be divisible by `l`; groups
    /// are balanced to within one chunk.
    ///
    /// # Errors
    /// [`EcError::InvalidParameters`] if any parameter is zero, `l > k`, or
    /// the total width `k + l + r` exceeds 256.
    pub fn new(k: usize, l: usize, r: usize) -> Result<Lrc, EcError> {
        if k == 0 || l == 0 || r == 0 {
            return Err(EcError::InvalidParameters(
                "k, l, r must all be positive".into(),
            ));
        }
        if l > k {
            return Err(EcError::InvalidParameters(format!(
                "cannot split {k} data chunks into {l} local groups"
            )));
        }
        if k + l + r > 256 {
            return Err(EcError::InvalidParameters(format!(
                "total width {} exceeds 256",
                k + l + r
            )));
        }

        // Balanced group assignment: first (k % l) groups get one extra.
        let base = k / l;
        let extra = k % l;
        let mut groups = Vec::with_capacity(l);
        let mut next = 0;
        for g in 0..l {
            let size = base + usize::from(g < extra);
            groups.push((next..next + size).collect::<Vec<_>>());
            next += size;
        }

        let mut generator = Matrix::identity(k);
        // Local parity rows: XOR of the group's data chunks.
        let mut local = Matrix::zero(l, k);
        for (g, members) in groups.iter().enumerate() {
            for &m in members {
                local.set(g, m, 1);
            }
        }
        generator = generator.stack(&local);
        // Global parity rows: *non-normalized* Cauchy rows over points
        // disjoint from the data columns. (A normalized construction would
        // make the first global row all ones — linearly dependent on the sum
        // of the XOR local-parity rows, destroying recoverability of
        // concentrated failures.)
        let mut global = Matrix::zero(r, k);
        for gi in 0..r {
            for j in 0..k {
                global.set(gi, j, gf_inv(((k + gi) as u8) ^ (j as u8)));
            }
        }
        generator = generator.stack(&global);

        Ok(Lrc {
            k,
            l,
            r,
            generator,
            groups,
            memo: Mutex::new(BTreeMap::new()),
        })
    }

    /// Number of data chunks.
    pub fn data_chunks(&self) -> usize {
        self.k
    }

    /// Total chunks per stripe (`k + l + r`).
    pub fn total_chunks(&self) -> usize {
        self.k + self.l + self.r
    }

    /// Storage overhead: parity bytes / data bytes.
    pub fn parity_overhead(&self) -> f64 {
        (self.l + self.r) as f64 / self.k as f64
    }

    /// The local group that chunk `idx` belongs to, or `None` for global
    /// parities.
    pub fn group_of(&self, idx: usize) -> Option<usize> {
        if idx < self.k {
            self.groups.iter().position(|g| g.contains(&idx))
        } else if idx < self.k + self.l {
            Some(idx - self.k)
        } else {
            None
        }
    }

    /// Chunks read to repair a *single* failed chunk: group repair for data
    /// and local parities (group size), global decode (`k` chunks) for a
    /// global parity. This is the §5.2.4 repair-traffic primitive.
    pub fn single_repair_cost(&self, idx: usize) -> usize {
        match self.group_of(idx) {
            Some(g) => self.groups[g].len(),
            None => self.k,
        }
    }

    /// Encode `k` data chunks into `k + l + r` chunks.
    pub fn encode<T: AsRef<[u8]>>(&self, data: &[T]) -> Result<Vec<Vec<u8>>, EcError> {
        if data.len() != self.k {
            return Err(EcError::ShapeMismatch(format!(
                "expected {} data chunks, got {}",
                self.k,
                data.len()
            )));
        }
        let len = data[0].as_ref().len();
        if data.iter().any(|d| d.as_ref().len() != len) {
            return Err(EcError::ShapeMismatch(
                "data chunks differ in length".into(),
            ));
        }
        let refs: Vec<&[u8]> = data.iter().map(std::convert::AsRef::as_ref).collect();
        let mut out: Vec<Vec<u8>> = data.iter().map(|d| d.as_ref().to_vec()).collect();
        for row in self.k..self.total_chunks() {
            let mut chunk = vec![0u8; len];
            dot_into(self.generator.row(row), &refs, &mut chunk);
            out.push(chunk);
        }
        Ok(out)
    }

    /// Exact decodability test: can the data be recovered when exactly the
    /// chunks flagged in `erased` are lost?
    ///
    /// # Panics
    /// Panics if `erased.len() != self.total_chunks()`.
    pub fn decodable(&self, erased: &[bool]) -> bool {
        assert_eq!(erased.len(), self.total_chunks(), "erasure mask length");
        let words = mask_words(erased);
        if let Some(&v) = self.memo.lock().unwrap().get(&words) {
            return v;
        }
        let surviving: Vec<usize> = (0..self.total_chunks()).filter(|&i| !erased[i]).collect();
        let verdict = if surviving.len() < self.k {
            false
        } else {
            self.generator.select_rows(&surviving).rank() == self.k
        };
        self.memo.lock().unwrap().insert(words, verdict);
        verdict
    }

    /// Fast sufficient check used as a pre-filter: decodable for sure if,
    /// after letting each local group fix one of its own erasures, at most
    /// `r` erasures remain. (The rank test is the authority; this mirrors
    /// the "information-theoretically decodable" intuition in the paper's
    /// references.)
    pub fn decodable_heuristic(&self, erased: &[bool]) -> bool {
        // Each group whose local parity survives can fix one of its own data
        // erasures for free; every remaining data erasure consumes one
        // *surviving* global parity. Lost parities are recomputable once the
        // data is back, so they never consume budget themselves.
        let mut remaining_data = 0usize;
        for (g, members) in self.groups.iter().enumerate() {
            let d = members.iter().filter(|&&m| erased[m]).count();
            let parity_lost = erased[self.k + g];
            remaining_data += if parity_lost { d } else { d.saturating_sub(1) };
        }
        let globals_lost = (0..self.r)
            .filter(|&gi| erased[self.k + self.l + gi])
            .count();
        remaining_data <= self.r - globals_lost.min(self.r)
    }

    /// Reconstruct all missing chunks in place, or report failure.
    ///
    /// # Errors
    /// [`EcError::TooManyErasures`] when the pattern is not decodable.
    pub fn reconstruct(&self, chunks: &mut [Option<Vec<u8>>]) -> Result<(), EcError> {
        if chunks.len() != self.total_chunks() {
            return Err(EcError::ShapeMismatch(format!(
                "expected {} chunk slots, got {}",
                self.total_chunks(),
                chunks.len()
            )));
        }
        let erased: Vec<bool> = chunks.iter().map(std::option::Option::is_none).collect();
        if erased.iter().all(|&e| !e) {
            return Ok(());
        }
        if !self.decodable(&erased) {
            let present = erased.iter().filter(|&&e| !e).count();
            return Err(EcError::TooManyErasures {
                present,
                needed: self.k,
            });
        }
        let surviving: Vec<usize> = (0..chunks.len()).filter(|&i| !erased[i]).collect();
        // Pick k independent surviving rows by greedy rank growth.
        let mut chosen: Vec<usize> = Vec::with_capacity(self.k);
        for &s in &surviving {
            if chosen.len() == self.k {
                break;
            }
            let mut cand = chosen.clone();
            cand.push(s);
            if self.generator.select_rows(&cand).rank() == cand.len() {
                chosen = cand;
            }
        }
        debug_assert_eq!(chosen.len(), self.k, "decodable pattern must yield k rows");
        let lost = (0..chunks.len()).filter(|&i| erased[i]).collect();
        DecodePlan::new(&self.generator, &chosen, lost)?.fill(chunks);
        Ok(())
    }
}

impl std::fmt::Debug for Lrc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Lrc({},{},{})", self.k, self.l, self.r)
    }
}

fn mask_words(erased: &[bool]) -> Vec<u64> {
    let mut words = vec![0u64; erased.len().div_ceil(64)];
    for (i, &e) in erased.iter().enumerate() {
        if e {
            words[i / 64] |= 1 << (i % 64);
        }
    }
    words
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_data(k: usize, len: usize) -> Vec<Vec<u8>> {
        (0..k)
            .map(|s| {
                (0..len)
                    .map(|i| ((s * 59 + i * 13 + 1) % 256) as u8)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn rejects_bad_parameters() {
        assert!(Lrc::new(0, 1, 1).is_err());
        assert!(Lrc::new(4, 0, 1).is_err());
        assert!(Lrc::new(4, 2, 0).is_err());
        assert!(Lrc::new(4, 5, 1).is_err());
        assert!(Lrc::new(250, 4, 4).is_err());
    }

    #[test]
    fn figure14_layout_422() {
        // The paper's Fig. 14: (4,2,2) LRC. Groups {0,1} and {2,3}, local
        // parities are XORs of their groups.
        let lrc = Lrc::new(4, 2, 2).unwrap();
        assert_eq!(lrc.total_chunks(), 8);
        assert_eq!(lrc.groups[0], [0, 1]);
        assert_eq!(lrc.groups[1], [2, 3]);
        let data = sample_data(4, 16);
        let chunks = lrc.encode(&data).unwrap();
        for i in 0..16 {
            assert_eq!(chunks[4][i], data[0][i] ^ data[1][i], "local parity 0");
            assert_eq!(chunks[5][i], data[2][i] ^ data[3][i], "local parity 1");
        }
    }

    #[test]
    fn unbalanced_groups() {
        let lrc = Lrc::new(5, 2, 1).unwrap();
        assert_eq!(lrc.groups[0], [0, 1, 2]);
        assert_eq!(lrc.groups[1], [3, 4]);
        assert_eq!(lrc.group_of(4), Some(1));
        assert_eq!(lrc.group_of(5), Some(0)); // local parity 0
        assert_eq!(lrc.group_of(7), None); // global parity
    }

    #[test]
    fn single_failure_repair_costs() {
        let lrc = Lrc::new(14, 2, 4).unwrap();
        // Data chunk: read the rest of its 7-chunk group (cost = group size).
        assert_eq!(lrc.single_repair_cost(0), 7);
        // Local parity: same.
        assert_eq!(lrc.single_repair_cost(14), 7);
        // Global parity: needs all k data chunks.
        assert_eq!(lrc.single_repair_cost(16), 14);
    }

    #[test]
    fn any_single_failure_decodable_via_local_group() {
        let lrc = Lrc::new(6, 2, 2).unwrap();
        for i in 0..lrc.total_chunks() {
            let mut erased = vec![false; lrc.total_chunks()];
            erased[i] = true;
            assert!(lrc.decodable(&erased), "chunk {i}");
        }
    }

    #[test]
    fn r_plus_one_spread_failures_decodable() {
        // One failure per group plus up to r elsewhere is decodable.
        let lrc = Lrc::new(6, 2, 2).unwrap();
        let mut erased = vec![false; 10];
        erased[0] = true; // group 0
        erased[3] = true; // group 1
        erased[8] = true; // global parity
        assert!(lrc.decodable(&erased));
    }

    #[test]
    fn concentrated_failures_beyond_tolerance_fail() {
        // (4,2,2): losing all of group 0's data plus its parity plus a
        // global exceeds what one local + two globals can fix.
        let lrc = Lrc::new(4, 2, 2).unwrap();
        let mut erased = vec![false; 8];
        erased[0] = true;
        erased[1] = true;
        erased[4] = true; // group-0 parity
        erased[6] = true; // global parity
        assert!(!lrc.decodable(&erased));
    }

    #[test]
    fn reconstruct_round_trips_all_small_patterns() {
        let lrc = Lrc::new(4, 2, 2).unwrap();
        let data = sample_data(4, 12);
        let encoded = lrc.encode(&data).unwrap();
        let n = lrc.total_chunks();
        for mask in 0u32..(1 << n) {
            if mask.count_ones() > 4 {
                continue;
            }
            let erased: Vec<bool> = (0..n).map(|i| mask & (1 << i) != 0).collect();
            let mut chunks: Vec<Option<Vec<u8>>> = encoded.iter().cloned().map(Some).collect();
            for i in 0..n {
                if erased[i] {
                    chunks[i] = None;
                }
            }
            if lrc.decodable(&erased) {
                lrc.reconstruct(&mut chunks).unwrap();
                for i in 0..n {
                    assert_eq!(chunks[i].as_ref().unwrap(), &encoded[i], "mask={mask:b}");
                }
            } else {
                assert!(lrc.reconstruct(&mut chunks).is_err(), "mask={mask:b}");
            }
        }
    }

    #[test]
    fn decodability_fraction_of_4_failures_matches_known_azure_shape() {
        // Azure's (12,2,2)-like behavior: all 3-failure patterns decodable,
        // most (not all) 4-failure patterns decodable. We check the
        // qualitative property for (12,2,2): every 3-pattern decodable.
        let lrc = Lrc::new(12, 2, 2).unwrap();
        let n = lrc.total_chunks();
        let mut all3 = true;
        for a in 0..n {
            for b in (a + 1)..n {
                for c in (b + 1)..n {
                    let mut erased = vec![false; n];
                    erased[a] = true;
                    erased[b] = true;
                    erased[c] = true;
                    if !lrc.decodable(&erased) {
                        all3 = false;
                    }
                }
            }
        }
        assert!(
            all3,
            "every 3-failure pattern must be decodable for (12,2,2)"
        );
    }

    #[test]
    fn parity_overhead() {
        let lrc = Lrc::new(14, 2, 4).unwrap();
        assert!((lrc.parity_overhead() - 6.0 / 14.0).abs() < 1e-12);
    }

    #[test]
    fn memoization_is_consistent() {
        let lrc = Lrc::new(6, 2, 2).unwrap();
        let mut erased = vec![false; 10];
        erased[2] = true;
        erased[7] = true;
        let first = lrc.decodable(&erased);
        let second = lrc.decodable(&erased);
        assert_eq!(first, second);
    }
}
