//! Bulk GF(2^8) kernels: multiply a byte slice by a scalar coefficient and
//! accumulate into an output slice, and the matrix-by-shards product every
//! Reed–Solomon encode, verify and reconstruct is built from.
//!
//! [`dot_many_into`] is the encoder's inner loop: it computes *all* outputs
//! of a coefficient block in one pass over the inputs, from split tables
//! precomputed once per code ([`dot_tables`]), the way ISA-L's
//! `gf_Nvect_dot_prod` does. The paper's Fig. 11 measures exactly this path
//! (via Intel ISA-L in the original; here via the same split-nibble
//! technique, runtime-dispatched to the kernels in [`crate::simd`] with the
//! same asymptotic shape: throughput falls with wider `k` and more parities
//! `p`). [`dot_into`] is its one-output call.
//!
//! The single-coefficient entry points ([`mul_slice`], [`mul_add_slice`],
//! [`xor_slice`]) are safe and dispatch to the fastest kernel the CPU
//! supports (AVX2 / SSSE3 `pshufb` on `x86_64`, NEON `tbl` on `aarch64`, the
//! portable u64 batch loop everywhere else — see
//! [`crate::simd::kernel_name`]). The u64 fallback cores live in this
//! module; [`mul_add_slice_scalar`] exposes the fallback directly so
//! benchmarks and equivalence tests can compare the two paths on the same
//! host.
//!
//! Tables are split 4-bit [`NibbleTable`]s: 32 bytes per coefficient, so a
//! whole generator matrix stays in L1 and one coefficient's pair fits two
//! vector registers. [`dot_tables`] builds a coefficient block's worth,
//! once per code.

use crate::field::gf_mul;

/// Split multiplication tables for a fixed coefficient `c`: `lo[x & 0xf] ^
/// hi[x >> 4] == c * x` for every byte `x`, by linearity of the field
/// multiplication over bitwise decomposition.
#[derive(Clone, Copy)]
pub struct NibbleTable {
    pub(crate) lo: [u8; 16],
    pub(crate) hi: [u8; 16],
}

impl NibbleTable {
    /// Build the two 16-entry tables for coefficient `c`.
    pub fn new(c: u8) -> NibbleTable {
        let mut lo = [0u8; 16];
        let mut hi = [0u8; 16];
        for x in 0..16u8 {
            lo[x as usize] = gf_mul(c, x);
            hi[x as usize] = gf_mul(c, x << 4);
        }
        NibbleTable { lo, hi }
    }

    /// Multiply a single byte by the table's coefficient.
    #[inline(always)]
    pub fn mul(&self, x: u8) -> u8 {
        self.lo[(x & 0x0f) as usize] ^ self.hi[(x >> 4) as usize]
    }

    /// The coefficient the table was built for (`c * 1`).
    #[inline(always)]
    pub fn coeff(&self) -> u8 {
        self.lo[1]
    }
}

/// `out[i] = c * input[i]` for all `i`.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn mul_slice(c: u8, input: &[u8], out: &mut [u8]) {
    assert_eq!(input.len(), out.len(), "slice length mismatch");
    mul_table::<false>(&NibbleTable::new(c), input, out);
}

/// `out[i] ^= c * input[i]` for all `i` — the fused multiply-accumulate of
/// single-shard repair.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn mul_add_slice(c: u8, input: &[u8], out: &mut [u8]) {
    assert_eq!(input.len(), out.len(), "slice length mismatch");
    mul_table::<true>(&NibbleTable::new(c), input, out);
}

/// `out[i] = t * input[i]` (`ACC = false`) or `out[i] ^= t * input[i]`
/// (`ACC = true`) through the active kernel, with the table-free shortcuts
/// for the coefficients 0 and 1 (a systematic code's first parity row is
/// all ones: plain XOR).
pub(crate) fn mul_table<const ACC: bool>(t: &NibbleTable, input: &[u8], out: &mut [u8]) {
    debug_assert_eq!(input.len(), out.len());
    match (t.coeff(), ACC) {
        (0, true) => {}
        (0, false) => out.fill(0),
        (1, true) => crate::simd::xor_dispatch(input, out),
        (1, false) => out.copy_from_slice(input),
        _ => crate::simd::dispatch::<ACC>(t, input, out),
    }
}

/// [`mul_add_slice`] pinned to the portable u64 fallback kernel, bypassing
/// SIMD dispatch. Exists so benchmarks can report the scalar-vs-SIMD ratio
/// on one host and so equivalence tests can compare the two paths; regular
/// callers want [`mul_add_slice`].
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn mul_add_slice_scalar(c: u8, input: &[u8], out: &mut [u8]) {
    assert_eq!(input.len(), out.len(), "slice length mismatch");
    mul_add_scalar(&NibbleTable::new(c), input, out);
}

/// Portable `out[i] = t.mul(input[i])` core (byte-at-a-time; the two table
/// lookups dominate, so u64 batching buys nothing without SIMD shuffles).
pub(crate) fn mul_scalar(t: &NibbleTable, input: &[u8], out: &mut [u8]) {
    debug_assert_eq!(input.len(), out.len());
    for (o, &x) in out.iter_mut().zip(input) {
        *o = t.mul(x);
    }
}

/// Portable u64-batched `out[i] ^= t.mul(input[i])` core — the universal
/// fallback behind [`mul_add_slice`] when no SIMD kernel is available.
pub(crate) fn mul_add_scalar(t: &NibbleTable, input: &[u8], out: &mut [u8]) {
    debug_assert_eq!(input.len(), out.len());
    let len = input.len();
    // The u64 batch loop covers exactly `words * 8` bytes; the
    // scalar tail below finishes the rest.
    let words = len / 8;
    let src = input.as_ptr();
    let dst = out.as_mut_ptr();
    for w in 0..words {
        let off = w * 8;
        // Bounds invariant of the batch: the widest access touches
        // bytes `off..off + 8`, and `off + 8 <= words * 8 <= len`.
        debug_assert!(off + 8 <= len, "u64 batch out of bounds");
        // SAFETY: `off + 8 <= len` (invariant above) keeps the
        // 8-byte unaligned read inside `input`, whose length equals
        // `out`'s (debug-asserted here, asserted by every public
        // caller); reads via raw pointer impose no alignment beyond
        // the unaligned load itself.
        let x = unsafe { src.add(off).cast::<u64>().read_unaligned() };
        // Shift-based lane extraction/packing is its own inverse
        // regardless of endianness, so `z` holds `t.mul` of each
        // byte of `x` in matching lanes.
        let mut z = 0u64;
        for lane in 0..8 {
            let byte = (x >> (lane * 8)) as u8;
            z |= u64::from(t.mul(byte)) << (lane * 8);
        }
        // SAFETY: same bounds invariant on `out` (equal length,
        // `off + 8 <= len`). `input` and `out` come from a shared
        // and an exclusive reference respectively, so the source
        // and destination regions cannot overlap.
        unsafe {
            let y = dst.add(off).cast::<u64>().read_unaligned();
            dst.add(off).cast::<u64>().write_unaligned(y ^ z);
        }
    }
    for i in words * 8..len {
        out[i] ^= t.mul(input[i]);
    }
}

/// `out[i] ^= input[i]`, dispatched to the widest XOR kernel available
/// (AVX2 on capable `x86_64`, the unaligned-u64 batch loop elsewhere).
pub fn xor_slice(input: &[u8], out: &mut [u8]) {
    assert_eq!(input.len(), out.len(), "slice length mismatch");
    crate::simd::xor_dispatch(input, out);
}

/// Portable u64-batched XOR core — fallback behind [`xor_slice`].
pub(crate) fn xor_scalar(input: &[u8], out: &mut [u8]) {
    debug_assert_eq!(input.len(), out.len());
    let len = input.len();
    let words = len / 8;
    let src = input.as_ptr();
    let dst = out.as_mut_ptr();
    for w in 0..words {
        let off = w * 8;
        // Bounds invariant of the batch: bytes `off..off + 8` with
        // `off + 8 <= words * 8 <= len`.
        debug_assert!(off + 8 <= len, "u64 batch out of bounds");
        // SAFETY: `off + 8 <= len` (invariant above) keeps both 8-byte
        // unaligned accesses inside their slices (lengths debug-asserted
        // equal here, asserted by every public caller); the shared
        // `input` borrow and exclusive `out` borrow guarantee the
        // regions are disjoint.
        unsafe {
            let a = src.add(off).cast::<u64>().read_unaligned();
            let b = dst.add(off).cast::<u64>().read_unaligned();
            dst.add(off).cast::<u64>().write_unaligned(a ^ b);
        }
    }
    for i in words * 8..len {
        out[i] ^= input[i];
    }
}

/// Split tables of the coefficient block whose row `i` holds the
/// coefficients of output `i`, one per input — built once per code (or per
/// decode matrix) so that no product rebuilds a [`NibbleTable`] per call.
/// Input-major: the tables of input `j` are `[j * rows.len()..][..rows.len()]`,
/// next to each other for the fused kernel that has just loaded that input.
///
/// # Panics
/// Panics if the rows differ in length.
pub fn dot_tables(rows: &[&[u8]]) -> Vec<NibbleTable> {
    let inputs = rows.first().map_or(0, |r| r.len());
    assert!(
        rows.iter().all(|r| r.len() == inputs),
        "coefficient rows differ in length"
    );
    let per_input = |j| rows.iter().map(move |row| NibbleTable::new(row[j]));
    (0..inputs).flat_map(per_input).collect()
}

/// Bytes of every shard [`dot_many_into`] covers before moving on, so that
/// a block's passes — one per register group on AVX2, one per output
/// elsewhere — re-read its inputs from L1: 2 KiB keeps a 17-wide stripe's
/// block inside a 48 KiB L1. Measured at 1, 2, 4, 16 KiB and unblocked on
/// (17+3) and (10+12) x 128 KiB, AVX2 and forced-scalar builds: all within
/// 5 % on this host (2 MiB L2, compute-bound scalar kernel; SSSE3/NEON
/// cannot run here), so the size follows the arithmetic.
const DOT_BLOCK_BYTES: usize = 2048;

/// The matrix-by-shards product: `outs[i][b] = sum_j coeff[i][j] *
/// inputs[j][b]`, every output from one pass over the inputs — the kernel
/// under every Reed–Solomon encode and decode. Outputs are overwritten,
/// never read: callers need not clear them.
///
/// # Panics
/// Panics unless `tables` is the [`dot_tables`] of an `outs.len() x
/// inputs.len()` block and all shards are equally long.
pub fn dot_many_into(tables: &[NibbleTable], inputs: &[&[u8]], outs: &mut [&mut [u8]]) {
    assert_eq!(
        tables.len(),
        inputs.len() * outs.len(),
        "table block shape mismatch"
    );
    let Some(len) = outs.first().map(|o| o.len()) else {
        return;
    };
    assert!(
        inputs.iter().all(|s| s.len() == len) && outs.iter().all(|s| s.len() == len),
        "slice length mismatch"
    );
    if inputs.is_empty() {
        outs.iter_mut().for_each(|o| o.fill(0));
        return;
    }
    for start in (0..len).step_by(DOT_BLOCK_BYTES) {
        let block = start..len.min(start + DOT_BLOCK_BYTES);
        crate::simd::dot_block_dispatch(tables, inputs, outs, block);
    }
}

/// Dot product of coefficient row `coeffs` with input shards: for each
/// output byte position `i`, `out[i] = sum_j coeffs[j] * inputs[j][i]` —
/// the one-output call of [`dot_many_into`].
///
/// # Panics
/// Panics if `coeffs.len() != inputs.len()` or any shard length differs from
/// `out`.
pub fn dot_into(coeffs: &[u8], inputs: &[&[u8]], out: &mut [u8]) {
    assert_eq!(
        coeffs.len(),
        inputs.len(),
        "coefficient/shard count mismatch"
    );
    dot_many_into(&dot_tables(&[coeffs]), inputs, &mut [out]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field::gf_mul;

    /// Coefficients the exhaustive cross-checks sweep. Under Miri the
    /// interpreter is ~1000× slower than native, so the sweep shrinks to
    /// the structurally interesting cases (zero, one, a generator, values
    /// exercising both nibbles, the top element); natively it is all 256.
    fn sweep_coeffs() -> Vec<u8> {
        if cfg!(miri) {
            vec![0, 1, 2, 0x1d, 0x53, 0x80, 0xff]
        } else {
            (0..=255).collect()
        }
    }

    fn reference_mul_add(c: u8, input: &[u8], out: &mut [u8]) {
        for (o, &x) in out.iter_mut().zip(input) {
            *o ^= gf_mul(c, x);
        }
    }

    #[test]
    fn nibble_table_matches_scalar_mul() {
        for c in sweep_coeffs() {
            let t = NibbleTable::new(c);
            for x in 0..=255u8 {
                assert_eq!(t.mul(x), gf_mul(c, x), "c={c} x={x}");
            }
        }
    }

    #[test]
    fn mul_add_slice_matches_reference_all_lengths() {
        // Lengths around the 8-byte blocking boundary are the risky cases.
        for len in 0..40usize {
            let input: Vec<u8> = (0..len).map(|i| (i * 37 + 11) as u8).collect();
            for c in [0u8, 1, 2, 0x53, 0xff] {
                let mut fast = vec![0xaa; len];
                let mut slow = vec![0xaa; len];
                mul_add_slice(c, &input, &mut fast);
                reference_mul_add(c, &input, &mut slow);
                assert_eq!(fast, slow, "c={c} len={len}");
            }
        }
    }

    #[test]
    fn mul_add_slice_unaligned_offsets() {
        // The u64 batch loop reads/writes through unaligned pointers; run
        // it over every sub-slice start offset so Miri sees genuinely
        // misaligned u64 accesses (and the scalar tail at every phase).
        let backing: Vec<u8> = (0..64).map(|i| (i * 29 + 3) as u8).collect();
        let mut out_backing = [0x5au8; 64];
        for start in 0..9usize {
            for c in sweep_coeffs() {
                let input = &backing[start..];
                let mut fast = out_backing[start..].to_vec();
                let mut slow = fast.clone();
                mul_add_slice(c, input, &mut fast);
                reference_mul_add(c, input, &mut slow);
                assert_eq!(fast, slow, "c={c} start={start}");
                out_backing[start..].copy_from_slice(&fast);
            }
        }
    }

    #[test]
    fn xor_slice_unaligned_offsets() {
        let backing: Vec<u8> = (0..64).map(|i| (i * 13 + 7) as u8).collect();
        for start in 0..9usize {
            let input = &backing[start..];
            let mut fast: Vec<u8> = (0..input.len()).map(|i| (i * 5) as u8).collect();
            let expect: Vec<u8> = fast.iter().zip(input).map(|(y, x)| y ^ x).collect();
            xor_slice(input, &mut fast);
            assert_eq!(fast, expect, "start={start}");
        }
    }

    #[test]
    fn mul_slice_zero_and_one_fast_paths() {
        let input = [1u8, 2, 3, 4, 5];
        let mut out = [9u8; 5];
        mul_slice(0, &input, &mut out);
        assert_eq!(out, [0; 5]);
        mul_slice(1, &input, &mut out);
        assert_eq!(out, input);
    }

    #[test]
    fn xor_slice_matches_elementwise() {
        for len in [0usize, 1, 7, 8, 9, 16, 31] {
            let a: Vec<u8> = (0..len).map(|i| i as u8).collect();
            let mut b: Vec<u8> = (0..len).map(|i| (i * 3) as u8).collect();
            let expect: Vec<u8> = a.iter().zip(&b).map(|(x, y)| x ^ y).collect();
            xor_slice(&a, &mut b);
            assert_eq!(b, expect, "len={len}");
        }
    }

    #[test]
    fn dot_into_is_linear_combination() {
        let shards: Vec<Vec<u8>> = (0..4)
            .map(|s| (0..16).map(|i| (s * 40 + i) as u8).collect())
            .collect();
        let refs: Vec<&[u8]> = shards.iter().map(std::vec::Vec::as_slice).collect();
        let coeffs = [3u8, 0, 1, 0x8e];
        let mut out = vec![0u8; 16];
        dot_into(&coeffs, &refs, &mut out);
        for i in 0..16 {
            let mut expect = 0u8;
            for (j, shard) in shards.iter().enumerate() {
                expect ^= gf_mul(coeffs[j], shard[i]);
            }
            assert_eq!(out[i], expect, "byte {i}");
        }
    }

    #[test]
    #[should_panic]
    fn mismatched_lengths_panic() {
        let mut out = [0u8; 3];
        mul_add_slice(5, &[1, 2, 3, 4], &mut out);
    }
}
