//! Runtime-dispatched SIMD GF(2^8) kernels behind the safe API in
//! [`crate::slice`].
//!
//! This is the split-table technique Intel ISA-L uses for the paper's
//! Fig. 11 comparator: a coefficient's [`NibbleTable`] (two 16-entry
//! tables) fits in two vector registers, so one 16-byte table shuffle
//! (`pshufb` on `x86_64`, `tbl` on `aarch64`) multiplies 16/32 bytes by the
//! coefficient at once — two shuffles and two XORs per vector versus two
//! scalar table lookups and an XOR *per byte* in the fallback.
//!
//! The single-coefficient cores (`out (^)= c * input`) exist for every
//! kernel family; the multi-output core (`dot_avx2`, ISA-L's
//! `gf_Nvect_dot_prod`) for AVX2 only. Everywhere else the multi-output
//! entry ([`crate::slice::dot_many_into`]) runs a safe cache-blocked loop
//! over the single-coefficient cores — one kernel to audit, and no leg that
//! CI cannot execute.
//!
//! Dispatch policy:
//! - **`x86_64`** (with the `simd` crate feature, on by default): AVX2
//!   (32-byte blocks) when the CPU has it, else SSSE3 (16-byte blocks),
//!   detected once via `is_x86_feature_detected!` and cached.
//! - **aarch64** (with `simd`): NEON `vqtbl1q_u8`, unconditionally — NEON
//!   is baseline on aarch64.
//! - **everything else** — other architectures, `--no-default-features`
//!   builds, and Miri runs — the portable u64 batch loop in
//!   [`crate::slice`]. Under Miri the dispatcher always picks the scalar
//!   kernel so the unsafe fallback cores (the ones Miri can actually
//!   interpret) get interpreted coverage.
//!
//! Every SIMD core is `unsafe fn` solely because of its `target_feature`
//! contract plus raw-pointer loads/stores; the dispatchers are the only
//! call sites and uphold the CPU-feature precondition by construction.
//! Equivalence with the scalar fallback is enforced by the exhaustive
//! property tests at the bottom of this file (all 256 coefficients ×
//! unaligned offsets × lengths straddling every vector-width boundary; the
//! multi-output entry adds output and input counts to the sweep).

use crate::slice::{mul_table, NibbleTable};
use std::ops::Range;

/// The kernel family selected for this process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// Portable u64 batch loop (universal fallback).
    Scalar,
    /// SSSE3 `pshufb` split-table kernel, 16-byte blocks (`x86_64`).
    Ssse3,
    /// AVX2 `vpshufb` split-table kernel, 32-byte blocks (`x86_64`).
    Avx2,
    /// NEON `tbl` split-table kernel, 16-byte blocks (aarch64).
    Neon,
}

impl Kernel {
    fn detect() -> Kernel {
        // Miri interprets the scalar cores; SIMD intrinsics would be
        // rejected, and the fallback is exactly what we want covered.
        if cfg!(miri) {
            return Kernel::Scalar;
        }
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                return Kernel::Avx2;
            }
            if std::arch::is_x86_feature_detected!("ssse3") {
                return Kernel::Ssse3;
            }
        }
        #[cfg(all(feature = "simd", target_arch = "aarch64"))]
        {
            return Kernel::Neon;
        }
        #[allow(unreachable_code)]
        Kernel::Scalar
    }

    /// Human-readable name (`"scalar"`, `"ssse3"`, `"avx2"`, `"neon"`).
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Scalar => "scalar",
            Kernel::Ssse3 => "ssse3",
            Kernel::Avx2 => "avx2",
            Kernel::Neon => "neon",
        }
    }
}

/// The kernel the slice entry points dispatch to, detected at first use
/// and cached for the life of the process.
pub fn active_kernel() -> Kernel {
    use std::sync::OnceLock;
    static KERNEL: OnceLock<Kernel> = OnceLock::new();
    *KERNEL.get_or_init(Kernel::detect)
}

/// Name of the active kernel — for benchmark banners and diagnostics.
pub fn kernel_name() -> &'static str {
    active_kernel().name()
}

/// `out[i] = t.mul(input[i])` (`ACC = false`) or `out[i] ^= t.mul(input[i])`
/// (`ACC = true`) via the active kernel.
pub(crate) fn dispatch<const ACC: bool>(t: &NibbleTable, input: &[u8], out: &mut [u8]) {
    debug_assert_eq!(input.len(), out.len());
    match active_kernel() {
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        // SAFETY: `active_kernel` returns `Avx2`/`Ssse3` only after
        // `is_x86_feature_detected!` confirmed the CPU supports the
        // feature, satisfying each kernel's target-feature contract; the
        // slices were length-checked by the caller.
        Kernel::Avx2 => unsafe { x86::mul_avx2::<ACC>(t, input, out) },
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        // SAFETY: as above — SSSE3 was runtime-detected before selection.
        Kernel::Ssse3 => unsafe { x86::mul_ssse3::<ACC>(t, input, out) },
        #[cfg(all(feature = "simd", target_arch = "aarch64"))]
        // SAFETY: NEON is an architectural baseline on aarch64, so the
        // target-feature contract holds on every aarch64 CPU.
        Kernel::Neon => unsafe { neon::mul_neon::<ACC>(t, input, out) },
        _ if ACC => crate::slice::mul_add_scalar(t, input, out),
        _ => crate::slice::mul_scalar(t, input, out),
    }
}

/// `out[i] ^= input[i]` via the active kernel. Only AVX2 beats the u64
/// batch loop on pure XOR (no table shuffle involved), so everything else
/// falls through to the scalar core.
pub(crate) fn xor_dispatch(input: &[u8], out: &mut [u8]) {
    debug_assert_eq!(input.len(), out.len());
    match active_kernel() {
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        // SAFETY: `Avx2` is only selected after runtime detection; the
        // slices were length-checked by the caller.
        Kernel::Avx2 => unsafe { x86::xor_avx2(input, out) },
        _ => crate::slice::xor_scalar(input, out),
    }
}

/// Which path [`crate::slice::dot_many_into`] takes in this process: the
/// fused multi-output kernel, or the blocked loop over the active kernel's
/// single-coefficient cores. For run headers and the dispatch test.
pub fn dot_kernel_name() -> &'static str {
    if active_kernel() == Kernel::Avx2 {
        "avx2-fused"
    } else {
        "blocked"
    }
}

/// Bytes `block` of every output of [`crate::slice::dot_many_into`], which
/// has checked the shapes: `tables` holds `outs.len()` tables per input, all
/// slices are equally long and hold `block`, and there is at least one input.
pub(crate) fn dot_block_dispatch(
    tables: &[NibbleTable],
    inputs: &[&[u8]],
    outs: &mut [&mut [u8]],
    block: Range<usize>,
) {
    let per_input = tables.chunks_exact(outs.len());
    match active_kernel() {
        // Groups of four outputs: 8 accumulators, 4 nibble-index vectors,
        // the mask and a table pair are the 16 `ymm` registers.
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        Kernel::Avx2 => {
            for (g, group) in outs.chunks_mut(4).enumerate() {
                let kernel = match group.len() {
                    1 => x86::dot_avx2::<1>,
                    2 => x86::dot_avx2::<2>,
                    3 => x86::dot_avx2::<3>,
                    _ => x86::dot_avx2::<4>,
                };
                // SAFETY: `Avx2` is only selected after runtime detection;
                // `group` is the `N` outputs from `4 * g` on, and the
                // caller checked the rest of the kernel's contract (above).
                unsafe { kernel(per_input.clone(), 4 * g, inputs, group, block.clone()) }
            }
        }
        // One pass per output over the block's inputs, which the first pass
        // leaves in L1: overwrite from input 0, accumulate the rest.
        _ => {
            for (j, (input, tabs)) in inputs.iter().zip(per_input).enumerate() {
                for (out, t) in outs.iter_mut().zip(tabs) {
                    let (src, dst) = (&input[block.clone()], &mut out[block.clone()]);
                    if j == 0 {
                        mul_table::<false>(t, src, dst);
                    } else {
                        mul_table::<true>(t, src, dst);
                    }
                }
            }
        }
    }
}

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
mod x86 {
    use crate::slice::NibbleTable;
    #[allow(clippy::wildcard_imports)]
    use std::arch::x86_64::*;
    use std::ops::Range;

    /// SSSE3 split-table multiply over 16-byte blocks: `pshufb` looks up
    /// both nibbles of 16 input bytes in one instruction each.
    ///
    /// # Safety
    /// Caller must guarantee the CPU supports SSSE3 and
    /// `input.len() == out.len()` (with `input` and `out` disjoint, which
    /// the `&`/`&mut` borrows already enforce).
    #[target_feature(enable = "ssse3")]
    pub(super) unsafe fn mul_ssse3<const ACC: bool>(t: &NibbleTable, input: &[u8], out: &mut [u8]) {
        let len = input.len();
        let blocks = len / 16;
        // SAFETY: `[u8; 16]` and `__m128i` have identical size with no
        // padding; `loadu` imposes no alignment requirement.
        let lo_t = unsafe { _mm_loadu_si128(t.lo.as_ptr().cast()) };
        // SAFETY: as above for the high-nibble table.
        let hi_t = unsafe { _mm_loadu_si128(t.hi.as_ptr().cast()) };
        let mask = _mm_set1_epi8(0x0f);
        let src = input.as_ptr();
        let dst = out.as_mut_ptr();
        for b in 0..blocks {
            let off = b * 16;
            // Bounds invariant: the widest access touches bytes
            // `off..off + 16`, and `off + 16 <= blocks * 16 <= len`.
            debug_assert!(off + 16 <= len, "pshufb block out of bounds");
            // SAFETY: `off + 16 <= len` (invariant above) keeps every
            // 16-byte unaligned load/store inside its slice (lengths
            // equal per the function contract); `input` and `out` come
            // from a shared and an exclusive reference, so the regions
            // are disjoint.
            unsafe {
                let x = _mm_loadu_si128(src.add(off).cast());
                // pshufb with the high bit of every index clear (the 0x0f
                // mask guarantees this) selects table[idx & 0xf] per lane.
                let lo = _mm_shuffle_epi8(lo_t, _mm_and_si128(x, mask));
                let hi = _mm_shuffle_epi8(hi_t, _mm_and_si128(_mm_srli_epi64(x, 4), mask));
                let prod = _mm_xor_si128(lo, hi);
                let res = if ACC {
                    _mm_xor_si128(_mm_loadu_si128(dst.add(off).cast()), prod)
                } else {
                    prod
                };
                _mm_storeu_si128(dst.add(off).cast(), res);
            }
        }
        tail::<ACC>(t, input, out, blocks * 16);
    }

    /// AVX2 split-table multiply over 32-byte blocks. `vpshufb` shuffles
    /// within each 128-bit lane, so the 16-entry tables are broadcast to
    /// both lanes and the per-lane semantics match the SSSE3 kernel.
    ///
    /// # Safety
    /// Caller must guarantee the CPU supports AVX2 and
    /// `input.len() == out.len()`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn mul_avx2<const ACC: bool>(t: &NibbleTable, input: &[u8], out: &mut [u8]) {
        let len = input.len();
        let blocks = len / 32;
        // SAFETY: `[u8; 16]` and `__m128i` have identical size with no
        // padding; `loadu` imposes no alignment requirement.
        let lo128 = unsafe { _mm_loadu_si128(t.lo.as_ptr().cast()) };
        // SAFETY: as above for the high-nibble table.
        let hi128 = unsafe { _mm_loadu_si128(t.hi.as_ptr().cast()) };
        let lo_t = _mm256_broadcastsi128_si256(lo128);
        let hi_t = _mm256_broadcastsi128_si256(hi128);
        let mask = _mm256_set1_epi8(0x0f);
        let src = input.as_ptr();
        let dst = out.as_mut_ptr();
        for b in 0..blocks {
            let off = b * 32;
            // Bounds invariant: bytes `off..off + 32` with
            // `off + 32 <= blocks * 32 <= len`.
            debug_assert!(off + 32 <= len, "avx2 block out of bounds");
            // SAFETY: `off + 32 <= len` (invariant above) keeps every
            // 32-byte unaligned load/store inside its slice (lengths
            // equal per the function contract); the `&`/`&mut` borrows
            // keep source and destination disjoint.
            unsafe {
                let x = _mm256_loadu_si256(src.add(off).cast());
                let lo = _mm256_shuffle_epi8(lo_t, _mm256_and_si256(x, mask));
                let hi = _mm256_shuffle_epi8(hi_t, _mm256_and_si256(_mm256_srli_epi64(x, 4), mask));
                let prod = _mm256_xor_si256(lo, hi);
                let res = if ACC {
                    _mm256_xor_si256(_mm256_loadu_si256(dst.add(off).cast()), prod)
                } else {
                    prod
                };
                _mm256_storeu_si256(dst.add(off).cast(), res);
            }
        }
        tail::<ACC>(t, input, out, blocks * 32);
    }

    /// The fused multi-output kernel (ISA-L's `gf_Nvect_dot_prod` shape):
    /// bytes `block` of the `N` outputs whose tables are `first..first + N`
    /// of each input's (`tables` yields them per input), into `outs`. Per
    /// 64-byte step every input is loaded once, its nibble indices are
    /// derived once, and all `N` products accumulate in registers; outputs
    /// are stored, never read.
    ///
    /// # Safety
    /// Caller must guarantee the CPU supports AVX2, `outs.len() == N`, and
    /// that every slice of `inputs` and `outs` is at least `block.end` long.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn dot_avx2<const N: usize>(
        tables: std::slice::ChunksExact<'_, NibbleTable>,
        first: usize,
        inputs: &[&[u8]],
        outs: &mut [&mut [u8]],
        block: Range<usize>,
    ) {
        debug_assert_eq!(outs.len(), N);
        let per_input = || inputs.iter().zip(tables.clone());
        let mask = _mm256_set1_epi8(0x0f);
        let zero = _mm256_setzero_si256();
        let steps = block.len() / 64;
        for off in (0..steps).map(|s| block.start + s * 64) {
            // Bounds invariant: the step touches bytes `off..off + 64` of
            // every slice, and `off + 64 <= block.start + steps * 64 <=
            // block.end`, which no slice is shorter than.
            debug_assert!(off + 64 <= block.end, "avx2 step out of bounds");
            let mut acc = [[zero; 2]; N];
            for (input, tabs) in per_input() {
                debug_assert!(block.end <= input.len());
                let (mut lo, mut hi) = ([zero; 2], [zero; 2]);
                for v in 0..2 {
                    // SAFETY: `off + 32 * v + 32 <= off + 64 <= input.len()`
                    // (invariant above) keeps the unaligned load in bounds.
                    let x = unsafe { _mm256_loadu_si256(input.as_ptr().add(off + 32 * v).cast()) };
                    lo[v] = _mm256_and_si256(x, mask);
                    hi[v] = _mm256_and_si256(_mm256_srli_epi64(x, 4), mask);
                }
                for (a, t) in acc.iter_mut().zip(&tabs[first..first + N]) {
                    // SAFETY: `[u8; 16]` and `__m128i` have identical size
                    // with no padding; `loadu` imposes no alignment.
                    let (lo_t, hi_t) = unsafe {
                        (
                            _mm256_broadcastsi128_si256(_mm_loadu_si128(t.lo.as_ptr().cast())),
                            _mm256_broadcastsi128_si256(_mm_loadu_si128(t.hi.as_ptr().cast())),
                        )
                    };
                    for v in 0..2 {
                        let lo_p = _mm256_shuffle_epi8(lo_t, lo[v]);
                        let hi_p = _mm256_shuffle_epi8(hi_t, hi[v]);
                        a[v] = _mm256_xor_si256(a[v], _mm256_xor_si256(lo_p, hi_p));
                    }
                }
            }
            for (out, a) in outs.iter_mut().zip(&acc) {
                debug_assert!(block.end <= out.len());
                for (v, &sum) in a.iter().enumerate() {
                    // SAFETY: same bounds as the loads, on `out`, an
                    // exclusive borrow disjoint from every input.
                    unsafe { _mm256_storeu_si256(out.as_mut_ptr().add(off + 32 * v).cast(), sum) };
                }
            }
        }
        for i in block.start + steps * 64..block.end {
            for (n, out) in outs.iter_mut().enumerate() {
                out[i] = per_input().fold(0, |y, (input, tabs)| y ^ tabs[first + n].mul(input[i]));
            }
        }
    }

    /// AVX2 XOR over 32-byte blocks.
    ///
    /// # Safety
    /// Caller must guarantee the CPU supports AVX2 and
    /// `input.len() == out.len()`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn xor_avx2(input: &[u8], out: &mut [u8]) {
        let len = input.len();
        let blocks = len / 32;
        let src = input.as_ptr();
        let dst = out.as_mut_ptr();
        for b in 0..blocks {
            let off = b * 32;
            // Bounds invariant: bytes `off..off + 32` with
            // `off + 32 <= blocks * 32 <= len`.
            debug_assert!(off + 32 <= len, "avx2 block out of bounds");
            // SAFETY: `off + 32 <= len` keeps both unaligned accesses in
            // bounds (lengths equal per the function contract); borrows
            // keep the regions disjoint.
            unsafe {
                let a = _mm256_loadu_si256(src.add(off).cast());
                let y = _mm256_loadu_si256(dst.add(off).cast());
                _mm256_storeu_si256(dst.add(off).cast(), _mm256_xor_si256(a, y));
            }
        }
        for i in blocks * 32..len {
            out[i] ^= input[i];
        }
    }

    /// Scalar tail for the bytes after the last full vector block.
    fn tail<const ACC: bool>(t: &NibbleTable, input: &[u8], out: &mut [u8], from: usize) {
        for i in from..input.len() {
            if ACC {
                out[i] ^= t.mul(input[i]);
            } else {
                out[i] = t.mul(input[i]);
            }
        }
    }
}

#[cfg(all(feature = "simd", target_arch = "aarch64"))]
mod neon {
    use crate::slice::NibbleTable;
    #[allow(clippy::wildcard_imports)]
    use std::arch::aarch64::*;

    /// NEON split-table multiply over 16-byte blocks: `vqtbl1q_u8` is the
    /// aarch64 equivalent of `pshufb` (out-of-range indices yield 0, and
    /// the 0x0f mask / 4-bit shift keep every index in 0..16).
    ///
    /// # Safety
    /// Caller must guarantee NEON support (architectural baseline on
    /// aarch64) and `input.len() == out.len()`.
    #[target_feature(enable = "neon")]
    pub(super) unsafe fn mul_neon<const ACC: bool>(t: &NibbleTable, input: &[u8], out: &mut [u8]) {
        let len = input.len();
        let blocks = len / 16;
        // SAFETY: the table arrays are 16 valid bytes each; vld1q_u8 is
        // an unaligned 16-byte load.
        let (lo_t, hi_t) = unsafe { (vld1q_u8(t.lo.as_ptr()), vld1q_u8(t.hi.as_ptr())) };
        let mask = vdupq_n_u8(0x0f);
        let src = input.as_ptr();
        let dst = out.as_mut_ptr();
        for b in 0..blocks {
            let off = b * 16;
            // Bounds invariant: bytes `off..off + 16` with
            // `off + 16 <= blocks * 16 <= len`.
            debug_assert!(off + 16 <= len, "neon block out of bounds");
            // SAFETY: `off + 16 <= len` (invariant above) keeps every
            // 16-byte unaligned load/store inside its slice (lengths
            // equal per the function contract); the `&`/`&mut` borrows
            // keep source and destination disjoint.
            unsafe {
                let x = vld1q_u8(src.add(off));
                let lo = vqtbl1q_u8(lo_t, vandq_u8(x, mask));
                let hi = vqtbl1q_u8(hi_t, vshrq_n_u8(x, 4));
                let prod = veorq_u8(lo, hi);
                let res = if ACC {
                    veorq_u8(vld1q_u8(dst.add(off)), prod)
                } else {
                    prod
                };
                vst1q_u8(dst.add(off), res);
            }
        }
        for i in blocks * 16..len {
            if ACC {
                out[i] ^= t.mul(input[i]);
            } else {
                out[i] = t.mul(input[i]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field::gf_mul;
    use crate::slice::{
        dot_many_into, dot_tables, mul_add_slice, mul_add_slice_scalar, mul_slice, xor_slice,
    };

    /// Coefficient sweep: every coefficient natively; a structurally
    /// interesting subset under Miri (the interpreter is ~1000× slower,
    /// and the dispatcher pins Miri to the scalar kernel anyway).
    fn sweep_coeffs() -> Vec<u8> {
        if cfg!(miri) {
            vec![0, 1, 2, 0x1d, 0x53, 0x80, 0xff]
        } else {
            (0..=255).collect()
        }
    }

    /// Lengths straddling every vector-width boundary the kernels block
    /// on: the u64 word (8), the SSSE3/NEON block (16), the AVX2 block
    /// (32), and a two-AVX2-block run (64), each with the scalar tail in
    /// every phase.
    fn sweep_lens() -> Vec<usize> {
        let mut lens: Vec<usize> = (0..=40).collect();
        lens.extend(61..=70);
        if cfg!(miri) {
            lens.retain(|l| l % 3 == 0 || matches!(l, 7 | 8 | 15 | 16 | 31 | 32 | 63 | 64 | 65));
        }
        lens
    }

    /// Deterministic "random" fill — keeps the sweep seeded without
    /// pulling an RNG into the kernel crate.
    fn fill(seed: u64, len: usize) -> Vec<u8> {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                (state >> 56) as u8
            })
            .collect()
    }

    #[test]
    fn kernel_detection_is_cached_and_consistent() {
        let k = active_kernel();
        assert_eq!(k, active_kernel());
        assert_eq!(k.name(), kernel_name());
        if cfg!(miri) || cfg!(not(feature = "simd")) {
            assert_eq!(k, Kernel::Scalar);
        }
        // The multi-output entry fuses on AVX2 and only there.
        assert_eq!(dot_kernel_name() == "avx2-fused", k == Kernel::Avx2);
    }

    /// One case of the multi-output sweep: `outputs x inputs` random
    /// coefficients — every row seeded with a 0 and a 1, the table-free
    /// shortcuts — over `len`-byte inputs starting `start` bytes into their
    /// backing buffers, into `0xff`-dirty outputs. The dispatched entry
    /// must equal the `gf_mul` byte reference and the forced-scalar
    /// per-coefficient path.
    fn check_dot_many(outputs: usize, inputs: usize, len: usize, start: usize) {
        let case = format!("outputs={outputs} inputs={inputs} len={len} start={start}");
        let seed = (outputs * 31 + inputs) as u64 * 131 + len as u64 * 7 + start as u64;
        let mut coeffs: Vec<Vec<u8>> = (0..outputs)
            .map(|i| fill(seed + 1000 * i as u64, inputs))
            .collect();
        for (i, row) in coeffs.iter_mut().enumerate() {
            row[i % inputs] = 0;
            row[(i + 1) % inputs] = 1;
        }
        let backing: Vec<Vec<u8>> = (0..inputs)
            .map(|j| fill(seed ^ (j as u64 + 1) << 20, start + len))
            .collect();
        let shards: Vec<&[u8]> = backing.iter().map(|b| &b[start..]).collect();
        let rows: Vec<&[u8]> = coeffs.iter().map(Vec::as_slice).collect();

        let mut dispatched = vec![vec![0xffu8; len]; outputs];
        let mut views: Vec<&mut [u8]> = dispatched.iter_mut().map(Vec::as_mut_slice).collect();
        dot_many_into(&dot_tables(&rows), &shards, &mut views);

        for (i, got) in dispatched.iter().enumerate() {
            let reference: Vec<u8> = (0..len)
                .map(|b| (0..inputs).fold(0, |y, j| y ^ gf_mul(coeffs[i][j], shards[j][b])))
                .collect();
            assert_eq!(got, &reference, "{case} output {i} vs gf_mul");
            let mut scalar = vec![0u8; len];
            for (j, shard) in shards.iter().enumerate() {
                mul_add_slice_scalar(coeffs[i][j], shard, &mut scalar);
            }
            assert_eq!(got, &scalar, "{case} output {i} vs forced scalar");
        }
    }

    /// The multi-output equivalence sweep: output counts across the fused
    /// kernel's group width (4), input counts up to a wide stripe, lengths
    /// around every vector width and the entry's cache block, every input
    /// misalignment.
    #[test]
    fn dot_many_matches_reference_and_scalar() {
        let (max_outputs, max_inputs) = if cfg!(miri) { (5, 3) } else { (6, 20) };
        let mut lens = sweep_lens();
        // The entry walks 2 KiB blocks (`slice::DOT_BLOCK_BYTES`).
        lens.extend(if cfg!(miri) {
            vec![2049]
        } else {
            vec![2047, 2048, 2049, 2048 + 63, 2 * 2048 + 65]
        });
        for outputs in 1..=max_outputs {
            for inputs in 1..=max_inputs {
                for &len in &lens {
                    check_dot_many(outputs, inputs, len, (outputs + inputs + len) % 9);
                }
            }
        }
        for start in 0..9 {
            for (outputs, inputs) in [(1, 1), (2, 10), (3, 17), (4, 4), (5, 3), (6, 20)] {
                if cfg!(miri) && inputs > 4 {
                    continue;
                }
                for len in [63, 64, 65, 130] {
                    check_dot_many(outputs, inputs, len, start);
                }
            }
        }
        if !cfg!(miri) {
            check_dot_many(3, 17, (128 << 10) + 13, 5);
            check_dot_many(6, 10, (128 << 10) + 13, 0);
        }
    }

    #[test]
    fn dot_many_degenerate_shapes() {
        // No inputs: every output is the empty sum.
        let mut out = [0xffu8; 5];
        dot_many_into(&dot_tables(&[&[]]), &[], &mut [&mut out[..]]);
        assert_eq!(out, [0; 5]);
        // No outputs: nothing to do.
        dot_many_into(&dot_tables(&[]), &[], &mut []);
    }

    #[test]
    #[should_panic(expected = "slice length mismatch")]
    fn dot_many_rejects_ragged_shards() {
        let mut out = [0u8; 4];
        let tables = dot_tables(&[&[2, 3]]);
        dot_many_into(&tables, &[&[1, 2, 3, 4], &[1, 2, 3]], &mut [&mut out[..]]);
    }

    /// The headline equivalence sweep: the dispatched kernel must agree
    /// with both the pure-field reference and the forced-scalar fallback
    /// for all 256 coefficients × unaligned offsets 0..9 × lengths
    /// straddling the vector-width boundaries.
    #[test]
    fn simd_and_scalar_mul_add_agree() {
        let lens = sweep_lens();
        let max_len = *lens.iter().max().unwrap();
        for c in sweep_coeffs() {
            for start in 0..9usize {
                let backing = fill(u64::from(c) * 31 + start as u64, start + max_len);
                for &len in &lens {
                    let input = &backing[start..start + len];
                    let out0 = fill(u64::from(c) ^ 0xabcd, len);
                    let mut dispatched = out0.clone();
                    mul_add_slice(c, input, &mut dispatched);
                    let mut scalar = out0.clone();
                    mul_add_slice_scalar(c, input, &mut scalar);
                    let reference: Vec<u8> = out0
                        .iter()
                        .zip(input)
                        .map(|(&o, &x)| o ^ gf_mul(c, x))
                        .collect();
                    assert_eq!(dispatched, reference, "c={c} start={start} len={len}");
                    assert_eq!(dispatched, scalar, "c={c} start={start} len={len}");
                }
            }
        }
    }

    #[test]
    fn simd_and_scalar_mul_agree() {
        for c in sweep_coeffs() {
            for start in 0..9usize {
                for len in [0usize, 1, 7, 15, 16, 17, 31, 32, 33, 40, 64, 65] {
                    let backing = fill(u64::from(c) * 17 + start as u64, start + len);
                    let input = &backing[start..];
                    let mut dispatched = vec![0x5a; len];
                    mul_slice(c, input, &mut dispatched);
                    let reference: Vec<u8> = input.iter().map(|&x| gf_mul(c, x)).collect();
                    assert_eq!(dispatched, reference, "c={c} start={start} len={len}");
                }
            }
        }
    }

    #[test]
    fn simd_and_scalar_xor_agree() {
        for start in 0..9usize {
            for len in [0usize, 1, 7, 8, 9, 16, 31, 32, 33, 63, 64, 65, 100] {
                let backing = fill(start as u64 + 99, start + len);
                let input = &backing[start..];
                let out0 = fill(start as u64 * 7 + 1, len);
                let mut dispatched = out0.clone();
                xor_slice(input, &mut dispatched);
                let mut scalar = out0.clone();
                crate::slice::xor_scalar(input, &mut scalar);
                let reference: Vec<u8> = out0.iter().zip(input).map(|(&o, &x)| o ^ x).collect();
                assert_eq!(dispatched, reference, "start={start} len={len}");
                assert_eq!(dispatched, scalar, "start={start} len={len}");
            }
        }
    }

    /// Large-buffer spot check: one encode-sized block through every
    /// public kernel against the scalar core, catching any block-loop
    /// stride bug a short sweep might miss.
    #[test]
    fn large_buffer_equivalence() {
        let len = if cfg!(miri) {
            1 << 10
        } else {
            (128 << 10) + 13
        };
        let input = fill(0xfeed, len);
        let out0 = fill(0xbeef, len);
        for c in [2u8, 0x1d, 0x8e, 0xff] {
            let mut fast = out0.clone();
            mul_add_slice(c, &input, &mut fast);
            let mut slow = out0.clone();
            mul_add_slice_scalar(c, &input, &mut slow);
            assert_eq!(fast, slow, "c={c}");
        }
    }
}
