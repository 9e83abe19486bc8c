//! `mlec-gf`: the finite-field substrate for the MLEC analysis suite.
//!
//! Everything in the erasure-coding stack (Reed–Solomon, LRC, the MLEC
//! two-level codec) reduces to linear algebra over GF(2^8), the field of 256
//! elements with the standard polynomial `x^8 + x^4 + x^3 + x^2 + 1`
//! (0x11d) used by Intel ISA-L, Jerasure, and most production erasure
//! coders. This crate provides:
//!
//! - [`field`]: scalar arithmetic (add/sub = XOR, log/exp-table multiply,
//!   inverse, power).
//! - [`tables`]: compile-time-generated exponent/logarithm tables.
//! - [`mod@slice`]: the throughput-critical bulk kernels — the
//!   matrix-by-shards product [`slice::dot_many_into`] that the encoding
//!   throughput experiment (paper Fig. 11) measures, and the
//!   single-coefficient [`slice::mul_slice`] / [`slice::mul_add_slice`].
//!   They use per-coefficient split nibble tables so each output byte costs
//!   two table lookups and one XOR — or, via [`mod@simd`], two vector table
//!   shuffles per 16/32 bytes.
//! - [`mod@simd`]: runtime-dispatched SIMD versions of the slice kernels
//!   (AVX2 / SSSE3 `pshufb` on `x86_64`, NEON on `aarch64`), detected once and
//!   cached, with the portable u64 loop as the universal fallback; on AVX2
//!   the product is one fused multi-output kernel. Gated behind the
//!   on-by-default `simd` crate feature; `--no-default-features` forces the
//!   scalar path on every target.
//! - [`matrix`]: dense matrices over GF(2^8) with Gauss–Jordan inversion,
//!   rank, and the Vandermonde/Cauchy constructions used to build systematic
//!   generator matrices.
//!
//! # Example
//!
//! ```
//! use mlec_gf::field::{gf_mul, gf_inv};
//! let a = 0x57;
//! let inv = gf_inv(a);
//! assert_eq!(gf_mul(a, inv), 1);
//! ```
//!
//! # Unsafe code
//!
//! The only `unsafe` in the workspace lives in [`mod@slice`] and
//! [`mod@simd`]: the u64-batched fallback loops use unaligned pointer
//! reads/writes, and the SIMD kernels add `target_feature` contracts plus
//! vector loads/stores. Every block carries a `// SAFETY:` comment (held
//! by clippy's `undocumented_unsafe_blocks`) and a `debug_assert!` bounds
//! invariant, `unsafe_op_in_unsafe_fn` is denied workspace-wide, the
//! dispatcher only selects a SIMD kernel after runtime feature detection,
//! and the scalar cores run under Miri in CI (`cargo miri test -p
//! mlec-gf`, where dispatch always picks the fallback) with
//! `#[cfg(miri)]`-scaled exhaustive tests.

pub mod field;
pub mod matrix;
pub mod simd;
pub mod slice;
pub mod tables;

pub use matrix::Matrix;
