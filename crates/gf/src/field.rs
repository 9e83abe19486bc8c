//! Scalar arithmetic in GF(2^8).
//!
//! Addition and subtraction are both XOR; multiplication and division go
//! through the log/exp tables in [`crate::tables`]. All functions are total:
//! division by zero panics (a programming error in an erasure coder, never a
//! data-dependent condition).

use crate::tables::{EXP, GROUP_ORDER, LOG};

/// Add two field elements (XOR).
#[inline(always)]
pub const fn gf_add(a: u8, b: u8) -> u8 {
    a ^ b
}

/// Multiply two field elements via the log/exp tables.
#[inline(always)]
pub fn gf_mul(a: u8, b: u8) -> u8 {
    if a == 0 || b == 0 {
        0
    } else {
        EXP[LOG[a as usize] as usize + LOG[b as usize] as usize]
    }
}

/// Multiplicative inverse.
///
/// # Panics
/// Panics if `a == 0`.
pub fn gf_inv(a: u8) -> u8 {
    assert!(a != 0, "inverse of zero in GF(2^8)");
    EXP[GROUP_ORDER - LOG[a as usize] as usize]
}

/// Division `a / b`.
///
/// # Panics
/// Panics if `b == 0`.
#[inline]
pub fn gf_div(a: u8, b: u8) -> u8 {
    assert!(b != 0, "division by zero in GF(2^8)");
    if a == 0 {
        0
    } else {
        EXP[(LOG[a as usize] as usize + GROUP_ORDER - LOG[b as usize] as usize) % GROUP_ORDER]
    }
}

/// Raise `a` to the power `n` (with `0^0 == 1` by convention, as required by
/// Vandermonde-matrix construction).
pub fn gf_pow(a: u8, n: usize) -> u8 {
    if n == 0 {
        return 1;
    }
    if a == 0 {
        return 0;
    }
    let l = (LOG[a as usize] as usize * n) % GROUP_ORDER;
    EXP[l]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Slow but obviously-correct carry-less multiply for cross-checking.
    fn mul_reference(mut a: u8, mut b: u8) -> u8 {
        let mut acc: u8 = 0;
        while b != 0 {
            if b & 1 != 0 {
                acc ^= a;
            }
            let hi = a & 0x80 != 0;
            a <<= 1;
            if hi {
                a ^= (crate::tables::POLY & 0xff) as u8;
            }
            b >>= 1;
        }
        acc
    }

    #[test]
    fn mul_matches_reference_everywhere() {
        for a in 0..=255u8 {
            for b in 0..=255u8 {
                assert_eq!(gf_mul(a, b), mul_reference(a, b), "a={a} b={b}");
            }
        }
    }

    #[test]
    fn every_nonzero_element_has_inverse() {
        for a in 1..=255u8 {
            assert_eq!(gf_mul(a, gf_inv(a)), 1, "a={a}");
        }
    }

    #[test]
    fn division_inverts_multiplication() {
        for a in 0..=255u8 {
            for b in 1..=255u8 {
                assert_eq!(gf_div(gf_mul(a, b), b), a);
            }
        }
    }

    #[test]
    fn pow_agrees_with_repeated_multiplication() {
        for a in [0u8, 1, 2, 3, 0x1d, 0xff] {
            let mut acc = 1u8;
            for n in 0..600 {
                assert_eq!(gf_pow(a, n), acc, "a={a} n={n}");
                acc = gf_mul(acc, a);
            }
        }
    }

    #[test]
    fn pow_zero_conventions() {
        assert_eq!(gf_pow(0, 0), 1);
        assert_eq!(gf_pow(0, 5), 0);
    }

    #[test]
    #[should_panic]
    fn inverse_of_zero_panics() {
        gf_inv(0);
    }

    #[test]
    #[should_panic]
    fn division_by_zero_panics() {
        gf_div(7, 0);
    }
}
