//! Typed physical quantities for the mlec workspace.
//!
//! Every headline number in the paper is dimensioned — repair wire volume
//! in TB (Fig 8/9), repair bandwidth in MB/s (Table 2), repair time in
//! hours (Fig 6), failure and loss rates per year (Fig 7/10) — and a
//! single silently-wrong conversion (TB·MB/s instead of TB÷MB/s, an
//! hours-vs-years slip in a hazard rate) skews durability by orders of
//! magnitude in the nines. This crate gives each dimension a newtype so
//! the compiler rejects those mixups, and the `unit-discipline` lint
//! (`cargo xtask lint`, L7) keeps bare dimension-suffixed `f64`s from
//! creeping back into public signatures.
//!
//! # Dimension algebra
//!
//! | expression              | result        |
//! |-------------------------|---------------|
//! | [`Volume`] / [`Bandwidth`] | [`Duration`] |
//! | [`Volume`] / [`Duration`]  | [`Bandwidth`] |
//! | [`Bandwidth`] * [`Duration`] | [`Volume`] |
//! | [`Rate`] * [`Duration`]    | `f64` (expected count) |
//! | [`Volume`] / [`Volume`]    | `f64` (ratio) |
//! | scalar `*`/`/` any quantity | same quantity |
//!
//! Additions and subtractions are only defined within one dimension;
//! anything else is a compile error — which is the entire point.
//!
//! # Bit-exactness contract
//!
//! Every type is `#[repr(transparent)]` over `f64` and stores one
//! canonical unit (TB, MB/s, hours, events/year). Constructors and
//! accessors in the canonical unit are the identity (no rounding), and
//! each non-canonical conversion performs exactly the float operations
//! the pre-migration inline expressions performed, in the same order
//! (e.g. [`Volume::div`] by [`Bandwidth`] computes
//! `tb / (mbs * 3600.0 / 1e6)`, verbatim the old `hours_to_move`).
//! Re-typing a formula onto these quantities therefore produces the same
//! binary `f64` at every step, which is what lets the fixed-seed goldens
//! pin the migration. Conversions that would round-trip through a
//! non-canonical unit (`from_per_hour(..).to_per_hour()`) are *not*
//! guaranteed bit-stable; keep values in their native unit until the
//! final escape hatch.

use std::ops::{Add, Div, Mul, Sub};

/// Hours in one (Julian) year; the hour↔year conversions use this
/// throughout (re-exported by `mlec_sim::config`).
pub const HOURS_PER_YEAR: f64 = 8766.0;

/// Seconds per hour, for MB/s → TB/h conversions.
const S_PER_H: f64 = 3600.0;

/// A data volume. Canonical unit: terabytes (decimal, 1 TB = 1e12 bytes),
/// the unit of the paper's Fig 8 traffic axis and Table 2 repair sizes.
#[repr(transparent)]
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Volume(f64);

impl Volume {
    /// Zero bytes.
    pub const ZERO: Volume = Volume(0.0);

    /// From terabytes (identity — no rounding).
    pub const fn from_tb(tb: f64) -> Volume {
        Volume(tb)
    }

    /// From kilobytes: `kb * 1e3 / 1e12` (the chunk-size conversion).
    pub fn from_kb(kb: f64) -> Volume {
        Volume(kb * 1e3 / 1e12)
    }

    /// Escape hatch: terabytes (identity — no rounding).
    pub const fn to_tb(self) -> f64 {
        self.0
    }

    /// Larger of two volumes (`f64::max` semantics).
    pub fn max(self, other: Volume) -> Volume {
        Volume(self.0.max(other.0))
    }

    /// Transfer time at `bw`, evaluated MB-first: `tb * 1e6 / mbs / 3600`.
    ///
    /// Bitwise this is NOT `self / bw` (which divides by
    /// `mbs * 3600 / 1e6`); the Markov-chain builders and simulators were
    /// written with the MB-first order and their goldens pin it.
    pub fn transfer_time_mb(self, bw: Bandwidth) -> Duration {
        Duration(self.0 * 1e6 / bw.0 / S_PER_H)
    }
}

/// A transfer rate. Canonical unit: MB/s (decimal megabytes), the unit of
/// the paper's Table 2. Note 1 MB/s is numerically 1 byte/µs — the store's
/// virtual-clock arithmetic leans on that identity via
/// [`Bandwidth::bytes_per_us`].
#[repr(transparent)]
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Bandwidth(f64);

impl Bandwidth {
    /// From MB/s (identity — no rounding).
    pub const fn from_mbs(mbs: f64) -> Bandwidth {
        Bandwidth(mbs)
    }

    /// From Gbps: `gbps * 1e9 / 8.0 / 1e6` (the §3 rack-uplink
    /// conversion, verbatim).
    pub fn from_gbps(gbps: f64) -> Bandwidth {
        Bandwidth(gbps * 1e9 / 8.0 / 1e6)
    }

    /// Escape hatch: MB/s (identity — no rounding).
    pub const fn to_mbs(self) -> f64 {
        self.0
    }

    /// Escape hatch: TB moved per hour (`mbs * 3600.0 / 1e6`).
    pub fn to_tb_per_hour(self) -> f64 {
        self.0 * S_PER_H / 1e6
    }

    /// Escape hatch: MB moved per hour (`mbs * 3600.0`), for chunk-count
    /// flux arithmetic that stays in megabytes.
    pub fn to_mb_per_hour(self) -> f64 {
        self.0 * S_PER_H
    }

    /// Escape hatch: bytes per virtual microsecond. The identity — MB/s
    /// *is* bytes/µs — but spelled out so virtual-clock code states the
    /// unit it actually wants.
    pub const fn bytes_per_us(self) -> f64 {
        self.0
    }

    /// Smaller of two bandwidths (pipeline bottleneck).
    pub fn min(self, other: Bandwidth) -> Bandwidth {
        Bandwidth(self.0.min(other.0))
    }
}

/// A span of (virtual or mission) time. Canonical unit: hours, the unit
/// of the paper's repair-time figures and detection delays.
#[repr(transparent)]
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Duration(f64);

impl Duration {
    /// Zero time.
    pub const ZERO: Duration = Duration(0.0);

    /// From hours (identity — no rounding).
    pub const fn from_hours(hours: f64) -> Duration {
        Duration(hours)
    }

    /// From years: `years * 8766.0`.
    pub fn from_years(years: f64) -> Duration {
        Duration(years * HOURS_PER_YEAR)
    }

    /// Escape hatch: hours (identity — no rounding).
    pub const fn to_hours(self) -> f64 {
        self.0
    }

    /// Escape hatch: years (`hours / 8766.0`).
    pub fn to_years(self) -> f64 {
        self.0 / HOURS_PER_YEAR
    }
}

/// An event rate (failures, catastrophes, losses). Canonical unit:
/// events per year, the unit of AFR and the Fig 7/Fig 10 y-axes.
///
/// The two dominant plumbing directions are single-rounding exact:
/// an AFR built with [`Rate::from_per_year`] reads back per hour as one
/// division (`afr / 8766.0`), and a chain hazard built with
/// [`Rate::from_per_hour`] reads back per year as one multiplication
/// (`hazard * 8766.0`) — precisely the two conversions the analysis
/// chains perform.
#[repr(transparent)]
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Rate(f64);

impl Rate {
    /// From events/year (identity — no rounding).
    pub const fn from_per_year(per_year: f64) -> Rate {
        Rate(per_year)
    }

    /// From events/hour: `per_hour * 8766.0`.
    pub fn from_per_hour(per_hour: f64) -> Rate {
        Rate(per_hour * HOURS_PER_YEAR)
    }

    /// Escape hatch: events/year (identity — no rounding).
    pub const fn to_per_year(self) -> f64 {
        self.0
    }

    /// Escape hatch: events/hour (`per_year / 8766.0`).
    pub fn to_per_hour(self) -> f64 {
        self.0 / HOURS_PER_YEAR
    }

    /// Escape hatch: events/day (`per_year / 365.25`).
    pub fn to_per_day(self) -> f64 {
        self.0 / (HOURS_PER_YEAR / 24.0)
    }
}

// --- dimension algebra -------------------------------------------------
//
// Operand order is preserved in every impl (`a op b` computes exactly
// `a.0 op b.0` modulo the documented conversion), so re-typed formulas
// keep their binary results.

macro_rules! scalar_ops {
    ($ty:ident) => {
        impl Mul<f64> for $ty {
            type Output = $ty;
            fn mul(self, rhs: f64) -> $ty {
                $ty(self.0 * rhs)
            }
        }
        impl Mul<$ty> for f64 {
            type Output = $ty;
            fn mul(self, rhs: $ty) -> $ty {
                $ty(self * rhs.0)
            }
        }
        impl Div<f64> for $ty {
            type Output = $ty;
            fn div(self, rhs: f64) -> $ty {
                $ty(self.0 / rhs)
            }
        }
        impl Add for $ty {
            type Output = $ty;
            fn add(self, rhs: $ty) -> $ty {
                $ty(self.0 + rhs.0)
            }
        }
        impl Sub for $ty {
            type Output = $ty;
            fn sub(self, rhs: $ty) -> $ty {
                $ty(self.0 - rhs.0)
            }
        }
        impl std::iter::Sum for $ty {
            fn sum<I: Iterator<Item = $ty>>(iter: I) -> $ty {
                iter.fold($ty(0.0), |a, b| a + b)
            }
        }
    };
}

scalar_ops!(Volume);
scalar_ops!(Bandwidth);
scalar_ops!(Duration);
scalar_ops!(Rate);

/// `Volume / Bandwidth → Duration`: `tb / (mbs * 3600.0 / 1e6)` — the
/// transfer-time formula, verbatim the old `hours_to_move` hot path.
impl Div<Bandwidth> for Volume {
    type Output = Duration;
    fn div(self, rhs: Bandwidth) -> Duration {
        Duration(self.0 / rhs.to_tb_per_hour())
    }
}

/// `Volume / Duration → Bandwidth`: `tb / hours * 1e6 / 3600.0`.
impl Div<Duration> for Volume {
    type Output = Bandwidth;
    fn div(self, rhs: Duration) -> Bandwidth {
        Bandwidth(self.0 / rhs.0 * 1e6 / S_PER_H)
    }
}

/// `Bandwidth * Duration → Volume`: `(mbs * 3600.0 / 1e6) * hours`.
impl Mul<Duration> for Bandwidth {
    type Output = Volume;
    fn mul(self, rhs: Duration) -> Volume {
        Volume(self.to_tb_per_hour() * rhs.0)
    }
}

/// `Volume / Volume → f64` (dimensionless ratio).
impl Div for Volume {
    type Output = f64;
    fn div(self, rhs: Volume) -> f64 {
        self.0 / rhs.0
    }
}

/// `Rate * Duration → f64` (expected event count):
/// `per_year * (hours / 8766.0)`.
impl Mul<Duration> for Rate {
    type Output = f64;
    fn mul(self, rhs: Duration) -> f64 {
        self.0 * rhs.to_years()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_round_trips_are_identity() {
        for x in [0.0, 1.0, 0.1, 400.0, 1e-12, f64::MAX] {
            assert_eq!(Volume::from_tb(x).to_tb().to_bits(), x.to_bits());
            assert_eq!(Bandwidth::from_mbs(x).to_mbs().to_bits(), x.to_bits());
            assert_eq!(Duration::from_hours(x).to_hours().to_bits(), x.to_bits());
            assert_eq!(Rate::from_per_year(x).to_per_year().to_bits(), x.to_bits());
        }
    }

    #[test]
    fn transfer_time_matches_inline_formula_bitwise() {
        // The Fig 6/Fig 9 seam: `tb / (mbs * 3600.0 / 1e6)`.
        for (tb, mbs) in [
            (400.0, 250.0),
            (20.0, 40.0),
            (2400.0, 1363.6363),
            (0.125, 264.0),
        ] {
            let typed = (Volume::from_tb(tb) / Bandwidth::from_mbs(mbs)).to_hours();
            let inline = tb / (mbs * 3600.0 / 1e6);
            assert_eq!(typed.to_bits(), inline.to_bits());
        }
    }

    #[test]
    fn rack_uplink_conversion_matches_config_formula_bitwise() {
        let typed = Bandwidth::from_gbps(10.0).to_mbs();
        assert_eq!(typed.to_bits(), (10.0f64 * 1e9 / 8.0 / 1e6).to_bits());
        assert_eq!(typed, 1250.0);
    }

    #[test]
    fn rate_dominant_flows_are_single_rounding() {
        // AFR per-year → per-hour: exactly `afr / HOURS_PER_YEAR`.
        let afr = 0.01;
        assert_eq!(
            Rate::from_per_year(afr).to_per_hour().to_bits(),
            (afr / HOURS_PER_YEAR).to_bits()
        );
        // Chain hazard per-hour → per-year: exactly `h * HOURS_PER_YEAR`.
        let h = 3.1e-9;
        assert_eq!(
            Rate::from_per_hour(h).to_per_year().to_bits(),
            (h * HOURS_PER_YEAR).to_bits()
        );
    }

    #[test]
    fn operand_order_is_preserved() {
        // f64 * Quantity and Quantity * f64 keep the written order, so
        // `survivors * bw / amp` re-types without changing a bit.
        let bw = Bandwidth::from_mbs(40.0);
        let typed = (116.0 * bw / 18.0).to_mbs();
        assert_eq!(typed.to_bits(), (116.0_f64 * 40.0 / 18.0).to_bits());
    }

    #[test]
    fn dimension_algebra() {
        let v = Bandwidth::from_mbs(1000.0) * Duration::from_hours(1.0);
        assert!((v.to_tb() - 3.6).abs() < 1e-12);
        let bw = Volume::from_tb(3.6) / Duration::from_hours(1.0);
        assert!((bw.to_mbs() - 1000.0).abs() < 1e-9);
        let n = Rate::from_per_year(100.0) * Duration::from_years(2.0);
        assert!((n - 200.0).abs() < 1e-9);
        assert!((Volume::from_tb(8.0) / Volume::from_tb(2.0) - 4.0).abs() < 1e-15);
        assert_eq!(Volume::from_kb(128.0).to_tb(), 128.0 * 1e3 / 1e12);
        assert_eq!(Volume::from_tb(2.0).max(Volume::ZERO).to_tb(), 2.0);
        assert_eq!(
            Bandwidth::from_mbs(3.0)
                .min(Bandwidth::from_mbs(2.0))
                .to_mbs(),
            2.0
        );
        assert_eq!(Bandwidth::from_mbs(200.0).bytes_per_us(), 200.0);
        assert!((Rate::from_per_year(365.25).to_per_day() - 1.0).abs() < 1e-12);
        assert!((Duration::from_years(1.0).to_hours() - HOURS_PER_YEAR).abs() < 1e-9);
        let total: Volume = [Volume::from_tb(1.0), Volume::from_tb(2.0)]
            .into_iter()
            .sum();
        assert_eq!(total.to_tb(), 3.0);
    }
}
