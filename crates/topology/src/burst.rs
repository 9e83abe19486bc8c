//! Correlated failure-burst generation (paper §4.1.1, Fig. 5).
//!
//! A burst of `y` simultaneous disk failures is scattered across exactly `x`
//! racks: the `x` racks are chosen uniformly, each receives at least one
//! failure, the remaining `y - x` failures land on the chosen racks
//! uniformly, and within a rack the failed disks are distinct and uniform.

use crate::geometry::{DiskId, Geometry, RackId};
use crate::layout::FailureLayout;
use mlec_runner::TrialRng;

/// Errors from burst generation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BurstError {
    /// Need at least as many failures as affected racks.
    TooFewFailures { failures: u32, racks: u32 },
    /// Failures with no rack to land on.
    NoRacks { failures: u32 },
    /// More affected racks than racks in the system.
    TooManyRacks { requested: u32, available: u32 },
    /// More failures per affected rack than a rack has disks.
    RackOverflow { requested: u32, disks: u32 },
}

impl std::fmt::Display for BurstError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BurstError::TooFewFailures { failures, racks } => {
                write!(f, "{failures} failures cannot cover {racks} racks")
            }
            BurstError::NoRacks { failures } => {
                write!(f, "{failures} failures cannot land on zero racks")
            }
            BurstError::TooManyRacks {
                requested,
                available,
            } => {
                write!(f, "requested {requested} racks but system has {available}")
            }
            BurstError::RackOverflow { requested, disks } => {
                write!(
                    f,
                    "a rack would take {requested} failures but has {disks} disks"
                )
            }
        }
    }
}

impl std::error::Error for BurstError {}

/// Whether the geometry can hold a burst of `failures` disks on exactly
/// `affected_racks` racks. Depends on the shape alone, never on a draw, so
/// a caller about to sample many bursts of one shape checks once up front.
pub fn validate(geometry: &Geometry, failures: u32, affected_racks: u32) -> Result<(), BurstError> {
    if affected_racks > geometry.racks {
        return Err(BurstError::TooManyRacks {
            requested: affected_racks,
            available: geometry.racks,
        });
    }
    if failures < affected_racks {
        return Err(BurstError::TooFewFailures {
            failures,
            racks: affected_racks,
        });
    }
    if affected_racks == 0 && failures > 0 {
        return Err(BurstError::NoRacks { failures });
    }
    let disks = geometry.disks_per_rack();
    if failures > disks * affected_racks {
        return Err(BurstError::RackOverflow {
            requested: failures.div_ceil(affected_racks),
            disks,
        });
    }
    Ok(())
}

/// Sample a burst of `failures` failed disks scattered across exactly
/// `affected_racks` racks.
pub fn sample_burst(
    geometry: &Geometry,
    failures: u32,
    affected_racks: u32,
    rng: &mut TrialRng,
) -> Result<FailureLayout, BurstError> {
    let counts = sample_rack_counts(geometry, failures, affected_racks, rng)?;
    let mut failed: Vec<DiskId> = Vec::with_capacity(failures as usize);
    for (rack, count) in counts {
        failed.extend(sample_disks_in_rack(geometry, rack, count, rng));
    }
    Ok(FailureLayout::new(failed))
}

/// Sample only the per-rack failure counts of a burst (rack identity
/// included). Exposed separately so analyses that work at per-rack
/// granularity can skip disk-level sampling.
pub fn sample_rack_counts(
    geometry: &Geometry,
    failures: u32,
    affected_racks: u32,
    rng: &mut TrialRng,
) -> Result<Vec<(RackId, u32)>, BurstError> {
    validate(geometry, failures, affected_racks)?;
    let racks = rng.shuffle(geometry.racks as usize);
    let capacity = geometry.disks_per_rack();
    // Each chosen rack gets one failure; the remainder scatter uniformly
    // among racks that still have healthy disks.
    let mut counts = vec![1u32; affected_racks as usize];
    for _ in 0..(failures - affected_racks) {
        loop {
            let i = rng.gen_below(u64::from(affected_racks)) as usize;
            if counts[i] < capacity {
                counts[i] += 1;
                break;
            }
        }
    }
    // `zip` keeps the first `affected_racks` of the shuffled racks.
    Ok(racks.into_iter().map(|r| r as RackId).zip(counts).collect())
}

/// Sample `count` distinct failed disks uniformly within one rack.
pub fn sample_disks_in_rack(
    geometry: &Geometry,
    rack: RackId,
    count: u32,
    rng: &mut TrialRng,
) -> Vec<DiskId> {
    let disks = geometry.disks_in_rack(rack);
    debug_assert!(count as usize <= disks.len());
    rng.choose_multiple(disks.len(), count as usize)
        .into_iter()
        .map(|i| disks.start + i as DiskId)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlec_runner::rng::ChaCha12Rng;

    #[test]
    fn burst_shape_invariants() {
        let g = Geometry::small_test();
        let mut rng = ChaCha12Rng::seed_from_u64(42);
        for (y, x) in [(6u32, 3u32), (10, 1), (6, 6), (24, 2)] {
            let layout = sample_burst(&g, y, x, &mut rng).unwrap();
            assert_eq!(layout.len() as u32, y, "y={y} x={x}");
            assert_eq!(layout.affected_racks(&g) as u32, x, "y={y} x={x}");
            // Every rack got at least one failure.
            assert!(layout.per_rack_counts(&g).values().all(|&c| c >= 1));
        }
    }

    #[test]
    fn error_cases() {
        let g = Geometry::small_test(); // 6 racks x 24 disks
        let mut rng = ChaCha12Rng::seed_from_u64(1);
        assert!(matches!(
            sample_burst(&g, 2, 4, &mut rng),
            Err(BurstError::TooFewFailures { .. })
        ));
        assert!(matches!(
            sample_burst(&g, 10, 7, &mut rng),
            Err(BurstError::TooManyRacks { .. })
        ));
        // 30 failures in one 24-disk rack cannot fit.
        assert!(matches!(
            sample_burst(&g, 30, 1, &mut rng),
            Err(BurstError::RackOverflow { .. })
        ));
    }

    #[test]
    fn failures_on_zero_racks_are_an_error_not_a_panic() {
        // Used to index `racks[0]` of an empty vec (then divide by zero)
        // while building the `RackOverflow` error.
        let g = Geometry::small_test();
        let mut rng = ChaCha12Rng::seed_from_u64(1);
        assert_eq!(
            sample_rack_counts(&g, 5, 0, &mut rng),
            Err(BurstError::NoRacks { failures: 5 })
        );
        assert!(sample_burst(&g, 1, 0, &mut rng).is_err());
        // The empty burst stays valid.
        assert_eq!(sample_rack_counts(&g, 0, 0, &mut rng), Ok(Vec::new()));
    }

    #[test]
    fn failures_are_distinct_disks() {
        let g = Geometry::small_test();
        let mut rng = ChaCha12Rng::seed_from_u64(7);
        for _ in 0..50 {
            let layout = sample_burst(&g, 20, 4, &mut rng).unwrap();
            // FailureLayout dedups; equal length means all distinct.
            assert_eq!(layout.len(), 20);
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let g = Geometry::paper_default();
        let a = sample_burst(&g, 30, 5, &mut ChaCha12Rng::seed_from_u64(99)).unwrap();
        let b = sample_burst(&g, 30, 5, &mut ChaCha12Rng::seed_from_u64(99)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn rack_counts_sum_to_failures() {
        let g = Geometry::paper_default();
        let mut rng = ChaCha12Rng::seed_from_u64(3);
        let counts = sample_rack_counts(&g, 60, 13, &mut rng).unwrap();
        assert_eq!(counts.len(), 13);
        assert_eq!(counts.iter().map(|&(_, c)| c).sum::<u32>(), 60);
        // Rack ids are distinct.
        let mut ids: Vec<_> = counts.iter().map(|&(r, _)| r).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 13);
    }
}
