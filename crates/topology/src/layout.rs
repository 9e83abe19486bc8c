//! Failure layouts: which disks are concurrently failed, with per-rack and
//! per-pool aggregation used by the burst-tolerance analysis.

use crate::geometry::{DiskId, Geometry, RackId};
use crate::placement::LocalPoolMap;
use std::collections::BTreeMap;

/// A set of concurrently failed disks.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FailureLayout {
    failed: Vec<DiskId>,
}

impl FailureLayout {
    /// Build from a list of failed disks (deduplicated, sorted).
    pub fn new(mut failed: Vec<DiskId>) -> FailureLayout {
        failed.sort_unstable();
        failed.dedup();
        FailureLayout { failed }
    }

    /// The failed disks, sorted ascending.
    pub fn disks(&self) -> &[DiskId] {
        &self.failed
    }

    /// Number of failed disks.
    pub fn len(&self) -> usize {
        self.failed.len()
    }

    /// True when no disk is failed.
    pub fn is_empty(&self) -> bool {
        self.failed.is_empty()
    }

    /// Failed-disk count per rack (racks with zero failures omitted).
    pub fn per_rack_counts(&self, geometry: &Geometry) -> BTreeMap<RackId, u32> {
        let mut counts = BTreeMap::new();
        for &d in &self.failed {
            *counts.entry(geometry.rack_of(d)).or_insert(0) += 1;
        }
        counts
    }

    /// Number of racks with at least one failure.
    pub fn affected_racks(&self, geometry: &Geometry) -> usize {
        self.per_rack_counts(geometry).len()
    }

    /// Failed-disk count per local pool (pools with zero failures omitted).
    pub fn per_pool_counts(&self, pools: &LocalPoolMap) -> BTreeMap<u32, u32> {
        let mut counts = BTreeMap::new();
        for &d in &self.failed {
            *counts.entry(pools.pool_of(d)).or_insert(0) += 1;
        }
        counts
    }
}

impl FromIterator<DiskId> for FailureLayout {
    fn from_iter<T: IntoIterator<Item = DiskId>>(iter: T) -> FailureLayout {
        FailureLayout::new(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::Placement;

    #[test]
    fn dedup_and_sort() {
        let layout = FailureLayout::new(vec![5, 3, 5, 1]);
        assert_eq!(layout.disks(), &[1, 3, 5]);
        assert_eq!(layout.len(), 3);
        assert!(!layout.is_empty());
    }

    #[test]
    fn per_rack_counts() {
        let g = Geometry::small_test(); // 24 disks per rack
        let layout = FailureLayout::new(vec![0, 1, 24, 50]);
        let counts = layout.per_rack_counts(&g);
        assert_eq!(counts[&0], 2);
        assert_eq!(counts[&1], 1);
        assert_eq!(counts[&2], 1);
        assert_eq!(layout.affected_racks(&g), 3);
    }

    #[test]
    fn per_pool_counts() {
        let g = Geometry::small_test();
        let map = LocalPoolMap::new(g, Placement::Clustered, 4);
        // Disks 0..4 are pool 0; disks 4..8 are pool 1.
        let layout = FailureLayout::new(vec![0, 1, 2, 4]);
        let counts = layout.per_pool_counts(&map);
        assert_eq!(counts[&0], 3);
        assert_eq!(counts[&1], 1);
    }

    #[test]
    fn from_iterator() {
        let layout: FailureLayout = (0u32..5).collect();
        assert_eq!(layout.len(), 5);
    }
}
