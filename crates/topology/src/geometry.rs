//! The datacenter hierarchy: racks contain enclosures contain disks.
//!
//! Disks are numbered densely: disk `d` lives in rack `d / disks_per_rack`,
//! enclosure `(d % disks_per_rack) / disks_per_enclosure`, slot
//! `d % disks_per_enclosure`. All placement schemes are defined in terms of
//! these coordinates.

/// Global disk index in `[0, total_disks)`.
pub type DiskId = u32;
/// Rack index in `[0, racks)`.
pub type RackId = u32;
/// Enclosure index within its rack, `[0, enclosures_per_rack)`.
pub type EnclosureId = u32;

/// Physical shape and capacity parameters of the simulated datacenter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Geometry {
    /// Number of racks.
    pub racks: u32,
    /// Enclosures per rack.
    pub enclosures_per_rack: u32,
    /// Disks per enclosure.
    pub disks_per_enclosure: u32,
    /// Per-disk capacity in terabytes.
    pub disk_capacity_tb: f64,
    /// Chunk size in kilobytes.
    pub chunk_kb: f64,
}

impl Geometry {
    /// The paper's §3 reference setup: 57,600 disks across 60 racks, 8
    /// enclosures per rack, 120 disks per enclosure, 20 TB disks, 128 KB
    /// chunks.
    pub const fn paper_default() -> Geometry {
        Geometry {
            racks: 60,
            enclosures_per_rack: 8,
            disks_per_enclosure: 120,
            disk_capacity_tb: 20.0,
            chunk_kb: 128.0,
        }
    }

    /// A small geometry for fast tests: 6 racks × 2 enclosures × 12 disks.
    pub const fn small_test() -> Geometry {
        Geometry {
            racks: 6,
            enclosures_per_rack: 2,
            disks_per_enclosure: 12,
            disk_capacity_tb: 20.0,
            chunk_kb: 128.0,
        }
    }

    /// Disks per rack.
    pub const fn disks_per_rack(&self) -> u32 {
        self.enclosures_per_rack * self.disks_per_enclosure
    }

    /// Total disks in the system.
    pub const fn total_disks(&self) -> u32 {
        self.racks * self.disks_per_rack()
    }

    /// Total enclosures in the system.
    pub const fn total_enclosures(&self) -> u32 {
        self.racks * self.enclosures_per_rack
    }

    /// Chunks that fit on one disk.
    pub fn chunks_per_disk(&self) -> f64 {
        self.disk_capacity_tb * 1e12 / (self.chunk_kb * 1e3)
    }

    /// Rack of a disk.
    pub const fn rack_of(&self, disk: DiskId) -> RackId {
        disk / self.disks_per_rack()
    }

    /// Enclosure (within its rack) of a disk.
    pub const fn enclosure_of(&self, disk: DiskId) -> EnclosureId {
        (disk % self.disks_per_rack()) / self.disks_per_enclosure
    }

    /// Global enclosure index of a disk (`rack * enclosures_per_rack +
    /// enclosure`).
    pub const fn global_enclosure_of(&self, disk: DiskId) -> u32 {
        self.rack_of(disk) * self.enclosures_per_rack + self.enclosure_of(disk)
    }

    /// Slot of a disk within its enclosure.
    pub const fn slot_of(&self, disk: DiskId) -> u32 {
        disk % self.disks_per_enclosure
    }

    /// Iterator over all disks in a rack.
    pub fn disks_in_rack(&self, rack: RackId) -> std::ops::Range<DiskId> {
        let start = rack * self.disks_per_rack();
        start..start + self.disks_per_rack()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_section3() {
        let g = Geometry::paper_default();
        assert_eq!(g.total_disks(), 57_600);
        assert_eq!(g.disks_per_rack(), 960);
        assert_eq!(g.total_enclosures(), 480);
    }

    #[test]
    fn coordinates_round_trip() {
        let g = Geometry::small_test();
        for disk in 0..g.total_disks() {
            let r = g.rack_of(disk);
            let e = g.enclosure_of(disk);
            let s = g.slot_of(disk);
            assert_eq!(r * g.disks_per_rack() + e * g.disks_per_enclosure + s, disk);
            assert!(r < g.racks);
            assert!(e < g.enclosures_per_rack);
            assert!(s < g.disks_per_enclosure);
        }
    }

    #[test]
    fn rack_ranges() {
        let g = Geometry::small_test();
        let rack1: Vec<DiskId> = g.disks_in_rack(1).collect();
        assert_eq!(rack1.len(), g.disks_per_rack() as usize);
        assert!(rack1.iter().all(|&d| g.rack_of(d) == 1));
    }

    #[test]
    fn chunks_per_disk_paper_scale() {
        let g = Geometry::paper_default();
        // 20 TB / 128 KB = 156.25 million chunks.
        assert!((g.chunks_per_disk() - 20.0e12 / 128.0e3).abs() < 1.0);
    }
}
