//! Chunk/parity placement schemes (paper §2.2, Fig. 3).
//!
//! Two orthogonal choices — clustered vs. declustered parity — at each of
//! the two levels give the four MLEC schemes C/C, C/D, D/C, D/D. The same
//! choices applied to a single level give the four SLEC placements of §5.1.3.
//!
//! The operational core is the notion of a **pool**:
//!
//! - a *local pool* is the set of disks a local stripe may occupy. Clustered
//!   (`Cp`): exactly `k_l + p_l` adjacent disks, stripes span the whole pool.
//!   Declustered (`Dp`): the whole enclosure, stripes are pseudorandom
//!   `width`-subsets.
//! - a *network pool* is the set of local pools a network stripe may occupy.
//!   Network-clustered: `k_n + p_n` racks' worth of same-position local
//!   pools. Network-declustered: the whole system (stripes pick any
//!   `k_n + p_n` local pools in distinct racks).

use crate::geometry::{DiskId, Geometry, RackId};

/// Clustered or declustered parity placement (paper Fig. 2d/2e).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Placement {
    /// Every `width` disks form a pool; a stripe occupies the entire pool.
    Clustered,
    /// The whole enclosure (or system, at network level) forms one pool;
    /// stripes are pseudorandomly spread.
    Declustered,
}

impl Placement {
    /// Single-letter name used in the paper's scheme notation.
    pub const fn letter(&self) -> char {
        match self {
            Placement::Clustered => 'C',
            Placement::Declustered => 'D',
        }
    }
}

/// One of the four MLEC placement schemes (network level / local level).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MlecScheme {
    /// Placement at the network (inter-rack) level.
    pub network: Placement,
    /// Placement at the local (intra-enclosure) level.
    pub local: Placement,
}

impl MlecScheme {
    /// Clustered/clustered.
    pub const CC: MlecScheme = MlecScheme {
        network: Placement::Clustered,
        local: Placement::Clustered,
    };
    /// Clustered network, declustered local.
    pub const CD: MlecScheme = MlecScheme {
        network: Placement::Clustered,
        local: Placement::Declustered,
    };
    /// Declustered network, clustered local.
    pub const DC: MlecScheme = MlecScheme {
        network: Placement::Declustered,
        local: Placement::Clustered,
    };
    /// Declustered/declustered.
    pub const DD: MlecScheme = MlecScheme {
        network: Placement::Declustered,
        local: Placement::Declustered,
    };

    /// All four schemes in the paper's presentation order.
    pub const ALL: [MlecScheme; 4] = [Self::CC, Self::CD, Self::DC, Self::DD];

    /// The paper's notation, e.g. `"C/D"`.
    pub fn name(&self) -> String {
        format!("{}/{}", self.network.letter(), self.local.letter())
    }
}

impl std::fmt::Display for MlecScheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// SLEC placements compared in §5.1.3 (Fig. 13).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SlecPlacement {
    /// Clustered pools inside an enclosure; no rack tolerance.
    LocalCp,
    /// Whole-enclosure declustered pool; no rack tolerance.
    LocalDp,
    /// Clustered pools spanning `k+p` racks (one chunk per rack).
    NetCp,
    /// System-wide declustered placement, chunks in distinct racks.
    NetDp,
}

impl SlecPlacement {
    /// All four placements in the paper's presentation order.
    pub const ALL: [SlecPlacement; 4] = [
        SlecPlacement::LocalCp,
        SlecPlacement::LocalDp,
        SlecPlacement::NetCp,
        SlecPlacement::NetDp,
    ];

    /// Paper label, e.g. `"Loc-Cp"`.
    pub fn name(&self) -> &'static str {
        match self {
            SlecPlacement::LocalCp => "Loc-Cp",
            SlecPlacement::LocalDp => "Loc-Dp",
            SlecPlacement::NetCp => "Net-Cp",
            SlecPlacement::NetDp => "Net-Dp",
        }
    }
}

impl std::fmt::Display for SlecPlacement {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// Map from disks to local pools for a given local placement and stripe
/// width. Used both for MLEC local pools and local-SLEC pools.
#[derive(Debug, Clone)]
pub struct LocalPoolMap {
    geometry: Geometry,
    placement: Placement,
    /// Local stripe width `k_l + p_l`.
    stripe_width: u32,
    /// Disks per pool: `stripe_width` for Cp, `disks_per_enclosure` for Dp.
    pool_size: u32,
    pools_per_enclosure: u32,
}

impl LocalPoolMap {
    /// Build the pool map.
    ///
    /// # Panics
    /// For clustered placement, panics unless the enclosure size is a
    /// multiple of the stripe width (the paper's deployment constraint:
    /// "an enclosure must have a multiple of `k_l + p_l` disks").
    pub fn new(geometry: Geometry, placement: Placement, stripe_width: u32) -> LocalPoolMap {
        assert!(stripe_width >= 2, "stripe width must be at least 2");
        assert!(
            stripe_width <= geometry.disks_per_enclosure,
            "stripe width {} exceeds enclosure size {}",
            stripe_width,
            geometry.disks_per_enclosure
        );
        let (pool_size, pools_per_enclosure) = match placement {
            Placement::Clustered => {
                assert_eq!(
                    geometry.disks_per_enclosure % stripe_width,
                    0,
                    "enclosure size {} not a multiple of stripe width {}",
                    geometry.disks_per_enclosure,
                    stripe_width
                );
                (stripe_width, geometry.disks_per_enclosure / stripe_width)
            }
            Placement::Declustered => (geometry.disks_per_enclosure, 1),
        };
        LocalPoolMap {
            geometry,
            placement,
            stripe_width,
            pool_size,
            pools_per_enclosure,
        }
    }

    /// The geometry this map was built for.
    pub fn geometry(&self) -> &Geometry {
        &self.geometry
    }

    /// The local placement.
    pub fn placement(&self) -> Placement {
        self.placement
    }

    /// Local stripe width `k_l + p_l`.
    pub fn stripe_width(&self) -> u32 {
        self.stripe_width
    }

    /// Disks per pool (20 for the paper's `*/C`, 120 for `*/D`).
    pub fn pool_size(&self) -> u32 {
        self.pool_size
    }

    /// Pools per enclosure (6 for the paper's `*/C`, 1 for `*/D`).
    pub fn pools_per_enclosure(&self) -> u32 {
        self.pools_per_enclosure
    }

    /// Pools per rack.
    pub fn pools_per_rack(&self) -> u32 {
        self.pools_per_enclosure * self.geometry.enclosures_per_rack
    }

    /// Total pools in the system (2,880 for the paper's `*/C`, 480 for `*/D`).
    pub fn num_pools(&self) -> u32 {
        self.pools_per_rack() * self.geometry.racks
    }

    /// Pool containing `disk`.
    pub fn pool_of(&self, disk: DiskId) -> u32 {
        let encl = self.geometry.global_enclosure_of(disk);
        match self.placement {
            Placement::Clustered => {
                encl * self.pools_per_enclosure + self.geometry.slot_of(disk) / self.stripe_width
            }
            Placement::Declustered => encl,
        }
    }

    /// Rack containing pool `pool`.
    pub fn rack_of_pool(&self, pool: u32) -> RackId {
        pool / self.pools_per_rack()
    }

    /// Position of the pool within its rack, `[0, pools_per_rack)` — the
    /// "same local pool position" coordinate that network-clustered pooling
    /// groups by.
    pub fn position_in_rack(&self, pool: u32) -> u32 {
        pool % self.pools_per_rack()
    }

    /// The disks of pool `pool`, as a contiguous id range.
    pub fn disks_of_pool(&self, pool: u32) -> std::ops::Range<DiskId> {
        let start = pool * self.pool_size;
        start..start + self.pool_size
    }

    /// Pool capacity in TB (400 TB for the paper's `*/C`, 2,400 for `*/D`).
    pub fn pool_capacity_tb(&self) -> f64 {
        self.pool_size as f64 * self.geometry.disk_capacity_tb
    }
}

/// Map from local pools to network pools for network-*clustered* MLEC
/// (`C/*` schemes): racks are partitioned into groups of `k_n + p_n`, and
/// the same-position local pools across a rack group form one network pool.
#[derive(Debug, Clone)]
pub struct NetworkPoolMap {
    /// Network stripe width `k_n + p_n` (also the rack-group size).
    rack_group_size: u32,
    pools_per_rack: u32,
    racks: u32,
}

impl NetworkPoolMap {
    /// Build the network pool map over `local` pools with network stripe
    /// width `k_n + p_n`.
    ///
    /// # Panics
    /// Panics unless the rack count is a multiple of `k_n + p_n` (the
    /// paper's deployment constraint for `C/*` schemes).
    pub fn new_clustered(local: &LocalPoolMap, network_stripe_width: u32) -> NetworkPoolMap {
        let racks = local.geometry().racks;
        assert!(network_stripe_width >= 2);
        assert_eq!(
            racks % network_stripe_width,
            0,
            "rack count {racks} not a multiple of network stripe width {network_stripe_width}"
        );
        NetworkPoolMap {
            rack_group_size: network_stripe_width,
            pools_per_rack: local.pools_per_rack(),
            racks,
        }
    }

    /// Number of rack groups.
    pub fn rack_groups(&self) -> u32 {
        self.racks / self.rack_group_size
    }

    /// Total network pools: `rack_groups * pools_per_rack`.
    pub fn num_network_pools(&self) -> u32 {
        self.rack_groups() * self.pools_per_rack
    }

    /// Network pool of a local pool, identified by `(rack, position)`.
    pub fn network_pool_of(&self, local_pool: u32) -> u32 {
        let rack = local_pool / self.pools_per_rack;
        let position = local_pool % self.pools_per_rack;
        (rack / self.rack_group_size) * self.pools_per_rack + position
    }

    /// Local pools per network pool (`k_n + p_n`).
    pub fn pools_per_network_pool(&self) -> u32 {
        self.rack_group_size
    }
}

/// The network-level loss rule: a network stripe is lost with `p_n + 1` of
/// its local stripes, so data can be lost once `p_n + 1` of the
/// `catastrophic` local pools sit in one network pool of a clustered
/// network (the same position in one group of `k_n + p_n` racks), or in
/// `p_n + 1` distinct racks of a declustered one.
pub fn network_data_loss(
    local: &LocalPoolMap,
    network: Placement,
    network_width: u32,
    pn: u32,
    catastrophic: impl IntoIterator<Item = u32>,
) -> bool {
    let mut slots: Vec<(u32, u32)> = catastrophic
        .into_iter()
        .map(|pool| {
            let rack = local.rack_of_pool(pool);
            match network {
                Placement::Clustered => (rack / network_width, local.position_in_rack(pool)),
                Placement::Declustered => (rack, 0),
            }
        })
        .collect();
    slots.sort_unstable();
    let threshold = pn as usize + 1;
    match network {
        Placement::Clustered => slots
            .chunk_by(|a, b| a == b)
            .any(|same| same.len() >= threshold),
        Placement::Declustered => {
            slots.dedup();
            slots.len() >= threshold
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn network_data_loss_counts_network_pools_for_c_and_racks_for_d() {
        // The paper's (10+2) network: p_n = 2, rack groups of 12.
        let (width, pn) = (12, 2);
        for local in [Placement::Clustered, Placement::Declustered] {
            let pools = LocalPoolMap::new(Geometry::paper_default(), local, 20);
            let pool = |rack: u32, position: u32| rack * pools.pools_per_rack() + position;
            let loss = |network, set: &[u32]| {
                network_data_loss(&pools, network, width, pn, set.iter().copied())
            };
            let (c, d) = (Placement::Clustered, Placement::Declustered);
            // Three pools at one position of rack group 0: one network pool.
            let one_network_pool = [pool(0, 5), pool(1, 5), pool(11, 5)];
            assert!(loss(c, &one_network_pool) && loss(d, &one_network_pool));
            // Three racks of group 0, but two positions: two network pools.
            let two_positions = [pool(0, 5), pool(1, 5), pool(2, 6)];
            assert!(!loss(c, &two_positions) && loss(d, &two_positions));
            // One position, but rack 12 opens rack group 1.
            let two_groups = [pool(0, 5), pool(1, 5), pool(12, 5)];
            assert!(!loss(c, &two_groups) && loss(d, &two_groups));
            // Three pools in two racks: neither rule fires.
            let two_racks = [pool(0, 5), pool(0, 6), pool(1, 5)];
            assert!(!loss(c, &two_racks) && !loss(d, &two_racks));
            // Four pools, three of them in one network pool.
            let four = [pool(3, 1), pool(0, 5), pool(4, 5), pool(7, 5)];
            assert!(loss(c, &four) && loss(d, &four));
            assert!(!loss(c, &[]) && !loss(d, &[]));
        }
    }

    #[test]
    fn scheme_names_match_paper() {
        assert_eq!(MlecScheme::CC.name(), "C/C");
        assert_eq!(MlecScheme::CD.name(), "C/D");
        assert_eq!(MlecScheme::DC.name(), "D/C");
        assert_eq!(MlecScheme::DD.name(), "D/D");
        assert_eq!(
            MlecScheme::ALL.map(|s| s.name()),
            ["C/C", "C/D", "D/C", "D/D"].map(String::from)
        );
    }

    #[test]
    fn paper_clustered_pools() {
        // (17+3) local code: 20-disk pools, 6 per enclosure, 48 per rack,
        // 2,880 in the system, 400 TB each (§3 and Table 2).
        let g = Geometry::paper_default();
        let map = LocalPoolMap::new(g, Placement::Clustered, 20);
        assert_eq!(map.pool_size(), 20);
        assert_eq!(map.pools_per_enclosure(), 6);
        assert_eq!(map.pools_per_rack(), 48);
        assert_eq!(map.num_pools(), 2880);
        assert!((map.pool_capacity_tb() - 400.0).abs() < 1e-9);
    }

    #[test]
    fn paper_declustered_pools() {
        // Local-Dp pool = whole 120-disk enclosure: 480 pools, 2,400 TB each.
        let g = Geometry::paper_default();
        let map = LocalPoolMap::new(g, Placement::Declustered, 20);
        assert_eq!(map.pool_size(), 120);
        assert_eq!(map.num_pools(), 480);
        assert!((map.pool_capacity_tb() - 2400.0).abs() < 1e-9);
    }

    #[test]
    fn pool_of_is_consistent_with_disks_of_pool() {
        let g = Geometry::small_test();
        for placement in [Placement::Clustered, Placement::Declustered] {
            let map = LocalPoolMap::new(g, placement, 4);
            for pool in 0..map.num_pools() {
                for disk in map.disks_of_pool(pool) {
                    assert_eq!(map.pool_of(disk), pool, "{placement:?} disk {disk}");
                }
            }
            // Every disk belongs to exactly one pool (covered by ranges).
            let covered: u32 = (0..map.num_pools())
                .map(|p| map.disks_of_pool(p).len() as u32)
                .sum();
            assert_eq!(covered, g.total_disks());
        }
    }

    #[test]
    fn pool_rack_and_position() {
        let g = Geometry::paper_default();
        let map = LocalPoolMap::new(g, Placement::Clustered, 20);
        // Pool 50 is in rack 1 (48 pools per rack), position 2.
        assert_eq!(map.rack_of_pool(50), 1);
        assert_eq!(map.position_in_rack(50), 2);
        // Same-position pools in different racks differ by pools_per_rack.
        assert_eq!(map.position_in_rack(50 + 48), 2);
    }

    #[test]
    fn network_clustered_grouping() {
        // (10+2) network over the paper's geometry: 60 racks / 12 = 5 rack
        // groups; 5 * 48 = 240 network pools.
        let g = Geometry::paper_default();
        let local = LocalPoolMap::new(g, Placement::Clustered, 20);
        let net = NetworkPoolMap::new_clustered(&local, 12);
        assert_eq!(net.rack_groups(), 5);
        assert_eq!(net.num_network_pools(), 240);
        assert_eq!(net.pools_per_network_pool(), 12);
        // Local pools at the same position in racks 0 and 11 share a network
        // pool; racks 11 and 12 do not.
        let p_rack0 = 7; // rack 0 * 48 pools/rack + position 7
        let p_rack11 = 11 * 48 + 7;
        let p_rack12 = 12 * 48 + 7;
        assert_eq!(net.network_pool_of(p_rack0), net.network_pool_of(p_rack11));
        assert_ne!(net.network_pool_of(p_rack0), net.network_pool_of(p_rack12));
        // Different positions in the same rack group are different pools.
        assert_ne!(
            net.network_pool_of(p_rack0),
            net.network_pool_of(p_rack0 + 1)
        );
    }

    #[test]
    #[should_panic]
    fn network_clustered_requires_divisible_racks() {
        let g = Geometry::paper_default(); // 60 racks
        let local = LocalPoolMap::new(g, Placement::Clustered, 20);
        let _ = NetworkPoolMap::new_clustered(&local, 7); // 60 % 7 != 0
    }

    #[test]
    #[should_panic]
    fn clustered_requires_divisible_enclosure() {
        let g = Geometry::paper_default(); // 120 disks per enclosure
        let _ = LocalPoolMap::new(g, Placement::Clustered, 7); // 120 % 7 != 0
    }
}
