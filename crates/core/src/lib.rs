//! `mlec-core`: the public facade of the MLEC analysis suite.
//!
//! Downstream users get one crate that re-exports the full stack and exposes
//! [`experiments`] — a runner per table/figure of the paper — plus the
//! [`MlecSystem`] convenience type for interactive exploration (see the
//! workspace `examples/`).
//!
//! ```
//! use mlec_core::MlecSystem;
//! use mlec_core::topology::MlecScheme;
//! use mlec_core::sim::RepairMethod;
//!
//! let system = MlecSystem::paper_default(MlecScheme::CD);
//! let plan = system.plan_catastrophic_repair(RepairMethod::Hyb);
//! assert!(plan.cross_rack_traffic_tb < 5.0); // the paper's 3.1 TB
//! ```

pub mod advisor;
pub mod experiments;
pub mod figdata;
pub mod figures;
pub mod registry;
pub mod report;

pub use mlec_analysis as analysis;
pub use mlec_ec as ec;
pub use mlec_gf as gf;
pub use mlec_sim as sim;
pub use mlec_topology as topology;
pub use mlec_units as units;

use mlec_analysis::splitting;
use mlec_ec::MlecParams;
use mlec_sim::config::MlecDeployment;
use mlec_sim::repair::{plan_catastrophic_repair, CatastrophicRepairPlan, RepairMethod};
use mlec_sim::SimConfig;
use mlec_topology::{Geometry, MlecScheme};

/// A configured MLEC system: the one-stop entry point of the public API.
#[derive(Debug, Clone, Copy)]
pub struct MlecSystem {
    deployment: MlecDeployment,
}

impl MlecSystem {
    /// The paper's §3 reference system with the chosen placement scheme.
    pub fn paper_default(scheme: MlecScheme) -> MlecSystem {
        MlecSystem {
            deployment: MlecDeployment::paper_default(scheme),
        }
    }

    /// A fully custom system.
    pub fn new(
        geometry: Geometry,
        params: MlecParams,
        scheme: MlecScheme,
        config: SimConfig,
    ) -> MlecSystem {
        MlecSystem {
            deployment: MlecDeployment {
                geometry,
                params,
                scheme,
                config,
            },
        }
    }

    /// The underlying deployment description.
    pub fn deployment(&self) -> &MlecDeployment {
        &self.deployment
    }

    /// Available repair bandwidth for a single disk failure (Table 2).
    pub fn single_disk_repair_bw_mbs(&self) -> f64 {
        mlec_sim::bandwidth::single_disk_repair_bw(&self.deployment).to_mbs()
    }

    /// Available repair bandwidth for a catastrophic pool (Table 2).
    pub fn catastrophic_pool_repair_bw_mbs(&self) -> f64 {
        mlec_sim::bandwidth::catastrophic_pool_repair_bw(&self.deployment).to_mbs()
    }

    /// Time to repair a single failed disk, hours (Fig 6a).
    pub fn single_disk_repair_hours(&self) -> f64 {
        mlec_sim::bandwidth::single_disk_repair_time(&self.deployment).to_hours()
    }

    /// Traffic/time plan for repairing a catastrophic pool (Fig 8, Fig 9).
    pub fn plan_catastrophic_repair(&self, method: RepairMethod) -> CatastrophicRepairPlan {
        plan_catastrophic_repair(&self.deployment, method)
    }

    /// Catastrophic local-pool probability per system-year (Fig 7).
    pub fn catastrophic_probability_per_year(&self) -> f64 {
        mlec_analysis::chains::system_catastrophic_rate(&self.deployment).to_per_year()
    }

    /// One-year durability in nines under a repair method (Fig 10).
    pub fn durability_nines(&self, method: RepairMethod) -> f64 {
        splitting::mlec_durability_nines(&self.deployment, method)
    }

    /// PDL under a correlated burst of `failures` disks across
    /// `affected_racks` racks (Fig 5 cell).
    pub fn burst_pdl(&self, failures: u32, affected_racks: u32, samples: u32, seed: u64) -> f64 {
        mlec_analysis::burst::mlec_burst_pdl(
            &self.deployment,
            failures,
            affected_racks,
            samples,
            seed,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn facade_exposes_paper_numbers() {
        let cc = MlecSystem::paper_default(MlecScheme::CC);
        assert!((cc.single_disk_repair_bw_mbs() - 40.0).abs() < 0.5);
        assert!((cc.catastrophic_pool_repair_bw_mbs() - 250.0).abs() < 0.5);
        let plan = cc.plan_catastrophic_repair(RepairMethod::All);
        assert!((plan.cross_rack_traffic_tb - 4400.0).abs() < 1.0);
    }

    #[test]
    fn custom_system_construction() {
        let system = MlecSystem::new(
            Geometry::small_test(),
            MlecParams::new(2, 1, 3, 1),
            MlecScheme::CC,
            SimConfig::paper_default(),
        );
        assert!(system.single_disk_repair_bw_mbs() > 0.0);
    }

    #[test]
    fn durability_ordering_via_facade() {
        let system = MlecSystem::paper_default(MlecScheme::CD);
        assert!(
            system.durability_nines(RepairMethod::Min)
                >= system.durability_nines(RepairMethod::All)
        );
    }
}
