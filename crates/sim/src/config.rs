//! Simulation configuration: the paper's §3 setup plus the knobs the
//! evaluation sweeps.

use mlec_ec::MlecParams;
use mlec_topology::{Geometry, MlecScheme};
use mlec_units::{Bandwidth, Duration, Rate};

pub use mlec_units::HOURS_PER_YEAR;

/// Bandwidth, throttling, detection, and failure-rate parameters (§3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Raw per-disk I/O bandwidth in MB/s (200 in the paper).
    pub disk_bw_mbs: f64,
    /// Raw cross-rack network bandwidth per rack in Gbps (10 in the paper).
    pub rack_net_gbps: f64,
    /// Fraction of raw bandwidth available to repairs (0.2 in the paper:
    /// "disk and network traffics are both capped at 20%").
    pub repair_fraction: f64,
    /// Failure detection time in hours before a repair is triggered (0.5).
    pub detection_hours: f64,
    /// Annual failure rate of a disk (0.01 in the paper).
    pub afr: f64,
}

impl SimConfig {
    /// The paper's §3 values.
    pub const fn paper_default() -> SimConfig {
        SimConfig {
            disk_bw_mbs: 200.0,
            rack_net_gbps: 10.0,
            repair_fraction: 0.2,
            detection_hours: 0.5,
            afr: 0.01,
        }
    }

    /// Throttled per-disk repair bandwidth (40 MB/s in the paper).
    pub fn disk_repair_bw(&self) -> Bandwidth {
        Bandwidth::from_mbs(self.disk_bw_mbs) * self.repair_fraction
    }

    /// Throttled per-rack cross-rack repair bandwidth (250 MB/s).
    pub fn rack_repair_bw(&self) -> Bandwidth {
        Bandwidth::from_gbps(self.rack_net_gbps) * self.repair_fraction
    }

    /// Per-disk failure rate (the AFR, dimensioned).
    pub fn disk_failure_rate(&self) -> Rate {
        Rate::from_per_year(self.afr)
    }

    /// Failure-detection delay before a repair is triggered.
    pub fn detection(&self) -> Duration {
        Duration::from_hours(self.detection_hours)
    }
}

impl Default for SimConfig {
    fn default() -> SimConfig {
        SimConfig::paper_default()
    }
}

/// Everything needed to simulate one MLEC deployment: physical geometry,
/// code parameters, placement scheme, and environment knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MlecDeployment {
    /// Physical shape of the datacenter.
    pub geometry: Geometry,
    /// `(k_n + p_n) / (k_l + p_l)` code parameters.
    pub params: MlecParams,
    /// Placement scheme (C/C … D/D).
    pub scheme: MlecScheme,
    /// Bandwidth/failure environment.
    pub config: SimConfig,
}

impl MlecDeployment {
    /// The paper's reference deployment with the given scheme:
    /// 57,600 disks, `(10+2)/(17+3)`, §3 bandwidths.
    pub fn paper_default(scheme: MlecScheme) -> MlecDeployment {
        MlecDeployment {
            geometry: Geometry::paper_default(),
            params: MlecParams::paper_default(),
            scheme,
            config: SimConfig::paper_default(),
        }
    }

    /// Local stripe width `k_l + p_l`.
    pub fn local_width(&self) -> u32 {
        self.params.local.width() as u32
    }

    /// Network stripe width `k_n + p_n`.
    pub fn network_width(&self) -> u32 {
        self.params.network.width() as u32
    }

    /// The local pool map implied by the scheme's local placement.
    pub fn local_pools(&self) -> mlec_topology::LocalPoolMap {
        mlec_topology::LocalPoolMap::new(self.geometry, self.scheme.local, self.local_width())
    }

    /// Local stripes in one local pool: `pool_size × chunks_per_disk /
    /// (k_l + p_l)`.
    pub fn stripes_per_pool(&self) -> f64 {
        self.local_pools().pool_size() as f64 * self.geometry.chunks_per_disk()
            / self.local_width() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_bandwidths() {
        let c = SimConfig::paper_default();
        assert!((c.disk_repair_bw().to_mbs() - 40.0).abs() < 1e-9);
        assert!((c.rack_repair_bw().to_mbs() - 250.0).abs() < 1e-9);
    }

    #[test]
    fn failure_rate_units() {
        let c = SimConfig::paper_default();
        // 1% AFR: rate * hours-per-year == 0.01.
        assert!((c.disk_failure_rate().to_per_hour() * HOURS_PER_YEAR - 0.01).abs() < 1e-12);
        // The per-hour reading is bit-identical to the old inline division.
        assert_eq!(
            c.disk_failure_rate().to_per_hour().to_bits(),
            (c.afr / HOURS_PER_YEAR).to_bits()
        );
    }

    #[test]
    fn deployment_pools_follow_scheme() {
        let dep_c = MlecDeployment::paper_default(MlecScheme::CC);
        assert_eq!(dep_c.local_pools().pool_size(), 20);
        let dep_d = MlecDeployment::paper_default(MlecScheme::CD);
        assert_eq!(dep_d.local_pools().pool_size(), 120);
        assert_eq!(dep_c.network_width(), 12);
    }
}
