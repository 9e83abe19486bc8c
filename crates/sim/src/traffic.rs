//! Steady-state repair *network* traffic under independent failures
//! (paper §5.1.4 and §5.2.4, reported in text rather than figures).
//!
//! Every repaired byte in a network-placed code costs `reads + 1 write`
//! cross-rack transfers; local codes repair inside the rack and generate no
//! cross-rack traffic for single-disk failures. MLEC only touches the
//! network when a local pool goes catastrophic — which is why its repair
//! traffic is "a few TB every thousand of years" instead of "hundreds of TB
//! every day".
//!
//! Traffic is returned as a [`Volume`] (per day or per year as each
//! function documents); rates come in as [`Rate`] so hours-vs-years mixups
//! are unrepresentable.

use crate::config::{MlecDeployment, SimConfig};
use crate::repair::{plan_catastrophic_repair, RepairMethod};
use mlec_ec::LrcParams;
use mlec_topology::Geometry;
use mlec_units::{Rate, Volume};

/// Expected disk-failure rate of the whole system.
pub fn system_disk_failure_rate(geometry: &Geometry, config: &SimConfig) -> Rate {
    Rate::from_per_year(geometry.total_disks() as f64 * config.afr)
}

/// Daily cross-rack repair traffic of a network SLEC `(k + p)`:
/// every disk repair reads `k` chunks and writes 1 chunk across racks.
pub fn net_slec_daily_traffic(geometry: &Geometry, config: &SimConfig, k: usize) -> Volume {
    system_disk_failure_rate(geometry, config).to_per_day()
        * Volume::from_tb(geometry.disk_capacity_tb)
        * (k as f64 + 1.0)
}

/// Daily cross-rack repair traffic of a declustered LRC.
///
/// Chunks are spread one-per-rack, so every repair crosses racks. A data or
/// local-parity chunk is repaired from its local group (`k/l` reads); a
/// global parity needs a full decode (`k` reads).
pub fn lrc_daily_traffic(geometry: &Geometry, config: &SimConfig, params: LrcParams) -> Volume {
    let n = params.width() as f64;
    let group_reads = (params.k as f64 / params.l as f64).ceil();
    let avg_reads =
        ((params.k + params.l) as f64 * group_reads + params.r as f64 * params.k as f64) / n;
    system_disk_failure_rate(geometry, config).to_per_day()
        * Volume::from_tb(geometry.disk_capacity_tb)
        * (avg_reads + 1.0)
}

/// Yearly cross-rack repair traffic of MLEC, given the system's
/// catastrophic-local-pool rate (from simulation or the analytic chain)
/// and the repair method.
pub fn mlec_yearly_traffic(
    dep: &MlecDeployment,
    method: RepairMethod,
    catastrophic_rate: Rate,
) -> Volume {
    let per_event = Volume::from_tb(plan_catastrophic_repair(dep, method).cross_rack_traffic_tb);
    catastrophic_rate.to_per_year() * per_event
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HOURS_PER_YEAR;
    use mlec_topology::MlecScheme;

    #[test]
    fn paper_scale_failure_rate() {
        let g = Geometry::paper_default();
        let c = SimConfig::paper_default();
        // 57,600 disks at 1% AFR ≈ 1.58 failures/day.
        let f = system_disk_failure_rate(&g, &c).to_per_day();
        assert!((f - 1.577).abs() < 0.01, "f={f}");
        // Bit-identical to the historical inline expression.
        assert_eq!(
            f.to_bits(),
            (g.total_disks() as f64 * c.afr / (HOURS_PER_YEAR / 24.0)).to_bits()
        );
    }

    #[test]
    fn net_slec_hundreds_of_tb_per_day() {
        // Paper §5.1.4: "(7+3) network SLEC requires hundreds of TB repair
        // network traffic every day".
        let g = Geometry::paper_default();
        let c = SimConfig::paper_default();
        let daily = net_slec_daily_traffic(&g, &c, 7).to_tb();
        assert!(daily > 100.0 && daily < 500.0, "daily={daily}");
    }

    #[test]
    fn lrc_less_than_matched_slec() {
        // Paper §5.2.4: LRC repairs most failures from the small local
        // group. At matched width/overhead — (14,2,4) LRC vs (14+6) network
        // SLEC — LRC must move less.
        let g = Geometry::paper_default();
        let c = SimConfig::paper_default();
        let lrc = lrc_daily_traffic(&g, &c, LrcParams::new(14, 2, 4)).to_tb();
        let slec = net_slec_daily_traffic(&g, &c, 14).to_tb();
        assert!(lrc < slec, "lrc={lrc} slec={slec}");
        // ...but still a lot in absolute terms ("every repair still needs to
        // read and write over the network").
        assert!(lrc > 100.0);
    }

    #[test]
    fn mlec_orders_of_magnitude_below_slec() {
        // Paper §5.1.4: MLEC needs a few TB every *thousands of years*.
        // With a catastrophic rate of ~1e-5/system-year and R_MIN's 220 TB
        // per event, yearly traffic is ~2e-3 TB.
        let dep = MlecDeployment::paper_default(MlecScheme::CC);
        let yearly =
            mlec_yearly_traffic(&dep, RepairMethod::Min, Rate::from_per_year(1e-5)).to_tb();
        assert!(yearly < 0.01, "yearly={yearly}");
        // Versus SLEC's ~92,000 TB/year: >7 orders of magnitude apart.
        let slec_yearly =
            net_slec_daily_traffic(&Geometry::paper_default(), &SimConfig::paper_default(), 7)
                .to_tb()
                * 365.25;
        assert!(slec_yearly / yearly > 1e6);
    }
}
