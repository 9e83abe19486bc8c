//! Catastrophic-pool repair methods (paper §2.4, Fig 4) and their
//! cross-rack traffic / repair-time accounting (Fig 8, Fig 9).
//!
//! The evaluated scenario is the paper's fault injection (§3): `p_l + 1`
//! simultaneous disk failures in one local pool — the smallest catastrophic
//! (locally-unrecoverable) failure. Every quantity decomposes into:
//!
//! - *network volume*: bytes reconstructed via network-level parity;
//! - *local volume*: bytes reconstructed by the local repairer;
//! - *cross-rack traffic*: `wire volume × (k_n reads + 1 write)`;
//! - times from the Table 2 bandwidth model.
//!
//! [`RepairMethod`] is the one repair type: a closed set of six methods.
//! Each method differs only in how it splits one repair's volume
//! (`RepairMethod::split`, one `match`); [`RepairMethod::plan`] turns any
//! split into traffic and staged times through one shared tail.
//!
//! Beyond the paper's four, two traffic-reduced methods:
//!
//! - `R_LAYER` — repair layering à la Hu et al. ("Optimal Repair Layering
//!   for Erasure-Coded Data Centers"): surviving chunks of a lost stripe are
//!   gathered *within* each layer (rack) and only the minimal decoded
//!   partial crosses the rack boundary; the rest of the lost stripe is
//!   re-expanded locally, while recoverable failed chunks stream directly
//!   (R_FCO-style) so no local rebuild of them is needed. On clustered
//!   local placement every stripe is lost, so `R_LAYER` degenerates to
//!   `R_MIN`'s traffic.
//! - `R_PIGGY` — piggybacked sub-stripe scheduling in the spirit of
//!   Rashmi et al.'s Facebook-warehouse study: the repair of a lost chunk is
//!   split into `f` sub-stripes and companion reads are piggybacked so only
//!   a `γ = 1/2 + 1/(2f)` fraction of the helper bytes crosses racks, at
//!   the cost of `(1 − γ) · k_n` same-rack reads per rebuilt byte.
//!   Recoverable failed chunks stream at full wire volume; there is no
//!   local phase.

use crate::bandwidth::{catastrophic_pool_repair_bw, local_repair_bw, time_to_move};
use crate::census::prob_cover_all;
use crate::config::MlecDeployment;
use mlec_topology::Placement;
use mlec_units::Volume;

/// Repair methods: the paper's four (§2.4) plus the two beyond-the-paper
/// methods `R_LAYER` and `R_PIGGY`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RepairMethod {
    /// `R_ALL`: rebuild the entire local pool over the network. Black-box
    /// RBOD friendly, maximum traffic.
    All,
    /// `R_FCO`: rebuild only the failed chunks over the network. Requires
    /// cross-level failure reporting.
    Fco,
    /// `R_HYB`: network repair for lost local stripes only; everything else
    /// repaired locally.
    Hyb,
    /// `R_MIN`: two-stage — network-repair just enough chunks to make every
    /// lost stripe locally recoverable, then finish locally.
    Min,
    /// `R_LAYER`: gather-within-layer, decode-across (Hu et al.) — minimal
    /// decoded partials cross racks, recoverable chunks stream directly.
    Layer,
    /// `R_PIGGY`: piggybacked sub-stripe scheduling (Rashmi et al.) —
    /// trades extra same-rack reads for reduced cross-rack volume.
    Piggy,
}

impl RepairMethod {
    /// The paper's four methods in its presentation order. Figures that
    /// reproduce the paper exactly (fig08–fig10 defaults) iterate this.
    pub const PAPER: [RepairMethod; 4] = [
        RepairMethod::All,
        RepairMethod::Fco,
        RepairMethod::Hyb,
        RepairMethod::Min,
    ];

    /// Every method, paper methods first, then the beyond-the-paper
    /// `R_LAYER` and `R_PIGGY`.
    pub const EXTENDED: [RepairMethod; 6] = [
        RepairMethod::All,
        RepairMethod::Fco,
        RepairMethod::Hyb,
        RepairMethod::Min,
        RepairMethod::Layer,
        RepairMethod::Piggy,
    ];

    /// Paper label, e.g. `"R_HYB"`.
    pub fn name(&self) -> &'static str {
        match self {
            RepairMethod::All => "R_ALL",
            RepairMethod::Fco => "R_FCO",
            RepairMethod::Hyb => "R_HYB",
            RepairMethod::Min => "R_MIN",
            RepairMethod::Layer => "R_LAYER",
            RepairMethod::Piggy => "R_PIGGY",
        }
    }

    /// Parse a paper-style label (`"R_HYB"`, case-insensitive).
    pub fn parse(label: &str) -> Option<RepairMethod> {
        RepairMethod::EXTENDED
            .into_iter()
            .find(|m| m.name().eq_ignore_ascii_case(label))
    }

    /// Whether the network repairer knows which exact chunks are lost
    /// (everything but `R_ALL`). Drives the §4.2.3 F#1 durability effect:
    /// chunk knowledge lets the system survive `p_n + 1` catastrophic pools
    /// with no actually-lost network stripe.
    pub fn has_chunk_knowledge(&self) -> bool {
        *self != RepairMethod::All
    }

    /// Identity. Only `benchmark/src/campaign.rs` calls it, to fill
    /// `SystemTrial::strategy`; no workspace code does.
    #[doc(hidden)]
    pub fn strategy(self) -> RepairMethod {
        self
    }

    /// The method's volume split of one catastrophic-pool repair.
    fn split(self, dep: &MlecDeployment, injected: &InjectedFailure) -> RepairSplit {
        match self {
            RepairMethod::All => {
                let pool_capacity = Volume::from_tb(dep.local_pools().pool_capacity_tb());
                full_wire(pool_capacity, Volume::ZERO, 0)
            }
            RepairMethod::Fco => full_wire(injected.failed_volume, Volume::ZERO, 0),
            RepairMethod::Hyb => full_wire(
                injected.lost_chunk_volume,
                injected.failed_volume - injected.lost_chunk_volume,
                1,
            ),
            RepairMethod::Min => {
                let network = min_stage1_network(dep, injected);
                full_wire(
                    network,
                    injected.failed_volume - network,
                    dep.params.local.p as u32,
                )
            }
            RepairMethod::Layer => {
                let kn = dep.params.network.k as f64;
                // Aggregated partials for lost stripes: the minimal
                // decode-across volume, produced by in-rack gather of the
                // k_n helper reads.
                let aggregated = min_stage1_network(dep, injected);
                // Recoverable failed chunks ship directly (their stripes
                // still have ≤ p_l failures, but streaming them network-side
                // frees the local repairer for the lost-stripe re-expansion).
                let direct = injected.failed_volume - injected.lost_chunk_volume;
                let network = aggregated + direct;
                RepairSplit {
                    network_volume: network,
                    wire_volume: network,
                    local_volume: injected.lost_chunk_volume - aggregated,
                    local_chunks_per_stripe: dep.params.local.p as u32,
                    // The in-rack gather still reads k_n helper bytes per
                    // aggregated byte; they just never cross a rack boundary.
                    local_read_extra: aggregated * kn,
                }
            }
            RepairMethod::Piggy => {
                let kn = dep.params.network.k as f64;
                let f = injected.failed_disks as f64;
                // Piggyback savings factor over the lost-chunk helper
                // traffic: γ = 1/2 + 1/(2f) of the helper bytes still cross
                // racks. With the injected f = p_l + 1 failures this is
                // always ≥ 1/f, so R_PIGGY never undercuts R_MIN's minimal
                // decode volume.
                let gamma = 0.5 + 1.0 / (2.0 * f);
                let direct = injected.failed_volume - injected.lost_chunk_volume;
                let wire = gamma * injected.lost_chunk_volume + direct;
                RepairSplit {
                    network_volume: injected.failed_volume,
                    wire_volume: wire,
                    local_volume: Volume::ZERO,
                    local_chunks_per_stripe: 0,
                    local_read_extra: (1.0 - gamma) * kn * injected.lost_chunk_volume,
                }
            }
        }
    }

    /// The full repair plan for the given failure census: the method's
    /// volume split, then the shared accounting tail — `k_n` helper reads
    /// plus one rebuilt-chunk write per wire byte, and staged times under
    /// the Table 2 bandwidth model.
    pub fn plan(self, dep: &MlecDeployment, injected: &InjectedFailure) -> CatastrophicRepairPlan {
        let split = self.split(dep, injected);
        let cross_rack_traffic = split.wire_volume * (dep.params.network.k as f64 + 1.0);
        let network_time = dep.config.detection()
            + time_to_move(split.wire_volume, catastrophic_pool_repair_bw(dep));
        let local_bw = local_repair_bw(
            dep,
            split.local_chunks_per_stripe.max(1),
            injected.failed_disks,
        );
        let local_time = time_to_move(split.local_volume, local_bw);
        CatastrophicRepairPlan {
            network_volume_tb: split.network_volume.to_tb(),
            local_volume_tb: split.local_volume.to_tb(),
            cross_rack_traffic_tb: cross_rack_traffic.to_tb(),
            network_time_h: network_time.to_hours(),
            local_time_h: local_time.to_hours(),
            local_read_extra_tb: split.local_read_extra.to_tb(),
        }
    }
}

impl std::fmt::Display for RepairMethod {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// Volumes and timings of one catastrophic-pool repair.
///
/// This is the *rendering boundary* of the repair model: the fields are
/// suffixed `f64`s (not [`Volume`]/[`mlec_units::Duration`] newtypes) because
/// the plan feeds straight into figure JSON and CLI tables. All arithmetic that
/// produces these numbers happens in typed quantities inside
/// [`RepairMethod::plan`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CatastrophicRepairPlan {
    /// Bytes (TB) reconstructed via network-level parity.
    pub network_volume_tb: f64,
    /// Bytes (TB) reconstructed by the local repairer.
    pub local_volume_tb: f64,
    /// Cross-rack bytes moved: `wire volume * (k_n + 1)`. The wire volume
    /// equals the network volume for every method that ships full helper
    /// chunks; piggybacked schedules move less.
    pub cross_rack_traffic_tb: f64,
    /// Network-phase repair time, hours (includes detection).
    pub network_time_h: f64,
    /// Local-phase repair time, hours.
    pub local_time_h: f64,
    /// Extra same-rack companion reads (TB) spent to shrink the wire
    /// volume. Zero for the four paper methods.
    pub local_read_extra_tb: f64,
}

/// Stripe-loss census of the injected `p_l + 1`-failure scenario.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InjectedFailure {
    /// Failed disks (`p_l + 1`).
    pub failed_disks: u32,
    /// Total failed bytes.
    pub failed_volume: Volume,
    /// Expected lost local stripes.
    pub lost_stripes: f64,
    /// Bytes in lost-stripe failed chunks.
    pub lost_chunk_volume: Volume,
    /// Stripes in the pool.
    pub total_stripes: f64,
}

/// Compute the loss census of `p_l + 1` simultaneous failures in one pool.
pub fn inject_catastrophic(dep: &MlecDeployment) -> InjectedFailure {
    let f = dep.params.local.p as u32 + 1;
    let pools = dep.local_pools();
    let d = pools.pool_size();
    let w = dep.local_width();
    let chunk = Volume::from_kb(dep.geometry.chunk_kb);
    let pool_chunks = d as f64 * dep.geometry.chunks_per_disk();
    let total_stripes = pool_chunks / w as f64;
    let failed_volume = f as f64 * Volume::from_tb(dep.geometry.disk_capacity_tb);

    let (lost_stripes, lost_chunk_volume) = match dep.scheme.local {
        // Clustered: every stripe spans the whole pool, so every stripe has
        // all f failed chunks — the entire failed volume is lost-stripe data.
        Placement::Clustered => (total_stripes, failed_volume),
        // Declustered: only stripes covering all f failed disks are lost.
        Placement::Declustered => {
            let lost = total_stripes * prob_cover_all(d, w, f);
            (lost, lost * f as f64 * chunk)
        }
    };
    InjectedFailure {
        failed_disks: f,
        failed_volume,
        lost_stripes,
        lost_chunk_volume,
        total_stripes,
    }
}

/// The chunk-knowledge survival factor: the probability that an overlap of
/// `p_n + 1` catastrophic pools, each with `lost_stripes` of its
/// `stripes_per_pool` local stripes lost, actually loses a network stripe.
///
/// Methods without chunk knowledge (`R_ALL`) must assume every stripe of a
/// catastrophic pool is lost → factor 1. With knowledge, only the pools'
/// actually-lost local stripes matter; for declustered local pools those
/// are a ~`6e-4` fraction, making a real loss spectacularly unlikely (the
/// paper's "as low as 0.03%" for D/D, §4.2.3 F#1). The system simulator
/// draws its data-loss coin from this, and the splitting estimator's stage
/// 2 scales its overlap rate by it.
pub fn chunk_knowledge_survival(
    dep: &MlecDeployment,
    method: RepairMethod,
    lost_stripes: f64,
    stripes_per_pool: f64,
) -> f64 {
    let pn1 = dep.params.network.p as u32 + 1;
    let g = dep.network_width() as f64;
    let lost_frac = if method.has_chunk_knowledge() {
        (lost_stripes / stripes_per_pool).min(1.0)
    } else {
        1.0
    };
    match dep.scheme.network {
        Placement::Clustered => {
            // Network stripes pair up same-position local stripes across the
            // group: S per network pool; loss needs the same network stripe
            // lost in all p_n+1 overlapping pools.
            let expected = stripes_per_pool * lost_frac.powi(pn1 as i32);
            -(-expected).exp_m1()
        }
        Placement::Declustered => {
            // Network stripes pick `g` of all P pools (distinct racks);
            // count those covering the p_n+1 specific overlapping pools.
            let p_total = dep.local_pools().num_pools() as f64;
            let n_net_stripes = p_total * stripes_per_pool / g;
            let mut cover = 1.0;
            for i in 0..pn1 {
                cover *= (g - i as f64) / (p_total - i as f64);
            }
            let expected = n_net_stripes * cover * lost_frac.powi(pn1 as i32);
            -(-expected).exp_m1()
        }
    }
}

/// Plan a catastrophic-pool repair under the given method (Fig 8 / Fig 9):
/// [`RepairMethod::plan`] over the [`inject_catastrophic`] census.
pub fn plan_catastrophic_repair(
    dep: &MlecDeployment,
    method: RepairMethod,
) -> CatastrophicRepairPlan {
    let injected = inject_catastrophic(dep);
    method.plan(dep, &injected)
}

/// The volume split a method assigns to one catastrophic-pool repair;
/// [`RepairMethod::plan`] derives traffic and times from it.
struct RepairSplit {
    /// Bytes reconstructed via network-level parity.
    network_volume: Volume,
    /// Bytes that cross rack boundaries per `(k_n reads + 1 write)`
    /// accounting unit. Equal to `network_volume` for every method that
    /// ships full helper chunks (the four paper methods and `R_LAYER`);
    /// smaller for piggybacked schedules.
    wire_volume: Volume,
    /// Bytes reconstructed by the local repairer.
    local_volume: Volume,
    /// Failed chunks per stripe the local repairer rebuilds (drives the
    /// Table 2 local-bandwidth model; `0` means "no local phase").
    local_chunks_per_stripe: u32,
    /// Extra same-rack companion reads (beyond the cross-rack helper
    /// bytes) the method spends to reduce wire volume. Zero for the
    /// four paper methods.
    local_read_extra: Volume,
}

/// A split where every helper byte crosses racks (paper methods).
fn full_wire(
    network_volume: Volume,
    local_volume: Volume,
    local_chunks_per_stripe: u32,
) -> RepairSplit {
    RepairSplit {
        network_volume,
        wire_volume: network_volume,
        local_volume,
        local_chunks_per_stripe,
        local_read_extra: Volume::ZERO,
    }
}

/// `R_MIN`'s stage-1 network volume: the minimal decode-across bytes that
/// make every lost stripe locally recoverable (`f − p_l` chunks per lost
/// stripe). Shared by `R_MIN` and `R_LAYER`.
fn min_stage1_network(dep: &MlecDeployment, injected: &InjectedFailure) -> Volume {
    let chunk = Volume::from_kb(dep.geometry.chunk_kb);
    let pl = dep.params.local.p as f64;
    let per_stripe = (injected.failed_disks as f64 - pl).max(0.0);
    injected.lost_stripes * per_stripe * chunk
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlec_topology::MlecScheme;

    fn dep(scheme: MlecScheme) -> MlecDeployment {
        MlecDeployment::paper_default(scheme)
    }

    fn traffic(scheme: MlecScheme, method: RepairMethod) -> f64 {
        plan_catastrophic_repair(&dep(scheme), method).cross_rack_traffic_tb
    }

    #[test]
    fn fig8_rall_traffic() {
        // R_ALL rebuilds the whole pool: 400 TB * 11 = 4,400 TB for */C,
        // 2,400 TB * 11 = 26,400 TB for */D (paper's exact numbers).
        assert!((traffic(MlecScheme::CC, RepairMethod::All) - 4400.0).abs() < 1.0);
        assert!((traffic(MlecScheme::DC, RepairMethod::All) - 4400.0).abs() < 1.0);
        assert!((traffic(MlecScheme::CD, RepairMethod::All) - 26400.0).abs() < 1.0);
        assert!((traffic(MlecScheme::DD, RepairMethod::All) - 26400.0).abs() < 1.0);
    }

    #[test]
    fn fig8_rfco_traffic() {
        // R_FCO: 4 failed disks * 20 TB * 11 = 880 TB for every scheme.
        for scheme in MlecScheme::ALL {
            assert!(
                (traffic(scheme, RepairMethod::Fco) - 880.0).abs() < 1.0,
                "{scheme}"
            );
        }
    }

    #[test]
    fn fig8_rhyb_traffic() {
        // R_HYB: no gain over R_FCO for */C (all stripes lost on simultaneous
        // injection), 3.1 TB for */D (paper's exact number).
        assert!((traffic(MlecScheme::CC, RepairMethod::Hyb) - 880.0).abs() < 1.0);
        assert!((traffic(MlecScheme::DC, RepairMethod::Hyb) - 880.0).abs() < 1.0);
        let cd = traffic(MlecScheme::CD, RepairMethod::Hyb);
        assert!((cd - 3.1).abs() < 0.1, "cd={cd}");
        let dd = traffic(MlecScheme::DD, RepairMethod::Hyb);
        assert!((dd - 3.1).abs() < 0.1, "dd={dd}");
    }

    #[test]
    fn fig8_rmin_traffic_4x_below_rhyb() {
        // R_MIN repairs 1 of 4 failed chunks per lost stripe over the
        // network: exactly 4x less traffic than R_HYB here.
        for scheme in MlecScheme::ALL {
            let hyb = traffic(scheme, RepairMethod::Hyb);
            let min = traffic(scheme, RepairMethod::Min);
            assert!(
                (hyb / min - 4.0).abs() < 0.01,
                "{scheme}: hyb={hyb} min={min}"
            );
        }
        assert!((traffic(MlecScheme::CC, RepairMethod::Min) - 220.0).abs() < 0.5);
    }

    #[test]
    fn fig9_rfco_network_time_5_to_30x_below_rall() {
        // Paper F#1: R_FCO reduces network repair time by 5-30x.
        for (scheme, lo, hi) in [
            (MlecScheme::CC, 4.5, 5.5),
            (MlecScheme::CD, 25.0, 32.0),
            (MlecScheme::DC, 4.5, 5.5),
            (MlecScheme::DD, 25.0, 32.0),
        ] {
            let all = plan_catastrophic_repair(&dep(scheme), RepairMethod::All).network_time_h;
            let fco = plan_catastrophic_repair(&dep(scheme), RepairMethod::Fco).network_time_h;
            let ratio = all / fco;
            assert!(ratio > lo && ratio < hi, "{scheme}: ratio={ratio}");
        }
    }

    #[test]
    fn fig9_rhyb_on_cd_similar_to_rfco_total() {
        // Paper F#2: on C/D, R_HYB takes a similar total time to R_FCO.
        let fco = plan_catastrophic_repair(&dep(MlecScheme::CD), RepairMethod::Fco);
        let hyb = plan_catastrophic_repair(&dep(MlecScheme::CD), RepairMethod::Hyb);
        assert!(hyb.local_time_h > 0.0);
        // The phases run back to back.
        let total = |p: &CatastrophicRepairPlan| p.network_time_h + p.local_time_h;
        let ratio = total(&hyb) / total(&fco);
        assert!(ratio > 0.8 && ratio < 1.2, "ratio={ratio}");
    }

    #[test]
    fn fig9_rmin_total_longer_but_network_shorter() {
        // Paper F#3: R_MIN moves the least data over the network but can
        // take longer in total (clearest on C/C).
        let fco = plan_catastrophic_repair(&dep(MlecScheme::CC), RepairMethod::Fco);
        let min = plan_catastrophic_repair(&dep(MlecScheme::CC), RepairMethod::Min);
        assert!(min.network_time_h < fco.network_time_h);
        assert!(min.network_time_h + min.local_time_h > fco.network_time_h + fco.local_time_h);
    }

    #[test]
    fn injection_census() {
        let inj = inject_catastrophic(&dep(MlecScheme::CD));
        assert_eq!(inj.failed_disks, 4);
        assert!((inj.failed_volume.to_tb() - 80.0).abs() < 1e-9);
        // ~553k lost stripes (paper's R_HYB math).
        assert!(
            (inj.lost_stripes - 553_000.0).abs() < 2_000.0,
            "{}",
            inj.lost_stripes
        );
        let inj_c = inject_catastrophic(&dep(MlecScheme::CC));
        assert!((inj_c.lost_chunk_volume.to_tb() - 80.0).abs() < 1e-9);
        assert!((inj_c.lost_stripes - inj_c.total_stripes).abs() < 1e-3);
    }

    #[test]
    fn volume_conservation() {
        // Failed volume = network + local volume for chunk-level methods.
        for scheme in MlecScheme::ALL {
            for method in [RepairMethod::Fco, RepairMethod::Hyb, RepairMethod::Min] {
                let plan = plan_catastrophic_repair(&dep(scheme), method);
                let total = plan.network_volume_tb + plan.local_volume_tb;
                assert!((total - 80.0).abs() < 1e-6, "{scheme} {method}: {total}");
            }
        }
    }

    #[test]
    fn method_metadata() {
        assert_eq!(RepairMethod::All.name(), "R_ALL");
        assert!(!RepairMethod::All.has_chunk_knowledge());
        assert!(RepairMethod::Min.has_chunk_knowledge());
        assert!(RepairMethod::Layer.has_chunk_knowledge());
        assert!(RepairMethod::Piggy.has_chunk_knowledge());
        assert_eq!(RepairMethod::PAPER.len(), 4);
        assert_eq!(RepairMethod::EXTENDED.len(), 6);
        assert_eq!(&RepairMethod::EXTENDED[..4], &RepairMethod::PAPER[..]);
    }

    #[test]
    fn method_labels_round_trip() {
        for method in RepairMethod::EXTENDED {
            assert_eq!(RepairMethod::parse(method.name()), Some(method));
            assert_eq!(
                RepairMethod::parse(&method.name().to_ascii_lowercase()),
                Some(method)
            );
        }
        assert_eq!(RepairMethod::parse("R_NOPE"), None);
    }

    #[test]
    fn layer_traffic_between_min_and_fco() {
        for scheme in MlecScheme::ALL {
            let dep = dep(scheme);
            let min = plan_catastrophic_repair(&dep, RepairMethod::Min);
            let fco = plan_catastrophic_repair(&dep, RepairMethod::Fco);
            let layer = plan_catastrophic_repair(&dep, RepairMethod::Layer);
            assert!(
                layer.cross_rack_traffic_tb >= min.cross_rack_traffic_tb,
                "{scheme}"
            );
            assert!(
                layer.cross_rack_traffic_tb < fco.cross_rack_traffic_tb + 1e-9,
                "{scheme}"
            );
        }
        // Clustered locals: every stripe is lost, so R_LAYER degenerates to
        // R_MIN's wire volume — 220 TB on C/C (paper Fig 8 scale).
        let cc = plan_catastrophic_repair(&dep(MlecScheme::CC), RepairMethod::Layer);
        assert!((cc.cross_rack_traffic_tb - 220.0).abs() < 0.5);
    }

    #[test]
    fn piggy_traffic_gamma_of_fco() {
        // On C/C everything is lost-chunk volume: wire = γ · 80 TB with
        // γ = 1/2 + 1/(2·4) = 0.625 → 550 TB of cross-rack traffic.
        let cc = plan_catastrophic_repair(&dep(MlecScheme::CC), RepairMethod::Piggy);
        assert!((cc.cross_rack_traffic_tb - 550.0).abs() < 0.5);
        // And the shed helper bytes show up as same-rack companion reads.
        assert!(cc.local_read_extra_tb > 0.0);
        assert!((cc.local_read_extra_tb - 0.375 * 10.0 * 80.0).abs() < 1e-6);
    }

    #[test]
    fn new_strategies_strictly_beat_rall_on_paper_deployments() {
        for scheme in MlecScheme::ALL {
            let dep = dep(scheme);
            let all = plan_catastrophic_repair(&dep, RepairMethod::All);
            for method in [RepairMethod::Layer, RepairMethod::Piggy] {
                let plan = plan_catastrophic_repair(&dep, method);
                assert!(
                    plan.cross_rack_traffic_tb < all.cross_rack_traffic_tb,
                    "{scheme} {method}: {} !< {}",
                    plan.cross_rack_traffic_tb,
                    all.cross_rack_traffic_tb
                );
            }
        }
    }

    #[test]
    fn new_strategies_conserve_failed_volume() {
        for scheme in MlecScheme::ALL {
            let dep = dep(scheme);
            let injected = inject_catastrophic(&dep);
            for method in [RepairMethod::Layer, RepairMethod::Piggy] {
                let plan = plan_catastrophic_repair(&dep, method);
                let total = plan.network_volume_tb + plan.local_volume_tb;
                assert!(
                    (total - injected.failed_volume.to_tb()).abs() < 1e-6,
                    "{scheme} {method}: {total}"
                );
            }
        }
    }

    #[test]
    fn piggy_network_time_below_fco() {
        // Fewer wire bytes through the same bottleneck: the network phase
        // finishes sooner than R_FCO on every paper deployment.
        for scheme in MlecScheme::ALL {
            let dep = dep(scheme);
            let fco = plan_catastrophic_repair(&dep, RepairMethod::Fco);
            let piggy = plan_catastrophic_repair(&dep, RepairMethod::Piggy);
            assert!(piggy.network_time_h < fco.network_time_h, "{scheme}");
            assert!(piggy.local_time_h == 0.0, "{scheme}");
        }
    }
}
