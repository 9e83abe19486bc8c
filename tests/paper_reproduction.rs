//! Cross-crate integration tests: the paper's headline numbers and finding
//! orderings, exercised through the `mlec-core` experiment runners exactly
//! as the figure binaries do, and through the layer functions they call.

use mlec_analysis::burst::mlec_burst_pdl;
use mlec_core::figures::durability::{fig10_durability, fig7_catastrophic_prob};
use mlec_core::figures::repair::{fig8_fig9_repair_methods, table2_and_fig6};
use mlec_core::figures::summary::repair_traffic_comparison;
use mlec_sim::config::MlecDeployment;
use mlec_sim::repair::plan_catastrophic_repair;
use mlec_sim::RepairMethod;
use mlec_topology::MlecScheme;

#[test]
fn table2_full_reproduction() {
    // Every cell of Table 2, against the paper's printed values.
    let rows = table2_and_fig6();
    let expect = [
        ("C/C", 20.0, 40.0, 400.0, 250.0),
        ("C/D", 20.0, 264.0, 2400.0, 250.0),
        ("D/C", 20.0, 40.0, 400.0, 1363.0),
        ("D/D", 20.0, 264.0, 2400.0, 1363.0),
    ];
    for (scheme, disk_tb, disk_bw, pool_tb, pool_bw) in expect {
        let row = rows.iter().find(|r| r.scheme == scheme).unwrap();
        assert!(
            (row.disk_size_tb - disk_tb).abs() < 0.5,
            "{scheme} disk size"
        );
        assert!(
            (row.disk_bw_mbs - disk_bw).abs() < 1.0,
            "{scheme} disk bw: {}",
            row.disk_bw_mbs
        );
        assert!(
            (row.pool_size_tb - pool_tb).abs() < 0.5,
            "{scheme} pool size"
        );
        assert!(
            (row.pool_bw_mbs - pool_bw).abs() < 1.0,
            "{scheme} pool bw: {}",
            row.pool_bw_mbs
        );
    }
}

#[test]
fn fig6_repair_time_orderings() {
    let rows = table2_and_fig6();
    let get = |s: &str| rows.iter().find(|r| r.scheme == s).unwrap();
    // (a): C/D and D/D ~6x faster than C/C and D/C on single-disk repair.
    let ratio = get("C/C").disk_repair_hours / get("C/D").disk_repair_hours;
    assert!(ratio > 5.0 && ratio < 7.5, "ratio={ratio}");
    // (b): C/D slowest, D/C fastest, D/D slightly slower than C/C.
    assert!(get("C/D").pool_repair_hours > get("D/D").pool_repair_hours);
    assert!(get("D/D").pool_repair_hours > get("C/C").pool_repair_hours);
    assert!(get("C/C").pool_repair_hours > get("D/C").pool_repair_hours);
    // D/C is ~5x faster than C/C (paper F#3: "5x repair rate").
    let speedup = get("C/C").pool_repair_hours / get("D/C").pool_repair_hours;
    assert!(speedup > 4.0 && speedup < 6.5, "speedup={speedup}");
}

#[test]
fn fig8_traffic_exact_cells() {
    let cells = fig8_fig9_repair_methods(&RepairMethod::PAPER);
    let get = |s: &str, m: &str| {
        cells
            .iter()
            .find(|c| c.scheme == s && c.method == m)
            .unwrap()
            .cross_rack_tb
    };
    assert!((get("C/C", "R_ALL") - 4400.0).abs() < 1.0);
    assert!((get("C/D", "R_ALL") - 26400.0).abs() < 1.0);
    assert!((get("C/C", "R_FCO") - 880.0).abs() < 1.0);
    assert!((get("C/D", "R_HYB") - 3.1).abs() < 0.1);
    assert!((get("D/D", "R_HYB") - 3.1).abs() < 0.1);
    // R_MIN cuts another 4x (p_l+1 -> 1 chunk per lost stripe).
    assert!((get("C/C", "R_MIN") - 220.0).abs() < 0.5);
}

#[test]
fn fig7_catastrophic_probability_split() {
    let rows = fig7_catastrophic_prob();
    let get = |s: &str| rows.iter().find(|r| r.scheme == s).unwrap().prob_per_year;
    // Paper: */C below 0.001%/yr, */D near 0.00001%/yr.
    assert!(get("C/C") < 1e-4);
    assert!(get("C/D") < get("C/C") / 20.0);
    assert_eq!(get("C/C"), get("D/C"), "local structure identical");
    assert_eq!(get("C/D"), get("D/D"), "local structure identical");
}

#[test]
fn fig10_all_findings() {
    let cells = fig10_durability();
    let get = |s: &str, m: &str| {
        cells
            .iter()
            .find(|c| c.scheme == s && c.method == m)
            .unwrap()
            .nines
    };
    for s in ["C/C", "C/D", "D/C", "D/D"] {
        // F#1-3: each optimization helps (or at least never hurts).
        assert!(get(s, "R_FCO") >= get(s, "R_ALL"), "{s} FCO");
        assert!(get(s, "R_HYB") >= get(s, "R_FCO") - 1e-9, "{s} HYB");
        assert!(get(s, "R_MIN") >= get(s, "R_HYB") - 1e-9, "{s} MIN");
    }
    // F#1 magnitude: 0.9-6.6 nines from R_FCO.
    let fco_gains: Vec<f64> = ["C/C", "C/D", "D/C", "D/D"]
        .iter()
        .map(|s| get(s, "R_FCO") - get(s, "R_ALL"))
        .collect();
    assert!(
        fco_gains.iter().cloned().fold(f64::NAN, f64::max) > 4.0,
        "{fco_gains:?}"
    );
    assert!(
        fco_gains.iter().cloned().fold(f64::NAN, f64::min) > 0.3,
        "{fco_gains:?}"
    );
    // F#4: with R_MIN, C/D and D/D best, D/C worst.
    assert!(get("D/C", "R_MIN") <= get("C/C", "R_MIN"));
    assert!(get("C/D", "R_MIN") >= get("C/C", "R_MIN"));
    assert!(get("D/D", "R_MIN") >= get("C/C", "R_MIN"));
}

#[test]
fn traffic_comparison_orders_of_magnitude() {
    let rows = repair_traffic_comparison();
    let slec = rows
        .iter()
        .find(|r| r.system.starts_with("Net-SLEC (7+3)"))
        .unwrap();
    // Paper §5.1.4: "hundreds of TB ... every day".
    assert!(slec.tb_per_day > 100.0 && slec.tb_per_day < 999.0);
    // MLEC with any method: a few TB per thousands of years.
    for r in rows.iter().filter(|r| r.system.starts_with("MLEC")) {
        assert!(
            r.tb_per_year < 1.0,
            "{}: {} TB/yr should be tiny",
            r.system,
            r.tb_per_year
        );
    }
}

#[test]
fn facade_end_to_end_consistency() {
    // The layer function and the experiment runners must agree.
    let dep = MlecDeployment::paper_default(MlecScheme::CD);
    let plan = plan_catastrophic_repair(&dep, RepairMethod::Hyb);
    let cells = fig8_fig9_repair_methods(&RepairMethod::PAPER);
    let cell = cells
        .iter()
        .find(|c| c.scheme == "C/D" && c.method == "R_HYB")
        .unwrap();
    assert!((plan.cross_rack_traffic_tb - cell.cross_rack_tb).abs() < 1e-9);
}

#[test]
fn burst_pdl_findings_hold_via_facade() {
    // F#3: C/C has PDL 0 whenever at most p_n racks are hit.
    let cc = MlecDeployment::paper_default(MlecScheme::CC);
    assert_eq!(mlec_burst_pdl(&cc, 50, 2, 50, 1), 0.0);
    // F#4: the x = p_n + 1 = 3 column at y = 60 is the danger zone.
    let dd = MlecDeployment::paper_default(MlecScheme::DD);
    let danger = mlec_burst_pdl(&dd, 60, 3, 100, 2);
    let safe = mlec_burst_pdl(&dd, 60, 40, 100, 2);
    assert!(danger > safe, "danger={danger} safe={safe}");
}
