//! Quickstart: configure the paper's reference MLEC system, look at its
//! repair characteristics, and compare the four placement schemes.
//!
//! Run with: `cargo run --release --example quickstart`

use mlec_analysis::chains::system_catastrophic_rate;
use mlec_analysis::splitting::mlec_durability_nines;
use mlec_sim::bandwidth::{
    catastrophic_pool_repair_bw, single_disk_repair_bw, single_disk_repair_time,
};
use mlec_sim::config::MlecDeployment;
use mlec_sim::repair::plan_catastrophic_repair;
use mlec_sim::RepairMethod;
use mlec_topology::MlecScheme;

fn main() {
    println!("mlec-rs quickstart — the paper's 57,600-disk (10+2)/(17+3) system\n");

    for scheme in MlecScheme::ALL {
        let dep = MlecDeployment::paper_default(scheme);
        println!("scheme {scheme}:");
        println!(
            "  single-disk repair:  {:>7.0} MB/s available, {:>6.1} h per disk",
            single_disk_repair_bw(&dep).to_mbs(),
            single_disk_repair_time(&dep).to_hours()
        );
        println!(
            "  catastrophic pool:   {:>7.0} MB/s available over the network",
            catastrophic_pool_repair_bw(&dep).to_mbs()
        );
        println!(
            "  catastrophic prob:   {:.2e} per system-year",
            system_catastrophic_rate(&dep).to_per_year()
        );
        let durability = mlec_durability_nines(&dep, RepairMethod::Min);
        println!("  durability (R_MIN):  {durability:.1} nines\n");
    }

    // The headline repair-method tradeoff on C/D: traffic vs time.
    let dep = MlecDeployment::paper_default(MlecScheme::CD);
    println!("repair methods on C/D (catastrophic pool, p_l+1 = 4 failed disks):");
    println!(
        "  {:8} {:>14} {:>12} {:>12}",
        "method", "cross-rack TB", "network h", "local h"
    );
    for method in RepairMethod::PAPER {
        let plan = plan_catastrophic_repair(&dep, method);
        println!(
            "  {:8} {:>14.1} {:>12.1} {:>12.1}",
            method.name(),
            plan.cross_rack_traffic_tb,
            plan.network_time_h,
            plan.local_time_h
        );
    }
    println!("\nR_HYB cuts cross-rack traffic from 880 TB to ~3 TB — the paper's Fig 8 result.");
}
