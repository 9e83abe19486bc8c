//! Scenario: a storage architect chooses a repair method for black-box
//! RBODs vs transparent enclosures — the paper's §2.4/§4.2 repair-method
//! tradeoff, quantified per scheme.
//!
//! Run with: `cargo run --release --example repair_planning`

use mlec_analysis::splitting::mlec_durability_nines;
use mlec_sim::config::MlecDeployment;
use mlec_sim::repair::plan_catastrophic_repair;
use mlec_sim::RepairMethod;
use mlec_topology::MlecScheme;

fn main() {
    println!("Repair planning: traffic, time, durability, and implementation cost\n");

    for scheme in [MlecScheme::CC, MlecScheme::CD] {
        let dep = MlecDeployment::paper_default(scheme);
        println!("=== scheme {scheme} ===");
        println!(
            "{:8} {:>14} {:>11} {:>10} {:>12} {:>24}",
            "method", "cross-rack TB", "network h", "local h", "nines", "needs cross-level API?"
        );
        for method in RepairMethod::EXTENDED {
            let plan = plan_catastrophic_repair(&dep, method);
            let nines = mlec_durability_nines(&dep, method);
            println!(
                "{:8} {:>14.1} {:>11.1} {:>10.1} {:>12.1} {:>24}",
                method.name(),
                plan.cross_rack_traffic_tb,
                plan.network_time_h,
                plan.local_time_h,
                nines,
                if method.has_chunk_knowledge() {
                    "yes"
                } else {
                    "no (black-box RBOD ok)"
                },
            );
        }
        println!();
    }

    println!("Guidance (paper §6.1):");
    println!("  - No devops team / off-the-shelf RBODs: R_ALL works but costs traffic + nines.");
    println!("  - With cross-level failure reporting, R_FCO is the big first win.");
    println!("  - R_MIN minimizes network contention with user I/O; total repair takes longer,");
    println!("    but the pool exits the catastrophic state fastest, maximizing durability.");
}
