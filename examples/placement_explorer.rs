//! Scenario: an operator explores where objects physically live under each
//! MLEC scheme (the paper's §6.1 future-work problem — logical-to-physical
//! mapping), asks the advisor for a configuration, and replays a synthetic
//! failure trace against it.
//!
//! Run with: `cargo run --release --example placement_explorer`

use mlec_core::advisor::{recommend, BurstExposure, OpsModel, Priority, SiteProfile};
use mlec_sim::config::MlecDeployment;
use mlec_sim::system_sim::simulate_system_trace;
use mlec_sim::trace::{synthesize, TraceSpec};
use mlec_topology::objectmap::{MapperCode, ObjectMapper};
use mlec_topology::{Geometry, MlecScheme};

fn main() {
    println!("Placement explorer: objects -> chunks, advisor, trace replay\n");

    // 1. Where does logical byte 1 TiB live under each scheme?
    let offset = 1u64 << 40;
    println!("chunk holding logical offset 1 TiB, per scheme:");
    for scheme in MlecScheme::ALL {
        let mapper = ObjectMapper::new(
            Geometry::paper_default(),
            MapperCode::paper_default(),
            scheme,
            128_000,
            42,
        );
        let loc = mapper.locate(offset);
        println!(
            "  {scheme}: network stripe {:>7}, local stripe {:>2}, chunk {:>2} -> disk {:>6} (rack {})",
            loc.network_stripe,
            loc.row,
            loc.col,
            loc.disk,
            mapper.rack_of(&loc)
        );
    }

    // 2. Enumerate a full stripe's footprint for a repair coordinator.
    let mapper = ObjectMapper::new(
        Geometry::paper_default(),
        MapperCode::paper_default(),
        MlecScheme::DD,
        128_000,
        42,
    );
    let chunks = mapper.stripe_chunks(12345);
    let racks: std::collections::BTreeSet<u32> = chunks.iter().map(|c| mapper.rack_of(c)).collect();
    println!(
        "\nD/D network stripe 12345 spans {} chunks in {} racks: {:?}",
        chunks.len(),
        racks.len(),
        racks
    );

    // 3. Ask the advisor.
    let profile = SiteProfile {
        bursts: BurstExposure::Rare,
        ops: OpsModel::Transparent,
        priority: Priority::Durability,
        min_nines: 20.0,
    };
    match recommend(&profile) {
        Some(rec) => {
            println!(
                "\nadvisor: use {} with {} ({:.1} nines, {:.1} TB per catastrophic repair)",
                rec.scheme, rec.method, rec.durability_nines, rec.repair_traffic_tb
            );
            for line in &rec.rationale {
                println!("  - {line}");
            }

            // 4. Replay a synthetic 3-year trace against the recommendation.
            let geometry = Geometry::paper_default();
            let trace = synthesize(
                &geometry,
                &TraceSpec {
                    background_afr: 0.01,
                    bursts_per_year: 0.3,
                    burst_size: 12,
                    burst_racks: 2,
                    years: 3.0,
                },
                7,
            )
            .expect("a 12-disk burst on 2 racks fits the paper geometry");
            let dep = MlecDeployment::paper_default(rec.scheme);
            let result = simulate_system_trace(&dep, &trace, rec.method, 7);
            println!(
                "\ntrace replay: {} failures over {:.1} years -> {} catastrophic pools, {} data-loss events",
                result.disk_failures, result.years, result.catastrophic_pools, result.data_loss_events
            );
        }
        None => println!("\nadvisor: no configuration meets the target — widen the code search"),
    }
}
