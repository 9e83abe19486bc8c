//! Fixed-seed, bit-exact goldens for the two trace synthesizers.
//!
//! `synthesize` and `synthesize_rules` draw from the hazard kernel's
//! generator; these pin their exact draw order on the paper geometry. The
//! pinned value is the FNV-1a hash of the trace's CSV rendering (which
//! prints every event time in shortest round-trip form), next to the event
//! count. Any change to a single draw or a single floating-point operation
//! in either synthesizer flips these.

use mlec_runner::seed_stream::fnv1a;
use mlec_sim::trace::{synthesize, synthesize_rules, DiskSelector, FailureRule, TraceSpec};
use mlec_topology::Geometry;

/// `(seed, synthesize events, synthesize FNV-1a, rules events, rules FNV-1a)`.
const GOLDENS: [(u64, usize, u64, usize, u64); 3] = [
    (1, 3194, 0xec63_f990_ef32_008d, 2874, 0xf22a_ca21_37ef_c22c),
    (42, 3066, 0x7da9_5d44_649e_52af, 2912, 0x8b00_2d6c_e9be_a9cc),
    (7, 3008, 0xbce0_e398_d612_14a3, 2937, 0x2843_0aee_37af_66c3),
];

#[test]
fn golden_synthesize() {
    let g = Geometry::paper_default();
    let spec = TraceSpec {
        background_afr: 0.01,
        bursts_per_year: 1.0,
        burst_size: 60,
        burst_racks: 2,
        years: 5.0,
    };
    for (seed, events, hash, _, _) in GOLDENS {
        let trace = synthesize(&g, &spec, seed).unwrap();
        assert_eq!(trace.len(), events, "seed {seed}");
        assert_eq!(fnv1a(trace.to_csv().as_bytes()), hash, "seed {seed}");
    }
}

#[test]
fn golden_synthesize_rules() {
    let g = Geometry::paper_default();
    let rules = [
        FailureRule {
            selector: DiskSelector::All,
            afr: 0.02,
            start_h: 0.0,
            end_h: 20_000.0,
        },
        FailureRule {
            selector: DiskSelector::Rack(3),
            afr: 0.5,
            start_h: 100.0,
            end_h: 5_000.0,
        },
    ];
    for (seed, _, _, events, hash) in GOLDENS {
        let trace = synthesize_rules(&g, &rules, seed);
        assert_eq!(trace.len(), events, "seed {seed}");
        assert_eq!(fnv1a(trace.to_csv().as_bytes()), hash, "seed {seed}");
    }
}
