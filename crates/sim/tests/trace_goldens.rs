//! Fixed-seed, bit-exact goldens for the trace synthesizer.
//!
//! `synthesize` draws from the hazard kernel's generator; these pin its
//! exact draw order on the paper geometry. The pinned value is the FNV-1a
//! hash of the trace's CSV rendering (which prints every event time in
//! shortest round-trip form), next to the event count. Any change to a
//! single draw or a single floating-point operation in the synthesizer
//! flips these.

use mlec_runner::seed_stream::fnv1a;
use mlec_sim::trace::{synthesize, TraceSpec};
use mlec_topology::Geometry;

/// `(seed, synthesize events, synthesize FNV-1a)`.
const GOLDENS: [(u64, usize, u64); 3] = [
    (1, 3194, 0xec63_f990_ef32_008d),
    (42, 3066, 0x7da9_5d44_649e_52af),
    (7, 3008, 0xbce0_e398_d612_14a3),
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
    for (seed, events, hash) in GOLDENS {
        let trace = synthesize(&g, &spec, seed).unwrap();
        assert_eq!(trace.len(), events, "seed {seed}");
        assert_eq!(fnv1a(trace.to_csv().as_bytes()), hash, "seed {seed}");
    }
}
