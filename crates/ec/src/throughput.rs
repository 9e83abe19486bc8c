//! Encoding-throughput measurement (paper Fig. 11).
//!
//! The paper measured Intel ISA-L on a Xeon Gold 6240R. We measure our own
//! GF(2^8) kernels instead (see DESIGN.md substitution table): the same
//! split-table `pshufb` technique in the same loop shape — on AVX2 one
//! fused kernel loads each data block once and accumulates up to four
//! parities in registers, as ISA-L's `gf_Nvect_dot_prod` does — so both the
//! *shape* of the `(k, p)` surface and the absolute order of magnitude are
//! comparable. The fused kernel bends the surface: a stripe costs one pass
//! over its data per group of four parities, not one per parity
//! (EXPERIMENTS.md Fig 11 has the measured steps).
//!
//! Measurement discipline: wall-clock timing of repeated
//! `encode_into_parallel` calls over pre-allocated buffers (no allocation
//! in the timed region), with a warm-up pass, reporting data MB processed
//! per second.

use crate::rs::ReedSolomon;
use crate::scheme::{EcScheme, SlecParams};
use mlec_runner::clock::Stopwatch;

/// One measured point of the throughput surface.
#[derive(Debug, Clone, Copy)]
pub struct ThroughputPoint {
    /// Data chunks.
    pub k: usize,
    /// Parity chunks.
    pub p: usize,
    /// Measured encoding throughput in MB of *data* per second.
    pub mb_per_s: f64,
}

/// Measure SLEC `(k + p)` encoding throughput with `chunk_bytes` chunks,
/// the stripe split across `threads` scoped worker threads
/// ([`ReedSolomon::encode_into_parallel`]; `threads <= 1` encodes on the
/// calling thread). The parity bytes are identical for every thread count.
/// This backs the `threads=` parameter of the `fig11` experiment.
///
/// `min_bytes` controls how much data is pushed through the encoder (larger
/// = steadier numbers, longer runtime).
pub fn measure_slec(
    k: usize,
    p: usize,
    chunk_bytes: usize,
    min_bytes: usize,
    threads: usize,
) -> ThroughputPoint {
    let rs = ReedSolomon::new(k, p).expect("valid (k, p)");
    let data: Vec<Vec<u8>> = (0..k)
        .map(|s| {
            (0..chunk_bytes)
                .map(|i| ((s * 31 + i) % 256) as u8)
                .collect()
        })
        .collect();
    let mut parity = vec![vec![0u8; chunk_bytes]; p];

    // Warm-up: populate caches and page in the buffers.
    rs.encode_into_parallel(&data, &mut parity, threads)
        .unwrap();

    let stripe_data_bytes = k * chunk_bytes;
    let iters = (min_bytes / stripe_data_bytes).max(1);
    let start = Stopwatch::start();
    for _ in 0..iters {
        rs.encode_into_parallel(&data, &mut parity, threads)
            .unwrap();
    }
    let elapsed = start.elapsed_s();
    std::hint::black_box(&parity);
    ThroughputPoint {
        k,
        p,
        mb_per_s: (iters * stripe_data_bytes) as f64 / 1e6 / elapsed,
    }
}

/// A calibrated *model* of encoding throughput for sweeping hundreds of
/// configurations (Fig. 12/15 scatter plots) without hours of measurement:
/// `MB/s = rate_constant / multiplies_per_byte`, where `rate_constant` is
/// obtained by measuring one reference configuration.
#[derive(Debug, Clone, Copy)]
pub struct ThroughputModel {
    /// Effective multiply-accumulate rate in "MB of coefficient work"/s.
    pub rate_mb_per_s: f64,
}

impl ThroughputModel {
    /// Calibrate against the single-core encode of the reference (10+4)
    /// code: 32 MiB in 128 KiB chunks (see [`measure_slec`]). The constant
    /// scales every prediction alike, so only ratios between schemes carry
    /// meaning.
    pub fn calibrate() -> ThroughputModel {
        let reference = EcScheme::Slec(SlecParams::new(10, 4));
        let measured = measure_slec(10, 4, 128 * 1024, 32 * 1024 * 1024, 1);
        ThroughputModel {
            rate_mb_per_s: measured.mb_per_s * reference.encoding_multiplies_per_byte(),
        }
    }

    /// Build from a known rate constant (for tests / deterministic output).
    pub fn from_rate(rate_mb_per_s: f64) -> ThroughputModel {
        ThroughputModel { rate_mb_per_s }
    }

    /// Predicted single-core encoding throughput for a scheme, in MB/s.
    pub fn predict(&self, scheme: EcScheme) -> f64 {
        self.rate_mb_per_s / scheme.encoding_multiplies_per_byte().max(1e-9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMALL_CHUNK: usize = 4 * 1024; // keep unit tests fast
    const SMALL_BYTES: usize = 1 << 20;

    #[test]
    fn throughput_positive_and_finite() {
        let pt = measure_slec(4, 2, SMALL_CHUNK, SMALL_BYTES, 1);
        assert!(pt.mb_per_s.is_finite() && pt.mb_per_s > 0.0);
    }

    #[test]
    fn more_parities_cost_more() {
        // p = 8 must be measurably slower than p = 1 at the same k.
        let fast = measure_slec(8, 1, SMALL_CHUNK, SMALL_BYTES, 1);
        let slow = measure_slec(8, 8, SMALL_CHUNK, SMALL_BYTES, 1);
        assert!(
            slow.mb_per_s < fast.mb_per_s,
            "p=8 ({:.1} MB/s) should be slower than p=1 ({:.1} MB/s)",
            slow.mb_per_s,
            fast.mb_per_s
        );
    }

    #[test]
    fn threaded_measurement_positive_and_finite() {
        for threads in [0, 1, 2, 4] {
            let pt = measure_slec(4, 2, SMALL_CHUNK, SMALL_BYTES / 2, threads);
            assert!(
                pt.mb_per_s.is_finite() && pt.mb_per_s > 0.0,
                "threads={threads}: {pt:?}"
            );
        }
    }

    #[test]
    fn model_predictions_scale_inversely_with_work() {
        let model = ThroughputModel::from_rate(1000.0);
        let cheap = model.predict(EcScheme::Slec(SlecParams::new(10, 1)));
        let costly = model.predict(EcScheme::Slec(SlecParams::new(10, 10)));
        assert!((cheap / costly - 10.0).abs() < 1e-9);
    }
}
