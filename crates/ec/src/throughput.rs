//! Encoding-throughput measurement (paper Fig. 11).
//!
//! The paper measured Intel ISA-L on a Xeon Gold 6240R. We measure our own
//! GF(2^8) kernels instead (see DESIGN.md substitution table) — since the
//! SIMD dispatch layer (`mlec_gf::simd`) they are the same split-table
//! `pshufb` technique ISA-L uses, so both the *shape* of the `(k, p)`
//! surface and the absolute order of magnitude are comparable.
//!
//! Measurement discipline: wall-clock timing of repeated `encode_into` /
//! `encode_into_parallel` calls over pre-allocated buffers (no allocation
//! and **no thread creation** in the timed region — worker threads for the
//! parallel measurements are spawned once and fed batches through a
//! barrier), with a warm-up pass, reporting data MB processed per second.

use crate::rs::ReedSolomon;
use crate::scheme::{EcScheme, SlecParams};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::Instant;

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
/// This backs the `threads=` parameter of the `fig11` / `fig12` experiments.
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
    let start = Instant::now();
    for _ in 0..iters {
        rs.encode_into_parallel(&data, &mut parity, threads)
            .unwrap();
    }
    let elapsed = start.elapsed().as_secs_f64();
    std::hint::black_box(&parity);
    ThroughputPoint {
        k,
        p,
        mb_per_s: (iters * stripe_data_bytes) as f64 / 1e6 / elapsed,
    }
}

/// Outcome of [`measure_slec_parallel_stats`]: the throughput point plus
/// measurement metadata used to assert the harness itself behaves (workers
/// are spawned once per *measurement*, never once per timed iteration).
#[derive(Debug, Clone, Copy)]
pub struct ParallelMeasurement {
    /// The measured aggregate throughput.
    pub point: ThroughputPoint,
    /// How many OS threads the measurement spawned in total (warm-up and all
    /// timed iterations included). With persistent workers this equals the
    /// worker count; the pre-fix harness spawned `workers * (iters + 1)`.
    pub threads_spawned: usize,
    /// Number of timed batches the workers executed.
    pub timed_iters: usize,
}

/// Measure *multi-core* SLEC encoding throughput: independent stripes
/// encoded concurrently on scoped threads (capped at the machine's
/// parallelism), the deployment answer to the paper's "increasing
/// throughput can be done with more CPU cores, but would lead to higher
/// hardware cost, and potentially extra overhead caused by imperfect
/// parallelism" (§5.1.2). Returns the aggregate data MB/s across `stripes`
/// concurrently-encoded stripes.
///
/// The worker set is spawned **once**, outside the timed region; each timed
/// iteration releases the workers through a [`Barrier`], they encode their
/// statically-assigned stripes, and rendezvous on a second barrier before
/// the clock stops. Thread creation/teardown therefore never pollutes the
/// timing (it previously did — a fresh `thread::scope` per iteration — which
/// under-reported parallel throughput for small batches).
pub fn measure_slec_parallel(
    k: usize,
    p: usize,
    chunk_bytes: usize,
    stripes: usize,
    min_bytes: usize,
) -> ThroughputPoint {
    measure_slec_parallel_stats(k, p, chunk_bytes, stripes, min_bytes).point
}

/// [`measure_slec_parallel`] with spawn-count metadata exposed, so tests can
/// pin the "workers outlive the timed loop" invariant.
pub fn measure_slec_parallel_stats(
    k: usize,
    p: usize,
    chunk_bytes: usize,
    stripes: usize,
    min_bytes: usize,
) -> ParallelMeasurement {
    let rs = ReedSolomon::new(k, p).expect("valid (k, p)");
    // One independent data + parity buffer set per stripe.
    let data: Vec<Vec<Vec<u8>>> = (0..stripes)
        .map(|s| {
            (0..k)
                .map(|j| {
                    (0..chunk_bytes)
                        .map(|i| ((s * 131 + j * 31 + i) % 256) as u8)
                        .collect()
                })
                .collect()
        })
        .collect();
    let mut parities: Vec<Vec<Vec<u8>>> = vec![vec![vec![0u8; chunk_bytes]; p]; stripes];

    let workers = std::thread::available_parallelism()
        .map_or(1, std::num::NonZero::get)
        .min(stripes.max(1));
    let batch_bytes = stripes * k * chunk_bytes;
    let iters = (min_bytes / batch_bytes).max(1);

    // Persistent worker pool: spawned once, fed batches through a pair of
    // barrier rendezvous per iteration. `release` starts a batch (or, with
    // `stop` set, shuts the pool down); `done` marks batch completion.
    let release = Barrier::new(workers + 1);
    let done = Barrier::new(workers + 1);
    let stop = AtomicBool::new(false);
    let spawned = AtomicUsize::new(0);
    let mut elapsed = 0.0f64;

    std::thread::scope(|scope| {
        // Static assignment of stripes to workers: each worker owns disjoint
        // (data, parity) slices, so batches need no locking.
        let mut remaining: &mut [Vec<Vec<u8>>] = &mut parities;
        let mut start = 0usize;
        for w in 0..workers {
            let count = (stripes - start) / (workers - w);
            let (mine, rest) = remaining.split_at_mut(count);
            remaining = rest;
            let my_data = &data[start..start + count];
            let (rs, release, done, stop, spawned) = (&rs, &release, &done, &stop, &spawned);
            scope.spawn(move || {
                spawned.fetch_add(1, Ordering::Relaxed);
                loop {
                    release.wait();
                    if stop.load(Ordering::Acquire) {
                        break;
                    }
                    for (d, par) in my_data.iter().zip(mine.iter_mut()) {
                        rs.encode_into(d, par).unwrap();
                    }
                    done.wait();
                }
            });
            start += count;
        }

        // Warm-up batch (not timed): pages in buffers, fills caches.
        release.wait();
        done.wait();

        let t0 = Instant::now();
        for _ in 0..iters {
            release.wait();
            done.wait();
        }
        elapsed = t0.elapsed().as_secs_f64();

        stop.store(true, Ordering::Release);
        release.wait();
    });
    std::hint::black_box(&parities);
    ParallelMeasurement {
        point: ThroughputPoint {
            k,
            p,
            mb_per_s: (iters * batch_bytes) as f64 / 1e6 / elapsed,
        },
        threads_spawned: spawned.load(Ordering::Relaxed),
        timed_iters: iters,
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
    /// Calibrate against a measured reference configuration, encoded on
    /// `threads` worker threads (see [`measure_slec`]); predictions then
    /// model a `threads`-core encoder.
    pub fn calibrate(chunk_bytes: usize, min_bytes: usize, threads: usize) -> ThroughputModel {
        let reference = EcScheme::Slec(SlecParams::new(10, 4));
        let measured = measure_slec(10, 4, chunk_bytes, min_bytes, threads);
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
    fn parallel_encoding_not_slower_than_serial() {
        // With persistent workers (no thread churn in the timed loop) the
        // aggregate throughput should roughly match serial throughput even
        // on a single-core host, and scale up on multi-core ones. Tolerance
        // 0.5 absorbs barrier overhead + scheduler noise on 1-CPU CI
        // runners; before the persistent-worker fix, per-iteration
        // thread::scope churn routinely dragged this below 0.5.
        let serial = measure_slec(8, 4, SMALL_CHUNK, SMALL_BYTES, 1);
        let parallel = measure_slec_parallel(8, 4, SMALL_CHUNK, 8, SMALL_BYTES * 2);
        assert!(
            parallel.mb_per_s > serial.mb_per_s * 0.5,
            "serial={:.0} parallel={:.0}",
            serial.mb_per_s,
            parallel.mb_per_s
        );
    }

    #[test]
    fn parallel_measurement_spawns_workers_once() {
        // Regression test for the thread-churn bug: the worker pool must be
        // created once per *measurement*, not once per timed iteration. Ask
        // for enough bytes to force several timed batches and check that the
        // spawn count is still just the worker count.
        let stripes = 4;
        let m = measure_slec_parallel_stats(4, 2, SMALL_CHUNK, stripes, SMALL_BYTES);
        let workers = std::thread::available_parallelism()
            .map_or(1, std::num::NonZero::get)
            .min(stripes);
        assert!(
            m.timed_iters >= 2,
            "want multiple batches, got {}",
            m.timed_iters
        );
        assert_eq!(
            m.threads_spawned, workers,
            "workers must persist across all {} timed iterations",
            m.timed_iters
        );
        assert!(m.point.mb_per_s.is_finite() && m.point.mb_per_s > 0.0);
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
