//! The ten micro rows no `BENCHMARK.json` metric covers, kept measurable
//! but ungated: `cargo bench -p mlec-bench` prints ns/iter for each and
//! exits 0. No flags, no baseline, no file written — a number worth
//! gating belongs in the ledger (`benchmark/`), and this list is the
//! hand-off for the PR that moves it there (CHANGES.md, PR 16).

use mlec_analysis::burst::mlec_burst_pdl;
use mlec_analysis::chains::pool_chain;
use mlec_ec::Lrc;
use mlec_gf::matrix::Matrix;
use mlec_gf::slice::{mul_add_slice_scalar, mul_slice};
use mlec_runner::clock::Stopwatch;
use mlec_sim::config::MlecDeployment;
use mlec_sim::engine::EventQueue;
use mlec_topology::MlecScheme;
use std::hint::black_box;

/// Median ns/iter of seven ~50 ms batches, after a warm-up that sizes them.
fn bench(name: &str, mut f: impl FnMut()) {
    const BATCHES: usize = 7;
    const BATCH_SECONDS: f64 = 0.05;
    let start = Stopwatch::start();
    let mut warmup = 0u64;
    while start.elapsed_s() < BATCH_SECONDS / 2.0 || warmup < 3 {
        f();
        warmup += 1;
    }
    let est = start.elapsed_s() / warmup as f64;
    let per_batch = ((BATCH_SECONDS / est) as u64).max(1);
    let mut samples: Vec<u64> = (0..BATCHES)
        .map(|_| {
            let t = Stopwatch::start();
            for _ in 0..per_batch {
                f();
            }
            (t.elapsed_s() * 1e9) as u64 / per_batch
        })
        .collect();
    samples.sort_unstable();
    println!("{name:<40} {:>12} ns/iter", samples[BATCHES / 2]);
}

fn main() {
    println!("gf kernel dispatch: {}", mlec_gf::simd::kernel_name());
    let size = 128 * 1024;
    let input: Vec<u8> = (0..size).map(|i| (i % 251) as u8).collect();
    let mut out = vec![0u8; size];
    // The forced-scalar twin of the ledger's `gf.mul_add_slice_gbps`.
    bench("gf_mul_add_scalar/131072", || {
        mul_add_slice_scalar(black_box(0x57), black_box(&input), black_box(&mut out));
    });
    bench("gf_mul_slice/128KiB", || {
        mul_slice(black_box(0x8e), black_box(&input), black_box(&mut out));
    });
    for n in [10usize, 20, 50] {
        // Cauchy matrices are always invertible.
        let m = Matrix::cauchy(n, n);
        bench(&format!("gf_matrix_invert/{n}"), || {
            black_box(black_box(&m).invert().unwrap());
        });
    }
    // The LRC decodability hot path: rank of a survivors x k matrix.
    let m = Matrix::vandermonde(20, 14);
    bench("gf_matrix_rank/20x14", || {
        black_box(black_box(&m).rank());
    });

    bench("event_queue_push_pop_10k", || {
        let mut q = EventQueue::new();
        for i in 0..10_000u32 {
            q.schedule(((i * 2654435761) % 100_000) as f64, i);
        }
        let mut count = 0;
        while q.pop().is_some() {
            count += 1;
        }
        black_box(count);
    });
    let cd = MlecDeployment::paper_default(MlecScheme::CD);
    bench("pool_chain_hazard", || {
        black_box(pool_chain(&cd).absorb_hazard().to_per_hour());
    });
    // One Fig 5 heatmap cell (60 failures over 3 racks, 20 samples).
    let dd = MlecDeployment::paper_default(MlecScheme::DD);
    bench("fig5_cell_dd_y60_x3", || {
        black_box(mlec_burst_pdl(&dd, 60, 3, 20, 7));
    });

    let lrc = Lrc::new(14, 2, 4).unwrap();
    let n = lrc.total_chunks();
    let mut i = 0usize;
    bench("lrc_decodable_rank_test_uncached", || {
        // Rotate the pattern so the memo rarely hits.
        let mut erased = vec![false; n];
        erased[i % n] = true;
        erased[(i / n + i) % n] = true;
        erased[(i * 7 + 3) % n] = true;
        i += 1;
        black_box(lrc.decodable(&erased));
    });
}
