//! `codec_stripe`: the paper's encoding-throughput axis (Fig 11/12/15).
//!
//! `MlecCodec` at the paper's (10+2)/(17+3) with 128 KiB chunks: encode a
//! run of stripes, then `reconstruct` them under the largest pattern the
//! code tolerates (p_n whole rows lost, p_l chunks lost in every other
//! row). `gf` and `ec` do all the work; no other layer runs. Decode is
//! measured beside encode so that a gain for one at the other's cost shows.

use crate::spans::Recorder;
use crate::{ns_per_call, stats, timed, Outcome, RunCfg};
use mlec_ec::{Lrc, MlecCodec, ReedSolomon};
use mlec_runner::{SeedStream, SplitMix64};
use std::hint::black_box;

const KN: usize = 10;
const PN: usize = 2;
const KL: usize = 17;
const PL: usize = 3;

struct Sizes {
    chunk_bytes: usize,
    /// Distinct pre-generated stripes a repetition cycles through, so that
    /// the data set (8 x 21.25 MiB) does not sit in a CPU cache.
    distinct: usize,
    stripes_per_rep: usize,
    /// Bytes a stand-alone layer loop processes per measurement.
    loop_bytes: usize,
}

impl Sizes {
    fn of(cfg: &RunCfg) -> Sizes {
        if cfg.quick {
            Sizes {
                chunk_bytes: 4096,
                distinct: 2,
                stripes_per_rep: 4,
                loop_bytes: 1 << 18,
            }
        } else {
            Sizes {
                chunk_bytes: 128 * 1024,
                distinct: 8,
                stripes_per_rep: 32,
                loop_bytes: 48 << 20,
            }
        }
    }

    fn user_bytes_per_stripe(&self) -> f64 {
        (KN * KL * self.chunk_bytes) as f64
    }
}

type Grid = Vec<Vec<Option<Vec<u8>>>>;

/// Which chunks of a stripe are erased: `PN` whole rows, and `PL` columns
/// in each of the other rows.
struct Pattern {
    lost_rows: Vec<usize>,
    lost_cols: Vec<Vec<usize>>,
}

struct Inputs {
    codec: MlecCodec,
    /// `data[s]` holds the `KN * KL` data chunks of stripe `s`, row-major.
    data: Vec<Vec<Vec<u8>>>,
    patterns: Vec<Pattern>,
}

fn random_bytes(rng: &mut SplitMix64, len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(len);
    while out.len() + 8 <= len {
        out.extend_from_slice(&rng.next_u64().to_le_bytes());
    }
    while out.len() < len {
        out.push(rng.next_u64() as u8);
    }
    out
}

/// `n` distinct indices below `below`, drawn from `rng`.
fn pick(rng: &mut SplitMix64, n: usize, below: usize) -> Vec<usize> {
    let mut all: Vec<usize> = (0..below).collect();
    for i in 0..n {
        let j = i + (rng.next_u64() % (below - i) as u64) as usize;
        all.swap(i, j);
    }
    all.truncate(n);
    all
}

fn build_inputs(seed: u64, sizes: &Sizes) -> Inputs {
    let stream = SeedStream::new(seed, "benchmark/codec_stripe");
    let codec = MlecCodec::new(KN, PN, KL, PL).expect("the paper's code parameters are valid");
    let mut data = Vec::with_capacity(sizes.distinct);
    let mut patterns = Vec::with_capacity(sizes.distinct);
    for s in 0..sizes.distinct as u64 {
        let mut rng = SplitMix64::new(stream.derive(&[s]));
        data.push(
            (0..KN * KL)
                .map(|_| random_bytes(&mut rng, sizes.chunk_bytes))
                .collect(),
        );
        let lost_rows = pick(&mut rng, PN, KN + PN);
        let lost_cols = (0..KN + PN).map(|_| pick(&mut rng, PL, KL + PL)).collect();
        patterns.push(Pattern {
            lost_rows,
            lost_cols,
        });
    }
    Inputs {
        codec,
        data,
        patterns,
    }
}

fn erase(stripe: &[Vec<Vec<u8>>], pattern: &Pattern) -> Grid {
    stripe
        .iter()
        .enumerate()
        .map(|(j, row)| {
            row.iter()
                .enumerate()
                .map(|(i, chunk)| {
                    let lost = pattern.lost_rows.contains(&j) || pattern.lost_cols[j].contains(&i);
                    (!lost).then(|| chunk.clone())
                })
                .collect()
        })
        .collect()
}

type Encoded = Vec<Option<Vec<Vec<Vec<u8>>>>>;

/// Encode `stripes_per_rep` stripes, keeping the latest encoding of each
/// distinct one for the decode side. Returns the seconds inside `encode`.
fn encode_rep(inputs: &Inputs, sizes: &Sizes, encoded: &mut Encoded, rec: &mut Recorder) -> f64 {
    let mut seconds = 0.0;
    for s in 0..sizes.stripes_per_rep {
        let idx = s % sizes.distinct;
        rec.enter("stripe");
        rec.enter("ec.mlec.encode");
        let (t, stripe) = timed(|| inputs.codec.encode(&inputs.data[idx]));
        rec.exit();
        rec.count(
            "ec.user_bytes_encoded",
            sizes.user_bytes_per_stripe() as u64,
        );
        rec.exit();
        seconds += t;
        encoded[idx] = stripe.ok();
    }
    seconds
}

/// Reconstruct `stripes_per_rep` stripes under the maximum pattern, checking
/// the repair counts and every byte of each. Returns the seconds inside
/// `reconstruct`.
fn decode_rep(
    inputs: &Inputs,
    sizes: &Sizes,
    encoded: &Encoded,
    out: &mut Outcome,
    rec: &mut Recorder,
) -> f64 {
    let mut seconds = 0.0;
    for s in 0..sizes.stripes_per_rep {
        let idx = s % sizes.distinct;
        let Some(stripe) = &encoded[idx] else {
            out.ops(1, 1);
            continue;
        };
        rec.enter("stripe");
        let mut grid = rec.span("bench.erase", || erase(stripe, &inputs.patterns[idx]));
        rec.enter("ec.mlec.reconstruct");
        let (t, counts) = timed(|| inputs.codec.reconstruct(&mut grid));
        rec.exit();
        seconds += t;
        let good = rec.span("bench.verify", || {
            let rebuilt_equals_encoded = grid.iter().zip(stripe).all(|(grow, srow)| {
                grow.iter()
                    .zip(srow)
                    .all(|(g, s)| g.as_deref() == Some(s.as_slice()))
            });
            let data_is_systematic = (0..KN).all(|j| {
                (0..KL)
                    .all(|i| grid[j][i].as_deref() == Some(inputs.data[idx][j * KL + i].as_slice()))
            });
            // p_l chunks repaired locally in each surviving row; the lost
            // rows' data and parity columns come over the network.
            let expected = (KN * PL, PN * (KL + PL));
            counts == Ok(expected) && rebuilt_equals_encoded && data_is_systematic
        });
        if let Ok((local, network)) = counts {
            rec.count("ec.chunks_repaired_local", local as u64);
            rec.count("ec.chunks_repaired_network", network as u64);
        }
        rec.exit();
        out.ops(1, u64::from(!good));
    }
    seconds
}

pub fn run(cfg: &RunCfg) -> Result<Outcome, String> {
    let sizes = Sizes::of(cfg);
    let mut out = Outcome::default();

    // Set-up: input generation and codec construction.
    let mut inputs = None;
    let setup = cfg.measure(cfg.setup_seconds(), || {
        drop(inputs.take());
        let (t, built) = timed(|| build_inputs(cfg.seed, &sizes));
        inputs = Some(built);
        Ok(t)
    })?;
    let inputs = inputs.expect("set-up ran");

    if cfg.trace {
        layer_run(cfg, &sizes, &inputs, &mut out)?;
        return Ok(out);
    }

    // One block per direction: every stripe decoded was encoded before.
    let mb_per_rep = sizes.user_bytes_per_stripe() * sizes.stripes_per_rep as f64 / 1e6;
    let mut off = Recorder::new(false);
    let mut encoded: Encoded = vec![None; sizes.distinct];
    let encode = cfg.measure(cfg.seconds / 2.0, || {
        Ok(mb_per_rep / encode_rep(&inputs, &sizes, &mut encoded, &mut off))
    })?;
    let decode = cfg.measure(cfg.seconds / 2.0, || {
        Ok(mb_per_rep / decode_rep(&inputs, &sizes, &encoded, &mut out, &mut off))
    })?;
    out.set_median("work_per_s", &encode);
    out.set_median("alt_work_per_s", &decode);
    out.set_median("setup_s", &setup);
    Ok(out)
}

/// GB/s of a body that processes `bytes_per_call` per call, over loops of
/// `loop_bytes` of input.
fn gbps(loop_bytes: usize, bytes_per_call: usize, body: impl FnMut(usize)) -> f64 {
    let calls = (loop_bytes / bytes_per_call).max(1);
    bytes_per_call as f64 / ns_per_call(calls, body)
}

/// The traced run and the stand-alone loops over `gf` and `ec`.
fn layer_run(
    cfg: &RunCfg,
    sizes: &Sizes,
    inputs: &Inputs,
    out: &mut Outcome,
) -> Result<(), String> {
    // One traced repetition between two untraced ones of the same work,
    // after a warm-up.
    let mut encoded: Encoded = vec![None; sizes.distinct];
    let mut rep = |rec: &mut Recorder, out: &mut Outcome| {
        let (t, (e, d)) = timed(|| {
            let e = encode_rep(inputs, sizes, &mut encoded, rec);
            (e, decode_rep(inputs, sizes, &encoded, out, rec))
        });
        (t, e, d)
    };
    let mut rec = Recorder::new(true);
    rep(&mut Recorder::new(false), out);
    let (before, ..) = rep(&mut Recorder::new(false), out);
    let (traced, encode_s, decode_s) = rep(&mut rec, out);
    let (after, ..) = rep(&mut Recorder::new(false), out);
    out.ledger_note(&rec, traced, (before + after) / 2.0);
    let layers = rec.layer_times();
    let busy = |name: &str| layers.get(name).map_or(0.0, |t| t.self_ns as f64 / 1e9);
    out.set("ec.mlec.encode_busy_s", busy("ec.mlec.encode"));
    out.set("ec.mlec.reconstruct_busy_s", busy("ec.mlec.reconstruct"));
    let user_gb = sizes.user_bytes_per_stripe() * sizes.stripes_per_rep as f64 / 1e9;
    let encode_gbps = user_gb / encode_s;
    out.set("ec.mlec_encode_gbps", encode_gbps);
    out.set("ec.mlec_decode_gbps", user_gb / decode_s);

    let chunk = sizes.chunk_bytes;
    let mut rng = SplitMix64::new(SeedStream::new(cfg.seed, "benchmark/codec_layers").derive(&[0]));
    // 128 distinct inputs (16 MiB): more than the kernels can keep in L2.
    let pool: Vec<Vec<u8>> = (0..128).map(|_| random_bytes(&mut rng, chunk)).collect();

    // gf: the two slice kernels every code is built from.
    let mut acc = vec![0u8; chunk];
    let mul_add = gbps(sizes.loop_bytes, chunk, |i| {
        mlec_gf::slice::mul_add_slice((i as u8 ^ 0x1d) | 2, &pool[i % pool.len()], &mut acc);
    });
    let xor = gbps(sizes.loop_bytes, chunk, |i| {
        mlec_gf::slice::xor_slice(&pool[i % pool.len()], &mut acc);
    });
    black_box(&acc);
    out.set("gf.mul_add_slice_gbps", mul_add);
    out.set("gf.xor_slice_gbps", xor);

    // ec: Reed-Solomon at the shapes the paper's Fig 11 slices through.
    for (name, k, p) in [
        ("ec.rs_encode_gbps.k10p2", 10, 2),
        ("ec.rs_encode_gbps.k17p3", 17, 3),
        ("ec.rs_encode_gbps.k10p12", 10, 12),
    ] {
        let rs = ReedSolomon::new(k, p).map_err(|e| e.to_string())?;
        let data: Vec<&[u8]> = (0..k).map(|i| pool[i].as_slice()).collect();
        let mut parity = vec![vec![0u8; chunk]; p];
        let rate = gbps(sizes.loop_bytes, k * chunk, |_| {
            rs.encode_into(&data, &mut parity).expect("shapes match");
        });
        black_box(&parity);
        out.set(name, rate);
    }
    let rs = ReedSolomon::new(KL, PL).map_err(|e| e.to_string())?;
    let shards = rs.encode(&pool[..KL]).map_err(|e| e.to_string())?;
    out.set(
        "ec.rs_reconstruct_gbps.k17p3",
        gbps(sizes.loop_bytes, KL * chunk, |_| {
            let mut present: Vec<Option<Vec<u8>>> = shards.iter().cloned().map(Some).collect();
            for lost in [1, 5, 11] {
                present[lost] = None;
            }
            rs.reconstruct(&mut present)
                .expect("three erasures are tolerable");
            black_box(&present);
        }),
    );
    let lrc = Lrc::new(14, 2, 4).map_err(|e| e.to_string())?;
    out.set(
        "ec.lrc_encode_gbps.k14l2r4",
        gbps(sizes.loop_bytes, 14 * chunk, |_| {
            black_box(lrc.encode(&pool[..14]).expect("shapes match"));
        }),
    );

    // ec: the two repair paths of the two-level code on their own, a single
    // degraded chunk read, and the multi-core encode.
    let stripe = inputs
        .codec
        .encode(&inputs.data[0])
        .map_err(|e| e.to_string())?;
    let stripe_bytes = sizes.user_bytes_per_stripe() as usize;
    let local_only = Pattern {
        lost_rows: vec![],
        lost_cols: inputs.patterns[0].lost_cols.clone(),
    };
    let rows_only = Pattern {
        lost_rows: inputs.patterns[0].lost_rows.clone(),
        lost_cols: vec![vec![]; KN + PN],
    };
    for (name, pattern) in [
        ("ec.mlec_local_repair_gbps", &local_only),
        ("ec.mlec_network_repair_gbps", &rows_only),
    ] {
        let mut seconds = Vec::new();
        for _ in 0..if cfg.quick { 2 } else { 8 } {
            let mut grid = erase(&stripe, pattern);
            let (t, counts) = timed(|| inputs.codec.reconstruct(&mut grid));
            out.check(counts.is_ok(), name);
            seconds.push(t);
        }
        out.set(name, stripe_bytes as f64 / stats::median(&seconds) / 1e9);
    }
    // A chunk of a wholly lost row: decoded down its column, across racks.
    let degraded = erase(&stripe, &rows_only);
    let lost_row = inputs.patterns[0].lost_rows[0];
    let mut read_us = Vec::new();
    for (col, want) in stripe[lost_row].iter().enumerate().take(KL) {
        let (t, got) = timed(|| inputs.codec.read_degraded(&degraded, lost_row, col));
        out.check(
            got.is_ok_and(|(bytes, _)| &bytes == want),
            "read_degraded returns the lost chunk",
        );
        read_us.push(t * 1e6);
    }
    out.set("ec.mlec_read_degraded_us", stats::median(&read_us));
    let (mut serial, mut parallel) = (Vec::new(), Vec::new());
    for _ in 0..if cfg.quick { 1 } else { 6 } {
        serial.push(timed(|| black_box(inputs.codec.encode(&inputs.data[0]))).0);
        let (t, par) = timed(|| inputs.codec.encode_parallel(&inputs.data[0], 2));
        out.check(par.as_ref() == Ok(&stripe), "encode_parallel equals encode");
        parallel.push(t);
    }
    out.set(
        "ec.encode_parallel_speedup_t2",
        stats::median(&serial) / stats::median(&parallel),
    );

    // Computed, not measured: GF multiply-adds per byte of user data.
    let gf_ops = PN as f64 + PL as f64 * (KN + PN) as f64 / KN as f64;
    out.set("ec.gf_ops_per_user_byte", gf_ops);
    out.set(
        "ec.mlec_encode_kernel_efficiency",
        encode_gbps * gf_ops / mul_add,
    );

    cfg.write_trace(&rec)
}
