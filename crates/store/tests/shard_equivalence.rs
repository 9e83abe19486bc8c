//! Seeded property test for the epoch scheduler: over random Zipf
//! workloads with a random mid-trace rack kill, every `(shards, threads)`
//! combination must reproduce the serial reference path exactly — the
//! JSONL op log byte for byte, and the per-phase p50/p99/p999 histograms
//! value for value. This is the contract that lets `shards=` be a pure
//! speed knob.

use mlec_runner::{SeedStream, SplitMix64};
use mlec_store::{run_store_bench, BenchSpec, KillSpec};
use std::path::PathBuf;

fn scratch() -> PathBuf {
    let dir = std::env::temp_dir()
        .join("mlec-store-tests")
        .join(format!("shard-equivalence-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Draw a randomized benchmark spec: trace shape, Zipf skew, op mix, and
/// a kill point anywhere in the first two-thirds of the trace.
fn random_spec(rng: &mut SplitMix64) -> BenchSpec {
    let ops = 1_200 + rng.next_u64() % 1_800;
    let mut spec = BenchSpec::small(ops);
    spec.load.objects = 64 + rng.next_u64() % 192;
    spec.load.zipf_s = 0.5 + (rng.next_u64() % 100) as f64 / 100.0;
    spec.load.put_pct = 5 + (rng.next_u64() % 20) as u32;
    spec.load.delete_pct = (rng.next_u64() % 10) as u32;
    spec.seed = rng.next_u64();
    spec.batch = 256 + (rng.next_u64() % 1024) as usize;
    spec.verify_every = 8;
    spec.kill = Some(KillSpec {
        at_op: rng.next_u64() % (ops * 2 / 3),
        racks: 1,
        disks: (rng.next_u64() % 3) as u32,
    });
    spec
}

#[test]
fn sharded_apply_reproduces_the_serial_path_exactly() {
    let dir = scratch();
    let cases = SeedStream::new(0xec0c, "store/shard-equivalence");
    for case in 0..6u64 {
        let mut rng = SplitMix64::new(cases.trial_seed(case));
        let base = random_spec(&mut rng);

        // Serial reference: shards = 0.
        let serial_log = dir.join(format!("case{case}-serial.jsonl"));
        let mut serial_spec = base.clone();
        serial_spec.shards = 0;
        serial_spec.threads = 1;
        serial_spec.oplog = Some(serial_log.clone());
        let serial = run_store_bench(&serial_spec).unwrap();
        let serial_bytes = std::fs::read(&serial_log).unwrap();
        assert_eq!(serial.oplog_records, base.load.ops);
        assert!(!serial.phases.is_empty());

        for shards in [1usize, 2, 4, 8] {
            for threads in [1usize, 4] {
                let log = dir.join(format!("case{case}-s{shards}-t{threads}.jsonl"));
                let mut spec = base.clone();
                spec.shards = shards;
                spec.threads = threads;
                spec.oplog = Some(log.clone());
                let report = run_store_bench(&spec).unwrap();

                assert_eq!(
                    std::fs::read(&log).unwrap(),
                    serial_bytes,
                    "case {case}: op log diverged at shards={shards} threads={threads}"
                );
                // Identical per-phase latency distributions, not just logs.
                assert_eq!(
                    report.phases, serial.phases,
                    "case {case}: phase histograms diverged at shards={shards} threads={threads}"
                );
                assert_eq!(
                    report, serial,
                    "case {case}: report diverged at shards={shards} threads={threads}"
                );
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The driver's stripe grids outlive a batch — a put is encoded into the
/// grid some earlier batch's put left behind — so how the trace is cut into
/// batches, and over how many prepare threads, must change nothing: not
/// one op per batch, not a size that leaves a ragged tail, not the whole
/// trace in one.
#[test]
fn batch_size_and_prepare_threads_never_change_the_report() {
    // A directory of its own: `scratch()` wipes the one the test above is
    // writing to on another thread.
    let dir = std::env::temp_dir()
        .join("mlec-store-tests")
        .join(format!("batch-equivalence-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let mut base = BenchSpec::small(900);
    base.load.objects = 48;
    base.load.put_pct = 40;
    base.load.delete_pct = 5;
    base.verify_every = 4;
    base.kill = Some(KillSpec {
        at_op: 300,
        racks: 1,
        disks: 0,
    });
    let mut reference = None;
    for shards in [0usize, 2] {
        for batch in [1usize, 7, 1024] {
            for threads in [1usize, 3] {
                let log = dir.join(format!("s{shards}-b{batch}-t{threads}.jsonl"));
                let mut spec = base.clone();
                (spec.shards, spec.batch, spec.threads) = (shards, batch, threads);
                spec.oplog = Some(log.clone());
                let run = (
                    run_store_bench(&spec).unwrap(),
                    std::fs::read(&log).unwrap(),
                );
                assert!(run.0.puts > 200 && run.0.verified_final > 0);
                let reference = reference.get_or_insert_with(|| run.clone());
                assert!(
                    run == *reference,
                    "report or op log diverged at shards={shards} batch={batch} threads={threads}"
                );
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
