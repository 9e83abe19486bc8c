//! Absolute op-log goldens: the FNV-1a of the JSONL op log plus the
//! report's integer counters, pinned as literals for five small scenarios
//! that together reach every chunk read and write the store makes — column
//! and row decodes, a column helper decoded in its own row, network and
//! local rebuilds (each reading only the survivors
//! `MlecCodec::read_set` names, which `repair_ios`/`repair_bytes` pin),
//! full-survivor fetches of dead stripes, and deletes. Every other
//! determinism test compares two runs of the same build; these pin the
//! bytes across commits, so a refactor of the chunk path that reorders one
//! charge or one cache access fails here.
//!
//! Each scenario runs on the monolithic path (`shards = 0`) and on the
//! epoch scheduler (`shards = 2`) against the same literal.

use mlec_runner::seed_stream::fnv1a;
use mlec_store::{run_store_bench, BenchSpec, KillSpec};

/// What a run is pinned on.
#[derive(Debug, PartialEq, Eq)]
struct Golden {
    oplog_fnv: u64,
    foreground_ios: u64,
    foreground_bytes: u64,
    repair_ios: u64,
    repair_bytes: u64,
    degraded_reads: u64,
    repaired_local_chunks: u64,
    repaired_network_chunks: u64,
    unrecoverable_stripes: u64,
    verified_final: u64,
}

fn check(name: &str, base: BenchSpec, want: Golden) {
    let dir = std::env::temp_dir()
        .join("mlec-store-tests")
        .join(format!("oplog-goldens-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    for shards in [0usize, 2] {
        let log = dir.join(format!("s{shards}.jsonl"));
        let mut spec = base.clone();
        spec.shards = shards;
        spec.oplog = Some(log.clone());
        let r = run_store_bench(&spec).unwrap();
        let got = Golden {
            oplog_fnv: fnv1a(&std::fs::read(&log).unwrap()),
            foreground_ios: r.foreground_ios,
            foreground_bytes: r.foreground_bytes,
            repair_ios: r.repair_ios,
            repair_bytes: r.repair_bytes,
            degraded_reads: r.degraded_reads,
            repaired_local_chunks: r.repaired_local_chunks,
            repaired_network_chunks: r.repaired_network_chunks,
            unrecoverable_stripes: r.unrecoverable_stripes,
            verified_final: r.verified_final,
        };
        assert_eq!(got, want, "{name} at shards={shards}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

fn killed(ops: u64, racks: u32, disks: u32) -> BenchSpec {
    let mut spec = BenchSpec::small(ops);
    spec.kill = Some(KillSpec {
        at_op: ops / 3,
        racks,
        disks,
    });
    spec
}

#[test]
fn one_rack_kill() {
    // Column decodes on the degraded path, a network rebuild.
    check(
        "rack",
        killed(2_400, 1, 0),
        Golden {
            oplog_fnv: 0x3b79ea140a35144c,
            foreground_ios: 8_380,
            foreground_bytes: 34_324_480,
            repair_ios: 1_764,
            repair_bytes: 7_225_344,
            degraded_reads: 215,
            repaired_local_chunks: 0,
            repaired_network_chunks: 588,
            unrecoverable_stripes: 0,
            verified_final: 256,
        },
    );
}

#[test]
fn partial_rack_kill() {
    // Row decodes on the degraded path and in the rebuild: a stripe that
    // lost one chunk of a row reads `k_l` survivors of that row.
    check(
        "disks",
        killed(2_400, 0, 4),
        Golden {
            oplog_fnv: 0x4937ab4c40d3a2cb,
            foreground_ios: 8_055,
            foreground_bytes: 32_993_280,
            repair_ios: 395,
            repair_bytes: 1_617_920,
            degraded_reads: 114,
            repaired_local_chunks: 69,
            repaired_network_chunks: 50,
            unrecoverable_stripes: 0,
            verified_final: 256,
        },
    );
}

#[test]
fn rack_kill_with_disks_of_the_next_rack() {
    // Mixed damage: a lost row whose column is short a helper that another
    // row decodes locally; the codec plans that read, for gets and rebuilds
    // alike, without a full-grid fetch. Stripes with two lost rows fail
    // their gets and rebuilds, reading every survivor.
    check(
        "mixed",
        killed(2_400, 1, 4),
        Golden {
            oplog_fnv: 0x1d64c5213ff6e6ee,
            foreground_ios: 8_446,
            foreground_bytes: 34_594_816,
            repair_ios: 1_912,
            repair_bytes: 7_831_552,
            degraded_reads: 299,
            repaired_local_chunks: 52,
            repaired_network_chunks: 585,
            unrecoverable_stripes: 5,
            verified_final: 251,
        },
    );
}

#[test]
fn two_rack_kill_beyond_tolerance() {
    // Full-grid fetches, dead objects, and the partial charging of a get
    // that fails part-way.
    let mut spec = killed(2_000, 2, 0);
    spec.load.objects = 64;
    check(
        "two-racks",
        spec,
        Golden {
            oplog_fnv: 0xda67e0d296934dbb,
            foreground_ios: 5_906,
            foreground_bytes: 24_190_976,
            repair_ios: 366,
            repair_bytes: 1_499_136,
            degraded_reads: 209,
            repaired_local_chunks: 0,
            repaired_network_chunks: 114,
            unrecoverable_stripes: 4,
            verified_final: 60,
        },
    );
}

#[test]
fn deletes() {
    let mut spec = BenchSpec::small(2_000);
    spec.load.delete_pct = 20;
    check(
        "deletes",
        spec,
        Golden {
            oplog_fnv: 0x1fd02eb4da761b21,
            foreground_ios: 10_108,
            foreground_bytes: 26_361_856,
            repair_ios: 0,
            repair_bytes: 0,
            degraded_reads: 0,
            repaired_local_chunks: 0,
            repaired_network_chunks: 0,
            unrecoverable_stripes: 0,
            verified_final: 156,
        },
    );
}
