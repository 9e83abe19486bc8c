//! The command itself, end to end, on `--quick` inputs: all six workloads
//! run clean, a seed repeats its counts and virtual times exactly, another
//! seed runs clean too, and `compare` judges the result sets.

use mlec_benchmark::compare::{judge, samples_of, Verdict};
use mlec_benchmark::ledger::{is_exact_unit, Ledger};
use mlec_runner::Json;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::time::Instant;

fn bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mlec-benchmark"))
        .args(args)
        .output()
        .expect("the benchmark binary runs")
}

fn tmp(name: &str) -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join("smoke")
        .join(name)
}

/// `--workload all --quick` at `seed` into its own directory; the result set.
fn quick_set(name: &str, seed: u64) -> (PathBuf, Json) {
    let out = tmp(name);
    let results = out.join("results.json");
    let run = bench(&[
        "--workload",
        "all",
        "--quick",
        "--seed",
        &seed.to_string(),
        "--out",
        out.to_str().expect("utf-8 path"),
    ]);
    assert!(
        run.status.success(),
        "seed {seed}:\n{}\n{}",
        String::from_utf8_lossy(&run.stdout),
        String::from_utf8_lossy(&run.stderr)
    );
    let text = std::fs::read_to_string(&results).expect("result set written");
    (results, Json::parse(&text).expect("result set is JSON"))
}

#[test]
fn quick_runs_all_workloads_and_repeats_exact_metrics() {
    let ledger = Ledger::load();
    let start = Instant::now();
    let (path_a, a) = quick_set("a", 42);
    let elapsed = start.elapsed().as_secs_f64();
    // Optimised builds finish in a few seconds; `cargo test` without
    // `--release` is given room.
    let limit = if cfg!(debug_assertions) { 120.0 } else { 10.0 };
    assert!(
        elapsed < limit,
        "quick run of all workloads took {elapsed:.1} s"
    );

    let runs = a.get("runs").and_then(Json::as_arr).expect("runs");
    assert_eq!(runs.len(), 2 * ledger.workloads.len());
    for run in runs {
        assert_eq!(run.get("correct").and_then(Json::as_bool), Some(true));
        assert_eq!(run.get("failed").and_then(Json::as_u64), Some(0));
        assert!(run.get("attempted").and_then(Json::as_u64) >= Some(1));
    }
    let fingerprint = a.get("fingerprint").expect("fingerprint");
    for key in [
        "cpu_model",
        "nproc",
        "llc_size",
        "gf_kernel",
        "rustc",
        "git_commit",
        "seeds",
    ] {
        assert!(fingerprint.get(key).is_some(), "fingerprint lacks {key}");
    }
    for workload in &ledger.workloads {
        assert!(
            tmp("a").join(format!("trace_{workload}.json")).is_file(),
            "{workload}"
        );
    }

    // Same seed again: every count and virtual-time reading repeats.
    let (path_b, b) = quick_set("b", 42);
    let (sa, sb) = (samples_of(&a).expect("a"), samples_of(&b).expect("b"));
    let mut exact = 0;
    for ((workload, name), va) in &sa {
        let decl = ledger.metric(name).expect("declared");
        if is_exact_unit(&decl.unit) {
            exact += 1;
            let vb = &sb[&(workload.clone(), name.clone())];
            assert_eq!(
                judge(decl, va, vb),
                Verdict::Same,
                "{workload}/{name}: {va:?} vs {vb:?}"
            );
        }
    }
    assert!(exact > 50, "only {exact} exact readings compared");

    // `compare` reads both files and finds nothing that must repeat differing.
    let cmp = bench(&[
        "compare",
        path_a.to_str().expect("utf-8"),
        path_b.to_str().expect("utf-8"),
    ]);
    let table = String::from_utf8_lossy(&cmp.stdout);
    assert!(
        table.contains("work_per_s") && !table.contains("differs"),
        "{table}"
    );

    // Another seed runs clean (asserted inside `quick_set`).
    quick_set("c", 7);
}

#[test]
fn bad_usage_exits_nonzero_without_a_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--trace", "2"][..],
        &["compare", "x"][..],
    ] {
        let run = bench(args);
        assert_eq!(run.status.code(), Some(2), "{args:?}");
        assert!(!String::from_utf8_lossy(&run.stdout).contains("\"correct\""));
    }
}
