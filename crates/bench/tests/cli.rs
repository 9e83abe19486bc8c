//! End-to-end tests of the `mlec` driver binary: registry enumeration,
//! schema enforcement (exit code 2 on unresolvable names/arguments, 1 on
//! failed acceptance gates), and fixed-seed golden regressions for both
//! analytic and simulated modes of the refactored figures.

use std::path::PathBuf;
use std::process::{Command, Output};

/// Every experiment the registry must expose (one per EXPERIMENTS.md entry).
const ALL_EXPERIMENTS: &[&str] = &[
    "fig01",
    "table2",
    "fig05",
    "fig06",
    "fig07",
    "fig08",
    "fig09",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig15",
    "fig16",
    "sec514",
    "ablations",
    "paper_summary",
    "validation",
    "trace",
    "store_bench",
];

fn mlec(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mlec"))
        .args(args)
        .output()
        .expect("spawn mlec driver")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn status(out: &Output) -> i32 {
    out.status.code().expect("driver terminated by signal")
}

/// A per-test scratch directory under the target temp dir (no external
/// tempdir crate; unique per test name, wiped on entry).
fn scratch(test: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("mlec-cli-tests")
        .join(format!("{test}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

#[test]
fn list_enumerates_every_registered_experiment() {
    let out = mlec(&["list"]);
    assert_eq!(status(&out), 0, "stderr: {}", stderr(&out));
    let text = stdout(&out);
    for name in ALL_EXPERIMENTS {
        assert!(text.contains(name), "`mlec list` is missing `{name}`");
    }
    assert!(text.contains("analytic"));
    assert!(text.contains("sim"));
}

#[test]
fn list_output_is_sorted_by_name() {
    let out = mlec(&["list"]);
    assert_eq!(status(&out), 0);
    let text = stdout(&out);
    let names: Vec<&str> = text
        .lines()
        .filter_map(|l| l.split_whitespace().next())
        .filter(|first| ALL_EXPERIMENTS.contains(first))
        .collect();
    assert_eq!(names.len(), ALL_EXPERIMENTS.len(), "rows missing:\n{text}");
    let mut sorted = names.clone();
    sorted.sort_unstable();
    assert_eq!(names, sorted, "`mlec list` rows must be sorted by name");
}

#[test]
fn info_prints_parameter_schema() {
    let out = mlec(&["info", "fig10"]);
    assert_eq!(status(&out), 0);
    let text = stdout(&out);
    assert!(text.contains("require_events"));
    assert!(text.contains("default"));
    assert!(text.contains("mode="));
}

#[test]
fn unknown_experiment_exits_2() {
    let out = mlec(&["run", "fig99"]);
    assert_eq!(status(&out), 2);
    assert!(stderr(&out).contains("unknown experiment `fig99`"));
}

#[test]
fn unknown_experiment_gets_a_did_you_mean() {
    let out = mlec(&["run", "store_benh"]);
    assert_eq!(status(&out), 2);
    let err = stderr(&out);
    assert!(
        err.contains("did you mean `store_bench`"),
        "missing suggestion in: {err}"
    );
    let out = mlec(&["info", "validatoin"]);
    assert_eq!(status(&out), 2);
    assert!(stderr(&out).contains("did you mean `validation`"));
}

#[test]
fn typoed_parameter_is_a_hard_error() {
    // The motivating bug: `afr_pc=1` used to be silently ignored, running
    // the 75%-AFR default instead of the requested configuration.
    let out = mlec(&["run", "fig07", "afr_pc=1"]);
    assert_eq!(status(&out), 2);
    let err = stderr(&out);
    assert!(err.contains("unknown parameter `afr_pc`"));
    assert!(
        err.contains("afr_pct"),
        "error must suggest the accepted keys"
    );
}

#[test]
fn malformed_value_exits_2() {
    let out = mlec(&["run", "fig07", "trials=many"]);
    assert_eq!(status(&out), 2);
    assert!(stderr(&out).contains("invalid value `many` for `trials`"));
    // Hostile values that used to panic (empty heatmap axis) or run
    // (negative rates and skews).
    for (args, needle) in [
        (["run", "fig05", "max=0"], "invalid value `0` for `max`"),
        (["run", "fig13", "max=0"], "invalid value `0` for `max`"),
        (["run", "fig16", "max=0"], "invalid value `0` for `max`"),
        (
            ["run", "fig08", "afr_pct=-5"],
            "invalid value `-5` for `afr_pct`",
        ),
        (
            ["run", "store_bench", "zipf=-1"],
            "invalid value `-1` for `zipf`",
        ),
    ] {
        let out = mlec(&args);
        assert_eq!(status(&out), 2, "{args:?}");
        assert!(stderr(&out).contains(needle), "{}", stderr(&out));
    }
}

#[test]
fn unsupported_mode_exits_2() {
    let out = mlec(&["run", "fig06", "mode=sim"]);
    assert_eq!(status(&out), 2);
    assert!(stderr(&out).contains("has no mode=sim"));
}

#[test]
fn fig06_analytic_golden() {
    let dir = scratch("fig06");
    let out = mlec(&["run", "fig06", &format!("out={}", dir.display())]);
    assert_eq!(status(&out), 0, "stderr: {}", stderr(&out));
    let text = stdout(&out);
    // Paper-comparable repair-time table (hours): C/C pool 444.9, C/D pool
    // 2667.2, and the declustered variants 82.0 / 489.4.
    for golden in ["444.9", "2667.2", "82.0", "489.4"] {
        assert!(text.contains(golden), "missing `{golden}` in:\n{text}");
    }
    assert!(dir.join("fig06.json").is_file(), "artifact not written");
}

#[test]
fn table2_analytic_golden() {
    let dir = scratch("table2");
    let out = mlec(&["run", "table2", &format!("out={}", dir.display())]);
    assert_eq!(status(&out), 0);
    let text = stdout(&out);
    for golden in ["40", "250", "264", "1364"] {
        assert!(text.contains(golden), "missing `{golden}` in:\n{text}");
    }
}

#[test]
fn fig05_fixed_seed_golden_and_thread_invariance() {
    let dir1 = scratch("fig05-t1");
    let dir4 = scratch("fig05-t4");
    let args = ["max=12", "step=6", "samples=10", "seed=1"];
    let mut a1: Vec<&str> = vec!["run", "fig05", "threads=1"];
    let o1 = format!("out={}", dir1.display());
    a1.extend(args);
    a1.push(&o1);
    let mut a4: Vec<&str> = vec!["run", "fig05", "threads=4"];
    let o4 = format!("out={}", dir4.display());
    a4.extend(args);
    a4.push(&o4);
    let r1 = mlec(&a1);
    let r4 = mlec(&a4);
    assert_eq!(status(&r1), 0, "stderr: {}", stderr(&r1));
    assert_eq!(status(&r4), 0, "stderr: {}", stderr(&r4));

    // Per-trial seeding makes the campaign bit-identical across thread
    // counts: identical reports (minus artifact paths) and JSON bytes.
    let strip = |s: String| -> String {
        s.lines()
            .filter(|l| !l.starts_with("json: "))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(strip(stdout(&r1)), strip(stdout(&r4)));
    let j1 = std::fs::read(dir1.join("fig05.json")).expect("fig05.json (threads=1)");
    let j4 = std::fs::read(dir4.join("fig05.json")).expect("fig05.json (threads=4)");
    assert_eq!(j1, j4, "heatmap JSON differs across thread counts");

    // Fixed-seed golden: the D/D map's first non-trivial PDL cell.
    let json = String::from_utf8(j1).unwrap();
    assert!(
        json.contains("6.524636655583522e-10"),
        "fig05 seed=1 golden cell missing from JSON"
    );
}

#[test]
fn fig05_adaptive_rel_err_stop() {
    let dir = scratch("fig05-adaptive");
    let out = mlec(&[
        "run",
        "fig05",
        "max=12",
        "step=6",
        "samples=40",
        "rel_err=0.3",
        "min_samples=8",
        "seed=1",
        &format!("out={}", dir.display()),
    ]);
    assert_eq!(status(&out), 0, "stderr: {}", stderr(&out));
    assert!(
        stdout(&out).contains("adaptive stop"),
        "rel_err= run must report the adaptive trial spend"
    );
}

#[test]
fn fig07_sim_mode_golden() {
    let dir = scratch("fig07-sim");
    let out = mlec(&[
        "run",
        "fig07",
        "mode=sim",
        "trials=8",
        "years=25",
        &format!("out={}", dir.display()),
    ]);
    assert_eq!(status(&out), 0, "stderr: {}", stderr(&out));
    let text = stdout(&out);
    // Root seed 42: C/C sees 19 catastrophic events in 200 pool-years at
    // auto bias 662, reweighted to 9.28e-10 per pool-year.
    for golden in ["19/200y", "662", "9.28e-10", "196/200y"] {
        assert!(text.contains(golden), "missing `{golden}` in:\n{text}");
    }
    assert!(dir.join("fig07_sim.json").is_file());
}

#[test]
fn fig08_sim_mode_golden() {
    let dir = scratch("fig08-sim");
    let out = mlec(&[
        "run",
        "fig08",
        "mode=sim",
        "trials=1",
        "years=1",
        &format!("out={}", dir.display()),
    ]);
    assert_eq!(status(&out), 0, "stderr: {}", stderr(&out));
    let text = stdout(&out);
    // Measured per-pool traffic equals the analytic plan (the simulator
    // charges repairs from it); catastrophic-pool counts are seed-fixed.
    assert!(text.contains("   C/D   R_ALL  26400.0      26400.0         10         1"));
    assert!(text.contains("   D/D   R_MIN     0.78         0.78          6         1"));
    assert!(dir.join("fig08_sim.json").is_file());
}

#[test]
fn store_bench_smoke_kill_gates_and_thread_invariant_oplog() {
    let dir = scratch("store-smoke");
    let base = [
        "run",
        "store_bench",
        "ops=2000",
        "objects=256",
        "kill_at=600",
        "verify_every=16",
        "require_degraded=1",
    ];
    let mut logs = Vec::new();
    for threads in ["1", "4"] {
        let oplog = dir.join(format!("t{threads}.jsonl"));
        let mut args: Vec<String> = base.iter().map(|s| (*s).to_string()).collect();
        args.push(format!("threads={threads}"));
        args.push(format!("oplog={}", oplog.display()));
        args.push(format!("out={}", dir.display()));
        let argv: Vec<&str> = args.iter().map(String::as_str).collect();
        let out = mlec(&argv);
        assert_eq!(status(&out), 0, "stderr: {}", stderr(&out));
        let text = stdout(&out);
        assert!(text.contains("rebuild"), "no rebuild phase in:\n{text}");
        assert!(
            text.contains("degraded reads"),
            "no degraded reads:\n{text}"
        );
        logs.push(std::fs::read(&oplog).expect("op log written"));
    }
    assert!(!logs[0].is_empty());
    assert_eq!(logs[0], logs[1], "op log differs across thread counts");
    assert!(dir.join("store_bench.json").is_file(), "artifact missing");
}

#[test]
fn store_bench_shard_sweep_oplog_identical() {
    // `shards=` selects the apply engine (0 = monolithic serial, N >= 1 =
    // epoch-sharded): the op log must be byte-identical either way, with
    // a mid-trace kill in the window.
    let dir = scratch("store-shards");
    let base = [
        "run",
        "store_bench",
        "ops=2000",
        "objects=256",
        "kill_at=600",
        "verify_every=16",
        "require_degraded=1",
    ];
    let mut logs = Vec::new();
    for shards in ["0", "4"] {
        let oplog = dir.join(format!("s{shards}.jsonl"));
        let mut args: Vec<String> = base.iter().map(|s| (*s).to_string()).collect();
        args.push(format!("shards={shards}"));
        args.push(format!("oplog={}", oplog.display()));
        args.push(format!("out={}", dir.display()));
        let argv: Vec<&str> = args.iter().map(String::as_str).collect();
        let out = mlec(&argv);
        assert_eq!(status(&out), 0, "stderr: {}", stderr(&out));
        logs.push(std::fs::read(&oplog).expect("op log written"));
    }
    assert!(!logs[0].is_empty());
    assert_eq!(logs[0], logs[1], "op log differs across shard counts");
}

#[test]
fn store_bench_gate_fails_without_a_kill() {
    // require_degraded=1 with no injection: nothing degrades, exit 1.
    let out = mlec(&[
        "run",
        "store_bench",
        "ops=300",
        "objects=64",
        "verify_every=0",
        "require_degraded=1",
    ]);
    assert_eq!(status(&out), 1, "stderr: {}", stderr(&out));
    assert!(stderr(&out).contains("require_degraded"));
}

#[test]
fn fig10_require_events_gate_exits_1() {
    let dir = scratch("fig10-gate");
    let out = mlec(&[
        "run",
        "fig10",
        "mode=sim",
        "trials=2",
        "years=1",
        "bias=1",
        "require_events=5",
        &format!("out={}", dir.display()),
    ]);
    assert_eq!(status(&out), 1, "gate failure must exit 1");
    assert!(stderr(&out).contains("require_events"));
}
