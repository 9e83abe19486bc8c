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

/// `mlec list` and `mlec info <name>` for every experiment, recorded at the
/// commit before the schema became a typed struct: the declaration may
/// change shape, what it prints may not.
const LIST_GOLDEN: &str = r#"         name         modes                   title                                                                   description
---------------------------------------------------------------------------------------------------------------------------------
    ablations      analytic               Ablations                        detection time, throttle, AFR, and spare policy sweeps
        fig01      analytic                Figure 1                                                storage scaling over the years
        fig05           sim                Figure 5                                      MLEC PDL under correlated failure bursts
        fig06      analytic                Figure 6                                           repair time per MLEC scheme (R_ALL)
        fig07  analytic,sim                Figure 7                   probability of catastrophic local failure (per system-year)
        fig08  analytic,sim                Figure 8                          cross-rack repair traffic (TB) per method and scheme
        fig09  analytic,sim                Figure 9                     repair time split into network (-N) and local (-L) phases
        fig10  analytic,sim               Figure 10                               durability (nines) per scheme and repair method
        fig11      measured               Figure 11            (k+p) encoding throughput heatmap (single-core default, threads=N)
        fig12  analytic,sim               Figure 12                   MLEC vs SLEC durability/throughput tradeoff (~30% overhead)
        fig13           sim               Figure 13                               SLEC PDL under correlated failure bursts, (7+3)
        fig15  analytic,sim               Figure 15                             MLEC C/D vs LRC-Dp durability/throughput tradeoff
        fig16           sim               Figure 16                           LRC-Dp (14,2,4) PDL under correlated failure bursts
paper_summary      analytic    Reproduction summary                                     paper headline numbers vs this repository
       sec514      analytic  Sections 5.1.4 & 5.2.4                                   repair network traffic: SLEC vs LRC vs MLEC
  store_bench           sim             Store bench          trace-driven object-store replay: rebuild vs foreground tail latency
       table2      analytic                 Table 2  repair size and available repair bandwidth (single disk / catastrophic pool)
        trace           sim             Trace tools                               synthesize, analyze, and replay a failure trace
   validation           sim              Validation               direct system simulation vs splitting estimator at inflated AFR

run one with `mlec run <name> [key=value…]`; `mlec info <name>` for parameters.
"#;

const INFO_GOLDEN: &[(&str, &str)] = &[
    (
        "fig01",
        r#"Figure 1 — storage scaling over the years [§1, Fig 1 (motivation)]
modes: analytic (default: analytic)
parameters: none beyond the global keys
global keys: mode= out= threads= manifests=
"#,
    ),
    (
        "table2",
        r#"Table 2 — repair size and available repair bandwidth (single disk / catastrophic pool) [§4.1, Table 2]
modes: analytic (default: analytic)
parameters: none beyond the global keys
global keys: mode= out= threads= manifests=
"#,
    ),
    (
        "fig05",
        r#"Figure 5 — MLEC PDL under correlated failure bursts [§4.2, Fig 5]
modes: sim (default: sim)
  parameter                 type  default                                                                            help
-------------------------------------------------------------------------------------------------------------------------
        max              integer       60                                    largest failures/racks grid line (paper: 60)
       step              integer        6                                   grid step above 6 (1 = the paper's full grid)
    samples              integer       60            conditional-MC samples per cell (the budget cap when rel_err is set)
       seed              integer       42                                                                   root RNG seed
    rel_err  non-negative number        0  adaptive stop: target relative std error of the pooled grid (0 = fixed budget)
min_samples              integer        8                       minimum samples per cell before an adaptive stop may fire
global keys: mode= out= threads= manifests=
`run all --fast` overrides: max=12 samples=8
"#,
    ),
    (
        "fig06",
        r#"Figure 6 — repair time per MLEC scheme (R_ALL) [§4.1, Fig 6]
modes: analytic (default: analytic)
parameters: none beyond the global keys
global keys: mode= out= threads= manifests=
"#,
    ),
    (
        "fig07",
        r#"Figure 7 — probability of catastrophic local failure (per system-year) [§4.2, Fig 7]
modes: analytic, sim (default: analytic)
parameter                 type  default                                                                               help
--------------------------------------------------------------------------------------------------------------------------
  afr_pct  non-negative number        1                                       annual disk failure rate, percent (mode=sim)
    years              integer       20                                          simulated years per pool trial (mode=sim)
   trials              integer       64                                                  pool trials per scheme (mode=sim)
     seed              integer       42                                                           root RNG seed (mode=sim)
     bias               string     auto  degraded-state failure acceleration: auto, 1 (direct), or a multiplier (mode=sim)
    trace               string       ''              write per-trial JSONL event logs to this path (mode=sim; empty = off)
global keys: mode= out= threads= manifests=
`run all --fast` overrides: trials=8 years=25
"#,
    ),
    (
        "fig08",
        r#"Figure 8 — cross-rack repair traffic (TB) per method and scheme [§4.3, Fig 8]
modes: analytic, sim (default: analytic)
parameter                 type  default                                                                                                    help
-----------------------------------------------------------------------------------------------------------------------------------------------
  afr_pct  non-negative number       75                                        inflated AFR percent so missions observe catastrophes (mode=sim)
    years  non-negative number        2                                                            mission length in years per trial (mode=sim)
   trials              integer        8                                                    whole-system missions per scheme x method (mode=sim)
     seed              integer       42                                                                                root RNG seed (mode=sim)
   method               string    paper  repair methods: `paper` (R_ALL..R_MIN), `all` (adds R_LAYER, R_PIGGY), or a comma-separated label list
global keys: mode= out= threads= manifests=
`run all --fast` overrides: trials=2 years=1 method=all
"#,
    ),
    (
        "fig09",
        r#"Figure 9 — repair time split into network (-N) and local (-L) phases [§4.3, Fig 9]
modes: analytic, sim (default: analytic)
parameter                 type  default                                                                                                    help
-----------------------------------------------------------------------------------------------------------------------------------------------
  afr_pct  non-negative number       75                                        inflated AFR percent so missions observe catastrophes (mode=sim)
    years  non-negative number        2                                                            mission length in years per trial (mode=sim)
   trials              integer        8                                                    whole-system missions per scheme x method (mode=sim)
     seed              integer       42                                                                                root RNG seed (mode=sim)
   method               string    paper  repair methods: `paper` (R_ALL..R_MIN), `all` (adds R_LAYER, R_PIGGY), or a comma-separated label list
global keys: mode= out= threads= manifests=
`run all --fast` overrides: trials=2 years=1 method=all
"#,
    ),
    (
        "fig10",
        r#"Figure 10 — durability (nines) per scheme and repair method [§4.3, Fig 10]
modes: analytic, sim (default: analytic)
     parameter                 type  default                                                                               help
-------------------------------------------------------------------------------------------------------------------------------
       afr_pct  non-negative number        1                                       annual disk failure rate, percent (mode=sim)
         years              integer       20                                          simulated years per pool trial (mode=sim)
        trials              integer       64                                                  pool trials per scheme (mode=sim)
          seed              integer       42                                                           root RNG seed (mode=sim)
          bias               string     auto  degraded-state failure acceleration: auto, 1 (direct), or a multiplier (mode=sim)
require_events              integer        0      fail (non-zero exit) unless every scheme observed this many events (mode=sim)
         trace               string       ''              write per-trial JSONL event logs to this path (mode=sim; empty = off)
global keys: mode= out= threads= manifests=
`run all --fast` overrides: trials=8 years=25
"#,
    ),
    (
        "fig11",
        r#"Figure 11 — (k+p) encoding throughput heatmap (single-core default, threads=N) [§5.1.1, Fig 11]
modes: measured (default: measured)
parameter     type  default                                                              help
---------------------------------------------------------------------------------------------
     kmax  integer       50                                          largest data-chunk count
     pmax  integer       15                                              largest parity count
    kstep  integer        4                                                       k grid step
    pstep  integer        2                                                       p grid step
 chunk_kb  integer      128                                                 chunk size in KiB
       mb  integer       64                                      minimum MiB encoded per cell
  threads  integer        1  worker threads per stripe encode (1 = paper's single-core setup)
global keys: mode= out= threads= manifests=
`run all --fast` overrides: kmax=10 pmax=5 mb=8
"#,
    ),
    (
        "fig12",
        r#"Figure 12 — MLEC vs SLEC durability/throughput tradeoff (~30% overhead) [§5.1, Fig 12]
modes: analytic, sim (default: analytic)
  parameter                 type  default                                                    help
-------------------------------------------------------------------------------------------------
   failures              integer       48              burst stress cell: failed disks (mode=sim)
      racks              integer        5            burst stress cell: affected racks (mode=sim)
    rel_err  non-negative number      0.1     adaptive stop: target relative std error (mode=sim)
min_samples              integer      200  minimum conditional-MC samples per campaign (mode=sim)
    samples              integer    20000    conditional-MC sample budget per campaign (mode=sim)
       seed              integer       42                                root RNG seed (mode=sim)
global keys: mode= out= threads= manifests=
`run all --fast` overrides: rel_err=0.3 samples=2000
"#,
    ),
    (
        "fig13",
        r#"Figure 13 — SLEC PDL under correlated failure bursts, (7+3) [§5.1.3, Fig 13]
modes: sim (default: sim)
  parameter                 type  default                                                                            help
-------------------------------------------------------------------------------------------------------------------------
        max              integer       60                                    largest failures/racks grid line (paper: 60)
       step              integer        6                                   grid step above 6 (1 = the paper's full grid)
    samples              integer       60            conditional-MC samples per cell (the budget cap when rel_err is set)
       seed              integer       42                                                                   root RNG seed
    rel_err  non-negative number        0  adaptive stop: target relative std error of the pooled grid (0 = fixed budget)
min_samples              integer        8                       minimum samples per cell before an adaptive stop may fire
global keys: mode= out= threads= manifests=
`run all --fast` overrides: max=12 samples=8
"#,
    ),
    (
        "fig15",
        r#"Figure 15 — MLEC C/D vs LRC-Dp durability/throughput tradeoff [§5.2, Fig 15]
modes: analytic, sim (default: analytic)
  parameter                 type  default                                                 help
----------------------------------------------------------------------------------------------
    rel_err  non-negative number      0.1  adaptive stop: target relative std error (mode=sim)
min_samples              integer      200         minimum rank tests per LRC config (mode=sim)
    samples              integer    20000           rank-test budget per LRC config (mode=sim)
       seed              integer       42                             root RNG seed (mode=sim)
global keys: mode= out= threads= manifests=
`run all --fast` overrides: rel_err=0.3 samples=1000
"#,
    ),
    (
        "fig16",
        r#"Figure 16 — LRC-Dp (14,2,4) PDL under correlated failure bursts [§5.2.3, Fig 16]
modes: sim (default: sim)
  parameter                 type  default                                                                            help
-------------------------------------------------------------------------------------------------------------------------
        max              integer       60                                    largest failures/racks grid line (paper: 60)
       step              integer        6                                   grid step above 6 (1 = the paper's full grid)
    samples              integer       60            conditional-MC samples per cell (the budget cap when rel_err is set)
       seed              integer       42                                                                   root RNG seed
    rel_err  non-negative number        0  adaptive stop: target relative std error of the pooled grid (0 = fixed budget)
min_samples              integer        8                       minimum samples per cell before an adaptive stop may fire
global keys: mode= out= threads= manifests=
`run all --fast` overrides: max=12 samples=8
"#,
    ),
    (
        "sec514",
        r#"Sections 5.1.4 & 5.2.4 — repair network traffic: SLEC vs LRC vs MLEC [§5.1.4 / §5.2.4]
modes: analytic (default: analytic)
parameters: none beyond the global keys
global keys: mode= out= threads= manifests=
"#,
    ),
    (
        "ablations",
        r#"Ablations — detection time, throttle, AFR, and spare policy sweeps [§5.2.2 / §3 (beyond the paper's figures)]
modes: analytic (default: analytic)
parameters: none beyond the global keys
global keys: mode= out= threads= manifests=
"#,
    ),
    (
        "paper_summary",
        r#"Reproduction summary — paper headline numbers vs this repository [whole evaluation (fast analytic paths)]
modes: analytic (default: analytic)
parameters: none beyond the global keys
global keys: mode= out= threads= manifests=
"#,
    ),
    (
        "validation",
        r#"Validation — direct system simulation vs splitting estimator at inflated AFR [§6.2 (methodology cross-validation)]
modes: sim (default: sim)
parameter                 type  default                                                 help
--------------------------------------------------------------------------------------------
  afr_pct  non-negative number       75  inflated AFR percent (data loss must be observable)
    years  non-negative number        2                      mission length in years per run
     runs              integer       40                         whole-system runs per scheme
     seed              integer       42                                        root RNG seed
global keys: mode= out= threads= manifests=
`run all --fast` overrides: runs=4
"#,
    ),
    (
        "trace",
        r#"Trace tools — synthesize, analyze, and replay a failure trace [§6.1 (trace-driven fault simulation)]
modes: sim (default: sim)
          parameter                 type  default                                                            help
-----------------------------------------------------------------------------------------------------------------
            afr_pct  non-negative number        1                 background AFR percent of the synthesized trace
bursts_per_year_x10              integer       10                            correlated bursts per year, times 10
         burst_size              integer       60                                                 disks per burst
        burst_racks              integer        1                                   racks a burst concentrates on
              years  non-negative number        5                                           trace length in years
               seed              integer       42                                            trace synthesis seed
                csv               string       ''  also write the synthesized trace CSV to this path ('' = don't)
global keys: mode= out= threads= manifests=
`run all --fast` overrides: years=2
"#,
    ),
    (
        "store_bench",
        r#"Store bench — trace-driven object-store replay: rebuild vs foreground tail latency [§3 (bandwidth model), §5 (repair/foreground interference)]
modes: sim (default: sim)
       parameter                 type  default                                                                                                                                help
----------------------------------------------------------------------------------------------------------------------------------------------------------------------------------
             ops              integer  1000000                                                                                                          trace operations to replay
         objects              integer     4096                                                                           distinct objects, preloaded at version 0 before the trace
            zipf  non-negative number      1.0                                                                                          Zipf(s) popularity skew of the object draw
         put_pct              integer       10                                                                                                        percent of ops that are puts
      delete_pct              integer        0                                                                                                     percent of ops that are deletes
     ops_per_sec              integer    50000                                                                                                  trace arrival rate in virtual time
         kill_at              integer        0                                                                        inject the failure when this op index is reached (0 = never)
      kill_racks              integer        1                                                                                                 whole racks killed at the injection
      kill_disks              integer        0                                                                                       extra disks killed in the next surviving rack
           batch              integer     1024                                            most ops per in-flight window (a window also closes at a fixed budget of prepared bytes)
          shards              integer        0  apply-phase rack shards: 0 = monolithic serial apply, N >= 1 = epoch-sharded apply on N clock-domain shards (bit-identical output)
    verify_every              integer       64                                                                       verify read-back bytes on every Nth op (0 = final sweep only)
            seed              integer       42                                                                                          root seed for trace and payload derivation
         backend               string      mem                                                                                                      chunk backend: `mem` or `file`
             dir               string       ''                                                                          chunk directory for backend=file ('' = <out>/store_chunks)
           oplog               string       ''                                                                      write the deterministic JSONL op log to this path ('' = don't)
           trace               string       ''                                                                    replay this trace file instead of synthesizing ('' = synthesize)
require_degraded              integer        0                                                              1 = fail unless the kill caused degraded reads and a completed rebuild
          timing              integer        0                                                                       1 = also report wall-clock replay throughput (reporting only)
global keys: mode= out= threads= manifests=
`run all --fast` overrides: ops=2000 objects=256 kill_at=600 verify_every=16 shards=2
"#,
    ),
];

#[test]
fn info_and_list_golden() {
    let out = mlec(&["list"]);
    assert_eq!(status(&out), 0, "stderr: {}", stderr(&out));
    assert_eq!(stdout(&out), LIST_GOLDEN, "`mlec list` changed");
    let names: Vec<&str> = INFO_GOLDEN.iter().map(|(name, _)| *name).collect();
    assert_eq!(names, ALL_EXPERIMENTS);
    for (name, golden) in INFO_GOLDEN {
        let out = mlec(&["info", name]);
        assert_eq!(status(&out), 0, "stderr: {}", stderr(&out));
        assert_eq!(stdout(&out), *golden, "`mlec info {name}` changed");
    }
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
    // Integers that used to panic deep in the run (exit 101) or to run as
    // their value modulo 2^32: rejected by the parameter's field type, with
    // the accepted range in the message.
    for (args, needle) in [
        (
            ["run", "fig05", "step=4294967295"],
            "invalid value `4294967295` for `step`: expected integer in 1..=4294967289",
        ),
        (
            ["run", "fig05", "step=4294967297"],
            "invalid value `4294967297` for `step`: expected integer in 1..=4294967289",
        ),
        (
            ["run", "trace", "burst_racks=0"],
            "invalid value `0` for `burst_racks`: expected integer in 1..=4294967295",
        ),
        (
            ["run", "trace", "burst_size=4294967356"],
            "invalid value `4294967356` for `burst_size`: expected integer in 0..=4294967295",
        ),
        (
            ["run", "fig11", "chunk_kb=0"],
            "invalid value `0` for `chunk_kb`: expected integer in 1..=4294967295",
        ),
        (
            ["run", "fig11", "kmax=1"],
            "invalid value `1` for `kmax`: expected integer in 2..=4294967295",
        ),
    ] {
        let out = mlec(&args);
        assert_eq!(status(&out), 2, "{args:?}");
        assert!(stderr(&out).contains(needle), "{}", stderr(&out));
    }
    // Zero steps and sample counts that used to run silently as 1.
    for (args, needle) in [
        (
            ["run", "fig05", "step=0"],
            "invalid value `0` for `step`: expected integer in 1..=4294967289",
        ),
        (
            ["run", "fig13", "step=0"],
            "invalid value `0` for `step`: expected integer in 1..=4294967289",
        ),
        (
            ["run", "fig16", "step=0"],
            "invalid value `0` for `step`: expected integer in 1..=4294967289",
        ),
        (
            ["run", "fig05", "samples=0"],
            "invalid value `0` for `samples`: expected integer in 1..=4294967295",
        ),
        (
            ["run", "fig13", "samples=0"],
            "invalid value `0` for `samples`: expected integer in 1..=4294967295",
        ),
        (
            ["run", "fig16", "samples=0"],
            "invalid value `0` for `samples`: expected integer in 1..=4294967295",
        ),
        (
            ["run", "fig11", "kstep=0"],
            "invalid value `0` for `kstep`: expected integer in 1..=4294967295",
        ),
        (
            ["run", "fig11", "pstep=0"],
            "invalid value `0` for `pstep`: expected integer in 1..=4294967295",
        ),
    ] {
        let out = mlec(&args);
        assert_eq!(status(&out), 2, "{args:?}");
        assert!(stderr(&out).contains(needle), "{}", stderr(&out));
    }
    // store_bench: sizes that used to overflow an allocation (101) or to be
    // refused as `campaign I/O` (1) once set-up had begun.
    for (args, needle) in [
        (
            [
                "run",
                "store_bench",
                "ops=100",
                "objects=18446744073709551615",
            ],
            "for `objects`: expected integer in 1..=4294967295",
        ),
        (
            [
                "run",
                "store_bench",
                "objects=8",
                "shards=18446744073709551615",
            ],
            "for `shards`: expected integer in 0..=4294967295",
        ),
        (
            ["run", "store_bench", "ops=100", "objects=0"],
            "invalid value `0` for `objects`: expected integer in 1..=4294967295",
        ),
        (
            ["run", "store_bench", "ops=100", "batch=0"],
            "invalid value `0` for `batch`: expected integer in 1..=4294967295",
        ),
        (
            ["run", "store_bench", "ops=100", "ops_per_sec=0"],
            "invalid value `0` for `ops_per_sec`: expected integer in 1..=4294967295",
        ),
        (
            ["run", "store_bench", "put_pct=100", "delete_pct=100"],
            "for `delete_pct`: expected put_pct + delete_pct (here 200) to be at most 100",
        ),
        // Kills the 6-rack, 24-disks-per-rack store cannot hold used to be
        // clamped: 9 racks lost what 6 did, 500 disks ran as 24, and disks
        // after 6 dead racks landed in a dead one.
        (
            ["run", "store_bench", "kill_racks=9", "kill_disks=0"],
            "invalid value `9` for `kill_racks`: expected kill_racks <= 6",
        ),
        (
            ["run", "store_bench", "kill_racks=1", "kill_disks=500"],
            "invalid value `500` for `kill_disks`: expected kill_disks <= 24",
        ),
        (
            ["run", "store_bench", "kill_racks=6", "kill_disks=4"],
            "for `kill_disks`: expected kill_disks <= 24 (one rack's disks), in a rack that \
             survives kill_racks (here 6 of 6)",
        ),
    ] {
        let out = mlec(&args);
        assert_eq!(status(&out), 2, "{args:?}");
        assert!(stderr(&out).contains(needle), "{}", stderr(&out));
    }
    // trace: burst shapes the deployment cannot hold used to be dropped on
    // every arrival, yielding a silently burst-free trace (exit 0).
    for (args, needle) in [
        (
            ["run", "trace", "burst_racks=1000", "years=1"],
            "invalid value `1000` for `burst_racks`: expected burst_racks <= 60 and",
        ),
        (
            ["run", "trace", "burst_size=100000", "years=1"],
            "for `burst_size`: expected burst_racks <= 60 and burst_racks <= burst_size <= \
             burst_racks x 960",
        ),
    ] {
        let out = mlec(&args);
        assert_eq!(status(&out), 2, "{args:?}");
        assert!(stderr(&out).contains(needle), "{}", stderr(&out));
    }
    let out = mlec(&["run", "fig12", "mode=sim", "racks=0"]);
    assert_eq!(status(&out), 2);
    assert!(
        stderr(&out).contains("invalid value `0` for `racks`: expected integer in 1..=4294967295"),
        "{}",
        stderr(&out)
    );
    // A grid wider than GF(2^8) allows used to panic in the encoder.
    let out = mlec(&["run", "fig11", "kmax=300", "kstep=298", "pmax=1", "mb=1"]);
    assert_eq!(status(&out), 2);
    assert!(stderr(&out).contains("for `kmax`"), "{}", stderr(&out));
}

#[test]
fn method_list_mixes_groups_and_labels() {
    // Each comma-separated entry is a group (`paper`, `all`, any case,
    // expanded in place) or a label; these three used to exit 2 with the
    // group word suggested back as its own correction.
    let dir = scratch("fig08-methods");
    let out_arg = format!("out={}", dir.display());
    for (method, want) in [
        ("paper,R_LAYER", "R_ALL R_FCO R_HYB R_MIN R_LAYER"),
        ("PAPER", "R_ALL R_FCO R_HYB R_MIN"),
        ("All", "R_ALL R_FCO R_HYB R_MIN R_LAYER R_PIGGY"),
    ] {
        let out = mlec(&["run", "fig08", &format!("method={method}"), &out_arg]);
        assert_eq!(status(&out), 0, "{method}: {}", stderr(&out));
        let mut seen: Vec<String> = Vec::new();
        for word in stdout(&out).split_whitespace() {
            if word.starts_with("R_") && !seen.iter().any(|s| s == word) {
                seen.push(word.to_string());
            }
        }
        assert_eq!(seen.join(" "), want, "{method}");
    }
    let out = mlec(&["run", "fig08", "method=R_NOPE", &out_arg]);
    assert_eq!(status(&out), 2);
    let err = stderr(&out);
    assert!(err.contains("invalid value `R_NOPE` for `method`"), "{err}");
    assert!(err.contains("hint: `mlec info fig08`"), "{err}");
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
    for shards in ["0", "1", "4", "100000"] {
        let oplog = dir.join(format!("s{shards}.jsonl"));
        let mut args: Vec<String> = base.iter().map(|s| (*s).to_string()).collect();
        args.push(format!("shards={shards}"));
        args.push(format!("oplog={}", oplog.display()));
        args.push(format!("out={}", dir.display()));
        let argv: Vec<&str> = args.iter().map(String::as_str).collect();
        let out = mlec(&argv);
        assert_eq!(status(&out), 0, "stderr: {}", stderr(&out));
        let artifact = std::fs::read(dir.join("store_bench.json")).expect("artifact written");
        logs.push((std::fs::read(&oplog).expect("op log written"), artifact));
    }
    assert!(!logs[0].0.is_empty());
    for (shards, run) in logs.iter().enumerate().skip(1) {
        assert!(
            *run == logs[0],
            "op log or artifact differs across shard counts (run {shards})"
        );
    }
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

/// The vector GF kernels reach the driver only through the `simd` feature
/// chain (`mlec-core` and `mlec-ec` forward it to `mlec-gf`; this crate
/// asks for it nowhere). A dropped link costs 10x+ encode throughput and
/// changes no output, so it is pinned here, where the chain ends, instead
/// of behind a timing threshold. Likewise the Reed–Solomon product: on an
/// AVX2 host the multi-output entry must take the fused kernel, not the
/// blocked loop over single-coefficient cores every other kernel gets.
#[test]
#[cfg(not(miri))]
fn default_features_dispatch_to_a_vector_kernel() {
    #[cfg(target_arch = "x86_64")]
    let (has_vector_unit, has_avx2) = (
        std::arch::is_x86_feature_detected!("ssse3"),
        std::arch::is_x86_feature_detected!("avx2"),
    );
    #[cfg(not(target_arch = "x86_64"))]
    let (has_vector_unit, has_avx2) = (cfg!(target_arch = "aarch64"), false);
    if has_vector_unit {
        assert_ne!(mlec_gf::simd::kernel_name(), "scalar");
    }
    let dot = mlec_gf::simd::dot_kernel_name();
    assert_eq!(dot == "avx2-fused", has_avx2, "{dot}");
    // The fig11 header names both, so a run says which encoder it timed.
    let out = stdout(&mlec(&[
        "run",
        "fig11",
        "kmax=2",
        "pmax=1",
        "chunk_kb=4",
        "mb=1",
    ]));
    let kernels = format!("(kernel: {}, product: {dot})", mlec_gf::simd::kernel_name());
    assert!(out.contains(&kernels), "{out}");
}
