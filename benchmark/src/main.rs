//! `mlec-benchmark --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]`
//! and `mlec-benchmark compare <a.json> <b.json>`. See `README.md`.

use mlec_benchmark::ledger::Ledger;
use mlec_benchmark::{compare, host, run_workload, suite, RunCfg};
use mlec_runner::Json;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage:
  mlec-benchmark --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]
                 [--quick] [--out DIR] [--runs N]
  mlec-benchmark compare <a.json> <b.json>

  --workload  one of the workloads in BENCHMARK.json, or `all`: every workload,
              tracing off then on (or only the kind --trace names), each in its
              own process, written as a result set with the host fingerprint
  --seed      workload seed (default 42); `all` uses seed, seed+1, ... per run
  --seconds   how long the timed repetitions go on (default: run_seconds)
  --trace     0: end-to-end metrics, tracing off (default)
              1: per-layer metrics from the traced run, trace_<workload>.json
  --quick     tiny inputs, one repetition: a smoke test, not a measurement
  --out       directory for scratch files, traces and, with `all`, the result
              set `results.json` (default .bench_out)
  --runs      with `all`: runs per workload (default 1)";

struct Args {
    cfg: RunCfg,
    /// Whether `--trace` was given: `all` then runs only that kind.
    trace_given: bool,
    runs: usize,
}

fn parse(ledger: &Ledger, args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        cfg: RunCfg {
            workload: String::new(),
            seed: 42,
            seconds: ledger.run_seconds as f64,
            trace: false,
            quick: false,
            out_dir: PathBuf::from(".bench_out"),
        },
        trace_given: false,
        runs: 1,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            parsed.cfg.quick = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => parsed.cfg.workload.clone_from(value),
            "--seed" => parsed.cfg.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                parsed.cfg.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(bad)?;
            }
            "--trace" => {
                parsed.trace_given = true;
                parsed.cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--out" => parsed.cfg.out_dir = PathBuf::from(value),
            "--runs" => parsed.runs = value.parse().map_err(|_| bad())?,
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    let known = parsed.cfg.workload == "all" || ledger.workloads.contains(&parsed.cfg.workload);
    if !known {
        return Err(format!(
            "--workload must be `all` or one of: {}",
            ledger.workloads.join(", ")
        ));
    }
    Ok(parsed)
}

fn read_json(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e:?}"))
}

fn real_main() -> Result<bool, String> {
    let ledger = Ledger::load();
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        let [_, a, b] = args.as_slice() else {
            return Err(USAGE.to_string());
        };
        return compare::compare(&ledger, &read_json(a)?, &read_json(b)?);
    }
    let Args {
        cfg,
        trace_given,
        runs,
    } = parse(&ledger, &args).map_err(|e| format!("{e}\n{USAGE}"))?;
    if cfg.workload == "all" {
        let kinds: &[bool] = if trace_given {
            &[cfg.trace]
        } else {
            &[false, true]
        };
        return suite::run_all(&ledger, &cfg, kinds, runs);
    }

    println!(
        "# workload={} seed={} seconds={} trace={} quick={} | nproc={} gf_kernel={}",
        cfg.workload,
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        cfg.quick,
        host::available_threads(),
        mlec_gf::simd::kernel_name()
    );
    let mut out = run_workload(&cfg)?;
    if !cfg.trace {
        let rss = host::peak_rss_mib().ok_or("cannot read VmHWM from /proc/self/status")?;
        out.set("peak_rss_mb", rss);
    }
    suite::print_readings(&ledger, &out);
    let result = suite::result_json(&ledger, &cfg, &out)?;
    println!("{}", result.to_string_compact());
    Ok(out.failed == 0)
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("mlec-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
