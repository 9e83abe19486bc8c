//! Minimal self-contained micro-benchmark harness for the `benches/`
//! targets (`harness = false`): warm up, size the batch to a target wall
//! time, time several batches, and report ns/iter (plus MB/s when a byte
//! throughput is declared). No external framework needed.
//!
//! # Which statistic gates what
//!
//! Each measurement times several batches and keeps two statistics:
//!
//! - **min** — the fastest batch. Timing noise (scheduler preemption,
//!   frequency transitions) only ever *inflates* a batch, so the min is the
//!   low-variance statistic. **Regression gating (`--check`) compares
//!   min-vs-min, always.**
//! - **median** — the middle batch; reported alongside for context on how
//!   noisy the run was (a median far above the min means a noisy machine,
//!   not a slow kernel).
//!
//! Baselines written by `--json` record *both* under each name
//! (`{"name": {"min": ns, "median": ns}}`). The ungrouped [`fn@bench`] /
//! [`Group`] helpers (no baseline tracking) print the median.
//!
//! Baseline-tracked targets use [`Harness`], which adds four flags after
//! `cargo bench --bench <name> --`:
//!
//! - `--fast` — shorter batches (CI smoke budget);
//! - `--json PATH` — dump per-name `{min, median}` results as JSON;
//! - `--check PATH` — compare min ns/iter against a committed baseline and
//!   exit non-zero on a > `--max-regress` percent slowdown (default 25).

use mlec_runner::Json;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// Batches timed per measurement; the median is reported.
const BATCHES: usize = 7;
/// Target wall time per batch, seconds.
const BATCH_SECONDS: f64 = 0.05;
/// `--fast` budgets: fewer batches, shorter wall time each.
const FAST_BATCHES: usize = 5;
const FAST_BATCH_SECONDS: f64 = 0.02;

/// Re-export of the optimizer barrier the closures should wrap their
/// results in.
pub use std::hint::black_box;

/// One named group of measurements, printed as aligned rows.
pub struct Group {
    title: String,
}

impl Group {
    pub fn new(title: &str) -> Group {
        println!("\n-- {title}");
        Group {
            title: title.to_string(),
        }
    }

    /// Time `f` and print ns/iter.
    pub fn bench<F: FnMut()>(&self, name: &str, f: F) {
        let ns = time_ns_per_iter(f);
        println!("{:<40} {:>14} ns/iter", self.row(name), group_digits(ns));
    }

    /// Time `f`, printing ns/iter and MB/s for `bytes` processed per iter.
    pub fn bench_bytes<F: FnMut()>(&self, name: &str, bytes: u64, f: F) {
        let ns = time_ns_per_iter(f);
        let mbs = bytes as f64 / (ns as f64 / 1e9) / 1e6;
        println!(
            "{:<40} {:>14} ns/iter {:>10.0} MB/s",
            self.row(name),
            group_digits(ns),
            mbs
        );
    }

    fn row(&self, name: &str) -> String {
        format!("{}/{}", self.title, name)
    }
}

/// Time a standalone (ungrouped) benchmark.
pub fn bench<F: FnMut()>(name: &str, f: F) {
    let ns = time_ns_per_iter(f);
    println!("{:<40} {:>14} ns/iter", name, group_digits(ns));
}

fn time_ns_per_iter<F: FnMut()>(f: F) -> u64 {
    samples_with_budget(f, BATCHES, BATCH_SECONDS)[BATCHES / 2]
}

/// Both gate and context statistics from one set of batches (see the
/// module docs for which is which).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchStats {
    /// Fastest batch, ns/iter — the regression-gated statistic.
    pub min: u64,
    /// Median batch, ns/iter — noise context, never gated on.
    pub median: u64,
}

fn stats_with_budget<F: FnMut()>(f: F, batches: usize, batch_seconds: f64) -> BatchStats {
    let samples = samples_with_budget(f, batches, batch_seconds);
    BatchStats {
        min: samples[0],
        median: samples[samples.len() / 2],
    }
}

/// Sorted per-batch ns/iter samples under the given budget.
fn samples_with_budget<F: FnMut()>(mut f: F, batches: usize, batch_seconds: f64) -> Vec<u64> {
    // Warm up and estimate a single iteration.
    let start = Instant::now();
    let mut warmup_iters = 0u64;
    while start.elapsed().as_secs_f64() < batch_seconds / 2.0 || warmup_iters < 3 {
        f();
        warmup_iters += 1;
    }
    let est = start.elapsed().as_secs_f64() / warmup_iters as f64;
    let per_batch = ((batch_seconds / est) as u64).max(1);

    let mut samples = Vec::with_capacity(batches);
    for _ in 0..batches {
        let t = Instant::now();
        for _ in 0..per_batch {
            f();
        }
        samples.push(t.elapsed().as_nanos() as u64 / per_batch);
    }
    samples.sort_unstable();
    samples
}

/// A baseline-tracked bench binary: records every measurement by name,
/// optionally dumps them as JSON, and optionally gates against a
/// committed baseline file.
pub struct Harness {
    fast: bool,
    json: Option<PathBuf>,
    check: Option<PathBuf>,
    max_regress_pct: f64,
    results: Vec<(String, BatchStats)>,
}

impl Harness {
    /// Parse the process arguments (`--fast`, `--json PATH`,
    /// `--check PATH`, `--max-regress PCT`). Unknown flags — such as the
    /// `--bench` cargo forwards — are ignored.
    pub fn from_args() -> Harness {
        let mut h = Harness {
            fast: false,
            json: None,
            check: None,
            max_regress_pct: 25.0,
            results: Vec::new(),
        };
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--fast" => h.fast = true,
                "--json" => h.json = Some(PathBuf::from(args.next().expect("--json PATH"))),
                "--check" => h.check = Some(PathBuf::from(args.next().expect("--check PATH"))),
                "--max-regress" => {
                    h.max_regress_pct = args
                        .next()
                        .and_then(|v| v.parse().ok())
                        .expect("--max-regress PCT");
                }
                _ => {}
            }
        }
        h
    }

    /// Time `f`, print min (and median) ns/iter, and record both under
    /// `name`.
    pub fn bench<F: FnMut()>(&mut self, name: &str, f: F) {
        let stats = self.measure(f);
        println!(
            "{name:<40} {:>14} ns/iter (median {})",
            group_digits(stats.min),
            group_digits(stats.median)
        );
        self.results.push((name.to_string(), stats));
    }

    /// Like [`Harness::bench`], also printing MB/s for `bytes` per iter
    /// (computed from the min, the gated statistic).
    pub fn bench_bytes<F: FnMut()>(&mut self, name: &str, bytes: u64, f: F) {
        let stats = self.measure(f);
        let mbs = bytes as f64 / (stats.min as f64 / 1e9) / 1e6;
        println!(
            "{name:<40} {:>14} ns/iter {mbs:>10.0} MB/s (median {})",
            group_digits(stats.min),
            group_digits(stats.median)
        );
        self.results.push((name.to_string(), stats));
    }

    /// Baseline-tracked measurements keep min *and* median over batches;
    /// regression gating uses the min (see module docs).
    fn measure<F: FnMut()>(&self, f: F) -> BatchStats {
        if self.fast {
            stats_with_budget(f, FAST_BATCHES, FAST_BATCH_SECONDS)
        } else {
            stats_with_budget(f, BATCHES, BATCH_SECONDS)
        }
    }

    /// Dump (`--json`) and gate (`--check`), returning the process exit
    /// code: failure iff any baseline comparison regressed beyond the
    /// threshold or the baseline is unreadable.
    pub fn finish(self) -> ExitCode {
        if let Some(path) = &self.json {
            let obj = Json::Obj(
                self.results
                    .iter()
                    .map(|(n, stats)| {
                        (
                            n.clone(),
                            Json::Obj(vec![
                                ("min".to_string(), Json::U64(stats.min)),
                                ("median".to_string(), Json::U64(stats.median)),
                            ]),
                        )
                    })
                    .collect(),
            );
            if let Err(e) = std::fs::write(path, obj.to_string_pretty() + "\n") {
                eprintln!("error: cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
            println!("\nresults written to {}", path.display());
        }
        let Some(path) = &self.check else {
            return ExitCode::SUCCESS;
        };
        match self.check_against(path) {
            Ok(()) => {
                println!("baseline check passed ({})", path.display());
                ExitCode::SUCCESS
            }
            Err(failures) => {
                for f in &failures {
                    eprintln!("regression: {f}");
                }
                ExitCode::FAILURE
            }
        }
    }

    fn check_against(&self, path: &PathBuf) -> Result<(), Vec<String>> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| vec![format!("cannot read baseline {}: {e}", path.display())])?;
        let baseline = Json::parse(&text)
            .map_err(|e| vec![format!("bad baseline {}: {e}", path.display())])?;
        let Json::Obj(entries) = &baseline else {
            return Err(vec![format!(
                "{}: baseline must be an object",
                path.display()
            )]);
        };
        let mut failures = Vec::new();
        for (name, value) in entries {
            // The gate statistic is always the min (the entry's "median"
            // is context, never gated on).
            let base_min = value.get("min").and_then(Json::as_u64);
            let Some(base_ns) = base_min.filter(|&ns| ns > 0) else {
                failures.push(format!(
                    "{name}: baseline entry has no positive integer min"
                ));
                continue;
            };
            let Some((_, stats)) = self.results.iter().find(|(n, _)| n == name) else {
                failures.push(format!("{name}: in the baseline but not measured"));
                continue;
            };
            let ns = stats.min;
            let pct = (ns as f64 / base_ns as f64 - 1.0) * 100.0;
            if pct > self.max_regress_pct {
                failures.push(format!(
                    "{name}: min {ns} ns/iter vs baseline min {base_ns} ({pct:+.1}% > {:.0}%)",
                    self.max_regress_pct
                ));
            }
        }
        if failures.is_empty() {
            Ok(())
        } else {
            Err(failures)
        }
    }
}

/// `1234567` -> `1,234,567` for readable ns columns.
fn group_digits(n: u64) -> String {
    let s = n.to_string();
    let mut out = String::with_capacity(s.len() + s.len() / 3);
    for (i, c) in s.chars().enumerate() {
        if i > 0 && (s.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(c);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digit_grouping() {
        assert_eq!(group_digits(7), "7");
        assert_eq!(group_digits(1234), "1,234");
        assert_eq!(group_digits(1234567), "1,234,567");
    }

    fn harness_with(results: &[(&str, u64, u64)], max_regress_pct: f64) -> Harness {
        Harness {
            fast: false,
            json: None,
            check: None,
            max_regress_pct,
            results: results
                .iter()
                .map(|(n, min, median)| {
                    (
                        (*n).to_string(),
                        BatchStats {
                            min: *min,
                            median: *median,
                        },
                    )
                })
                .collect(),
        }
    }

    fn baseline_file(name: &str, content: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("mlec-microbench-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{name}-{}.json", std::process::id()));
        std::fs::write(&path, content).unwrap();
        path
    }

    #[test]
    fn baseline_check_passes_within_threshold() {
        let path = baseline_file("pass", r#"{"a": {"min": 100}, "b": {"min": 200}}"#);
        // +24% and -50%: both inside a 25% regression budget.
        let h = harness_with(&[("a", 124, 130), ("b", 100, 110)], 25.0);
        assert!(h.check_against(&path).is_ok());
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn baseline_check_reads_structured_entries_and_gates_on_min() {
        let path = baseline_file(
            "structured",
            r#"{"a": {"min": 100, "median": 120}, "b": {"min": 200, "median": 210}}"#,
        );
        // a's median regressed wildly (500 vs 120) but its min is within
        // budget: the gate must look only at min and pass.
        let h = harness_with(&[("a", 110, 500), ("b", 190, 205)], 25.0);
        assert!(h.check_against(&path).is_ok());
        // And a min regression must fail even with a fine median.
        let h = harness_with(&[("a", 200, 120), ("b", 190, 205)], 25.0);
        let failures = h.check_against(&path).unwrap_err();
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("a: min 200"));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn baseline_check_fails_on_regression_and_missing_result() {
        let path = baseline_file("fail", r#"{"a": {"min": 100}, "gone": {"min": 50}}"#);
        let h = harness_with(&[("a", 130, 140)], 25.0);
        let failures = h.check_against(&path).unwrap_err();
        assert_eq!(failures.len(), 2, "{failures:?}");
        assert!(failures.iter().any(|f| f.contains("a: min 130")));
        assert!(failures.iter().any(|f| f.contains("gone")));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn baseline_check_rejects_unreadable_baseline() {
        let h = harness_with(&[("a", 1, 1)], 25.0);
        assert!(h
            .check_against(&PathBuf::from("/nonexistent/b.json"))
            .is_err());
        let path = baseline_file("garbage", "not json");
        assert!(h.check_against(&path).is_err());
        let path2 = baseline_file("no-min", r#"{"a": {"median": 5}}"#);
        assert!(h.check_against(&path2).is_err());
        // A flat integer is not an entry: the min must be named.
        let path3 = baseline_file("flat", r#"{"a": 1}"#);
        assert!(h.check_against(&path3).is_err());
        let _ = std::fs::remove_file(path3);
        let _ = std::fs::remove_file(path);
        let _ = std::fs::remove_file(path2);
    }
}
