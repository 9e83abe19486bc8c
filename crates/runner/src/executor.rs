//! The batched parallel executor.
//!
//! Trials are partitioned into fixed-size batches by trial index alone;
//! worker threads, the calling thread among them, claim batches from an
//! atomic counter and accumulate each batch locally, and the calling thread
//! merges the batch accumulators in batch-index order. Stopping rules and
//! checkpoints apply only at round boundaries (a round is a fixed number of
//! batches). Only a run with a precision target waits for every worker at
//! each boundary; a fixed budget is one pass whose workers never wait, and
//! it still checkpoints the merged state at each boundary. Consequences, by
//! construction:
//!
//! * results are bit-identical for any worker-thread count;
//! * a resumed run continues at the recorded trial count with the same
//!   partitioning and merge order, so kill + resume reproduces an
//!   uninterrupted run exactly;
//! * adaptive stopping decisions are themselves deterministic, because
//!   they observe only round-boundary states.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::clock::Stopwatch;
use crate::manifest::{Checkpoint, Manifest, ManifestHeader};
use crate::seed_stream::SeedStream;
use crate::trial::{Accumulator, Summary, Trial};

/// When to stop drawing trials.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StopRule {
    /// Never stop on precision before this many trials.
    pub min_trials: u64,
    /// Hard ceiling (always enforced).
    pub max_trials: u64,
    /// Stop once |`std_err/mean`| (or relative CI half-width for
    /// proportions) drops below this.
    pub target_rel_err: Option<f64>,
}

impl StopRule {
    /// Exactly `n` trials, no adaptive stopping.
    pub fn fixed(n: u64) -> StopRule {
        StopRule {
            min_trials: n,
            max_trials: n,
            target_rel_err: None,
        }
    }

    /// Adaptive: stop at `rel_err` relative precision, bounded by
    /// `[min_trials, max_trials]`.
    pub fn until_rel_err(rel_err: f64, min_trials: u64, max_trials: u64) -> StopRule {
        StopRule {
            min_trials,
            max_trials,
            target_rel_err: Some(rel_err),
        }
    }

    fn precision_reached(&self, summary: &Summary) -> bool {
        self.target_rel_err
            .is_some_and(|target| summary.rel_err <= target)
    }
}

/// Full description of one run.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// Experiment label; part of the seed derivation, so different labels
    /// draw independent trial streams from the same root seed.
    pub label: String,
    pub root_seed: u64,
    /// Worker threads; 0 means `std::thread::available_parallelism()`.
    pub threads: usize,
    /// Trials per batch. Per-trial seeds depend only on the trial index, so
    /// every batch size sees the same observations; counting statistics are
    /// bit-identical across batch sizes, floating-point merges agree to
    /// rounding. For a fixed batch size, results are bit-identical across
    /// thread counts. Stopping/checkpoint granularity is
    /// `batch_size * batches_per_round` trials.
    pub batch_size: u64,
    /// Batches per round (stop checks and checkpoints happen per round).
    pub batches_per_round: u64,
    pub stop: StopRule,
    /// Fingerprint of the experiment configuration; guards resume.
    pub config_hash: u64,
    /// Where to write the JSONL manifest; `None` disables checkpointing.
    pub manifest_path: Option<PathBuf>,
}

impl RunSpec {
    pub fn new(label: impl Into<String>, root_seed: u64, stop: StopRule) -> RunSpec {
        RunSpec {
            label: label.into(),
            root_seed,
            threads: 0,
            batch_size: 64,
            batches_per_round: 8,
            stop,
            config_hash: 0,
            manifest_path: None,
        }
    }

    pub fn threads(mut self, threads: usize) -> RunSpec {
        self.threads = threads;
        self
    }

    pub fn batch_size(mut self, batch_size: u64) -> RunSpec {
        assert!(batch_size > 0);
        self.batch_size = batch_size;
        self
    }

    pub fn batches_per_round(mut self, batches: u64) -> RunSpec {
        assert!(batches > 0);
        self.batches_per_round = batches;
        self
    }

    pub fn config_hash(mut self, hash: u64) -> RunSpec {
        self.config_hash = hash;
        self
    }

    pub fn manifest(mut self, path: impl Into<PathBuf>) -> RunSpec {
        self.manifest_path = Some(path.into());
        self
    }
}

/// `threads`, or every available core when it is 0: what a thread count
/// of 0 means throughout the workspace.
pub fn resolve_threads(threads: usize) -> usize {
    if threads > 0 {
        threads
    } else {
        std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
    }
}

/// What a completed (or precision-converged) run produced.
#[derive(Debug, Clone)]
pub struct RunReport<A> {
    pub acc: A,
    pub summary: Summary,
    /// Total trials folded into `acc`, including resumed ones.
    pub trials: u64,
    /// Trials restored from the manifest rather than run in this session.
    pub resumed_trials: u64,
    /// Wall-clock of this session only.
    pub elapsed_s: f64,
    /// Throughput of this session (trials actually run / elapsed).
    pub trials_per_sec: f64,
    pub manifest_path: Option<PathBuf>,
}

/// Execute `trial` under `spec`. See the module docs for the determinism
/// contract.
pub fn run<T: Trial>(trial: &T, spec: &RunSpec) -> std::io::Result<RunReport<T::Acc>>
where
    T::Acc: Default,
{
    run_with(trial, spec, T::Acc::default())
}

/// Like [`run`], for accumulators without a meaningful `Default` (e.g.
/// sized grids): `empty` is the zero-trial accumulator, also used for each
/// batch.
pub fn run_with<T: Trial>(
    trial: &T,
    spec: &RunSpec,
    empty: T::Acc,
) -> std::io::Result<RunReport<T::Acc>> {
    let start = Stopwatch::start();
    let stream = SeedStream::new(spec.root_seed, &spec.label);

    let mut manifest = None;
    let mut acc = empty.clone();
    let mut prior_elapsed = 0.0f64;
    if let Some(path) = &spec.manifest_path {
        let header = ManifestHeader {
            label: spec.label.clone(),
            config_hash: spec.config_hash,
            root_seed: spec.root_seed,
            batch_size: spec.batch_size,
            batches_per_round: spec.batches_per_round,
        };
        let opened = Manifest::open(path, &header)?;
        if let Some(cp) = opened.resume {
            let restored = T::Acc::load(&cp.acc_state).ok_or_else(|| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("{}: cannot restore accumulator state", path.display()),
                )
            })?;
            debug_assert_eq!(restored.trials(), cp.trials);
            acc = restored;
            prior_elapsed = cp.elapsed_s;
        }
        manifest = Some(opened.manifest);
    }
    let resumed_trials = acc.trials();

    let threads = resolve_threads(spec.threads);
    // Without a precision target no round boundary can stop the run, so the
    // rest of the budget is one pass whose workers never wait; with one,
    // every round is a pass and the stop rule sees the state between them.
    let adaptive = spec.stop.target_rel_err.is_some();
    loop {
        let done = acc.trials();
        if done >= spec.stop.max_trials {
            break;
        }
        if done >= spec.stop.min_trials && spec.stop.precision_reached(&acc.summary()) {
            break;
        }
        // Batches cover `done..max_trials` starting from `done` itself.
        // A checkpoint is usually batch-aligned (rounds are whole batches),
        // but a round truncated by `max_trials` leaves a ragged count; a
        // later resume with a larger budget must continue at `done`, never
        // re-run earlier indices. When `done` IS aligned, this partition
        // coincides with the uninterrupted run's, keeping resume
        // bit-identical; a ragged resume shifts the merge tree only (same
        // observations — seeds depend on the trial index alone).
        let max_batches = (spec.stop.max_trials - done).div_ceil(spec.batch_size);
        let batches = if adaptive {
            spec.batches_per_round.min(max_batches)
        } else {
            max_batches
        };

        let claim = AtomicU64::new(0);
        let finished = Mutex::new(BTreeMap::new());
        // Claim and run one batch of the pass; false once none is left.
        let work = || {
            let _stop = StopOnPanic(&claim, batches);
            let slot = claim.fetch_add(1, Ordering::Relaxed);
            if slot >= batches {
                return false;
            }
            let lo = done + slot * spec.batch_size;
            let hi = (lo + spec.batch_size).min(spec.stop.max_trials);
            let mut local = empty.clone();
            for index in lo..hi {
                trial.run(index, stream.trial_seed(index), &mut local);
            }
            finished.lock().unwrap().insert(slot, local);
            true
        };
        // Merge in batch order: the only order-sensitive step, and it is
        // fixed regardless of which thread ran which batch. The calling
        // thread merges between its own batches and after the pass, and
        // checkpoints at every round boundary.
        let mut merged = 0;
        let mut merge_ready = |acc: &mut T::Acc| -> std::io::Result<()> {
            loop {
                let next = finished.lock().unwrap().remove(&merged);
                let Some(batch) = next else { return Ok(()) };
                acc.merge(&batch);
                merged += 1;
                let boundary = merged % spec.batches_per_round == 0 || merged == batches;
                if let Some(manifest) = manifest.as_mut().filter(|_| boundary) {
                    let session_elapsed = start.elapsed_s();
                    let session_trials = acc.trials() - resumed_trials;
                    manifest.checkpoint(&Checkpoint {
                        trials: acc.trials(),
                        acc_state: acc.save(),
                        elapsed_s: prior_elapsed + session_elapsed,
                        trials_per_sec: session_trials as f64 / session_elapsed.max(1e-9),
                    })?;
                }
            }
        };
        std::thread::scope(|scope| {
            for _ in 1..threads.min(batches as usize) {
                scope.spawn(|| while work() {});
            }
            while work() {
                if let Err(e) = merge_ready(&mut acc) {
                    // No other batch starts: the run has failed.
                    claim.store(batches, Ordering::Relaxed);
                    return Err(e);
                }
            }
            Ok(())
        })?;
        merge_ready(&mut acc)?;
    }

    let elapsed_s = start.elapsed_s();
    let summary = acc.summary();
    let session_trials = acc.trials() - resumed_trials;
    let trials_per_sec = session_trials as f64 / elapsed_s.max(1e-9);
    if let Some(manifest) = manifest.as_mut() {
        manifest.finalize(&summary, prior_elapsed + elapsed_s, trials_per_sec)?;
    }
    Ok(RunReport {
        trials: acc.trials(),
        resumed_trials,
        summary,
        acc,
        elapsed_s,
        trials_per_sec,
        manifest_path: spec.manifest_path.clone(),
    })
}

/// Run `jobs` independent jobs concurrently and return their results in
/// index order.
///
/// `outer = min(threads, jobs)` workers, the calling thread among them,
/// claim job indices from an atomic counter (0 threads means every core,
/// as for [`RunSpec::threads`]); `job(index, inner)` runs job `index` with
/// a thread budget of `inner = max(1, threads / outer)` for whatever it
/// runs itself. This is how a figure spends its thread budget on
/// campaigns that are each too small to fill it: a campaign's result does
/// not depend on its thread count, so neither does anything built from
/// the returned vector.
pub fn fan_out<R: Send>(
    jobs: usize,
    threads: usize,
    job: impl Fn(usize, usize) -> R + Sync,
) -> Vec<R> {
    let threads = resolve_threads(threads);
    let outer = threads.min(jobs).max(1);
    let inner = (threads / outer).max(1);
    let claim = AtomicU64::new(0);
    let total = jobs as u64;
    // Claim and run jobs until none is left; each worker keeps its own.
    let work = || {
        let mut done = Vec::new();
        loop {
            let _stop = StopOnPanic(&claim, total);
            let index = claim.fetch_add(1, Ordering::Relaxed);
            if index >= total {
                return done;
            }
            let index = index as usize;
            done.push((index, job(index, inner)));
        }
    };
    let mut results = std::thread::scope(|scope| {
        let workers: Vec<_> = (1..outer).map(|_| scope.spawn(work)).collect();
        let mut results = work();
        for worker in workers {
            match worker.join() {
                Ok(done) => results.extend(done),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
        results
    });
    results.sort_unstable_by_key(|&(index, _)| index);
    results.into_iter().map(|(_, result)| result).collect()
}

/// Exhausts a pass's batch counter when a panicking worker drops it, so no
/// other batch starts and the panic surfaces without waiting out the pass.
struct StopOnPanic<'a>(&'a AtomicU64, u64);

impl Drop for StopOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.store(self.1, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::rng::SplitMix64;
    use crate::trial::{FnTrial, HitTrial, MeanAcc};

    fn noisy_mean_trial() -> FnTrial<impl Fn(u64) -> f64 + Sync> {
        FnTrial(|seed| {
            let mut rng = SplitMix64::new(seed);
            // A skewed observable with a known mean of about 0.5.
            rng.next_f64().powi(2) * 1.5
        })
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let trial = noisy_mean_trial();
        let base = run(
            &trial,
            &RunSpec::new("exec/threads", 9, StopRule::fixed(1003)).threads(1),
        )
        .unwrap();
        for threads in [2, 3, 8] {
            let other = run(
                &trial,
                &RunSpec::new("exec/threads", 9, StopRule::fixed(1003)).threads(threads),
            )
            .unwrap();
            assert_eq!(other.trials, base.trials);
            assert_eq!(other.acc, base.acc, "threads={threads}");
        }
    }

    #[test]
    fn batch_size_does_not_change_results() {
        let trial = noisy_mean_trial();
        let a = run(
            &trial,
            &RunSpec::new("exec/batch", 9, StopRule::fixed(500)).batch_size(7),
        )
        .unwrap();
        let b = run(
            &trial,
            &RunSpec::new("exec/batch", 9, StopRule::fixed(500)).batch_size(128),
        )
        .unwrap();
        assert_eq!(a.trials, 500);
        assert_eq!(b.trials, 500);
        assert_eq!(a.acc.trials(), 500);
        // Observations are identical (seeds depend only on trial index);
        // the Welford merge tree differs with the partition, so means agree
        // to rounding, not to the bit (thread count, by contrast, leaves
        // the partition and merge order fixed => bit-identical).
        assert!((a.summary.mean - b.summary.mean).abs() < 1e-12);
        assert!((a.summary.std_err - b.summary.std_err).abs() < 1e-12);
    }

    #[test]
    fn batch_size_is_exactly_invariant_for_counting_accumulators() {
        let trial = HitTrial(|seed| {
            let mut rng = SplitMix64::new(seed);
            rng.next_f64() < 0.2
        });
        let a = run(
            &trial,
            &RunSpec::new("exec/hits", 3, StopRule::fixed(999)).batch_size(13),
        )
        .unwrap();
        let b = run(
            &trial,
            &RunSpec::new("exec/hits", 3, StopRule::fixed(999)).batch_size(256),
        )
        .unwrap();
        assert_eq!(a.acc, b.acc);
    }

    #[test]
    fn adaptive_stopping_stops_between_bounds() {
        let trial = noisy_mean_trial();
        let report = run(
            &trial,
            &RunSpec::new(
                "exec/adaptive",
                11,
                StopRule::until_rel_err(0.05, 100, 1_000_000),
            ),
        )
        .unwrap();
        assert!(report.trials >= 100);
        assert!(report.trials < 1_000_000, "should converge well before max");
        assert!(report.summary.rel_err <= 0.05);
    }

    #[test]
    fn rare_event_proportion_converges() {
        let trial = HitTrial(|seed| {
            let mut rng = SplitMix64::new(seed);
            rng.next_f64() < 0.01
        });
        let spec = RunSpec::new(
            "exec/rare",
            13,
            StopRule::until_rel_err(0.25, 1000, 200_000),
        );
        let report = run(&trial, &spec).unwrap();
        assert!(report.summary.ci_low <= 0.01 && 0.01 <= report.summary.ci_high);
    }

    #[test]
    fn resume_from_manifest_is_bit_identical() {
        let dir = std::env::temp_dir().join("mlec-runner-exec-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("resume.jsonl");
        let _ = std::fs::remove_file(&path);

        let trial = noisy_mean_trial();
        // Uninterrupted reference run (no manifest).
        let full = run(
            &trial,
            &RunSpec::new("exec/resume", 21, StopRule::fixed(2048)),
        )
        .unwrap();

        // First half: run to 1024 trials, checkpointing.
        let half = run(
            &trial,
            &RunSpec::new("exec/resume", 21, StopRule::fixed(1024)).manifest(&path),
        )
        .unwrap();
        assert_eq!(half.trials, 1024);
        assert_eq!(half.resumed_trials, 0);

        // Second half: same spec with the full trial budget resumes.
        let resumed = run(
            &trial,
            &RunSpec::new("exec/resume", 21, StopRule::fixed(2048)).manifest(&path),
        )
        .unwrap();
        assert_eq!(resumed.resumed_trials, 1024);
        assert_eq!(resumed.trials, 2048);
        assert_eq!(resumed.acc, full.acc, "resume must be bit-identical");
    }

    #[test]
    fn resume_from_ragged_checkpoint_runs_each_trial_once() {
        // A checkpoint left by a max_trials-truncated round is not
        // batch-aligned; extending the budget must continue at the recorded
        // count, not re-run (or skip) earlier trial indices.
        let dir = std::env::temp_dir().join("mlec-runner-exec-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ragged-resume.jsonl");
        let _ = std::fs::remove_file(&path);

        let trial = HitTrial(|seed| {
            let mut rng = SplitMix64::new(seed);
            rng.next_f64() < 0.3
        });
        let spec = |trials: u64| {
            RunSpec::new("exec/ragged-resume", 37, StopRule::fixed(trials)).batch_size(64)
        };
        // 130 = 2 whole batches + a ragged 2-trial tail.
        let half = run(&trial, &spec(130).manifest(&path)).unwrap();
        assert_eq!(half.trials, 130);
        let resumed = run(&trial, &spec(200).manifest(&path)).unwrap();
        assert_eq!(resumed.resumed_trials, 130);
        assert_eq!(resumed.trials, 200);
        // Counting accumulators are exact regardless of the batch
        // partition, so the resumed run must equal a fresh one bit for bit.
        let fresh = run(&trial, &spec(200)).unwrap();
        assert_eq!(resumed.acc, fresh.acc);
    }

    #[test]
    fn fixed_budget_checkpoints_every_round_on_any_thread_count() {
        // A fixed budget is one pass with no barrier between its rounds; it
        // still checkpoints the merged state at every round boundary, the
        // same states whatever the thread count.
        let dir = std::env::temp_dir().join("mlec-runner-exec-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let trial = noisy_mean_trial();
        let checkpoints = |threads: usize| {
            let path = dir.join(format!("rounds-{threads}.jsonl"));
            let _ = std::fs::remove_file(&path);
            let spec = RunSpec::new("exec/rounds", 4, StopRule::fixed(1100))
                .batches_per_round(4)
                .threads(threads)
                .manifest(&path);
            run(&trial, &spec).unwrap();
            let text = std::fs::read_to_string(&path).unwrap();
            text.lines()
                .map(|line| Json::parse(line).unwrap())
                .filter(|line| line.get("kind").and_then(Json::as_str) == Some("checkpoint"))
                .map(|cp| {
                    let trials = cp.get("trials").and_then(Json::as_u64).unwrap();
                    (trials, cp.get("acc").unwrap().to_string_compact())
                })
                .collect::<Vec<_>>()
        };
        let one = checkpoints(1);
        let trials: Vec<u64> = one.iter().map(|&(trials, _)| trials).collect();
        assert_eq!(trials, [256, 512, 768, 1024, 1100]);
        assert_eq!(checkpoints(3), one);
    }

    #[test]
    fn a_panicking_trial_stops_the_pass() {
        // The panic surfaces once the batches already running end (and the
        // panic hook has printed), not after the rest of a ~30 s budget.
        static RUN: AtomicU64 = AtomicU64::new(0);
        let trial = FnTrial(|_| {
            assert_ne!(RUN.fetch_add(1, Ordering::Relaxed), 100, "trial 100 fails");
            std::thread::sleep(std::time::Duration::from_micros(20));
            0.0
        });
        let spec = RunSpec::new("exec/panic", 1, StopRule::fixed(1_000_000)).threads(2);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run(&trial, &spec)));
        assert!(outcome.is_err());
        assert!(RUN.load(Ordering::Relaxed) < 100_000, "{RUN:?} trials ran");
    }

    #[test]
    fn max_trials_not_multiple_of_batch_is_exact() {
        let trial = noisy_mean_trial();
        let report = run(
            &trial,
            &RunSpec::new("exec/ragged", 5, StopRule::fixed(130)).batch_size(64),
        )
        .unwrap();
        assert_eq!(report.trials, 130);
    }

    #[test]
    fn fan_out_returns_results_in_index_order_on_any_thread_count() {
        // Each job runs a small campaign of its own on the budget it is
        // handed; the vector must not depend on who ran what.
        let trial = noisy_mean_trial();
        let job = |index: usize, inner: usize| {
            assert!(inner >= 1);
            let spec = RunSpec::new(format!("exec/fan-out/{index}"), 3, StopRule::fixed(150))
                .batch_size(16)
                .threads(inner);
            (index, run(&trial, &spec).unwrap().acc)
        };
        for jobs in [0, 1, 5] {
            let one = fan_out(jobs, 1, job);
            assert_eq!(one.len(), jobs);
            assert!(one.iter().enumerate().all(|(i, &(index, _))| index == i));
            for threads in [2, 3, 8] {
                assert_eq!(
                    fan_out(jobs, threads, job),
                    one,
                    "jobs={jobs} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn fan_out_splits_the_thread_budget() {
        let budgets = |jobs, threads| fan_out(jobs, threads, |_, inner| inner);
        assert_eq!(budgets(5, 1), [1; 5]);
        assert_eq!(budgets(5, 2), [1; 5]);
        assert_eq!(budgets(2, 8), [4; 2]);
        assert_eq!(budgets(3, 8), [2; 3]);
        assert_eq!(budgets(1, 3), [3]);
    }

    #[test]
    fn empty_run_reports_zero() {
        let trial = noisy_mean_trial();
        let report = run(&trial, &RunSpec::new("exec/empty", 5, StopRule::fixed(0))).unwrap();
        assert_eq!(report.trials, 0);
        assert_eq!(report.acc, MeanAcc::default());
    }
}
