//! The repo benchmark: six workloads over the codec, the store and the two
//! simulators, measured end to end with tracing off and attributed to
//! layers in a separate traced run. Every layer is timed from outside,
//! through its public functions. See `README.md` for the tables.

pub mod campaign;
pub mod codec;
pub mod compare;
pub mod host;
pub mod ledger;
pub mod spans;
pub mod stats;
pub mod store;
pub mod suite;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// One invocation's settings.
#[derive(Debug, Clone)]
pub struct RunCfg {
    pub workload: String,
    pub seed: u64,
    /// How long the timed repetitions go on.
    pub seconds: f64,
    /// Produce the per-layer metrics (traced run) and not the end-to-end ones.
    pub trace: bool,
    /// Tiny inputs and a single repetition: a smoke test, not a measurement.
    pub quick: bool,
    /// Scratch files and `trace_<workload>.json` go here.
    pub out_dir: PathBuf,
}

impl RunCfg {
    /// Fewest timed repetitions a run reports a median over.
    pub fn min_reps(&self) -> usize {
        if self.quick {
            1
        } else {
            5
        }
    }

    /// How long the repetitions of the set-up go on: an eighth of the run.
    pub fn setup_seconds(&self) -> f64 {
        self.seconds / 8.0
    }

    /// One block of timed repetitions of a single setting: an untimed
    /// warm-up, then `rep` until both the repetition floor and `seconds`
    /// are met. Returns the samples `rep` yields.
    ///
    /// Settings are measured in blocks and not interleaved: on this code
    /// base the serial and the two-thread paths leave the allocator in
    /// different states, and alternating them doubles the spread of both.
    pub fn measure(
        &self,
        seconds: f64,
        mut rep: impl FnMut() -> Result<f64, String>,
    ) -> Result<Vec<f64>, String> {
        rep()?;
        let start = Instant::now();
        let mut samples = Vec::new();
        while samples.len() < self.min_reps()
            || (!self.quick && start.elapsed().as_secs_f64() < seconds)
        {
            samples.push(rep()?);
        }
        Ok(samples)
    }

    /// Write the traced run's spans to `<out_dir>/trace_<workload>.json`.
    pub fn write_trace(&self, rec: &spans::Recorder) -> Result<(), String> {
        let path = self.out_dir.join(format!("trace_{}.json", self.workload));
        std::fs::create_dir_all(&self.out_dir)
            .and_then(|()| std::fs::write(&path, rec.to_json()))
            .map_err(|e| format!("{}: {e}", path.display()))
    }

    /// A scratch directory private to this process, created on demand.
    pub fn scratch_dir(&self) -> std::io::Result<PathBuf> {
        let dir = self
            .out_dir
            .join(format!("{}-{}", self.workload, std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(dir)
    }
}

/// One metric as measured, with the sample behind a median when there is one.
#[derive(Debug, Clone, PartialEq)]
pub struct Reading {
    pub value: f64,
    /// `(q1, q3, n)` of the repetitions the value is the median of.
    pub quartiles: Option<(f64, f64, usize)>,
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations and output checks attempted, and how many of them failed.
    pub attempted: u64,
    pub failed: u64,
    pub readings: BTreeMap<String, Reading>,
    /// Lines for the human reader: failed checks, the self-time ledger.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &str, value: f64) {
        self.readings.insert(
            name.to_string(),
            Reading {
                value,
                quartiles: None,
            },
        );
    }

    /// Record the median of `samples` under `name`.
    pub fn set_median(&mut self, name: &str, samples: &[f64]) {
        let (q1, med, q3) = stats::quartiles(samples);
        self.readings.insert(
            name.to_string(),
            Reading {
                value: med,
                quartiles: Some((q1, q3, samples.len())),
            },
        );
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.readings.get(name).map(|r| r.value)
    }

    /// Count `n` operations of which `failed` went wrong.
    pub fn ops(&mut self, n: u64, failed: u64) {
        self.attempted += n;
        self.failed += failed;
    }

    /// An output check: counted as one attempted operation, failed when
    /// `ok` is false.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(format!("CHECK FAILED: {what}"));
        }
    }

    /// Report the traced run's time ledger: per-layer self times, what the
    /// harness itself spent between the calls, and the untraced time of
    /// the same work beside it.
    pub fn ledger_note(&mut self, rec: &spans::Recorder, traced_s: f64, untraced_s: f64) {
        let layers = rec.layer_times();
        let mut sum_ns = 0u64;
        for (name, t) in &layers {
            sum_ns += t.self_ns;
            self.notes.push(format!(
                "  self {:>10.6} s  total {:>10.6} s  x{:<8} {name}",
                t.self_ns as f64 / 1e9,
                t.total_ns as f64 / 1e9,
                t.spans
            ));
        }
        let residual = traced_s - sum_ns as f64 / 1e9;
        self.notes.push(format!(
            "  sum of layer self time {:.6} s + residual {:.6} s = traced {:.6} s; untraced {:.6} s",
            sum_ns as f64 / 1e9,
            residual,
            traced_s,
            untraced_s
        ));
        self.set("trace.residual_share", residual / traced_s);
        self.set("trace.overhead_share", traced_s / untraced_s - 1.0);
        self.set("trace.spans", rec.spans().len() as f64);
    }
}

/// Nanoseconds per call of `body` over loops of `calls` calls (the call
/// index is passed in): the median of five loops. The stand-alone layer
/// loops are built on this.
pub fn ns_per_call(calls: usize, mut body: impl FnMut(usize)) -> f64 {
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            for i in 0..calls {
                body(i);
            }
            start.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    stats::median(&samples)
}

/// Seconds `call` took, and what it returned.
pub fn timed<R>(call: impl FnOnce() -> R) -> (f64, R) {
    let start = Instant::now();
    let out = call();
    (start.elapsed().as_secs_f64(), out)
}

/// Run one workload by name.
pub fn run_workload(cfg: &RunCfg) -> Result<Outcome, String> {
    match cfg.workload.as_str() {
        "codec_stripe" => codec::run(cfg),
        "store_serve" | "store_ingest" | "store_rebuild" => store::run(cfg),
        "campaign_pool" | "campaign_system" => campaign::run(cfg),
        other => Err(format!("unknown workload `{other}`")),
    }
}
