//! Every figure/table in the registry, one module per experiment family.
//! A family module holds its experiments' `declare_experiment!`
//! declarations and typed parameters, the rows they report, the compute
//! and the rendering, so the `mlec` driver and the regression tests
//! execute the identical code path. JSON artifacts keep their historical
//! names (`fig05.json`, `table2.json`, …).
//!
//! - [`repair`]: Table 2, Fig 6, Fig 8 and Fig 9.
//! - [`durability`]: Fig 7, Fig 10 and the direct-simulation validation.
//! - [`bursts`]: the burst PDL heatmaps of Fig 5, Fig 13 and Fig 16.
//! - [`tradeoff`]: Fig 11, Fig 12 and Fig 15.
//! - [`summary`]: Fig 1, §5.1.4, the ablations and the reproduction summary.
//! - [`tools`]: the trace tools and the store replay bench.
//!
//! Every Monte Carlo campaign executes through `mlec-runner` under a
//! [`RunnerOpts`]: per-trial seeds come from the run's seed stream, so
//! results are bit-identical across thread counts and can checkpoint and
//! resume via JSONL manifests.

use crate::report::ascii_table;
use mlec_runner::{RunSpec, StopRule};
use mlec_sim::RepairMethod;
use mlec_topology::MlecScheme;
use std::path::PathBuf;

/// `writeln!` into an [`crate::registry::ExperimentOutput`] text buffer
/// (infallible).
macro_rules! w {
    ($dst:expr) => {{
        use std::fmt::Write as _;
        let _ = writeln!($dst);
    }};
    ($dst:expr, $($arg:tt)*) => {{
        use std::fmt::Write as _;
        let _ = writeln!($dst, $($arg)*);
    }};
}

pub mod bursts;
pub mod durability;
pub mod repair;
pub mod summary;
pub mod tools;
pub mod tradeoff;

/// Execution options of every runner campaign: worker threads, an
/// optional directory for per-campaign JSONL manifests so an interrupted
/// run resumes where it stopped, and an optional per-trial event log.
#[derive(Debug, Clone, Default)]
pub struct RunnerOpts {
    /// Worker threads; 0 = available parallelism.
    pub threads: usize,
    /// Directory for run manifests; `None` disables checkpointing.
    pub manifest_dir: Option<PathBuf>,
    /// Path for a per-trial JSONL event log (`trace=` knob on the sim
    /// figures); `None` disables event logging. Logging never perturbs the
    /// simulation — results are bit-identical either way.
    pub event_log: Option<PathBuf>,
}

impl RunnerOpts {
    /// The [`RunSpec`] of one figure campaign: the run's identity (`label`,
    /// `seed`, `config_hash`) and stop rule under these options' thread
    /// count, checkpointing to `<manifest_dir>/<label with / as ->.jsonl`
    /// when a manifest directory is set.
    pub(crate) fn run_spec(
        &self,
        label: &str,
        seed: u64,
        stop: StopRule,
        config_hash: u64,
    ) -> RunSpec {
        let spec = RunSpec::new(label, seed, stop)
            .threads(self.threads)
            .config_hash(config_hash);
        match &self.manifest_dir {
            Some(dir) => spec.manifest(dir.join(format!("{}.jsonl", label.replace('/', "-")))),
            None => spec,
        }
    }
}

/// The method × scheme pivot of Fig 8 / Fig 10: one row per method, one
/// column per scheme, each cell rendered by `show`.
fn method_by_scheme_table<C>(
    methods: &[RepairMethod],
    cells: &[C],
    key: impl Fn(&C) -> (&str, &str),
    show: impl Fn(&C) -> String,
) -> String {
    let schemes = MlecScheme::ALL.map(|s| s.name());
    let rows: Vec<Vec<String>> = methods
        .iter()
        .map(|m| {
            let mut row = vec![m.name().to_string()];
            row.extend(schemes.iter().map(|s| {
                let cell = cells.iter().find(|c| key(c) == (s.as_str(), m.name()));
                cell.map_or_else(String::new, &show)
            }));
            row
        })
        .collect();
    let mut headers = vec!["method"];
    headers.extend(schemes.iter().map(String::as_str));
    ascii_table(&headers, &rows)
}
