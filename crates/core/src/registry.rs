//! The experiment registry: every table/figure of the paper as a named,
//! self-describing [`Experiment`] behind one uniform execution surface.
//!
//! Each experiment declares its [`ExperimentInfo`] — name, title, paper
//! reference, supported [`Mode`]s, and a typed parameter schema — and the
//! driver (`mlec` in `mlec-bench`) resolves `key=value` arguments against
//! that schema *before* running anything: unknown keys, malformed values,
//! and unsupported modes are hard errors, never silently ignored. The
//! implementations live in [`crate::figures`]; the per-figure binaries are
//! thin compatibility shims over [`run_experiment`].

use crate::experiments::HeatmapRunOpts;
use crate::report::{dump_json_in, DumpError};
use mlec_runner::Json;
use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

/// Value type of a declared parameter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParamKind {
    /// Unsigned integer (`trials=64`).
    U64,
    /// Non-negative float (`rel_err=0.05`): every declared one is a rate,
    /// a span or a tolerance.
    F64,
    /// Free string (`bias=auto`).
    Str,
}

impl ParamKind {
    /// Human name used in error messages and `mlec info`.
    pub fn name(self) -> &'static str {
        match self {
            ParamKind::U64 => "integer",
            ParamKind::F64 => "non-negative number",
            ParamKind::Str => "string",
        }
    }

    fn validate(self, value: &str) -> bool {
        match self {
            ParamKind::U64 => value.parse::<u64>().is_ok(),
            ParamKind::F64 => value
                .parse::<f64>()
                .is_ok_and(|v| v.is_finite() && v >= 0.0),
            ParamKind::Str => true,
        }
    }
}

/// One declared `key=value` parameter of an experiment.
#[derive(Debug, Clone, Copy)]
pub struct ParamSpec {
    /// Key as typed on the command line.
    pub name: &'static str,
    /// Value type, validated at parse time.
    pub kind: ParamKind,
    /// Default, rendered exactly as a user could type it.
    pub default: &'static str,
    /// One-line description for `mlec info`.
    pub help: &'static str,
}

/// Execution mode of an experiment. The first entry of
/// [`ExperimentInfo::modes`] is the default.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Closed-form / Markov-chain computation; no sampling.
    Analytic,
    /// Monte Carlo through `mlec-runner` (deterministic per seed).
    Sim,
    /// Wall-clock measurement on this machine's hardware (Fig 11).
    Measured,
}

impl Mode {
    /// The `mode=` value selecting this mode.
    pub fn name(self) -> &'static str {
        match self {
            Mode::Analytic => "analytic",
            Mode::Sim => "sim",
            Mode::Measured => "measured",
        }
    }
}

/// Static self-description of an experiment.
#[derive(Debug)]
pub struct ExperimentInfo {
    /// Registry name (`mlec run <name>`).
    pub name: &'static str,
    /// Display title, e.g. `"Figure 5"`.
    pub title: &'static str,
    /// One-line description (the banner tail).
    pub description: &'static str,
    /// Where in the paper this figure/table lives.
    pub paper_ref: &'static str,
    /// Supported modes; first is the default.
    pub modes: &'static [Mode],
    /// Parameter schema (global keys `mode`/`out`/`threads`/`manifests`
    /// are accepted everywhere and not repeated here).
    pub params: &'static [ParamSpec],
    /// Overrides applied by `mlec run all --fast` — must name declared
    /// params with valid values (enforced by registry tests).
    pub fast: &'static [(&'static str, &'static str)],
}

impl ExperimentInfo {
    fn param(&self, name: &str) -> Option<&ParamSpec> {
        self.params.iter().find(|p| p.name == name)
    }

    /// Default mode (first declared).
    pub fn default_mode(&self) -> Mode {
        self.modes[0]
    }

    fn supported_modes(&self) -> String {
        self.modes
            .iter()
            .map(|m| m.name())
            .collect::<Vec<_>>()
            .join(", ")
    }
}

/// Why an experiment could not be resolved or executed.
#[derive(Debug)]
pub enum ExperimentError {
    /// No experiment with this name is registered.
    UnknownExperiment(String),
    /// An argument was not of the form `key=value`.
    BadArg(String),
    /// `key` is not in the experiment's schema.
    UnknownParam {
        /// The unrecognized key.
        name: String,
        /// The accepted keys, for the error message.
        allowed: String,
    },
    /// The value does not parse under the declared [`ParamKind`].
    BadValue {
        /// Parameter name.
        name: String,
        /// Offending value.
        value: String,
        /// What was expected.
        expected: String,
    },
    /// `mode=` named a mode the experiment does not implement.
    UnsupportedMode {
        /// Experiment name.
        name: String,
        /// Requested mode.
        mode: String,
        /// Supported modes.
        supported: String,
    },
    /// A Monte Carlo campaign failed (manifest I/O, config mismatch…).
    Io(std::io::Error),
    /// Writing a JSON artifact failed.
    Dump(DumpError),
}

impl fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExperimentError::UnknownExperiment(n) => match suggest(n) {
                Some(s) => {
                    write!(
                        f,
                        "unknown experiment `{n}` — did you mean `{s}`? (run `mlec list`)"
                    )
                }
                None => write!(f, "unknown experiment `{n}` (run `mlec list`)"),
            },
            ExperimentError::BadArg(a) => {
                write!(f, "bad argument `{a}`: expected key=value")
            }
            ExperimentError::UnknownParam { name, allowed } => {
                write!(f, "unknown parameter `{name}` (accepted: {allowed})")
            }
            ExperimentError::BadValue {
                name,
                value,
                expected,
            } => {
                write!(
                    f,
                    "invalid value `{value}` for `{name}`: expected {expected}"
                )
            }
            ExperimentError::UnsupportedMode {
                name,
                mode,
                supported,
            } => {
                let candidates: Vec<&str> = supported.split(", ").collect();
                match suggest_among(mode, &candidates) {
                    Some(s) => write!(
                        f,
                        "experiment `{name}` has no mode={mode} — did you mean \
                         `mode={s}`? (supported: {supported})"
                    ),
                    None => write!(
                        f,
                        "experiment `{name}` has no mode={mode} (supported: {supported})"
                    ),
                }
            }
            ExperimentError::Io(e) => write!(f, "campaign I/O: {e}"),
            ExperimentError::Dump(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ExperimentError {}

impl From<std::io::Error> for ExperimentError {
    fn from(e: std::io::Error) -> Self {
        ExperimentError::Io(e)
    }
}

impl From<DumpError> for ExperimentError {
    fn from(e: DumpError) -> Self {
        ExperimentError::Dump(e)
    }
}

/// Resolved, validated execution context handed to [`Experiment::run`].
#[derive(Debug)]
pub struct ExperimentCtx {
    /// Selected mode (validated against the experiment's `modes`).
    pub mode: Mode,
    /// Artifact directory (`out=DIR`, default `target/figures`).
    pub out_dir: PathBuf,
    /// Runner execution options: `threads=N`, `manifests=DIR`.
    pub runner: HeatmapRunOpts,
    info: &'static ExperimentInfo,
    values: BTreeMap<&'static str, String>,
}

impl ExperimentCtx {
    /// Parse raw `key=value` arguments against an experiment's schema.
    /// Every key must be a declared parameter or one of the global keys
    /// (`mode`, `out`, `threads`, `manifests`); every value must parse
    /// under the declared kind. Later duplicates override earlier ones.
    pub fn parse(
        info: &'static ExperimentInfo,
        raw_args: &[String],
    ) -> Result<ExperimentCtx, ExperimentError> {
        let mut ctx = ExperimentCtx {
            mode: info.default_mode(),
            out_dir: Path::new("target").join("figures"),
            runner: HeatmapRunOpts::default(),
            info,
            values: info
                .params
                .iter()
                .map(|p| (p.name, p.default.to_string()))
                .collect(),
        };
        for arg in raw_args {
            let Some((key, value)) = arg.split_once('=') else {
                return Err(ExperimentError::BadArg(arg.clone()));
            };
            match key {
                "mode" => {
                    let mode = info.modes.iter().copied().find(|m| m.name() == value);
                    match mode {
                        Some(m) => ctx.mode = m,
                        None => {
                            return Err(ExperimentError::UnsupportedMode {
                                name: info.name.to_string(),
                                mode: value.to_string(),
                                supported: info.supported_modes(),
                            })
                        }
                    }
                }
                "out" => ctx.out_dir = PathBuf::from(value),
                "threads" => {
                    ctx.runner.threads = value.parse().map_err(|_| ExperimentError::BadValue {
                        name: "threads".to_string(),
                        value: value.to_string(),
                        expected: "integer (0 = all cores)".to_string(),
                    })?;
                    // Experiments that also declare `threads` in their
                    // schema (fig11/fig12/fig15: encode-side parallelism)
                    // receive the same value there — one knob, both layers.
                    if let Some(spec) = info.param("threads") {
                        ctx.values.insert(spec.name, value.to_string());
                    }
                }
                "manifests" => ctx.runner.manifest_dir = Some(PathBuf::from(value)),
                _ => match info.param(key) {
                    Some(spec) => {
                        if !spec.kind.validate(value) {
                            return Err(ExperimentError::BadValue {
                                name: key.to_string(),
                                value: value.to_string(),
                                expected: spec.kind.name().to_string(),
                            });
                        }
                        ctx.values.insert(spec.name, value.to_string());
                    }
                    None => {
                        let mut allowed: Vec<&str> = info.params.iter().map(|p| p.name).collect();
                        // Global keys, deduped against the schema (an
                        // experiment may declare `threads` to opt into it
                        // as a real parameter).
                        for global in ["mode", "out", "threads", "manifests"] {
                            if !allowed.contains(&global) {
                                allowed.push(global);
                            }
                        }
                        return Err(ExperimentError::UnknownParam {
                            name: key.to_string(),
                            allowed: allowed.join(", "),
                        });
                    }
                },
            }
        }
        Ok(ctx)
    }

    fn raw(&self, name: &str) -> &str {
        self.values
            .get(name)
            .unwrap_or_else(|| panic!("{}: parameter `{name}` not declared", self.info.name))
    }

    /// A declared [`ParamKind::U64`] parameter (validated at parse time).
    pub fn u64(&self, name: &str) -> u64 {
        self.raw(name).parse().expect("validated at parse time")
    }

    /// A declared [`ParamKind::F64`] parameter (validated at parse time).
    pub fn f64(&self, name: &str) -> f64 {
        self.raw(name).parse().expect("validated at parse time")
    }

    /// A declared [`ParamKind::Str`] parameter.
    pub fn str(&self, name: &str) -> &str {
        self.raw(name)
    }

    /// The `bias=` knob of the importance-sampled modes: `auto` → `None`
    /// (per-scheme auto-selection), otherwise a positive finite
    /// multiplier (`1` = direct simulation).
    pub fn bias(&self) -> Result<Option<f64>, ExperimentError> {
        let raw = self.str("bias");
        if raw == "auto" {
            return Ok(None);
        }
        match raw.parse::<f64>() {
            Ok(b) if b.is_finite() && b > 0.0 => Ok(Some(b)),
            _ => Err(ExperimentError::BadValue {
                name: "bias".to_string(),
                value: raw.to_string(),
                expected: "`auto` or a positive number".to_string(),
            }),
        }
    }
}

/// What an experiment produced: rendered text plus named JSON artifacts.
#[derive(Debug, Default)]
pub struct ExperimentOutput {
    /// Human-readable report (tables, heatmaps, paper-comparison notes).
    pub text: String,
    /// `(artifact_name, value)` pairs, written as
    /// `<out_dir>/<name>.json` by [`run_experiment`].
    pub artifacts: Vec<(String, Json)>,
    /// Failed acceptance gates (e.g. `require_events=`); a non-empty list
    /// makes the driver exit non-zero after printing the report.
    pub gate_failures: Vec<String>,
}

impl ExperimentOutput {
    /// Empty output to be filled in.
    pub fn new() -> ExperimentOutput {
        ExperimentOutput::default()
    }

    /// Queue a JSON artifact for dumping.
    pub fn artifact<T: mlec_runner::ToJson + ?Sized>(&mut self, name: &str, value: &T) {
        self.artifacts.push((name.to_string(), value.to_json()));
    }
}

/// A registered experiment: static self-description plus an execution
/// entry point. Implementations live in [`crate::figures`].
pub trait Experiment: Sync {
    /// The experiment's static description and parameter schema.
    fn info(&self) -> &'static ExperimentInfo;
    /// Execute under a validated context.
    fn run(&self, ctx: &ExperimentCtx) -> Result<ExperimentOutput, ExperimentError>;
}

/// Every registered experiment, in the paper's presentation order.
pub static REGISTRY: &[&dyn Experiment] = &[
    &crate::figures::Fig01,
    &crate::figures::Table2,
    &crate::figures::Fig05,
    &crate::figures::Fig06,
    &crate::figures::Fig07,
    &crate::figures::Fig08,
    &crate::figures::Fig09,
    &crate::figures::Fig10,
    &crate::figures::Fig11,
    &crate::figures::Fig12,
    &crate::figures::Fig13,
    &crate::figures::Fig15,
    &crate::figures::Fig16,
    &crate::figures::Sec514,
    &crate::figures::Ablations,
    &crate::figures::PaperSummary,
    &crate::figures::Validation,
    &crate::figures::TraceTools,
    &crate::figures::StoreBench,
];

/// Look up an experiment by registry name.
pub fn find(name: &str) -> Option<&'static dyn Experiment> {
    REGISTRY.iter().copied().find(|e| e.info().name == name)
}

/// Edit distance between two short ASCII names (classic two-row DP).
fn edit_distance(a: &str, b: &str) -> usize {
    let (a, b): (Vec<u8>, Vec<u8>) = (a.bytes().collect(), b.bytes().collect());
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

/// The registered name closest to `name`, when close enough to be a
/// plausible typo (edit distance ≤ 2, or a unique prefix). Ties break
/// toward the lexicographically first candidate so the suggestion is
/// stable.
pub fn suggest(name: &str) -> Option<&'static str> {
    let names: Vec<&'static str> = REGISTRY.iter().map(|e| e.info().name).collect();
    suggest_among(name, &names)
}

/// The candidate closest to `input` under the same typo heuristics as
/// [`suggest`] (unique prefix, then edit distance ≤ 2, lexicographic
/// tie-break). Used for *parameter values* too: unknown `mode=`/`method=`
/// values get the same did-you-mean treatment as experiment names.
/// Matching is case-insensitive so `r_layer` suggests `R_LAYER`.
pub fn suggest_among<'a>(input: &str, candidates: &[&'a str]) -> Option<&'a str> {
    let mut names: Vec<&'a str> = candidates.to_vec();
    names.sort_unstable();
    let input_lc = input.to_ascii_lowercase();
    let prefixed: Vec<&&str> = names
        .iter()
        .filter(|n| n.to_ascii_lowercase().starts_with(&input_lc))
        .collect();
    if let [only] = prefixed[..] {
        if !input.is_empty() {
            return Some(only);
        }
    }
    names
        .iter()
        .map(|n| (edit_distance(&input_lc, &n.to_ascii_lowercase()), *n))
        .filter(|&(d, _)| d <= 2)
        .min_by_key(|&(d, n)| (d, n))
        .map(|(_, n)| n)
}

/// Result of [`run_experiment`]: the rendered report plus where the
/// artifacts landed.
#[derive(Debug)]
pub struct RunOutcome {
    /// The experiment that ran.
    pub info: &'static ExperimentInfo,
    /// Mode it ran under.
    pub mode: Mode,
    /// Rendered report text.
    pub text: String,
    /// JSON artifacts written (one per [`ExperimentOutput::artifacts`]).
    pub artifact_paths: Vec<PathBuf>,
    /// Failed acceptance gates (non-empty → the caller should exit
    /// non-zero).
    pub gate_failures: Vec<String>,
}

/// Resolve `name`, validate `raw_args` against its schema, execute, and
/// dump every artifact under the context's `out=` directory.
pub fn run_experiment(name: &str, raw_args: &[String]) -> Result<RunOutcome, ExperimentError> {
    let exp = find(name).ok_or_else(|| ExperimentError::UnknownExperiment(name.to_string()))?;
    let info = exp.info();
    let ctx = ExperimentCtx::parse(info, raw_args)?;
    let output = exp.run(&ctx)?;
    let mut artifact_paths = Vec::new();
    for (artifact, value) in &output.artifacts {
        artifact_paths.push(dump_json_in(&ctx.out_dir, artifact, value)?);
    }
    Ok(RunOutcome {
        info,
        mode: ctx.mode,
        text: output.text,
        artifact_paths,
        gate_failures: output.gate_failures,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(std::string::ToString::to_string).collect()
    }

    #[test]
    fn registry_names_are_unique_and_nonempty() {
        let mut seen = BTreeSet::new();
        for exp in REGISTRY {
            let info = exp.info();
            assert!(!info.name.is_empty());
            assert!(
                seen.insert(info.name),
                "duplicate experiment name {}",
                info.name
            );
            assert!(!info.modes.is_empty(), "{}: no modes", info.name);
        }
    }

    #[test]
    fn every_experiments_md_entry_is_registered_exactly_once() {
        // EXPERIMENTS.md is the catalog of record; every regenerable
        // figure/table it documents must resolve through the registry.
        // (Fig 14 is structural — pinned by crates/ec tests, no runner.)
        let doc = include_str!("../../../EXPERIMENTS.md");
        let expected = [
            ("## Table 2", "table2"),
            ("## Fig 1 ", "fig01"),
            ("## Fig 5 ", "fig05"),
            ("## Fig 6 ", "fig06"),
            ("## Fig 7 ", "fig07"),
            ("## Fig 8 ", "fig08"),
            ("## Fig 9 ", "fig09"),
            ("## Fig 10 ", "fig10"),
            ("## Fig 11 ", "fig11"),
            ("## Fig 12 ", "fig12"),
            ("## Fig 13 ", "fig13"),
            ("## Fig 15 ", "fig15"),
            ("## Fig 16 ", "fig16"),
            ("## §5.1.4", "sec514"),
            ("## store_bench", "store_bench"),
        ];
        for (heading, name) in expected {
            assert!(doc.contains(heading), "EXPERIMENTS.md lost `{heading}`");
            assert_eq!(
                REGISTRY.iter().filter(|e| e.info().name == name).count(),
                1,
                "{name} must be registered exactly once"
            );
            assert!(
                doc.contains(&format!("mlec run {name}")),
                "EXPERIMENTS.md must document `mlec run {name}`"
            );
        }
    }

    #[test]
    fn schema_round_trip_defaults_and_fast_overrides() {
        for exp in REGISTRY {
            let info = exp.info();
            for p in info.params {
                assert!(
                    p.kind.validate(p.default),
                    "{}: default for {} does not parse as {}",
                    info.name,
                    p.name,
                    p.kind.name()
                );
            }
            // No-arg parse succeeds and typed getters return the defaults.
            let ctx = ExperimentCtx::parse(info, &[]).unwrap();
            assert_eq!(ctx.mode, info.default_mode());
            for p in info.params {
                match p.kind {
                    ParamKind::U64 => assert_eq!(ctx.u64(p.name).to_string(), p.default),
                    ParamKind::F64 => {
                        assert_eq!(ctx.f64(p.name), p.default.parse::<f64>().unwrap());
                    }
                    ParamKind::Str => assert_eq!(ctx.str(p.name), p.default),
                }
            }
            // Fast overrides must target declared params with valid values.
            for (key, value) in info.fast {
                let spec = info
                    .param(key)
                    .unwrap_or_else(|| panic!("{}: fast override names unknown {key}", info.name));
                assert!(spec.kind.validate(value));
            }
            // Round-trip: feeding every default back as an explicit
            // argument parses cleanly.
            let explicit: Vec<String> = info
                .params
                .iter()
                .map(|p| format!("{}={}", p.name, p.default))
                .collect();
            ExperimentCtx::parse(info, &explicit).unwrap();
        }
    }

    #[test]
    fn unknown_name_param_and_value_are_hard_errors() {
        assert!(matches!(
            run_experiment("fig99", &[]),
            Err(ExperimentError::UnknownExperiment(_))
        ));
        // The historic silent-typo case: `afr_pc=1` must now error.
        let err = run_experiment("fig07", &args(&["afr_pc=1"])).unwrap_err();
        match err {
            ExperimentError::UnknownParam { name, allowed } => {
                assert_eq!(name, "afr_pc");
                assert!(allowed.contains("afr_pct"));
            }
            other => panic!("expected UnknownParam, got {other}"),
        }
        assert!(matches!(
            run_experiment("fig07", &args(&["trials=many"])),
            Err(ExperimentError::BadValue { .. })
        ));
        // Every declared float is a non-negative quantity, and a heatmap
        // needs at least one grid line (`max=0` used to panic on the axis).
        for (name, arg) in [
            ("fig08", "afr_pct=-5"),
            ("fig09", "years=-1"),
            ("fig05", "rel_err=-0.1"),
            ("store_bench", "zipf=-1"),
            ("fig05", "max=0"),
            ("fig13", "max=0"),
            ("fig16", "max=4294967296"),
        ] {
            assert!(
                matches!(
                    run_experiment(name, &args(&["mode=sim", arg])),
                    Err(ExperimentError::BadValue { .. })
                ),
                "{name} {arg}"
            );
        }
        // A u64 that does not fit the spec's u32 field must not be
        // truncated (4294967306 as u32 == 10) and run.
        for arg in [
            "put_pct=4294967306",
            "delete_pct=101",
            "kill_racks=4294967296",
            "kill_disks=4294967296",
        ] {
            assert!(
                matches!(
                    run_experiment("store_bench", &args(&["ops=10", arg])),
                    Err(ExperimentError::BadValue { .. })
                ),
                "{arg}"
            );
        }
        assert!(matches!(
            run_experiment("fig06", &args(&["mode=sim"])),
            Err(ExperimentError::UnsupportedMode { .. })
        ));
        assert!(matches!(
            run_experiment("fig06", &args(&["--verbose"])),
            Err(ExperimentError::BadArg(_))
        ));
    }

    #[test]
    fn unknown_experiment_suggests_a_close_name() {
        assert_eq!(suggest("store_benc"), Some("store_bench"));
        assert_eq!(suggest("fig5"), Some("fig05"));
        assert_eq!(suggest("storebench"), Some("store_bench"));
        assert_eq!(suggest("zzzzzz"), None);
        let msg = run_experiment("store_benchh", &[]).unwrap_err().to_string();
        assert!(msg.contains("did you mean `store_bench`"), "{msg}");
        // A hopeless name still gets the plain error.
        let msg = run_experiment("frobnicate", &[]).unwrap_err().to_string();
        assert!(!msg.contains("did you mean"), "{msg}");
    }

    #[test]
    fn unknown_mode_value_suggests_a_close_mode() {
        // Parameter-value did-you-mean: `mode=sin` is a plausible typo of
        // the supported `sim`.
        let msg = run_experiment("fig08", &args(&["mode=sin"]))
            .unwrap_err()
            .to_string();
        assert!(msg.contains("did you mean `mode=sim`"), "{msg}");
        // A hopeless mode still lists the supported set without a hint.
        let msg = run_experiment("fig08", &args(&["mode=zzzzzz"]))
            .unwrap_err()
            .to_string();
        assert!(!msg.contains("did you mean"), "{msg}");
        assert!(msg.contains("supported"), "{msg}");
    }

    #[test]
    fn unknown_method_value_suggests_a_close_label() {
        let msg = run_experiment("fig08", &args(&["method=R_LAYR"]))
            .unwrap_err()
            .to_string();
        assert!(msg.contains("did you mean `R_LAYER`"), "{msg}");
        let msg = run_experiment("fig09", &args(&["method=piggy"]))
            .unwrap_err()
            .to_string();
        assert!(msg.contains("did you mean `R_PIGGY`"), "{msg}");
        // Unknown method values are usage errors (BadValue), so the driver
        // exits 2, same as any malformed parameter.
        assert!(matches!(
            run_experiment("fig08", &args(&["method=R_NOPE,R_ALL"])),
            Err(ExperimentError::BadValue { .. })
        ));
        assert!(matches!(
            run_experiment("fig08", &args(&["method=,"])),
            Err(ExperimentError::BadValue { .. })
        ));
    }

    #[test]
    fn suggest_among_prefers_unique_prefix_then_distance() {
        let candidates = ["R_ALL", "R_FCO", "R_HYB", "R_MIN", "R_LAYER", "R_PIGGY"];
        assert_eq!(suggest_among("R_P", &candidates), Some("R_PIGGY"));
        assert_eq!(suggest_among("r_fco", &candidates), Some("R_FCO"));
        assert_eq!(suggest_among("R_LAYERS", &candidates), Some("R_LAYER"));
        assert_eq!(suggest_among("nothing_close", &candidates), None);
        // Ambiguous prefix falls back to edit distance.
        assert_eq!(suggest_among("R_", &candidates), None);
    }

    #[test]
    fn mode_selection_and_bias_validation() {
        let info = find("fig07").unwrap().info();
        let ctx = ExperimentCtx::parse(info, &args(&["mode=sim", "bias=4"])).unwrap();
        assert_eq!(ctx.mode, Mode::Sim);
        assert_eq!(ctx.bias().unwrap(), Some(4.0));
        let ctx = ExperimentCtx::parse(info, &[]).unwrap();
        assert_eq!(ctx.mode, Mode::Analytic);
        assert_eq!(ctx.bias().unwrap(), None);
        let ctx = ExperimentCtx::parse(info, &args(&["bias=-3"])).unwrap();
        assert!(ctx.bias().is_err());
    }

    #[test]
    fn global_keys_resolve_into_ctx() {
        let info = find("fig05").unwrap().info();
        let ctx = ExperimentCtx::parse(
            info,
            &args(&["threads=4", "manifests=/tmp/m", "out=/tmp/f", "samples=9"]),
        )
        .unwrap();
        assert_eq!(ctx.runner.threads, 4);
        assert_eq!(
            ctx.runner.manifest_dir.as_deref(),
            Some(Path::new("/tmp/m"))
        );
        assert_eq!(ctx.out_dir, Path::new("/tmp/f"));
        assert_eq!(ctx.u64("samples"), 9);
    }
}
