//! The experiment registry: every table/figure of the paper as one
//! [`ExperimentInfo`] behind one uniform execution surface.
//!
//! An experiment is one `declare_experiment!` declaration plus one run
//! function, both in its family's module under [`crate::figures`]. The declaration lists each
//! parameter once — name, type, default, help — and expands to the printed
//! schema (`&[ParamSpec]`, what `mlec info` shows) *and* a typed parameter
//! struct whose fields are filled, in declaration order, from the
//! `key=value` arguments. The field type carries the accepted range
//! (`ParamType`), every value is parsed exactly once, and the struct is
//! what the run function receives: reading an undeclared or mistyped
//! parameter is a compile error. The driver (`mlec` in `mlec-bench`)
//! resolves arguments *before* running anything: unknown keys, values
//! outside the field type's range, and unsupported modes are hard errors,
//! never silently ignored.

use crate::figures::RunnerOpts;
use crate::report::{dump_json_in, DumpError};
use mlec_runner::Json;
use std::fmt;
use std::num::NonZeroU32;
use std::path::{Path, PathBuf};

/// The value type of a declared parameter: how the raw text of a
/// `key=value` argument becomes the typed field, and what `mlec info` and
/// a rejection say about it.
pub(crate) trait ParamType: Sized {
    /// Type column of `mlec info`.
    const KIND: &'static str;

    /// The value `raw` spells, or `None` when it is outside the type.
    fn parse(raw: &str) -> Option<Self>;

    /// What a rejected value is told was expected; integer types narrower
    /// than `u64` name their accepted range.
    fn expected() -> String {
        Self::KIND.to_string()
    }
}

fn integer_in(min: u32, max: u32) -> String {
    format!("integer in {min}..={max}")
}

/// Unsigned integer (`trials=64`).
impl ParamType for u64 {
    const KIND: &'static str = "integer";
    fn parse(raw: &str) -> Option<u64> {
        raw.parse().ok()
    }
}

/// An integer the experiment narrows to 32 bits (`samples=60`).
impl ParamType for u32 {
    const KIND: &'static str = "integer";
    fn parse(raw: &str) -> Option<u32> {
        raw.parse().ok()
    }
    fn expected() -> String {
        integer_in(0, u32::MAX)
    }
}

/// A count that must not be zero (`racks=5`).
impl ParamType for NonZeroU32 {
    const KIND: &'static str = "integer";
    fn parse(raw: &str) -> Option<NonZeroU32> {
        raw.parse().ok()
    }
    fn expected() -> String {
        integer_in(1, u32::MAX)
    }
}

/// An integer in `MIN..=MAX` (`put_pct=10` is a `Bounded<0, 100>`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Bounded<const MIN: u32, const MAX: u32>(u32);

impl<const MIN: u32, const MAX: u32> Bounded<MIN, MAX> {
    /// The value, within `MIN..=MAX`.
    pub(crate) fn get(self) -> u32 {
        self.0
    }
}

impl<const MIN: u32, const MAX: u32> ParamType for Bounded<MIN, MAX> {
    const KIND: &'static str = "integer";
    fn parse(raw: &str) -> Option<Self> {
        raw.parse()
            .ok()
            .filter(|v| (MIN..=MAX).contains(v))
            .map(Bounded)
    }
    fn expected() -> String {
        integer_in(MIN, MAX)
    }
}

/// Non-negative float (`rel_err=0.05`): every declared one is a rate, a
/// span or a tolerance.
impl ParamType for f64 {
    const KIND: &'static str = "non-negative number";
    fn parse(raw: &str) -> Option<f64> {
        raw.parse()
            .ok()
            .filter(|v: &f64| v.is_finite() && *v >= 0.0)
    }
}

/// Free string (`bias=auto`); the run function interprets it.
impl ParamType for String {
    const KIND: &'static str = "string";
    fn parse(raw: &str) -> Option<String> {
        Some(raw.to_string())
    }
}

/// One declared `key=value` parameter of an experiment, as `mlec info`
/// prints it.
#[derive(Debug, Clone, Copy)]
pub struct ParamSpec {
    /// Key as typed on the command line.
    pub name: &'static str,
    /// The field type's `ParamType::KIND`.
    pub kind: &'static str,
    /// Default, rendered exactly as a user could type it.
    pub default: &'static str,
    /// One-line description for `mlec info`.
    pub help: &'static str,
}

/// One field of a typed parameter struct: the value given at its position
/// (the declared default when none was), parsed as the field's type.
pub(crate) fn parse_field<T: ParamType>(
    name: &str,
    default: &str,
    given: Option<&str>,
) -> Result<T, ExperimentError> {
    let raw = given.unwrap_or(default);
    T::parse(raw).ok_or_else(|| ExperimentError::BadValue {
        name: name.to_string(),
        value: raw.to_string(),
        expected: T::expected(),
    })
}

/// The typed parameter struct of an experiment that declares none.
pub(crate) struct NoParams;

impl NoParams {
    pub(crate) const SPECS: &'static [ParamSpec] = &[];

    pub(crate) fn from_values(_values: &[Option<String>]) -> Result<NoParams, ExperimentError> {
        Ok(NoParams)
    }
}

/// Declare one experiment: its [`ExperimentInfo`] static and — when a
/// parameter block is given — the typed parameter struct the block
/// describes. Each `field: Type = "default", "help";` line is both one
/// [`ParamSpec`] of the printed schema and one field of the struct, so a
/// parameter is declared in exactly one place. Experiments sharing a
/// schema name the same struct; the first declares the block, the others
/// omit it.
///
/// ```text
/// declare_experiment! {
///     FIG99(run_fig99, Fig99Params {
///         trials: u64 = "64", "pool trials per scheme";
///         racks: NonZeroU32 = "5", "affected racks";
///     }) {
///         name: "fig99",
///         title: "Figure 99",
///         description: "…",
///         paper_ref: "§9",
///         modes: &[Mode::Sim],
///         fast: &[("trials", "8")],
///     }
/// }
/// fn run_fig99(ctx: &ExperimentCtx, p: &Fig99Params) -> Result<ExperimentOutput, ExperimentError>
/// ```
macro_rules! declare_experiment {
    (
        $INFO:ident($run:path, $Params:ident $({
            $($field:ident: $ty:ty = $default:literal, $help:literal;)*
        })?) {
            name: $name:expr,
            title: $title:expr,
            description: $description:expr,
            paper_ref: $paper_ref:expr,
            modes: $modes:expr,
            fast: $fast:expr $(,)?
        }
    ) => {
        $(
            struct $Params {
                $($field: $ty,)*
            }

            impl $Params {
                const SPECS: &'static [$crate::registry::ParamSpec] = &[$(
                    $crate::registry::ParamSpec {
                        name: stringify!($field),
                        kind: <$ty as $crate::registry::ParamType>::KIND,
                        default: $default,
                        help: $help,
                    },
                )*];

                fn from_values(
                    values: &[Option<String>],
                ) -> Result<$Params, $crate::registry::ExperimentError> {
                    let mut values = values.iter().map(Option::as_deref);
                    Ok($Params {
                        $($field: $crate::registry::parse_field(
                            stringify!($field),
                            $default,
                            values.next().flatten(),
                        )?,)*
                    })
                }
            }
        )?

        pub(crate) static $INFO: $crate::registry::ExperimentInfo =
            $crate::registry::ExperimentInfo {
                name: $name,
                title: $title,
                description: $description,
                paper_ref: $paper_ref,
                modes: $modes,
                params: $Params::SPECS,
                fast: $fast,
                bind: {
                    fn bind(
                        ctx: &$crate::registry::ExperimentCtx,
                    ) -> Result<$crate::registry::BoundRun<'_>, $crate::registry::ExperimentError>
                    {
                        let params = $Params::from_values(ctx.values())?;
                        Ok(Box::new(move || $run(ctx, &params)))
                    }
                    bind
                },
            };
    };
}
pub(crate) use declare_experiment;

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

/// An experiment whose arguments are bound to its typed parameter struct;
/// calling it runs the experiment.
pub type BoundRun<'a> = Box<dyn FnOnce() -> Result<ExperimentOutput, ExperimentError> + 'a>;

/// One registered experiment: its self-description, its parameter schema
/// and its entry point. Built by `declare_experiment!`.
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
    /// Parse the context's values into the experiment's typed parameter
    /// struct — the one place a value is parsed, and where a value outside
    /// its field type is rejected — and return the run over it.
    pub bind: fn(&ExperimentCtx) -> Result<BoundRun<'_>, ExperimentError>,
}

impl ExperimentInfo {
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
    /// The value is outside the parameter's declared `ParamType`.
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

/// Resolved execution context handed to an experiment's run function
/// next to its typed parameter struct.
#[derive(Debug)]
pub struct ExperimentCtx {
    /// Selected mode (validated against the experiment's `modes`).
    pub mode: Mode,
    /// Artifact directory (`out=DIR`, default `target/figures`).
    pub out_dir: PathBuf,
    /// Runner execution options: `threads=N`, `manifests=DIR`.
    pub runner: RunnerOpts,
    /// Per declared parameter, in schema order: the value given on the
    /// command line, if any.
    values: Vec<Option<String>>,
}

impl ExperimentCtx {
    /// Resolve raw `key=value` arguments against an experiment's schema.
    /// Every key must be a declared parameter or one of the global keys
    /// (`mode`, `out`, `threads`, `manifests`). Later duplicates override
    /// earlier ones. The values of declared parameters are parsed by
    /// [`ExperimentInfo::bind`].
    pub fn parse(
        info: &'static ExperimentInfo,
        raw_args: &[String],
    ) -> Result<ExperimentCtx, ExperimentError> {
        let mut ctx = ExperimentCtx {
            mode: info.default_mode(),
            out_dir: Path::new("target").join("figures"),
            runner: RunnerOpts::default(),
            values: vec![None; info.params.len()],
        };
        for arg in raw_args {
            let Some((key, value)) = arg.split_once('=') else {
                return Err(ExperimentError::BadArg(arg.clone()));
            };
            let declared = info
                .params
                .iter()
                .zip(&mut ctx.values)
                .find(|(p, _)| p.name == key)
                .map(|(_, slot)| slot);
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
                    // schema (fig11: encode-side parallelism)
                    // receive the same value there — one knob, both layers.
                    if let Some(slot) = declared {
                        *slot = Some(value.to_string());
                    }
                }
                "manifests" => ctx.runner.manifest_dir = Some(PathBuf::from(value)),
                _ => match declared {
                    Some(slot) => *slot = Some(value.to_string()),
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

    /// The given values, one slot per declared parameter in schema order —
    /// what a typed parameter struct is filled from.
    pub(crate) fn values(&self) -> &[Option<String>] {
        &self.values
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

/// Every registered experiment, in the paper's presentation order.
pub static REGISTRY: &[&ExperimentInfo] = &[
    &crate::figures::summary::FIG01,
    &crate::figures::repair::TABLE2,
    &crate::figures::bursts::FIG05,
    &crate::figures::repair::FIG06,
    &crate::figures::durability::FIG07,
    &crate::figures::repair::FIG08,
    &crate::figures::repair::FIG09,
    &crate::figures::durability::FIG10,
    &crate::figures::tradeoff::FIG11,
    &crate::figures::tradeoff::FIG12,
    &crate::figures::bursts::FIG13,
    &crate::figures::tradeoff::FIG15,
    &crate::figures::bursts::FIG16,
    &crate::figures::summary::SEC514,
    &crate::figures::summary::ABLATIONS,
    &crate::figures::summary::PAPER_SUMMARY,
    &crate::figures::durability::VALIDATION,
    &crate::figures::tools::TRACE,
    &crate::figures::tools::STORE_BENCH,
];

/// Look up an experiment by registry name.
pub fn find(name: &str) -> Option<&'static ExperimentInfo> {
    REGISTRY.iter().copied().find(|info| info.name == name)
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
    let names: Vec<&'static str> = REGISTRY.iter().map(|info| info.name).collect();
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

/// Resolve `name`, bind `raw_args` to its typed parameters, execute, and
/// dump every artifact under the context's `out=` directory.
pub fn run_experiment(name: &str, raw_args: &[String]) -> Result<RunOutcome, ExperimentError> {
    let info = find(name).ok_or_else(|| ExperimentError::UnknownExperiment(name.to_string()))?;
    let ctx = ExperimentCtx::parse(info, raw_args)?;
    let run = (info.bind)(&ctx)?;
    let output = run()?;
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
        for info in REGISTRY {
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
                REGISTRY.iter().filter(|info| info.name == name).count(),
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
        for info in REGISTRY {
            let bind = |args: &[String]| {
                let ctx = ExperimentCtx::parse(info, args)
                    .unwrap_or_else(|e| panic!("{}: {args:?}: {e}", info.name));
                assert_eq!(ctx.values().len(), info.params.len());
                if let Err(e) = (info.bind)(&ctx) {
                    panic!(
                        "{}: {args:?} does not build the typed struct: {e}",
                        info.name
                    );
                }
                ctx
            };
            // No argument: every declared default is inside its field type.
            let ctx = bind(&[]);
            assert_eq!(ctx.mode, info.default_mode());
            // So are the fast overrides, which must name declared params.
            let fast: Vec<String> = info.fast.iter().map(|(k, v)| format!("{k}={v}")).collect();
            bind(&fast);
            // Round-trip: feeding every default back as an explicit
            // argument binds too.
            let explicit: Vec<String> = info
                .params
                .iter()
                .map(|p| format!("{}={}", p.name, p.default))
                .collect();
            bind(&explicit);
        }
    }

    #[test]
    fn field_types_reject_values_outside_their_range_and_name_it() {
        let reject = |err: Result<u32, ExperimentError>, range: &str| match err {
            Err(e @ ExperimentError::BadValue { .. }) => {
                let msg = e.to_string();
                assert!(msg.contains(range), "{msg}");
            }
            other => panic!("expected BadValue, got {other:?}"),
        };
        let field = |v| parse_field::<u32>("samples", "60", Some(v));
        assert_eq!(field("4294967295").unwrap(), u32::MAX);
        reject(field("4294967296"), "integer in 0..=4294967295");
        reject(field("-1"), "integer in 0..=4294967295");
        let field = |v| parse_field::<NonZeroU32>("racks", "5", Some(v)).map(NonZeroU32::get);
        assert_eq!(field("1").unwrap(), 1);
        reject(field("0"), "integer in 1..=4294967295");
        reject(field("4294967296"), "integer in 1..=4294967295");
        let field = |v| parse_field::<Bounded<2, 100>>("kmax", "50", Some(v)).map(Bounded::get);
        assert_eq!((field("2").unwrap(), field("100").unwrap()), (2, 100));
        reject(field("1"), "integer in 2..=100");
        reject(field("101"), "integer in 2..=100");
        // No value given at the field's position: the declared default.
        assert_eq!(parse_field::<u32>("samples", "60", None).unwrap(), 60);
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
        // Integers that used to panic deep in a run (a zero rack count, a
        // zero chunk size, a grid step that wraps the axis) or to run as
        // their value modulo 2^32.
        for (name, arg) in [
            ("fig05", "step=4294967295"),
            ("fig05", "step=4294967297"),
            ("trace", "burst_racks=0"),
            ("trace", "burst_size=4294967356"),
            ("fig11", "chunk_kb=0"),
            ("fig11", "kmax=1"),
            ("fig11", "pmax=0"),
            ("fig12", "racks=0"),
            ("fig12", "failures=4294967296"),
            ("fig13", "samples=4294967296"),
            ("fig16", "min_samples=4294967296"),
        ] {
            match run_experiment(name, &args(&[arg])) {
                Err(e @ ExperimentError::BadValue { .. }) => {
                    assert!(e.to_string().contains("expected integer in "), "{e}");
                }
                other => panic!("{name} {arg}: expected BadValue, got {other:?}"),
            }
        }
        // A u64 that does not fit the spec's u32 field must not be
        // truncated (4294967306 as u32 == 10) and run.
        for arg in [
            "put_pct=4294967306",
            "delete_pct=101",
            "kill_racks=4294967296",
            "kill_disks=4294967296",
            // Sizes that used to overflow an allocation or to be refused
            // as `Io` after set-up had begun.
            "objects=18446744073709551615",
            "shards=18446744073709551615",
            "objects=0",
            "ops_per_sec=0",
            "delete_pct=91",
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
        let info = find("fig07").unwrap();
        let ctx = ExperimentCtx::parse(info, &args(&["mode=sim", "bias=4"])).unwrap();
        assert_eq!(ctx.mode, Mode::Sim);
        let ctx = ExperimentCtx::parse(info, &[]).unwrap();
        assert_eq!(ctx.mode, Mode::Analytic);
        assert!(matches!(
            run_experiment("fig07", &args(&["mode=sim", "bias=-3"])),
            Err(ExperimentError::BadValue { .. })
        ));
    }

    #[test]
    fn global_keys_resolve_into_ctx() {
        let info = find("fig05").unwrap();
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
        // `samples` is the third declared parameter of fig05.
        let samples = info
            .params
            .iter()
            .position(|p| p.name == "samples")
            .unwrap();
        assert_eq!(ctx.values()[samples].as_deref(), Some("9"));
        assert_eq!(ctx.values().iter().flatten().count(), 1);
        // fig11 declares `threads`: the global knob lands there too.
        let info = find("fig11").unwrap();
        let ctx = ExperimentCtx::parse(info, &args(&["threads=3"])).unwrap();
        let threads = info
            .params
            .iter()
            .position(|p| p.name == "threads")
            .unwrap();
        assert_eq!(ctx.values()[threads].as_deref(), Some("3"));
    }
}
