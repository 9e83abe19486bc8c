//! # mlec-runner — deterministic Monte Carlo orchestration
//!
//! The single way every experiment in this workspace executes trials:
//!
//! * [`seed_stream`] — SplitMix64-derived per-trial seeds keyed by
//!   `(root_seed, experiment_label, trial_index)`, so results are
//!   bit-identical regardless of thread count or batch size;
//! * [`executor`] — a batched parallel executor over the generic
//!   [`trial::Trial`] trait with adaptive stopping rules, and
//!   [`executor::fan_out`], which runs independent campaigns side by side;
//! * [`stats`] — streaming Welford mean/variance and Wilson confidence
//!   intervals for rare-event proportions;
//! * [`manifest`] — incremental JSONL run manifests enabling
//!   checkpoint/resume of long runs;
//! * [`json`] — the self-contained JSON layer used by manifests and figure
//!   dumps;
//! * [`rng`] — the workspace's only generators: `SplitMix64` for seed
//!   derivation and the `ChaCha12` every trial draws from;
//! * [`clock`] — the workspace's only wall clock, for reporting only.
//!
//! The crate is foundational (std-only, no dependencies): simulation and
//! analysis crates depend on it and implement [`trial::Trial`] for their
//! own types.

pub mod clock;
pub mod executor;
pub mod json;
pub mod manifest;
pub mod rng;
pub mod seed_stream;
pub mod stats;
pub mod trial;

pub use executor::{fan_out, run, run_with, RunReport, RunSpec, StopRule};
pub use json::{Json, ToJson};
pub use rng::{trial_rng, SplitMix64, TrialRng};
pub use seed_stream::SeedStream;
pub use stats::{Proportion, WeightedRate, WeightedWelford, Welford};
pub use trial::{
    Accumulator, FnTrial, GridAcc, GridOrder, GridTrial, HitAcc, HitTrial, MeanAcc, Summary, Trial,
};
