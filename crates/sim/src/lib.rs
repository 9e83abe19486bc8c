//! `mlec-sim`: the discrete-event failure/repair simulator for multi-level
//! erasure-coded storage (the Rust reproduction of the paper's ~13 kLOC
//! simulator, §3 "Simulation").
//!
//! Layered modules:
//!
//! - [`config`]: the §3 reference setup (bandwidths, throttles, detection
//!   time, AFR) and scheme/geometry bundles.
//! - [`failure`]: the time-to-failure model — exponential at the paper's
//!   AFR (1% by default) — and the Poisson sampler of rare-stripe thinning.
//! - [`bandwidth`]: the analytic available-repair-bandwidth model that
//!   reproduces Table 2 exactly (participating devices × throttled bandwidth
//!   ÷ IO amplification).
//! - [`census`]: the stripe-census model for declustered pools — expected
//!   stripe counts by failure multiplicity, updated on failure/repair events
//!   (this is what lets us track 10^9 stripes without materializing them).
//! - [`repair`]: the one repair type, [`RepairMethod`] (`R_ALL` / `R_FCO` /
//!   `R_HYB` / `R_MIN` plus the beyond-the-paper `R_LAYER` / `R_PIGGY`):
//!   each method's volume split and the shared cross-rack traffic and
//!   network/local repair-time accounting (Fig 8, 9).
//! - [`importance`]: forced-failure importance sampling — state-dependent
//!   rate multipliers with exact likelihood-ratio weights, so `pool_sim`
//!   observes catastrophes at the paper's true 1% AFR.
//! - [`kernel`]: the shared hazard kernel — one owner for the RNG stream,
//!   bias application, likelihood-ratio bookkeeping, excursion/regeneration
//!   accounting, and horizon censoring. Simulators plug in as
//!   [`kernel::PoolPolicy`] implementations and observe events through
//!   [`kernel::SimObserver`] hooks.
//! - [`pool_sim`]: per-pool long-horizon durability simulation with priority
//!   (most-failed-first) rebuild — the clustered/declustered pool policies
//!   driven by the kernel — produces catastrophic-failure rates (Fig 7) and
//!   the samples consumed by the splitting estimator (Fig 10).
//! - [`system_sim`]: the whole deployment in one mission — the same pool
//!   policies plus network repair of catastrophic pools and data-loss
//!   detection; like `pool_sim`, it picks each next event by racing the
//!   pending failure against the earliest repair.
//! - [`trace`]: failure traces — synthesis, burst detection and the
//!   replay source `system_sim` draws recorded failures from.
//! - [`traffic`]: yearly repair network traffic for SLEC / LRC / MLEC
//!   (§5.1.4, §5.2.4).
//! - [`trials`]: [`mlec_runner::Trial`] adapters so pool/system simulations
//!   run through the deterministic batched executor (`mlec-runner`).

#![cfg_attr(
    not(test),
    warn(clippy::indexing_slicing, clippy::unwrap_used, clippy::expect_used)
)]

pub mod bandwidth;
pub mod census;
pub mod config;
pub mod failure;
pub mod importance;
pub mod kernel;
pub mod pool_sim;
pub mod repair;
pub mod system_sim;
pub mod trace;
pub mod traffic;
pub mod trials;

pub use config::SimConfig;
pub use repair::RepairMethod;
