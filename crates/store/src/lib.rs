//! `mlec-store` — the serving path on top of the MLEC two-level codec: an
//! object store whose degraded reads and repair traffic compete with
//! foreground I/O for the same bandwidth model the system simulator uses.
//!
//! The paper evaluates MLEC as a data-center storage *design*; this crate
//! promotes the reproduction into a *system*. Objects map 1:1 onto network
//! stripes via [`mlec_topology::objectmap::ObjectMapper`], chunks live in a
//! pluggable [`backend::ChunkBackend`] (in-memory or file-backed) behind a
//! bounded deterministic LRU [`cache::ChunkCache`], and every byte moved —
//! foreground reads/writes, degraded-read decode fan-in, online rebuild —
//! reserves capacity on the [`arbiter::ShardedArbiter`]'s per-disk and
//! per-rack clocks. Latency is therefore *virtual* (a pure function of the
//! op trace, the placement seed, and the §3 bandwidth parameters), which is
//! what makes op logs bit-identical across thread and shard counts: threads
//! parallelize the pure prepare work (payload synthesis, stripe encode,
//! verification) inside the batched I/O core ([`iocore`]), and the epoch
//! scheduler ([`epoch`]) applies rack-confined state mutation on per-rack
//! shards whose clock domains never interact, merging completion times
//! with a deterministic max-join. Order-sensitive ops (kills, anything
//! under active repair) are epoch barriers and run on the monolithic path.
//!
//! The crate is driven by a deterministic trace-driven load generator
//! ([`loadgen`], Zipf object popularity seeded via `mlec-runner` seed
//! streams) with mid-trace failure injection, and measured with streaming
//! p50/p99/p999 [`histogram::LatencyHistogram`]s — the
//! rebuild-vs-foreground tail-latency scenario of Rashmi et al.'s
//! Facebook-warehouse study, made concrete. `mlec run store_bench` is the
//! registry entry point.

#![cfg_attr(
    not(test),
    warn(clippy::indexing_slicing, clippy::unwrap_used, clippy::expect_used)
)]

pub mod arbiter;
pub mod backend;
pub mod benchrun;
pub mod cache;
pub mod epoch;
pub mod histogram;
pub mod iocore;
pub mod loadgen;
pub mod oplog;
pub mod repair;
pub mod store;

pub use arbiter::{Lane, ShardedArbiter};
pub use backend::{ChunkBackend, ChunkKey, FileBackend, MemBackend};
pub use benchrun::{
    payload_for, run_store_bench, BackendChoice, BenchSpec, PhaseSummary, StoreBenchReport,
};
pub use cache::ChunkCache;
pub use histogram::LatencyHistogram;
pub use loadgen::{KillSpec, LoadGen, LoadSpec, OpKind, TraceOp};
pub use store::{GetResult, MlecStore, PutResult, StoreConfig};

use std::fmt;

/// Why a store operation failed.
#[derive(Debug)]
pub enum StoreError {
    /// `get`/`delete` of an object that was never `put` (or was deleted).
    UnknownObject(u64),
    /// Too many chunks of the object's stripe are gone: the failure
    /// exceeded the code's tolerance.
    Unrecoverable {
        /// The object whose stripe cannot be decoded.
        object: u64,
        /// Chunks still present vs. needed, for the message.
        detail: String,
    },
    /// A payload read back differs from what was written (verification).
    CorruptPayload(u64),
    /// Codec-level failure (shape mismatch, singular decode…).
    Codec(mlec_ec::EcError),
    /// File-backend I/O failure.
    Io(std::io::Error),
    /// Malformed benchmark/trace specification.
    BadSpec(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::UnknownObject(o) => write!(f, "unknown object {o}"),
            StoreError::Unrecoverable { object, detail } => {
                write!(f, "object {object} unrecoverable: {detail}")
            }
            StoreError::CorruptPayload(o) => {
                write!(f, "object {o}: read-back bytes differ from the put payload")
            }
            StoreError::Codec(e) => write!(f, "codec: {e}"),
            StoreError::Io(e) => write!(f, "backend I/O: {e}"),
            StoreError::BadSpec(s) => write!(f, "bad spec: {s}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<mlec_ec::EcError> for StoreError {
    fn from(e: mlec_ec::EcError) -> StoreError {
        StoreError::Codec(e)
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> StoreError {
        StoreError::Io(e)
    }
}
