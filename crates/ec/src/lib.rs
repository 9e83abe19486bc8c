//! `mlec-ec`: the erasure-coding layer of the MLEC analysis suite.
//!
//! This crate implements, from scratch on top of [`mlec_gf`]:
//!
//! - [`rs`]: systematic Reed–Solomon codes for any `(k + p)` with
//!   `k + p <= 256`, built from an extended-Vandermonde generator so any `k`
//!   of the `k + p` shards reconstruct the data (the MDS property).
//! - [`lrc`]: Azure-style `(k, l, r)` Locally Repairable Codes (paper §5.2,
//!   Fig. 14): `l` XOR local groups plus `r` Reed–Solomon global parities,
//!   with an exact rank-based decodability test.
//! - [`mlec`]: the two-level MLEC codec `(k_n + p_n) / (k_l + p_l)` (paper
//!   §2.1, Fig. 2c) which composes a network-level RS code over local-level
//!   RS stripes on real bytes.
//! - [`scheme`]: code-parameter descriptors with capacity-overhead and
//!   failure-tolerance math, used by the durability/throughput tradeoff
//!   analysis (paper Fig. 12 and 15).
//! - [`throughput`]: single-core encoding throughput measurement, the
//!   substitute for the paper's Intel ISA-L measurement (Fig. 11).
//!
//! # Example: repair a lost chunk
//!
//! ```
//! use mlec_ec::rs::ReedSolomon;
//!
//! let rs = ReedSolomon::new(4, 2).unwrap();
//! let data: Vec<Vec<u8>> = (0..4).map(|i| vec![i as u8 * 17; 64]).collect();
//! let mut shards: Vec<Option<Vec<u8>>> =
//!     rs.encode(&data).unwrap().into_iter().map(Some).collect();
//! shards[1] = None; // lose a data chunk
//! shards[4] = None; // and a parity chunk
//! rs.reconstruct(&mut shards).unwrap();
//! assert_eq!(shards[1].as_deref(), Some(&data[1][..]));
//! ```

pub mod lrc;
pub mod mlec;
pub mod rs;
pub mod scheme;
pub mod throughput;

pub use lrc::Lrc;
pub use mlec::{MlecCodec, ReadSet};
pub use rs::ReedSolomon;
pub use scheme::{EcScheme, LrcParams, MlecParams, SlecParams};

/// Errors produced by the codecs in this crate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EcError {
    /// Parameters are out of the representable range (e.g. `k + p > 256`).
    InvalidParameters(String),
    /// Shard vectors passed to encode/reconstruct have inconsistent shapes.
    ShapeMismatch(String),
    /// More shards are missing than the code can tolerate.
    TooManyErasures { present: usize, needed: usize },
}

impl std::fmt::Display for EcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EcError::InvalidParameters(msg) => write!(f, "invalid parameters: {msg}"),
            EcError::ShapeMismatch(msg) => write!(f, "shape mismatch: {msg}"),
            EcError::TooManyErasures { present, needed } => write!(
                f,
                "too many erasures: only {present} shards present, {needed} needed"
            ),
        }
    }
}

impl std::error::Error for EcError {}
