//! The workspace's one wall clock.
//!
//! Every fixed-seed result is bit-identical because nothing on a result
//! path reads real time: the root `clippy.toml` bans `Instant` and
//! `SystemTime` in every member, and this module is the one place that
//! lifts the ban. What it measures is reporting only — Fig 11's kernel
//! throughput, manifest `elapsed_s`/`trials_per_sec`, `store_bench
//! timing=1` and the micro bench rows — never an artifact, a golden or an
//! op log.
#![expect(
    clippy::disallowed_types,
    reason = "the workspace's one wall-clock surface; its readings are reporting only"
)]

use std::time::Instant;

/// A started wall-clock timer.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    started: Instant,
}

impl Stopwatch {
    /// Start timing now.
    pub fn start() -> Stopwatch {
        Stopwatch {
            started: Instant::now(),
        }
    }

    /// Seconds elapsed since [`Stopwatch::start`].
    pub fn elapsed_s(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elapsed_is_monotone_nonnegative() {
        let sw = Stopwatch::start();
        let a = sw.elapsed_s();
        let b = sw.elapsed_s();
        assert!(a >= 0.0);
        assert!(b >= a);
    }
}
