//! Deterministic trace-driven load generation.
//!
//! The generator is a *pure function of the op index*: op `i`'s arrival
//! time, kind, and target object are all derived from
//! [`mlec_runner::SeedStream`] words keyed by `i`, never from mutable
//! generator state. That is what lets the batched I/O core synthesize ops
//! on any number of threads in any order and still produce the same trace
//! — and what makes a trace trivially resumable from any index.
//!
//! Object popularity follows a Zipf(`s`) distribution over `objects` ids
//! (drawn by binary search over precomputed cumulative weights), the
//! classic skew for datacenter object traffic; the put/delete mix is a
//! percentage split of the uniform kind draw. Traces can also be replayed
//! from a text file (one `put|get|del <object>` per line), in which case
//! arrival times are re-spaced at the configured rate.

use crate::StoreError;
use mlec_runner::SeedStream;

/// What a trace op does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Write (or overwrite) a whole object.
    Put,
    /// Read a whole object.
    Get,
    /// Remove an object.
    Delete,
}

/// One operation of the trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceOp {
    /// Index in the trace.
    pub index: u64,
    /// Virtual arrival time, µs from trace start.
    pub at_us: u64,
    /// Operation kind.
    pub kind: OpKind,
    /// Target object id in `[0, objects)`.
    pub object: u64,
}

/// Shape of the synthetic workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadSpec {
    /// Total trace operations.
    pub ops: u64,
    /// Distinct objects (all pre-loaded before the trace runs).
    pub objects: u64,
    /// Zipf exponent of object popularity (0 = uniform).
    pub zipf_s: f64,
    /// Percent of ops that are puts.
    pub put_pct: u32,
    /// Percent of ops that are deletes (the rest are gets).
    pub delete_pct: u32,
    /// Virtual arrival rate, ops per second.
    pub ops_per_sec: u64,
}

impl LoadSpec {
    /// Validate the percentages and rates.
    pub fn validate(&self) -> Result<(), StoreError> {
        // Checked: a wrapping sum would pass `u32::MAX + 1` as 0.
        if self
            .put_pct
            .checked_add(self.delete_pct)
            .is_none_or(|mix| mix > 100)
        {
            return Err(StoreError::BadSpec(format!(
                "put_pct {} + delete_pct {} exceeds 100",
                self.put_pct, self.delete_pct
            )));
        }
        if self.objects == 0 {
            return Err(StoreError::BadSpec("objects must be > 0".into()));
        }
        if self.ops_per_sec == 0 {
            return Err(StoreError::BadSpec("ops_per_sec must be > 0".into()));
        }
        Ok(())
    }
}

/// A realized trace source: synthetic (index-pure) or replayed.
#[derive(Debug, Clone)]
pub enum LoadGen {
    /// Ops derived on demand from the spec and a seed stream.
    Synthetic {
        /// Workload shape.
        spec: LoadSpec,
        /// Seed stream the per-op draws derive from.
        stream: SeedStream,
        /// Normalized cumulative Zipf weights over object ids.
        cum_weights: Vec<f64>,
    },
    /// Ops parsed from an external trace file.
    Replay(Vec<TraceOp>),
}

impl LoadGen {
    /// Synthetic generator for `spec`, drawing from `stream`.
    pub fn synthetic(spec: LoadSpec, stream: SeedStream) -> Result<LoadGen, StoreError> {
        spec.validate()?;
        let mut cum_weights = Vec::with_capacity(spec.objects as usize);
        let mut total = 0.0f64;
        for i in 0..spec.objects {
            total += (i as f64 + 1.0).powf(-spec.zipf_s);
            cum_weights.push(total);
        }
        for w in &mut cum_weights {
            *w /= total;
        }
        Ok(LoadGen::Synthetic {
            spec,
            stream,
            cum_weights,
        })
    }

    /// Parse a trace file: one `put|get|del <object>` per line; `#` starts
    /// a comment; blank lines are skipped. Arrival times are spaced at
    /// `ops_per_sec`; objects must be below `objects` so the pre-load
    /// covers them.
    pub fn replay(text: &str, spec: &LoadSpec) -> Result<LoadGen, StoreError> {
        spec.validate()?;
        let mut ops = Vec::new();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let mut parts = line.split_whitespace();
            let verb = parts.next().unwrap_or("");
            let kind = match verb {
                "put" => OpKind::Put,
                "get" => OpKind::Get,
                "del" | "delete" => OpKind::Delete,
                other => {
                    return Err(StoreError::BadSpec(format!(
                        "trace line {}: unknown op `{other}`",
                        lineno + 1
                    )))
                }
            };
            let object = parts
                .next()
                .and_then(|s| s.parse::<u64>().ok())
                .ok_or_else(|| {
                    StoreError::BadSpec(format!(
                        "trace line {}: missing/invalid object id",
                        lineno + 1
                    ))
                })?;
            if object >= spec.objects {
                return Err(StoreError::BadSpec(format!(
                    "trace line {}: object {object} >= objects {}",
                    lineno + 1,
                    spec.objects
                )));
            }
            let index = ops.len() as u64;
            ops.push(TraceOp {
                index,
                at_us: index * 1_000_000 / spec.ops_per_sec,
                kind,
                object,
            });
        }
        Ok(LoadGen::Replay(ops))
    }

    /// Number of ops in the trace.
    pub fn len(&self) -> u64 {
        match self {
            LoadGen::Synthetic { spec, .. } => spec.ops,
            LoadGen::Replay(ops) => ops.len() as u64,
        }
    }

    /// Is the trace empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Op `index` of the trace — a pure function, callable from any thread
    /// in any order.
    ///
    /// # Panics
    /// Panics if `index >= len()`.
    pub fn op(&self, index: u64) -> TraceOp {
        match self {
            LoadGen::Synthetic {
                spec,
                stream,
                cum_weights,
            } => {
                assert!(index < spec.ops, "op index out of range");
                let kind_draw = stream.derive(&[index, 0]) % 100;
                let kind = if kind_draw < u64::from(spec.put_pct) {
                    OpKind::Put
                } else if kind_draw < u64::from(spec.put_pct + spec.delete_pct) {
                    OpKind::Delete
                } else {
                    OpKind::Get
                };
                let u = to_unit(stream.derive(&[index, 1]));
                let object = cum_weights.partition_point(|&w| w < u) as u64;
                TraceOp {
                    index,
                    at_us: index * 1_000_000 / spec.ops_per_sec,
                    kind,
                    object: object.min(spec.objects - 1),
                }
            }
            #[expect(
                clippy::indexing_slicing,
                reason = "replay traces are generated with `index < ops.len()` (the spec's op count)."
            )]
            LoadGen::Replay(ops) => ops[index as usize],
        }
    }

    /// Render the whole trace in the replay file format.
    pub fn to_trace_text(&self) -> String {
        let mut out = String::new();
        for i in 0..self.len() {
            let op = self.op(i);
            let verb = match op.kind {
                OpKind::Put => "put",
                OpKind::Get => "get",
                OpKind::Delete => "del",
            };
            out.push_str(verb);
            out.push(' ');
            out.push_str(&op.object.to_string());
            out.push('\n');
        }
        out
    }
}

/// Mid-trace failure injection: at op `at_op`, kill the first `racks`
/// racks and (separately) `disks` leading disks of the first surviving
/// rack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KillSpec {
    /// Trace index at which the failure strikes (before the op runs).
    pub at_op: u64,
    /// Whole racks to kill (ids `0..racks`).
    pub racks: u32,
    /// Additional single disks to kill in the first surviving rack.
    pub disks: u32,
}

/// Map a uniform `u64` to `[0, 1)` with 53-bit precision.
fn to_unit(word: u64) -> f64 {
    (word >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> LoadSpec {
        LoadSpec {
            ops: 10_000,
            objects: 64,
            zipf_s: 1.0,
            put_pct: 10,
            delete_pct: 0,
            ops_per_sec: 50_000,
        }
    }

    fn gen() -> LoadGen {
        LoadGen::synthetic(spec(), SeedStream::new(42, "store/trace")).unwrap()
    }

    #[test]
    fn ops_are_pure_functions_of_index() {
        let g = gen();
        let forward: Vec<TraceOp> = (0..g.len()).map(|i| g.op(i)).collect();
        // Any order, same values.
        for &i in &[9_999u64, 0, 5_000, 1] {
            assert_eq!(g.op(i), forward[i as usize]);
        }
        // Arrival times are evenly spaced at the configured rate.
        assert_eq!(forward[0].at_us, 0);
        assert_eq!(forward[1].at_us, 20);
        assert_eq!(forward[5_000].at_us, 100_000);
    }

    #[test]
    fn zipf_skews_toward_low_ids() {
        let g = gen();
        let mut counts = vec![0u64; 64];
        for i in 0..g.len() {
            counts[g.op(i).object as usize] += 1;
        }
        // Object 0 must dominate the tail object under s=1.0 skew.
        assert!(counts[0] > 10 * counts[63].max(1), "counts: {counts:?}");
        // Every object id stays in range (implicitly, via the index).
        assert_eq!(counts.iter().sum::<u64>(), g.len());
    }

    #[test]
    fn put_ratio_close_to_requested() {
        let g = gen();
        let puts = (0..g.len())
            .filter(|&i| g.op(i).kind == OpKind::Put)
            .count() as f64;
        let frac = puts / g.len() as f64;
        assert!((frac - 0.10).abs() < 0.02, "put fraction {frac}");
    }

    #[test]
    fn replay_round_trips_through_text() {
        let g = gen();
        let text = g.to_trace_text();
        let r = LoadGen::replay(&text, &spec()).unwrap();
        assert_eq!(r.len(), g.len());
        for i in 0..g.len() {
            assert_eq!(r.op(i), g.op(i));
        }
    }

    #[test]
    fn replay_rejects_garbage() {
        let s = spec();
        assert!(LoadGen::replay("frob 3\n", &s).is_err());
        assert!(LoadGen::replay("get notanumber\n", &s).is_err());
        assert!(LoadGen::replay("get 9999\n", &s).is_err());
        // Comments and blanks are fine.
        let ok = LoadGen::replay("# header\n\nget 3 # hot object\n", &s).unwrap();
        assert_eq!(ok.len(), 1);
        assert_eq!(ok.op(0).object, 3);
    }

    #[test]
    fn bad_specs_are_rejected() {
        let mut s = spec();
        s.put_pct = 80;
        s.delete_pct = 30;
        assert!(s.validate().is_err());
        let mut s = spec();
        s.put_pct = u32::MAX;
        s.delete_pct = 1;
        assert!(s.validate().is_err(), "the mix must not wrap to 0");
        let mut s = spec();
        s.objects = 0;
        assert!(s.validate().is_err());
        let mut s = spec();
        s.ops_per_sec = 0;
        assert!(s.validate().is_err());
    }
}
