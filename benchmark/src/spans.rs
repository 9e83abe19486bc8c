//! The span recorder of the traced run.
//!
//! Spans are recorded from the benchmark's side of each call into a layer
//! (the program itself has no spans yet), kept in memory, and written out
//! when the run ends. A disabled recorder costs one branch per call, so
//! the same driver loop serves the untraced and the traced run.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

/// One timed interval. `root` is the id of the outermost span it sits in:
/// every span of one op, trial or stripe shares it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub root: u32,
}

/// What one span name added up to.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTime {
    pub spans: u64,
    pub total_ns: u64,
    /// Total minus the time covered by child spans.
    pub self_ns: u64,
}

#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    counts: BTreeMap<&'static str, u64>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let id = self.spans.len() as u32;
        let (parent, root) = match self.open.last() {
            Some(&p) => (p, self.spans[p as usize].root),
            None => (NO_PARENT, id),
        };
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            root,
        });
        self.open.push(id);
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        self.exit_as(None);
    }

    /// Close the innermost open span under another name, for calls whose
    /// kind is only known from what they return (a get that turned out
    /// degraded).
    pub fn exit_as(&mut self, name: Option<&'static str>) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        let id = self.open.pop().expect("exit without a matching enter");
        let span = &mut self.spans[id as usize];
        span.end_ns = end_ns;
        if let Some(name) = name {
            span.name = name;
        }
    }

    /// Time one call as a span.
    pub fn span<R>(&mut self, name: &'static str, call: impl FnOnce() -> R) -> R {
        self.enter(name);
        let out = call();
        self.exit();
        out
    }

    /// Add to a named count, taken at the same boundary as the spans.
    pub fn count(&mut self, name: &'static str, n: u64) {
        if self.enabled {
            *self.counts.entry(name).or_default() += n;
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn counts(&self) -> &BTreeMap<&'static str, u64> {
        &self.counts
    }

    /// Total and self time per span name.
    pub fn layer_times(&self) -> BTreeMap<&'static str, LayerTime> {
        layer_times(&self.spans)
    }

    /// Durations of every span called `name`, in nanoseconds.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }

    /// The trace as JSON: a name table, then one
    /// `[name, start_ns, end_ns, parent, root]` row per span (parent is -1
    /// for an outermost span), then the counts.
    pub fn to_json(&self) -> String {
        let mut names: Vec<&'static str> = self.spans.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        let index: BTreeMap<&str, usize> = names.iter().enumerate().map(|(i, n)| (*n, i)).collect();
        let mut out = String::with_capacity(32 + self.spans.len() * 40);
        out.push_str("{\"names\":[");
        for (i, n) in names.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{n}\"");
        }
        out.push_str(
            "],\n\"columns\":[\"name\",\"start_ns\",\"end_ns\",\"parent\",\"root\"],\n\"spans\":[",
        );
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            };
            let _ = write!(
                out,
                "[{},{},{},{},{}]",
                index[s.name], s.start_ns, s.end_ns, parent, s.root
            );
        }
        out.push_str("],\n\"counts\":{");
        for (i, (k, v)) in self.counts.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{k}\":{v}");
        }
        out.push_str("}}\n");
        out
    }
}

/// Self time of a span is its duration minus its children's durations;
/// children never overlap because one thread records them in call order.
pub fn layer_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            child_ns[s.parent as usize] += s.end_ns - s.start_ns;
        }
    }
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for (s, children) in spans.iter().zip(child_ns) {
        let total = s.end_ns - s.start_ns;
        let layer = out.entry(s.name).or_default();
        layer.spans += 1;
        layer.total_ns += total;
        layer.self_ns += total.saturating_sub(children);
    }
    out
}
