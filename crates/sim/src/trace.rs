//! Failure traces: generation, parsing, and statistics — the "real traces"
//! input mode of the paper's fault simulation (§3). Production traces are
//! proprietary (see DESIGN.md substitutions), so this module synthesizes
//! equivalent ones: steady Poisson background failures plus correlated
//! bursts, which exercises the same trace-replay code path.
//!
//! The synthesizer draws through an unbiased [`HazardKernel`] seeded from
//! its own labeled stream: exponential gaps from
//! [`HazardKernel::sample_gap`], disk picks and burst placement from
//! [`HazardKernel::rng`].

use crate::config::HOURS_PER_YEAR;
use crate::importance::FailureBias;
use crate::kernel::HazardKernel;
use mlec_topology::burst::{sample_burst, validate, BurstError};
use mlec_topology::{DiskId, Geometry};

/// One trace record: a disk failing at an absolute time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEvent {
    /// Failure time in hours from trace start.
    pub time_h: f64,
    /// The failed disk.
    pub disk: DiskId,
}

/// A disk-failure trace, sorted by time.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FailureTrace {
    events: Vec<TraceEvent>,
}

impl FailureTrace {
    /// Build from events (sorted internally).
    pub fn new(mut events: Vec<TraceEvent>) -> FailureTrace {
        events.sort_by(|a, b| a.time_h.total_cmp(&b.time_h));
        FailureTrace { events }
    }

    /// The events, time-ascending.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of failures in the trace.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Trace duration (time of the last event), hours.
    pub fn span_h(&self) -> f64 {
        self.events.last().map_or(0.0, |e| e.time_h)
    }

    /// The trace as a kernel [`ArrivalSource`](crate::kernel::ArrivalSource)
    /// for the system simulator: `(time_h, disk)` records, with disk ids
    /// folded into `0..total_disks` so traces recorded on a larger fleet
    /// replay on a smaller one.
    pub fn arrival_source(&self, total_disks: DiskId) -> crate::kernel::ArrivalSource {
        crate::kernel::ArrivalSource::trace(
            self.events
                .iter()
                .map(|e| (e.time_h, e.disk % total_disks))
                .collect(),
        )
    }

    /// Empirical annualized failure rate per disk.
    pub fn empirical_afr(&self, geometry: &Geometry) -> f64 {
        if self.span_h() <= 0.0 {
            return 0.0;
        }
        let years = self.span_h() / HOURS_PER_YEAR;
        self.len() as f64 / geometry.total_disks() as f64 / years
    }

    /// Serialize to a simple `time_h,disk` CSV (header included).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("time_h,disk\n");
        for e in &self.events {
            out.push_str(&format!("{},{}\n", e.time_h, e.disk));
        }
        out
    }

    /// Parse the CSV form produced by [`FailureTrace::to_csv`]. Lines that
    /// fail to parse are reported as errors with their line number.
    pub fn from_csv(text: &str) -> Result<FailureTrace, TraceParseError> {
        let mut events = Vec::new();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || lineno == 0 && line.starts_with("time_h") {
                continue;
            }
            let mut parts = line.split(',');
            let time: f64 = parts
                .next()
                .ok_or(TraceParseError { line: lineno + 1 })?
                .trim()
                .parse()
                .map_err(|_| TraceParseError { line: lineno + 1 })?;
            let disk: DiskId = parts
                .next()
                .ok_or(TraceParseError { line: lineno + 1 })?
                .trim()
                .parse()
                .map_err(|_| TraceParseError { line: lineno + 1 })?;
            if parts.next().is_some() || !time.is_finite() || time < 0.0 {
                return Err(TraceParseError { line: lineno + 1 });
            }
            events.push(TraceEvent { time_h: time, disk });
        }
        Ok(FailureTrace::new(events))
    }
}

/// A CSV line that could not be parsed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceParseError {
    /// 1-based line number.
    pub line: usize,
}

impl std::fmt::Display for TraceParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "malformed trace record at line {}", self.line)
    }
}

impl std::error::Error for TraceParseError {}

/// Parameters of the synthetic trace generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceSpec {
    /// Steady background AFR (e.g. 0.01).
    pub background_afr: f64,
    /// Correlated bursts per year (e.g. 0.5).
    pub bursts_per_year: f64,
    /// Disks failed per burst.
    pub burst_size: u32,
    /// Racks each burst is concentrated in.
    pub burst_racks: u32,
    /// Trace duration in years.
    pub years: f64,
}

/// Generate a synthetic trace: Poisson background failures over all disks
/// plus Poisson-arriving correlated bursts confined to a few racks. Errors
/// (before any draw) when bursts are requested in a shape the geometry
/// cannot hold.
pub fn synthesize(
    geometry: &Geometry,
    spec: &TraceSpec,
    seed: u64,
) -> Result<FailureTrace, BurstError> {
    if spec.bursts_per_year > 0.0 {
        validate(geometry, spec.burst_size, spec.burst_racks)?;
    }
    let span_h = spec.years * HOURS_PER_YEAR;
    let mut kernel =
        HazardKernel::from_seed_stream(seed, "trace/synthesize", FailureBias::NONE, span_h);
    let mut events = Vec::new();

    // Background: thinned Poisson process over the whole fleet.
    let bg_rate = geometry.total_disks() as f64 * spec.background_afr / HOURS_PER_YEAR;
    let mut t = 0.0;
    loop {
        t += kernel.sample_gap(0, bg_rate);
        if t > span_h {
            break;
        }
        events.push(TraceEvent {
            time_h: t,
            disk: kernel.rng().gen_below(u64::from(geometry.total_disks())) as DiskId,
        });
    }

    // Bursts: pick racks, fail burst_size disks within a small window.
    let burst_rate = spec.bursts_per_year / HOURS_PER_YEAR;
    let mut t = 0.0;
    loop {
        t += kernel.sample_gap(0, burst_rate);
        if t > span_h {
            break;
        }
        let layout = sample_burst(geometry, spec.burst_size, spec.burst_racks, kernel.rng())?;
        for &disk in layout.disks() {
            // Jitter failures across a 10-minute window.
            let jitter = kernel.rng().gen_f64(0.0, 1.0 / 6.0);
            events.push(TraceEvent {
                time_h: t + jitter,
                disk,
            });
        }
    }
    Ok(FailureTrace::new(events))
}

/// Split a trace into the burst windows it contains: maximal groups of
/// events separated by less than `window_h`. Returns `(start_h, disks)` per
/// group with at least `min_size` failures — the observable bursts an
/// operator would investigate.
pub fn detect_bursts(
    trace: &FailureTrace,
    window_h: f64,
    min_size: usize,
) -> Vec<(f64, Vec<DiskId>)> {
    let mut bursts = Vec::new();
    let mut current: Vec<TraceEvent> = Vec::new();
    for &e in trace.events() {
        if let Some(last) = current.last() {
            if e.time_h - last.time_h > window_h {
                if current.len() >= min_size {
                    #[expect(
                        clippy::indexing_slicing,
                        reason = "guarded by `current.len() >= min_size` with `min_size >= 1` (a burst has at least one event)."
                    )]
                    bursts.push((current[0].time_h, current.iter().map(|x| x.disk).collect()));
                }
                current.clear();
            }
        }
        current.push(e);
    }
    if current.len() >= min_size {
        #[expect(
            clippy::indexing_slicing,
            reason = "same guard as above: `current.len() >= min_size >= 1`."
        )]
        bursts.push((current[0].time_h, current.iter().map(|x| x.disk).collect()));
    }
    bursts
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> TraceSpec {
        TraceSpec {
            background_afr: 0.02,
            bursts_per_year: 2.0,
            burst_size: 30,
            burst_racks: 2,
            years: 5.0,
        }
    }

    #[test]
    fn synthesis_matches_requested_rates() {
        let g = Geometry::paper_default();
        let trace = synthesize(&g, &spec(), 1).unwrap();
        // Background: 57,600 * 0.02 * 5 = 5,760; bursts: 2*5*30 = 300.
        let expected = 5760.0 + 300.0;
        assert!(
            (trace.len() as f64 - expected).abs() < 400.0,
            "len={}",
            trace.len()
        );
        // AFR estimate close to background + burst contribution.
        let afr = trace.empirical_afr(&g);
        assert!((afr - 0.021).abs() < 0.003, "afr={afr}");
    }

    #[test]
    fn unholdable_burst_shape_is_an_error_not_a_burst_free_trace() {
        let g = Geometry::small_test(); // 6 racks x 24 disks
        let shaped = |burst_size, burst_racks, bursts_per_year| TraceSpec {
            burst_size,
            burst_racks,
            bursts_per_year,
            years: 0.01, // too short for a burst to arrive: the shape alone decides
            ..spec()
        };
        assert!(matches!(
            synthesize(&g, &shaped(10, 7, 2.0), 1),
            Err(BurstError::TooManyRacks { available: 6, .. })
        ));
        assert!(matches!(
            synthesize(&g, &shaped(49, 2, 2.0), 1),
            Err(BurstError::RackOverflow { disks: 24, .. })
        ));
        assert!(matches!(
            synthesize(&g, &shaped(1, 2, 2.0), 1),
            Err(BurstError::TooFewFailures { .. })
        ));
        // No bursts requested: the shape is never used.
        assert!(synthesize(&g, &shaped(10, 7, 0.0), 1).is_ok());
    }

    #[test]
    fn csv_round_trip() {
        let g = Geometry::small_test();
        let trace = synthesize(
            &g,
            &TraceSpec {
                background_afr: 1.0,
                bursts_per_year: 1.0,
                burst_size: 5,
                burst_racks: 1,
                years: 1.0,
            },
            7,
        )
        .unwrap();
        let csv = trace.to_csv();
        let parsed = FailureTrace::from_csv(&csv).unwrap();
        assert_eq!(parsed, trace);
    }

    #[test]
    fn csv_rejects_malformed_lines() {
        assert!(FailureTrace::from_csv("time_h,disk\n1.0,5\nbogus\n").is_err());
        assert!(FailureTrace::from_csv("time_h,disk\n-1.0,5\n").is_err());
        assert!(FailureTrace::from_csv("time_h,disk\n1.0,5,9\n").is_err());
        let err = FailureTrace::from_csv("time_h,disk\n1.0,x\n").unwrap_err();
        assert_eq!(err.line, 2);
    }

    #[test]
    fn events_are_time_sorted() {
        let trace = FailureTrace::new(vec![
            TraceEvent {
                time_h: 5.0,
                disk: 1,
            },
            TraceEvent {
                time_h: 1.0,
                disk: 2,
            },
        ]);
        assert_eq!(trace.events()[0].disk, 2);
        assert!((trace.span_h() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn burst_detection_finds_injected_bursts() {
        let g = Geometry::paper_default();
        let trace = synthesize(&g, &spec(), 3).unwrap();
        let bursts = detect_bursts(&trace, 0.5, 10);
        // ~10 bursts injected over 5 years at 2/year.
        assert!(
            (3..=20).contains(&bursts.len()),
            "detected {} bursts",
            bursts.len()
        );
        for (_, disks) in &bursts {
            assert!(disks.len() >= 10);
        }
    }

    #[test]
    fn empty_trace_statistics() {
        let g = Geometry::small_test();
        let trace = FailureTrace::default();
        assert!(trace.is_empty());
        assert_eq!(trace.empirical_afr(&g), 0.0);
        assert!(detect_bursts(&trace, 1.0, 1).is_empty());
    }
}
