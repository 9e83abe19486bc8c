//! The trace-driven benchmark loop: windowed prepare, epoch-sharded or
//! serial apply, per-phase tail-latency accounting.
//!
//! The trace runs through one *in-flight window* at a time: a run of
//! consecutive ops that closes at `batch` ops or once its prepared bytes
//! (put grids plus sampled-get expected buffers) reach a fixed budget,
//! whichever comes first, so the driver never holds more than about one
//! budget of coded stripes whatever `batch` is. A window's ops are
//! *prepared* in parallel ([`crate::iocore`]): put payloads are
//! synthesized and erasure-encoded, expected read-back bytes regenerated
//! for verification — all pure functions of `(object, version)` via seed
//! streams, so no payload is ever stored twice. The ops are then *applied*
//! against the store, which advances virtual time, pumps the repair
//! scheduler, and yields one latency sample per op. Where windows are cut
//! changes no result: a window boundary is an epoch flush.
//!
//! Apply has two interchangeable engines, selected by `shards=`:
//!
//! * `shards == 0` — the monolithic reference path: every op runs in
//!   strict trace order through the store's full-stripe methods. This is
//!   the oracle the equivalence tests compare against.
//! * `shards >= 1` — the epoch scheduler ([`crate::epoch`]): a serial
//!   walk commits version bookkeeping and decomposes each clean op into
//!   per-rack row sub-ops; rack queues apply on `shards` clock-domain
//!   shards and completion times max-join back per op. Kills and any op
//!   during active repair (or a read of a repair-abandoned object) are
//!   barriers: queues flush, then the op runs on the monolithic path.
//!   Op logs and histograms are byte-identical to `shards == 0` for
//!   every `(shards, threads)` combination.
//!
//! Phases split at the failure injection: `steady` before the kill,
//! `rebuild` from the kill until the last queued stripe is rebuilt,
//! `recovered` after — the rebuild-vs-foreground interference measurement
//! is the comparison of the `rebuild` histogram against `steady`.

use crate::backend::{ChunkBackend, FileBackend, MemBackend};
use crate::epoch::{EpochQueues, SubAction, SubOp};
use crate::histogram::LatencyHistogram;
use crate::iocore::{batches, par_chunks_mut};
use crate::loadgen::{KillSpec, LoadGen, LoadSpec, OpKind, TraceOp};
use crate::oplog::{OpLog, OpRecord};
use crate::store::{MlecStore, StoreConfig};
use crate::StoreError;
use mlec_ec::mlec::MlecStripe;
use mlec_runner::{impl_to_json, SeedStream, SplitMix64};
use std::collections::BTreeMap;
use std::path::PathBuf;

/// Which chunk backend the benchmark runs against.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BackendChoice {
    /// In-memory chunks (default: byte movement without filesystem noise).
    Mem,
    /// One directory per rack of one-file-per-chunk storage, under the
    /// given root.
    File(PathBuf),
}

/// Full benchmark specification.
#[derive(Debug, Clone)]
pub struct BenchSpec {
    /// Store deployment and environment.
    pub store: StoreConfig,
    /// Workload shape.
    pub load: LoadSpec,
    /// Optional mid-trace failure injection.
    pub kill: Option<KillSpec>,
    /// Prepare-phase threads (never affects results, only speed).
    pub threads: usize,
    /// Apply-phase rack shards: 0 for the monolithic serial reference
    /// path, `n >= 1` for the epoch scheduler with `n` clock-domain
    /// shards (never affects results, only speed).
    pub shards: usize,
    /// Most ops in one in-flight window: a window closes at `batch` ops or
    /// at the driver's prepared-bytes budget, whichever comes first (never
    /// affects results, only speed and memory).
    pub batch: usize,
    /// Verify read-back bytes on every op whose index is a multiple of
    /// this (0 disables inline verification; the final sweep always runs).
    pub verify_every: u64,
    /// Root seed for trace, payload, and placement derivation.
    pub seed: u64,
    /// Chunk backend.
    pub backend: BackendChoice,
    /// Optional JSONL op-log path.
    pub oplog: Option<PathBuf>,
    /// Optional external trace to replay instead of synthesizing.
    pub trace_text: Option<String>,
    /// Measure wall-clock replay throughput (reporting only; never part
    /// of deterministic artifacts).
    pub timing: bool,
}

impl BenchSpec {
    /// A small deterministic benchmark of `ops` operations.
    pub fn small(ops: u64) -> BenchSpec {
        BenchSpec {
            store: StoreConfig::small_test(),
            load: LoadSpec {
                ops,
                objects: 256,
                zipf_s: 1.0,
                put_pct: 10,
                delete_pct: 0,
                ops_per_sec: 50_000,
            },
            kill: None,
            threads: 1,
            shards: 0,
            batch: 1024,
            verify_every: 16,
            seed: 42,
            backend: BackendChoice::Mem,
            oplog: None,
            trace_text: None,
            timing: false,
        }
    }
}

/// Latency summary of one phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseSummary {
    /// `steady`, `rebuild`, or `recovered`.
    pub phase: &'static str,
    /// Ops completed in the phase.
    pub count: u64,
    /// Mean latency, µs.
    pub mean_us: f64,
    /// Median latency, µs.
    pub p50_us: u64,
    /// 99th percentile latency, µs.
    pub p99_us: u64,
    /// 99.9th percentile latency, µs.
    pub p999_us: u64,
    /// Worst latency, µs.
    pub max_us: u64,
}

impl_to_json!(PhaseSummary {
    phase,
    count,
    mean_us,
    p50_us,
    p99_us,
    p999_us,
    max_us,
});

/// Everything a benchmark run measured.
#[derive(Debug, Clone, PartialEq)]
pub struct StoreBenchReport {
    /// Trace ops replayed.
    pub ops: u64,
    /// Puts applied.
    pub puts: u64,
    /// Gets applied (including misses).
    pub gets: u64,
    /// Deletes applied (including misses).
    pub deletes: u64,
    /// Gets/deletes of objects that did not exist at that point.
    pub misses: u64,
    /// Reads that decoded instead of reading directly.
    pub degraded_reads: u64,
    /// Reads that exceeded the code's tolerance.
    pub failed_gets: u64,
    /// Inline read-back verifications that passed.
    pub verified_inline: u64,
    /// Final-sweep verifications that passed.
    pub verified_final: u64,
    /// Per-phase latency summaries, in `steady`/`rebuild`/`recovered` order.
    pub phases: Vec<PhaseSummary>,
    /// Virtual time of the failure injection, if any.
    pub kill_time_us: Option<u64>,
    /// Chunks destroyed by the injection.
    pub lost_chunks: u64,
    /// Virtual time the rebuild finished, if damage was repaired.
    pub rebuild_done_us: Option<u64>,
    /// Stripes rebuilt.
    pub repaired_stripes: u64,
    /// Queued stripes that needed no work (overwritten or deleted).
    pub skipped_stripes: u64,
    /// Stripes beyond tolerance.
    pub unrecoverable_stripes: u64,
    /// Chunks repaired by local decode.
    pub repaired_local_chunks: u64,
    /// Chunks repaired over the network.
    pub repaired_network_chunks: u64,
    /// Chunk-cache hit rate over the run.
    pub cache_hit_rate: f64,
    /// Foreground `(ios, bytes)` through the bandwidth arbiter.
    pub foreground_ios: u64,
    /// Foreground bytes moved.
    pub foreground_bytes: u64,
    /// Repair I/Os through the arbiter.
    pub repair_ios: u64,
    /// Repair bytes moved.
    pub repair_bytes: u64,
    /// Records written to the op log (0 when not requested).
    pub oplog_records: u64,
    /// Wall-clock replay duration when `timing` was requested — reporting
    /// only, deliberately absent from deterministic comparisons.
    pub wall_secs: Option<f64>,
}

// Every field but `wall_secs`, so the `store_bench` artifact stays
// deterministic.
impl_to_json!(StoreBenchReport {
    ops,
    puts,
    gets,
    deletes,
    misses,
    degraded_reads,
    failed_gets,
    verified_inline,
    verified_final,
    phases,
    kill_time_us,
    lost_chunks,
    rebuild_done_us,
    repaired_stripes,
    skipped_stripes,
    unrecoverable_stripes,
    repaired_local_chunks,
    repaired_network_chunks,
    cache_hit_rate,
    foreground_ios,
    foreground_bytes,
    repair_ios,
    repair_bytes,
    oplog_records,
});

impl StoreBenchReport {
    /// The summary of `phase`, if any ops completed in it.
    pub fn phase(&self, name: &str) -> Option<&PhaseSummary> {
        self.phases.iter().find(|p| p.phase == name)
    }
}

/// The object payload for `(obj, version)` — a pure function, so
/// verification regenerates expected bytes instead of storing them.
pub fn payload_for(stream: &SeedStream, obj: u64, version: u64, len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(len);
    payload_into(stream, obj, version, len, &mut out);
    out
}

/// [`payload_for`] into a buffer the caller reuses.
fn payload_into(stream: &SeedStream, obj: u64, version: u64, len: usize, out: &mut Vec<u8>) {
    let mut rng = SplitMix64::new(stream.derive(&[obj, version]));
    out.clear();
    while out.len() + 8 <= len {
        out.extend_from_slice(&rng.next_u64().to_le_bytes());
    }
    while out.len() < len {
        out.push(rng.next_u64() as u8);
    }
}

/// The prepared bytes — put grids plus sampled-get expected buffers — at
/// which an in-flight window closes. A measured constant, not a parameter,
/// like the codec's `SEGMENT_BYTES` (DESIGN.md has the sweep).
const IN_FLIGHT_BYTES: usize = 4 << 20;

/// The in-flight window rule: a window closes at `batch` ops, or once its
/// prepared bytes reach [`IN_FLIGHT_BYTES`] and it holds at least `threads`
/// prepared ops, so every prepare thread still gets work.
struct Window {
    batch: usize,
    threads: usize,
}

impl Window {
    /// Whether a window of `ops` ops, `prepared` of which carry `bytes`
    /// prepared bytes between them, is closed.
    fn full(&self, ops: usize, prepared: usize, bytes: usize) -> bool {
        ops >= self.batch || (bytes >= IN_FLIGHT_BYTES && prepared >= self.threads)
    }

    /// The most puts of `grid_bytes` each that one window holds.
    fn max_puts(&self, grid_bytes: usize) -> usize {
        let by_bytes = IN_FLIGHT_BYTES.div_ceil(grid_bytes.max(1));
        self.batch.min(self.threads.max(by_bytes))
    }
}

/// One op of a window: its serially-assigned context going into the parallel
/// prepare pass, the pure prepare results coming out.
struct Prep<'p> {
    op: TraceOp,
    job: Job<'p>,
}

/// The prepare work of one op, by kind.
enum Job<'p> {
    Put {
        /// The version the put will be assigned (predicted serially).
        version: u64,
        /// The recycled grid prepare encodes its stripe into.
        grid: &'p mut MlecStripe,
    },
    Get {
        /// Version to verify against, when sampled for verification.
        verify_version: Option<u64>,
        /// The bytes that version reads back as, once prepared.
        expected: Option<Vec<u8>>,
    },
    Delete,
}

/// What one applied op measured; stitched into histograms and the op log
/// in trace order regardless of which engine produced it.
#[derive(Debug, Clone, Copy)]
struct Outcome {
    latency_us: u64,
    degraded: bool,
    chunks_read: u64,
    phase: &'static str,
}

/// Op counters shared by both apply engines.
#[derive(Default)]
struct Tally {
    puts: u64,
    gets: u64,
    deletes: u64,
    misses: u64,
    failed_gets: u64,
    verified_inline: u64,
}

/// The phase an op at `at_us` completes in, given the kill time and the
/// current rebuild completion time.
fn phase_of(kill_time_us: Option<u64>, done_at: Option<u64>, at_us: u64) -> &'static str {
    match kill_time_us {
        None => "steady",
        Some(_) => match done_at {
            Some(done) if done <= at_us => "recovered",
            _ => "rebuild",
        },
    }
}

/// Run a store benchmark to completion.
pub fn run_store_bench(spec: &BenchSpec) -> Result<StoreBenchReport, StoreError> {
    spec.load.validate()?;
    match &spec.backend {
        BackendChoice::Mem => {
            let store = MlecStore::new(spec.store, |_| Ok(MemBackend::new()))?;
            run_inner(store, spec)
        }
        BackendChoice::File(dir) => {
            let store = MlecStore::new(spec.store, |rack| {
                FileBackend::open(dir.join(format!("rack{rack:03}")))
            })?;
            run_inner(store, spec)
        }
    }
}

/// Apply one op on the monolithic path: pump repairs to its arrival time,
/// then run it in full against the store. Used for every op when
/// `shards == 0`, and for barrier ops under the epoch scheduler.
fn apply_serial_op<B: ChunkBackend>(
    store: &mut MlecStore<B>,
    prep: &Prep<'_>,
    kill_time_us: Option<u64>,
    overhead: u64,
    tally: &mut Tally,
) -> Result<Outcome, StoreError> {
    let op = prep.op;
    store.pump_repairs(op.at_us);
    let phase = phase_of(kill_time_us, store.repair().done_at(), op.at_us);
    let (latency_us, degraded, chunks_read) = match &prep.job {
        Job::Put { grid, .. } => {
            tally.puts += 1;
            let res = store.put_encoded(op.object, grid, op.at_us)?;
            (res.latency_us, false, 0)
        }
        Job::Get { expected, .. } => {
            tally.gets += 1;
            match store.get(op.object, op.at_us) {
                Ok(got) => {
                    if let Some(expected) = expected {
                        if &got.payload != expected {
                            return Err(StoreError::CorruptPayload(op.object));
                        }
                        tally.verified_inline += 1;
                    }
                    (got.latency_us, got.degraded, got.chunks_read)
                }
                Err(StoreError::UnknownObject(_)) => {
                    tally.misses += 1;
                    (overhead, false, 0)
                }
                Err(StoreError::Unrecoverable { .. }) => {
                    tally.failed_gets += 1;
                    (overhead, true, 0)
                }
                Err(other) => return Err(other),
            }
        }
        Job::Delete => {
            tally.deletes += 1;
            match store.delete(op.object, op.at_us) {
                Ok(latency) => (latency, false, 0),
                Err(StoreError::UnknownObject(_)) => {
                    tally.misses += 1;
                    (overhead, false, 0)
                }
                Err(other) => return Err(other),
            }
        }
    };
    Ok(Outcome {
        latency_us,
        degraded,
        chunks_read,
        phase,
    })
}

/// The epoch state of one prepared window: the open epoch's rack queues,
/// the ops waiting on them, and every op's resolved outcome.
struct Epoch<'a> {
    prepared: &'a [Prep<'a>],
    /// One slot per prepared op, filled exactly once.
    outcomes: Vec<Option<Outcome>>,
    queues: EpochQueues<'a>,
    /// Window slots of the ops queued in the open epoch, in queue order.
    pending: Vec<usize>,
    /// Per pending op: its start time, max-joined by the flush into its
    /// completion time.
    ends: Vec<u64>,
    /// Queued gets that carry expected bytes; they count as verified once
    /// the flush has checked them.
    pending_verified: u64,
}

impl<'a> Epoch<'a> {
    fn new(prepared: &'a [Prep<'a>], racks: usize) -> Epoch<'a> {
        Epoch {
            prepared,
            outcomes: vec![None; prepared.len()],
            queues: EpochQueues::new(racks),
            pending: Vec::new(),
            ends: Vec::new(),
            pending_verified: 0,
        }
    }

    /// Record the outcome of the op in window slot `slot`.
    fn resolve(&mut self, slot: usize, outcome: Outcome) {
        #[expect(
            clippy::indexing_slicing,
            reason = "`slot` enumerates `prepared`, and `outcomes` is sized to match."
        )]
        let resolved = &mut self.outcomes[slot];
        *resolved = Some(outcome);
    }

    /// Queue the op in window slot `slot` on the open epoch: one sub-op per
    /// row in `0..rows`, each on the rack that owns the row.
    fn queue_rows<B: ChunkBackend>(
        &mut self,
        store: &MlecStore<B>,
        slot: usize,
        rows: u32,
        start: u64,
        action: impl Fn(u32) -> SubAction<'a>,
    ) {
        #[expect(clippy::indexing_slicing, reason = "`slot` enumerates `prepared`.")]
        let obj = self.prepared[slot].op.object;
        for row in 0..rows {
            let rack = store.rack_of_row(obj, row) as usize;
            #[expect(
                clippy::indexing_slicing,
                reason = "`rack_of_row` maps into `0..racks`, the `by_rack` queue count."
            )]
            self.queues.by_rack[rack].push(SubOp {
                slot: self.pending.len() as u32,
                obj,
                row,
                start,
                action: action(row),
            });
        }
        self.ends.push(start);
        self.pending.push(slot);
    }

    /// Flush the open epoch: apply the rack queues on the shards, max-join
    /// the per-row completion times, and resolve every pending op's
    /// outcome. The phase is computed at flush time from frozen
    /// kill/rebuild state — repairs only advance on the serial path, so it
    /// is the same value the serial engine would have computed op by op.
    fn flush<B: ChunkBackend + Send>(
        &mut self,
        store: &mut MlecStore<B>,
        shards: usize,
        kill_time_us: Option<u64>,
        tally: &mut Tally,
    ) -> Result<(), StoreError> {
        if self.pending.is_empty() {
            return Ok(());
        }
        store.apply_epoch(&self.queues, shards, &mut self.ends)?;
        let done_at = store.repair().done_at();
        for (&slot, &end) in self.pending.iter().zip(&self.ends) {
            #[expect(
                clippy::indexing_slicing,
                reason = "`pending` holds window slots, and `prepared`/`outcomes` are both sized to the window."
            )]
            let op = self.prepared[slot].op;
            #[expect(clippy::indexing_slicing, reason = "as above.")]
            let resolved = &mut self.outcomes[slot];
            *resolved = Some(Outcome {
                latency_us: end - op.at_us,
                degraded: false,
                chunks_read: 0,
                phase: phase_of(kill_time_us, done_at, op.at_us),
            });
        }
        tally.verified_inline += self.pending_verified;
        self.pending_verified = 0;
        self.pending.clear();
        self.ends.clear();
        self.queues.clear();
        Ok(())
    }
}

#[allow(clippy::too_many_lines)]
fn run_inner<B: ChunkBackend + Send>(
    mut store: MlecStore<B>,
    spec: &BenchSpec,
) -> Result<StoreBenchReport, StoreError> {
    let trace_stream = SeedStream::new(spec.seed, "store/trace");
    let pay_stream = SeedStream::new(spec.seed, "store/payload");
    let gen = match &spec.trace_text {
        Some(text) => LoadGen::replay(text, &spec.load)?,
        None => LoadGen::synthetic(spec.load, trace_stream)?,
    };
    let plen = store.config().payload_bytes();
    let chunk_bytes = store.config().chunk_bytes;
    // Cloned so prepare threads can encode without touching the store.
    let codec = store.codec().clone();
    // The prepare work of one stripe, into buffers the caller recycles:
    // synthesize the payload of `(obj, version)`, encode it into `grid`.
    let encode = |obj: u64, version: u64, payload: &mut Vec<u8>, grid: &mut MlecStripe| {
        payload_into(&pay_stream, obj, version, plen, payload);
        let chunks: Vec<&[u8]> = payload.chunks(chunk_bytes).collect();
        #[expect(
            clippy::expect_used,
            reason = "the chunk split uses the codec's exact payload geometry; encode cannot reject it."
        )]
        codec
            .encode_into(&chunks, grid)
            .expect("payload length is exact by construction");
    };
    let stopwatch = spec.timing.then(mlec_runner::clock::Stopwatch::start);
    let code = store.config().code;
    let (nw, kn) = (code.network_width(), code.kn);
    let grid_bytes = nw as usize * code.local_width() as usize * chunk_bytes;
    let window = Window {
        batch: spec.batch.max(1),
        threads: spec.threads.max(1),
    };
    // Every stripe the driver encodes lands in a grid of this pool, one slot
    // per put a window can hold: the `n`-th put of a window is encoded into
    // slot `n`, in place over whatever stripe an earlier window left there.
    // So the driver never holds more than one window of stripes, and once
    // the slots are warm a run allocates no stripe memory.
    let mut pool: Vec<MlecStripe> = std::iter::repeat_with(MlecStripe::new)
        .take(window.max_puts(grid_bytes))
        .collect();

    // Pre-load every object at version 0 (uncharged: data that existed
    // before the measured window), one window of puts at a time.
    for (lo, hi) in batches(spec.load.objects, pool.len() as u64) {
        let mut encoded: Vec<(u64, &mut MlecStripe)> = (lo..hi).zip(&mut pool).collect();
        par_chunks_mut(&mut encoded, spec.threads, |mine| {
            let mut payload = Vec::with_capacity(plen);
            for (obj, grid) in mine {
                encode(*obj, 0, &mut payload, grid);
            }
        });
        for (obj, stripe) in &encoded {
            store.preload_encoded(*obj, stripe)?;
        }
    }

    let mut oplog = match &spec.oplog {
        Some(path) => Some(OpLog::create(path)?),
        None => None,
    };
    let mut hists: BTreeMap<&'static str, LatencyHistogram> = BTreeMap::new();
    let mut expected_versions: BTreeMap<u64, u64> =
        (0..spec.load.objects).map(|o| (o, 0)).collect();
    let overhead = store.config().overhead_us;
    let row_bytes = code.kl as usize * chunk_bytes;
    let racks = store.arbiter().racks();

    let mut tally = Tally::default();
    let mut kill_time_us: Option<u64> = None;
    let mut lost_chunks = 0u64;
    // While true, every op runs serially: from the kill until the damage
    // is fully repaired or abandoned, op outcomes depend on repair
    // interleaving and must follow strict trace order.
    let mut serial_window = false;

    let mut next = 0u64;
    while next < gen.len() {
        // Serial pre-pass: predict versions so prepare can be pure, hand
        // each put its grid, and close the window.
        let mut grids = pool.iter_mut();
        let mut prepared: Vec<Prep> = Vec::new();
        let (mut carrying, mut bytes) = (0usize, 0usize);
        while next < gen.len() && !window.full(prepared.len(), carrying, bytes) {
            let index = next;
            let op = gen.op(index);
            let job = match op.kind {
                OpKind::Put => {
                    // A put with no free grid closes the window before it
                    // is taken. `Window::max_puts` sized the pool so that
                    // the window is full first.
                    let Some(grid) = grids.next() else { break };
                    let version = expected_versions.get(&op.object).map_or(0, |v| v + 1);
                    expected_versions.insert(op.object, version);
                    carrying += 1;
                    bytes += grid_bytes;
                    Job::Put { version, grid }
                }
                OpKind::Get => {
                    let live = expected_versions.get(&op.object).copied();
                    let sampled = spec.verify_every > 0 && index.is_multiple_of(spec.verify_every);
                    let verify_version = if sampled { live } else { None };
                    if verify_version.is_some() {
                        carrying += 1;
                        bytes += plen;
                    }
                    Job::Get {
                        verify_version,
                        expected: None,
                    }
                }
                OpKind::Delete => {
                    expected_versions.remove(&op.object);
                    Job::Delete
                }
            };
            next += 1;
            prepared.push(Prep { op, job });
        }

        // Parallel prepare, in place: pure payload synthesis + encode.
        par_chunks_mut(&mut prepared, spec.threads, |mine| {
            let mut payload = Vec::with_capacity(plen);
            for prep in mine {
                let obj = prep.op.object;
                match &mut prep.job {
                    Job::Put { version, grid } => encode(obj, *version, &mut payload, grid),
                    Job::Get {
                        verify_version: Some(v),
                        expected,
                    } => *expected = Some(payload_for(&pay_stream, obj, *v, plen)),
                    Job::Get { .. } | Job::Delete => {}
                }
            }
        });

        // Apply: the serial walk routes clean ops into per-rack epoch
        // queues and runs barriers (and everything, when shards == 0)
        // monolithically in trace order.
        let n = prepared.len();
        let mut epoch = Epoch::new(&prepared, racks);

        for (slot, prep) in prepared.iter().enumerate() {
            let op = prep.op;
            // A kill is a forced epoch boundary: flush so the disk index
            // reflects every earlier write, then inject.
            if kill_time_us.is_none() {
                if let Some(kill) = &spec.kill {
                    if kill.at_op == op.index {
                        epoch.flush(&mut store, spec.shards, kill_time_us, &mut tally)?;
                        lost_chunks = inject_kill(&mut store, kill, op.at_us);
                        kill_time_us = Some(op.at_us);
                        serial_window = true;
                    }
                }
            }
            let barrier = spec.shards == 0
                || serial_window
                || (matches!(op.kind, OpKind::Get) && store.is_dead(op.object));
            if barrier {
                epoch.flush(&mut store, spec.shards, kill_time_us, &mut tally)?;
                let outcome =
                    apply_serial_op(&mut store, prep, kill_time_us, overhead, &mut tally)?;
                epoch.resolve(slot, outcome);
                if serial_window && store.repair().pending() == 0 && store.lost_chunks() == 0 {
                    serial_window = false;
                }
                continue;
            }

            // Rack-decomposable: commit bookkeeping now (the serial walk
            // is the single source of routing truth), queue row sub-ops.
            let start = op.at_us + overhead;
            // A get or delete of an object that does not exist costs the
            // software overhead only and queues nothing.
            let miss = Outcome {
                latency_us: overhead,
                degraded: false,
                chunks_read: 0,
                phase: phase_of(kill_time_us, store.repair().done_at(), op.at_us),
            };
            match &prep.job {
                Job::Put { grid, .. } => {
                    tally.puts += 1;
                    store.commit_put_version(op.object);
                    epoch.queue_rows(&store, slot, nw, start, |row| {
                        #[expect(
                            clippy::indexing_slicing,
                            reason = "`row < nw`, the stripe's row count."
                        )]
                        SubAction::Put(&grid[row as usize])
                    });
                }
                Job::Get { expected, .. } => {
                    tally.gets += 1;
                    if !store.exists(op.object) {
                        tally.misses += 1;
                        epoch.resolve(slot, miss);
                        continue;
                    }
                    if expected.is_some() {
                        epoch.pending_verified += 1;
                    }
                    #[expect(
                        clippy::indexing_slicing,
                        reason = "the expected buffer spans `kn * row_bytes` by construction, covering every row slice."
                    )]
                    epoch.queue_rows(&store, slot, kn, start, |row| SubAction::Get {
                        verify: expected
                            .as_ref()
                            .map(|e| &e[row as usize * row_bytes..(row as usize + 1) * row_bytes]),
                    });
                }
                Job::Delete => {
                    tally.deletes += 1;
                    if !store.commit_delete(op.object) {
                        tally.misses += 1;
                        epoch.resolve(slot, miss);
                        continue;
                    }
                    epoch.queue_rows(&store, slot, nw, start, |_| SubAction::Delete);
                }
            }
        }
        epoch.flush(&mut store, spec.shards, kill_time_us, &mut tally)?;
        let mut outcomes = epoch.outcomes;

        // Stitch: record histograms and the op log in trace-index order.
        let mut records: Vec<OpRecord> = Vec::with_capacity(if oplog.is_some() { n } else { 0 });
        for (slot, prep) in prepared.iter().enumerate() {
            #[expect(
                clippy::indexing_slicing,
                clippy::expect_used,
                reason = "every trace slot was filled exactly once by the replay loop above."
            )]
            let oc = outcomes[slot].take().expect("every op resolves an outcome");
            hists.entry(oc.phase).or_default().record(oc.latency_us);
            if oplog.is_some() {
                records.push(OpRecord {
                    op: prep.op.index,
                    at_us: prep.op.at_us,
                    kind: prep.op.kind,
                    object: prep.op.object,
                    latency_us: oc.latency_us,
                    degraded: oc.degraded,
                    chunks_read: oc.chunks_read,
                    phase: oc.phase,
                });
            }
        }
        if let Some(log) = &mut oplog {
            log.log_batch(&records, spec.threads)?;
        }
    }
    // Drain outstanding rebuilds, then verify every live object end to end
    // (repair has given up on dead ones; `unrecoverable_stripes` counts them).
    store.pump_repairs(u64::MAX);
    let end_of_time = gen
        .len()
        .saturating_mul(1_000_000 / spec.load.ops_per_sec.max(1))
        .max(store.repair().done_at().unwrap_or(0))
        + 1;
    let mut verified_final = 0u64;
    let live: Vec<(u64, u64)> = expected_versions.iter().map(|(&o, &v)| (o, v)).collect();
    for (obj, version) in live {
        if store.is_dead(obj) {
            continue;
        }
        let got = store.get(obj, end_of_time)?;
        if got.payload != payload_for(&pay_stream, obj, version, plen) {
            return Err(StoreError::CorruptPayload(obj));
        }
        verified_final += 1;
    }

    let oplog_records = match oplog {
        Some(log) => log.finish()?,
        None => 0,
    };
    let mut phases = Vec::new();
    for name in ["steady", "rebuild", "recovered"] {
        if let Some(h) = hists.get(name) {
            phases.push(PhaseSummary {
                phase: name,
                count: h.count(),
                mean_us: h.mean(),
                p50_us: h.quantile(0.5),
                p99_us: h.quantile(0.99),
                p999_us: h.quantile(0.999),
                max_us: h.max(),
            });
        }
    }
    let (foreground_ios, foreground_bytes) = store.arbiter().foreground_totals();
    let (repair_ios, repair_bytes) = store.arbiter().repair_totals();
    let (repaired_local_chunks, repaired_network_chunks) = store.repaired_chunks();
    Ok(StoreBenchReport {
        ops: gen.len(),
        puts: tally.puts,
        gets: tally.gets,
        deletes: tally.deletes,
        misses: tally.misses,
        degraded_reads: store.degraded_reads(),
        failed_gets: tally.failed_gets,
        verified_inline: tally.verified_inline,
        verified_final,
        phases,
        kill_time_us,
        lost_chunks,
        rebuild_done_us: store.repair().done_at().filter(|_| kill_time_us.is_some()),
        repaired_stripes: store.repair().repaired_stripes,
        skipped_stripes: store.repair().skipped_stripes,
        unrecoverable_stripes: store.repair().unrecoverable_stripes,
        repaired_local_chunks,
        repaired_network_chunks,
        cache_hit_rate: store.cache_hit_rate(),
        foreground_ios,
        foreground_bytes,
        repair_ios,
        repair_bytes,
        oplog_records,
        wall_secs: stopwatch.map(|sw| sw.elapsed_s()),
    })
}

/// Apply a [`KillSpec`]: whole racks first, then leading disks of the
/// first surviving rack. Returns total chunks lost.
fn inject_kill<B: ChunkBackend>(store: &mut MlecStore<B>, kill: &KillSpec, at: u64) -> u64 {
    let geometry = store.config().geometry;
    let mut lost = store.kill_racks(kill.racks, at);
    if kill.disks > 0 {
        let rack = kill.racks.min(geometry.racks.saturating_sub(1));
        let disks: Vec<u32> = geometry
            .disks_in_rack(rack)
            .take(kill.disks as usize)
            .collect();
        lost += store.kill_disks(&disks, at);
    }
    lost
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_window_closes_on_ops_or_bytes_but_feeds_every_thread() {
        let window = Window {
            batch: 1024,
            threads: 2,
        };
        // Grids a seventh of the budget: seven per window, not 1024.
        let grid = IN_FLIGHT_BYTES.div_ceil(7);
        assert_eq!(window.max_puts(grid), 7);
        assert!(!window.full(6, 6, 6 * grid));
        assert!(window.full(7, 7, 7 * grid));
        // Grids larger than the budget: still one per prepare thread.
        assert_eq!(window.max_puts(IN_FLIGHT_BYTES * 2), 2);
        assert!(!window.full(1, 1, IN_FLIGHT_BYTES * 2));
        // `batch` caps a window however little it has prepared.
        assert_eq!(Window { batch: 3, ..window }.max_puts(1), 3);
        assert!(window.full(1024, 0, 0));
    }

    #[test]
    fn steady_run_completes_and_verifies() {
        let spec = BenchSpec::small(2_000);
        let report = run_store_bench(&spec).unwrap();
        assert_eq!(report.ops, 2_000);
        assert_eq!(report.puts + report.gets + report.deletes, 2_000);
        assert_eq!(report.misses, 0);
        assert_eq!(report.degraded_reads, 0);
        assert_eq!(report.failed_gets, 0);
        assert!(report.verified_inline > 0);
        assert_eq!(report.verified_final, 256);
        assert_eq!(report.phases.len(), 1);
        assert_eq!(report.phases[0].phase, "steady");
        assert_eq!(report.phases[0].count, 2_000);
        assert!(report.phases[0].p50_us > 0);
        assert!(report.kill_time_us.is_none());
        assert!(report.rebuild_done_us.is_none());
        assert!(report.cache_hit_rate > 0.0, "Zipf reuse must hit the cache");
    }

    #[test]
    fn kill_produces_degraded_reads_and_a_rebuild() {
        let mut spec = BenchSpec::small(4_000);
        spec.kill = Some(KillSpec {
            at_op: 1_000,
            racks: 1,
            disks: 0,
        });
        let report = run_store_bench(&spec).unwrap();
        assert!(report.lost_chunks > 0);
        assert!(report.degraded_reads > 0, "reads must hit damaged stripes");
        assert_eq!(report.failed_gets, 0, "one rack is within tolerance");
        assert_eq!(report.unrecoverable_stripes, 0);
        assert!(report.rebuild_done_us.is_some(), "rebuild must finish");
        assert!(report.repaired_stripes > 0);
        assert!(report.repaired_local_chunks + report.repaired_network_chunks > 0);
        // All three phases appear and account for every op.
        let total: u64 = report.phases.iter().map(|p| p.count).sum();
        assert_eq!(total, 4_000);
        assert!(report.phase("steady").is_some());
        assert!(report.phase("rebuild").is_some());
        // Every live object still round-trips bit-exactly.
        assert_eq!(report.verified_final, 256);
    }

    #[test]
    fn kill_beyond_tolerance_completes_and_reports_the_loss() {
        // Two racks exceed p_n = 1: repair abandons some stripes, and the
        // final sweep must verify the survivors instead of aborting on the
        // first dead object.
        let mut spec = BenchSpec::small(2_000);
        spec.load.objects = 64;
        spec.kill = Some(KillSpec {
            at_op: 500,
            racks: 2,
            disks: 0,
        });
        let serial = run_store_bench(&spec).unwrap();
        assert!(serial.unrecoverable_stripes > 0);
        assert!(serial.failed_gets > 0, "gets of dead objects fail");
        assert!(serial.rebuild_done_us.is_some(), "rebuild must finish");
        // One stripe per object: every object is either dead or verified.
        assert_eq!(serial.verified_final + serial.unrecoverable_stripes, 64);
        spec.shards = 2;
        assert_eq!(run_store_bench(&spec).unwrap(), serial);
    }

    #[test]
    fn identical_specs_give_identical_reports() {
        let mut spec = BenchSpec::small(1_500);
        spec.kill = Some(KillSpec {
            at_op: 500,
            racks: 1,
            disks: 0,
        });
        let a = run_store_bench(&spec).unwrap();
        let b = run_store_bench(&spec).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn thread_count_never_changes_the_report() {
        let mut spec = BenchSpec::small(1_500);
        spec.kill = Some(KillSpec {
            at_op: 400,
            racks: 1,
            disks: 0,
        });
        spec.threads = 1;
        let single = run_store_bench(&spec).unwrap();
        spec.threads = 8;
        let multi = run_store_bench(&spec).unwrap();
        assert_eq!(single, multi);
    }

    #[test]
    fn shard_count_never_changes_the_report() {
        let mut spec = BenchSpec::small(2_500);
        spec.kill = Some(KillSpec {
            at_op: 700,
            racks: 1,
            disks: 0,
        });
        spec.shards = 0;
        let serial = run_store_bench(&spec).unwrap();
        // Far more shards than racks: clamped where the buckets are built.
        for shards in [1usize, 2, 4, 8, 100_000] {
            spec.shards = shards;
            let sharded = run_store_bench(&spec).unwrap();
            assert_eq!(serial, sharded, "shards={shards}");
        }
    }

    #[test]
    fn sharded_apply_handles_deletes_and_misses_identically() {
        let mut spec = BenchSpec::small(2_000);
        spec.load.delete_pct = 20;
        spec.shards = 0;
        let serial = run_store_bench(&spec).unwrap();
        assert!(serial.misses > 0, "gets after deletes must miss");
        spec.shards = 4;
        let sharded = run_store_bench(&spec).unwrap();
        assert_eq!(serial, sharded);
    }

    #[test]
    fn replayed_trace_matches_synthetic() {
        let spec = BenchSpec::small(800);
        let stream = SeedStream::new(spec.seed, "store/trace");
        let gen = LoadGen::synthetic(spec.load, stream).unwrap();
        let mut replay_spec = spec.clone();
        replay_spec.trace_text = Some(gen.to_trace_text());
        let a = run_store_bench(&spec).unwrap();
        let b = run_store_bench(&replay_spec).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn deletes_produce_misses_not_failures() {
        let mut spec = BenchSpec::small(2_000);
        spec.load.delete_pct = 20;
        let report = run_store_bench(&spec).unwrap();
        assert!(report.deletes > 0);
        assert!(report.misses > 0, "gets after deletes must miss");
        assert_eq!(report.failed_gets, 0);
        // Final sweep only covers still-live objects.
        assert!(report.verified_final <= 256);
    }
}
