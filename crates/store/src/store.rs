//! The object store proper: put/get/degraded-get/delete over the
//! two-level codec, with failure injection and online repair.
//!
//! One object occupies exactly one network stripe (object id == network
//! stripe index), placed by the deterministic
//! [`mlec_topology::objectmap::ObjectMapper`] and stored chunk-by-chunk in
//! a pluggable [`crate::backend::ChunkBackend`]. Every byte moved charges
//! the [`crate::arbiter::ShardedArbiter`]'s virtual clocks, so op
//! latencies are a pure function of the op sequence — never of threads,
//! backend speed, or wall time.
//!
//! The mutable state is partitioned along rack boundaries. Placement puts
//! every column of a stripe row inside one rack (the local stripe is
//! rack-local by construction, for every placement scheme), so a row is
//! the natural unit of rack-confined work: all of its backend chunks, its
//! cache entries, its disk clocks, and its uplink clock live in that
//! rack's `RackLane` + `RackClock` pair, borrowed together as a `RackCtx`.
//! Its `read` and `write` are the one chunk path: every chunk a get,
//! degraded get, rebuild or put moves goes through them. The row helpers
//! built on them are driven row by row by the monolithic
//! `put`/`get`/`delete` methods and from per-rack shard queues by the
//! epoch executor ([`crate::epoch`]), which is what makes the parallel
//! apply bit-identical to the serial one.
//!
//! Failure model: killing a disk (or a whole rack) *loses* its chunks —
//! they are removed from the backend and tracked in a `lost` set — and the
//! disk is immediately replaced by an empty spare with the same id, so
//! later writes land normally. Reads of a damaged stripe take a degraded
//! path the codec plans ([`MlecCodec::read_set`]): each lost data chunk
//! decodes within its row when the row is locally recoverable (cheap,
//! rack-local), else down its column over the network, and the store
//! fetches exactly the survivors the plan names. Affected stripes are
//! queued on the [`crate::repair::RepairScheduler`] and rebuilt in the
//! background from the same planner and fetch loop, competing with
//! foreground traffic for the same bandwidth.
//! Repair and degraded reads are inherently cross-rack (decode fan-in), so
//! they stay on the monolithic single-threaded paths — the epoch scheduler
//! treats them as barriers.

use crate::arbiter::{Lane, RackClock, RateCard, ShardedArbiter};
use crate::backend::{chunk_key, key_parts, ChunkBackend, ChunkKey};
use crate::cache::ChunkCache;
use crate::repair::RepairScheduler;
use crate::StoreError;
use mlec_ec::mlec::{MlecStripe, ReadSet};
use mlec_ec::MlecCodec;
use mlec_sim::SimConfig;
use mlec_topology::objectmap::{MapperCode, ObjectMapper};
use mlec_topology::{DiskId, Geometry, MlecScheme, RackId};
use std::collections::{BTreeMap, BTreeSet};

/// A chunk's `(row, col)` in its stripe's grid, as the codec plans reads.
type Cell = (usize, usize);

/// Everything that shapes a store instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StoreConfig {
    /// Physical shape of the deployment.
    pub geometry: Geometry,
    /// `(k_n + p_n) / (k_l + p_l)` code parameters.
    pub code: MapperCode,
    /// Placement scheme for both levels.
    pub scheme: MlecScheme,
    /// §3 bandwidth/throttle environment shared with the simulators.
    pub sim: SimConfig,
    /// Chunk payload size in bytes.
    pub chunk_bytes: usize,
    /// Total LRU cache capacity in chunks, divided evenly across the
    /// per-rack cache shards (0 disables caching).
    pub cache_chunks: usize,
    /// Per-I/O disk positioning cost, µs.
    pub seek_us: u64,
    /// Fixed software overhead added to every op, µs.
    pub overhead_us: u64,
    /// Failure detection delay before repair may start, µs (the
    /// store-scale analogue of the paper's 30-minute window).
    pub detect_us: u64,
    /// Concurrent rebuild streams.
    pub repair_streams: u32,
    /// Seed of the deterministic declustered placement.
    pub placement_seed: u64,
}

impl StoreConfig {
    /// A small fast deployment for benchmarks and tests: 864 disks
    /// (6 racks × 2 × 12), a `(2+1)/(4+2)` code, declustered at both
    /// levels, 4 KiB chunks.
    pub fn small_test() -> StoreConfig {
        StoreConfig {
            geometry: Geometry::small_test(),
            code: MapperCode {
                kn: 2,
                pn: 1,
                kl: 4,
                pl: 2,
            },
            scheme: MlecScheme::DD,
            sim: SimConfig::paper_default(),
            chunk_bytes: 4096,
            cache_chunks: 4096,
            seek_us: 400,
            overhead_us: 50,
            detect_us: 200_000,
            repair_streams: 4,
            placement_seed: 0x510e,
        }
    }

    /// Bytes of data per object (`k_n * k_l * chunk_bytes`).
    pub fn payload_bytes(&self) -> usize {
        self.code.kn as usize * self.code.kl as usize * self.chunk_bytes
    }
}

/// Outcome of a put.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PutResult {
    /// Version written (0 for the first put of an object).
    pub version: u64,
    /// Virtual completion latency, µs.
    pub latency_us: u64,
}

/// Outcome of a get.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GetResult {
    /// The object's bytes.
    pub payload: Vec<u8>,
    /// Virtual completion latency, µs.
    pub latency_us: u64,
    /// Whether any chunk had to be decoded rather than read.
    pub degraded: bool,
    /// Surviving chunks fetched beyond the object's own present data
    /// chunks (0 for a healthy read).
    pub chunks_read: u64,
}

/// One rack's share of the store state: its chunks, its cache shard, its
/// disk→chunk index, and a scratch read buffer. Exactly one shard owns a
/// lane during an epoch, mirroring the clock-domain split in the arbiter.
#[derive(Debug)]
pub(crate) struct RackLane<B> {
    pub(crate) backend: B,
    pub(crate) cache: ChunkCache,
    pub(crate) by_disk: BTreeMap<DiskId, BTreeSet<ChunkKey>>,
    pub(crate) read_buf: Vec<u8>,
}

/// A borrowed single-rack execution context: the shared rate card, the
/// rack's clock domain, its lane, and the (immutable) placement mapper.
/// [`RackCtx::read`] and [`RackCtx::write`] are the store's one chunk path:
/// every get, degraded get, rebuild and put moves its chunks through them,
/// from the monolithic store methods and the epoch shards alike.
pub(crate) struct RackCtx<'a, B> {
    pub(crate) rates: &'a RateCard,
    pub(crate) clock: &'a mut RackClock,
    pub(crate) lane: &'a mut RackLane<B>,
    pub(crate) mapper: &'a ObjectMapper,
}

impl<B: ChunkBackend> RackCtx<'_, B> {
    /// Read chunk `key` on `lane` and hand its bytes to `deliver`; `false`
    /// when the backend has no such chunk. A backend read charges the disk,
    /// then the rack uplink, from `start`, max-joining into `end`.
    ///
    /// Cache policy: the foreground lane consults the rack cache (a hit
    /// costs no virtual time) and fills it on a miss; the repair lane
    /// bypasses it both ways, so a rebuild neither counts as a cache access
    /// nor evicts the chunks foreground reads keep hot.
    fn read(
        &mut self,
        key: ChunkKey,
        lane: Lane,
        start: u64,
        end: &mut u64,
        deliver: impl FnOnce(&[u8]) -> Result<(), StoreError>,
    ) -> Result<bool, StoreError> {
        let foreground = lane == Lane::Foreground;
        if foreground {
            if let Some(bytes) = self.lane.cache.get(key) {
                deliver(bytes)?;
                return Ok(true);
            }
        }
        let rack = &mut *self.lane;
        if !rack.backend.read_chunk(key, &mut rack.read_buf)? {
            return Ok(false);
        }
        let (obj, row, col) = key_parts(key);
        let disk = self.mapper.chunk_at(obj, row, col).disk;
        let len = rack.read_buf.len();
        let read_done = self.clock.disk_io(self.rates, disk, len, start, lane);
        *end = (*end).max(self.clock.rack_xfer(self.rates, len, read_done));
        if foreground {
            rack.cache.insert(key, &rack.read_buf);
        }
        deliver(&rack.read_buf)?;
        Ok(true)
    }

    /// Write chunk `key`: store it, drop any cached copy, index it under
    /// its disk. A `charge` of `(lane, start, end)` first moves the bytes
    /// over the rack uplink, then onto the disk, max-joining into `end`,
    /// whether or not the backend write then succeeds.
    fn write(
        &mut self,
        key: ChunkKey,
        data: &[u8],
        charge: Option<(Lane, u64, &mut u64)>,
    ) -> Result<(), StoreError> {
        let (obj, row, col) = key_parts(key);
        let disk = self.mapper.chunk_at(obj, row, col).disk;
        if let Some((lane, start, end)) = charge {
            let len = data.len();
            let arrived = self.clock.rack_xfer(self.rates, len, start);
            *end = (*end).max(self.clock.disk_io(self.rates, disk, len, arrived, lane));
        }
        self.lane.backend.write_chunk(key, data)?;
        self.lane.cache.invalidate(key);
        self.lane.by_disk.entry(disk).or_default().insert(key);
        Ok(())
    }

    /// Write one row's chunks on the foreground lane; returns when the
    /// slowest lands. The store-global `lost` set is the caller's: the
    /// monolithic path heals it, and epochs run only while it is empty.
    pub(crate) fn put_row(
        &mut self,
        obj: u64,
        row: u32,
        chunks: &[Vec<u8>],
        start: u64,
    ) -> Result<u64, StoreError> {
        let mut end = start;
        for (col, data) in (0u32..).zip(chunks) {
            let charge = Some((Lane::Foreground, start, &mut end));
            self.write(chunk_key(obj, row, col), data, charge)?;
        }
        Ok(end)
    }

    /// Read one healthy row's data chunks on the foreground lane. With
    /// `out` `None` the payload is not materialized (replay mode: latency
    /// depends only on hit/miss and the clocks, so skipping the copies
    /// cannot change the op log). `verify` holds the row's expected bytes.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn get_row(
        &mut self,
        obj: u64,
        row: u32,
        kl: u32,
        chunk_bytes: usize,
        start: u64,
        verify: Option<&[u8]>,
        mut out: Option<&mut Vec<u8>>,
    ) -> Result<u64, StoreError> {
        let mut end = start;
        for col in 0..kl {
            #[expect(
                clippy::indexing_slicing,
                reason = "the verify buffer spans `k_l * chunk_bytes` by construction, covering every column slice."
            )]
            let expected =
                verify.map(|v| &v[col as usize * chunk_bytes..(col as usize + 1) * chunk_bytes]);
            let deliver = |bytes: &[u8]| {
                if expected.is_some_and(|exp| bytes != exp) {
                    return Err(StoreError::CorruptPayload(obj));
                }
                if let Some(dst) = out.as_deref_mut() {
                    dst.extend_from_slice(bytes);
                }
                Ok(())
            };
            let key = chunk_key(obj, row, col);
            if !self.read(key, Lane::Foreground, start, &mut end, deliver)? {
                return Err(StoreError::Unrecoverable {
                    object: obj,
                    detail: format!("chunk ({row}, {col}) missing without a recorded loss"),
                });
            }
        }
        Ok(end)
    }

    /// Delete one row's chunks (all `lw` columns, data and parity).
    /// Present chunks cost a metadata-only seek. Does not touch the
    /// store-global `lost` set (see [`RackCtx::put_row`]).
    pub(crate) fn delete_row(
        &mut self,
        obj: u64,
        row: u32,
        lw: u32,
        start: u64,
    ) -> Result<u64, StoreError> {
        let mut end = start;
        for col in 0..lw {
            let key = chunk_key(obj, row, col);
            let loc = self.mapper.chunk_at(obj, row, col);
            if self.lane.backend.delete_chunk(key)? {
                end = end.max(
                    self.clock
                        .disk_io(self.rates, loc.disk, 0, start, Lane::Foreground),
                );
            }
            self.lane.cache.invalidate(key);
            if let Some(set) = self.lane.by_disk.get_mut(&loc.disk) {
                set.remove(&key);
            }
        }
        Ok(end)
    }
}

/// The MLEC object store over a chunk backend.
#[derive(Debug)]
pub struct MlecStore<B: ChunkBackend> {
    pub(crate) cfg: StoreConfig,
    pub(crate) mapper: ObjectMapper,
    codec: MlecCodec,
    pub(crate) lanes: Vec<RackLane<B>>,
    pub(crate) arbiter: ShardedArbiter,
    repair: RepairScheduler,
    /// Current version per live object.
    versions: BTreeMap<u64, u64>,
    /// Chunks destroyed by failures and not yet rebuilt.
    lost: BTreeSet<ChunkKey>,
    /// Objects whose stripe loss exceeded the code's tolerance: repair
    /// gave up on them, so reads fail until an overwrite or delete.
    /// The epoch scheduler barriers gets on these (their partial charging
    /// is order-dependent).
    dead_objects: BTreeSet<u64>,
    degraded_reads: u64,
    repaired_local_chunks: u64,
    repaired_network_chunks: u64,
}

impl<B: ChunkBackend> MlecStore<B> {
    /// Build a store with one backend per rack, from `backend_for(rack)`.
    pub fn new<F>(cfg: StoreConfig, mut backend_for: F) -> Result<MlecStore<B>, StoreError>
    where
        F: FnMut(RackId) -> Result<B, StoreError>,
    {
        let (nw, lw) = (cfg.code.network_width(), cfg.code.local_width());
        if nw > 64 || lw > 64 {
            return Err(StoreError::BadSpec(format!(
                "code is {nw} x {lw} chunks; chunk keys pack row and column into 6 bits each"
            )));
        }
        let mapper = ObjectMapper::new(
            cfg.geometry,
            cfg.code,
            cfg.scheme,
            cfg.chunk_bytes as u64,
            cfg.placement_seed,
        );
        let codec = MlecCodec::new(
            cfg.code.kn as usize,
            cfg.code.pn as usize,
            cfg.code.kl as usize,
            cfg.code.pl as usize,
        )?;
        let racks = cfg.geometry.racks.max(1);
        let cache_per_rack = if cfg.cache_chunks == 0 {
            0
        } else {
            cfg.cache_chunks.div_ceil(racks as usize)
        };
        let mut lanes = Vec::with_capacity(racks as usize);
        for rack in 0..racks {
            lanes.push(RackLane {
                backend: backend_for(rack)?,
                cache: ChunkCache::new(cache_per_rack),
                by_disk: BTreeMap::new(),
                read_buf: Vec::new(),
            });
        }
        Ok(MlecStore {
            arbiter: ShardedArbiter::new(&cfg.geometry, &cfg.sim, cfg.seek_us),
            repair: RepairScheduler::new(cfg.repair_streams),
            cfg,
            mapper,
            codec,
            lanes,
            versions: BTreeMap::new(),
            lost: BTreeSet::new(),
            dead_objects: BTreeSet::new(),
            degraded_reads: 0,
            repaired_local_chunks: 0,
            repaired_network_chunks: 0,
        })
    }

    /// The store's configuration.
    pub fn config(&self) -> &StoreConfig {
        &self.cfg
    }

    /// The codec (for encoding payloads off-thread).
    pub fn codec(&self) -> &MlecCodec {
        &self.codec
    }

    /// The rack hosting row `row` of object `obj` — every column of a row
    /// lives in one rack, which is what makes rows the unit of sharding.
    pub(crate) fn rack_of_row(&self, obj: u64, row: u32) -> RackId {
        self.mapper.rack_of_row(obj, row)
    }

    /// Borrow the context of the rack hosting row `row` of `obj`: its
    /// clock domain, its lane, and the shared rates/mapper.
    fn row_ctx(&mut self, obj: u64, row: u32) -> RackCtx<'_, B> {
        let rack = self.rack_of_row(obj, row);
        let (rates, clocks) = self.arbiter.split();
        #[expect(
            clippy::indexing_slicing,
            reason = "`rack` comes from the geometry's rack mapping, bounded by the per-rack clock/lane counts."
        )]
        RackCtx {
            rates,
            clock: &mut clocks[rack as usize],
            lane: &mut self.lanes[rack as usize],
            mapper: &self.mapper,
        }
    }

    /// Is `obj` live (has a version)?
    pub(crate) fn exists(&self, obj: u64) -> bool {
        self.versions.contains_key(&obj)
    }

    /// Has repair given up on `obj`'s stripe?
    pub(crate) fn is_dead(&self, obj: u64) -> bool {
        self.dead_objects.contains(&obj)
    }

    /// Commit a put's version bump (the epoch scheduler does bookkeeping
    /// serially at routing time; the chunk writes follow in the shards).
    /// Mirrors the version arithmetic of [`MlecStore::put_encoded`].
    pub(crate) fn commit_put_version(&mut self, obj: u64) -> u64 {
        let version = self.versions.get(&obj).map_or(0, |v| v + 1);
        self.versions.insert(obj, version);
        self.dead_objects.remove(&obj);
        version
    }

    /// Commit a delete's liveness change; `false` means the object did
    /// not exist (a miss — nothing to queue).
    pub(crate) fn commit_delete(&mut self, obj: u64) -> bool {
        self.dead_objects.remove(&obj);
        self.versions.remove(&obj).is_some()
    }

    /// Encode a payload into a stripe grid — pure, callable off-thread.
    pub fn encode_payload(&self, payload: &[u8]) -> Result<MlecStripe, StoreError> {
        if payload.len() != self.cfg.payload_bytes() {
            return Err(StoreError::BadSpec(format!(
                "payload is {} bytes, expected {}",
                payload.len(),
                self.cfg.payload_bytes()
            )));
        }
        let chunks: Vec<&[u8]> = payload.chunks(self.cfg.chunk_bytes).collect();
        Ok(self.codec.encode(&chunks)?)
    }

    /// Gate of every write: `obj` must fit the 52-bit stripe field of a
    /// [`ChunkKey`] (a larger id would alias another object's chunks) and
    /// `stripe` must be this store's `n_w x l_w` grid. Returns `(n_w, l_w)`.
    fn check_writable(&self, obj: u64, stripe: &MlecStripe) -> Result<(u32, u32), StoreError> {
        if obj >= 1 << 52 {
            return Err(StoreError::BadSpec(format!(
                "object id {obj} exceeds the 52-bit chunk-key stripe space"
            )));
        }
        let (nw, lw) = (self.cfg.code.network_width(), self.cfg.code.local_width());
        if stripe.len() != nw as usize || stripe.iter().any(|r| r.len() != lw as usize) {
            return Err(StoreError::BadSpec(format!(
                "stripe grid is not {nw} x {lw}"
            )));
        }
        Ok((nw, lw))
    }

    /// Write object `obj` from a pre-encoded stripe grid. Returns the new
    /// version and the virtual latency.
    pub fn put_encoded(
        &mut self,
        obj: u64,
        stripe: &MlecStripe,
        now: u64,
    ) -> Result<PutResult, StoreError> {
        let (_, lw) = self.check_writable(obj, stripe)?;
        let start = now + self.cfg.overhead_us;
        let mut end = start;
        for (row, chunks) in (0u32..).zip(stripe) {
            end = end.max(self.row_ctx(obj, row).put_row(obj, row, chunks, start)?);
            // Overwriting heals any lost chunks of this row.
            for col in 0..lw {
                self.lost.remove(&chunk_key(obj, row, col));
            }
        }
        let version = self.commit_put_version(obj);
        Ok(PutResult {
            version,
            latency_us: end - now,
        })
    }

    /// Encode and write object `obj`.
    pub fn put(&mut self, obj: u64, payload: &[u8], now: u64) -> Result<PutResult, StoreError> {
        let stripe = self.encode_payload(payload)?;
        self.put_encoded(obj, &stripe, now)
    }

    /// Bulk-load an object without charging the bandwidth clocks: the
    /// benchmark's pre-population step, which models data that existed
    /// before the measured window opened. Indistinguishable from a put at
    /// version 0 in every other respect.
    pub fn preload_encoded(&mut self, obj: u64, stripe: &MlecStripe) -> Result<(), StoreError> {
        self.check_writable(obj, stripe)?;
        for (row, chunks) in (0u32..).zip(stripe) {
            let mut ctx = self.row_ctx(obj, row);
            for (col, data) in (0u32..).zip(chunks) {
                ctx.write(chunk_key(obj, row, col), data, None)?;
            }
        }
        self.versions.insert(obj, 0);
        Ok(())
    }

    /// Read object `obj`, taking a degraded path when chunks are lost.
    pub fn get(&mut self, obj: u64, now: u64) -> Result<GetResult, StoreError> {
        if !self.versions.contains_key(&obj) {
            return Err(StoreError::UnknownObject(obj));
        }
        let (kn, kl) = (self.cfg.code.kn, self.cfg.code.kl);
        let start = now + self.cfg.overhead_us;
        let any_lost =
            (0..kn).any(|row| (0..kl).any(|col| self.lost.contains(&chunk_key(obj, row, col))));
        if any_lost {
            self.degraded_reads += 1;
            return self.get_degraded(obj, now, start);
        }
        // Fast path: every data chunk is present.
        let chunk_bytes = self.cfg.chunk_bytes;
        let mut payload = Vec::with_capacity(self.cfg.payload_bytes());
        let mut end = start;
        for row in 0..kn {
            let mut ctx = self.row_ctx(obj, row);
            let row_end =
                ctx.get_row(obj, row, kl, chunk_bytes, start, None, Some(&mut payload))?;
            end = end.max(row_end);
        }
        Ok(GetResult {
            payload,
            latency_us: end - now,
            degraded: false,
            chunks_read: 0,
        })
    }

    /// Degraded path: fetch the survivors [`MlecCodec::read_set`] names for
    /// the data chunks and decode them. A stripe that cannot produce one, or
    /// a planned survivor the backend lacks, fails as `Unrecoverable`.
    fn get_degraded(&mut self, obj: u64, now: u64, start: u64) -> Result<GetResult, StoreError> {
        let code = self.cfg.code;
        let (nw, lw) = (code.network_width(), code.local_width());
        let survives = |row, col| !self.lost.contains(&chunk_key(obj, row, col));
        let row = |row| (0..lw).map(|col| survives(row, col)).collect();
        let mask: Vec<Vec<bool>> = (0..nw).map(row).collect();
        let data = |row| (0..code.kl as usize).map(move |col| (row, col));
        let targets: Vec<Cell> = (0..code.kn as usize).flat_map(data).collect();
        let set = self.codec.read_set(&mask, &targets)?;

        let mut grid = vec![vec![None; lw as usize]; nw as usize];
        let mut end = start;
        // A survivor the backend lacks stays `None`: the decode refuses.
        self.fetch(obj, &set, &mut grid, Lane::Foreground, start, &mut end)
            .map_err(|(_, e)| e)?;
        let chunks = set.decode(&grid).map_err(|e| match e {
            mlec_ec::EcError::TooManyErasures { present, needed } => StoreError::Unrecoverable {
                object: obj,
                detail: format!("{present} survivors where {needed} are needed"),
            },
            other => StoreError::Codec(other),
        })?;
        // Extra survivors = every read that is not the object's own present
        // data (those would have been read anyway); a decode fetched them all.
        let own = targets.iter().filter(|t| set.reads().contains(t)).count();
        Ok(GetResult {
            payload: chunks.concat(),
            latency_us: end - now,
            degraded: true,
            chunks_read: (set.reads().len() - own) as u64,
        })
    }

    /// The one survivor loop of degraded gets and rebuilds: fetch into
    /// `grid` each read of `set` it does not hold yet, in ascending order,
    /// on `lane` from `start`, max-joining into `end`. Returns the cells the
    /// backend lacks; a backend error ends the walk and comes back with the
    /// cell it struck.
    fn fetch(
        &mut self,
        obj: u64,
        set: &ReadSet,
        grid: &mut [Vec<Option<Vec<u8>>>],
        lane: Lane,
        start: u64,
        end: &mut u64,
    ) -> Result<Vec<Cell>, (Cell, StoreError)> {
        let mut missing = Vec::new();
        for &(row, col) in set.reads() {
            let cell = grid.get_mut(row).and_then(|cells| cells.get_mut(col));
            let Some(cell @ None) = cell else {
                continue;
            };
            let deliver = |bytes: &[u8]| {
                *cell = Some(bytes.to_vec());
                Ok(())
            };
            let (r, key) = (row as u32, chunk_key(obj, row as u32, col as u32));
            match self.row_ctx(obj, r).read(key, lane, start, end, deliver) {
                Ok(true) => {}
                Ok(false) => missing.push((row, col)),
                Err(e) => return Err(((row, col), e)),
            }
        }
        Ok(missing)
    }

    /// Remove object `obj`; returns the virtual latency.
    pub fn delete(&mut self, obj: u64, now: u64) -> Result<u64, StoreError> {
        if !self.commit_delete(obj) {
            return Err(StoreError::UnknownObject(obj));
        }
        let (nw, lw) = (self.cfg.code.network_width(), self.cfg.code.local_width());
        let start = now + self.cfg.overhead_us;
        let mut end = start;
        for row in 0..nw {
            end = end.max(self.row_ctx(obj, row).delete_row(obj, row, lw, start)?);
            for col in 0..lw {
                self.lost.remove(&chunk_key(obj, row, col));
            }
        }
        Ok(end - now)
    }

    /// Kill the first `n` racks at virtual time `now`; returns chunks lost.
    pub fn kill_racks(&mut self, n: u32, now: u64) -> u64 {
        let mut disks: Vec<DiskId> = Vec::new();
        for rack in 0..n.min(self.cfg.geometry.racks) {
            disks.extend(self.cfg.geometry.disks_in_rack(rack));
        }
        self.kill_disks(&disks, now)
    }

    /// Kill specific disks at virtual time `now`; every chunk they held is
    /// lost, affected stripes are queued for rebuild after the detection
    /// delay, and the disks are replaced by empty spares (same ids).
    pub fn kill_disks(&mut self, disks: &[DiskId], now: u64) -> u64 {
        let mut affected: BTreeSet<u64> = BTreeSet::new();
        let mut lost_chunks = 0u64;
        for &disk in disks {
            let rack = self.cfg.geometry.rack_of(disk) as usize;
            #[expect(
                clippy::indexing_slicing,
                reason = "`rack_of` maps any disk id into `0..racks`, the lane count."
            )]
            let lane = &mut self.lanes[rack];
            let Some(keys) = lane.by_disk.remove(&disk) else {
                continue;
            };
            for key in keys {
                let _ = lane.backend.delete_chunk(key);
                lane.cache.invalidate(key);
                self.lost.insert(key);
                affected.insert(key >> 12);
                lost_chunks += 1;
            }
        }
        let ready_at = now + self.cfg.detect_us;
        for stripe in affected {
            self.repair.enqueue(stripe, ready_at);
        }
        lost_chunks
    }

    /// Run queued rebuilds whose start time falls at or before `deadline`.
    /// Call with `u64::MAX` to drain the queue completely.
    pub fn pump_repairs(&mut self, deadline: u64) {
        while let Some((stream, start, stripe)) = self.repair.pop_ready(deadline) {
            let end = self.repair_stripe(stripe, start);
            let gap = self.arbiter.repair_pacing_gap_us(end.saturating_sub(start));
            self.repair.complete(stream, end, gap);
        }
    }

    /// Rebuild one stripe: fetch the survivors [`MlecCodec::read_set`] names
    /// for its lost chunks on the repair lane, decode them, and write them
    /// back to the replacement disks after the decode fan-in completes. A
    /// survivor the backend cannot return becomes one more erasure and the
    /// rebuild plans again. Returns the finish time.
    fn repair_stripe(&mut self, stripe: u64, start: u64) -> u64 {
        let (nw, lw) = (self.cfg.code.network_width(), self.cfg.code.local_width());
        let lost_keys: Vec<ChunkKey> = self
            .lost
            .range(chunk_key(stripe, 0, 0)..=chunk_key(stripe, nw - 1, lw - 1))
            .copied()
            .collect();
        if lost_keys.is_empty() {
            // Overwritten or deleted while queued: nothing to rebuild.
            self.repair.skipped_stripes += 1;
            return start;
        }
        let cell = |&key: &ChunkKey| {
            let (_, row, col) = key_parts(key);
            (row as usize, col as usize)
        };
        let targets: Vec<Cell> = lost_keys.iter().map(cell).collect();
        let mut erased: BTreeSet<Cell> = targets.iter().copied().collect();
        let mut grid = vec![vec![None; lw as usize]; nw as usize];
        let mut read_end = start;
        // A pass that does not decode erases at least one more cell, so the
        // re-planning ends.
        let decoded = loop {
            let survives = |row, col| !erased.contains(&(row, col));
            let row = |row| (0..lw as usize).map(|col| survives(row, col)).collect();
            let mask: Vec<Vec<bool>> = (0..nw as usize).map(row).collect();
            let set = match self.codec.read_set(&mask, &targets) {
                Ok(set) => set,
                Err(e) => break Err(e),
            };
            match self.fetch(stripe, &set, &mut grid, Lane::Repair, start, &mut read_end) {
                Ok(missing) if missing.is_empty() => {
                    break set.decode(&grid).map(|chunks| (set.local(), chunks));
                }
                Ok(missing) => erased.extend(missing),
                Err((at, _)) => erased.extend([at]),
            }
        };
        let Ok((local, chunks)) = decoded else {
            // Beyond tolerance: give up on this stripe for good. Reads of
            // the object now fail until it is overwritten, and the epoch
            // scheduler must barrier them — mark it dead.
            self.repair.unrecoverable_stripes += 1;
            self.dead_objects.insert(stripe);
            for key in lost_keys {
                self.lost.remove(&key);
            }
            return read_end;
        };
        self.repaired_local_chunks += local as u64;
        self.repaired_network_chunks += (lost_keys.len() - local) as u64;
        let mut end = read_end;
        for (key, bytes) in lost_keys.into_iter().zip(chunks) {
            let (_, row, _) = key_parts(key);
            let charge = Some((Lane::Repair, read_end, &mut end));
            if self.row_ctx(stripe, row).write(key, &bytes, charge).is_ok() {
                self.lost.remove(&key);
            }
        }
        self.repair.repaired_stripes += 1;
        end
    }

    /// Chunks currently lost to failures and not yet rebuilt.
    pub fn lost_chunks(&self) -> usize {
        self.lost.len()
    }

    /// Degraded reads served so far.
    pub fn degraded_reads(&self) -> u64 {
        self.degraded_reads
    }

    /// `(locally_repaired, network_repaired)` chunk counts from rebuilds.
    pub fn repaired_chunks(&self) -> (u64, u64) {
        (self.repaired_local_chunks, self.repaired_network_chunks)
    }

    /// The repair scheduler (queue depth, completion time, stripe counts).
    pub fn repair(&self) -> &RepairScheduler {
        &self.repair
    }

    /// Aggregate cache hit rate over all rack cache shards, in `[0, 1]`.
    pub fn cache_hit_rate(&self) -> f64 {
        let (mut hits, mut misses) = (0u64, 0u64);
        for lane in &self.lanes {
            let (h, m) = lane.cache.stats();
            hits += h;
            misses += m;
        }
        let total = hits + misses;
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }

    /// The bandwidth arbiter (lane totals).
    pub fn arbiter(&self) -> &ShardedArbiter {
        &self.arbiter
    }

    /// Chunks stored, over all rack backends.
    pub fn chunk_count(&self) -> usize {
        self.lanes.iter().map(|l| l.backend.chunk_count()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemBackend;

    fn store() -> MlecStore<MemBackend> {
        MlecStore::new(StoreConfig::small_test(), |_| Ok(MemBackend::new())).unwrap()
    }

    fn payload(cfg: &StoreConfig, tag: u8) -> Vec<u8> {
        (0..cfg.payload_bytes())
            .map(|i| (i as u8).wrapping_mul(31).wrapping_add(tag))
            .collect()
    }

    #[test]
    fn put_get_round_trip() {
        let mut s = store();
        let p = payload(s.config(), 7);
        let put = s.put(3, &p, 0).unwrap();
        assert_eq!(put.version, 0);
        assert!(put.latency_us > 0);
        let got = s.get(3, 10_000).unwrap();
        assert_eq!(got.payload, p);
        assert!(!got.degraded);
        assert_eq!(got.chunks_read, 0);
        // A second put bumps the version.
        assert_eq!(s.put(3, &p, 20_000).unwrap().version, 1);
        assert_eq!(s.versions.get(&3), Some(&1));
    }

    #[test]
    fn code_wider_than_the_key_packing_is_rejected() {
        // 65 rows (or columns) would wrap the 6-bit key fields.
        for (kn, pn, kl, pl) in [(60, 5, 4, 2), (2, 1, 60, 5)] {
            let mut cfg = StoreConfig::small_test();
            cfg.code = MapperCode { kn, pn, kl, pl };
            let err = MlecStore::new(cfg, |_| Ok(MemBackend::new())).unwrap_err();
            assert!(matches!(err, StoreError::BadSpec(_)), "{err:?}");
        }
    }

    #[test]
    fn object_id_beyond_the_key_space_is_rejected() {
        let mut s = store();
        let p = payload(s.config(), 1);
        let stripe = s.encode_payload(&p).unwrap();
        let max = (1u64 << 52) - 1;
        s.put_encoded(max, &stripe, 0).unwrap();
        for obj in [1u64 << 52, u64::MAX] {
            let err = s.put_encoded(obj, &stripe, 0).unwrap_err();
            assert!(matches!(err, StoreError::BadSpec(_)), "{err:?}");
            let err = s.preload_encoded(obj, &stripe).unwrap_err();
            assert!(matches!(err, StoreError::BadSpec(_)), "{err:?}");
        }
        // Object 0 would be the alias of 1 << 52: it must not exist.
        assert_eq!(s.versions.len(), 1);
        assert!(matches!(s.get(0, 0), Err(StoreError::UnknownObject(0))));
        assert_eq!(s.get(max, 10).unwrap().payload, p);
    }

    #[test]
    fn get_and_delete_of_unknown_object_fail() {
        let mut s = store();
        assert!(matches!(s.get(9, 0), Err(StoreError::UnknownObject(9))));
        assert!(matches!(s.delete(9, 0), Err(StoreError::UnknownObject(9))));
    }

    #[test]
    fn rows_of_a_stripe_land_in_distinct_racks() {
        // The sharding invariant: every column of a row shares one rack,
        // and the rows of a stripe spread over distinct racks.
        let s = store();
        let (nw, lw) = (
            s.config().code.network_width(),
            s.config().code.local_width(),
        );
        for obj in 0..32u64 {
            let mut row_racks = Vec::new();
            for row in 0..nw {
                let rack = s.rack_of_row(obj, row);
                for col in 0..lw {
                    let loc = s.mapper.chunk_at(obj, row, col);
                    assert_eq!(
                        s.mapper.rack_of(&loc),
                        rack,
                        "obj {obj} row {row} col {col}"
                    );
                }
                row_racks.push(rack);
            }
            row_racks.sort_unstable();
            row_racks.dedup();
            assert_eq!(row_racks.len(), nw as usize, "obj {obj} rows share a rack");
        }
    }

    #[test]
    fn rack_kill_forces_degraded_reads_then_repair_heals() {
        let mut s = store();
        let p = payload(s.config(), 3);
        for obj in 0..8u64 {
            s.put(obj, &p, obj * 1_000).unwrap();
        }
        let lost = s.kill_racks(1, 100_000);
        assert!(lost > 0, "a rack kill must lose chunks");

        // Reads still return the exact bytes; damaged stripes go degraded.
        let mut degraded = 0;
        for obj in 0..8u64 {
            let got = s.get(obj, 200_000).unwrap();
            assert_eq!(got.payload, p, "object {obj}");
            if got.degraded {
                degraded += 1;
                assert!(got.chunks_read > 0);
            }
        }
        assert!(degraded > 0, "some stripe must touch the killed rack");
        assert_eq!(s.degraded_reads(), degraded);

        // Drain the rebuild; everything heals.
        s.pump_repairs(u64::MAX);
        assert_eq!(s.lost_chunks(), 0);
        assert!(s.repair().done_at().is_some());
        assert!(s.repair().repaired_stripes > 0);
        let (l, n) = s.repaired_chunks();
        assert_eq!(l + n, lost);
        // Post-repair reads are healthy again.
        let t = s.repair().done_at().unwrap() + 1;
        for obj in 0..8u64 {
            let got = s.get(obj, t).unwrap();
            assert_eq!(got.payload, p);
            assert!(!got.degraded, "object {obj} should be healed");
        }
    }

    #[test]
    fn rebuild_bypasses_the_cache_and_foreground_reads_fill_it() {
        let mut s = store();
        let p = payload(s.config(), 8);
        for obj in 0..8u64 {
            s.put(obj, &p, obj * 1_000).unwrap();
            s.get(obj, 50_000).unwrap(); // warm the caches
        }
        s.kill_racks(1, 100_000);
        let (kn, kl) = (s.config().code.kn, s.config().code.kl);
        let lost: Vec<ChunkKey> = s.lost.iter().copied().collect();
        // A data chunk the rebuild restores: the get below reads it.
        let &data_key = lost
            .iter()
            .find(|&&k| matches!(key_parts(k), (_, r, c) if r < kn && c < kl))
            .expect("a rack kill loses some data chunk");
        let counters = |s: &MlecStore<MemBackend>| -> Vec<_> {
            s.lanes
                .iter()
                .map(|l| (l.cache.accesses(), l.cache.stats()))
                .collect()
        };
        let before = counters(&s);
        s.pump_repairs(u64::MAX);
        assert_eq!(s.lost_chunks(), 0);
        assert_eq!(counters(&s), before, "the rebuild touched a cache");
        let resident = |s: &mut MlecStore<MemBackend>, key: ChunkKey| {
            let rack = s.rack_of_row(key_parts(key).0, key_parts(key).1);
            s.lanes[rack as usize].cache.get(key).is_some()
        };
        for &key in &lost {
            assert!(!resident(&mut s, key), "rebuilt chunk {key:#x} cached");
        }

        let before = counters(&s);
        let t = s.repair().done_at().unwrap() + 1;
        assert_eq!(s.get(key_parts(data_key).0, t).unwrap().payload, p);
        let after = counters(&s);
        let consulted: u64 = before.iter().zip(&after).map(|(b, a)| a.0 - b.0).sum();
        assert_eq!(consulted, u64::from(kn * kl), "one lookup per data chunk");
        assert!(resident(&mut s, data_key), "the get filled the cache");
    }

    #[test]
    fn detection_delay_gates_repair_start() {
        let mut s = store();
        let p = payload(s.config(), 1);
        for obj in 0..8u64 {
            s.put(obj, &p, 0).unwrap();
        }
        let lost = s.kill_racks(1, 50_000);
        assert!(lost > 0, "eight stripes must touch the killed rack");
        let detect = s.config().detect_us;
        // Nothing may start before the detection window elapses.
        s.pump_repairs(50_000 + detect - 1);
        assert_eq!(s.repair().repaired_stripes + s.repair().skipped_stripes, 0);
        s.pump_repairs(u64::MAX);
        assert_eq!(s.lost_chunks(), 0);
        assert!(s.repair().done_at().unwrap() > 50_000 + detect);
    }

    #[test]
    fn overwrite_heals_lost_chunks_without_repair() {
        let mut s = store();
        let p = payload(s.config(), 5);
        s.put(0, &p, 0).unwrap();
        s.kill_racks(1, 10_000);
        if s.lost_chunks() == 0 {
            return; // placement missed rack 0 entirely — nothing to check
        }
        let p2 = payload(s.config(), 6);
        s.put(0, &p2, 20_000).unwrap();
        assert_eq!(s.lost_chunks(), 0, "overwrite re-creates every chunk");
        let got = s.get(0, 30_000).unwrap();
        assert_eq!(got.payload, p2);
        assert!(!got.degraded);
        // The queued repair finds nothing to do.
        s.pump_repairs(u64::MAX);
        assert_eq!(s.repair().repaired_stripes, 0);
        assert!(s.repair().skipped_stripes > 0);
    }

    #[test]
    fn delete_removes_all_chunks_and_latency_is_positive() {
        let mut s = store();
        let p = payload(s.config(), 9);
        s.put(4, &p, 0).unwrap();
        let total = s.config().code.network_width() * s.config().code.local_width();
        assert_eq!(s.chunk_count(), total as usize);
        let lat = s.delete(4, 10_000).unwrap();
        assert!(lat > 0);
        assert_eq!(s.chunk_count(), 0);
        assert_eq!(s.versions.len(), 0);
    }

    #[test]
    fn beyond_tolerance_reads_report_unrecoverable() {
        let mut s = store();
        let p = payload(s.config(), 2);
        s.put(0, &p, 0).unwrap();
        // Killing two racks exceeds p_n = 1 for stripes with two rows
        // there; killing ALL racks certainly kills every stripe.
        s.kill_racks(s.config().geometry.racks, 1_000);
        match s.get(0, 2_000) {
            Err(StoreError::Unrecoverable { object, .. }) => assert_eq!(object, 0),
            other => panic!("expected Unrecoverable, got {other:?}"),
        }
    }

    #[test]
    fn degraded_get_missing_a_planned_helper_is_unrecoverable() {
        let mut s = store();
        let p = payload(s.config(), 6);
        for obj in 0..8u64 {
            s.put(obj, &p, obj * 1_000).unwrap();
        }
        s.kill_racks(1, 100_000);
        let kn = s.config().code.kn;
        // An object whose lost row is a data row: its data chunks there
        // decode down their columns, from the other data row and the
        // network-parity row.
        let obj = (0..8u64)
            .find(|&o| (0..kn).any(|r| s.lost.contains(&chunk_key(o, r, 0))))
            .expect("a rack loss reaches some data row");
        let helper = chunk_key(obj, kn, 0);
        let rack = s.rack_of_row(obj, kn) as usize;
        assert!(s.lanes[rack].backend.delete_chunk(helper).unwrap());
        match s.get(obj, 200_000) {
            Err(StoreError::Unrecoverable { object, .. }) => assert_eq!(object, obj),
            other => panic!("expected Unrecoverable, got {other:?}"),
        }
    }

    #[test]
    fn unrecoverable_stripe_is_marked_dead_after_repair_gives_up() {
        let mut s = store();
        let p = payload(s.config(), 4);
        s.put(0, &p, 0).unwrap();
        s.kill_racks(s.config().geometry.racks, 1_000);
        assert!(!s.is_dead(0), "deadness is decided by repair, not the kill");
        s.pump_repairs(u64::MAX);
        assert!(s.is_dead(0));
        assert_eq!(s.lost_chunks(), 0, "repair abandons the lost records");
        assert!(s.repair().unrecoverable_stripes > 0);
        // An overwrite revives the object.
        s.put(0, &p, 2_000_000).unwrap();
        assert!(!s.is_dead(0));
        let got = s.get(0, 3_000_000).unwrap();
        assert_eq!(got.payload, p);
    }

    /// A [`MemBackend`] whose reads of the keys in `failing` fail with an
    /// I/O error.
    #[derive(Debug, Default)]
    struct FailingReads {
        inner: MemBackend,
        failing: BTreeSet<ChunkKey>,
    }

    impl ChunkBackend for FailingReads {
        fn write_chunk(&mut self, key: ChunkKey, data: &[u8]) -> Result<(), StoreError> {
            self.inner.write_chunk(key, data)
        }
        fn read_chunk(&mut self, key: ChunkKey, buf: &mut Vec<u8>) -> Result<bool, StoreError> {
            if self.failing.contains(&key) {
                return Err(StoreError::Io(std::io::Error::other(
                    "injected read failure",
                )));
            }
            self.inner.read_chunk(key, buf)
        }
        fn delete_chunk(&mut self, key: ChunkKey) -> Result<bool, StoreError> {
            self.inner.delete_chunk(key)
        }
        fn contains(&self, key: ChunkKey) -> bool {
            self.inner.contains(key)
        }
        fn chunk_count(&self) -> usize {
            self.inner.chunk_count()
        }
    }

    fn failing_store() -> MlecStore<FailingReads> {
        MlecStore::new(StoreConfig::small_test(), |_| Ok(FailingReads::default())).unwrap()
    }

    /// Object 0 stored alone, then the disk holding its chunk (0, 0)
    /// killed: one lost data chunk, in a row that can rebuild it locally.
    fn one_chunk_lost<B: ChunkBackend>(mut s: MlecStore<B>) -> (MlecStore<B>, Vec<u8>) {
        let p = payload(s.config(), 11);
        s.put(0, &p, 0).unwrap();
        let disk = s.mapper.chunk_at(0, 0, 0).disk;
        assert_eq!(s.kill_disks(&[disk], 10_000), 1, "one chunk of the object");
        (s, p)
    }

    /// Make the backend fail every read of object 0's chunks at `cells`.
    fn fail_reads(s: &mut MlecStore<FailingReads>, cells: &[(u32, u32)]) {
        for &(row, col) in cells {
            let rack = s.rack_of_row(0, row) as usize;
            s.lanes[rack].backend.failing.insert(chunk_key(0, row, col));
        }
    }

    #[test]
    fn rebuild_of_one_lost_chunk_reads_k_l_survivors_of_its_row() {
        let (mut s, p) = one_chunk_lost(store());
        s.pump_repairs(u64::MAX);
        // k_l reads of row 0, then one write.
        let kl = u64::from(s.config().code.kl);
        assert_eq!(s.arbiter().repair_totals().0, kl + 1);
        assert_eq!(s.repaired_chunks(), (1, 0));
        let t = s.repair().done_at().unwrap() + 1;
        assert_eq!(s.get(0, t).unwrap().payload, p);
    }

    #[test]
    fn rebuild_plans_again_around_a_survivor_it_cannot_read() {
        // Row 0 rebuilds (0, 0) from columns 1-4; column 4 is a local
        // parity, which the get below never reads.
        let (mut s, p) = one_chunk_lost(failing_store());
        fail_reads(&mut s, &[(0, 4)]);
        s.pump_repairs(u64::MAX);
        assert_eq!(s.repair().repaired_stripes, 1);
        assert_eq!(s.repair().unrecoverable_stripes, 0);
        assert_eq!(s.repaired_chunks(), (1, 0));
        assert_eq!(s.lost_chunks(), 0);
        // Columns 1-3 are not read again and the failed read costs nothing:
        // columns 1, 2, 3 and 5, then the write.
        assert_eq!(s.arbiter().repair_totals().0, 4 + 1);
        let t = s.repair().done_at().unwrap() + 1;
        assert_eq!(s.get(0, t).unwrap().payload, p);
    }

    #[test]
    fn rebuild_of_a_row_left_short_goes_down_the_column_or_refuses() {
        // Two failed reads leave row 0 three chunks short, beyond p_l = 2:
        // (0, 0) decodes down column 0 from rows 1 and 2.
        let (mut s, p) = one_chunk_lost(failing_store());
        fail_reads(&mut s, &[(0, 1), (0, 2)]);
        s.pump_repairs(u64::MAX);
        assert_eq!(s.repair().repaired_stripes, 1);
        assert_eq!(s.repair().unrecoverable_stripes, 0);
        assert_eq!(s.repaired_chunks(), (0, 1));
        assert_eq!(s.arbiter().repair_totals().0, 2 + 1);
        s.lanes.iter_mut().for_each(|l| l.backend.failing.clear());
        let t = s.repair().done_at().unwrap() + 1;
        assert_eq!(s.get(0, t).unwrap().payload, p);

        // Row 1 failing too leaves column 0 short of k_n = 2 rows: the
        // rebuild refuses, and the stripe is dead.
        let (mut s, _) = one_chunk_lost(failing_store());
        fail_reads(&mut s, &[(0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]);
        s.pump_repairs(u64::MAX);
        assert_eq!(s.repair().repaired_stripes, 0);
        assert_eq!(s.repair().unrecoverable_stripes, 1);
        assert!(s.is_dead(0));
        assert_eq!(s.lost_chunks(), 0);
    }
}
