//! The deterministic epoch executor: parallel rack-sharded apply.
//!
//! An *epoch* is a maximal run of trace ops that are rack-decomposable:
//! puts, healthy gets, and deletes of stripes whose loss state is clean
//! (`lost` empty, object not dead). The scheduler in
//! [`crate::benchrun`] walks the trace serially, commits version
//! bookkeeping op by op, decomposes each such op into per-row
//! `SubOp`s — a row is entirely rack-local, see
//! [`crate::store`] — and appends them to the owning rack's queue.
//! Anything order-sensitive (kill injection, any op while chunks are
//! lost or repairs queued, gets of dead objects) closes the epoch: the
//! queues flush first, then the barrier op runs on the monolithic path.
//!
//! Why the flush is deterministic for any `(shards, threads)`:
//!
//! 1. Routing happens in the serial walk, so which ops land in which
//!    rack queue — and in what order — is a pure function of the trace.
//! 2. A sub-op touches only its rack's clock domain, cache shard,
//!    backend, and disk index. Sub-ops in *different* racks share no
//!    state, so shard interleaving cannot change any outcome; sub-ops in
//!    the *same* rack run in queue (= trace) order on one shard.
//! 3. Per-op completion is the max over its rows' end times — a
//!    commutative, associative join, so the merge order is irrelevant.
//!
//! Racks are striped over shards (`rack % shards`); each worker applies
//! its racks ascending and reports `(slot, end)` pairs that the caller
//! max-joins into per-op completion times, in slot order.

use crate::arbiter::RackClock;
use crate::backend::ChunkBackend;
use crate::store::{MlecStore, RackCtx, RackLane};
use crate::StoreError;

/// What one trace op does inside one rack (always a single row).
#[derive(Debug)]
pub(crate) enum SubAction<'a> {
    /// Write the row's encoded chunks (all `lw` columns).
    Put(&'a [Vec<u8>]),
    /// Read the row's data chunks; `verify` holds the row's expected
    /// bytes when the trace samples this get for verification.
    Get { verify: Option<&'a [u8]> },
    /// Remove the row's chunks (all `lw` columns).
    Delete,
}

/// One rack-confined slice of a trace op.
#[derive(Debug)]
pub(crate) struct SubOp<'a> {
    /// Epoch-local op slot; completion times merge into `ends[slot]`.
    pub(crate) slot: u32,
    pub(crate) obj: u64,
    pub(crate) row: u32,
    /// Op start time (arrival + software overhead), µs.
    pub(crate) start: u64,
    pub(crate) action: SubAction<'a>,
}

/// Per-rack sub-op queues for one epoch, each in slot order.
#[derive(Debug)]
pub(crate) struct EpochQueues<'a> {
    pub(crate) by_rack: Vec<Vec<SubOp<'a>>>,
}

impl<'a> EpochQueues<'a> {
    pub(crate) fn new(racks: usize) -> EpochQueues<'a> {
        EpochQueues {
            by_rack: (0..racks).map(|_| Vec::new()).collect(),
        }
    }

    pub(crate) fn clear(&mut self) {
        for q in &mut self.by_rack {
            q.clear();
        }
    }
}

/// One rack's apply work: its clock domain, its lane, its queued sub-ops.
type RackWork<'s, 'a, B> = (&'s mut RackClock, &'s mut RackLane<B>, &'s [SubOp<'a>]);

impl<B: ChunkBackend + Send> MlecStore<B> {
    /// Apply one epoch's queues over `shards` rack shards and max-join the
    /// per-row completion times into `ends` (indexed by slot, pre-seeded
    /// with each op's start time). Each non-empty shard is drained by the
    /// same closure: inline when there is only one, on one scoped worker
    /// per shard otherwise.
    pub(crate) fn apply_epoch(
        &mut self,
        queues: &EpochQueues<'_>,
        shards: usize,
        ends: &mut [u64],
    ) -> Result<(), StoreError> {
        debug_assert_eq!(queues.by_rack.len(), self.lanes.len());
        // `rack % shards` never reaches a bucket at or beyond the rack
        // count, so more shards than racks would only be empty buckets.
        let shards = shards.min(self.lanes.len()).max(1);
        let kl = self.cfg.code.kl;
        let lw = self.cfg.code.local_width();
        let chunk_bytes = self.cfg.chunk_bytes;
        let mapper = &self.mapper;
        let (rates, clocks) = self.arbiter.split();

        // Stripe the (clock, lane, queue) rack triples over the shards.
        let mut shard_work: Vec<Vec<RackWork<'_, '_, B>>> =
            (0..shards).map(|_| Vec::new()).collect();
        for (rack, ((clock, lane), queue)) in clocks
            .iter_mut()
            .zip(self.lanes.iter_mut())
            .zip(queues.by_rack.iter())
            .enumerate()
        {
            if queue.is_empty() {
                continue;
            }
            #[expect(
                clippy::indexing_slicing,
                reason = "`% shards` keeps the index in range; `shard_work` was built with `shards` buckets."
            )]
            shard_work[rack % shards].push((clock, lane, queue.as_slice()));
        }
        shard_work.retain(|bucket| !bucket.is_empty());

        // Drain one shard's racks, ascending, through the shared row
        // helpers, reporting each sub-op's `(slot, completion time)`.
        let drain = |bucket: Vec<RackWork<'_, '_, B>>| -> Result<Vec<(u32, u64)>, StoreError> {
            let mut outs = Vec::with_capacity(bucket.iter().map(|(_, _, q)| q.len()).sum());
            for (clock, lane, queue) in bucket {
                let mut ctx = RackCtx {
                    rates,
                    clock,
                    lane,
                    mapper,
                };
                for sub in queue {
                    let end = match &sub.action {
                        SubAction::Put(chunks) => {
                            ctx.put_row(sub.obj, sub.row, chunks, sub.start)?
                        }
                        SubAction::Get { verify } => ctx.get_row(
                            sub.obj,
                            sub.row,
                            kl,
                            chunk_bytes,
                            sub.start,
                            *verify,
                            None,
                        )?,
                        SubAction::Delete => ctx.delete_row(sub.obj, sub.row, lw, sub.start)?,
                    };
                    outs.push((sub.slot, end));
                }
            }
            Ok(outs)
        };

        let results: Vec<Result<Vec<(u32, u64)>, StoreError>> = if shard_work.len() <= 1 {
            shard_work.into_iter().map(drain).collect()
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = shard_work
                    .into_iter()
                    .map(|bucket| {
                        let drain = &drain;
                        scope.spawn(move || drain(bucket))
                    })
                    .collect();
                #[expect(
                    clippy::expect_used,
                    reason = "a panicked shard worker means a poisoned epoch; re-raising on the coordinator is correct."
                )]
                handles
                    .into_iter()
                    .map(|h| h.join().expect("epoch shard worker panicked"))
                    .collect()
            })
        };
        // Max-join is commutative and associative, so `ends` does not
        // depend on which shard reported first.
        for outs in results {
            for (slot, end) in outs? {
                #[expect(
                    clippy::indexing_slicing,
                    reason = "sub-op `slot`s were assigned from `0..ends.len()` when the epoch was queued."
                )]
                let e = &mut ends[slot as usize];
                *e = (*e).max(end);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemBackend;
    use crate::store::StoreConfig;

    fn store() -> MlecStore<MemBackend> {
        MlecStore::new(StoreConfig::small_test(), |_| Ok(MemBackend::new())).unwrap()
    }

    fn payload(cfg: &StoreConfig, tag: u8) -> Vec<u8> {
        (0..cfg.payload_bytes())
            .map(|i| (i as u8).wrapping_mul(17).wrapping_add(tag))
            .collect()
    }

    /// Decompose a put/get/delete sequence into sub-ops, apply it through
    /// the epoch machinery at several shard counts, and require end times
    /// identical to the monolithic path.
    #[test]
    fn epoch_apply_matches_monolithic_end_times() {
        // Reference: monolithic ops on a fresh store.
        let cfg = StoreConfig::small_test();
        let mut reference = store();
        let objects: Vec<u64> = (0..12).collect();
        let stripes: Vec<_> = objects
            .iter()
            .map(|&o| reference.encode_payload(&payload(&cfg, o as u8)).unwrap())
            .collect();
        let mut want = Vec::new();
        for (i, &obj) in objects.iter().enumerate() {
            let now = i as u64 * 1_000;
            want.push(
                now + reference
                    .put_encoded(obj, &stripes[i], now)
                    .unwrap()
                    .latency_us,
            );
        }
        for (i, &obj) in objects.iter().enumerate() {
            let now = 100_000 + i as u64 * 1_000;
            want.push(now + reference.get(obj, now).unwrap().latency_us);
        }

        for shards in [1usize, 2, 4, 8, 100_000] {
            let mut s = store();
            let (nw, kn) = (cfg.code.network_width(), cfg.code.kn);
            let mut queues = EpochQueues::new(s.arbiter().racks());
            let mut ends = Vec::new();
            let mut slot = 0u32;
            for (i, &obj) in objects.iter().enumerate() {
                let now = i as u64 * 1_000;
                let start = now + cfg.overhead_us;
                s.commit_put_version(obj);
                for row in 0..nw {
                    let rack = s.rack_of_row(obj, row) as usize;
                    queues.by_rack[rack].push(SubOp {
                        slot,
                        obj,
                        row,
                        start,
                        action: SubAction::Put(&stripes[i][row as usize]),
                    });
                }
                ends.push(start);
                slot += 1;
            }
            for (i, &obj) in objects.iter().enumerate() {
                let now = 100_000 + i as u64 * 1_000;
                let start = now + cfg.overhead_us;
                for row in 0..kn {
                    let rack = s.rack_of_row(obj, row) as usize;
                    queues.by_rack[rack].push(SubOp {
                        slot,
                        obj,
                        row,
                        start,
                        action: SubAction::Get { verify: None },
                    });
                }
                ends.push(start);
                slot += 1;
            }
            s.apply_epoch(&queues, shards, &mut ends).unwrap();
            assert_eq!(ends, want, "shards={shards}");
            assert_eq!(s.chunk_count(), reference.chunk_count());
        }
    }

    /// Verification bytes are checked on the sharded path too.
    #[test]
    fn epoch_get_row_verifies_payload_bytes() {
        let cfg = StoreConfig::small_test();
        let mut s = store();
        let p = payload(&cfg, 9);
        let stripe = s.encode_payload(&p).unwrap();
        s.put_encoded(0, &stripe, 0).unwrap();
        let kl = cfg.code.kl;
        let row_bytes = kl as usize * cfg.chunk_bytes;

        let ok_queue = {
            let mut q = EpochQueues::new(s.arbiter().racks());
            let rack = s.rack_of_row(0, 0) as usize;
            q.by_rack[rack].push(SubOp {
                slot: 0,
                obj: 0,
                row: 0,
                start: 10_000,
                action: SubAction::Get {
                    verify: Some(&p[..row_bytes]),
                },
            });
            q
        };
        let mut ends = vec![10_000u64];
        s.apply_epoch(&ok_queue, 2, &mut ends).unwrap();
        assert!(ends[0] > 10_000);

        // A wrong expectation must surface CorruptPayload from the worker.
        let wrong = vec![0xAAu8; row_bytes];
        let bad_queue = {
            let mut q = EpochQueues::new(s.arbiter().racks());
            let rack = s.rack_of_row(0, 0) as usize;
            q.by_rack[rack].push(SubOp {
                slot: 0,
                obj: 0,
                row: 0,
                start: 20_000,
                action: SubAction::Get {
                    verify: Some(&wrong),
                },
            });
            q
        };
        let mut ends = vec![20_000u64];
        let err = s.apply_epoch(&bad_queue, 2, &mut ends).unwrap_err();
        assert!(matches!(err, StoreError::CorruptPayload(0)), "{err:?}");
    }
}
