//! The online repair scheduler: detection delay, limited rebuild streams,
//! and duty-cycle pacing.
//!
//! When a failure strikes, every affected network stripe is enqueued with
//! a *ready* time (`kill + detection delay`, the store-scale analogue of
//! the paper's 30-minute detection window). A fixed number of rebuild
//! streams then drain the queue: each stream picks the earliest-ready
//! stripe, occupies shared disk/rack bandwidth for the rebuild (through
//! the same [`crate::arbiter::ShardedArbiter`] foreground ops use —
//! that contention is the experiment), and must then idle long enough
//! that repair consumes at most the configured fraction of bandwidth
//! (§3: "disk and network traffics are both capped at 20%"). The
//! scheduler only decides *when and which stripe*; the store performs
//! the rebuild, reading the survivors the codec plans, and reports back
//! the I/O span.

use std::collections::BTreeSet;

/// Queue + stream bookkeeping for online rebuilds (virtual time).
#[derive(Debug)]
pub struct RepairScheduler {
    /// Pending stripes, ordered by `(ready_at, stripe)`.
    queue: BTreeSet<(u64, u64)>,
    /// Stripes currently enqueued (dedup guard).
    enqueued: BTreeSet<u64>,
    /// Per-stream next-free virtual time.
    streams: Vec<u64>,
    /// Stripes rebuilt (had lost chunks and reconstructed).
    pub repaired_stripes: u64,
    /// Stripes dequeued with nothing left to do (overwritten or deleted).
    pub skipped_stripes: u64,
    /// Stripes whose loss exceeded the code's tolerance.
    pub unrecoverable_stripes: u64,
    last_end: u64,
    done_at: Option<u64>,
}

impl RepairScheduler {
    /// Scheduler with `streams` concurrent rebuild streams.
    pub fn new(streams: u32) -> RepairScheduler {
        RepairScheduler {
            queue: BTreeSet::new(),
            enqueued: BTreeSet::new(),
            streams: vec![0; streams.max(1) as usize],
            repaired_stripes: 0,
            skipped_stripes: 0,
            unrecoverable_stripes: 0,
            last_end: 0,
            done_at: None,
        }
    }

    /// Queue `stripe` for rebuild once detection completes at `ready_at`.
    pub fn enqueue(&mut self, stripe: u64, ready_at: u64) {
        if self.enqueued.insert(stripe) {
            self.queue.insert((ready_at, stripe));
            // New damage: a previously recorded completion no longer holds.
            self.done_at = None;
        }
    }

    /// Claim the next rebuild startable by `deadline`: picks the idlest
    /// stream and the earliest-ready stripe. Returns
    /// `(stream, start, stripe)`, with the stripe removed from the queue —
    /// the caller must follow up with [`RepairScheduler::complete`].
    pub fn pop_ready(&mut self, deadline: u64) -> Option<(usize, u64, u64)> {
        let (stream, &free) = self
            .streams
            .iter()
            .enumerate()
            .min_by_key(|&(i, &t)| (t, i))?;
        let &(ready_at, stripe) = self.queue.iter().next()?;
        let start = free.max(ready_at);
        if start > deadline {
            return None;
        }
        self.queue.remove(&(ready_at, stripe));
        self.enqueued.remove(&stripe);
        Some((stream, start, stripe))
    }

    /// Record a rebuild that occupied `[.., end]` on `stream`; the stream
    /// then idles for `pacing_gap` to honor the repair bandwidth cap.
    pub fn complete(&mut self, stream: usize, end: u64, pacing_gap: u64) {
        #[expect(
            clippy::indexing_slicing,
            reason = "`stream` was handed out by this planner from `0..streams.len()`."
        )]
        let free_at = &mut self.streams[stream];
        *free_at = end + pacing_gap;
        self.last_end = self.last_end.max(end);
        if self.queue.is_empty() {
            self.done_at = Some(self.last_end);
        }
    }

    /// Stripes still waiting for a stream.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Virtual time the last rebuild finished, once the queue is drained
    /// (`None` while damage is outstanding or nothing was ever enqueued).
    pub fn done_at(&self) -> Option<u64> {
        self.done_at
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detection_delay_holds_work_back() {
        let mut s = RepairScheduler::new(2);
        s.enqueue(5, 1_000);
        // Before the ready time nothing is startable.
        assert!(s.pop_ready(999).is_none());
        let (stream, start, stripe) = s.pop_ready(1_000).unwrap();
        assert_eq!((start, stripe), (1_000, 5));
        s.complete(stream, 1_500, 2_000);
        assert_eq!(s.done_at(), Some(1_500));
    }

    #[test]
    fn pacing_gap_delays_the_stream_not_the_clock() {
        let mut s = RepairScheduler::new(1);
        s.enqueue(1, 0);
        s.enqueue(2, 0);
        let (st, start, _) = s.pop_ready(u64::MAX).unwrap();
        assert_eq!(start, 0);
        s.complete(st, 100, 400); // stream free again at 500
        assert!(s.pop_ready(499).is_none());
        let (_, start, stripe) = s.pop_ready(500).unwrap();
        assert_eq!((start, stripe), (500, 2));
    }

    #[test]
    fn streams_drain_in_parallel() {
        let mut s = RepairScheduler::new(2);
        for stripe in 0..4u64 {
            s.enqueue(stripe, 0);
        }
        // Two claims both start at 0 (one per stream).
        let (a, start_a, _) = s.pop_ready(0).unwrap();
        s.complete(a, 50, 0);
        let (b, start_b, _) = s.pop_ready(0).unwrap();
        assert_eq!((start_a, start_b), (0, 0));
        assert_ne!(a, b);
        s.complete(b, 60, 0);
        assert_eq!(s.pending(), 2);
        assert!(s.done_at().is_none(), "queue not drained yet");
    }

    #[test]
    fn duplicate_enqueue_is_ignored_and_new_damage_clears_done() {
        let mut s = RepairScheduler::new(1);
        s.enqueue(9, 0);
        s.enqueue(9, 10);
        assert_eq!(s.pending(), 1);
        let (st, _, _) = s.pop_ready(0).unwrap();
        s.complete(st, 20, 0);
        assert_eq!(s.done_at(), Some(20));
        s.enqueue(11, 30);
        assert!(s.done_at().is_none(), "new damage reopens the rebuild");
    }
}
