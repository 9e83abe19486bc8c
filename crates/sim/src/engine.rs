//! A deterministic discrete-event queue.
//!
//! Time is `f64` hours. Events at equal times pop in insertion (FIFO) order
//! via a monotone sequence number, which keeps simulations bit-reproducible
//! under a fixed RNG seed regardless of heap internals.
//!
//! The queue schedules *what happens when*; randomness and importance
//! weighting for failure arrivals are owned by
//! [`crate::kernel::HazardKernel`], which `system_sim` consults each time
//! it schedules the next arrival into this queue.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A timestamped event with a stable tie-breaking sequence number.
struct Entry<E> {
    time: f64,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse order: BinaryHeap is a max-heap, we want earliest first.
        // PANICS: event times are finite by construction; a NaN here means a corrupted queue and must abort.
        other
            .time
            .partial_cmp(&self.time)
            .expect("event times must not be NaN")
            .then_with(|| other.seq.cmp(&self.seq))
    }
}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A discrete-event priority queue over event type `E`.
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
    now: f64,
}

impl<E> EventQueue<E> {
    /// An empty queue starting at time zero.
    pub fn new() -> EventQueue<E> {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: 0.0,
        }
    }

    /// Current simulation time (time of the last popped event).
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Schedule `event` at absolute time `time` (hours).
    ///
    /// # Panics
    /// Panics if `time` is NaN or earlier than the current time.
    pub fn schedule(&mut self, time: f64, event: E) {
        assert!(!time.is_nan(), "event time must not be NaN");
        assert!(
            time >= self.now,
            "cannot schedule into the past: {time} < {}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { time, seq, event });
    }

    /// Pop the earliest event, advancing the clock to its time.
    pub fn pop(&mut self) -> Option<(f64, E)> {
        self.heap.pop().map(|e| {
            self.now = e.time;
            (e.time, e.event)
        })
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(3.0, "c");
        q.schedule(1.0, "a");
        q.schedule(2.0, "b");
        assert_eq!(q.pop(), Some((1.0, "a")));
        assert_eq!(q.pop(), Some((2.0, "b")));
        assert_eq!(q.now(), 2.0);
        assert_eq!(q.pop(), Some((3.0, "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn equal_times_pop_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(5.0, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((5.0, i)));
        }
    }

    #[test]
    #[should_panic]
    fn scheduling_into_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(10.0, ());
        q.pop();
        q.schedule(5.0, ());
    }

    #[test]
    fn len_and_is_empty() {
        let mut q: EventQueue<u8> = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(4.0, 1);
        q.schedule(2.0, 2);
        assert_eq!(q.len(), 2);
        assert!(!q.is_empty());
    }
}
