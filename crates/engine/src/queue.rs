//! Deterministic time-ordered event queue.
//!
//! The queue is one `Vec` kept sorted latest-first, so the earliest event
//! is always at the end: a pop is `Vec::pop`, and a push binary-searches
//! its place and inserts there. The machine driver holds at most one
//! event per simulated thread (at most 64, the protocol's
//! `NodeSet::MAX_NODES`; 32 at the paper's machine size), so an insert
//! shifts at most a few dozen entries and the queue stops allocating
//! once it has grown to that depth.

use crate::Cycle;

/// A `(time, payload)` event queue with FIFO tie-breaking.
///
/// Events pushed with equal times pop in insertion order, which keeps the
/// simulator deterministic regardless of the queue's internals.
///
/// # Examples
///
/// ```
/// use pimdsm_engine::EventQueue;
///
/// let mut q = EventQueue::new();
/// q.push(7, 'x');
/// q.push(7, 'y');
/// q.push(3, 'z');
/// assert_eq!(q.pop(), Some((3, 'z')));
/// assert_eq!(q.pop(), Some((7, 'x')));
/// assert_eq!(q.pop(), Some((7, 'y')));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<T> {
    /// Pending events, sorted by descending time; among equal times the
    /// earliest-pushed sits nearest the end, so it pops first.
    events: Vec<(Cycle, T)>,
    pops: u64,
    peak_len: usize,
}

impl<T> EventQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            events: Vec::new(),
            pops: 0,
            peak_len: 0,
        }
    }

    /// Schedules `payload` at `time`.
    pub fn push(&mut self, time: Cycle, payload: T) {
        // In front of every event due at or before `time`: behind the
        // equal-time events already queued, which keeps ties FIFO.
        let at = self.events.partition_point(|e| e.0 > time);
        self.events.insert(at, (time, payload));
        self.peak_len = self.peak_len.max(self.events.len());
    }

    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<(Cycle, T)> {
        let e = self.events.pop()?;
        self.pops += 1;
        Some(e)
    }

    /// Returns the time of the earliest event without removing it.
    pub fn peek_time(&self) -> Option<Cycle> {
        self.events.last().map(|e| e.0)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Total events popped over the queue's lifetime. Deterministic; the
    /// driver feeds this to `pimdsm_prof` as the event-throughput count.
    pub fn total_pops(&self) -> u64 {
        self.pops
    }

    /// Deepest the queue has ever been. Deterministic per run.
    pub fn peak_len(&self) -> usize {
        self.peak_len
    }
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        for &t in &[5u64, 1, 9, 3, 7] {
            q.push(t, t);
        }
        let mut out = Vec::new();
        while let Some((t, p)) = q.pop() {
            assert_eq!(t, p);
            out.push(t);
        }
        assert_eq!(out, vec![1, 3, 5, 7, 9]);
    }

    #[test]
    fn fifo_on_ties() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(42, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((42, i)));
        }
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        q.push(8, ());
        assert_eq!(q.peek_time(), Some(8));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        q.pop();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn pop_and_depth_counters_track_lifetime_extremes() {
        let mut q = EventQueue::new();
        assert_eq!((q.total_pops(), q.peak_len()), (0, 0));
        q.push(1, ());
        q.push(2, ());
        q.push(3, ());
        assert_eq!(q.peak_len(), 3);
        q.pop();
        q.pop();
        q.push(4, ());
        assert_eq!(q.peak_len(), 3, "peak is a lifetime maximum");
        while q.pop().is_some() {}
        assert_eq!(q.total_pops(), 4);
        assert_eq!(q.pop(), None);
        assert_eq!(q.total_pops(), 4, "popping empty does not count");
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.push(10, 'a');
        q.push(20, 'b');
        assert_eq!(q.pop(), Some((10, 'a')));
        q.push(15, 'c');
        q.push(5, 'd');
        assert_eq!(q.pop(), Some((5, 'd')));
        assert_eq!(q.pop(), Some((15, 'c')));
        assert_eq!(q.pop(), Some((20, 'b')));
    }

    #[test]
    fn far_events_cross_the_window_in_order() {
        let mut q = EventQueue::new();
        // Two events a full disk fault apart, plus ties on the far side.
        q.push(0, 0u64);
        q.push(1_000_000, 1);
        q.push(1_000_000, 2);
        q.push(3, 3);
        assert_eq!(q.pop(), Some((0, 0)));
        assert_eq!(q.pop(), Some((3, 3)));
        assert_eq!(q.pop(), Some((1_000_000, 1)));
        assert_eq!(q.pop(), Some((1_000_000, 2)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn past_push_before_the_window_anchor_stays_ordered() {
        let mut q = EventQueue::new();
        // First push anchors the window at 2000 …
        q.push(2000, 'a');
        q.push(2000, 'b');
        // … so this lands before `base` and forces a full rebuild.
        q.push(100, 'c');
        q.push(2000, 'd');
        assert_eq!(q.pop(), Some((100, 'c')));
        assert_eq!(q.pop(), Some((2000, 'a')));
        assert_eq!(q.pop(), Some((2000, 'b')));
        assert_eq!(q.pop(), Some((2000, 'd')));
        assert_eq!(q.pop(), None);
    }
}
