//! The event calendar: a priority queue of timestamped events.
//!
//! Events with equal timestamps are delivered in insertion order (FIFO),
//! which keeps simulations deterministic regardless of how the underlying
//! binary heap happens to break ties.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// An entry in the calendar. Ordered by `(time, seq)` ascending.
struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest event is on top.
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

/// A deterministic event calendar.
///
/// `pop` returns events in non-decreasing time order; ties are broken by
/// insertion order. This is the core data structure behind
/// [`crate::engine::Engine`] but is usable standalone for ad-hoc models.
pub(crate) struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Create an empty calendar.
    pub(crate) fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Schedule `event` at absolute time `time`.
    pub(crate) fn push(&mut self, time: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { time, seq, event });
    }

    /// Remove and return the earliest event together with its timestamp.
    pub(crate) fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|e| (e.time, e.event))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;

    fn t(ps: u64) -> SimTime {
        SimTime::from_ps(ps)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(t(30), "c");
        q.push(t(10), "a");
        q.push(t(20), "b");
        assert_eq!(q.pop(), Some((t(10), "a")));
        assert_eq!(q.pop(), Some((t(20), "b")));
        assert_eq!(q.pop(), Some((t(30), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn equal_times_are_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(t(5), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((t(5), i)));
        }
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.push(t(10), 1);
        q.push(t(5), 0);
        assert_eq!(q.pop(), Some((t(5), 0)));
        q.push(t(7), 2);
        q.push(t(10), 3); // same time as event 1 but inserted later
        assert_eq!(q.pop(), Some((t(7), 2)));
        assert_eq!(q.pop(), Some((t(10), 1)));
        assert_eq!(q.pop(), Some((t(10), 3)));
    }
}
