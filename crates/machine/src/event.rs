//! Deterministic discrete-event queue.

use crate::time::Time;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Events processed by the replay engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// A rank becomes runnable (its local clock reaches the event time).
    Resume { rank: usize },
    /// A network transfer finishes delivery.
    TransferDone { msg: usize },
    /// A flow-level transfer estimate fires. Stale if `epoch` is no
    /// longer the flow's current estimate (resharing re-estimated it).
    FlowDone { msg: usize, epoch: u64 },
    /// A scheduled link fault strikes. `idx` indexes the platform's
    /// resolved fault schedule (see [`crate::net::fault`]).
    Fault { idx: usize },
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    at: Time,
    seq: u64,
    event: Event,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Entry {}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert for earliest-first, breaking
        // ties by insertion order so the simulation is deterministic.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Earliest-first event queue with deterministic tie-breaking.
///
/// The pending high-water mark is sampled once per `push`, in program
/// order — every entry enters through [`EventQueue::push`], so the
/// size after a push is the only place the mark can move.
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Entry>,
    next_seq: u64,
    pub processed: u64,
    /// High-water mark of pending entries (size after a push).
    pub peak: usize,
}

impl EventQueue {
    pub fn new() -> EventQueue {
        EventQueue::default()
    }

    pub fn push(&mut self, at: Time, event: Event) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { at, seq, event });
        self.peak = self.peak.max(self.heap.len());
    }

    pub fn pop(&mut self) -> Option<(Time, Event)> {
        let e = self.heap.pop()?;
        self.processed += 1;
        Some((e.at, e.event))
    }

    /// The events in the heap's first three slots: the next to pop,
    /// then both candidates for the one after it (in no particular
    /// order). For cache prefetching only.
    pub(crate) fn upcoming(&self) -> impl Iterator<Item = Event> + '_ {
        self.heap.as_slice().iter().take(3).map(|e| e.event)
    }

    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    pub fn len(&self) -> usize {
        self.heap.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(Time::secs(3.0), Event::Resume { rank: 3 });
        q.push(Time::secs(1.0), Event::Resume { rank: 1 });
        q.push(Time::secs(2.0), Event::Resume { rank: 2 });
        let order: Vec<usize> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| match e {
                Event::Resume { rank } => rank,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        for rank in 0..10 {
            q.push(Time::secs(1.0), Event::Resume { rank });
        }
        let order: Vec<usize> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| match e {
                Event::Resume { rank } => rank,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn peak_tracks_high_water_mark_across_pops() {
        let mut q = EventQueue::new();
        for rank in 0..5 {
            q.push(Time::secs(rank as f64), Event::Resume { rank });
        }
        assert_eq!(q.peak, 5);
        while q.pop().is_some() {}
        assert_eq!(q.peak, 5, "draining must not lower the mark");
        q.push(Time::ZERO, Event::Resume { rank: 0 });
        assert_eq!(q.peak, 5, "a smaller refill must not lower the mark");
    }

    #[test]
    fn counts_processed() {
        let mut q = EventQueue::new();
        q.push(Time::ZERO, Event::TransferDone { msg: 0 });
        assert_eq!(q.len(), 1);
        let _ = q.pop();
        assert_eq!(q.processed, 1);
        assert!(q.is_empty());
        assert!(q.pop().is_none());
    }
}
