//! Deterministic discrete-event queue.
//!
//! Replay time never goes backwards: every event is scheduled at or
//! after the one being dispatched. The queue is therefore a monotone
//! radix heap (Ahuja, Mehlhorn, Orlin & Tarjan, "Faster algorithms for
//! the shortest path problem", J. ACM 1990) over the `u64` image of
//! each time under `total_cmp`. An entry sits in the bucket of the
//! highest bit where its key differs from the last popped key; a pop
//! that finds bucket 0 empty makes the smallest key of the lowest
//! non-empty bucket the last popped key and moves that bucket's
//! entries down. Each entry moves at most 64 times and usually a few,
//! and every move is a sequential read and append, where a binary heap
//! sifts each pop through all its levels.

use crate::time::Time;

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

/// Entries per storage block.
const BLOCK: usize = 32;
/// Bucket 0 holds keys equal to the last popped key; bucket `i >= 1`
/// holds keys whose highest bit differing from it is bit `i - 1`.
const BUCKETS: usize = 65;
const NIL: u32 = u32::MAX;

/// A pending event. Its time is recoverable from `key`, and its push
/// order from where it is stored (see [`EventQueue`]).
#[derive(Clone, Copy)]
struct Slot {
    key: u64,
    event: Event,
}

const VACANT: Slot = Slot {
    key: 0,
    event: Event::Fault { idx: 0 },
};

/// Fixed-size storage shared by all buckets through one free list, so
/// the queue holds at most its live entries plus a partly filled block
/// per bucket, however the entries spread over the buckets.
struct Block {
    slots: [Slot; BLOCK],
    next: u32,
}

/// A bucket's entries, in append order, as a chain of blocks: they
/// start at `start` in block `head` and end before `end` in block
/// `tail`. Only bucket 0 is read from the front; the others are drained
/// whole.
#[derive(Clone, Copy)]
struct Chain {
    head: u32,
    tail: u32,
    start: u32,
    end: u32,
}

const EMPTY: Chain = Chain {
    head: NIL,
    tail: NIL,
    start: 0,
    end: 0,
};

/// A bucket's first entry of smallest key, and where it is stored.
#[derive(Clone, Copy)]
struct Min {
    key: u64,
    block: u32,
    off: u32,
}

/// The monotone image of `at` under `total_cmp`: flip every bit of a
/// negative time, set the sign bit of any other.
#[inline]
fn key_of(at: Time) -> u64 {
    let bits = at.as_secs().to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

#[inline]
fn time_of(key: u64) -> Time {
    let bits = if key >> 63 == 1 { key ^ 1 << 63 } else { !key };
    Time::secs(f64::from_bits(bits))
}

/// The bucket of `key` when `last` is the last popped key.
#[inline]
fn bucket_of(key: u64, last: u64) -> usize {
    (u64::BITS - (key ^ last).leading_zeros()) as usize
}

/// Earliest-first event queue with deterministic tie-breaking: entries
/// pop in `Time::total_cmp` order, equal times in push order.
///
/// Push order needs no sequence number. Entries of equal time always
/// share a bucket; a push appends behind every entry queued, and a
/// refill walks a bucket in order and sends equal times to the same
/// bucket. So the entries of each time stay in push order through
/// every move, bucket 0 (one time only) pops from the front, and a
/// bucket's minimum is its first entry of smallest key.
///
/// The pending high-water mark is sampled once per `push`, in program
/// order — every entry enters through [`EventQueue::push`], so the
/// size after a push is the only place the mark can move.
pub struct EventQueue {
    /// Key of the last popped entry (0 before the first pop): no entry
    /// may be pushed below it.
    last: u64,
    /// Bit `i - 1` is set while bucket `i >= 1` is non-empty.
    occupied: u64,
    chains: [Chain; BUCKETS],
    /// Entry `i >= 1` is valid while bucket `i` is non-empty.
    mins: [Min; BUCKETS],
    /// Boxed, so growing the list never moves or over-allocates
    /// entries: a `Vec<Block>` would double its capacity.
    #[allow(clippy::vec_box)]
    blocks: Vec<Box<Block>>,
    /// Head of the free-block list, linked through `Block::next`.
    free: u32,
    len: usize,
    pub processed: u64,
    /// High-water mark of pending entries (size after a push).
    pub peak: usize,
}

impl Default for EventQueue {
    fn default() -> EventQueue {
        EventQueue {
            last: 0,
            occupied: 0,
            chains: [EMPTY; BUCKETS],
            mins: [Min {
                key: 0,
                block: NIL,
                off: 0,
            }; BUCKETS],
            blocks: Vec::new(),
            free: NIL,
            len: 0,
            processed: 0,
            peak: 0,
        }
    }
}

impl EventQueue {
    pub fn new() -> EventQueue {
        EventQueue::default()
    }

    /// Empty the queue and zero its counters, keeping its blocks on the
    /// free list for the next replay.
    pub(crate) fn reset(&mut self) {
        let mut blocks = std::mem::take(&mut self.blocks);
        let n = blocks.len();
        for (i, b) in blocks.iter_mut().enumerate() {
            b.next = if i + 1 < n { (i + 1) as u32 } else { NIL };
        }
        *self = EventQueue {
            free: if n > 0 { 0 } else { NIL },
            blocks,
            ..EventQueue::default()
        };
    }

    /// Schedule `event` at `at`. Panics if `at` is earlier than the
    /// last popped time: replay time never goes backwards.
    pub fn push(&mut self, at: Time, event: Event) {
        let key = key_of(at);
        assert!(
            key >= self.last,
            "event at {:?} s pushed before the last popped event at {:?} s",
            at.as_secs(),
            time_of(self.last).as_secs()
        );
        self.append(bucket_of(key, self.last), Slot { key, event });
        self.len += 1;
        self.peak = self.peak.max(self.len);
    }

    pub fn pop(&mut self) -> Option<(Time, Event)> {
        if self.chains[0].head == NIL {
            if self.occupied == 0 {
                return None;
            }
            self.refill();
        }
        let c = self.chains[0];
        let head = &self.blocks[c.head as usize];
        let event = head.slots[c.start as usize].event;
        let next = head.next;
        let start = c.start + 1;
        if c.head == c.tail && start == c.end {
            self.release(c.head);
            self.chains[0] = EMPTY;
        } else if start as usize == BLOCK {
            self.release(c.head);
            self.chains[0].head = next;
            self.chains[0].start = 0;
        } else {
            self.chains[0].start = start;
        }
        self.len -= 1;
        self.processed += 1;
        Some((time_of(self.last), event))
    }

    /// The next events to pop, at most three, for cache prefetching
    /// only: bucket 0's front entries, then the minimum of each
    /// non-empty bucket above it, lowest bucket first. The first is the
    /// next to pop as long as nothing is pushed before; the others are
    /// candidates for the pops after it, as a binary heap's second and
    /// third slots were.
    pub(crate) fn upcoming(&self) -> impl Iterator<Item = Event> + '_ {
        let mut next = [None; 3];
        let mut n = 0;
        let c = self.chains[0];
        let (mut block, mut off) = (c.head, c.start as usize);
        while n < next.len() && block != NIL && !(block == c.tail && off == c.end as usize) {
            let b = &self.blocks[block as usize];
            next[n] = Some(b.slots[off].event);
            n += 1;
            off += 1;
            if off == BLOCK {
                (block, off) = (b.next, 0);
            }
        }
        let mut occupied = self.occupied;
        while n < next.len() && occupied != 0 {
            let m = self.mins[occupied.trailing_zeros() as usize + 1];
            next[n] = Some(self.blocks[m.block as usize].slots[m.off as usize].event);
            n += 1;
            occupied &= occupied - 1;
        }
        next.into_iter().flatten()
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn len(&self) -> usize {
        self.len
    }

    /// Append `s` to bucket `i`, keeping the bucket's minimum: an equal
    /// key queued earlier pops first.
    #[inline]
    fn append(&mut self, i: usize, s: Slot) {
        let Chain { tail, end, .. } = self.chains[i];
        let (block, off) = if tail == NIL {
            let b = self.alloc();
            self.chains[i] = Chain {
                head: b,
                tail: b,
                start: 0,
                end: 0,
            };
            (b, 0)
        } else if end as usize == BLOCK {
            let b = self.alloc();
            self.blocks[tail as usize].next = b;
            self.chains[i].tail = b;
            (b, 0)
        } else {
            (tail, end)
        };
        self.blocks[block as usize].slots[off as usize] = s;
        self.chains[i].end = off + 1;
        if i > 0 {
            let bit = 1 << (i - 1);
            let m = &mut self.mins[i];
            if self.occupied & bit == 0 || s.key < m.key {
                *m = Min {
                    key: s.key,
                    block,
                    off,
                };
            }
            self.occupied |= bit;
        }
    }

    /// Bucket 0 is empty: make the lowest non-empty bucket's smallest
    /// key the last popped one and move that bucket's entries down.
    fn refill(&mut self) {
        let i = self.occupied.trailing_zeros() as usize + 1;
        self.occupied &= !(1 << (i - 1));
        let last = self.mins[i].key;
        self.last = last;
        let Chain {
            head, tail, end, ..
        } = std::mem::replace(&mut self.chains[i], EMPTY);
        let mut block = head;
        loop {
            let fill = if block == tail { end as usize } else { BLOCK };
            for off in 0..fill {
                let s = self.blocks[block as usize].slots[off];
                self.append(bucket_of(s.key, last), s);
            }
            let next = self.blocks[block as usize].next;
            self.release(block);
            if block == tail {
                break;
            }
            block = next;
        }
    }

    fn alloc(&mut self) -> u32 {
        if self.free == NIL {
            let id = self.blocks.len();
            assert!(id < NIL as usize, "event queue outgrew its u32 block ids");
            self.blocks.push(Box::new(Block {
                slots: [VACANT; BLOCK],
                next: NIL,
            }));
            return id as u32;
        }
        let b = self.free;
        let block = &mut self.blocks[b as usize];
        self.free = std::mem::replace(&mut block.next, NIL);
        b
    }

    fn release(&mut self, b: u32) {
        self.blocks[b as usize].next = self.free;
        self.free = b;
    }

    /// Entries the queue's storage can hold. It never exceeds `peak`
    /// plus [`EventQueue::SLACK`].
    #[cfg(test)]
    fn capacity(&self) -> usize {
        self.blocks.len() * BLOCK
    }

    /// A partly filled block per bucket, one more at bucket 0's front
    /// and the one a refill is draining.
    #[cfg(test)]
    const SLACK: usize = (BUCKETS + 2) * BLOCK;
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Ordering;
    use std::collections::BinaryHeap;

    /// The queue this one replaced, kept as the differential oracle.
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
            // BinaryHeap is a max-heap; invert for earliest-first,
            // breaking ties by insertion order.
            other
                .at
                .cmp(&self.at)
                .then_with(|| other.seq.cmp(&self.seq))
        }
    }

    #[derive(Default)]
    struct Oracle {
        heap: BinaryHeap<Entry>,
        next_seq: u64,
        processed: u64,
        peak: usize,
    }

    impl Oracle {
        fn push(&mut self, at: Time, event: Event) {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.heap.push(Entry { at, seq, event });
            self.peak = self.peak.max(self.heap.len());
        }

        fn pop(&mut self) -> Option<(Time, Event)> {
            let e = self.heap.pop()?;
            self.processed += 1;
            Some((e.at, e.event))
        }
    }

    /// splitmix64 stream: deterministic, no dependencies.
    fn stream(seed: u64) -> impl FnMut() -> u64 {
        let mut x = seed;
        move || {
            x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
    }

    fn rank(e: Event) -> usize {
        match e {
            Event::Resume { rank } => rank,
            _ => unreachable!(),
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(Time::secs(3.0), Event::Resume { rank: 3 });
        q.push(Time::secs(1.0), Event::Resume { rank: 1 });
        q.push(Time::secs(2.0), Event::Resume { rank: 2 });
        let order: Vec<usize> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| rank(e))
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
            .map(|(_, e)| rank(e))
            .collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn ties_pushed_across_refills_pop_by_insertion_order() {
        // Ranks 0..5 all wait for time 1, pushed between pops that move
        // the last popped time up to it: the early ones travel down
        // through refills, the late ones land lower at once.
        let mut q = EventQueue::new();
        let filler = Event::Fault { idx: 0 };
        for (rank, before) in [0.25, 0.5, 0.75, 0.875, 0.9375].into_iter().enumerate() {
            q.push(Time::secs(1.0), Event::Resume { rank });
            q.push(Time::secs(before), filler);
            assert_eq!(q.pop(), Some((Time::secs(before), filler)));
        }
        let order: Vec<usize> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| rank(e))
            .collect();
        assert_eq!(order, (0..5).collect::<Vec<_>>());
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
        q.push(Time::secs(4.0), Event::Resume { rank: 0 });
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

    #[test]
    fn keys_follow_total_cmp_and_round_trip() {
        let times = [-2.5, -1e-300, -0.0, 0.0, 1e-300, 1e-9, 1.0, 3.5e12];
        for w in times.windows(2) {
            let (a, b) = (Time::secs(w[0]), Time::secs(w[1]));
            assert_eq!(a.cmp(&b), key_of(a).cmp(&key_of(b)), "{w:?}");
        }
        for t in times {
            assert_eq!(
                time_of(key_of(Time::secs(t))).as_secs().to_bits(),
                t.to_bits()
            );
        }
    }

    #[test]
    #[should_panic(expected = "pushed before the last popped event")]
    fn rejects_a_push_into_the_past() {
        let mut q = EventQueue::new();
        q.push(Time::secs(2.0), Event::Resume { rank: 0 });
        let _ = q.pop();
        q.push(Time::secs(1.0), Event::Resume { rank: 1 });
    }

    #[test]
    fn matches_binary_heap_oracle_on_random_schedules() {
        for seed in 0..64u64 {
            let mut next = stream(seed);
            let mut q = EventQueue::new();
            let mut o = Oracle::default();
            // The time of the event being dispatched: every push is at
            // or after it, and most land on a few coarse grid points,
            // so exact ties are common.
            let mut now = 0.0f64;
            let steps = 500 + (next() % 3_000) as usize;
            for step in 0..steps {
                let burst = match next() % 8 {
                    0 => 0,
                    1 => 40,
                    _ => 1 + (next() % 3) as usize,
                };
                for _ in 0..burst {
                    let r = next();
                    let dt = match r % 4 {
                        0 => 0.0,
                        1 => ((r >> 8) % 4) as f64 * 0.25,
                        2 => ((r >> 8) % 1_000) as f64 * 1e-9,
                        _ => f64::from_bits((r >> 12) | 0x3ff0_0000_0000_0000) - 1.0,
                    };
                    let at = Time::secs(now + dt);
                    let v = (r >> 32) as usize;
                    let event = match (r >> 2) % 4 {
                        0 => Event::Resume { rank: v },
                        1 => Event::TransferDone { msg: v },
                        2 => Event::FlowDone {
                            msg: v,
                            epoch: r >> 40,
                        },
                        _ => Event::Fault { idx: v },
                    };
                    q.push(at, event);
                    o.push(at, event);
                }
                assert_eq!(q.len(), o.heap.len(), "seed {seed} step {step}");
                let pops = if step + 1 == steps {
                    usize::MAX
                } else {
                    (next() % 4) as usize
                };
                for _ in 0..pops {
                    let peeked = q.upcoming().next();
                    let got = q.pop();
                    let want = o.pop();
                    assert_eq!(
                        got.map(|(t, e)| (t.as_secs().to_bits(), e)),
                        want.map(|(t, e)| (t.as_secs().to_bits(), e)),
                        "seed {seed} step {step}"
                    );
                    assert_eq!(peeked, got.map(|(_, e)| e), "seed {seed} step {step}");
                    match got {
                        Some((t, _)) => now = t.as_secs(),
                        None => break,
                    }
                }
                assert_eq!(q.len(), o.heap.len(), "seed {seed} step {step}");
                assert_eq!(q.peak, o.peak, "seed {seed} step {step}");
                assert_eq!(q.processed, o.processed, "seed {seed} step {step}");
                assert!(
                    q.capacity() <= q.peak + EventQueue::SLACK,
                    "seed {seed} step {step}: capacity {} for peak {}",
                    q.capacity(),
                    q.peak
                );
            }
            assert!(q.is_empty() && q.pop().is_none());
        }
    }
}
