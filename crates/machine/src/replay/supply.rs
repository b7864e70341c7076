//! Record supply for the replay engine: materialized slice or lazy
//! per-rank stream.
//!
//! The engine fetches each `(rank, pc)` exactly once, in increasing
//! `pc` order per rank (every dispatch arm advances `pc` past the
//! record it consumed, and at most one resume is in flight per rank).
//! That access pattern is what makes a forward-only iterator a valid
//! backing store: [`StreamSupply`] keeps one cursor per rank and a
//! small buffer holding at most one collective's expansion, so the
//! resident record footprint is O(ranks), not O(ranks × records).
//!
//! Collective records are expanded to point-to-point steps *inside the
//! cursor*, through the same [`collective::expand_one`] the eager
//! rewriter uses with the same rank-local instance counter — streamed
//! and materialized replays therefore interpret byte-identical record
//! sequences.

use crate::collective;
use crate::platform::CollectiveAlgo;
use ovlp_trace::source::TraceSource;
use ovlp_trace::{Rank, Record, Trace};
use std::collections::VecDeque;

/// Where the engine's records come from.
pub(crate) enum Supply<'a> {
    /// A fully materialized trace (the classic path).
    Slice(&'a Trace),
    /// Generator-backed per-rank cursors with inline collective
    /// expansion.
    Stream(StreamSupply<'a>),
}

impl<'a> Supply<'a> {
    pub(crate) fn stream(source: &'a dyn TraceSource, algo: CollectiveAlgo) -> Supply<'a> {
        let n = source.nranks();
        Supply::Stream(StreamSupply {
            cursors: (0..n)
                .map(|r| RankCursor {
                    iter: source.rank_records(r),
                    buf: VecDeque::new(),
                    instance: 0,
                    consumed: 0,
                })
                .collect(),
            algo,
            fetched: 0,
            resident: 0,
            peak: 0,
        })
    }

    pub(crate) fn nranks(&self) -> usize {
        match self {
            Supply::Slice(t) => t.nranks(),
            Supply::Stream(s) => s.cursors.len(),
        }
    }

    /// The record at `(rank, pc)`, or `None` past the end of the rank's
    /// stream. Streamed ranks must be fetched in increasing `pc` order
    /// (the engine's access pattern); the trailing `None` fetch is
    /// idempotent.
    #[inline]
    pub(crate) fn fetch(&mut self, rank: usize, pc: usize) -> Option<Record> {
        match self {
            Supply::Slice(t) => t.ranks[rank].records.get(pc).copied(),
            Supply::Stream(s) => s.fetch(rank, pc),
        }
    }

    /// Total (post-expansion) record count of one rank. Under streaming
    /// this drains the rank's remaining stream — only called on the
    /// cold deadlock-report path, where the engine is already dead.
    pub(crate) fn total_len(&mut self, rank: usize) -> usize {
        match self {
            Supply::Slice(t) => t.ranks[rank].records.len(),
            Supply::Stream(s) => {
                let nranks = s.cursors.len();
                let algo = s.algo;
                let c = &mut s.cursors[rank];
                let mut n = c.consumed + c.buf.len();
                for rec in c.iter.by_ref() {
                    collective::expand_one(
                        nranks,
                        Rank(rank as u32),
                        &rec,
                        &mut c.instance,
                        algo,
                        &mut |_| n += 1,
                    );
                }
                n
            }
        }
    }

    /// High-water mark of records resident in the supply: total trace
    /// size for a slice (everything is materialized), buffered + in-hand
    /// records for a stream. This is the engine self-counter backing the
    /// "replay memory is O(active ranks)" claim.
    pub(crate) fn records_peak(&self) -> u64 {
        match self {
            Supply::Slice(t) => t.total_records() as u64,
            Supply::Stream(s) => s.peak,
        }
    }

    /// Records handed to the engine so far (post-expansion).
    pub(crate) fn records_fetched(&self) -> u64 {
        match self {
            Supply::Slice(t) => t.total_records() as u64,
            Supply::Stream(s) => s.fetched,
        }
    }
}

/// Per-rank forward cursors over a [`TraceSource`].
pub(crate) struct StreamSupply<'a> {
    cursors: Vec<RankCursor<'a>>,
    algo: CollectiveAlgo,
    /// Records handed out (post-expansion).
    fetched: u64,
    /// Records currently buffered across all cursors.
    resident: usize,
    /// High-water mark of `resident` + the in-hand record.
    peak: u64,
}

struct RankCursor<'a> {
    iter: Box<dyn Iterator<Item = Record> + 'a>,
    /// Expansion lookahead: holds the not-yet-consumed steps of the
    /// collective most recently pulled from `iter` (bounded by one
    /// collective's fan-out, ≤ 2·(P−1) and ≤ 2·log₂P for trees).
    buf: VecDeque<Record>,
    /// Rank-local collective instance counter (tags internal traffic).
    instance: u32,
    /// Records already handed out — mirrors the engine's `pc`.
    consumed: usize,
}

impl StreamSupply<'_> {
    fn fetch(&mut self, rank: usize, pc: usize) -> Option<Record> {
        let nranks = self.cursors.len();
        let c = &mut self.cursors[rank];
        debug_assert!(
            pc == c.consumed,
            "streamed supply fetched out of order: rank {rank} pc {pc} != consumed {}",
            c.consumed
        );
        loop {
            if let Some(rec) = c.buf.pop_front() {
                self.resident -= 1;
                c.consumed += 1;
                self.fetched += 1;
                self.peak = self.peak.max(self.resident as u64 + 1);
                return Some(rec);
            }
            let rec = c.iter.next()?;
            if matches!(rec, Record::Collective { .. }) {
                let buf = &mut c.buf;
                collective::expand_one(
                    nranks,
                    Rank(rank as u32),
                    &rec,
                    &mut c.instance,
                    self.algo,
                    &mut |r| buf.push_back(r),
                );
                self.resident += c.buf.len();
                // an expansion may be empty (p <= 1): loop to the next
                // source record rather than ending the stream
            } else {
                c.consumed += 1;
                self.fetched += 1;
                self.peak = self.peak.max(self.resident as u64 + 1);
                return Some(rec);
            }
        }
    }
}
