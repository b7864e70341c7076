//! Record supply for the replay engine: one forward cursor per rank
//! over a [`TraceSource`].
//!
//! The engine fetches each `(rank, pc)` exactly once, in increasing
//! `pc` order per rank (every dispatch arm advances `pc` past the
//! record it consumed, and at most one resume is in flight per rank).
//! That access pattern is what makes a forward-only iterator a valid
//! backing store: [`Supply`] keeps one cursor per rank and a buffer
//! holding at most one collective's expansion, so the resident record
//! footprint is O(ranks) for any source.
//!
//! A cursor reads its rank through the source's [`RankRecords`]: a
//! materialized trace's records in place (the sweep's case, with no
//! virtual call per record), or a generator's boxed iterator. The two
//! arms differ only in where the records live; fetching, expansion and
//! the footprint counters are the same code.
//!
//! Collectives expand *inside the cursor* through the same
//! [`collective::expand_one`] the eager rewriter
//! ([`collective::expand_collectives`]) uses, with the same rank-local
//! instance counter, so a trace and its eager expansion replay as
//! byte-identical record sequences.

use crate::collective;
use crate::platform::CollectiveAlgo;
use ovlp_trace::source::{RankRecords, TraceSource};
use ovlp_trace::{Rank, Record};

/// Per-rank forward cursors over a [`TraceSource`].
pub(crate) struct Supply<'a> {
    cursors: Vec<RankCursor<'a>>,
    algo: CollectiveAlgo,
    /// Expanded steps buffered across all cursors; plain records
    /// never touch it.
    resident: usize,
    /// High-water mark of `resident`, taken at each expansion.
    peak: u64,
}

struct RankCursor<'a> {
    iter: RankRecords<'a>,
    /// Steps of the collective last pulled from `iter` (≤ 2·(P−1), ≤
    /// 2·log₂P for trees); `buf[next..]` are not yet handed out.
    buf: Vec<Record>,
    next: usize,
    /// Rank-local collective instance counter (tags internal traffic).
    instance: u32,
    /// Records already handed out — mirrors the engine's `pc`.
    consumed: usize,
}

impl<'a> Supply<'a> {
    pub(crate) fn new(source: &'a dyn TraceSource, algo: CollectiveAlgo) -> Supply<'a> {
        Supply {
            cursors: (0..source.nranks())
                .map(|r| RankCursor {
                    iter: source.rank_records(r),
                    buf: Vec::new(),
                    next: 0,
                    instance: 0,
                    consumed: 0,
                })
                .collect(),
            algo,
            resident: 0,
            peak: 0,
        }
    }

    pub(crate) fn nranks(&self) -> usize {
        self.cursors.len()
    }

    /// The record at `(rank, pc)`, or `None` past the end of the rank's
    /// stream. Ranks must be fetched in increasing `pc` order (the
    /// engine's access pattern); the trailing `None` fetch is
    /// idempotent.
    #[inline]
    pub(crate) fn fetch(&mut self, rank: usize, pc: usize) -> Option<Record> {
        let nranks = self.cursors.len();
        let c = &mut self.cursors[rank];
        debug_assert!(
            pc == c.consumed,
            "supply fetched out of order: rank {rank} pc {pc} != consumed {}",
            c.consumed
        );
        if let Some(&rec) = c.buf.get(c.next) {
            c.next += 1;
            c.consumed += 1;
            self.resident -= 1;
            return Some(rec);
        }
        loop {
            let rec = c.iter.next()?;
            if !matches!(rec, Record::Collective { .. }) {
                c.consumed += 1;
                return Some(rec);
            }
            c.buf.clear();
            let buf = &mut c.buf;
            collective::expand_one(
                nranks,
                Rank(rank as u32),
                &rec,
                &mut c.instance,
                self.algo,
                &mut |r| buf.push(r),
            );
            // an expansion may be empty (p <= 1): loop to the next
            // source record rather than ending the stream
            if let Some(&first) = c.buf.first() {
                self.resident += c.buf.len();
                self.peak = self.peak.max(self.resident as u64);
                c.next = 1;
                c.consumed += 1;
                self.resident -= 1;
                return Some(first);
            }
        }
    }

    /// Hint the cache to load `rank`'s cursor ahead of a fetch, and
    /// with `deep` what it points to (which reads the cursor): the next
    /// record of a slice or the generator object of a stream, and the
    /// next buffered expansion step.
    #[inline]
    pub(crate) fn prefetch(&self, rank: usize, deep: bool) {
        let c = &self.cursors[rank];
        super::prefetch(c);
        if deep {
            match &c.iter {
                RankRecords::Slice(records) => {
                    if let Some(rec) = records.as_slice().first() {
                        super::prefetch(rec);
                    }
                }
                RankRecords::Stream(iter) => super::prefetch(&**iter),
            }
            if let Some(step) = c.buf.get(c.next) {
                super::prefetch(step);
            }
        }
    }

    /// Total (post-expansion) record count of one rank. This drains the
    /// rank's remaining stream — only called on the cold deadlock-report
    /// path, where the engine is already dead.
    pub(crate) fn total_len(&mut self, rank: usize) -> usize {
        let nranks = self.cursors.len();
        let algo = self.algo;
        let c = &mut self.cursors[rank];
        let mut n = c.consumed + (c.buf.len() - c.next);
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

    /// High-water mark of records resident in the supply: buffered
    /// expansion steps plus the record in hand (the engine self-counter
    /// behind "replay memory is O(active ranks)"). Steps only grow at an
    /// expansion, whose first step is handed out at once, so the peak
    /// is the largest post-expansion count, or 1 once anything was
    /// fetched.
    pub(crate) fn records_peak(&self) -> u64 {
        if self.records_fetched() > 0 {
            self.peak.max(1)
        } else {
            self.peak
        }
    }

    /// Records handed to the engine so far (post-expansion).
    pub(crate) fn records_fetched(&self) -> u64 {
        self.cursors.iter().map(|c| c.consumed as u64).sum()
    }
}
