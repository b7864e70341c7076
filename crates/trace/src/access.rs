//! Element-level production/consumption logs.
//!
//! This is the second artefact the instrumentation front end produces —
//! the equivalent of the paper's Valgrind tool "tracking each memory
//! activity to monitor accesses to the transferred data" (§III-C).
//!
//! * For every **send** transfer, a [`ProductionLog`] records, per
//!   element of the sent buffer, the instruction count of its *last
//!   store* within the production interval (the time between two
//!   consecutive sends of that buffer). Advancing sends injects each
//!   chunk's send at the maximum last-store time over the chunk's
//!   elements.
//! * For every **receive** transfer, a [`ConsumptionLog`] records, per
//!   element, the *first load* within the consumption interval (between
//!   two consecutive receives into that buffer). Post-postponing
//!   receptions injects each chunk's wait at the minimum first-load time
//!   over the chunk's elements.
//!
//! Per-element times are packed [`Stamp`]s (8 bytes each, half an
//! `Option<Instructions>`): the access logs of a 64-rank trace hold
//! millions of them. A log is sealed when it is built and keeps a
//! per-block summary of its stamps, so a chunk's ready or need time
//! reads only the stamps at the chunk's two ends.
//!
//! Both logs optionally keep the *full* event scatter (every access with
//! its interval-relative position), which is what Figure 5 of the paper
//! plots. Only commands that read the scatter capture it.

use crate::ids::{Rank, TransferId};
use crate::units::Instructions;
use std::collections::HashMap;

/// An element's access time within one interval, packed into one word:
/// `t + 1` for an access at instruction count `t`, `0` when the element
/// was not accessed in the interval. `trace_fingerprint` digests each
/// log's packed words, and the block index of a sealed log summarizes
/// them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct Stamp(u64);

const _: () = assert!(std::mem::size_of::<Stamp>() == 8);

impl Stamp {
    /// Not accessed in the interval.
    pub const NEVER: Stamp = Stamp(0);

    /// An access at instruction count `t` (`t < u64::MAX`).
    #[inline]
    pub fn at(t: u64) -> Stamp {
        Stamp(t + 1)
    }

    /// The access time, or `None` when the element was not accessed.
    #[inline]
    pub fn get(self) -> Option<Instructions> {
        self.0.checked_sub(1).map(Instructions)
    }

    #[inline]
    pub fn is_never(self) -> bool {
        self.0 == 0
    }

    /// The packed word: `t + 1`, or `0` for never.
    #[inline]
    pub fn bits(self) -> u64 {
        self.0
    }
}

impl From<Option<u64>> for Stamp {
    fn from(t: Option<u64>) -> Stamp {
        t.map_or(Stamp::NEVER, Stamp::at)
    }
}

/// One raw access event kept for scatter plots: element offset and the
/// absolute instruction count at which it happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessEvent {
    pub offset: u32,
    pub at: Instructions,
}

/// Elements per block of a sealed log's [`BlockIndex`]: a chunk query
/// reads at most two partial blocks of stamps plus one summary per
/// whole block in between.
const BLOCK: usize = 64;

/// Per-block summary of one sealed stamp slice under a key of the
/// packed word that is 0 for a never-accessed element and grows
/// toward the extreme the chunk queries want: the largest key of each
/// [`BLOCK`]-element block, and one bit per block that is set when the
/// block holds a key-0 element. It depends on the stamps alone, never
/// on the interval bounds, and is built once when the log is sealed;
/// the stamps cannot change afterwards, so it cannot go stale.
#[derive(Debug, Clone, PartialEq, Eq)]
struct BlockIndex {
    max: Vec<u64>,
    never: Vec<u64>,
}

impl BlockIndex {
    fn build(stamps: &[Stamp], key: impl Fn(u64) -> u64) -> BlockIndex {
        let blocks = stamps.len().div_ceil(BLOCK);
        let mut max = Vec::with_capacity(blocks);
        let mut never = vec![0u64; blocks.div_ceil(64)];
        for (b, block) in stamps.chunks(BLOCK).enumerate() {
            let (m, z) = fold_keys(block, (0, false), &key);
            max.push(m);
            never[b / 64] |= u64::from(z) << (b % 64);
        }
        BlockIndex { max, never }
    }

    /// The largest key over `stamps[lo..hi]` and whether any key there
    /// is 0, or `None` for an empty range. Whole blocks are read from
    /// the index, so only the two partial blocks at the ends touch the
    /// stamps.
    fn extremes(
        &self,
        stamps: &[Stamp],
        lo: usize,
        hi: usize,
        key: impl Fn(u64) -> u64,
    ) -> Option<(u64, bool)> {
        if lo >= hi {
            return None;
        }
        let first = lo.div_ceil(BLOCK);
        let last = hi / BLOCK;
        if first >= last {
            // no whole block inside the range
            return Some(fold_keys(&stamps[lo..hi], (0, false), &key));
        }
        let mut acc = fold_keys(&stamps[lo..first * BLOCK], (0, false), &key);
        for b in first..last {
            acc.0 = acc.0.max(self.max[b]);
            acc.1 |= self.never[b / 64] >> (b % 64) & 1 != 0;
        }
        Some(fold_keys(&stamps[last * BLOCK..hi], acc, &key))
    }
}

/// `acc` widened by the largest key in `stamps` and whether any key is
/// 0, folded in four independent lanes so the compares do not wait on
/// each other.
#[inline]
fn fold_keys(stamps: &[Stamp], acc: (u64, bool), key: impl Fn(u64) -> u64) -> (u64, bool) {
    let mut max = [acc.0; 4];
    let mut min = [u64::MAX; 4];
    let mut quads = stamps.chunks_exact(4);
    for q in &mut quads {
        for j in 0..4 {
            let k = key(q[j].bits());
            max[j] = max[j].max(k);
            min[j] = min[j].min(k);
        }
    }
    for (j, s) in quads.remainder().iter().enumerate() {
        let k = key(s.bits());
        max[j] = max[j].max(k);
        min[j] = min[j].min(k);
    }
    (
        max[0].max(max[1]).max(max[2].max(max[3])),
        acc.1 || min[0].min(min[1]).min(min[2].min(min[3])) == 0,
    )
}

/// Production key: the packed word itself (`t + 1`), so the largest key
/// is the latest store.
#[inline]
fn production_key(bits: u64) -> u64 {
    bits
}

/// Consumption key: `!t` for a load at `t` (never 0, since `t <
/// u64::MAX`), 0 for an unread element, so the largest key is the
/// earliest load.
#[inline]
fn consumption_key(bits: u64) -> u64 {
    !bits.wrapping_sub(1)
}

/// Per-element production data for one send transfer.
///
/// The stamps are sealed at construction ([`ProductionLog::new`]) and
/// read through [`ProductionLog::last_store`]; equality compares
/// content.
#[derive(Debug, Clone, PartialEq)]
pub struct ProductionLog {
    pub transfer: TransferId,
    /// Number of elements in the transferred buffer region.
    pub elems: u32,
    /// Start of the production interval (previous send of this buffer,
    /// or the buffer's creation time).
    pub interval_start: Instructions,
    /// End of the production interval (the send itself).
    pub interval_end: Instructions,
    last_store: Vec<Stamp>,
    index: BlockIndex,
    /// Optional full store scatter (may be empty if capture is disabled).
    pub events: Vec<AccessEvent>,
}

impl ProductionLog {
    /// Seal a production interval: `last_store[i]` is the final write
    /// to element `i` inside the interval, [`Stamp::NEVER`] if the
    /// element was never written. Builds the block index while the
    /// stamps are still hot in cache.
    pub fn new(
        transfer: TransferId,
        interval_start: Instructions,
        interval_end: Instructions,
        last_store: Vec<Stamp>,
    ) -> ProductionLog {
        assert!(last_store.len() <= u32::MAX as usize, "log too large");
        ProductionLog {
            transfer,
            elems: last_store.len() as u32,
            interval_start,
            interval_end,
            index: BlockIndex::build(&last_store, production_key),
            last_store,
            events: Vec::new(),
        }
    }

    /// `last_store[i]` = instruction count of the final write to element
    /// `i` inside the interval; [`Stamp::NEVER`] if the element was never
    /// written (it then counts as produced at the interval start — its
    /// value predates the interval).
    pub fn last_store(&self) -> &[Stamp] {
        &self.last_store
    }

    /// Effective production time of element `i`: its last store, or the
    /// interval start when it was never written.
    pub fn produced_at(&self, i: usize) -> Instructions {
        self.last_store[i].get().unwrap_or(self.interval_start)
    }

    /// Latest production time over an element range (the earliest moment
    /// the range can be sent): the maximum of [`produced_at`] over
    /// `lo..hi`, the interval start for an empty range.
    ///
    /// [`produced_at`]: ProductionLog::produced_at
    pub fn range_ready_at(&self, lo: usize, hi: usize) -> Instructions {
        let start = self.interval_start;
        match self
            .index
            .extremes(&self.last_store, lo, hi, production_key)
        {
            None | Some((0, _)) => start,
            // an unwritten element in the range counts at the start
            Some((key, true)) => Instructions(key - 1).max(start),
            Some((key, false)) => Instructions(key - 1),
        }
    }
}

/// Per-element consumption data for one receive transfer.
///
/// The stamps are sealed at construction ([`ConsumptionLog::new`]) and
/// read through [`ConsumptionLog::first_load`]; equality compares
/// content.
#[derive(Debug, Clone, PartialEq)]
pub struct ConsumptionLog {
    pub transfer: TransferId,
    pub elems: u32,
    /// Start of the consumption interval (the receive itself).
    pub interval_start: Instructions,
    /// End of the consumption interval (next receive into this buffer,
    /// or end of run).
    pub interval_end: Instructions,
    first_load: Vec<Stamp>,
    index: BlockIndex,
    /// Optional full load scatter.
    pub events: Vec<AccessEvent>,
}

impl ConsumptionLog {
    /// Seal a consumption interval: `first_load[i]` is the first read of
    /// element `i` inside the interval, [`Stamp::NEVER`] if it is never
    /// read. Builds the block index while the stamps are still hot in
    /// cache.
    pub fn new(
        transfer: TransferId,
        interval_start: Instructions,
        interval_end: Instructions,
        first_load: Vec<Stamp>,
    ) -> ConsumptionLog {
        assert!(first_load.len() <= u32::MAX as usize, "log too large");
        ConsumptionLog {
            transfer,
            elems: first_load.len() as u32,
            interval_start,
            interval_end,
            index: BlockIndex::build(&first_load, consumption_key),
            first_load,
            events: Vec::new(),
        }
    }

    /// `first_load[i]` = instruction count of the first read of element
    /// `i` inside the interval; [`Stamp::NEVER`] if the element is never
    /// read (its wait can be postponed to the interval end).
    pub fn first_load(&self) -> &[Stamp] {
        &self.first_load
    }

    /// Effective need time of element `i`: its first load, or the
    /// interval end when it is never read.
    pub fn needed_at(&self, i: usize) -> Instructions {
        self.first_load[i].get().unwrap_or(self.interval_end)
    }

    /// Earliest need time over an element range (the latest moment the
    /// range's wait may execute): the minimum of [`needed_at`] over
    /// `lo..hi`, the interval end for an empty range.
    ///
    /// [`needed_at`]: ConsumptionLog::needed_at
    pub fn range_needed_at(&self, lo: usize, hi: usize) -> Instructions {
        let end = self.interval_end;
        match self
            .index
            .extremes(&self.first_load, lo, hi, consumption_key)
        {
            None | Some((0, _)) => end,
            // an unread element in the range counts at the end
            Some((key, true)) => Instructions(!key).min(end),
            Some((key, false)) => Instructions(!key),
        }
    }
}

/// All access logs produced by one rank.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RankAccessLog {
    pub productions: HashMap<TransferId, ProductionLog>,
    pub consumptions: HashMap<TransferId, ConsumptionLog>,
}

impl RankAccessLog {
    pub fn is_empty(&self) -> bool {
        self.productions.is_empty() && self.consumptions.is_empty()
    }
}

/// Access logs for a whole run, indexed by rank.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AccessDb {
    pub ranks: Vec<RankAccessLog>,
}

impl AccessDb {
    pub fn new(nranks: usize) -> AccessDb {
        AccessDb {
            ranks: vec![RankAccessLog::default(); nranks],
        }
    }

    pub fn production(&self, t: TransferId) -> Option<&ProductionLog> {
        self.ranks.get(t.rank.idx())?.productions.get(&t)
    }

    pub fn consumption(&self, t: TransferId) -> Option<&ConsumptionLog> {
        self.ranks.get(t.rank.idx())?.consumptions.get(&t)
    }

    pub fn insert_production(&mut self, log: ProductionLog) {
        let r = log.transfer.rank.idx();
        self.ranks[r].productions.insert(log.transfer, log);
    }

    pub fn insert_consumption(&mut self, log: ConsumptionLog) {
        let r = log.transfer.rank.idx();
        self.ranks[r].consumptions.insert(log.transfer, log);
    }

    pub fn all_productions(&self) -> impl Iterator<Item = &ProductionLog> {
        self.ranks.iter().flat_map(|r| r.productions.values())
    }

    pub fn all_consumptions(&self) -> impl Iterator<Item = &ConsumptionLog> {
        self.ranks.iter().flat_map(|r| r.consumptions.values())
    }
}

/// Convenience constructor for tests: a production log with explicit
/// per-element last-store times.
pub fn production_log_for_test(
    rank: u32,
    seq: u32,
    start: u64,
    end: u64,
    last_store: &[Option<u64>],
) -> ProductionLog {
    ProductionLog::new(
        TransferId::new(Rank(rank), seq),
        Instructions(start),
        Instructions(end),
        last_store.iter().map(|&o| Stamp::from(o)).collect(),
    )
}

/// Convenience constructor for tests: a consumption log with explicit
/// per-element first-load times.
pub fn consumption_log_for_test(
    rank: u32,
    seq: u32,
    start: u64,
    end: u64,
    first_load: &[Option<u64>],
) -> ConsumptionLog {
    ConsumptionLog::new(
        TransferId::new(Rank(rank), seq),
        Instructions(start),
        Instructions(end),
        first_load.iter().map(|&o| Stamp::from(o)).collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn produced_at_defaults_to_interval_start() {
        let p = production_log_for_test(0, 0, 100, 200, &[Some(150), None, Some(190)]);
        assert_eq!(p.produced_at(0), Instructions(150));
        assert_eq!(p.produced_at(1), Instructions(100));
        assert_eq!(p.range_ready_at(0, 3), Instructions(190));
        assert_eq!(p.range_ready_at(0, 2), Instructions(150));
        assert_eq!(p.range_ready_at(1, 2), Instructions(100));
    }

    #[test]
    fn needed_at_defaults_to_interval_end() {
        let c = consumption_log_for_test(0, 1, 200, 400, &[None, Some(250), Some(220)]);
        assert_eq!(c.needed_at(0), Instructions(400));
        assert_eq!(c.range_needed_at(0, 3), Instructions(220));
        assert_eq!(c.range_needed_at(0, 1), Instructions(400));
    }

    #[test]
    fn stamps_pack_time_plus_one() {
        assert_eq!(Stamp::NEVER.bits(), 0);
        assert!(Stamp::NEVER.is_never());
        assert_eq!(Stamp::NEVER.get(), None);
        assert_eq!(Stamp::at(0).bits(), 1);
        assert_eq!(Stamp::at(0).get(), Some(Instructions(0)));
        assert_eq!(Stamp::from(Some(41)).get(), Some(Instructions(41)));
        assert_eq!(Stamp::from(None), Stamp::NEVER);
        assert_eq!(Stamp::default(), Stamp::NEVER);
    }

    #[test]
    fn empty_ranges_fall_back() {
        let p = production_log_for_test(0, 0, 100, 200, &[]);
        assert_eq!(p.range_ready_at(0, 0), Instructions(100));
        let c = consumption_log_for_test(0, 1, 200, 400, &[]);
        assert_eq!(c.range_needed_at(0, 0), Instructions(400));
    }

    /// SplitMix64, so the random logs below are reproducible.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// A random interval `[start, end)` and `len` times: per log, a
    /// share of missing times (none, few, a quarter or all) and a
    /// window the times come from (around the interval, all before its
    /// start, or all after its end), so a missing element sometimes
    /// decides a range and sometimes does not. The extreme packable
    /// times are included.
    fn random_log(rng: &mut Rng, len: usize) -> (u64, u64, Vec<Option<u64>>) {
        let start = 1 + rng.below(10_000);
        let end = start + rng.below(10_000);
        let never = [0, 2, 25, 100][rng.below(4) as usize];
        let (lo, hi) = [(0, 30_000), (0, start), (end, end + 10_000)][rng.below(3) as usize];
        let times = (0..len)
            .map(|_| match rng.below(100) {
                k if k < never => None,
                k if k == 99 && lo == 0 => Some(0),
                k if k == 98 && hi > end => Some(u64::MAX - 1),
                _ => Some(lo + rng.below(hi - lo)),
            })
            .collect();
        (start, end, times)
    }

    /// `range_ready_at`/`range_needed_at` as the per-element fold they
    /// summarize.
    fn naive(p: &ProductionLog, c: &ConsumptionLog, lo: usize, hi: usize) -> (u64, u64) {
        let ready = (lo..hi).map(|i| p.produced_at(i)).max();
        let need = (lo..hi).map(|i| c.needed_at(i)).min();
        (
            ready.unwrap_or(p.interval_start).get(),
            need.unwrap_or(c.interval_end).get(),
        )
    }

    fn indexed(p: &ProductionLog, c: &ConsumptionLog, lo: usize, hi: usize) -> (u64, u64) {
        (
            p.range_ready_at(lo, hi).get(),
            c.range_needed_at(lo, hi).get(),
        )
    }

    /// The chunks `ChunkPolicy::boundaries` (ovlp-core) cuts an
    /// `elems`-element message into for `chunks` target chunks at the
    /// default one-element minimum: an even split, the remainder spread
    /// over the leading chunks.
    fn boundaries(elems: usize, chunks: usize) -> Vec<(usize, usize)> {
        let n = chunks.min(elems).max(1);
        let mut lo = 0;
        (0..n)
            .map(|k| {
                let size = elems / n + usize::from(k < elems % n);
                lo += size;
                (lo - size, lo)
            })
            .collect()
    }

    #[test]
    fn indexed_range_queries_equal_the_per_element_fold() {
        let mut rng = Rng(0x5eed);
        let lens = [0, 1, 2, 63, 64, 65, 127, 128, 129, 130, 1000, 4099, 9000];
        for (round, &len) in lens.iter().cycle().take(8 * lens.len()).enumerate() {
            let (start, end, times) = random_log(&mut rng, len);
            let p = production_log_for_test(0, round as u32, start, end, &times);
            let (cs, ce, times) = random_log(&mut rng, len);
            let c = consumption_log_for_test(1, round as u32, cs, ce, &times);
            // every chunk of every policy the sweep grids use
            for chunks in 1..=16 {
                for (lo, hi) in boundaries(len, chunks) {
                    assert_eq!(indexed(&p, &c, lo, hi), naive(&p, &c, lo, hi));
                }
            }
            // empty and single-element ranges everywhere, every range of
            // short logs, and random ranges of long ones
            for i in 0..=len {
                assert_eq!(indexed(&p, &c, i, i), naive(&p, &c, i, i));
                if i < len {
                    assert_eq!(indexed(&p, &c, i, i + 1), naive(&p, &c, i, i + 1));
                }
            }
            if len <= 130 {
                for lo in 0..=len {
                    for hi in lo..=len {
                        assert_eq!(indexed(&p, &c, lo, hi), naive(&p, &c, lo, hi));
                    }
                }
            } else {
                for _ in 0..500 {
                    let lo = rng.below(len as u64 + 1) as usize;
                    let hi = lo + rng.below((len - lo) as u64 + 1) as usize;
                    assert_eq!(indexed(&p, &c, lo, hi), naive(&p, &c, lo, hi));
                }
            }
        }
    }

    #[test]
    fn all_never_and_all_accessed_blocks_answer_from_the_index() {
        let never = vec![None; 3 * BLOCK + 5];
        let p = production_log_for_test(0, 0, 40, 90, &never);
        let c = consumption_log_for_test(0, 1, 40, 90, &never);
        assert_eq!(p.range_ready_at(1, 3 * BLOCK + 4), Instructions(40));
        assert_eq!(c.range_needed_at(1, 3 * BLOCK + 4), Instructions(90));
        // one unwritten element in a whole block pulls the ready time
        // up to the interval start, one unread element pulls the need
        // time down to the interval end
        let mut early: Vec<Option<u64>> = vec![Some(10); 2 * BLOCK];
        early[BLOCK + 7] = None;
        let p = production_log_for_test(0, 0, 40, 90, &early);
        assert_eq!(p.range_ready_at(0, BLOCK), Instructions(10));
        assert_eq!(p.range_ready_at(0, 2 * BLOCK), Instructions(40));
        let mut late: Vec<Option<u64>> = vec![Some(500); 2 * BLOCK];
        late[3] = None;
        let c = consumption_log_for_test(0, 1, 40, 90, &late);
        assert_eq!(c.range_needed_at(BLOCK, 2 * BLOCK), Instructions(500));
        assert_eq!(c.range_needed_at(0, 2 * BLOCK), Instructions(90));
    }

    #[test]
    fn db_indexing() {
        let mut db = AccessDb::new(2);
        db.insert_production(production_log_for_test(1, 3, 0, 10, &[Some(5)]));
        db.insert_consumption(consumption_log_for_test(0, 7, 0, 10, &[Some(2)]));
        assert!(db.production(TransferId::new(Rank(1), 3)).is_some());
        assert!(db.production(TransferId::new(Rank(0), 3)).is_none());
        assert!(db.consumption(TransferId::new(Rank(0), 7)).is_some());
        assert_eq!(db.all_productions().count(), 1);
        assert_eq!(db.all_consumptions().count(), 1);
        assert!(!db.ranks[0].is_empty());
    }
}
