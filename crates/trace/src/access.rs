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
//! millions of them.
//!
//! Both logs optionally keep the *full* event scatter (every access with
//! its interval-relative position), which is what Figure 5 of the paper
//! plots. Only commands that read the scatter capture it.

use crate::ids::{Rank, TransferId};
use crate::units::Instructions;
use std::collections::HashMap;

/// An element's access time within one interval, packed into one word:
/// `t + 1` for an access at instruction count `t`, `0` when the element
/// was not accessed in the interval. The packed word is exactly what
/// `trace_fingerprint` hashes per element.
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

/// Per-element production data for one send transfer.
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
    /// `last_store[i]` = instruction count of the final write to element
    /// `i` inside the interval; [`Stamp::NEVER`] if the element was never
    /// written (it then counts as produced at the interval start — its
    /// value predates the interval).
    pub last_store: Vec<Stamp>,
    /// Optional full store scatter (may be empty if capture is disabled).
    pub events: Vec<AccessEvent>,
}

impl ProductionLog {
    /// Effective production time of element `i`: its last store, or the
    /// interval start when it was never written.
    pub fn produced_at(&self, i: usize) -> Instructions {
        self.last_store[i].get().unwrap_or(self.interval_start)
    }

    /// Latest production time over an element range (the earliest moment
    /// the range can be sent).
    pub fn range_ready_at(&self, lo: usize, hi: usize) -> Instructions {
        (lo..hi)
            .map(|i| self.produced_at(i))
            .max()
            .unwrap_or(self.interval_start)
    }
}

/// Per-element consumption data for one receive transfer.
#[derive(Debug, Clone, PartialEq)]
pub struct ConsumptionLog {
    pub transfer: TransferId,
    pub elems: u32,
    /// Start of the consumption interval (the receive itself).
    pub interval_start: Instructions,
    /// End of the consumption interval (next receive into this buffer,
    /// or end of run).
    pub interval_end: Instructions,
    /// `first_load[i]` = instruction count of the first read of element
    /// `i` inside the interval; [`Stamp::NEVER`] if the element is never
    /// read (its wait can be postponed to the interval end).
    pub first_load: Vec<Stamp>,
    /// Optional full load scatter.
    pub events: Vec<AccessEvent>,
}

impl ConsumptionLog {
    /// Effective need time of element `i`: its first load, or the
    /// interval end when it is never read.
    pub fn needed_at(&self, i: usize) -> Instructions {
        self.first_load[i].get().unwrap_or(self.interval_end)
    }

    /// Earliest need time over an element range (the latest moment the
    /// range's wait may execute).
    pub fn range_needed_at(&self, lo: usize, hi: usize) -> Instructions {
        (lo..hi)
            .map(|i| self.needed_at(i))
            .min()
            .unwrap_or(self.interval_end)
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
    ProductionLog {
        transfer: TransferId::new(Rank(rank), seq),
        elems: last_store.len() as u32,
        interval_start: Instructions(start),
        interval_end: Instructions(end),
        last_store: last_store.iter().map(|&o| Stamp::from(o)).collect(),
        events: Vec::new(),
    }
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
    ConsumptionLog {
        transfer: TransferId::new(Rank(rank), seq),
        elems: first_load.len() as u32,
        interval_start: Instructions(start),
        interval_end: Instructions(end),
        first_load: first_load.iter().map(|&o| Stamp::from(o)).collect(),
        events: Vec::new(),
    }
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
