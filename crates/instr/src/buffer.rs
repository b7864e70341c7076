//! Tracked communication buffers.
//!
//! A [`TrackedBuf`] is the instrumented equivalent of a communicated
//! array in the real application: every `load`/`store` goes through an
//! accessor that (a) charges the rank's virtual instruction counter via
//! the [`CostModel`] and (b) records the access in the
//! buffer's production/consumption trackers — mirroring the paper's
//! Valgrind tool, which "intercepts and processes every application's
//! load and store access" (§III-C).
//!
//! Lifecycle hooks (called by [`RankCtx`](crate::RankCtx)):
//!
//! * a **send** closes the current *production interval* (everything
//!   stored since the previous send of this buffer) into a
//!   [`ProductionLog`];
//! * a **receive** closes the previous *consumption interval* (if any)
//!   into a [`ConsumptionLog`] and opens a new one; loads are recorded
//!   against the open consumption interval.

use crate::cost::CostModel;
use ovlp_trace::access::{AccessEvent, ConsumptionLog, ProductionLog, Stamp};
use ovlp_trace::{Instructions, TransferId};
use std::cell::{Cell, RefCell};
use std::rc::Rc;

/// Per-rank state shared between the context and its buffers: the
/// virtual instruction counter and the cost model.
#[derive(Debug)]
pub(crate) struct RankShared {
    pub icount: Cell<u64>,
    pub cost: CostModel,
    /// Capture full access scatters (Figure 5 data) in addition to the
    /// per-element last-store/first-load summaries.
    pub scatter: bool,
    /// Cap on captured scatter events per interval.
    pub scatter_cap: usize,
    /// Consumption logs flushed by buffers dropped with an interval
    /// still open (their interval ends at drop time); collected by
    /// `RankCtx::finalize`.
    pub cons_sink: RefCell<Vec<ConsumptionLog>>,
}

impl RankShared {
    #[inline]
    pub fn charge(&self, instr: u64) {
        self.icount.set(self.icount.get() + instr);
    }

    #[inline]
    pub fn now(&self) -> u64 {
        self.icount.get()
    }
}

/// An instrumented `f64` buffer.
pub struct TrackedBuf {
    pub(crate) data: Vec<f64>,
    shared: Rc<RankShared>,
    // --- production tracking (stores since last send) ---
    last_store: Vec<Stamp>,
    prod_events: Vec<AccessEvent>,
    prod_start: u64,
    // --- consumption tracking (loads since last recv); `first_load` and
    // `cons_events` are empty while no interval is open ---
    first_load: Vec<Stamp>,
    cons_events: Vec<AccessEvent>,
    cons_start: u64,
    open_consumption: Option<TransferId>,
}

impl TrackedBuf {
    pub(crate) fn new(shared: Rc<RankShared>, len: usize) -> TrackedBuf {
        assert!(len < u32::MAX as usize, "buffer too large to track");
        let now = shared.now();
        TrackedBuf {
            data: vec![0.0; len],
            shared,
            last_store: vec![Stamp::NEVER; len],
            prod_events: Vec::new(),
            prod_start: now,
            first_load: Vec::new(),
            cons_events: Vec::new(),
            cons_start: now,
            open_consumption: None,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Tracked read of element `i`: charges the load cost and, if a
    /// consumption interval is open, records the element's first load.
    #[inline]
    pub fn load(&mut self, i: usize) -> f64 {
        self.shared.charge(self.shared.cost.load);
        if self.open_consumption.is_some() && self.first_load[i].is_never() {
            self.first_load[i] = Stamp::at(self.shared.now());
        }
        if self.shared.scatter
            && self.open_consumption.is_some()
            && self.cons_events.len() < self.shared.scatter_cap
        {
            self.cons_events.push(AccessEvent {
                offset: i as u32,
                at: Instructions(self.shared.now()),
            });
        }
        self.data[i]
    }

    /// Tracked write of element `i`: charges the store cost and records
    /// the element's last store for the open production interval.
    #[inline]
    pub fn store(&mut self, i: usize, v: f64) {
        self.shared.charge(self.shared.cost.store);
        let now = self.shared.now();
        self.last_store[i] = Stamp::at(now);
        if self.shared.scatter && self.prod_events.len() < self.shared.scatter_cap {
            self.prod_events.push(AccessEvent {
                offset: i as u32,
                at: Instructions(now),
            });
        }
        self.data[i] = v;
    }

    /// Untracked initialization (setup writes that the real tool would
    /// see outside any production interval of interest). Charges
    /// nothing and records nothing.
    pub fn init(&mut self, f: impl Fn(usize) -> f64) {
        for i in 0..self.data.len() {
            self.data[i] = f(i);
        }
    }

    /// Untracked read-only view, for assertions and result checking.
    pub fn raw(&self) -> &[f64] {
        &self.data
    }

    // ------------------------------------------------------------------
    // lifecycle hooks (crate-internal, driven by RankCtx)
    // ------------------------------------------------------------------

    /// Close the current production interval at `now`, returning its log
    /// keyed by `transfer`, and open the next interval. The summary moves
    /// into the log as is and is indexed there while still hot in cache;
    /// the next interval starts from fresh stamps.
    pub(crate) fn take_production(&mut self, now: u64, transfer: TransferId) -> ProductionLog {
        let fresh = vec![Stamp::NEVER; self.data.len()];
        let mut log = ProductionLog::new(
            transfer,
            Instructions(self.prod_start),
            Instructions(now),
            std::mem::replace(&mut self.last_store, fresh),
        );
        log.events = std::mem::take(&mut self.prod_events);
        self.prod_start = now;
        log
    }

    /// Close the open consumption interval (if any) at `now`, indexing
    /// its summary while still hot in cache.
    pub(crate) fn end_consumption(&mut self, now: u64) -> Option<ConsumptionLog> {
        let transfer = self.open_consumption.take()?;
        let mut log = ConsumptionLog::new(
            transfer,
            Instructions(self.cons_start),
            Instructions(now),
            std::mem::take(&mut self.first_load),
        );
        log.events = std::mem::take(&mut self.cons_events);
        Some(log)
    }

    /// Open a consumption interval for the message received as
    /// `transfer` at `now`.
    pub(crate) fn begin_consumption(&mut self, now: u64, transfer: TransferId) {
        debug_assert!(self.open_consumption.is_none());
        debug_assert!(self.first_load.is_empty() && self.cons_events.is_empty());
        self.first_load = vec![Stamp::NEVER; self.data.len()];
        self.cons_start = now;
        self.open_consumption = Some(transfer);
    }

    /// Overwrite contents with a received payload (data-plane copy; the
    /// trace cost of the transfer is modeled by the simulator, not
    /// charged to the instruction counter).
    pub(crate) fn install_payload(&mut self, payload: &[f64]) {
        assert_eq!(
            payload.len(),
            self.data.len(),
            "received payload size mismatch"
        );
        self.data.copy_from_slice(payload);
    }

    /// Copy of the contents for sending.
    pub(crate) fn snapshot(&self) -> Vec<f64> {
        self.data.clone()
    }
}

impl Drop for TrackedBuf {
    fn drop(&mut self) {
        let now = self.shared.now();
        if let Some(log) = self.end_consumption(now) {
            self.shared.cons_sink.borrow_mut().push(log);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ovlp_trace::Rank;

    fn shared(scatter: bool) -> Rc<RankShared> {
        Rc::new(RankShared {
            icount: Cell::new(0),
            cost: CostModel::default(),
            scatter,
            scatter_cap: 1024,
            cons_sink: RefCell::new(Vec::new()),
        })
    }

    fn tid(seq: u32) -> TransferId {
        TransferId::new(Rank(0), seq)
    }

    #[test]
    fn stores_charge_and_record_last() {
        let sh = shared(false);
        let mut b = TrackedBuf::new(sh.clone(), 4);
        b.store(0, 1.0);
        sh.charge(10);
        b.store(0, 2.0); // overwrites: last store moves
        b.store(2, 3.0);
        let now = sh.now();
        let log = b.take_production(now, tid(0));
        assert_eq!(log.last_store()[0].get(), Some(Instructions(12))); // 1 + 10 + 1
        assert_eq!(log.last_store()[1], Stamp::NEVER);
        assert_eq!(log.last_store()[2].get(), Some(Instructions(13)));
        assert_eq!(log.interval_start, Instructions(0));
        assert_eq!(log.interval_end, Instructions(now));
        assert_eq!(b.raw()[0], 2.0);
    }

    #[test]
    fn production_interval_resets_after_send() {
        let sh = shared(false);
        let mut b = TrackedBuf::new(sh.clone(), 2);
        b.store(0, 1.0);
        let t1 = sh.now();
        let _ = b.take_production(t1, tid(0));
        b.store(1, 2.0);
        let t2 = sh.now();
        let log = b.take_production(t2, tid(1));
        assert_eq!(log.interval_start, Instructions(t1));
        assert_eq!(
            log.last_store()[0],
            Stamp::NEVER,
            "store from previous interval"
        );
        assert!(!log.last_store()[1].is_never());
    }

    #[test]
    fn loads_only_tracked_inside_consumption() {
        let sh = shared(false);
        let mut b = TrackedBuf::new(sh.clone(), 3);
        b.init(|i| i as f64);
        let _ = b.load(0); // before any recv: untracked (but charged)
        assert_eq!(sh.now(), 1);
        b.begin_consumption(sh.now(), tid(0));
        sh.charge(100);
        assert_eq!(b.load(1), 1.0);
        assert_eq!(b.load(1), 1.0); // second load doesn't move first_load
        let log = b.end_consumption(sh.now()).unwrap();
        assert_eq!(log.first_load()[0], Stamp::NEVER);
        assert_eq!(log.first_load()[1].get(), Some(Instructions(102)));
        assert_eq!(log.first_load()[2], Stamp::NEVER);
    }

    #[test]
    fn end_consumption_without_open_interval_is_none() {
        let sh = shared(false);
        let mut b = TrackedBuf::new(sh, 2);
        assert!(b.end_consumption(5).is_none());
    }

    #[test]
    fn scatter_capture_and_cap() {
        let sh = Rc::new(RankShared {
            icount: Cell::new(0),
            cost: CostModel::default(),
            scatter: true,
            scatter_cap: 3,
            cons_sink: RefCell::new(Vec::new()),
        });
        let mut b = TrackedBuf::new(sh.clone(), 8);
        for i in 0..8 {
            b.store(i, i as f64);
        }
        let log = b.take_production(sh.now(), tid(0));
        assert_eq!(log.events.len(), 3, "capped");
        assert_eq!(log.events[0].offset, 0);
        // summaries are not capped
        assert!(log.last_store().iter().all(|o| !o.is_never()));
    }

    #[test]
    fn payload_roundtrip() {
        let sh = shared(false);
        let mut a = TrackedBuf::new(sh.clone(), 3);
        a.init(|i| (i * 10) as f64);
        let snap = a.snapshot();
        let mut c = TrackedBuf::new(sh, 3);
        c.install_payload(&snap);
        assert_eq!(c.raw(), &[0.0, 10.0, 20.0]);
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn payload_size_checked() {
        let sh = shared(false);
        let mut b = TrackedBuf::new(sh, 3);
        b.install_payload(&[1.0]);
    }

    #[test]
    fn init_is_untracked() {
        let sh = shared(false);
        let mut b = TrackedBuf::new(sh.clone(), 4);
        b.init(|_| 7.0);
        assert_eq!(sh.now(), 0);
        let log = b.take_production(0, tid(0));
        assert!(log.last_store().iter().all(|o| o.is_never()));
    }
}
