//! Active-flow bookkeeping for the flow-level contention model.
//!
//! A [`FlowNet`] tracks every in-flight inter-node transfer as a flow
//! over its static route. Rates are piecewise constant: they only
//! change when a flow starts or finishes (or a fault changes a link),
//! and each change point recomputes the max-min fair allocation and
//! re-estimates the completion time of every flow whose rate changed.
//!
//! Completion events already sitting in the engine's queue cannot be
//! removed, so each re-estimate carries a fresh *epoch*: the engine
//! drops any `FlowDone` whose epoch is no longer the flow's current
//! one. A flow's estimate is deliberately left untouched while its rate
//! is bit-for-bit unchanged — this keeps an uncontended flow's arrival
//! time identical (to the last bit) to the legacy bus model's
//! `latency + size/bandwidth`, which the crossbar-equivalence tests
//! pin down.
//!
//! ## Lazy settlement
//!
//! No event walks the active flows to drain them. Each flow holds one
//! *rate segment*: its rate, the time `since` the segment began, and
//! its startup latency and bytes still to drain at `since`. A flow is
//! brought up to date — one product, `rate · (now - since - latency)` —
//! only when its rate changes bitwise (a re-estimate), when it
//! finishes, or when a kill moves it onto a new route; every other
//! flow is left alone. A flow whose rate never changes is therefore
//! never touched between its start and its finish.
//!
//! The per-link statistics close at the same instants:
//!
//! * `busy_secs` opens when a link's flow count goes 0→1 and closes
//!   when it goes back to 0;
//! * `bytes` is credited when a flow leaves the link's path (it
//!   finishes, or a kill reroutes it) with what the flow carried there,
//!   so without faults a link's total is the exact sum of the sizes of
//!   the messages routed over it;
//! * the probe sees one `on_link_traffic` interval per rate segment
//!   (the windowed recorder splits it across windows).
//!
//! ## State layout
//!
//! Everything on the reshare path is allocation-free after warm-up:
//!
//! * flows live in dense reusable **slots** (`slots` + `free`), found
//!   from the engine's message slot id through the direct-indexed
//!   `slot_of` table (the engine recycles its message slots, so an id
//!   names one flow at a time, and `slot_of` stays as small as the
//!   engine's live message table);
//! * the active flows are an unordered `(seq, slot)` list, `flows`,
//!   where `seq` is the message's initiation order: a flow joins by
//!   push and leaves by swap-remove (its slot records its position), so
//!   neither walks the others. A pass that emits events first sorts
//!   the list by `seq` (`sorted` says when it already is): initiation
//!   order is the order every emission depends on;
//! * routes are interned per `(src, dst)` pair into a shared **path
//!   arena**, so each distinct pair is routed once per replay;
//! * `active_links`, the set of links currently carrying flows, is an
//!   indexed set (`link_pos` holds each member's position), so a link
//!   joins and leaves it in O(1) by swap-remove. The general solver
//!   ([`max_min_rates_active`]) restricts every scan to it; its result
//!   does not depend on the set's order (see the `fairshare` docs);
//! * each flow caches its **bottleneck** (narrowest link capacity) when
//!   it starts, and `classes` counts the active flows per distinct
//!   finite bottleneck, in ascending order — updated in O(classes) on
//!   every start and finish, rebuilt after a fault that touches live
//!   traffic.
//!
//! ## Two solve paths
//!
//! While `shared_links` is zero — no link carries two flows, whatever
//! the capacities — a reshare chains the class table
//! ([`chain_rates`]) instead of solving: every flow's rate is its
//! class's. When no class that existed before the change got a new
//! rate, no existing flow's rate changed either, so a start emits just
//! the new flow's estimate and a finish emits nothing, without touching
//! the other flows. Otherwise (or when the flows' rates came from a
//! general solve or predate a fault) the reshare runs the full
//! initiation-order emit loop, as the general path always does. Once a link
//! is shared, [`max_min_rates_active`] solves.
//!
//! The from-scratch solver is retained as a debug oracle: debug builds
//! re-solve every reshare with [`max_min_rates`] and assert bitwise
//! agreement, and [`FlowNet::with_reference_solver`] switches a net to
//! the oracle outright so whole replays can be cross-validated.

use super::fairshare::{chain_rates, max_min_rates, max_min_rates_active, Class, SolveScratch};
use super::fault::{FaultAction, Partition};
use super::topology::{Link, LinkGraph, LinkId};
use super::LinkUsage;
use crate::fx::FxBuildHasher;
use crate::probe::ProbeSink;
use crate::time::Time;
use std::collections::HashMap;
use std::sync::Arc;

/// A (re-)estimated completion the engine must schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowEvent {
    /// The engine's message slot id of the flow.
    pub msg: usize,
    /// Estimated completion time.
    pub at: Time,
    /// Epoch the estimate was issued under; stale epochs are ignored.
    pub epoch: u64,
}

/// What applying one fault event did (for probes and engine counters).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultOutcome {
    /// Active flows moved onto a new route by a kill.
    pub rerouted: u32,
    /// Whether the fault forced a reshare (it touched live traffic).
    pub reshared: bool,
}

#[derive(Debug, Clone, Copy, Default)]
struct FlowSlot {
    /// Path as an `(offset, len)` view into the route arena.
    off: u32,
    len: u32,
    /// Endpoint nodes, kept so a kill can reroute the flow mid-flight.
    src: u32,
    dst: u32,
    /// Start of the current rate segment.
    since: Time,
    /// Startup latency still to elapse at `since`, seconds.
    latency_left: f64,
    /// Bytes still to drain at `since`.
    remaining: f64,
    /// Current max-min fair rate, bytes/s (`0.0` until first reshare).
    rate: f64,
    /// Bytes still to drain when the flow joined its current path; the
    /// path's links are credited the difference when it leaves.
    joined: f64,
    /// Narrowest link capacity on the path (`INFINITY` when the path is
    /// empty or all-infinite); recomputed when a fault changes it.
    bottleneck: f64,
    /// Epoch of the currently scheduled completion (0 = none yet).
    epoch: u64,
    /// Index of this flow in `FlowNet::flows`.
    pos: u32,
    /// The engine's message slot id (what [`FlowEvent::msg`] names).
    msg: u32,
}

/// Flow-level network state for one replay.
#[derive(Debug)]
pub struct FlowNet {
    graph: Arc<LinkGraph>,
    caps: Vec<f64>,
    /// Dense flow storage; freed slots are recycled through `free`.
    slots: Vec<FlowSlot>,
    free: Vec<u32>,
    /// Message slot id -> flow slot + 1 (0 = not active), grown on
    /// demand.
    slot_of: Vec<u32>,
    /// Active flows as `(initiation seq, slot)`, unordered. The seq is
    /// kept to 32 bits, like the message ids it replaced.
    flows: Vec<(u32, u32)>,
    /// Whether `flows` is in ascending seq order.
    sorted: bool,
    /// Interned routes: `(src, dst) -> (offset, len)` into `arena`.
    route_cache: HashMap<(u32, u32), (u32, u32), FxBuildHasher>,
    arena: Vec<LinkId>,
    /// Links with at least one active flow, unordered; `link_pos[l]` is
    /// link `l`'s index here while it is a member.
    active_links: Vec<u32>,
    link_pos: Vec<u32>,
    /// Links currently carrying two or more flows. While zero, rates
    /// come from chaining `classes` instead of a solve.
    shared_links: u32,
    /// Active flows per distinct finite bottleneck, ascending by `cap`.
    classes: Vec<Class>,
    /// Whether every active flow's `rate` is its class's chained rate,
    /// so an unchanged chain needs no emit loop. Set by a full
    /// link-disjoint reshare; cleared by a general solve and by a fault.
    classes_synced: bool,
    /// Scratch for [`chain_rates`].
    rounds: Vec<(f64, f64)>,
    scratch: SolveScratch,
    rates: Vec<f64>,
    /// Solve with the from-scratch oracle instead of the incremental
    /// active-set solver (validation mode; results are bit-identical).
    reference: bool,
    next_epoch: u64,
    reshares: u64,
    /// Flows visited by per-event work (see [`FlowNet::flow_visits`]).
    visits: u64,
    /// Links removed by a fault (`kill`) and not yet restored. While
    /// `dead_count > 0`, routing goes through the dead-aware fallback
    /// and the route cache only holds routes valid for the current dead
    /// set (it is cleared on every kill and restore).
    dead: Vec<bool>,
    dead_count: u32,
    // fault statistics
    link_faults: Vec<u32>,
    faults_applied: u64,
    flows_rerouted: u64,
    reroute_reshares: u64,
    // per-link statistics
    bytes: Vec<f64>,
    busy_secs: Vec<f64>,
    /// When each active link's current busy period began.
    busy_since: Vec<Time>,
    active: Vec<u32>,
    peak_flows: Vec<u32>,
    /// Links whose per-link state left its fresh value (they carried a
    /// flow or a fault touched them), each once: what [`FlowNet::reset`]
    /// must restore.
    touched: Vec<u32>,
}

impl FlowNet {
    pub fn new(graph: LinkGraph) -> FlowNet {
        FlowNet::new_shared(Arc::new(graph))
    }

    /// Build on a shared compiled topology (see [`LinkGraph::cached`]).
    pub fn new_shared(graph: Arc<LinkGraph>) -> FlowNet {
        let n = graph.len();
        let caps: Vec<f64> = graph.links().iter().map(|l| l.capacity).collect();
        FlowNet {
            caps,
            slots: Vec::new(),
            free: Vec::new(),
            slot_of: Vec::new(),
            flows: Vec::new(),
            sorted: true,
            route_cache: HashMap::default(),
            arena: Vec::new(),
            active_links: Vec::new(),
            link_pos: vec![0; n],
            shared_links: 0,
            classes: Vec::new(),
            classes_synced: false,
            rounds: Vec::new(),
            scratch: SolveScratch::new(n),
            rates: Vec::new(),
            reference: false,
            next_epoch: 1,
            reshares: 0,
            visits: 0,
            dead: vec![false; n],
            dead_count: 0,
            link_faults: vec![0; n],
            faults_applied: 0,
            flows_rerouted: 0,
            reroute_reshares: 0,
            bytes: vec![0.0; n],
            busy_secs: vec![0.0; n],
            busy_since: vec![Time::ZERO; n],
            active: vec![0; n],
            peak_flows: vec![0; n],
            touched: Vec::new(),
            graph,
        }
    }

    /// Return this net to the state [`FlowNet::new_shared`] builds on
    /// the same graph, keeping its storage, for another replay with the
    /// reference solver or without. Only the links the last replay
    /// touched are reset. The interned routes are kept unless a fault
    /// was applied: a kill or restore reroutes, so routes interned
    /// since then may avoid links that are alive again.
    pub(crate) fn reset(&mut self, reference: bool) {
        let links = self.graph.links();
        for &l in &self.touched {
            let i = l as usize;
            self.caps[i] = links[i].capacity;
            self.link_pos[i] = 0;
            self.dead[i] = false;
            self.link_faults[i] = 0;
            self.bytes[i] = 0.0;
            self.busy_secs[i] = 0.0;
            self.busy_since[i] = Time::ZERO;
            self.active[i] = 0;
            self.peak_flows[i] = 0;
        }
        self.touched.clear();
        if self.faults_applied > 0 {
            self.route_cache.clear();
            self.arena.clear();
        }
        self.slots.clear();
        self.free.clear();
        self.slot_of.clear();
        self.flows.clear();
        self.sorted = true;
        self.active_links.clear();
        self.shared_links = 0;
        self.classes.clear();
        self.classes_synced = false;
        self.reference = reference;
        self.next_epoch = 1;
        self.reshares = 0;
        self.visits = 0;
        self.dead_count = 0;
        self.faults_applied = 0;
        self.flows_rerouted = 0;
        self.reroute_reshares = 0;
    }

    /// The compiled topology this net runs on.
    pub(crate) fn graph(&self) -> &LinkGraph {
        &self.graph
    }

    /// Record that link `i` is about to leave its fresh state, unless it
    /// already has.
    fn touch(&mut self, i: usize) {
        if self.peak_flows[i] == 0 && self.link_faults[i] == 0 {
            self.touched.push(i as u32);
        }
    }

    /// Switch this net to the from-scratch oracle solver. Replays are
    /// bit-identical either way; this exists so tests (and bisections)
    /// can cross-validate the incremental solver against the original.
    pub fn with_reference_solver(mut self) -> FlowNet {
        self.reference = true;
        self
    }

    /// Register message `msg` (initiation order `seq`) as a flow granted
    /// at `now` and reshare. Emits a completion estimate for the new
    /// flow and for every existing flow whose rate changed. Errs when
    /// killed links leave no path from `src_node` to `dst_node`. Probes
    /// see the flow as `seq`.
    #[allow(clippy::too_many_arguments)]
    pub fn start<P: ProbeSink>(
        &mut self,
        msg: usize,
        seq: u64,
        src_node: usize,
        dst_node: usize,
        bytes: f64,
        latency_s: f64,
        now: Time,
        out: &mut Vec<FlowEvent>,
        probe: &mut P,
    ) -> Result<(), Partition> {
        let (off, len) = self.route_ref(src_node, dst_node)?;
        let bottleneck = self.bottleneck(off, len);
        if P::ENABLED {
            // uncontended ETA: alone on this route the flow would run at
            // the bottleneck capacity — same float ops as a lone-flow
            // reshare, so an uncontended transfer's estimate matches the
            // actual arrival bit for bit
            probe.on_flow_path(
                seq as usize,
                now + Time::secs(latency_s + bytes / bottleneck),
            );
        }
        self.join_links(off, len, now);
        let slot = match self.free.pop() {
            Some(s) => s,
            None => {
                self.slots.push(FlowSlot::default());
                (self.slots.len() - 1) as u32
            }
        };
        self.slots[slot as usize] = FlowSlot {
            off,
            len,
            src: src_node as u32,
            dst: dst_node as u32,
            since: now,
            latency_left: latency_s,
            remaining: bytes,
            rate: 0.0,
            joined: bytes,
            bottleneck,
            epoch: 0,
            pos: self.flows.len() as u32,
            msg: msg as u32,
        };
        self.join_class(bottleneck);
        if self.slot_of.len() <= msg {
            self.slot_of.resize(msg + 1, 0);
        }
        debug_assert!(self.slot_of[msg] == 0, "flow {msg} started twice");
        self.slot_of[msg] = slot + 1;
        let seq = seq as u32;
        self.sorted &= self.flows.last().is_none_or(|&(s, _)| s < seq);
        self.flows.push((seq, slot));
        self.reshare(now, out, probe, Some(slot));
        Ok(())
    }

    /// Remove a completed flow at `now` and reshare the survivors.
    pub fn finish<P: ProbeSink>(
        &mut self,
        msg: usize,
        now: Time,
        out: &mut Vec<FlowEvent>,
        probe: &mut P,
    ) {
        let slot = match self.slot_of.get(msg) {
            Some(&s) if s != 0 => s - 1,
            _ => {
                debug_assert!(false, "finishing unknown flow {msg}");
                return;
            }
        };
        self.slot_of[msg] = 0;
        self.visits += 1;
        let f = self.slots[slot as usize];
        if P::ENABLED && f.remaining > 0.0 {
            // the last segment drains everything left, over the part of
            // it that follows the injection latency
            let dt = (now - f.since).as_secs();
            let avail = (dt - f.latency_left.min(dt)).max(0.0);
            for l in self.path(f.off, f.len) {
                probe.on_link_traffic(l.idx(), now - Time::secs(avail), now, f.remaining);
            }
        }
        self.leave_links(f.off, f.len, f.joined, now);
        let pos = f.pos as usize;
        debug_assert!(self.flows[pos].1 == slot);
        self.flows.swap_remove(pos);
        if let Some(&(_, moved)) = self.flows.get(pos) {
            self.slots[moved as usize].pos = pos as u32;
            self.sorted = false;
        }
        self.free.push(slot);
        self.leave_class(f.bottleneck);
        if !self.flows.is_empty() {
            self.reshare(now, out, probe, None);
        }
    }

    /// Apply one resolved fault event at `now`: mutate the selected
    /// links' capacity/liveness, reroute active flows off killed links,
    /// and reshare iff the fault can change any live rate — a fault
    /// touching only idle links leaves every flow's timing untouched,
    /// which keeps zero-traffic fault schedules bit-identical to the
    /// fault-free replay.
    ///
    /// Degrade factors always apply to the healthy capacity (they do
    /// not compound); restore resets both liveness and capacity.
    pub fn apply_fault<P: ProbeSink>(
        &mut self,
        action: &FaultAction,
        links: &[LinkId],
        now: Time,
        out: &mut Vec<FlowEvent>,
        probe: &mut P,
    ) -> Result<FaultOutcome, Partition> {
        self.faults_applied += 1;
        // decided before any mutation: a touched link with traffic means
        // rates can change (kill reroutes its flows away; degrade and
        // restore change the capacity under them)
        let mut needs_reshare = links.iter().any(|l| self.active[l.idx()] > 0);
        let mut rerouted_now = 0u32;
        match action {
            FaultAction::Degrade { factor } => {
                for l in links {
                    let i = l.idx();
                    self.touch(i);
                    self.link_faults[i] += 1;
                    self.caps[i] = self.graph.links()[i].capacity * factor;
                }
            }
            FaultAction::Restore => {
                for l in links {
                    let i = l.idx();
                    self.touch(i);
                    self.link_faults[i] += 1;
                    if self.dead[i] {
                        self.dead[i] = false;
                        self.dead_count -= 1;
                    }
                    self.caps[i] = self.graph.links()[i].capacity;
                }
                // routes may legitimately use the restored links again
                self.route_cache.clear();
            }
            FaultAction::Kill => {
                for l in links {
                    let i = l.idx();
                    self.touch(i);
                    self.link_faults[i] += 1;
                    if !self.dead[i] {
                        self.dead[i] = true;
                        self.dead_count += 1;
                    }
                }
                self.route_cache.clear();
                rerouted_now = self.reroute_dead_flows(now, probe)?;
                self.flows_rerouted += u64::from(rerouted_now);
                needs_reshare |= rerouted_now > 0;
            }
        }
        if needs_reshare {
            // a changed capacity or route can move any live flow's
            // bottleneck; a fault that needs no reshare touched none
            self.rebuild_classes();
            self.reroute_reshares += 1;
            self.reshare(now, out, probe, None);
        }
        Ok(FaultOutcome {
            rerouted: rerouted_now,
            reshared: needs_reshare,
        })
    }

    /// Move every active flow whose path crosses a dead link onto an
    /// alive route (initiation order, so the pass is deterministic).
    /// Each moved flow is brought up to date first, so its old links
    /// are credited what it carried over them.
    fn reroute_dead_flows<P: ProbeSink>(
        &mut self,
        now: Time,
        probe: &mut P,
    ) -> Result<u32, Partition> {
        let mut rerouted = 0u32;
        self.sort_flows();
        self.visits += self.flows.len() as u64;
        for k in 0..self.flows.len() {
            let (seq, slot) = self.flows[k];
            let f = self.slots[slot as usize];
            if !self.path(f.off, f.len).iter().any(|l| self.dead[l.idx()]) {
                continue;
            }
            self.advance(slot, now, probe);
            let f = self.slots[slot as usize];
            self.leave_links(f.off, f.len, f.joined - f.remaining, now);
            let (off, len) = self.route_ref(f.src as usize, f.dst as usize)?;
            self.join_links(off, len, now);
            let f = &mut self.slots[slot as usize];
            f.off = off;
            f.len = len;
            f.joined = f.remaining;
            if P::ENABLED {
                probe.on_flow_rerouted(seq as usize);
            }
            rerouted += 1;
        }
        Ok(rerouted)
    }

    /// Whether `epoch` is still the live completion estimate of `msg`
    /// (false once resharing superseded it or the flow finished).
    pub fn is_current(&self, msg: usize, epoch: u64) -> bool {
        match self.slot_of.get(msg) {
            Some(&s) if s != 0 => self.slots[(s - 1) as usize].epoch == epoch,
            _ => false,
        }
    }

    /// Number of reshare passes performed (an engine cost metric).
    pub fn reshares(&self) -> u64 {
        self.reshares
    }

    /// Fault events applied so far.
    pub fn faults_applied(&self) -> u64 {
        self.faults_applied
    }

    /// Active flows moved onto a new route by kills so far.
    pub fn flows_rerouted(&self) -> u64 {
        self.flows_rerouted
    }

    /// Reshare passes forced by fault events (subset of `reshares`).
    pub fn reroute_reshares(&self) -> u64 {
        self.reroute_reshares
    }

    /// Flows currently in flight.
    pub fn active_flows(&self) -> usize {
        self.flows.len()
    }

    /// The links of the underlying graph (topology order).
    pub fn links(&self) -> &[Link] {
        self.graph.links()
    }

    /// Per-link usage statistics accumulated so far. A link's bytes and
    /// busy time are credited when flows leave it, so they cover the
    /// flows that finished (or were rerouted away) and the busy periods
    /// that ended.
    pub fn usage(&self) -> Vec<LinkUsage> {
        self.graph
            .links()
            .iter()
            .enumerate()
            .map(|(i, l)| LinkUsage {
                label: l.label.clone(),
                capacity_bps: l.capacity,
                bytes: self.bytes[i],
                busy_secs: self.busy_secs[i],
                peak_flows: self.peak_flows[i],
                faults: self.link_faults[i],
            })
            .collect()
    }

    /// Current `(msg, rate)` pairs in initiation order. For the
    /// property suite that cross-checks the incremental solver against
    /// the from-scratch oracle; not a stable API.
    #[doc(hidden)]
    pub fn debug_rates(&self) -> Vec<(usize, f64)> {
        let mut flows = self.flows.clone();
        flows.sort_unstable();
        flows
            .iter()
            .map(|&(_, s)| {
                let f = &self.slots[s as usize];
                (f.msg as usize, f.rate)
            })
            .collect()
    }

    /// Flows visited by per-event work: one per flow brought up to
    /// date (a rate change, a finish or a reroute), plus every active
    /// flow each time a pass walks them all (the sort by seq, the emit
    /// loop after a chain change or a solve, a class rebuild or a
    /// reroute scan). A work counter for the tests that pin lazy
    /// settlement (a link-disjoint start or finish touches only the
    /// flows it changes); not a stable API.
    #[doc(hidden)]
    pub fn flow_visits(&self) -> u64 {
        self.visits
    }

    /// Intern the `src -> dst` route and return its arena view. With
    /// dead links in play the route avoids them (the cache is cleared
    /// on every kill/restore, so cached routes always match the current
    /// dead set); a disconnected pair errs instead of routing.
    fn route_ref(&mut self, src_node: usize, dst_node: usize) -> Result<(u32, u32), Partition> {
        let key = (src_node as u32, dst_node as u32);
        if let Some(&r) = self.route_cache.get(&key) {
            return Ok(r);
        }
        let off = self.arena.len() as u32;
        if self.dead_count == 0 {
            self.graph.route_into(src_node, dst_node, &mut self.arena);
        } else if let Err(link) =
            self.graph
                .route_avoiding(src_node, dst_node, &self.dead, &mut self.arena)
        {
            // drop any partial hops the torus fallback appended
            self.arena.truncate(off as usize);
            return Err(Partition {
                src: src_node,
                dst: dst_node,
                link: self.graph.links()[link.idx()].label.clone(),
            });
        }
        let len = self.arena.len() as u32 - off;
        self.route_cache.insert(key, (off, len));
        Ok((off, len))
    }

    /// The arena path `(off, len)`.
    fn path(&self, off: u32, len: u32) -> &[LinkId] {
        &self.arena[off as usize..(off + len) as usize]
    }

    /// Narrowest capacity on the arena path `(off, len)`.
    fn bottleneck(&self, off: u32, len: u32) -> f64 {
        self.path(off, len)
            .iter()
            .map(|l| self.caps[l.idx()])
            .fold(f64::INFINITY, f64::min)
    }

    /// Count a flow onto every link of the arena path `(off, len)` at
    /// `now`: an idle link joins `active_links` and opens a busy period.
    fn join_links(&mut self, off: u32, len: u32, now: Time) {
        for k in off..off + len {
            let i = self.arena[k as usize].idx();
            if self.active[i] == 0 {
                self.touch(i);
                self.link_pos[i] = self.active_links.len() as u32;
                self.active_links.push(i as u32);
                self.busy_since[i] = now;
            }
            self.active[i] += 1;
            if self.active[i] == 2 {
                self.shared_links += 1;
            }
            self.peak_flows[i] = self.peak_flows[i].max(self.active[i]);
        }
    }

    /// Take a flow that carried `carried` bytes off every link of the
    /// arena path `(off, len)` at `now`: a link it leaves idle closes its
    /// busy period and drops out of `active_links`.
    fn leave_links(&mut self, off: u32, len: u32, carried: f64, now: Time) {
        for k in off..off + len {
            let i = self.arena[k as usize].idx();
            self.bytes[i] += carried;
            self.active[i] -= 1;
            if self.active[i] == 1 {
                self.shared_links -= 1;
            } else if self.active[i] == 0 {
                self.busy_secs[i] += (now - self.busy_since[i]).as_secs();
                let pos = self.link_pos[i] as usize;
                self.active_links.swap_remove(pos);
                if let Some(&moved) = self.active_links.get(pos) {
                    self.link_pos[moved as usize] = pos as u32;
                }
            }
        }
    }

    /// Count a flow with bottleneck `cap` into its class.
    fn join_class(&mut self, cap: f64) {
        if !cap.is_finite() {
            return; // rate INFINITY in every solve: no class
        }
        let pos = self.classes.partition_point(|c| c.cap < cap);
        match self.classes.get_mut(pos) {
            Some(c) if c.cap == cap => c.flows += 1,
            _ => {
                let class = Class {
                    cap,
                    flows: 1,
                    rate: f64::NAN,
                };
                self.classes.insert(pos, class);
            }
        }
    }

    /// Remove a flow with bottleneck `cap` from its class.
    fn leave_class(&mut self, cap: f64) {
        if !cap.is_finite() {
            return;
        }
        let pos = self.classes.partition_point(|c| c.cap < cap);
        debug_assert!(self.classes.get(pos).map(|c| c.cap) == Some(cap));
        self.classes[pos].flows -= 1;
        if self.classes[pos].flows == 0 {
            self.classes.remove(pos);
        }
    }

    /// The chained rate of a flow with bottleneck `cap`.
    fn class_rate(&self, cap: f64) -> f64 {
        if !cap.is_finite() {
            return f64::INFINITY;
        }
        self.classes[self.classes.partition_point(|c| c.cap < cap)].rate
    }

    /// Recompute every active flow's bottleneck from its current path
    /// and capacities, and the class table from those.
    fn rebuild_classes(&mut self) {
        self.classes.clear();
        self.classes_synced = false;
        self.visits += self.flows.len() as u64;
        for k in 0..self.flows.len() {
            let slot = self.flows[k].1 as usize;
            let b = self.bottleneck(self.slots[slot].off, self.slots[slot].len);
            self.slots[slot].bottleneck = b;
            self.join_class(b);
        }
    }

    /// Put `flows` in initiation order (and the slots' positions with
    /// it), unless it already is.
    fn sort_flows(&mut self) {
        if self.sorted {
            return;
        }
        self.visits += self.flows.len() as u64;
        self.flows.sort_unstable();
        for (k, &(_, slot)) in self.flows.iter().enumerate() {
            self.slots[slot as usize].pos = k as u32;
        }
        self.sorted = true;
    }

    /// Bring flow `slot` from the start of its rate segment up to `now`
    /// at its current rate, and start a new segment there.
    fn advance<P: ProbeSink>(&mut self, slot: u32, now: Time, probe: &mut P) {
        self.visits += 1;
        let f = &mut self.slots[slot as usize];
        let dt = (now - f.since).as_secs();
        f.since = now;
        if dt <= 0.0 {
            return;
        }
        let spent = f.latency_left.min(dt);
        f.latency_left -= spent;
        let avail = dt - spent;
        if avail <= 0.0 || f.remaining <= 0.0 {
            return;
        }
        // infinite rate · dt would drain everything; the clamp also
        // keeps `remaining` non-negative under f64 rounding
        let drained = (f.rate * avail).min(f.remaining);
        f.remaining -= drained;
        if P::ENABLED && drained > 0.0 {
            let (off, len) = (f.off, f.len);
            for l in self.path(off, len) {
                // the drain covered the last `avail` seconds of the
                // segment (after injection latency elapsed)
                probe.on_link_traffic(l.idx(), now - Time::secs(avail), now, drained);
            }
        }
    }

    /// Recompute the max-min allocation and re-estimate completions.
    /// Flows whose rate is bitwise unchanged keep their scheduled event.
    /// `arrived` is the slot of the flow a `start` just registered.
    fn reshare<P: ProbeSink>(
        &mut self,
        now: Time,
        out: &mut Vec<FlowEvent>,
        probe: &mut P,
        arrived: Option<u32>,
    ) {
        self.reshares += 1;
        if P::ENABLED {
            probe.on_reshare(now, self.flows.len());
        }
        let disjoint = !self.reference && self.shared_links == 0;
        let n = self.flows.len();
        if disjoint {
            // no link carries two flows: every rate is its class's
            let changed = chain_rates(&mut self.classes, &mut self.rounds);
            let emit_all = changed || !self.classes_synced;
            if emit_all {
                self.sort_flows();
            }
            if emit_all || cfg!(debug_assertions) {
                self.rates.clear();
                for k in 0..n {
                    let b = self.slots[self.flows[k].1 as usize].bottleneck;
                    self.rates.push(self.class_rate(b));
                }
                #[cfg(debug_assertions)]
                self.assert_oracle_agrees();
            }
            if !emit_all {
                // no earlier class moved, so no existing flow's rate
                // did: only a new flow needs an estimate
                #[cfg(debug_assertions)]
                for k in 0..n {
                    let (seq, slot) = self.flows[k];
                    let f = &self.slots[slot as usize];
                    debug_assert!(
                        Some(slot) == arrived
                            || (f.epoch != 0 && f.rate.to_bits() == self.rates[k].to_bits()),
                        "flow {seq} changed rate under an unchanged chain"
                    );
                }
                if let Some(slot) = arrived {
                    let rate = self.class_rate(self.slots[slot as usize].bottleneck);
                    self.estimate(slot, rate, now, out, probe);
                }
                return;
            }
            self.classes_synced = true;
        } else {
            self.sort_flows();
            let (slots, arena, flows) = (&self.slots, &self.arena, &self.flows);
            let path_of = |k: usize| -> &[LinkId] {
                let f = &slots[flows[k].1 as usize];
                &arena[f.off as usize..(f.off + f.len) as usize]
            };
            if self.reference {
                let paths: Vec<&[LinkId]> = (0..n).map(path_of).collect();
                self.rates = max_min_rates(&paths, &self.caps);
            } else {
                max_min_rates_active(
                    n,
                    path_of,
                    &self.caps,
                    &self.active_links,
                    &mut self.scratch,
                    &mut self.rates,
                );
                #[cfg(debug_assertions)]
                self.assert_oracle_agrees();
            }
            self.classes_synced = false;
        }
        self.visits += n as u64;
        for k in 0..n {
            let rate = self.rates[k];
            let slot = self.flows[k].1;
            let f = &self.slots[slot as usize];
            if f.epoch != 0 && rate.to_bits() == f.rate.to_bits() {
                continue;
            }
            self.estimate(slot, rate, now, out, probe);
        }
    }

    /// Close the flow's rate segment at `now`, give it `rate`, and
    /// schedule its completion under a fresh epoch.
    fn estimate<P: ProbeSink>(
        &mut self,
        slot: u32,
        rate: f64,
        now: Time,
        out: &mut Vec<FlowEvent>,
        probe: &mut P,
    ) {
        if self.slots[slot as usize].epoch != 0 {
            // a new flow's segment starts now: nothing to bring up
            self.advance(slot, now, probe);
        }
        let f = &mut self.slots[slot as usize];
        f.rate = rate;
        // rate is either +inf (remaining/rate == 0) or > 0, so the
        // estimate is always finite; for an uncontended flow at its
        // start this is exactly `now + (latency + size/capacity)`, the
        // same float ops as the bus model's transfer_time
        let eta = now + Time::secs(f.latency_left + f.remaining / f.rate);
        f.epoch = self.next_epoch;
        self.next_epoch += 1;
        out.push(FlowEvent {
            msg: f.msg as usize,
            at: eta,
            epoch: f.epoch,
        });
    }

    /// Debug oracle: `rates` must agree with the from-scratch solve to
    /// the last bit.
    #[cfg(debug_assertions)]
    fn assert_oracle_agrees(&self) {
        let paths: Vec<&[LinkId]> = self
            .flows
            .iter()
            .map(|&(_, s)| {
                let f = &self.slots[s as usize];
                self.path(f.off, f.len)
            })
            .collect();
        let oracle = max_min_rates(&paths, &self.caps);
        for (k, (a, b)) in oracle.iter().zip(&self.rates).enumerate() {
            debug_assert!(
                a.to_bits() == b.to_bits(),
                "solver divergence on flow {}: oracle {a} vs incremental {b}",
                self.flows[k].0
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::topology::Topology;
    use crate::probe::NoopSink;

    fn net(nodes: usize, mbs: f64) -> FlowNet {
        FlowNet::new(LinkGraph::build(&Topology::Crossbar, nodes, mbs).unwrap())
    }

    #[test]
    fn lone_flow_completes_at_linear_model_time() {
        let mut out = Vec::new();
        let mut n = net(2, 100.0);
        n.start(
            0,
            0,
            0,
            1,
            1_000_000.0,
            10e-6,
            Time::ZERO,
            &mut out,
            &mut NoopSink,
        )
        .unwrap();
        assert_eq!(out.len(), 1);
        let expect = Time::secs(10e-6 + 1_000_000.0 / 100e6);
        assert_eq!(out[0].at, expect, "must match latency + size/capacity");
        assert!(n.is_current(0, out[0].epoch));
        out.clear();
        n.finish(0, expect, &mut out, &mut NoopSink);
        assert!(out.is_empty());
        assert!(!n.is_current(0, 1));
        let usage = n.usage();
        let up = &usage[0];
        assert!((up.bytes - 1_000_000.0).abs() < 1e-6, "{}", up.bytes);
    }

    #[test]
    fn second_flow_on_same_link_halves_rates_and_bumps_epochs() {
        let mut out = Vec::new();
        // both flows leave node 0: they share its single up link
        let mut n = net(3, 100.0);
        n.start(
            0,
            0,
            0,
            1,
            1_000_000.0,
            0.0,
            Time::ZERO,
            &mut out,
            &mut NoopSink,
        )
        .unwrap();
        let first = out[0];
        out.clear();
        n.start(
            1,
            1,
            0,
            2,
            1_000_000.0,
            0.0,
            Time::ZERO,
            &mut out,
            &mut NoopSink,
        )
        .unwrap();
        // both flows re-estimated at 50 MB/s
        assert_eq!(out.len(), 2);
        assert!(!n.is_current(0, first.epoch), "old estimate must be stale");
        for e in &out {
            assert_eq!(e.at, Time::secs(1_000_000.0 / 50e6));
        }
    }

    #[test]
    fn unchanged_rate_keeps_the_original_estimate() {
        let mut out = Vec::new();
        // disjoint node pairs: no shared links, no re-estimates
        let mut n = net(4, 100.0);
        n.start(
            0,
            0,
            0,
            1,
            1_000_000.0,
            5e-6,
            Time::ZERO,
            &mut out,
            &mut NoopSink,
        )
        .unwrap();
        let first = out[0];
        out.clear();
        n.start(
            1,
            1,
            2,
            3,
            500_000.0,
            5e-6,
            Time::secs(0.001),
            &mut out,
            &mut NoopSink,
        )
        .unwrap();
        assert_eq!(out.len(), 1, "only the new flow gets an event");
        assert_eq!(out[0].msg, 1);
        assert!(n.is_current(0, first.epoch));
    }

    #[test]
    fn finishing_a_flow_speeds_up_the_survivor() {
        let mut out = Vec::new();
        let mut n = net(3, 100.0);
        n.start(
            0,
            0,
            0,
            1,
            1_000_000.0,
            0.0,
            Time::ZERO,
            &mut out,
            &mut NoopSink,
        )
        .unwrap();
        n.start(
            1,
            1,
            0,
            2,
            500_000.0,
            0.0,
            Time::ZERO,
            &mut out,
            &mut NoopSink,
        )
        .unwrap();
        out.clear();
        // flow 1 (500 kB at 50 MB/s) completes at 10 ms
        let t = Time::secs(0.01);
        n.finish(1, t, &mut out, &mut NoopSink);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].msg, 0);
        // flow 0 drained 500 kB in those 10 ms; the rest at full rate
        let expect = Time::secs(0.01 + 500_000.0 / 100e6);
        assert!(
            (out[0].at.as_secs() - expect.as_secs()).abs() < 1e-12,
            "{} vs {}",
            out[0].at,
            expect
        );
    }

    #[test]
    fn busy_seconds_and_peak_flows_accumulate() {
        let mut out = Vec::new();
        let mut n = net(3, 100.0);
        n.start(
            0,
            0,
            0,
            1,
            1_000_000.0,
            0.0,
            Time::ZERO,
            &mut out,
            &mut NoopSink,
        )
        .unwrap();
        n.start(
            1,
            1,
            0,
            2,
            1_000_000.0,
            0.0,
            Time::ZERO,
            &mut out,
            &mut NoopSink,
        )
        .unwrap();
        n.finish(0, Time::secs(0.02), &mut out, &mut NoopSink);
        n.finish(1, Time::secs(0.02), &mut out, &mut NoopSink);
        let usage = n.usage();
        assert_eq!(usage[0].peak_flows, 2, "node 0 up link carried both");
        assert!((usage[0].busy_secs - 0.02).abs() < 1e-12);
        assert_eq!(usage[3 + 1].peak_flows, 1, "down link of node 1");
        assert!((usage[0].bytes - 2_000_000.0).abs() < 1e-3);
    }

    #[test]
    fn slots_are_recycled_and_out_of_order_ids_stay_sorted() {
        let mut out = Vec::new();
        let mut n = net(6, 100.0);
        // start 3, finish the middle one, then start a *lower* id than
        // the current maximum (as rendezvous grants can) and a higher one
        n.start(5, 5, 0, 1, 1e6, 0.0, Time::ZERO, &mut out, &mut NoopSink)
            .unwrap();
        n.start(7, 7, 2, 3, 1e6, 0.0, Time::ZERO, &mut out, &mut NoopSink)
            .unwrap();
        n.start(9, 9, 4, 5, 1e6, 0.0, Time::ZERO, &mut out, &mut NoopSink)
            .unwrap();
        n.finish(7, Time::secs(0.001), &mut out, &mut NoopSink);
        n.start(
            6,
            6,
            2,
            3,
            1e6,
            0.0,
            Time::secs(0.001),
            &mut out,
            &mut NoopSink,
        )
        .unwrap();
        n.start(
            11,
            11,
            1,
            0,
            1e6,
            0.0,
            Time::secs(0.001),
            &mut out,
            &mut NoopSink,
        )
        .unwrap();
        let ids: Vec<usize> = n.debug_rates().iter().map(|&(m, _)| m).collect();
        assert_eq!(ids, vec![5, 6, 9, 11], "ascending id order maintained");
        assert_eq!(n.active_flows(), 4);
        assert!(n.slots.len() <= 4, "freed slot must be reused");
        // every flow is alone on its links: full capacity each
        for (_, r) in n.debug_rates() {
            assert_eq!(r, 100e6);
        }
    }

    #[test]
    fn repopulating_an_emptied_link_does_not_double_charge_it() {
        let mut out = Vec::new();
        let mut n = net(3, 100.0);
        // drain the net to empty (the last finish skips its reshare),
        // so node 0's up link must leave the active set and rejoin it
        // once
        n.start(0, 0, 0, 1, 1e6, 0.0, Time::ZERO, &mut out, &mut NoopSink)
            .unwrap();
        n.finish(0, Time::secs(0.02), &mut out, &mut NoopSink);
        // re-populate that same link with two flows; a duplicate active
        // entry would double-charge it and halve both rates
        let t = Time::secs(0.03);
        n.start(1, 1, 0, 1, 1e6, 0.0, t, &mut out, &mut NoopSink)
            .unwrap();
        n.start(2, 2, 0, 2, 1e6, 0.0, t, &mut out, &mut NoopSink)
            .unwrap();
        for (msg, r) in n.debug_rates() {
            assert_eq!(r, 50e6, "flow {msg} must get half the shared link");
        }
    }

    #[test]
    fn kill_reroutes_a_mid_flight_fat_tree_flow() {
        let g = LinkGraph::build(
            &Topology::FatTree {
                radix: 4,
                oversubscription: 1,
            },
            16,
            100.0,
        )
        .unwrap();
        let route = g.route(0, 4);
        let fabric = route[1]; // first fabric hop (e0 -> an agg)
        let mut n = FlowNet::new(g);
        let mut out = Vec::new();
        // cross-pod flow occupying the default ECMP path
        n.start(0, 0, 0, 4, 1e6, 0.0, Time::ZERO, &mut out, &mut NoopSink)
            .unwrap();
        assert_eq!(n.usage()[fabric.idx()].peak_flows, 1);
        let eta = out[0].at;
        out.clear();
        let outcome = n
            .apply_fault(
                &FaultAction::Kill,
                &[fabric],
                Time::secs(1e-3),
                &mut out,
                &mut NoopSink,
            )
            .unwrap();
        assert_eq!(outcome.rerouted, 1, "the flow must move off the dead link");
        assert!(outcome.reshared);
        assert_eq!(n.flows_rerouted(), 1);
        // the survivor still drains at full rate on its alternate path,
        // so no re-estimate is due (rate unchanged => old ETA stands)
        for (_, r) in n.debug_rates() {
            assert_eq!(r, 100e6);
        }
        assert!(out.is_empty());
        // each link is credited what crossed it: links on both routes
        // (the host up- and down-link) the whole message, links only on
        // the old route the 1 ms before the kill, the new route the rest
        let f = n.slots[(n.slot_of[0] - 1) as usize];
        let rerouted = n.path(f.off, f.len).to_vec();
        let shared: Vec<LinkId> = route
            .iter()
            .copied()
            .filter(|l| rerouted.contains(l))
            .collect();
        assert_eq!(shared, [route[0], route[route.len() - 1]]);
        n.finish(0, eta, &mut out, &mut NoopSink);
        let usage = n.usage();
        let before_kill = 100e6 * 1e-3;
        for (i, u) in usage.iter().enumerate() {
            let l = LinkId(i as u32);
            let want = match (route.contains(&l), rerouted.contains(&l)) {
                (true, true) => 1e6,
                (true, false) => before_kill,
                (false, true) => 1e6 - before_kill,
                (false, false) => 0.0,
            };
            assert_eq!(u.bytes, want, "link {}", u.label);
        }
        assert_eq!(usage[fabric.idx()].bytes, before_kill);
        // killing the host up-link leaves no alternate: partition
        let host = FlowNet::new(
            LinkGraph::build(
                &Topology::FatTree {
                    radix: 4,
                    oversubscription: 1,
                },
                16,
                100.0,
            )
            .unwrap(),
        );
        let mut host = host;
        host.start(0, 0, 0, 4, 1e6, 0.0, Time::ZERO, &mut out, &mut NoopSink)
            .unwrap();
        let up = host.graph.route(0, 4)[0];
        let err = host
            .apply_fault(
                &FaultAction::Kill,
                &[up],
                Time::secs(1e-3),
                &mut out,
                &mut NoopSink,
            )
            .unwrap_err();
        assert_eq!((err.src, err.dst), (0, 4));
        assert_eq!(&*err.link, "h0->e0");
    }

    #[test]
    fn degrade_then_restore_recovers_full_rate() {
        let mut out = Vec::new();
        let mut n = net(2, 100.0);
        n.start(0, 0, 0, 1, 1e6, 0.0, Time::ZERO, &mut out, &mut NoopSink)
            .unwrap();
        let up = LinkId(0);
        let o = n
            .apply_fault(
                &FaultAction::Degrade { factor: 0.25 },
                &[up],
                Time::secs(1e-3),
                &mut out,
                &mut NoopSink,
            )
            .unwrap();
        assert!(o.reshared, "active link: degrade must reshare");
        assert_eq!(n.debug_rates()[0].1, 25e6);
        // degrading again applies to the HEALTHY capacity, not compounding
        let o2 = n
            .apply_fault(
                &FaultAction::Degrade { factor: 0.5 },
                &[up],
                Time::secs(2e-3),
                &mut out,
                &mut NoopSink,
            )
            .unwrap();
        assert!(o2.reshared);
        assert_eq!(n.debug_rates()[0].1, 50e6);
        let o3 = n
            .apply_fault(
                &FaultAction::Restore,
                &[up],
                Time::secs(3e-3),
                &mut out,
                &mut NoopSink,
            )
            .unwrap();
        assert!(o3.reshared);
        assert_eq!(n.debug_rates()[0].1, 100e6);
        assert_eq!(n.faults_applied(), 3);
        assert_eq!(n.usage()[0].faults, 3);
    }

    #[test]
    fn fault_on_idle_link_does_not_reshare() {
        let mut out = Vec::new();
        let mut n = net(3, 100.0);
        n.start(0, 0, 0, 1, 1e6, 0.0, Time::ZERO, &mut out, &mut NoopSink)
            .unwrap();
        let reshares_before = n.reshares();
        // node 2's links carry nothing: fault must not touch flow state
        let idle = LinkId(2);
        let o = n
            .apply_fault(
                &FaultAction::Kill,
                &[idle],
                Time::secs(1e-3),
                &mut out,
                &mut NoopSink,
            )
            .unwrap();
        assert!(!o.reshared);
        assert_eq!(o.rerouted, 0);
        assert_eq!(n.reshares(), reshares_before);
        assert_eq!(n.debug_rates()[0].1, 100e6);
    }

    #[test]
    fn narrower_class_arrival_re_estimates_a_wider_one() {
        // fabric links run at a third of the host capacity, and at
        // 57/7 MB/s the chain's second level, f + (h - f), rounds one
        // ulp above the host capacity h
        let run = |reference: bool| {
            let topo = Topology::FatTree {
                radix: 4,
                oversubscription: 3,
            };
            let g = LinkGraph::build(&topo, 16, 57.0 / 7.0).unwrap();
            let mut n = FlowNet::new(g);
            if reference {
                n = n.with_reference_solver();
            }
            let mut steps = Vec::new();
            let mut out = Vec::new();
            // host links only (both hosts under edge switch e0)
            n.start(0, 0, 0, 1, 1e6, 1e-5, Time::ZERO, &mut out, &mut NoopSink)
                .unwrap();
            steps.push(std::mem::take(&mut out));
            // cross-pod: bottlenecked by the fabric, disjoint from flow 0
            let t = Time::secs(1e-4);
            n.start(1, 1, 2, 4, 1e5, 1e-5, t, &mut out, &mut NoopSink)
                .unwrap();
            steps.push(std::mem::take(&mut out));
            n.finish(1, Time::secs(2e-4), &mut out, &mut NoopSink);
            steps.push(std::mem::take(&mut out));
            let peak = n.usage().iter().map(|u| u.peak_flows).max();
            assert_eq!(peak, Some(1), "no link may carry two flows");
            (steps, n.debug_rates())
        };
        let (steps, rates) = run(false);
        assert_eq!((steps.clone(), rates.clone()), run(true));
        let msgs = |k: usize| steps[k].iter().map(|e| e.msg).collect::<Vec<_>>();
        assert_eq!(msgs(1), vec![0, 1], "the arrival moves flow 0's rate");
        assert_eq!(msgs(2), vec![0], "the departure moves it back");
        assert_eq!(rates[0].1, 57.0 / 7.0 * 1e6);
    }

    #[test]
    fn reference_solver_replays_identically() {
        let run = |reference: bool| {
            let g = LinkGraph::build(&Topology::Crossbar, 3, 100.0).unwrap();
            let mut n = if reference {
                FlowNet::new(g).with_reference_solver()
            } else {
                FlowNet::new(g)
            };
            let mut out = Vec::new();
            n.start(0, 0, 0, 1, 1e6, 1e-5, Time::ZERO, &mut out, &mut NoopSink)
                .unwrap();
            n.start(
                1,
                1,
                0,
                2,
                2e6,
                1e-5,
                Time::secs(1e-3),
                &mut out,
                &mut NoopSink,
            )
            .unwrap();
            n.start(
                2,
                2,
                1,
                2,
                5e5,
                1e-5,
                Time::secs(2e-3),
                &mut out,
                &mut NoopSink,
            )
            .unwrap();
            n.finish(0, Time::secs(3e-2), &mut out, &mut NoopSink);
            out.iter()
                .map(|e| (e.msg, e.at, e.epoch))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(false), run(true));
    }
}
