//! The trace replay engine.
//!
//! Reconstructs an application's time behaviour from per-rank record
//! streams. Each rank is an interpreter over its stream; ranks interact
//! only through messages and shared network resources, and all
//! interactions are sequenced through a deterministic event queue.
//!
//! ## Communication semantics
//!
//! A point-to-point transfer passes through three phases:
//!
//! 1. **Initiation** — the sender executes the send record at its local
//!    time `t_send` and tries to start the transfer at once.
//! 2. **Grant** — the message atomically acquires its resource triple
//!    (sender output port, receiver input port, one global bus) at
//!    `t_start ≥ t_send`. A rendezvous-mode message additionally
//!    requires the matching receive to be posted before it can be
//!    granted. Grants follow first-fit semantics: whenever resources
//!    free up, blocked messages are granted in initiation order, each
//!    one that fits. A blocked message waits on the resource it failed
//!    to get (`resources::WaitLists`), so a release re-examines only
//!    the waiters of what it released — the same grants, in the same
//!    order, as rescanning every blocked message.
//! 3. **Delivery** — the transfer occupies its resources for
//!    `latency + size/bandwidth` and completes at `t_arrive`.
//!
//! Blocking semantics: an eager `Send` releases the sender at
//! `t_start + latency` (local injection); a rendezvous `Send` blocks
//! until `t_arrive`. `Recv`/`Wait` block until the matched message's
//! `t_arrive`. Matching is first-in-first-out per `(src, dst, tag)`
//! channel, like MPI's non-overtaking rule.

use crate::event::{Event, EventQueue};
use crate::fx::FxBuildHasher;
use crate::net::fault::{AppliedFault, Partition, ResolvedFault};
use crate::net::flows::{FlowEvent, FlowNet};
use crate::net::{ContentionModel, LinkGraph, LinkUsage};
use crate::platform::Platform;
use crate::probe::{EventKind, NoopSink, ProbeSink, TeeSink, WaitEdge};
use crate::resources::{Pool, Resources, Unit, WaitLists};
use crate::time::Time;
use crate::timeline::{CommRecord, State, StateTotals, Timeline};
use ovlp_trace::record::{Marker, Record, SendMode};
use ovlp_trace::source::TraceSource;
use ovlp_trace::{Bytes, Rank, ReqId, Tag};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};

mod supply;

use supply::Supply;

/// Simulation failure.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// The event queue drained while some ranks were still blocked.
    Deadlock { stuck: Vec<(usize, String)> },
    /// A `Wait` referenced a request never issued.
    UnknownRequest { rank: usize, req: ReqId },
    /// A transfer needed a route between two nodes but every candidate
    /// path crosses a killed link: the fault schedule disconnected the
    /// fabric. `link` is the label of the first dead link the router
    /// hit. Reported instead of hanging — a partitioned run can never
    /// complete.
    Partitioned {
        src: usize,
        dst: usize,
        link: String,
    },
    /// Platform configuration rejected.
    BadPlatform(String),
    /// Internal resource accounting went corrupt (e.g. a release
    /// without a matching acquire). Always a bug in the engine; fails
    /// loudly in release builds too.
    Accounting(String),
    /// A probe could not record the run it observed (e.g. it needed
    /// more windows than [`MAX_WINDOWS`](crate::probe::MAX_WINDOWS) or
    /// [`MAX_CELLS`](crate::probe::MAX_CELLS) allow).
    Probe(String),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Deadlock { stuck } => {
                write!(f, "deadlock; stuck ranks: ")?;
                for (r, why) in stuck {
                    write!(f, "[rank {r}: {why}] ")?;
                }
                Ok(())
            }
            SimError::UnknownRequest { rank, req } => {
                write!(f, "rank {rank}: wait on unknown request {req}")
            }
            SimError::Partitioned { src, dst, link } => write!(
                f,
                "network partitioned: no route from node {src} to node {dst} \
                 (link {link} is down)"
            ),
            SimError::BadPlatform(s) => write!(f, "bad platform: {s}"),
            SimError::Accounting(s) => write!(f, "resource accounting corrupt: {s}"),
            SimError::Probe(s) => write!(f, "probe failed: {s}"),
        }
    }
}

impl From<crate::probe::TooManyWindows> for SimError {
    fn from(e: crate::probe::TooManyWindows) -> SimError {
        SimError::Probe(e.to_string())
    }
}

impl std::error::Error for SimError {}

/// Result of one replay.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Completion time of the slowest rank.
    pub runtime: Time,
    /// Per-rank state timelines.
    pub timelines: Vec<Timeline>,
    /// Every physical message transfer, in initiation order.
    pub comms: Vec<CommRecord>,
    /// Per-rank aggregated state totals.
    pub totals: Vec<StateTotals>,
    /// Time at which each rank passed each structural marker, in
    /// execution order (feeds per-iteration analysis).
    pub markers: Vec<Vec<(ovlp_trace::record::Marker, Time)>>,
    /// Aggregate network behaviour.
    pub network: NetworkStats,
    /// Per-link usage when the platform used flow-level contention
    /// ([`ContentionModel::Flow`]); empty under the bus model.
    pub links: Vec<LinkUsage>,
    /// Discrete events processed (engine throughput metric).
    pub events_processed: u64,
    /// Event-queue high-water mark (engine memory metric).
    pub queue_peak: usize,
    /// Stale `FlowDone` events popped and discarded — completions that
    /// resharing re-estimated after they were scheduled. Zero under the
    /// bus model; a cost metric of the flow-level engine.
    pub stale_events: u64,
    /// Scheduled faults that were applied, in application order. Empty
    /// when the platform carried no fault schedule.
    pub fault_log: Vec<AppliedFault>,
}

/// Aggregate network statistics of one replay.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NetworkStats {
    /// Point-to-point transfers simulated (after collective
    /// decomposition).
    pub transfers: usize,
    /// Transfers that used the intra-node (shared-memory) path.
    pub intra_node: usize,
    /// Transfers that crossed machines (WAN path).
    pub inter_machine: usize,
    /// Total bus·seconds consumed by inter-node transfers.
    pub bus_seconds: f64,
    /// Total time transfers spent queued for network resources.
    pub queue_seconds: f64,
    /// Max-min reshare passes performed (flow-level contention only).
    pub reshares: u64,
    /// Scheduled fault events applied to the fabric.
    pub faults_applied: u64,
    /// In-flight flows moved off killed links.
    pub flows_rerouted: u64,
    /// Reshare passes triggered by fault events (faults on idle links
    /// don't reshare).
    pub reroute_reshares: u64,
}

impl NetworkStats {
    /// Mean number of buses simultaneously in use over the run.
    pub fn mean_bus_concurrency(&self, runtime: Time) -> f64 {
        let rt = runtime.as_secs();
        if rt <= 0.0 {
            0.0
        } else {
            self.bus_seconds / rt
        }
    }
}

impl SimResult {
    /// Runtime in seconds.
    pub fn runtime(&self) -> f64 {
        self.runtime.as_secs()
    }

    /// Sum of all ranks' wait time (everything but compute), seconds.
    pub fn total_wait(&self) -> f64 {
        self.totals.iter().map(|t| t.total_wait().as_secs()).sum()
    }

    /// Parallel efficiency: compute time over total rank-time.
    pub fn efficiency(&self) -> f64 {
        let nranks = self.totals.len().max(1) as f64;
        let denom = self.runtime.as_secs() * nranks;
        if denom == 0.0 {
            return 1.0;
        }
        let compute: f64 = self.totals.iter().map(|t| t.compute.as_secs()).sum();
        compute / denom
    }
}

/// Simulate `source` on `platform`.
///
/// The engine pulls records through one forward cursor per rank,
/// expanding collectives into point-to-point transfers inline (per the
/// platform's [`CollectiveAlgo`](crate::CollectiveAlgo)). A
/// [`Trace`](ovlp_trace::Trace) coerces to a source; a generator is
/// never materialized.
pub fn simulate(source: &dyn TraceSource, platform: &Platform) -> Result<SimResult, SimError> {
    simulate_probed(source, platform, &mut NoopSink)
}

/// Simulate `source` on `platform`, streaming observability callbacks
/// into `probe`.
///
/// The probe observes the replay but never influences it: simulated
/// time, timelines, and communication records are bit-identical to
/// [`simulate`] for any [`ProbeSink`] implementation (a property the
/// determinism test suite pins down). The result itself is built by a
/// recorder on the same hooks, teed with `probe`.
pub fn simulate_probed<P: ProbeSink>(
    source: &dyn TraceSource,
    platform: &Platform,
    probe: &mut P,
) -> Result<SimResult, SimError> {
    simulate_with(source, platform, probe, false)
}

/// [`simulate`], but forcing the from-scratch max-min solver instead of
/// the incremental one. Results are bit-identical by construction; this
/// entry exists so the test suite (and bisections) can cross-validate
/// whole replays against the reference solver.
#[doc(hidden)]
pub fn simulate_reference(
    source: &dyn TraceSource,
    platform: &Platform,
) -> Result<SimResult, SimError> {
    simulate_with(source, platform, &mut NoopSink, true)
}

fn simulate_with<P: ProbeSink>(
    source: &dyn TraceSource,
    platform: &Platform,
    probe: &mut P,
    reference: bool,
) -> Result<SimResult, SimError> {
    let mut sinks = TeeSink(ResultRecorder::default(), probe);
    let outcome = replay(source, platform, &mut sinks, reference)?;
    Ok(sinks.0.finish(outcome, platform))
}

/// Aggregate outcome of a [`replay_scale`] replay: the aggregate
/// picture plus the engine's own footprint counters, which are exactly
/// the quantities a weak-scaling study plots.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaleReport {
    /// Ranks simulated.
    pub nranks: usize,
    /// Completion time of the slowest rank.
    pub runtime: Time,
    /// Discrete events processed.
    pub events_processed: u64,
    /// Event-queue high-water mark.
    pub queue_peak: usize,
    /// Point-to-point transfers simulated (after collective
    /// decomposition).
    pub transfers: u64,
    /// Records streamed through the engine (post-expansion).
    pub records_streamed: u64,
    /// High-water mark of records resident in the supply.
    pub records_peak: u64,
    /// Message-slot high-water mark (live messages, not total).
    pub msg_slots: usize,
    /// Receive-request-slot high-water mark.
    pub req_slots: usize,
    /// High-water mark of live matching channels: `(src, dst, tag)`
    /// triples with unmatched sends or receives queued.
    pub chan_slots: usize,
    /// High-water mark of transfers blocked on a busy resource at once.
    pub waiters_peak: usize,
    /// State totals summed across ranks (rank order, deterministic).
    pub totals: StateTotals,
}

impl ScaleReport {
    /// Parallel efficiency: compute time over total rank-time.
    pub fn efficiency(&self) -> f64 {
        let denom = self.runtime.as_secs() * self.nranks.max(1) as f64;
        if denom == 0.0 {
            return 1.0;
        }
        self.totals.compute.as_secs() / denom
    }
}

/// Replay `source` on `platform` keeping only aggregates: the engine
/// [`simulate`] runs, with a totals-only recorder in place of the one
/// that builds timelines and communication records. Engine state is
/// recycled on every replay, so live memory is O(in-flight traffic),
/// not O(total transfers); this is the 100k–1M-rank path, on any
/// contention model.
///
/// `runtime`, `events_processed` and `transfers` are bit-identical to
/// [`simulate`] (pinned by the scale cross-check test); the state
/// totals are folded per reported interval rather than per merged
/// timeline interval, so they may differ in the last ulp.
pub fn replay_scale(
    source: &dyn TraceSource,
    platform: &Platform,
) -> Result<ScaleReport, SimError> {
    let mut totals = TotalsRecorder::default();
    let report = replay(source, platform, &mut totals, false)?.report;
    Ok(ScaleReport {
        totals: totals.sum(),
        ..report
    })
}

/// Builds a [`SimResult`]'s artifacts from the probe hooks: per-rank
/// timelines and markers, the communication records in initiation
/// order, and the network statistics folded over those records.
#[derive(Default)]
struct ResultRecorder {
    timelines: Vec<Timeline>,
    markers: Vec<Vec<(Marker, Time)>>,
    /// Indexed by initiation order (messages retire out of order).
    comms: Vec<CommRecord>,
}

impl ResultRecorder {
    /// Assemble the result of a replay on `platform`. The network fold
    /// runs in initiation order — floating-point addition is not
    /// associative, so it must never be parallelized or reordered. A
    /// message that never started has `t_arrive == t_start`, so it adds
    /// an exact zero to `bus_seconds`.
    fn finish(self, o: Outcome, platform: &Platform) -> SimResult {
        let mut network = o.network;
        for c in &self.comms {
            match link_class(platform, c.src.idx(), c.dst.idx()) {
                Link::Intra => network.intra_node += 1,
                Link::Wan => network.inter_machine += 1,
                Link::Net => network.bus_seconds += (c.t_arrive - c.t_start).as_secs(),
            }
            network.queue_seconds += (c.t_start - c.t_send).as_secs();
        }
        SimResult {
            runtime: o.report.runtime,
            totals: self.timelines.iter().map(StateTotals::of).collect(),
            timelines: self.timelines,
            comms: self.comms,
            markers: self.markers,
            network,
            links: o.links,
            events_processed: o.report.events_processed,
            queue_peak: o.report.queue_peak,
            stale_events: o.stale_events,
            fault_log: o.fault_log,
        }
    }
}

impl ProbeSink for ResultRecorder {
    fn on_begin(&mut self, nranks: usize, _links: &[crate::net::topology::Link]) {
        self.timelines = vec![Timeline::default(); nranks];
        self.markers = vec![Vec::new(); nranks];
    }

    fn on_state(&mut self, rank: usize, start: Time, end: Time, state: State) {
        self.timelines[rank].push(start, end, state);
    }

    fn on_marker(&mut self, rank: usize, marker: Marker, at: Time) {
        self.markers[rank].push((marker, at));
    }

    fn on_comm(&mut self, msg: usize, comm: &CommRecord) {
        // every message reports exactly once, so any filler is
        // overwritten before the result is read
        if self.comms.len() <= msg {
            self.comms.resize(msg + 1, *comm);
        }
        self.comms[msg] = *comm;
    }
}

/// Folds every state interval into its rank's totals as the engine
/// reports it: [`replay_scale`]'s only recorder.
#[derive(Default)]
struct TotalsRecorder(Vec<StateTotals>);

impl TotalsRecorder {
    /// The per-rank totals summed in rank order.
    fn sum(&self) -> StateTotals {
        let mut sum = StateTotals::default();
        for t in &self.0 {
            sum.compute += t.compute;
            sum.wait_recv += t.wait_recv;
            sum.wait_send += t.wait_send;
            sum.collective += t.collective;
        }
        sum
    }
}

impl ProbeSink for TotalsRecorder {
    fn on_begin(&mut self, nranks: usize, _links: &[crate::net::topology::Link]) {
        self.0 = vec![StateTotals::default(); nranks];
    }

    fn on_state(&mut self, rank: usize, start: Time, end: Time, state: State) {
        let (d, t) = (end - start, &mut self.0[rank]);
        match state {
            State::Compute => t.compute += d,
            State::WaitRecv => t.wait_recv += d,
            State::WaitSend => t.wait_send += d,
            State::Collective => t.collective += d,
            State::Done => {}
        }
    }
}

/// Build the flow-level network state (and resolved fault schedule)
/// for one replay, or nothing under the bus model. The compiled
/// topology is cached across replays of the same platform.
fn net_setup(
    nranks: usize,
    platform: &Platform,
    reference: bool,
) -> Result<(Option<FlowNet>, Vec<ResolvedFault>), SimError> {
    match &platform.contention {
        ContentionModel::Bus => Ok((None, Vec::new())),
        ContentionModel::Flow(topo) => {
            let nodes = platform.nodes(nranks);
            // sweeps replay thousands of traces on the same platform:
            // reuse the compiled topology across replays (and threads)
            let graph = LinkGraph::cached(topo, nodes, platform.bandwidth_mbs)
                .map_err(SimError::BadPlatform)?;
            let faults = platform
                .faults
                .resolve(&graph)
                .map_err(SimError::BadPlatform)?;
            let net = FlowNet::new_shared(graph);
            Ok((
                Some(if reference {
                    net.with_reference_solver()
                } else {
                    net
                }),
                faults,
            ))
        }
    }
}

/// Run the engine over `source` with `probe` as its only recorder.
fn replay<P: ProbeSink>(
    source: &dyn TraceSource,
    platform: &Platform,
    probe: &mut P,
    reference: bool,
) -> Result<Outcome, SimError> {
    platform.check().map_err(SimError::BadPlatform)?;
    let (flownet, faults) = net_setup(source.nranks(), platform, reference)?;
    Engine::new(
        Supply::new(source, platform.collective),
        platform,
        flownet,
        faults,
        probe,
    )
    .run()
}

/// Ranks from which the engine prefetches ahead of each event. Below
/// it the per-rank state stays in a core's private cache and the
/// prefetches only cost: prefetching at every rank count made
/// ml-allreduce bus replays about 20% slower at 1,000 ranks and 10% at
/// 2,000, while from 4,000 ranks up it pays (docs/perf.md §13).
const PREFETCH_MIN_RANKS: usize = 3_000;

/// Hint the CPU to pull every cache line `obj` spans into L1. A no-op
/// off x86-64; it never changes what the engine computes.
#[inline(always)]
fn prefetch<T: ?Sized>(obj: &T) {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        const LINE: usize = 64;
        let start = (obj as *const T).cast::<u8>() as usize;
        let end = start + std::mem::size_of_val(obj).max(1);
        for line in (start & !(LINE - 1)..end).step_by(LINE) {
            // SAFETY: a prefetch is a hint that reads no memory
            // architecturally and never faults, whatever the address.
            unsafe { _mm_prefetch::<_MM_HINT_T0>(line as *const i8) };
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = obj;
}

/// Lossless rendering of a replay outcome: Rust's `{:?}` for `f64`
/// prints the shortest round-trip representation, so string equality
/// here is bit equality of every timestamp, counter, and error detail.
/// Shared by the golden and determinism test suites.
pub fn render_exact(outcome: &Result<SimResult, SimError>) -> String {
    format!("{outcome:#?}")
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum MsgState {
    /// Waiting for resources (and, if rendezvous, for a match).
    Pending,
    /// Resources held; arrives at `t1`.
    Flying { t1: Time },
    /// Delivered at `t1`.
    Done { t1: Time },
}

/// Which level of the platform hierarchy a transfer crosses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Link {
    /// Same node: shared-memory model, no network resources.
    Intra,
    /// Same machine: the network model (buses + ports).
    Net,
    /// Different machines: the WAN model (WAN links + ports).
    Wan,
}

/// The link class a `src -> dst` transfer uses on `platform`.
fn link_class(platform: &Platform, src: usize, dst: usize) -> Link {
    if platform.node_of(src) == platform.node_of(dst) {
        Link::Intra
    } else if platform.machine_of(src) == platform.machine_of(dst) {
        Link::Net
    } else {
        Link::Wan
    }
}

impl Link {
    /// The shared pool a transfer over this link draws from, if it
    /// needs network resources at all.
    fn pool(self) -> Option<Pool> {
        match self {
            Link::Intra => None,
            Link::Net => Some(Pool::Bus),
            Link::Wan => Some(Pool::Wan),
        }
    }
}

#[derive(Debug)]
struct Msg {
    src: usize,
    dst: usize,
    tag: Tag,
    bytes: Bytes,
    mode: SendMode,
    /// Initiation order: the message's position in first-fit grant
    /// order, and the id probes and communication records know it by
    /// (its slot id is recycled once the message retires).
    seq: u64,
    t_send: Time,
    t_start: Time,
    link: Link,
    state: MsgState,
    /// Index of the paired receive request, once matched.
    paired: Option<usize>,
    /// Rank blocked on this message (blocking send, or wait on isend).
    waiter: Option<usize>,
    waiter_since: Time,
    /// The sender has fully observed this message (its wait consumed
    /// the release time, or its parked waiter was resumed); one of the
    /// conditions for retiring its slot.
    send_done: bool,
}

#[derive(Debug)]
struct RecvReq {
    rank: usize,
    /// Sender rank the receive was posted against (diagnostics only).
    src: usize,
    /// Completion time (message arrival), once known.
    complete: Option<Time>,
    /// When the receiver's recv/wait actually returned.
    consumed_at: Option<Time>,
    msg: Option<usize>,
}

#[derive(Debug, Clone, Copy)]
enum ReqHandle {
    Recv(usize),
    Send(usize),
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Blocked {
    /// Runnable or running.
    None,
    /// A Resume event is already scheduled.
    ResumeScheduled,
    /// Blocked on a receive request with unknown completion time.
    OnReq {
        req: usize,
        since: Time,
        state: State,
    },
    /// Blocked on a message (send side) with unknown grant time.
    OnMsg { since: Time, state: State },
    /// Trace fully interpreted.
    Finished,
}

/// Per-rank registry of outstanding non-blocking requests. Tracers and
/// generators allocate request ids in increasing order and wait them
/// soon after, so the outstanding ids span a narrow sliding range:
/// `window` holds ids `base..base + window.len()` by direct index and
/// drops its leading empty slots as requests complete, so it stays as
/// short as that span however many requests a rank issues over a run.
/// Ids out of the window's reach (below `base`, or [`REQ_WINDOW_LIMIT`]
/// or more past it) fall back to a hash map. An id lives in at most
/// one of the two, so the table behaves as one map.
#[derive(Default)]
struct ReqTable {
    base: u64,
    window: VecDeque<Option<ReqHandle>>,
    sparse: HashMap<u64, ReqHandle, FxBuildHasher>,
}

/// Bounds the window to 1 MiB per rank even if a trace leaves a request
/// outstanding while it issues a huge number of later ones.
const REQ_WINDOW_LIMIT: u64 = 1 << 16;

impl ReqTable {
    fn insert(&mut self, req: ReqId, h: ReqHandle) {
        if self.window.is_empty() {
            self.base = req.0;
        }
        match req.0.checked_sub(self.base) {
            Some(i) if i < REQ_WINDOW_LIMIT => {
                let i = i as usize;
                if self.window.len() <= i {
                    self.window.resize(i + 1, None);
                }
                self.window[i] = Some(h);
                // the window may have grown over an id parked in the map
                if !self.sparse.is_empty() {
                    self.sparse.remove(&req.0);
                }
            }
            _ => {
                self.sparse.insert(req.0, h);
            }
        }
    }

    fn remove(&mut self, req: ReqId) -> Option<ReqHandle> {
        let slot = req
            .0
            .checked_sub(self.base)
            .and_then(|i| self.window.get_mut(usize::try_from(i).ok()?));
        let Some(h) = slot.and_then(Option::take) else {
            return self.sparse.remove(&req.0);
        };
        while matches!(self.window.front(), Some(None)) {
            self.window.pop_front();
            self.base += 1;
        }
        Some(h)
    }
}

struct RankState {
    pc: usize,
    clock: Time,
    blocked: Blocked,
    reqs: ReqTable,
}

/// The key of a `(src, dst, tag)` matching channel.
type ChanKey = (u32, u32, u32);

/// One live channel's unmatched posts. A post on one side matches the
/// other side's oldest item at once, so at any moment a channel queues
/// unmatched sends or unmatched receives, never both.
struct ChanQ {
    /// Whether the queued items are message slots (`true`) or
    /// receive-request slots.
    sends: bool,
    fifo: Fifo,
}

/// A FIFO of slot ids that holds its one item inline and spills into a
/// `VecDeque` only while more than one waits.
enum Fifo {
    One(usize),
    /// Always holds at least two items.
    Many(VecDeque<usize>),
}

impl Fifo {
    fn push(&mut self, item: usize) {
        match self {
            Fifo::One(first) => *self = Fifo::Many(VecDeque::from([*first, item])),
            Fifo::Many(q) => q.push_back(item),
        }
    }

    /// Take the oldest item; `true` when that drained the FIFO.
    fn pop(&mut self) -> (usize, bool) {
        match self {
            Fifo::One(item) => (*item, true),
            Fifo::Many(q) => {
                let item = q.pop_front().expect("a spilled FIFO holds two or more");
                if q.len() == 1 {
                    *self = Fifo::One(q[0]);
                }
                (item, false)
            }
        }
    }
}

/// The engine's own account of a finished replay; the recorders hold
/// everything else.
struct Outcome {
    /// Runtime and footprint counters; `totals` is a recorder's.
    report: ScaleReport,
    stale_events: u64,
    fault_log: Vec<AppliedFault>,
    links: Vec<LinkUsage>,
    /// Transfers and the flow fabric's counters; the per-message folds
    /// are the result recorder's.
    network: NetworkStats,
}

/// One replay in flight. Message and receive-request slots are
/// recycled as soon as nothing can reference them again, and a channel
/// is dropped once it drains, so live state is O(in-flight traffic)
/// instead of O(total transfers); the result artifacts are built by the
/// probe's recorders, which know every message by its initiation order
/// (`Msg::seq`), never its slot.
struct Engine<'a, P: ProbeSink> {
    supply: Supply<'a>,
    platform: &'a Platform,
    queue: EventQueue,
    ranks: Vec<RankState>,
    msgs: Vec<Msg>,
    recv_reqs: Vec<RecvReq>,
    /// Live matching channels: a `(src, dst, tag)` triple has an entry
    /// exactly while it queues unmatched posts. Streamed collectives
    /// mint a fresh tag per instance, so drained entries are removed
    /// and the map tracks live channels, not every triple ever seen.
    chans: HashMap<ChanKey, ChanQ, FxBuildHasher>,
    /// High-water mark of `chans.len()`.
    chans_peak: usize,
    resources: Resources,
    /// Messages blocked on a busy resource, parked on that resource.
    /// Rendezvous messages still waiting for their receive are parked
    /// nowhere: the match itself retries them.
    waits: WaitLists,
    /// Tag each receive request was posted with (for state labeling).
    recv_req_tags: Vec<Tag>,
    /// Flow-level network state when the platform selected
    /// [`ContentionModel::Flow`]; `None` under the bus model.
    flownet: Option<FlowNet>,
    /// Resolved fault schedule, indexed by [`Event::Fault`]'s `idx`.
    faults: Vec<ResolvedFault>,
    /// Faults applied so far, in application order.
    fault_log: Vec<AppliedFault>,
    /// Reusable scratch buffer for flow (re-)estimates.
    flow_scratch: Vec<FlowEvent>,
    /// The recorders: the result builder plus any caller probe.
    probe: &'a mut P,
    /// Network-level transfers currently holding resources (a probe
    /// gauge).
    in_flight: u32,
    /// Stale `FlowDone` events popped and discarded.
    stale_popped: u64,
    /// Free message slots.
    msg_free: Vec<usize>,
    /// Free receive-request slots.
    req_free: Vec<usize>,
    /// Transfers initiated; the next message's `seq`.
    transfers_total: u64,
}

enum Flow {
    Continue,
    Yield,
}

impl<'a, P: ProbeSink> Engine<'a, P> {
    fn new(
        supply: Supply<'a>,
        platform: &'a Platform,
        flownet: Option<FlowNet>,
        faults: Vec<ResolvedFault>,
        probe: &'a mut P,
    ) -> Engine<'a, P> {
        let n = supply.nranks();
        // In flow mode the topology itself is the contention: the global
        // bus limit is ignored (0 = unlimited), ports still gate each
        // endpoint's injection/extraction concurrency.
        let buses = if flownet.is_some() { 0 } else { platform.buses };
        Engine {
            supply,
            platform,
            queue: EventQueue::new(),
            ranks: (0..n)
                .map(|_| RankState {
                    pc: 0,
                    clock: Time::ZERO,
                    blocked: Blocked::None,
                    reqs: ReqTable::default(),
                })
                .collect(),
            msgs: Vec::new(),
            recv_reqs: Vec::new(),
            chans: HashMap::default(),
            chans_peak: 0,
            recv_req_tags: Vec::new(),
            resources: Resources::with_wan(
                n,
                buses,
                platform.input_ports,
                platform.output_ports,
                platform.wan_links,
            ),
            waits: WaitLists::new(n),
            flownet,
            faults,
            fault_log: Vec::new(),
            flow_scratch: Vec::new(),
            probe,
            in_flight: 0,
            stale_popped: 0,
            msg_free: Vec::new(),
            req_free: Vec::new(),
            transfers_total: 0,
        }
    }

    /// Post `item` on channel `key` from one side (`sends`): take the
    /// other side's oldest queued item if it has one, dropping the
    /// channel once drained, or else queue `item` behind this side's.
    fn match_or_queue(&mut self, key: ChanKey, sends: bool, item: usize) -> Option<usize> {
        match self.chans.entry(key) {
            Entry::Occupied(mut e) if e.get().sends != sends => {
                let (other, drained) = e.get_mut().fifo.pop();
                if drained {
                    e.remove();
                }
                Some(other)
            }
            Entry::Occupied(mut e) => {
                e.get_mut().fifo.push(item);
                None
            }
            Entry::Vacant(e) => {
                e.insert(ChanQ {
                    sends,
                    fifo: Fifo::One(item),
                });
                self.chans_peak = self.chans_peak.max(self.chans.len());
                None
            }
        }
    }

    /// Report a rank's state interval to the recorders (zero-length
    /// intervals are dropped).
    fn push_state(&mut self, rank: usize, start: Time, end: Time, state: State) {
        if end > start {
            self.probe.on_state(rank, start, end, state);
        }
    }

    /// Whether `Flying { t1 }` carries an exact arrival time for `mid`.
    /// Under flow-level contention a network transfer's `t1` is only an
    /// estimate that resharing may move, so arrival-dependent decisions
    /// must wait for the actual `FlowDone`.
    fn exact_flight(&self, mid: usize) -> bool {
        self.flownet.is_none() || self.msgs[mid].link != Link::Net
    }

    /// Announce the replay to the probe and seed the queue: one resume
    /// per rank at t=0, plus the resolved fault schedule.
    fn begin(&mut self) {
        let links = self.flownet.as_ref().map(|n| n.links()).unwrap_or(&[]);
        self.probe.on_begin(self.ranks.len(), links);
        for r in 0..self.ranks.len() {
            self.queue.push(Time::ZERO, Event::Resume { rank: r });
            self.ranks[r].blocked = Blocked::ResumeScheduled;
        }
        // an empty schedule pushes nothing, so a fault-free replay is
        // bit-identical to an engine without this feature
        for (i, f) in self.faults.iter().enumerate() {
            self.queue.push(f.at, Event::Fault { idx: i });
        }
    }

    /// Handle one popped event.
    fn dispatch(&mut self, t: Time, ev: Event) -> Result<(), SimError> {
        let kind = match ev {
            Event::Resume { .. } => EventKind::Resume,
            Event::TransferDone { .. } => EventKind::TransferDone,
            Event::FlowDone { .. } => EventKind::FlowDone,
            Event::Fault { .. } => EventKind::Fault,
        };
        self.probe.on_event(t, kind, self.queue.len());
        match ev {
            Event::Resume { rank } => self.step(rank, t),
            Event::TransferDone { msg } => self.on_transfer_done(msg, t),
            Event::Fault { idx } => self.on_fault(idx, t),
            Event::FlowDone { msg, epoch } => {
                let current = self
                    .flownet
                    .as_ref()
                    .is_some_and(|n| n.is_current(msg, epoch));
                if current {
                    self.on_flow_done(msg, t)
                } else {
                    // superseded by a reshare (or the flow already
                    // finished): drop it here so the handler only
                    // ever sees live completions
                    self.stale_popped += 1;
                    self.probe.on_stale_flow_done(t);
                    Ok(())
                }
            }
        }
    }

    fn run(mut self) -> Result<Outcome, SimError> {
        self.begin();
        let prefetch = self.ranks.len() >= PREFETCH_MIN_RANKS;
        while let Some((t, ev)) = self.queue.pop() {
            if prefetch {
                self.prefetch_upcoming();
            }
            self.dispatch(t, ev)?;
        }
        self.finish()
    }

    /// Start loading the state the next events will touch while this
    /// one is dispatched: past a few thousand ranks the per-rank state
    /// outgrows the cache, and each event would otherwise wait on
    /// several misses in turn.
    ///
    /// Two stages, so no prefetch waits on a miss itself: the lines an
    /// event's slot ids name directly are requested while it is the
    /// second or third to pop, and the lines found through pointers in
    /// those once it is next, by which time the first lines have
    /// arrived.
    fn prefetch_upcoming(&self) {
        let mut upcoming = self.queue.upcoming();
        if let Some(next) = upcoming.next() {
            self.prefetch_event(next, true);
        }
        for ev in upcoming {
            self.prefetch_event(ev, false);
        }
    }

    /// Prefetch the lines dispatching `ev` reads: the first stage, plus
    /// the second when `deep`.
    fn prefetch_event(&self, ev: Event, deep: bool) {
        match ev {
            Event::Resume { rank } => {
                let rs = &self.ranks[rank];
                prefetch(rs);
                self.supply.prefetch(rank, deep);
                if deep {
                    if let Some(front) = rs.reqs.window.front() {
                        prefetch(front);
                    }
                }
            }
            Event::TransferDone { msg } | Event::FlowDone { msg, .. } => {
                let m = &self.msgs[msg];
                prefetch(m);
                if deep {
                    if let Some(req) = m.paired {
                        prefetch(&self.recv_reqs[req]);
                    }
                    prefetch(&self.ranks[m.dst]);
                }
            }
            Event::Fault { .. } => {}
        }
    }

    /// Error out if any rank is still blocked after the queue drained.
    /// Takes `&mut self` because sizing a rank's program for
    /// the report drains its remaining cursor — harmless on this cold
    /// path, where the replay is already dead.
    fn check_stuck(&mut self) -> Result<(), SimError> {
        let stuck_ranks: Vec<(usize, usize, Blocked)> = self
            .ranks
            .iter()
            .enumerate()
            .filter(|(_, rs)| rs.blocked != Blocked::Finished)
            .map(|(r, rs)| (r, rs.pc, rs.blocked))
            .collect();
        let stuck: Vec<(usize, String)> = stuck_ranks
            .into_iter()
            .map(|(r, pc, blocked)| {
                let total = self.supply.total_len(r);
                (
                    r,
                    format!(
                        "pc={} of {}: {}",
                        pc,
                        total,
                        self.blocked_detail(r, blocked)
                    ),
                )
            })
            .collect();
        if !stuck.is_empty() {
            return Err(SimError::Deadlock { stuck });
        }
        Ok(())
    }

    /// Completion time of the slowest rank.
    fn final_runtime(&self) -> Time {
        self.ranks
            .iter()
            .map(|rs| rs.clock)
            .max()
            .unwrap_or(Time::ZERO)
    }

    /// Drained-queue epilogue: deadlock check, the records of the
    /// messages still live in initiation order, then the engine's own
    /// counters.
    fn finish(mut self) -> Result<Outcome, SimError> {
        self.check_stuck()?;
        let runtime = self.final_runtime();
        // the messages that never retired, reported in initiation order
        let mut free = vec![false; self.msgs.len()];
        for &mid in &self.msg_free {
            free[mid] = true;
        }
        let mut live: Vec<&Msg> = (self.msgs.iter().zip(free))
            .filter_map(|(m, free)| (!free).then_some(m))
            .collect();
        live.sort_unstable_by_key(|m| m.seq);
        for m in live {
            let comm = Self::comm_record(&self.recv_reqs, m);
            self.probe.on_comm(m.seq as usize, &comm);
        }
        self.probe.on_records_peak(self.supply.records_peak());
        self.probe.on_end(runtime, self.queue.peak);
        let mut network = NetworkStats {
            transfers: self.transfers_total as usize,
            ..NetworkStats::default()
        };
        if let Some(n) = &self.flownet {
            network.reshares = n.reshares();
            network.faults_applied = n.faults_applied();
            network.flows_rerouted = n.flows_rerouted();
            network.reroute_reshares = n.reroute_reshares();
        }
        Ok(Outcome {
            report: ScaleReport {
                nranks: self.ranks.len(),
                runtime,
                events_processed: self.queue.processed,
                queue_peak: self.queue.peak,
                transfers: self.transfers_total,
                records_streamed: self.supply.records_fetched(),
                records_peak: self.supply.records_peak(),
                msg_slots: self.msgs.len(),
                req_slots: self.recv_reqs.len(),
                chan_slots: self.chans_peak,
                waiters_peak: self.waits.peak(),
                totals: StateTotals::default(),
            },
            stale_events: self.stale_popped,
            fault_log: self.fault_log,
            links: self.flownet.as_ref().map(|n| n.usage()).unwrap_or_default(),
            network,
        })
    }

    /// The externally visible record of one message transfer.
    fn comm_record(recv_reqs: &[RecvReq], m: &Msg) -> CommRecord {
        let t_arrive = match m.state {
            MsgState::Done { t1 } | MsgState::Flying { t1 } => t1,
            MsgState::Pending => m.t_send, // never started (unmatched rendezvous)
        };
        let t_consume = m
            .paired
            .and_then(|r| recv_reqs[r].consumed_at)
            .unwrap_or(t_arrive)
            .max(t_arrive);
        CommRecord {
            src: Rank(m.src as u32),
            dst: Rank(m.dst as u32),
            tag: m.tag,
            bytes: m.bytes,
            t_send: m.t_send,
            t_start: m.t_start,
            t_arrive,
            t_consume,
        }
    }

    /// Human-readable account of what a stuck rank is blocked on, for
    /// deadlock reports.
    fn blocked_detail(&self, rank: usize, blocked: Blocked) -> String {
        match blocked {
            Blocked::OnReq { req, since, .. } => {
                let rr = &self.recv_reqs[req];
                let tag = self.recv_req_tags[req];
                let why = match rr.msg {
                    None => "no matching send was ever posted".to_string(),
                    Some(m) => format!(
                        "matched send is {:?} ({:?})",
                        self.msgs[m].state, self.msgs[m].mode
                    ),
                };
                format!(
                    "waiting since {:?} on recv(src={}, tag={}): {why}",
                    since, rr.src, tag.0
                )
            }
            Blocked::OnMsg { since, .. } => {
                match self.msgs.iter().find(|m| m.waiter == Some(rank)) {
                    Some(m) => format!(
                        "waiting since {:?} on send(dst={}, tag={}, {:?}, {:?})",
                        since, m.dst, m.tag.0, m.mode, m.state
                    ),
                    None => format!("waiting since {since:?} on a send"),
                }
            }
            other => format!("({other:?})"),
        }
    }

    /// Wait-state label for a tag (collective-internal traffic is
    /// rendered as collective time).
    fn wait_state(tag: Tag, base: State) -> State {
        if tag.0 & Tag::COLL_BIT != 0 {
            State::Collective
        } else {
            base
        }
    }

    fn step(&mut self, rank: usize, now: Time) -> Result<(), SimError> {
        debug_assert!(self.ranks[rank].clock <= now + Time::micros(1e-6));
        self.ranks[rank].clock = now;
        self.ranks[rank].blocked = Blocked::None;
        loop {
            let pc = self.ranks[rank].pc;
            let Some(rec) = self.supply.fetch(rank, pc) else {
                self.ranks[rank].blocked = Blocked::Finished;
                return Ok(());
            };
            let clock = self.ranks[rank].clock;
            match rec {
                Record::Marker { marker } => {
                    self.probe.on_marker(rank, marker, clock);
                    self.ranks[rank].pc += 1;
                }
                Record::Compute { instr } => {
                    let dt = self.platform.compute_time_for(rank, instr);
                    let end = clock + dt;
                    self.push_state(rank, clock, end, State::Compute);
                    self.ranks[rank].clock = end;
                    self.ranks[rank].pc += 1;
                    self.queue.push(end, Event::Resume { rank });
                    self.ranks[rank].blocked = Blocked::ResumeScheduled;
                    return Ok(());
                }
                Record::IRecv { src, tag, req, .. } => {
                    let r = self.post_recv(rank, src.idx(), tag, clock)?;
                    self.ranks[rank].reqs.insert(req, ReqHandle::Recv(r));
                    self.ranks[rank].pc += 1;
                }
                Record::ISend {
                    dst,
                    tag,
                    bytes,
                    mode,
                    req,
                    ..
                } => {
                    let m = self.start_send(rank, dst.idx(), tag, bytes, mode, clock)?;
                    self.ranks[rank].reqs.insert(req, ReqHandle::Send(m));
                    self.ranks[rank].pc += 1;
                }
                Record::Send {
                    dst,
                    tag,
                    bytes,
                    mode,
                    ..
                } => {
                    let m = self.start_send(rank, dst.idx(), tag, bytes, mode, clock)?;
                    self.ranks[rank].pc += 1;
                    match self.wait_on_send(rank, m, clock) {
                        Flow::Continue => {}
                        Flow::Yield => return Ok(()),
                    }
                }
                Record::Recv { src, tag, .. } => {
                    let r = self.post_recv(rank, src.idx(), tag, clock)?;
                    self.ranks[rank].pc += 1;
                    match self.wait_on_recv(rank, r, tag, clock) {
                        Flow::Continue => {}
                        Flow::Yield => return Ok(()),
                    }
                }
                Record::Wait { req } => {
                    let handle = self.ranks[rank]
                        .reqs
                        .remove(req)
                        .ok_or(SimError::UnknownRequest { rank, req })?;
                    self.ranks[rank].pc += 1;
                    let flow = match handle {
                        ReqHandle::Recv(r) => {
                            let tag = self.msgs_tag_of_req(r);
                            self.wait_on_recv(rank, r, tag, clock)
                        }
                        ReqHandle::Send(m) => self.wait_on_send(rank, m, clock),
                    };
                    match flow {
                        Flow::Continue => {}
                        Flow::Yield => return Ok(()),
                    }
                }
                Record::Collective { .. } => {
                    unreachable!("collectives must be expanded before replay")
                }
            }
        }
    }

    /// Tag a receive request was posted with (for state labeling).
    fn msgs_tag_of_req(&self, r: usize) -> Tag {
        self.recv_req_tags[r]
    }

    fn post_recv(
        &mut self,
        rank: usize,
        src: usize,
        tag: Tag,
        now: Time,
    ) -> Result<usize, SimError> {
        let fresh = RecvReq {
            rank,
            src,
            complete: None,
            consumed_at: None,
            msg: None,
        };
        let idx = match self.req_free.pop() {
            Some(i) => {
                self.recv_reqs[i] = fresh;
                self.recv_req_tags[i] = tag;
                i
            }
            None => {
                self.recv_reqs.push(fresh);
                self.recv_req_tags.push(tag);
                self.recv_reqs.len() - 1
            }
        };
        let key = (src as u32, rank as u32, tag.0);
        if let Some(mid) = self.match_or_queue(key, false, idx) {
            self.pair(mid, idx);
            // a rendezvous message may have been waiting for this match
            if self.msgs[mid].mode == SendMode::Rendezvous
                && self.msgs[mid].state == MsgState::Pending
            {
                self.try_grant(mid, now)?;
            }
        }
        Ok(idx)
    }

    fn start_send(
        &mut self,
        src: usize,
        dst: usize,
        tag: Tag,
        bytes: Bytes,
        mode: SendMode,
        now: Time,
    ) -> Result<usize, SimError> {
        let mode = self.platform.effective_mode(mode, bytes);
        let link = link_class(self.platform, src, dst);
        let seq = self.transfers_total;
        let fresh = Msg {
            src,
            dst,
            tag,
            bytes,
            mode,
            seq,
            t_send: now,
            t_start: now,
            link,
            state: MsgState::Pending,
            paired: None,
            waiter: None,
            waiter_since: now,
            send_done: false,
        };
        self.transfers_total += 1;
        let mid = match self.msg_free.pop() {
            Some(i) => {
                self.msgs[i] = fresh;
                i
            }
            None => {
                self.msgs.push(fresh);
                self.msgs.len() - 1
            }
        };
        self.probe.on_send_posted(
            seq as usize,
            src,
            dst,
            tag.0,
            bytes.get(),
            mode == SendMode::Rendezvous,
            now,
        );
        let key = (src as u32, dst as u32, tag.0);
        if let Some(req) = self.match_or_queue(key, true, mid) {
            self.pair(mid, req);
        }
        self.try_grant(mid, now)?;
        Ok(mid)
    }

    fn pair(&mut self, mid: usize, req: usize) {
        debug_assert!(self.msgs[mid].paired.is_none());
        debug_assert!(self.recv_reqs[req].msg.is_none());
        self.msgs[mid].paired = Some(req);
        self.recv_reqs[req].msg = Some(mid);
        let known = match self.msgs[mid].state {
            MsgState::Done { t1 } => Some(t1),
            MsgState::Flying { t1 } if self.exact_flight(mid) => Some(t1),
            _ => None,
        };
        if let Some(t1) = known {
            // arrival time already known
            self.complete_recv_req(req, t1);
        }
        // rendezvous messages may have been waiting for this match
        // (grant attempted by the caller via try_grant where needed)
    }

    /// Retire a message once no live path can reference it again —
    /// delivered, sender fully released, receiver consumed: report its
    /// final record and recycle its slot and its paired receive
    /// request's. Each condition is reported by exactly one code path,
    /// and this is called from all of them, so whichever fires last
    /// retires the slot. A no-op whenever any condition is still open
    /// (retries harmlessly until the last one closes).
    fn try_retire(&mut self, mid: usize) {
        let m = &self.msgs[mid];
        if !matches!(m.state, MsgState::Done { .. }) || !m.send_done || m.waiter.is_some() {
            return;
        }
        let Some(req) = m.paired else { return };
        if self.recv_reqs[req].consumed_at.is_none() {
            return;
        }
        let comm = Self::comm_record(&self.recv_reqs, m);
        self.probe.on_comm(m.seq as usize, &comm);
        // scrub the links so a stale retire attempt on the freed slot
        // (before reuse) sees no pairing and no-ops
        self.msgs[mid].paired = None;
        self.recv_reqs[req].msg = None;
        self.msg_free.push(mid);
        self.req_free.push(req);
    }

    /// Record a receive request's completion time and unblock its owner
    /// if currently parked on it.
    fn complete_recv_req(&mut self, req: usize, t1: Time) {
        self.recv_reqs[req].complete = Some(t1);
        let owner = self.recv_reqs[req].rank;
        if let Blocked::OnReq {
            req: r,
            since,
            state,
        } = self.ranks[owner].blocked
        {
            if r == req {
                let resume = t1.max(since);
                self.push_state(owner, since, resume, state);
                if resume > since {
                    if let Some(mid) = self.recv_reqs[req].msg {
                        let seq = self.msgs[mid].seq as usize;
                        self.probe
                            .on_wait_edge(owner, since, resume, seq, WaitEdge::Arrival);
                    }
                }
                self.recv_reqs[req].consumed_at = Some(resume);
                self.queue.push(resume, Event::Resume { rank: owner });
                self.ranks[owner].blocked = Blocked::ResumeScheduled;
            }
        }
        if let Some(mid) = self.recv_reqs[req].msg {
            self.try_retire(mid);
        }
    }

    /// Start message `mid` at `now` if it can start: unless it is a
    /// rendezvous message still waiting for its receive, it either gets
    /// its resources or parks on the one it failed to get.
    ///
    /// Called when the message is sent and when its rendezvous match
    /// arrives. Neither frees a resource, so every other blocked message
    /// stays blocked: trying this one message makes exactly the grants a
    /// first-fit rescan of all blocked messages would. Fails only when a
    /// killed link left the endpoints disconnected.
    fn try_grant(&mut self, mid: usize, now: Time) -> Result<(), SimError> {
        let m = &self.msgs[mid];
        if m.mode == SendMode::Rendezvous && m.paired.is_none() {
            return Ok(());
        }
        if let Some(pool) = m.link.pool() {
            if let Err(unit) = self.resources.try_acquire(pool, m.src, m.dst) {
                self.waits.park(unit, m.seq, mid);
                return Ok(());
            }
        }
        self.start_transfer(mid, now)
    }

    /// A transfer released its `pool` unit and the ports `src -> dst`
    /// at `now`: grant those units' waiters, in initiation order, while
    /// the units have room.
    ///
    /// Only these waiters can have become startable: every waiter is
    /// parked on a unit that was full, and units gain room only here.
    /// Grants only take room, so a unit that fills up stays full for the
    /// rest of the pass, and a waiter that fails re-parks on a full
    /// unit. Always taking the smallest waiter among the released units
    /// that still have room therefore visits the startable messages in
    /// initiation order — the grants, and their order, of a first-fit
    /// rescan of every blocked message. On return each released unit is
    /// full or has no waiters, so the invariant holds again.
    fn regrant(&mut self, pool: Pool, src: usize, dst: usize, now: Time) -> Result<(), SimError> {
        let units = [Unit::Out(src), Unit::In(dst), Unit::Pool(pool)];
        loop {
            let mut next: Option<(u64, Unit)> = None;
            for unit in units {
                if !self.resources.has_spare(unit) {
                    continue;
                }
                if let Some(seq) = self.waits.first(unit) {
                    if next.is_none_or(|(best, _)| seq < best) {
                        next = Some((seq, unit));
                    }
                }
            }
            let Some((_, unit)) = next else {
                return Ok(());
            };
            let mid = self.waits.pop(unit).expect("a waiter was just seen");
            self.try_grant(mid, now)?;
        }
    }

    /// Message `mid` holds its resources: put it in flight at `now` and
    /// release a sender parked on it if its release time is now known.
    fn start_transfer(&mut self, mid: usize, now: Time) -> Result<(), SimError> {
        let (src, dst, mode, bytes, link) = {
            let m = &self.msgs[mid];
            (m.src, m.dst, m.mode, m.bytes, m.link)
        };
        self.msgs[mid].t_start = now;
        self.probe.on_injected(src, now, bytes.get());
        if link != Link::Intra {
            self.in_flight += 1;
            self.probe.on_transfer_start(
                now,
                self.in_flight,
                self.resources.buses_in_use(),
                self.resources.ports_in_use(),
            );
        }
        let flow_mode = self.flownet.is_some() && link == Link::Net;
        let t1 = if flow_mode {
            // flow-level: register the flow; its completion arrives
            // as an epoch-guarded FlowDone, `t1` is only the current
            // estimate
            self.start_flow(mid, src, dst, bytes, now)?
        } else {
            let t1 = now
                + match link {
                    Link::Intra => self.platform.intra_transfer_time(bytes),
                    Link::Net => self.platform.transfer_time(bytes),
                    Link::Wan => self.platform.wan_transfer_time(bytes),
                };
            self.queue.push(t1, Event::TransferDone { msg: mid });
            t1
        };
        self.msgs[mid].state = MsgState::Flying { t1 };
        // the uncontended arrival of a flow-level transfer is
        // reported by the allocator (`on_flow_path`); closed-form
        // link classes arrive exactly at `t1`
        let unc = if flow_mode { None } else { Some(t1) };
        let seq = self.msgs[mid].seq as usize;
        self.probe
            .on_transfer_granted(seq, now, self.injection_latency(link), unc);
        // a sender parked on this message can now compute its
        // release time (a rendezvous sender in flow mode cannot:
        // it stays parked until the actual FlowDone)
        if let Some(w) = self.msgs[mid].waiter {
            let resume = match mode {
                SendMode::Eager => Some(now + self.injection_latency(link)),
                SendMode::Rendezvous if !flow_mode => Some(t1),
                SendMode::Rendezvous => None,
            };
            if let Some(resume) = resume {
                let since = self.msgs[mid].waiter_since;
                if let Blocked::OnMsg { state, .. } = self.ranks[w].blocked {
                    self.push_state(w, since, resume, state);
                    if resume > since {
                        let edge = if mode == SendMode::Eager {
                            WaitEdge::Injection
                        } else {
                            WaitEdge::Arrival
                        };
                        let seq = self.msgs[mid].seq as usize;
                        self.probe.on_wait_edge(w, since, resume, seq, edge);
                    }
                    self.queue.push(resume, Event::Resume { rank: w });
                    self.ranks[w].blocked = Blocked::ResumeScheduled;
                    self.msgs[mid].waiter = None;
                    // the parked sender is scheduled and will never
                    // look at this message again
                    self.msgs[mid].send_done = true;
                }
            }
        }
        Ok(())
    }

    /// Convert a routing failure into the engine-level error.
    fn partitioned(p: Partition) -> SimError {
        SimError::Partitioned {
            src: p.src,
            dst: p.dst,
            link: String::from(&*p.link),
        }
    }

    /// Register message `mid` as a flow over the topology and schedule
    /// every (re-)estimated completion. Returns the new flow's estimate.
    fn start_flow(
        &mut self,
        mid: usize,
        src: usize,
        dst: usize,
        bytes: Bytes,
        now: Time,
    ) -> Result<Time, SimError> {
        let mut evs = std::mem::take(&mut self.flow_scratch);
        evs.clear();
        let net = self.flownet.as_mut().expect("flow mode");
        net.start(
            mid,
            self.msgs[mid].seq,
            self.platform.node_of(src),
            self.platform.node_of(dst),
            bytes.get() as f64,
            self.platform.latency().as_secs(),
            now,
            &mut evs,
            self.probe,
        )
        .map_err(Self::partitioned)?;
        let mut est = now;
        for e in &evs {
            self.queue.push(
                e.at,
                Event::FlowDone {
                    msg: e.msg,
                    epoch: e.epoch,
                },
            );
            if e.msg == mid {
                est = e.at;
            }
        }
        self.flow_scratch = evs;
        Ok(est)
    }

    /// A scheduled fault strikes: settle traffic, mutate the fabric,
    /// reroute flows off killed links, and schedule the re-estimated
    /// completions. A fault that disconnects an in-flight flow's
    /// endpoints fails the replay with [`SimError::Partitioned`].
    fn on_fault(&mut self, idx: usize, now: Time) -> Result<(), SimError> {
        let mut evs = std::mem::take(&mut self.flow_scratch);
        evs.clear();
        let f = &self.faults[idx];
        let net = self.flownet.as_mut().expect("faults need flow mode");
        let outcome = net
            .apply_fault(&f.action, &f.links, now, &mut evs, self.probe)
            .map_err(Self::partitioned)?;
        self.probe
            .on_fault(now, &f.links, &f.action, outcome.rerouted, outcome.reshared);
        self.fault_log.push(AppliedFault {
            at: now,
            desc: f.desc.clone(),
        });
        for e in &evs {
            self.queue.push(
                e.at,
                Event::FlowDone {
                    msg: e.msg,
                    epoch: e.epoch,
                },
            );
        }
        self.flow_scratch = evs;
        Ok(())
    }

    /// A flow's *live* completion estimate fired (the run loop already
    /// discarded stale epochs): the transfer is delivered exactly like a
    /// `TransferDone`, and the freed bandwidth is reshared among the
    /// surviving flows.
    fn on_flow_done(&mut self, mid: usize, t1: Time) -> Result<(), SimError> {
        let mut evs = std::mem::take(&mut self.flow_scratch);
        evs.clear();
        self.flownet
            .as_mut()
            .expect("flow mode")
            .finish(mid, t1, &mut evs, self.probe);
        for e in &evs {
            self.queue.push(
                e.at,
                Event::FlowDone {
                    msg: e.msg,
                    epoch: e.epoch,
                },
            );
        }
        self.flow_scratch = evs;
        let (src, dst) = (self.msgs[mid].src, self.msgs[mid].dst);
        self.msgs[mid].state = MsgState::Done { t1 };
        self.resources
            .release(Pool::Bus, src, dst)
            .map_err(SimError::Accounting)?;
        self.in_flight -= 1;
        self.probe.on_transfer_done(
            t1,
            self.in_flight,
            self.resources.buses_in_use(),
            self.resources.ports_in_use(),
        );
        self.regrant(Pool::Bus, src, dst, t1)?;
        // a rendezvous sender may still be parked on this message
        if let Some(w) = self.msgs[mid].waiter {
            let since = self.msgs[mid].waiter_since;
            if let Blocked::OnMsg { state, .. } = self.ranks[w].blocked {
                let resume = t1.max(since);
                self.push_state(w, since, resume, state);
                if resume > since {
                    let seq = self.msgs[mid].seq as usize;
                    self.probe
                        .on_wait_edge(w, since, resume, seq, WaitEdge::Arrival);
                }
                self.queue.push(resume, Event::Resume { rank: w });
                self.ranks[w].blocked = Blocked::ResumeScheduled;
                self.msgs[mid].waiter = None;
                self.msgs[mid].send_done = true;
            }
        }
        if let Some(req) = self.msgs[mid].paired {
            if self.recv_reqs[req].complete.is_none() {
                self.complete_recv_req(req, t1);
            }
        }
        self.try_retire(mid);
        Ok(())
    }

    /// Sender-side injection latency per link class (eager sends).
    fn injection_latency(&self, link: Link) -> Time {
        match link {
            Link::Intra => Time::micros(self.platform.intra_latency_us),
            Link::Net => self.platform.latency(),
            Link::Wan => Time::micros(self.platform.wan_latency_us),
        }
    }

    fn on_transfer_done(&mut self, mid: usize, t1: Time) -> Result<(), SimError> {
        let (src, dst) = (self.msgs[mid].src, self.msgs[mid].dst);
        self.msgs[mid].state = MsgState::Done { t1 };
        if let Some(pool) = self.msgs[mid].link.pool() {
            self.resources
                .release(pool, src, dst)
                .map_err(SimError::Accounting)?;
            self.in_flight -= 1;
            self.probe.on_transfer_done(
                t1,
                self.in_flight,
                self.resources.buses_in_use(),
                self.resources.ports_in_use(),
            );
            self.regrant(pool, src, dst, t1)?;
        }
        if let Some(req) = self.msgs[mid].paired {
            if self.recv_reqs[req].complete.is_none() {
                self.complete_recv_req(req, t1);
            }
        }
        self.try_retire(mid);
        Ok(())
    }

    /// Receiver-side wait (blocking recv, or wait on an irecv request).
    fn wait_on_recv(&mut self, rank: usize, req: usize, tag: Tag, clock: Time) -> Flow {
        let state = Self::wait_state(tag, State::WaitRecv);
        // arrival time, if already determined
        let known = self.recv_reqs[req].complete.or_else(|| {
            self.recv_reqs[req]
                .msg
                .and_then(|m| match self.msgs[m].state {
                    MsgState::Done { t1 } => Some(t1),
                    MsgState::Flying { t1 } if self.exact_flight(m) => Some(t1),
                    _ => None,
                })
        });
        match known {
            Some(tc) if tc <= clock => {
                self.recv_reqs[req].consumed_at = Some(clock);
                if let Some(mid) = self.recv_reqs[req].msg {
                    self.try_retire(mid);
                }
                Flow::Continue
            }
            Some(tc) => {
                self.push_state(rank, clock, tc, state);
                if let Some(mid) = self.recv_reqs[req].msg {
                    let seq = self.msgs[mid].seq as usize;
                    self.probe
                        .on_wait_edge(rank, clock, tc, seq, WaitEdge::Arrival);
                }
                self.recv_reqs[req].consumed_at = Some(tc);
                self.queue.push(tc, Event::Resume { rank });
                self.ranks[rank].blocked = Blocked::ResumeScheduled;
                if let Some(mid) = self.recv_reqs[req].msg {
                    self.try_retire(mid);
                }
                Flow::Yield
            }
            None => {
                self.ranks[rank].blocked = Blocked::OnReq {
                    req,
                    since: clock,
                    state,
                };
                Flow::Yield
            }
        }
    }

    /// Sender-side wait (blocking send, or wait on an isend request).
    fn wait_on_send(&mut self, rank: usize, mid: usize, clock: Time) -> Flow {
        let state = Self::wait_state(self.msgs[mid].tag, State::WaitSend);
        let release = match (self.msgs[mid].state, self.msgs[mid].mode) {
            (MsgState::Pending, _) => None,
            (MsgState::Flying { .. } | MsgState::Done { .. }, SendMode::Eager) => {
                Some(self.msgs[mid].t_start + self.injection_latency(self.msgs[mid].link))
            }
            (MsgState::Done { t1 }, SendMode::Rendezvous) => Some(t1),
            (MsgState::Flying { t1 }, SendMode::Rendezvous) if self.exact_flight(mid) => Some(t1),
            // flow-level estimate: park until the actual FlowDone
            (MsgState::Flying { .. }, SendMode::Rendezvous) => None,
        };
        match release {
            Some(tc) if tc <= clock => {
                self.msgs[mid].send_done = true;
                self.try_retire(mid);
                Flow::Continue
            }
            Some(tc) => {
                self.push_state(rank, clock, tc, state);
                let edge = if self.msgs[mid].mode == SendMode::Eager {
                    WaitEdge::Injection
                } else {
                    WaitEdge::Arrival
                };
                let seq = self.msgs[mid].seq as usize;
                self.probe.on_wait_edge(rank, clock, tc, seq, edge);
                self.queue.push(tc, Event::Resume { rank });
                self.ranks[rank].blocked = Blocked::ResumeScheduled;
                self.msgs[mid].send_done = true;
                self.try_retire(mid);
                Flow::Yield
            }
            None => {
                self.msgs[mid].waiter = Some(rank);
                self.msgs[mid].waiter_since = clock;
                self.ranks[rank].blocked = Blocked::OnMsg {
                    since: clock,
                    state,
                };
                Flow::Yield
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ovlp_trace::{Instructions, Trace, TransferId};

    const EPS: f64 = 1e-9;

    fn plat() -> Platform {
        // round numbers: 1000 MIPS, 100 MB/s, 10 us latency
        Platform {
            mips: 1000.0,
            bandwidth_mbs: 100.0,
            latency_us: 10.0,
            buses: 0,
            input_ports: 1,
            output_ports: 1,
            collective: crate::platform::CollectiveAlgo::Binomial,
            ..Platform::default()
        }
    }

    fn tid(r: u32, s: u32) -> TransferId {
        TransferId::new(Rank(r), s)
    }

    fn compute(instr: u64) -> Record {
        Record::Compute {
            instr: Instructions(instr),
        }
    }

    fn send(dst: u32, tag: u32, bytes: u64, s: u32) -> Record {
        Record::Send {
            dst: Rank(dst),
            tag: Tag::user(tag),
            bytes: Bytes(bytes),
            mode: SendMode::Eager,
            transfer: tid(99, s),
        }
    }

    fn recv(src: u32, tag: u32, bytes: u64, s: u32) -> Record {
        Record::Recv {
            src: Rank(src),
            tag: Tag::user(tag),
            bytes: Bytes(bytes),
            transfer: tid(98, s),
        }
    }

    /// Single message on an idle network: receiver finishes exactly at
    /// latency + size/BW (sender sends at t=0, receiver posted at t=0).
    #[test]
    fn single_message_linear_model() {
        let mut t = Trace::new(2);
        t.rank_mut(Rank(0)).push(send(1, 0, 1_000_000, 0)); // 1 MB
        t.rank_mut(Rank(1)).push(recv(0, 0, 1_000_000, 0));
        let res = simulate(&t, &plat()).unwrap();
        // wire = 1e6 / 100e6 = 10 ms; latency 10 us
        let expect = 0.01 + 10e-6;
        assert!((res.runtime() - expect).abs() < EPS, "{}", res.runtime());
        // receiver waited the whole transfer
        assert!(
            (res.totals[1].wait_recv.as_secs() - expect).abs() < EPS,
            "{:?}",
            res.totals[1]
        );
        // sender released after latency only (eager)
        assert!((res.totals[0].wait_send.as_secs() - 10e-6).abs() < EPS);
        // comm record fields agree
        let c = &res.comms[0];
        assert_eq!(c.t_send, Time::ZERO);
        assert_eq!(c.t_start, Time::ZERO);
        assert!((c.t_arrive.as_secs() - expect).abs() < EPS);
    }

    /// Computation bursts scale by MIPS.
    #[test]
    fn compute_only() {
        let mut t = Trace::new(1);
        t.rank_mut(Rank(0)).push(compute(5_000_000)); // 5 Minstr @ 1000 MIPS = 5 ms
        let res = simulate(&t, &plat()).unwrap();
        assert!((res.runtime() - 0.005).abs() < EPS);
        assert!((res.totals[0].compute.as_secs() - 0.005).abs() < EPS);
        assert!((res.efficiency() - 1.0).abs() < EPS);
    }

    /// Ping-pong: runtime = 2 * (latency + size/BW) when both sides are
    /// otherwise idle.
    #[test]
    fn ping_pong() {
        let mut t = Trace::new(2);
        let r0 = t.rank_mut(Rank(0));
        r0.push(send(1, 0, 100_000, 0));
        r0.push(recv(1, 1, 100_000, 1));
        let r1 = t.rank_mut(Rank(1));
        r1.push(recv(0, 0, 100_000, 0));
        r1.push(send(0, 1, 100_000, 1));
        let res = simulate(&t, &plat()).unwrap();
        let one = 10e-6 + 1e5 / 100e6;
        assert!((res.runtime() - 2.0 * one).abs() < EPS, "{}", res.runtime());
    }

    /// k simultaneous messages over b buses serialize into ceil(k/b)
    /// wire rounds. Use distinct (src,dst) pairs so ports don't bind.
    #[test]
    fn bus_contention_serializes() {
        let k = 4u32;
        let bytes = 1_000_000u64; // 10 ms each
        for buses in [1u32, 2, 4] {
            let mut t = Trace::new(2 * k as usize);
            for i in 0..k {
                t.rank_mut(Rank(i)).push(send(k + i, 0, bytes, 0));
                t.rank_mut(Rank(k + i)).push(recv(i, 0, bytes, 0));
            }
            let p = Platform { buses, ..plat() };
            let res = simulate(&t, &p).unwrap();
            let rounds = k.div_ceil(buses);
            let expect = rounds as f64 * 0.01 + 10e-6 * 1.0; // latency overlaps per round start...
                                                             // each round's transfers start when a bus frees: round r starts at r*(10ms+10us)?
                                                             // transfer occupies resources for latency+wire, so rounds serialize fully:
            let expect_full = rounds as f64 * (0.01 + 10e-6);
            let _ = expect;
            assert!(
                (res.runtime() - expect_full).abs() < 1e-6,
                "buses={buses}: got {} want {}",
                res.runtime(),
                expect_full
            );
        }
    }

    /// A single output port serializes two sends from the same rank.
    #[test]
    fn output_port_serializes() {
        let mut t = Trace::new(3);
        let r0 = t.rank_mut(Rank(0));
        r0.push(Record::ISend {
            dst: Rank(1),
            tag: Tag::user(0),
            bytes: Bytes(1_000_000),
            mode: SendMode::Eager,
            req: ovlp_trace::ReqId(0),
            transfer: tid(0, 0),
        });
        r0.push(Record::ISend {
            dst: Rank(2),
            tag: Tag::user(0),
            bytes: Bytes(1_000_000),
            mode: SendMode::Eager,
            req: ovlp_trace::ReqId(1),
            transfer: tid(0, 1),
        });
        t.rank_mut(Rank(1)).push(recv(0, 0, 1_000_000, 0));
        t.rank_mut(Rank(2)).push(recv(0, 0, 1_000_000, 0));
        let res = simulate(&t, &plat()).unwrap();
        let one = 0.01 + 10e-6;
        assert!((res.runtime() - 2.0 * one).abs() < EPS, "{}", res.runtime());

        // with 2 output ports they run concurrently
        let p = Platform {
            output_ports: 2,
            ..plat()
        };
        let res2 = simulate(&t, &p).unwrap();
        assert!((res2.runtime() - one).abs() < EPS, "{}", res2.runtime());
    }

    /// A completed transfer hands what it released to the blocked
    /// messages in initiation order, each one that fits: 2->1 waits on
    /// rank 1's input port and 3->4 on the only bus; when 0->1 lands,
    /// the older 2->1 takes both, and 3->4 waits another round.
    #[test]
    fn release_grants_waiters_in_initiation_order() {
        let bytes = 1_000_000; // 10 ms each
        let mut t = Trace::new(5);
        t.rank_mut(Rank(0)).push(send(1, 0, bytes, 0));
        t.rank_mut(Rank(2)).push(send(1, 1, bytes, 0));
        t.rank_mut(Rank(3)).push(send(4, 0, bytes, 0));
        let r1 = t.rank_mut(Rank(1));
        r1.push(recv(0, 0, bytes, 0));
        r1.push(recv(2, 1, bytes, 1));
        t.rank_mut(Rank(4)).push(recv(3, 0, bytes, 0));
        let res = simulate(&t, &Platform { buses: 1, ..plat() }).unwrap();
        let one = 0.01 + 10e-6;
        let starts: Vec<(usize, f64)> = res
            .comms
            .iter()
            .map(|c| (c.src.idx(), c.t_start.as_secs()))
            .collect();
        assert_eq!(starts.len(), 3);
        for ((src, got), (want_src, want)) in
            starts.into_iter().zip([(0, 0.0), (2, one), (3, 2.0 * one)])
        {
            assert_eq!(src, want_src);
            assert!((got - want).abs() < EPS, "{src}: start {got}, want {want}");
        }
    }

    /// IRecv + overlap: receiver computes while the message flies; the
    /// wait costs nothing if compute covers the transfer.
    #[test]
    fn irecv_overlaps_compute() {
        let mut t = Trace::new(2);
        t.rank_mut(Rank(0)).push(send(1, 0, 1_000_000, 0)); // arrives ~10ms
        let r1 = t.rank_mut(Rank(1));
        r1.push(Record::IRecv {
            src: Rank(0),
            tag: Tag::user(0),
            bytes: Bytes(1_000_000),
            req: ovlp_trace::ReqId(0),
            transfer: tid(1, 0),
        });
        r1.push(compute(20_000_000)); // 20 ms > transfer
        r1.push(Record::Wait {
            req: ovlp_trace::ReqId(0),
        });
        let res = simulate(&t, &plat()).unwrap();
        assert!((res.runtime() - 0.02).abs() < EPS, "{}", res.runtime());
        assert_eq!(res.totals[1].wait_recv, Time::ZERO);
    }

    /// Blocking recv with no overlap pays the full transfer.
    #[test]
    fn blocking_recv_pays_transfer() {
        let mut t = Trace::new(2);
        t.rank_mut(Rank(0)).push(send(1, 0, 1_000_000, 0));
        let r1 = t.rank_mut(Rank(1));
        r1.push(recv(0, 0, 1_000_000, 0));
        r1.push(compute(20_000_000));
        let res = simulate(&t, &plat()).unwrap();
        let expect = 0.01 + 10e-6 + 0.02;
        assert!((res.runtime() - expect).abs() < EPS, "{}", res.runtime());
    }

    /// Rendezvous sender blocks until delivery; transfer cannot start
    /// before the receive is posted.
    #[test]
    fn rendezvous_waits_for_match() {
        let mut t = Trace::new(2);
        t.rank_mut(Rank(0)).push(Record::Send {
            dst: Rank(1),
            tag: Tag::user(0),
            bytes: Bytes(1_000_000),
            mode: SendMode::Rendezvous,
            transfer: tid(0, 0),
        });
        let r1 = t.rank_mut(Rank(1));
        r1.push(compute(50_000_000)); // 50 ms before posting recv
        r1.push(recv(0, 0, 1_000_000, 0));
        let res = simulate(&t, &plat()).unwrap();
        let expect = 0.05 + 0.01 + 10e-6;
        assert!((res.runtime() - expect).abs() < EPS, "{}", res.runtime());
        // sender was blocked the whole time
        assert!((res.totals[0].wait_send.as_secs() - expect).abs() < EPS);
    }

    /// Eager message sent before recv posted: arrival buffered, recv
    /// returns immediately when late-posted.
    #[test]
    fn eager_early_arrival_buffers() {
        let mut t = Trace::new(2);
        t.rank_mut(Rank(0)).push(send(1, 0, 1000, 0)); // tiny, arrives fast
        let r1 = t.rank_mut(Rank(1));
        r1.push(compute(50_000_000)); // 50 ms
        r1.push(recv(0, 0, 1000, 0));
        let res = simulate(&t, &plat()).unwrap();
        assert!((res.runtime() - 0.05).abs() < EPS, "{}", res.runtime());
        assert_eq!(res.totals[1].wait_recv, Time::ZERO);
    }

    /// FIFO matching: two same-tag messages of different sizes must
    /// match their receives in order.
    #[test]
    fn fifo_matching_preserves_order() {
        let mut t = Trace::new(2);
        let r0 = t.rank_mut(Rank(0));
        r0.push(send(1, 0, 1_000_000, 0)); // big first
        r0.push(send(1, 0, 1000, 1)); // small second
        let r1 = t.rank_mut(Rank(1));
        r1.push(recv(0, 0, 1_000_000, 0));
        r1.push(recv(0, 0, 1000, 1));
        let res = simulate(&t, &plat()).unwrap();
        // first recv completes after big message; second after small
        // (serialized by the sender's single output port)
        let big = 0.01 + 10e-6;
        let small = 1e3 / 100e6 + 10e-6;
        assert!((res.runtime() - (big + small)).abs() < EPS);
        assert!(res.comms[0].t_arrive < res.comms[1].t_arrive);
    }

    /// Deadlock (recv with no sender) is detected, not an infinite
    /// loop, and the report says what the stuck rank waits on.
    #[test]
    fn deadlock_detected() {
        let mut t = Trace::new(2);
        t.rank_mut(Rank(0)).push(recv(1, 0, 100, 0));
        let err = simulate(&t, &plat()).unwrap_err();
        match err {
            SimError::Deadlock { stuck } => {
                assert_eq!(stuck.len(), 1);
                assert_eq!(stuck[0].0, 0);
                assert!(
                    stuck[0].1.contains("recv(src=1, tag=0)")
                        && stuck[0].1.contains("no matching send"),
                    "uninformative deadlock detail: {}",
                    stuck[0].1
                );
            }
            other => panic!("expected deadlock, got {other}"),
        }
    }

    /// A rendezvous sender with no receiver deadlocks with a send-side
    /// diagnosis.
    #[test]
    fn deadlock_reports_blocked_sender() {
        let mut t = Trace::new(2);
        t.rank_mut(Rank(0)).push(Record::Send {
            dst: Rank(1),
            tag: Tag::user(7),
            bytes: Bytes(1_000_000),
            mode: SendMode::Rendezvous,
            transfer: tid(0, 0),
        });
        let err = simulate(&t, &plat()).unwrap_err();
        match err {
            SimError::Deadlock { stuck } => {
                assert_eq!(stuck[0].0, 0);
                assert!(
                    stuck[0].1.contains("send(dst=1, tag=7"),
                    "uninformative deadlock detail: {}",
                    stuck[0].1
                );
            }
            other => panic!("expected deadlock, got {other}"),
        }
    }

    /// Killing the only path on a crossbar (no route diversity) fails
    /// cleanly with `Partitioned` instead of hanging.
    #[test]
    fn killed_crossbar_link_partitions() {
        let mut t = Trace::new(2);
        let r0 = t.rank_mut(Rank(0));
        r0.push(compute(2_000_000)); // 2 ms, so the send follows the kill
        r0.push(send(1, 0, 1_000_000, 0));
        t.rank_mut(Rank(1)).push(recv(0, 0, 1_000_000, 1));
        let p = plat()
            .with_topology(crate::net::Topology::Crossbar)
            .with_faults("kill@1ms:n0->sw".parse().unwrap());
        match simulate(&t, &p).unwrap_err() {
            SimError::Partitioned { src, dst, link } => {
                assert_eq!((src, dst), (0, 1));
                assert_eq!(link, "n0->sw");
            }
            other => panic!("expected partition, got {other}"),
        }
    }

    /// Degrading a link stretches the wire time by exactly the factor
    /// (single flow, crossbar: the degraded up-link is the bottleneck).
    #[test]
    fn degraded_link_slows_transfers() {
        let mut t = Trace::new(2);
        let r0 = t.rank_mut(Rank(0));
        r0.push(compute(2_000_000)); // 2 ms
        r0.push(send(1, 0, 1_000_000, 0));
        let r1 = t.rank_mut(Rank(1));
        r1.push(compute(2_000_000));
        r1.push(recv(0, 0, 1_000_000, 1));
        let base = plat().with_topology(crate::net::Topology::Crossbar);
        let healthy = simulate(&t, &base).unwrap();
        let degraded = simulate(
            &t,
            &base.with_faults("degrade=0.5@1ms:n0->sw".parse().unwrap()),
        )
        .unwrap();
        // healthy: 2 ms + 10 ms wire; degraded: 2 ms + 20 ms wire
        assert!(
            (healthy.runtime() - (0.002 + 0.01 + 10e-6)).abs() < EPS,
            "{}",
            healthy.runtime()
        );
        assert!(
            (degraded.runtime() - (0.002 + 0.02 + 10e-6)).abs() < EPS,
            "{}",
            degraded.runtime()
        );
        assert_eq!(degraded.network.faults_applied, 1);
        assert_eq!(degraded.fault_log.len(), 1);
        assert!(degraded.fault_log[0].desc.contains("degrade"));
        let faulted: Vec<_> = degraded
            .links
            .iter()
            .filter(|l| l.faults > 0)
            .map(|l| &*l.label)
            .collect();
        assert_eq!(faulted, ["n0->sw"]);
    }

    /// Kill-then-restore around an idle period completes and matches
    /// the fault-free replay bit for bit (no traffic ever saw the dead
    /// link).
    #[test]
    fn kill_restore_on_idle_link_is_invisible() {
        let mut t = Trace::new(2);
        let r0 = t.rank_mut(Rank(0));
        r0.push(compute(5_000_000)); // 5 ms of compute covers the outage
        r0.push(send(1, 0, 1_000_000, 0));
        let r1 = t.rank_mut(Rank(1));
        r1.push(compute(5_000_000));
        r1.push(recv(0, 0, 1_000_000, 1));
        let base = plat().with_topology(crate::net::Topology::Crossbar);
        let clean = simulate(&t, &base).unwrap();
        let faulted = simulate(
            &t,
            &base.with_faults("kill@1ms:n0->sw;restore@2ms:n0->sw".parse().unwrap()),
        )
        .unwrap();
        assert_eq!(clean.runtime().to_bits(), faulted.runtime().to_bits());
        assert_eq!(clean.timelines, faulted.timelines);
        assert_eq!(faulted.network.faults_applied, 2);
        assert_eq!(faulted.network.flows_rerouted, 0);
        assert_eq!(faulted.network.reroute_reshares, 0);
    }

    /// Wait on an unknown request is an error.
    #[test]
    fn unknown_request_detected() {
        let mut t = Trace::new(1);
        t.rank_mut(Rank(0)).push(Record::Wait {
            req: ovlp_trace::ReqId(42),
        });
        assert!(matches!(
            simulate(&t, &plat()),
            Err(SimError::UnknownRequest { .. })
        ));
    }

    /// Collectives are expanded transparently: a barrier synchronizes
    /// skewed ranks.
    #[test]
    fn barrier_synchronizes() {
        let mut t = Trace::new(4);
        for r in 0..4u32 {
            let rt = t.rank_mut(Rank(r));
            rt.push(compute((r as u64 + 1) * 1_000_000)); // 1..4 ms
            rt.push(Record::Collective {
                op: ovlp_trace::CollOp::Barrier,
                bytes_in: Bytes::ZERO,
                bytes_out: Bytes::ZERO,
                root: Rank(0),
                transfer: tid(r, 0),
            });
            rt.push(compute(1_000_000));
        }
        let res = simulate(&t, &plat()).unwrap();
        // all ranks leave the barrier after the slowest (4 ms) plus
        // a few latencies; then 1 ms of compute
        assert!(res.runtime() > 0.005);
        assert!(res.runtime() < 0.0052, "{}", res.runtime());
        // collective time is labeled as such
        assert!(res.totals[0].collective > Time::ZERO);
    }

    /// Determinism: identical inputs give identical outputs.
    #[test]
    fn deterministic() {
        let mut t = Trace::new(4);
        for r in 0..4u32 {
            let rt = t.rank_mut(Rank(r));
            rt.push(compute(1_000_000 * (r as u64 + 1)));
            rt.push(send((r + 1) % 4, 0, 10_000, 0));
            rt.push(recv((r + 3) % 4, 0, 10_000, 1));
            rt.push(compute(500_000));
        }
        let p = Platform { buses: 2, ..plat() };
        let a = simulate(&t, &p).unwrap();
        let b = simulate(&t, &p).unwrap();
        assert_eq!(a.runtime, b.runtime);
        assert_eq!(a.timelines, b.timelines);
        assert_eq!(a.events_processed, b.events_processed);
    }

    /// More bandwidth never hurts.
    #[test]
    fn runtime_monotone_in_bandwidth() {
        let mut t = Trace::new(2);
        let r0 = t.rank_mut(Rank(0));
        r0.push(compute(1_000_000));
        r0.push(send(1, 0, 500_000, 0));
        let r1 = t.rank_mut(Rank(1));
        r1.push(recv(0, 0, 500_000, 0));
        r1.push(compute(1_000_000));
        let mut last = f64::INFINITY;
        for bw in [10.0, 50.0, 100.0, 1000.0, f64::INFINITY] {
            let res = simulate(&t, &plat().with_bandwidth(bw)).unwrap();
            assert!(
                res.runtime() <= last + EPS,
                "bw={bw}: {} > {last}",
                res.runtime()
            );
            last = res.runtime();
        }
    }

    /// Marker records are free.
    #[test]
    fn markers_cost_nothing() {
        let mut t = Trace::new(1);
        let rt = t.rank_mut(Rank(0));
        rt.push(Record::Marker {
            marker: ovlp_trace::record::Marker::IterBegin(0),
        });
        rt.push(compute(1_000_000));
        rt.push(Record::Marker {
            marker: ovlp_trace::record::Marker::IterEnd(0),
        });
        let res = simulate(&t, &plat()).unwrap();
        assert!((res.runtime() - 0.001).abs() < EPS);
    }

    fn isend(dst: u32, tag: u32, bytes: u64, req: u64) -> Record {
        Record::ISend {
            dst: Rank(dst),
            tag: Tag::user(tag),
            bytes: Bytes(bytes),
            mode: SendMode::Eager,
            req: ovlp_trace::ReqId(req),
            transfer: tid(97, req as u32),
        }
    }

    fn irecv(src: u32, tag: u32, bytes: u64, req: u64) -> Record {
        Record::IRecv {
            src: Rank(src),
            tag: Tag::user(tag),
            bytes: Bytes(bytes),
            req: ovlp_trace::ReqId(req),
            transfer: tid(96, req as u32),
        }
    }

    /// A channel's FIFO holds one item inline, spills into a deque from
    /// the second, falls back inline when one is left, and hands items
    /// out oldest first throughout; the channel is dropped once it
    /// drains. Both sides queue the same way.
    #[test]
    fn channel_queue_matches_in_order_through_spills() {
        let t = Trace::new(2);
        let p = plat();
        let mut probe = NoopSink;
        let mut e = Engine::new(
            Supply::new(&t, p.collective),
            &p,
            None,
            Vec::new(),
            &mut probe,
        );
        let key = (0, 1, Tag::user(0).0);
        for sends in [true, false] {
            for item in 10..14 {
                assert_eq!(e.match_or_queue(key, sends, item), None);
                let spilled = matches!(e.chans[&key].fifo, Fifo::Many(_));
                assert_eq!(spilled, item > 10, "after queueing {item}");
            }
            for (i, want) in (10..14).enumerate() {
                assert_eq!(e.match_or_queue(key, !sends, 99), Some(want));
                let left = 3 - i;
                match e.chans.get(&key).map(|c| &c.fifo) {
                    None => assert_eq!(left, 0),
                    Some(Fifo::One(_)) => assert_eq!(left, 1),
                    Some(Fifo::Many(q)) => assert_eq!(q.len(), left),
                }
            }
            assert!(e.chans.is_empty());
        }
        assert_eq!(e.chans_peak, 1);
    }

    /// Four eager sends queued on one channel before their receives,
    /// and four receives queued before their sends, pair in initiation
    /// order: the receiver passes the marker after its k-th wait exactly
    /// when the k-th message arrives (sizes differ, so any other pairing
    /// moves a marker).
    #[test]
    fn queued_posts_pair_in_initiation_order() {
        let sizes = [1_000_000u64, 2_000_000, 500_000, 3_000_000];
        for recvs_first in [false, true] {
            let mut t = Trace::new(2);
            let r0 = t.rank_mut(Rank(0));
            if recvs_first {
                r0.push(compute(1_000_000)); // 1 ms: all receives are posted
            }
            for (i, &b) in sizes.iter().enumerate() {
                r0.push(isend(1, 0, b, i as u64));
            }
            for i in 0..sizes.len() {
                r0.push(Record::Wait {
                    req: ovlp_trace::ReqId(i as u64),
                });
            }
            let r1 = t.rank_mut(Rank(1));
            if !recvs_first {
                r1.push(compute(1_000_000)); // 1 ms: all sends are queued
            }
            for (i, &b) in sizes.iter().enumerate() {
                r1.push(irecv(0, 0, b, i as u64));
            }
            for i in 0..sizes.len() {
                r1.push(Record::Wait {
                    req: ovlp_trace::ReqId(i as u64),
                });
                r1.push(Record::Marker {
                    marker: Marker::IterEnd(i as u32),
                });
            }
            let res = simulate(&t, &plat()).unwrap();
            let passed: Vec<Time> = res.markers[1].iter().map(|&(_, at)| at).collect();
            let arrivals: Vec<Time> = res.comms.iter().map(|c| c.t_arrive).collect();
            assert_eq!(passed, arrivals, "receives first: {recvs_first}");
            assert!(arrivals.windows(2).all(|w| w[0] < w[1]));
            let rep = replay_scale(&t, &plat()).unwrap();
            assert_eq!(rep.chan_slots, 1, "one channel, whichever side waits");
        }
    }

    /// `chan_slots` is the peak number of live channels: three tags
    /// queued at once, then two, read 3.
    #[test]
    fn chan_slots_is_the_live_channel_peak() {
        let mut t = Trace::new(2);
        let r0 = t.rank_mut(Rank(0));
        for (req, tag) in [0u32, 1, 2].into_iter().enumerate() {
            r0.push(isend(1, tag, 1000, req as u64));
        }
        for req in 0..3 {
            r0.push(Record::Wait {
                req: ovlp_trace::ReqId(req),
            });
        }
        r0.push(compute(10_000_000));
        for (req, tag) in [3u32, 4].into_iter().enumerate() {
            r0.push(isend(1, tag, 1000, 3 + req as u64));
        }
        let r1 = t.rank_mut(Rank(1));
        r1.push(compute(1_000_000));
        for tag in 0..3 {
            r1.push(recv(0, tag, 1000, tag));
        }
        r1.push(compute(20_000_000));
        for tag in 3..5 {
            r1.push(recv(0, tag, 1000, tag));
        }
        let rep = replay_scale(&t, &plat()).unwrap();
        assert_eq!(rep.chan_slots, 3);
        assert_eq!(rep.transfers, 5);
    }

    /// Empty trace simulates to zero time.
    #[test]
    fn empty_trace() {
        let res = simulate(&Trace::new(3), &plat()).unwrap();
        assert_eq!(res.runtime, Time::ZERO);
        assert_eq!(res.comms.len(), 0);
    }
}
