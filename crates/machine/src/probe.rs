//! Time-resolved observability probes for the replay engine.
//!
//! A [`ProbeSink`] receives callbacks from the engine at every state
//! transition, transfer start/finish, flow reshare, event dispatch and
//! message retirement. The engine is generic over the sink and builds
//! no results itself: [`simulate`](crate::simulate) tees a recorder that
//! keeps timelines and communication records with the caller's sink,
//! and [`replay_scale`](crate::replay_scale) runs one that keeps only
//! state totals. A hook no sink overrides inlines to nothing.
//!
//! [`WindowedRecorder`] is the production sink: it folds the callback
//! stream into fixed-width time windows and produces a [`Metrics`]
//! document with per-rank state occupancy, per-link utilization,
//! network health gauges (in-flight transfers, event-queue depth,
//! bus/port occupancy), and engine self-profiling counters. Everything
//! is derived from simulated time and deterministic event order, so
//! metrics are bit-identical across runs, worker counts, and probe
//! on/off settings — and they never feed back into the simulation, so
//! sweep replay fingerprints are unaffected.
//!
//! Durations are split across window boundaries proportionally;
//! point-sampled gauges fill forward (a gauge holds its value until the
//! next sample) and report each window's maximum. A recorder holds at
//! most [`MAX_WINDOWS`] windows, and at most [`MAX_CELLS`] windows
//! summed over its rank and link series: a run that needs more stops
//! recording and [`WindowedRecorder::into_metrics`] reports
//! [`TooManyWindows`].

use crate::net::fault::FaultAction;
use crate::net::topology::{Link, LinkId};
use crate::time::Time;
use crate::timeline::{CommRecord, State};
use ovlp_trace::record::Marker;

/// Which engine event was dispatched (payload-free mirror of
/// [`Event`](crate::event::Event), used for per-kind counters).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A rank resumed execution.
    Resume,
    /// A bus-model / intra-node / WAN transfer completed.
    TransferDone,
    /// A flow-level completion estimate fired (possibly stale).
    FlowDone,
    /// A scheduled link fault struck (kill, degrade or restore).
    Fault,
}

/// What released a rank from a wait interval — the causal parent edge
/// the critical-path walk follows backward
/// ([`CritPathRecorder`](crate::critpath::CritPathRecorder)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitEdge {
    /// The awaited message was delivered (`until` is its arrival time).
    Arrival,
    /// The eager sender finished local injection (`until` is the grant
    /// time plus the link class's injection latency).
    Injection,
}

impl EventKind {
    /// Dense index for counter arrays.
    pub fn idx(self) -> usize {
        match self {
            EventKind::Resume => 0,
            EventKind::TransferDone => 1,
            EventKind::FlowDone => 2,
            EventKind::Fault => 3,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            EventKind::Resume => "resume",
            EventKind::TransferDone => "transfer_done",
            EventKind::FlowDone => "flow_done",
            EventKind::Fault => "fault",
        }
    }
}

/// Observer of one replay. All methods default to no-ops; implement the
/// ones you need. Implementations must not assume callbacks arrive in
/// global time order — the engine emits them in *event processing*
/// order, and a state interval is reported when it closes, not when it
/// opens. Every `msg` argument is the message's initiation order (its
/// position among the executed send records), never an engine slot.
#[allow(unused_variables)]
pub trait ProbeSink {
    /// `false` compiles every engine-side hook away ([`NoopSink`]).
    const ENABLED: bool = true;

    /// Replay starting: rank count and the link graph (empty under the
    /// bus contention model).
    fn on_begin(&mut self, nranks: usize, links: &[Link]) {}

    /// A rank spent `[start, end)` in `state` (never zero-length).
    fn on_state(&mut self, rank: usize, start: Time, end: Time, state: State) {}

    /// An event was popped at `at`; `queue_depth` is the number of
    /// events still pending after the pop.
    fn on_event(&mut self, at: Time, kind: EventKind, queue_depth: usize) {}

    /// A network-level (non-intra-node) transfer acquired its resources.
    /// Gauges are sampled *after* the acquire.
    fn on_transfer_start(&mut self, at: Time, in_flight: u32, buses: u32, ports: u32) {}

    /// A network-level transfer released its resources. Gauges are
    /// sampled *after* the release.
    fn on_transfer_done(&mut self, at: Time, in_flight: u32, buses: u32, ports: u32) {}

    /// A rank's transfer was granted: `bytes` entered the network at
    /// `at` (all link classes, including intra-node).
    fn on_injected(&mut self, rank: usize, at: Time, bytes: u64) {}

    /// Link `link` carried `bytes` over `[t0, t1)`; `t0 == t1` means an
    /// instantaneous credit (the rounding tail of a finishing flow).
    fn on_link_traffic(&mut self, link: usize, t0: Time, t1: Time, bytes: f64) {}

    /// The max-min allocator ran at `at` over `active_flows` flows.
    fn on_reshare(&mut self, at: Time, active_flows: usize) {}

    /// A stale `FlowDone` was popped and discarded at `at` (its epoch
    /// was superseded by a reshare before it fired). Counts the dead
    /// heap traffic the epoch-guard scheme trades for O(1) rescheduling.
    fn on_stale_flow_done(&mut self, at: Time) {}

    /// A scheduled fault was applied to `links` at `at`: `rerouted`
    /// in-flight flows were moved off killed links, and `reshared` says
    /// whether the allocator re-ran (faults on idle links don't
    /// reshare, which keeps them invisible to flow timing).
    fn on_fault(
        &mut self,
        at: Time,
        links: &[LinkId],
        action: &FaultAction,
        rerouted: u32,
        reshared: bool,
    ) {
    }

    /// A send record executed: message `msg` entered the pending queue
    /// at `at` (the sender's local time). `rendezvous` reflects the
    /// *effective* mode after the platform's eager threshold.
    #[allow(clippy::too_many_arguments)]
    fn on_send_posted(
        &mut self,
        msg: usize,
        src: usize,
        dst: usize,
        tag: u32,
        bytes: u64,
        rendezvous: bool,
        at: Time,
    ) {
    }

    /// Message `msg` acquired its resource triple at `at`. `latency` is
    /// the sender-side injection latency of its link class;
    /// `uncontended_arrival` is the exact arrival time for link classes
    /// with closed-form timing (`None` for flow-level transfers, whose
    /// uncontended estimate arrives via [`ProbeSink::on_flow_path`]).
    fn on_transfer_granted(
        &mut self,
        msg: usize,
        at: Time,
        latency: Time,
        uncontended_arrival: Option<Time>,
    ) {
    }

    /// Flow `msg` was routed: `uncontended_eta` is when it would arrive
    /// if it never shared a link. Computed with the same float ops as
    /// the allocator's estimate, so a flow that is alone on its route
    /// from start to finish arrives at exactly this time, to the bit.
    fn on_flow_path(&mut self, msg: usize, uncontended_eta: Time) {}

    /// Flow `msg` was moved onto a new route by a link kill.
    fn on_flow_rerouted(&mut self, msg: usize) {}

    /// A rank's wait interval `[since, until)` was closed by message
    /// `msg`; `until` is exactly the event that released the rank (see
    /// [`WaitEdge`]). Emitted 1:1 with the corresponding
    /// [`ProbeSink::on_state`] wait interval (never zero-length).
    fn on_wait_edge(&mut self, rank: usize, since: Time, until: Time, msg: usize, edge: WaitEdge) {}

    /// A rank passed a structural marker at its local time `at`.
    fn on_marker(&mut self, rank: usize, marker: Marker, at: Time) {}

    /// Message `msg`'s transfer is final. Emitted once per message: when
    /// the engine retires it (delivered, sender released, receiver
    /// consumed), or, for a message still live when the replay ends, in
    /// ascending `msg` order just before [`ProbeSink::on_records_peak`].
    fn on_comm(&mut self, msg: usize, comm: &CommRecord) {}

    /// High-water mark of trace records resident in the engine's record
    /// supply: the collective steps buffered across the per-rank
    /// cursors plus the record in hand, whether the source is a
    /// materialized trace or a generator. Emitted once, just before
    /// [`ProbeSink::on_end`] — this is the counter that makes the
    /// "replay memory is O(active ranks)" claim observable.
    fn on_records_peak(&mut self, peak: u64) {}

    /// Replay finished: final runtime and the event-queue high-water
    /// mark.
    fn on_end(&mut self, runtime: Time, queue_peak: usize) {}
}

/// Implements every [`ProbeSink`] hook by calling it on each `$sink` in
/// turn, where each `$sink` is an `Option<&mut impl ProbeSink>`; `$me`
/// names the receiver for the sink expressions.
macro_rules! forward_hooks {
    ($me:ident => $($sink:expr),+) => {
        fn on_begin(&mut $me, nranks: usize, links: &[Link]) {
            $(if let Some(s) = $sink { s.on_begin(nranks, links) })+
        }
        fn on_state(&mut $me, rank: usize, start: Time, end: Time, state: State) {
            $(if let Some(s) = $sink { s.on_state(rank, start, end, state) })+
        }
        fn on_event(&mut $me, at: Time, kind: EventKind, queue_depth: usize) {
            $(if let Some(s) = $sink { s.on_event(at, kind, queue_depth) })+
        }
        fn on_transfer_start(&mut $me, at: Time, in_flight: u32, buses: u32, ports: u32) {
            $(if let Some(s) = $sink { s.on_transfer_start(at, in_flight, buses, ports) })+
        }
        fn on_transfer_done(&mut $me, at: Time, in_flight: u32, buses: u32, ports: u32) {
            $(if let Some(s) = $sink { s.on_transfer_done(at, in_flight, buses, ports) })+
        }
        fn on_injected(&mut $me, rank: usize, at: Time, bytes: u64) {
            $(if let Some(s) = $sink { s.on_injected(rank, at, bytes) })+
        }
        fn on_link_traffic(&mut $me, link: usize, t0: Time, t1: Time, bytes: f64) {
            $(if let Some(s) = $sink { s.on_link_traffic(link, t0, t1, bytes) })+
        }
        fn on_reshare(&mut $me, at: Time, active_flows: usize) {
            $(if let Some(s) = $sink { s.on_reshare(at, active_flows) })+
        }
        fn on_stale_flow_done(&mut $me, at: Time) {
            $(if let Some(s) = $sink { s.on_stale_flow_done(at) })+
        }
        fn on_fault(
            &mut $me,
            at: Time,
            links: &[LinkId],
            action: &FaultAction,
            rerouted: u32,
            reshared: bool,
        ) {
            $(if let Some(s) = $sink { s.on_fault(at, links, action, rerouted, reshared) })+
        }
        fn on_send_posted(
            &mut $me,
            msg: usize,
            src: usize,
            dst: usize,
            tag: u32,
            bytes: u64,
            rendezvous: bool,
            at: Time,
        ) {
            $(if let Some(s) = $sink {
                s.on_send_posted(msg, src, dst, tag, bytes, rendezvous, at)
            })+
        }
        fn on_transfer_granted(
            &mut $me,
            msg: usize,
            at: Time,
            latency: Time,
            uncontended_arrival: Option<Time>,
        ) {
            $(if let Some(s) = $sink {
                s.on_transfer_granted(msg, at, latency, uncontended_arrival)
            })+
        }
        fn on_flow_path(&mut $me, msg: usize, uncontended_eta: Time) {
            $(if let Some(s) = $sink { s.on_flow_path(msg, uncontended_eta) })+
        }
        fn on_flow_rerouted(&mut $me, msg: usize) {
            $(if let Some(s) = $sink { s.on_flow_rerouted(msg) })+
        }
        fn on_wait_edge(&mut $me, rank: usize, since: Time, until: Time, msg: usize, edge: WaitEdge) {
            $(if let Some(s) = $sink { s.on_wait_edge(rank, since, until, msg, edge) })+
        }
        fn on_marker(&mut $me, rank: usize, marker: Marker, at: Time) {
            $(if let Some(s) = $sink { s.on_marker(rank, marker, at) })+
        }
        fn on_comm(&mut $me, msg: usize, comm: &CommRecord) {
            $(if let Some(s) = $sink { s.on_comm(msg, comm) })+
        }
        fn on_records_peak(&mut $me, peak: u64) {
            $(if let Some(s) = $sink { s.on_records_peak(peak) })+
        }
        fn on_end(&mut $me, runtime: Time, queue_peak: usize) {
            $(if let Some(s) = $sink { s.on_end(runtime, queue_peak) })+
        }
    };
}

/// Fans every probe callback out to two sinks, so one replay can feed
/// e.g. a [`WindowedRecorder`] and a
/// [`CritPathRecorder`](crate::critpath::CritPathRecorder) at once.
/// Enabled iff either side is — pairing with [`NoopSink`] keeps the
/// other side's hooks live at zero extra cost.
#[derive(Debug, Default)]
pub struct TeeSink<A, B>(pub A, pub B);

impl<A: ProbeSink, B: ProbeSink> ProbeSink for TeeSink<A, B> {
    const ENABLED: bool = A::ENABLED || B::ENABLED;
    forward_hooks!(self => Some(&mut self.0), Some(&mut self.1));
}

/// A borrowed sink observes like the sink itself, so a caller's probe
/// can be teed with a recorder it does not own.
impl<P: ProbeSink + ?Sized> ProbeSink for &mut P {
    const ENABLED: bool = P::ENABLED;
    forward_hooks!(self => Some(&mut **self));
}

/// An optional sink observes when present, so a replay can run one
/// sink type whichever recorders a caller asked for (`None` records
/// nothing and costs a branch per hook).
impl<P: ProbeSink> ProbeSink for Option<P> {
    const ENABLED: bool = P::ENABLED;
    forward_hooks!(self => self.as_mut());
}

/// The do-nothing sink: what a caller of
/// [`simulate_probed`](crate::simulate_probed) passes when it wants only
/// the result. With [`ProbeSink::ENABLED`]` = false` its side of a
/// [`TeeSink`] compiles to nothing.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopSink;

impl ProbeSink for NoopSink {
    const ENABLED: bool = false;
}

/// Point-sampled gauge folded to a per-window maximum with
/// fill-forward: between samples the gauge holds its last value, so a
/// window nobody sampled in reports the value carried into it.
#[derive(Debug, Default)]
struct PeakSeries {
    vals: Vec<u32>,
    cur: u32,
}

impl PeakSeries {
    fn record(&mut self, w: usize, v: u32) {
        // windows entered since the last sample held `cur`
        while self.vals.len() <= w {
            self.vals.push(self.cur);
        }
        self.vals[w] = self.vals[w].max(v);
        self.cur = v;
    }

    fn finish(mut self, windows: usize) -> Vec<u32> {
        while self.vals.len() < windows {
            self.vals.push(self.cur);
        }
        self.vals.truncate(windows);
        self.vals
    }
}

/// Most windows a [`WindowedRecorder`] records.
pub const MAX_WINDOWS: usize = 1 << 16;

/// Most cells a [`WindowedRecorder`] holds, a cell being one window of
/// one rank's or link's series. A cell takes at most 40 bytes (a
/// rank's four occupancy shares and its injected bytes), so whatever
/// the rank count, a tiny `--probe-window` cannot ask for much more
/// than 640 MiB. An 8192-rank `fat-tree:32:4` run at the CLI's default
/// 256 windows needs about 15M cells.
pub const MAX_CELLS: usize = 1 << 24;

/// A [`WindowedRecorder`] run that needed more windows than its
/// ceiling allows.
#[derive(Debug, Clone, PartialEq)]
pub struct TooManyWindows {
    /// The recorder's window width, seconds.
    pub window_s: f64,
    /// The ceiling: [`MAX_WINDOWS`], or fewer when the ranks and links
    /// would exceed [`MAX_CELLS`].
    pub max_windows: usize,
}

impl std::fmt::Display for TooManyWindows {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Shortest round-trip digits either way; a window far from a
        // microsecond (`1e-300`) in exponent form, not as 300 digits.
        let us = self.window_s * 1e6;
        let us = if (1e-4..1e15).contains(&us.abs()) {
            format!("{us}")
        } else {
            format!("{us:e}")
        };
        write!(
            f,
            "a probe window of {us}us needs more than {} windows to cover the run; \
             choose a wider window",
            self.max_windows
        )
    }
}

impl std::error::Error for TooManyWindows {}

/// Sink that folds probe callbacks into fixed-width time windows.
///
/// Feed it to [`simulate_probed`](crate::replay::simulate_probed), then
/// call [`WindowedRecorder::into_metrics`] for the final document.
#[derive(Debug)]
pub struct WindowedRecorder {
    window_s: f64,
    /// The window ceiling: [`MAX_WINDOWS`], lowered by
    /// [`ProbeSink::on_begin`] to keep ranks and links within
    /// [`MAX_CELLS`].
    max_windows: usize,
    /// A callback reached past `max_windows`; the recorder has stopped
    /// recording.
    overflow: bool,
    link_meta: Vec<(std::sync::Arc<str>, f64)>,
    /// rank -> window -> seconds in [compute, wait-recv, wait-send,
    /// collective].
    occupancy: Vec<Vec<[f64; 4]>>,
    /// rank -> window -> bytes injected.
    injected: Vec<Vec<u64>>,
    /// link -> window -> bytes carried.
    link_bytes: Vec<Vec<f64>>,
    /// window -> events dispatched per [`EventKind`].
    events_w: Vec<[u64; 4]>,
    /// window -> reshare passes.
    reshares_w: Vec<u64>,
    in_flight: PeakSeries,
    queue_depth: PeakSeries,
    buses: PeakSeries,
    ports: PeakSeries,
    events_by_kind: [u64; 4],
    reshares: u64,
    stale_popped: u64,
    queue_peak: usize,
    records_peak: u64,
    max_in_flight: u32,
    /// link -> hit by at least one fault event.
    link_faulted: Vec<bool>,
    faults_applied: u64,
    flows_rerouted: u64,
    reroute_reshares: u64,
    runtime_s: f64,
}

impl WindowedRecorder {
    /// A recorder with `window` wide bins. Panics unless `window` is
    /// positive and finite.
    pub fn new(window: Time) -> WindowedRecorder {
        let window_s = window.as_secs();
        assert!(
            window_s > 0.0 && window_s.is_finite(),
            "probe window must be positive and finite, got {window_s}"
        );
        WindowedRecorder {
            window_s,
            max_windows: MAX_WINDOWS,
            overflow: false,
            link_meta: Vec::new(),
            occupancy: Vec::new(),
            injected: Vec::new(),
            link_bytes: Vec::new(),
            events_w: Vec::new(),
            reshares_w: Vec::new(),
            in_flight: PeakSeries::default(),
            queue_depth: PeakSeries::default(),
            buses: PeakSeries::default(),
            ports: PeakSeries::default(),
            events_by_kind: [0; 4],
            reshares: 0,
            stale_popped: 0,
            queue_peak: 0,
            records_peak: 0,
            max_in_flight: 0,
            link_faulted: Vec::new(),
            faults_applied: 0,
            flows_rerouted: 0,
            reroute_reshares: 0,
            runtime_s: 0.0,
        }
    }

    /// Window index containing time `t`, or `None` once the recorder
    /// has overflowed (marking it so when `t` lies past the ceiling).
    fn window(&mut self, t: Time) -> Option<usize> {
        let w = (t.as_secs() / self.window_s).floor() as usize;
        self.overflow |= w >= self.max_windows;
        (!self.overflow).then_some(w)
    }

    /// Whether the interval `[a, b)` ends within the ceiling and the
    /// recorder has not overflowed; an interval reaching past the
    /// ceiling overflows it, so the recorder stops growing there.
    fn fits(&mut self, a: Time, b: Time) -> bool {
        let (a, b) = (a.as_secs(), b.as_secs());
        self.overflow |= b > a && (b / self.window_s).ceil() > self.max_windows as f64;
        !self.overflow
    }

    /// Consume the recorder into the final [`Metrics`] document. Errs
    /// when the run needed more windows than the ceiling allows.
    pub fn into_metrics(self) -> Result<Metrics, TooManyWindows> {
        if self.overflow || self.runtime_s / self.window_s > self.max_windows as f64 {
            return Err(TooManyWindows {
                window_s: self.window_s,
                max_windows: self.max_windows,
            });
        }
        // enough windows to cover the runtime, and never fewer than any
        // series touched (an event exactly at the runtime lands one
        // window past ceil(runtime / dt))
        let mut windows = ((self.runtime_s / self.window_s).ceil() as usize).max(1);
        for r in &self.occupancy {
            windows = windows.max(r.len());
        }
        for r in &self.injected {
            windows = windows.max(r.len());
        }
        for l in &self.link_bytes {
            windows = windows.max(l.len());
        }
        windows = windows.max(self.events_w.len()).max(self.reshares_w.len());

        let pad = |mut v: Vec<f64>| {
            v.resize(windows, 0.0);
            v
        };
        let ranks = self
            .occupancy
            .into_iter()
            .zip(self.injected)
            .map(|(mut occ, mut inj)| {
                occ.resize(windows, [0.0; 4]);
                inj.resize(windows, 0);
                RankSeries {
                    occupancy: occ
                        .into_iter()
                        .map(|s| s.map(|secs| secs / self.window_s))
                        .collect(),
                    injected_bytes: inj,
                }
            })
            .collect();
        let links = self
            .link_meta
            .into_iter()
            .zip(self.link_bytes)
            .zip(self.link_faulted)
            .map(|(((label, capacity_bps), bytes), faulted)| {
                let bytes = pad(bytes);
                let full = capacity_bps * self.window_s;
                let utilization = bytes
                    .iter()
                    .map(|&b| {
                        if full.is_finite() && full > 0.0 {
                            b / full
                        } else {
                            0.0
                        }
                    })
                    .collect();
                LinkSeries {
                    label: String::from(&*label),
                    capacity_bps,
                    utilization,
                    bytes,
                    faulted,
                }
            })
            .collect();
        let mut events_w = self.events_w;
        events_w.resize(windows, [0; 4]);
        let mut reshares_w = self.reshares_w;
        reshares_w.resize(windows, 0);
        Ok(Metrics {
            window_s: self.window_s,
            runtime_s: self.runtime_s,
            windows,
            ranks,
            links,
            net: NetSeries {
                in_flight: self.in_flight.finish(windows),
                queue_depth: self.queue_depth.finish(windows),
                buses_busy: self.buses.finish(windows),
                ports_busy: self.ports.finish(windows),
            },
            engine: EngineCounters {
                events_by_kind: self.events_by_kind,
                events_per_window: events_w,
                reshares: self.reshares,
                reshares_per_window: reshares_w,
                stale_popped: self.stale_popped,
                queue_peak: self.queue_peak,
                records_peak: self.records_peak,
                max_in_flight: self.max_in_flight,
                faults_applied: self.faults_applied,
                flows_rerouted: self.flows_rerouted,
                reroute_reshares: self.reroute_reshares,
            },
        })
    }
}

fn bump_f64(series: &mut Vec<f64>, w: usize, amount: f64) {
    if series.len() <= w {
        series.resize(w + 1, 0.0);
    }
    series[w] += amount;
}

/// Split `[a, b)` into `dt`-wide windows, calling `f(window, seconds)`
/// for every overlapped window.
fn split_windows(dt: f64, a: Time, b: Time, mut f: impl FnMut(usize, f64)) {
    let (a, b) = (a.as_secs(), b.as_secs());
    let mut t = a;
    let mut w = (a / dt).floor() as usize;
    while t < b {
        let edge = (w as f64 + 1.0) * dt;
        let end = b.min(edge);
        if end > t {
            f(w, end - t);
        }
        t = edge;
        w += 1;
    }
}

impl ProbeSink for WindowedRecorder {
    fn on_begin(&mut self, nranks: usize, links: &[Link]) {
        self.occupancy = vec![Vec::new(); nranks];
        self.injected = vec![Vec::new(); nranks];
        self.link_meta = links
            .iter()
            .map(|l| (l.label.clone(), l.capacity))
            .collect();
        self.link_bytes = vec![Vec::new(); links.len()];
        self.link_faulted = vec![false; links.len()];
        self.max_windows = MAX_WINDOWS.min(MAX_CELLS / (nranks + links.len()).max(1));
    }

    fn on_state(&mut self, rank: usize, start: Time, end: Time, state: State) {
        let slot = match state {
            State::Compute => 0,
            State::WaitRecv => 1,
            State::WaitSend => 2,
            State::Collective => 3,
            State::Done => return,
        };
        if !self.fits(start, end) {
            return;
        }
        let occ = &mut self.occupancy[rank];
        split_windows(self.window_s, start, end, |w, secs| {
            if occ.len() <= w {
                occ.resize(w + 1, [0.0; 4]);
            }
            occ[w][slot] += secs;
        });
    }

    fn on_event(&mut self, at: Time, kind: EventKind, queue_depth: usize) {
        let Some(w) = self.window(at) else {
            return;
        };
        if self.events_w.len() <= w {
            self.events_w.resize(w + 1, [0; 4]);
        }
        self.events_w[w][kind.idx()] += 1;
        self.events_by_kind[kind.idx()] += 1;
        self.queue_depth.record(w, queue_depth as u32);
    }

    fn on_transfer_start(&mut self, at: Time, in_flight: u32, buses: u32, ports: u32) {
        let Some(w) = self.window(at) else {
            return;
        };
        self.in_flight.record(w, in_flight);
        self.buses.record(w, buses);
        self.ports.record(w, ports);
        self.max_in_flight = self.max_in_flight.max(in_flight);
    }

    fn on_transfer_done(&mut self, at: Time, in_flight: u32, buses: u32, ports: u32) {
        let Some(w) = self.window(at) else {
            return;
        };
        self.in_flight.record(w, in_flight);
        self.buses.record(w, buses);
        self.ports.record(w, ports);
    }

    fn on_injected(&mut self, rank: usize, at: Time, bytes: u64) {
        let Some(w) = self.window(at) else {
            return;
        };
        let inj = &mut self.injected[rank];
        if inj.len() <= w {
            inj.resize(w + 1, 0);
        }
        inj[w] += bytes;
    }

    fn on_link_traffic(&mut self, link: usize, t0: Time, t1: Time, bytes: f64) {
        if bytes <= 0.0 {
            return;
        }
        if t1 <= t0 {
            if let Some(w) = self.window(t0) {
                bump_f64(&mut self.link_bytes[link], w, bytes);
            }
            return;
        }
        let span = (t1 - t0).as_secs();
        if !self.fits(t0, t1) {
            return;
        }
        let series = &mut self.link_bytes[link];
        split_windows(self.window_s, t0, t1, |w, secs| {
            bump_f64(series, w, bytes * secs / span);
        });
    }

    fn on_reshare(&mut self, at: Time, _active_flows: usize) {
        let Some(w) = self.window(at) else {
            return;
        };
        if self.reshares_w.len() <= w {
            self.reshares_w.resize(w + 1, 0);
        }
        self.reshares_w[w] += 1;
        self.reshares += 1;
    }

    fn on_stale_flow_done(&mut self, _at: Time) {
        self.stale_popped += 1;
    }

    fn on_fault(
        &mut self,
        _at: Time,
        links: &[LinkId],
        _action: &FaultAction,
        rerouted: u32,
        reshared: bool,
    ) {
        self.faults_applied += 1;
        self.flows_rerouted += u64::from(rerouted);
        self.reroute_reshares += u64::from(reshared);
        for l in links {
            if let Some(f) = self.link_faulted.get_mut(l.idx()) {
                *f = true;
            }
        }
    }

    fn on_records_peak(&mut self, peak: u64) {
        self.records_peak = peak;
    }

    fn on_end(&mut self, runtime: Time, queue_peak: usize) {
        self.runtime_s = runtime.as_secs();
        self.queue_peak = queue_peak;
    }
}

/// Windowed metric timelines of one replay. All series have exactly
/// [`Metrics::windows`] entries; window `w` covers simulated time
/// `[w·window_s, (w+1)·window_s)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Metrics {
    /// Window width, seconds.
    pub window_s: f64,
    /// Simulated runtime, seconds.
    pub runtime_s: f64,
    /// Number of windows in every series.
    pub windows: usize,
    /// Per-rank series, indexed by rank.
    pub ranks: Vec<RankSeries>,
    /// Per-link series (flow-level contention only; empty under the bus
    /// model), in link-graph order.
    pub links: Vec<LinkSeries>,
    /// Network health gauges (per-window maxima, fill-forward).
    pub net: NetSeries,
    /// Engine self-profiling counters.
    pub engine: EngineCounters,
}

/// One rank's windowed series.
#[derive(Debug, Clone, PartialEq)]
pub struct RankSeries {
    /// Fraction of each window spent in [compute, wait-recv, wait-send,
    /// collective]. Sums to < 1.0 in windows the rank was idle/done.
    pub occupancy: Vec<[f64; 4]>,
    /// Bytes whose transfers were granted in each window.
    pub injected_bytes: Vec<u64>,
}

/// One link's windowed series.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkSeries {
    /// Endpoint label from the topology (e.g. `n0->sw`).
    pub label: String,
    /// Capacity in bytes/s (possibly infinite).
    pub capacity_bps: f64,
    /// Bytes carried over capacity·window per window (0 for an
    /// infinite-capacity link; the trailing partial window is
    /// normalized by the full window width).
    pub utilization: Vec<f64>,
    /// Bytes carried per window.
    pub bytes: Vec<f64>,
    /// Whether any scheduled fault (kill, degrade or restore) touched
    /// this link during the replay.
    pub faulted: bool,
}

/// Network health gauges: each series holds the per-window maximum of a
/// point-sampled gauge with fill-forward between samples.
#[derive(Debug, Clone, PartialEq)]
pub struct NetSeries {
    /// Network-level (non-intra-node) transfers holding resources.
    pub in_flight: Vec<u32>,
    /// Event-queue depth after each pop.
    pub queue_depth: Vec<u32>,
    /// Global buses in use.
    pub buses_busy: Vec<u32>,
    /// Port units in use (2 per in-flight transfer).
    pub ports_busy: Vec<u32>,
}

/// Engine self-profiling counters.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineCounters {
    /// Total events dispatched, indexed like [`EventKind::idx`].
    pub events_by_kind: [u64; 4],
    /// Events dispatched per window, indexed like [`EventKind::idx`].
    pub events_per_window: Vec<[u64; 4]>,
    /// Total max-min reshare passes.
    pub reshares: u64,
    /// Reshare passes per window.
    pub reshares_per_window: Vec<u64>,
    /// Stale `FlowDone` events popped and discarded.
    pub stale_popped: u64,
    /// Event-queue high-water mark.
    pub queue_peak: usize,
    /// High-water mark of trace records resident in the record supply
    /// (buffered collective steps plus the record in hand).
    pub records_peak: u64,
    /// Peak concurrent network-level transfers.
    pub max_in_flight: u32,
    /// Scheduled fault events applied.
    pub faults_applied: u64,
    /// In-flight flows moved off killed links.
    pub flows_rerouted: u64,
    /// Reshare passes triggered by fault events (idle-link faults
    /// don't reshare).
    pub reroute_reshares: u64,
}

impl Metrics {
    /// Peak per-window utilization across all links, per window. Empty
    /// when there are no links.
    pub fn max_link_utilization(&self) -> Vec<f64> {
        if self.links.is_empty() {
            return Vec::new();
        }
        (0..self.windows)
            .map(|w| {
                self.links
                    .iter()
                    .map(|l| l.utilization[w])
                    .fold(0.0, f64::max)
            })
            .collect()
    }

    /// Serialize as the stable `ovlp.metrics.v1` JSON document (see
    /// `docs/observability.md` for the schema). Key order and number
    /// formatting are deterministic; non-finite floats render as
    /// `null`.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(4096);
        s.push_str("{\n  \"schema\": \"ovlp.metrics.v1\",\n");
        s.push_str(&format!("  \"window_s\": {},\n", json_f64(self.window_s)));
        s.push_str(&format!("  \"runtime_s\": {},\n", json_f64(self.runtime_s)));
        s.push_str(&format!("  \"windows\": {},\n", self.windows));
        s.push_str("  \"ranks\": [\n");
        for (i, r) in self.ranks.iter().enumerate() {
            s.push_str("    {\"occupancy\": {");
            for (j, name) in ["compute", "wait_recv", "wait_send", "collective"]
                .iter()
                .enumerate()
            {
                if j > 0 {
                    s.push_str(", ");
                }
                s.push_str(&format!(
                    "\"{name}\": {}",
                    json_f64_array(r.occupancy.iter().map(|o| o[j]))
                ));
            }
            s.push_str("}, \"injected_bytes\": [");
            push_join(&mut s, r.injected_bytes.iter().map(u64::to_string));
            s.push_str("]}");
            s.push_str(if i + 1 < self.ranks.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        s.push_str("  ],\n  \"links\": [\n");
        for (i, l) in self.links.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"label\": {}, \"capacity_bps\": {}, \"utilization\": {}, \"bytes\": {}, \"faulted\": {}}}",
                json_str(&l.label),
                json_f64(l.capacity_bps),
                json_f64_array(l.utilization.iter().copied()),
                json_f64_array(l.bytes.iter().copied()),
                l.faulted,
            ));
            s.push_str(if i + 1 < self.links.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        s.push_str("  ],\n  \"net\": {\n");
        for (j, (name, series)) in [
            ("in_flight", &self.net.in_flight),
            ("queue_depth", &self.net.queue_depth),
            ("buses_busy", &self.net.buses_busy),
            ("ports_busy", &self.net.ports_busy),
        ]
        .iter()
        .enumerate()
        {
            s.push_str(&format!("    \"{name}\": ["));
            push_join(&mut s, series.iter().map(u32::to_string));
            s.push(']');
            s.push_str(if j < 3 { ",\n" } else { "\n" });
        }
        s.push_str("  },\n  \"engine\": {\n    \"events\": {");
        for (j, kind) in [
            EventKind::Resume,
            EventKind::TransferDone,
            EventKind::FlowDone,
            EventKind::Fault,
        ]
        .iter()
        .enumerate()
        {
            if j > 0 {
                s.push_str(", ");
            }
            s.push_str(&format!(
                "\"{}\": {}",
                kind.name(),
                self.engine.events_by_kind[kind.idx()]
            ));
        }
        s.push_str("},\n    \"events_per_window\": [");
        push_join(
            &mut s,
            self.engine
                .events_per_window
                .iter()
                .map(|e| format!("[{},{},{},{}]", e[0], e[1], e[2], e[3])),
        );
        s.push_str("],\n    \"reshares\": ");
        s.push_str(&self.engine.reshares.to_string());
        s.push_str(",\n    \"reshares_per_window\": [");
        push_join(
            &mut s,
            self.engine.reshares_per_window.iter().map(u64::to_string),
        );
        s.push_str("],\n    \"stale_popped\": ");
        s.push_str(&self.engine.stale_popped.to_string());
        s.push_str(",\n    \"queue_peak\": ");
        s.push_str(&self.engine.queue_peak.to_string());
        s.push_str(",\n    \"records_peak\": ");
        s.push_str(&self.engine.records_peak.to_string());
        s.push_str(",\n    \"max_in_flight\": ");
        s.push_str(&self.engine.max_in_flight.to_string());
        s.push_str(",\n    \"faults_applied\": ");
        s.push_str(&self.engine.faults_applied.to_string());
        s.push_str(",\n    \"flows_rerouted\": ");
        s.push_str(&self.engine.flows_rerouted.to_string());
        s.push_str(",\n    \"reroute_reshares\": ");
        s.push_str(&self.engine.reroute_reshares.to_string());
        s.push_str("\n  }\n}\n");
        s
    }
}

pub(crate) fn push_join(s: &mut String, parts: impl Iterator<Item = String>) {
    for (i, p) in parts.enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        s.push_str(&p);
    }
}

/// A finite f64 in shortest-roundtrip form; non-finite values are not
/// representable in JSON and render as `null`.
pub(crate) fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

pub(crate) fn json_f64_array(vals: impl Iterator<Item = f64>) -> String {
    let mut s = String::from("[");
    push_join(&mut s, vals.map(json_f64));
    s.push(']');
    s
}

fn json_str(v: &str) -> String {
    let mut s = String::from("\"");
    for c in v.chars() {
        match c {
            '"' => s.push_str("\\\""),
            '\\' => s.push_str("\\\\"),
            c if (c as u32) < 0x20 => s.push_str(&format!("\\u{:04x}", c as u32)),
            c => s.push(c),
        }
    }
    s.push('"');
    s
}

// NoopSink must stay disabled (that's the zero-overhead contract) and
// the recorder enabled; checked at compile time.
const _: () = {
    assert!(!NoopSink::ENABLED);
    assert!(WindowedRecorder::ENABLED);
    // TeeSink inherits enablement: two noops stay zero-overhead, one
    // live side turns every hook on.
    assert!(!<TeeSink<NoopSink, NoopSink>>::ENABLED);
    assert!(<TeeSink<NoopSink, WindowedRecorder>>::ENABLED);
    // an optional sink is enabled as its sink is
    assert!(!<Option<NoopSink>>::ENABLED);
    assert!(<Option<WindowedRecorder>>::ENABLED);
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_splits_across_windows() {
        let mut r = WindowedRecorder::new(Time::secs(1.0));
        r.on_begin(1, &[]);
        // 0.5 .. 2.25 compute: 0.5 s in w0, 1.0 s in w1, 0.25 s in w2
        r.on_state(0, Time::secs(0.5), Time::secs(2.25), State::Compute);
        r.on_end(Time::secs(2.25), 0);
        let m = r.into_metrics().unwrap();
        assert_eq!(m.windows, 3);
        let occ = &m.ranks[0].occupancy;
        assert!((occ[0][0] - 0.5).abs() < 1e-12);
        assert!((occ[1][0] - 1.0).abs() < 1e-12);
        assert!((occ[2][0] - 0.25).abs() < 1e-12);
        assert_eq!(occ[0][1], 0.0);
    }

    #[test]
    fn an_optional_recorder_records_only_when_present() {
        let mut absent: Option<WindowedRecorder> = None;
        let mut present = Some(WindowedRecorder::new(Time::secs(1.0)));
        for sink in [&mut absent, &mut present] {
            sink.on_begin(1, &[]);
            sink.on_state(0, Time::secs(0.5), Time::secs(2.25), State::Compute);
            sink.on_end(Time::secs(2.25), 0);
        }
        assert!(absent.is_none());
        let m = present.unwrap().into_metrics().unwrap();
        assert_eq!(m.windows, 3);
        assert!((m.ranks[0].occupancy[1][0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn a_run_past_the_window_ceiling_fails_without_growing_past_it() {
        // 1 s at 1 ns windows would be 10^9 windows per series
        let mut r = WindowedRecorder::new(Time::secs(1e-9));
        r.on_begin(1, &[]);
        r.on_state(0, Time::ZERO, Time::secs(1.0), State::Compute);
        r.on_event(Time::secs(0.5), EventKind::Resume, 1);
        r.on_end(Time::secs(1.0), 0);
        assert!(r.occupancy[0].is_empty());
        assert!(r.events_w.is_empty());
        let err = r.into_metrics().unwrap_err();
        assert_eq!(err.max_windows, MAX_WINDOWS);
        assert!(err.to_string().contains("choose a wider window"), "{err}");
        // exactly at the ceiling still records
        let mut r = WindowedRecorder::new(Time::secs(1.0));
        r.on_begin(1, &[]);
        let end = Time::secs(MAX_WINDOWS as f64);
        r.on_state(0, Time::ZERO, end, State::Compute);
        r.on_end(end, 0);
        assert_eq!(r.into_metrics().unwrap().windows, MAX_WINDOWS);
    }

    #[test]
    fn many_ranks_and_links_lower_the_window_ceiling() {
        let links = vec![
            Link {
                label: "n0->sw".into(),
                capacity: 100.0,
            };
            1024
        ];
        // 3072 ranks + 1024 links: MAX_CELLS / 4096 windows
        let ceiling = MAX_CELLS / 4096;
        assert!(ceiling < MAX_WINDOWS);
        for (windows, fits) in [(ceiling, true), (ceiling + 1, false)] {
            let mut r = WindowedRecorder::new(Time::secs(1.0));
            r.on_begin(3072, &links);
            let end = Time::secs(windows as f64);
            r.on_state(0, Time::ZERO, end, State::Compute);
            r.on_link_traffic(7, Time::ZERO, end, 1.0);
            r.on_end(end, 0);
            if fits {
                // (padding every series to the ceiling would allocate
                // the whole budget, so check the recorder itself)
                assert!(!r.overflow);
                assert_eq!(r.occupancy[0].len(), ceiling);
                assert_eq!(r.link_bytes[7].len(), ceiling);
            } else {
                assert!(r.occupancy[0].is_empty() && r.link_bytes[7].is_empty());
                assert_eq!(r.into_metrics().unwrap_err().max_windows, ceiling);
            }
        }
    }

    #[test]
    fn gauges_fill_forward() {
        let mut r = WindowedRecorder::new(Time::secs(1.0));
        r.on_begin(1, &[]);
        r.on_transfer_start(Time::secs(0.1), 2, 2, 4);
        // nothing sampled in w1/w2; gauge holds 2
        r.on_transfer_done(Time::secs(3.5), 1, 1, 2);
        r.on_end(Time::secs(5.0), 0);
        let m = r.into_metrics().unwrap();
        assert_eq!(m.net.in_flight, vec![2, 2, 2, 2, 1]);
        assert_eq!(m.net.ports_busy, vec![4, 4, 4, 4, 2]);
        assert_eq!(m.engine.max_in_flight, 2);
    }

    #[test]
    fn link_traffic_is_split_proportionally() {
        let links = vec![Link {
            label: "n0->sw".into(),
            capacity: 100.0,
        }];
        let mut r = WindowedRecorder::new(Time::secs(1.0));
        r.on_begin(1, &links);
        r.on_link_traffic(0, Time::secs(0.5), Time::secs(1.5), 100.0);
        // instant credit lands in its own window
        r.on_link_traffic(0, Time::secs(1.5), Time::secs(1.5), 7.0);
        r.on_end(Time::secs(2.0), 0);
        let m = r.into_metrics().unwrap();
        assert_eq!(m.links[0].bytes.len(), 2);
        assert!((m.links[0].bytes[0] - 50.0).abs() < 1e-9);
        assert!((m.links[0].bytes[1] - 57.0).abs() < 1e-9);
        // capacity 100 B/s over a 1 s window
        assert!((m.links[0].utilization[0] - 0.5).abs() < 1e-9);
        assert_eq!(m.max_link_utilization().len(), 2);
    }

    #[test]
    fn empty_run_has_one_window() {
        let mut r = WindowedRecorder::new(Time::micros(100.0));
        r.on_begin(2, &[]);
        r.on_end(Time::ZERO, 0);
        let m = r.into_metrics().unwrap();
        assert_eq!(m.windows, 1);
        assert_eq!(m.ranks.len(), 2);
        assert_eq!(m.ranks[0].occupancy, vec![[0.0; 4]]);
        assert_eq!(m.net.queue_depth, vec![0]);
    }

    #[test]
    fn json_is_stable_and_escapes() {
        let mut r = WindowedRecorder::new(Time::secs(1.0));
        r.on_begin(1, &[]);
        r.on_state(0, Time::ZERO, Time::secs(0.5), State::Compute);
        r.on_event(Time::ZERO, EventKind::Resume, 3);
        r.on_end(Time::secs(0.5), 4);
        let m = r.into_metrics().unwrap();
        let a = m.to_json();
        let b = m.clone().to_json();
        assert_eq!(a, b);
        assert!(a.contains("\"schema\": \"ovlp.metrics.v1\""));
        assert!(a.contains("\"queue_peak\": 4"));
        assert!(a.contains("\"compute\": [0.5]"));
        assert_eq!(json_f64(f64::INFINITY), "null");
        assert_eq!(json_str("a\"b\\c"), "\"a\\\"b\\\\c\"");
    }

    #[test]
    fn fault_hook_marks_links_and_counts() {
        let links = vec![
            Link {
                label: "n0->sw".into(),
                capacity: 100.0,
            },
            Link {
                label: "sw->n0".into(),
                capacity: 100.0,
            },
        ];
        let mut r = WindowedRecorder::new(Time::secs(1.0));
        r.on_begin(1, &links);
        r.on_event(Time::secs(0.5), EventKind::Fault, 0);
        r.on_fault(Time::secs(0.5), &[LinkId(1)], &FaultAction::Kill, 2, true);
        r.on_fault(
            Time::secs(0.7),
            &[LinkId(1)],
            &FaultAction::Restore,
            0,
            false,
        );
        r.on_end(Time::secs(1.0), 0);
        let m = r.into_metrics().unwrap();
        assert!(!m.links[0].faulted);
        assert!(m.links[1].faulted);
        assert_eq!(m.engine.events_by_kind[EventKind::Fault.idx()], 1);
        assert_eq!(m.engine.faults_applied, 2);
        assert_eq!(m.engine.flows_rerouted, 2);
        assert_eq!(m.engine.reroute_reshares, 1);
        let json = m.to_json();
        assert!(json.contains("\"fault\": 1"));
        assert!(json.contains("\"faulted\": true"));
        assert!(json.contains("\"faults_applied\": 2"));
        assert!(json.contains("\"flows_rerouted\": 2"));
        assert!(json.contains("\"reroute_reshares\": 1"));
    }
}
