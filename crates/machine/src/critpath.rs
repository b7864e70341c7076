//! Causal critical-path analysis with per-rank blame attribution.
//!
//! [`CritPathRecorder`] is a [`ProbeSink`] that remembers, for every
//! rank, the chronological stream of state intervals and — for every
//! wait interval — the *causal parent edge*: which message delivery or
//! injection closed it ([`ProbeSink::on_wait_edge`]). At the end of the
//! replay, [`CritPathRecorder::into_critpath`] walks backward from the
//! finishing rank: a compute interval is consumed on the same rank, a
//! wait interval follows its edge to the sender that gated it. The walk
//! yields the **critical path** — a chain of [`CritSegment`]s that
//! partitions `[0, runtime]` exactly (adjacent segments share their
//! boundary *bit for bit*, so the telescoping sum of lengths is the
//! runtime with zero rounding error).
//!
//! Each wait segment is split at the gating message's recorded marks
//! (send posted → granted → injected → uncontended arrival → actual
//! arrival) into the blame taxonomy:
//!
//! | blame                | the time went to                                 |
//! |----------------------|--------------------------------------------------|
//! | `compute`            | computation on the critical rank                 |
//! | `endpoint-wait`      | the peer had not posted / matched yet            |
//! | `contention-stall`   | resources or max-min sharing stretched the flow  |
//! | `transfer-latency`   | the link class's startup latency                 |
//! | `transfer-bandwidth` | moving the bytes at uncontended capacity         |
//! | `fault-reroute`      | a killed link forced the flow onto a longer path |
//!
//! The marks reuse the engine's own float operations, so an uncontended
//! transfer produces an *exactly empty* contention segment, and blame
//! totals are folded with Shewchuk expansion arithmetic
//! ([`ExactSum`]) so `sum(blame) == runtime` is provable, not
//! approximate — [`CritPath::exact`] certifies both properties.
//!
//! Like every probe, the recorder observes without perturbing: replays
//! with it attached are bit-identical to unprobed ones, and the
//! recorded path is identical across replay engines and worker counts.

use crate::net::topology::Link;
use crate::probe::{json_f64, push_join, Metrics, ProbeSink, WaitEdge};
use crate::time::Time;
use crate::timeline::State;
use std::collections::BTreeMap;

/// Why a span of the critical path elapsed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Blame {
    /// Computation on the critical rank.
    Compute,
    /// Startup latency of the gating transfer's link class.
    TransferLatency,
    /// Moving the gating transfer's bytes at uncontended capacity.
    TransferBandwidth,
    /// Max-min sharing (or bus/port queueing) stretched the gating
    /// transfer beyond its uncontended time.
    ContentionStall,
    /// Waiting on the peer endpoint (send not yet posted, or a
    /// rendezvous match not yet made).
    EndpointWait,
    /// A killed link forced the gating flow onto a reroute.
    FaultReroute,
}

impl Blame {
    /// Number of blame classes (dense array size).
    pub const COUNT: usize = 6;

    /// All classes in canonical (reporting) order.
    pub const ALL: [Blame; Blame::COUNT] = [
        Blame::Compute,
        Blame::TransferLatency,
        Blame::TransferBandwidth,
        Blame::ContentionStall,
        Blame::EndpointWait,
        Blame::FaultReroute,
    ];

    /// Dense index, consistent with [`Blame::ALL`].
    pub fn idx(self) -> usize {
        match self {
            Blame::Compute => 0,
            Blame::TransferLatency => 1,
            Blame::TransferBandwidth => 2,
            Blame::ContentionStall => 3,
            Blame::EndpointWait => 4,
            Blame::FaultReroute => 5,
        }
    }

    /// Stable wire/report name.
    pub fn name(self) -> &'static str {
        match self {
            Blame::Compute => "compute",
            Blame::TransferLatency => "transfer-latency",
            Blame::TransferBandwidth => "transfer-bandwidth",
            Blame::ContentionStall => "contention-stall",
            Blame::EndpointWait => "endpoint-wait",
            Blame::FaultReroute => "fault-reroute",
        }
    }
}

/// One span of the critical path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CritSegment {
    /// Rank the span elapsed on.
    pub rank: usize,
    /// Span start (simulated seconds).
    pub start: Time,
    /// Span end; equals the next segment's start bit-for-bit.
    pub end: Time,
    /// Why the span elapsed.
    pub blame: Blame,
    /// The gating message, when the span is communication-caused.
    pub msg: Option<usize>,
    /// `(src, dst)` ranks of the gating message.
    pub channel: Option<(u32, u32)>,
}

impl CritSegment {
    /// Span length, seconds.
    pub fn seconds(&self) -> f64 {
        (self.end - self.start).as_secs()
    }
}

/// The critical path of one replay, plus blame aggregates.
#[derive(Debug, Clone, PartialEq)]
pub struct CritPath {
    /// The replay's runtime (completion time of the slowest rank).
    pub runtime: Time,
    /// Chronological segments partitioning `[0, runtime]`.
    pub segments: Vec<CritSegment>,
    /// Seconds per blame class, indexed like [`Blame::idx`]. Folded
    /// with exact expansion sums.
    pub class_totals: [f64; Blame::COUNT],
    /// Seconds of critical path spent on each rank.
    pub rank_totals: Vec<f64>,
    /// Seconds attributed to each `(src, dst)` channel, ascending.
    pub channel_totals: Vec<((u32, u32), f64)>,
    /// Certifies the partition: segments chain bit-for-bit from `0` to
    /// `runtime` *and* the expansion sum of all segment lengths minus
    /// the runtime is exactly zero.
    pub exact: bool,
}

impl CritPath {
    /// Seconds attributed to `blame`.
    pub fn total(&self, blame: Blame) -> f64 {
        self.class_totals[blame.idx()]
    }

    /// Stable JSON rendering of the path (embedded as the `critpath`
    /// member of `ovlp.metrics.v2`, and reusable standalone).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(1024 + self.segments.len() * 96);
        s.push('{');
        s.push_str(&format!(
            "\"runtime_s\": {}, \"exact\": {}, ",
            json_f64(self.runtime.as_secs()),
            self.exact
        ));
        s.push_str("\"blame_totals_s\": {");
        push_join(
            &mut s,
            Blame::ALL
                .iter()
                .map(|b| format!("\"{}\": {}", b.name(), json_f64(self.total(*b)))),
        );
        s.push_str("}, \"rank_totals_s\": [");
        push_join(&mut s, self.rank_totals.iter().map(|v| json_f64(*v)));
        s.push_str("], \"channel_totals_s\": [");
        push_join(
            &mut s,
            self.channel_totals.iter().map(|((src, dst), v)| {
                format!(
                    "{{\"src\": {src}, \"dst\": {dst}, \"seconds\": {}}}",
                    json_f64(*v)
                )
            }),
        );
        s.push_str("], \"segments\": [");
        push_join(
            &mut s,
            self.segments.iter().map(|seg| {
                let mut o = format!(
                    "{{\"rank\": {}, \"start_s\": {}, \"end_s\": {}, \"blame\": \"{}\"",
                    seg.rank,
                    json_f64(seg.start.as_secs()),
                    json_f64(seg.end.as_secs()),
                    seg.blame.name()
                );
                if let Some(m) = seg.msg {
                    o.push_str(&format!(", \"msg\": {m}"));
                }
                if let Some((src, dst)) = seg.channel {
                    o.push_str(&format!(", \"src\": {src}, \"dst\": {dst}"));
                }
                o.push('}');
                o
            }),
        );
        s.push_str("]}");
        s
    }
}

impl Metrics {
    /// Serialize as the `ovlp.metrics.v2` document: the entire v1
    /// payload (every key, same order, same formatting — a v1 reader
    /// that ignores unknown keys parses it unchanged) plus a trailing
    /// `critpath` section.
    pub fn to_json_v2(&self, critpath: &CritPath) -> String {
        let v1 = self.to_json();
        let body = v1.replacen(
            "\"schema\": \"ovlp.metrics.v1\"",
            "\"schema\": \"ovlp.metrics.v2\"",
            1,
        );
        let trimmed = body
            .trim_end()
            .strip_suffix('}')
            .expect("v1 document ends with a brace")
            .trim_end()
            .to_string();
        format!("{trimmed},\n  \"critpath\": {}\n}}\n", critpath.to_json())
    }
}

/// Exact running sum as a Shewchuk expansion: a list of nonoverlapping
/// components whose mathematical sum is the *exact* sum of everything
/// added. Nonoverlapping nonzero components cannot cancel, so "all
/// components are zero" is an airtight zero test — that is what lets
/// [`CritPath::exact`] *prove* blame totals sum to the runtime instead
/// of comparing within an epsilon.
#[derive(Debug, Clone, Default)]
pub struct ExactSum {
    parts: Vec<f64>,
}

impl ExactSum {
    /// Add `x` exactly (grow-expansion with two-sums).
    pub fn add(&mut self, mut x: f64) {
        let mut keep = 0;
        for j in 0..self.parts.len() {
            let y = self.parts[j];
            let hi = x + y;
            let y_virt = hi - x;
            let lo = (x - (hi - y_virt)) + (y - y_virt);
            if lo != 0.0 {
                self.parts[keep] = lo;
                keep += 1;
            }
            x = hi;
        }
        self.parts.truncate(keep);
        if x != 0.0 {
            self.parts.push(x);
        }
    }

    /// Whether the exact sum is zero.
    pub fn is_zero(&self) -> bool {
        self.parts.is_empty()
    }

    /// Best single-f64 approximation (fold from least significant,
    /// deterministic).
    pub fn value(&self) -> f64 {
        self.parts.iter().sum()
    }
}

/// Everything the recorder learned about one message.
#[derive(Debug, Clone, Copy)]
struct MsgInfo {
    src: u32,
    dst: u32,
    rendezvous: bool,
    t_send: Time,
    /// Grant time, once granted.
    t_start: Option<Time>,
    /// Sender-side injection latency of the link class.
    latency: Time,
    /// Arrival time had the transfer never contended (exact for
    /// closed-form link classes; the allocator's lone-flow estimate for
    /// flow-level transfers).
    unc_arrival: Option<Time>,
    /// Moved onto a new route by a link kill.
    rerouted: bool,
    known: bool,
}

impl Default for MsgInfo {
    fn default() -> MsgInfo {
        MsgInfo {
            src: 0,
            dst: 0,
            rendezvous: false,
            t_send: Time::ZERO,
            t_start: None,
            latency: Time::ZERO,
            unc_arrival: None,
            rerouted: false,
            known: false,
        }
    }
}

/// A wait interval's causal parent edge.
#[derive(Debug, Clone, Copy)]
struct EdgeRec {
    /// Interval end (bit-exact key into the interval stream).
    until: Time,
    msg: usize,
    kind: WaitEdge,
}

/// [`ProbeSink`] that records the causal structure of a replay and
/// folds it into a [`CritPath`]. Feed to
/// [`simulate_probed`](crate::replay::simulate_probed) (optionally
/// tee'd with a [`WindowedRecorder`](crate::probe::WindowedRecorder)),
/// then call [`CritPathRecorder::into_critpath`].
#[derive(Debug, Default)]
pub struct CritPathRecorder {
    /// rank -> chronological `(start, end, state)` intervals; contiguous
    /// over `[0, rank_finish]` by engine construction.
    intervals: Vec<Vec<(Time, Time, State)>>,
    /// rank -> wait edges, ascending `until` (at most one per interval).
    edges: Vec<Vec<EdgeRec>>,
    msgs: Vec<MsgInfo>,
    runtime: Time,
}

impl CritPathRecorder {
    pub fn new() -> CritPathRecorder {
        CritPathRecorder::default()
    }

    fn msg_mut(&mut self, msg: usize) -> &mut MsgInfo {
        if self.msgs.len() <= msg {
            self.msgs.resize_with(msg + 1, MsgInfo::default);
        }
        &mut self.msgs[msg]
    }

    /// Consume the recorder into the critical path.
    pub fn into_critpath(self) -> CritPath {
        Walk::new(&self).run()
    }
}

impl ProbeSink for CritPathRecorder {
    fn on_begin(&mut self, nranks: usize, _links: &[Link]) {
        self.intervals = vec![Vec::new(); nranks];
        self.edges = vec![Vec::new(); nranks];
    }

    fn on_state(&mut self, rank: usize, start: Time, end: Time, state: State) {
        if state == State::Done {
            return;
        }
        self.intervals[rank].push((start, end, state));
    }

    fn on_send_posted(
        &mut self,
        msg: usize,
        src: usize,
        dst: usize,
        _tag: u32,
        _bytes: u64,
        rendezvous: bool,
        at: Time,
    ) {
        let m = self.msg_mut(msg);
        m.src = src as u32;
        m.dst = dst as u32;
        m.rendezvous = rendezvous;
        m.t_send = at;
        m.known = true;
    }

    fn on_transfer_granted(
        &mut self,
        msg: usize,
        at: Time,
        latency: Time,
        uncontended_arrival: Option<Time>,
    ) {
        let m = self.msg_mut(msg);
        m.t_start = Some(at);
        m.latency = latency;
        if uncontended_arrival.is_some() {
            m.unc_arrival = uncontended_arrival;
        }
    }

    fn on_flow_path(&mut self, msg: usize, uncontended_eta: Time) {
        self.msg_mut(msg).unc_arrival = Some(uncontended_eta);
    }

    fn on_flow_rerouted(&mut self, msg: usize) {
        self.msg_mut(msg).rerouted = true;
    }

    fn on_wait_edge(&mut self, rank: usize, _since: Time, until: Time, msg: usize, edge: WaitEdge) {
        self.edges[rank].push(EdgeRec {
            until,
            msg,
            kind: edge,
        });
    }

    fn on_end(&mut self, runtime: Time, _queue_peak: usize) {
        self.runtime = runtime;
    }
}

/// The backward walk, producing segments in reverse chronological order
/// (reversed once at the end).
struct Walk<'a> {
    rec: &'a CritPathRecorder,
    segs: Vec<CritSegment>,
}

impl<'a> Walk<'a> {
    fn new(rec: &'a CritPathRecorder) -> Walk<'a> {
        Walk {
            rec,
            segs: Vec::new(),
        }
    }

    /// Push a segment covering `[start, end]` (zero-length pieces are
    /// dropped; the boundary chain survives because a dropped piece has
    /// identical start and end bits).
    fn push(
        &mut self,
        rank: usize,
        start: Time,
        end: Time,
        blame: Blame,
        msg: Option<usize>,
        channel: Option<(u32, u32)>,
    ) {
        if end > start {
            self.segs.push(CritSegment {
                rank,
                start,
                end,
                blame,
                msg,
                channel,
            });
        }
    }

    fn run(mut self) -> CritPath {
        let runtime = self.rec.runtime;
        let finish =
            |ivs: &Vec<(Time, Time, State)>| ivs.last().map(|iv| iv.1).unwrap_or(Time::ZERO);
        // lowest finishing rank starts the walk (deterministic tiebreak)
        let mut rank = self
            .rec
            .intervals
            .iter()
            .position(|ivs| finish(ivs) == runtime)
            .unwrap_or(0);
        let mut t = runtime;
        // Strictly more steps than any walk can take: every step either
        // consumes a nonzero interval (there are finitely many) or jumps
        // rank; jump chains at a fixed time are bounded by the message
        // count. Overflow degrades to a truthful endpoint-wait residue
        // instead of hanging — the partition property is preserved.
        let total: usize = self.rec.intervals.iter().map(Vec::len).sum();
        let mut budget = 4 * (total + self.rec.msgs.len()) + 64;
        while t > Time::ZERO {
            if budget == 0 {
                self.push(rank, Time::ZERO, t, Blame::EndpointWait, None, None);
                break;
            }
            budget -= 1;
            let ivs = &self.rec.intervals[rank];
            // last interval with start < t covers (t - epsilon)
            let k = ivs.partition_point(|iv| iv.0 < t);
            if k == 0 {
                // before this rank's first interval: nothing gates it
                // but the program start — attribute to endpoint-wait
                self.push(rank, Time::ZERO, t, Blame::EndpointWait, None, None);
                break;
            }
            let (a, b, state) = ivs[k - 1];
            if b < t {
                // gap (rank idle past its finish while others ran): the
                // walk only reaches this when a jump overshot; bridge it
                self.push(rank, b, t, Blame::EndpointWait, None, None);
                t = b;
                continue;
            }
            // covering interval, clipped at the cursor
            let e = t;
            if state == State::Compute {
                self.push(rank, a, e, Blame::Compute, None, None);
                t = a;
                continue;
            }
            // wait interval: follow its causal edge (keyed by the
            // interval's true end — edges are 1:1 with wait intervals)
            let edges = &self.rec.edges[rank];
            let pos = edges.partition_point(|ed| ed.until < b);
            let edge = edges.get(pos).filter(|ed| ed.until == b).copied();
            let Some(edge) = edge else {
                self.push(rank, a, e, Blame::EndpointWait, None, None);
                t = a;
                continue;
            };
            let m = match self.rec.msgs.get(edge.msg) {
                Some(m) if m.known => *m,
                _ => {
                    self.push(rank, a, e, Blame::EndpointWait, None, None);
                    t = a;
                    continue;
                }
            };
            let chan = Some((m.src, m.dst));
            let mid = Some(edge.msg);
            match edge.kind {
                WaitEdge::Injection => {
                    // eager sender waiting for its own grant + injection
                    // (segments pushed newest-first: the walk runs
                    // backward and reverses once at the end)
                    let m1 = clamp(m.t_start.unwrap_or(e), a, e);
                    self.push(rank, m1, e, Blame::TransferLatency, mid, chan);
                    self.push(rank, a, m1, Blame::ContentionStall, mid, chan);
                    t = a;
                }
                WaitEdge::Arrival => {
                    // jump to the sender when it posted after we started
                    // waiting — its timeline is what gated us before `lo`
                    let (lo, jump) = if m.t_send >= a && m.t_send <= e {
                        (m.t_send, true)
                    } else {
                        (a, false)
                    };
                    match m.t_start {
                        None => {
                            // never granted while we watched: all wait
                            self.push(rank, lo, e, Blame::EndpointWait, mid, chan);
                        }
                        Some(t_start) => {
                            let m1 = clamp(t_start, lo, e);
                            let m2 = clamp(t_start + m.latency, m1, e);
                            let m3 = match m.unc_arrival {
                                Some(u) => clamp(u, m2, e),
                                None => e,
                            };
                            let pre = if m.rendezvous {
                                Blame::EndpointWait
                            } else {
                                Blame::ContentionStall
                            };
                            let post = if m.rerouted {
                                Blame::FaultReroute
                            } else {
                                Blame::ContentionStall
                            };
                            // newest-first, like every push in the walk
                            self.push(rank, m3, e, post, mid, chan);
                            self.push(rank, m2, m3, Blame::TransferBandwidth, mid, chan);
                            self.push(rank, m1, m2, Blame::TransferLatency, mid, chan);
                            self.push(rank, lo, m1, pre, mid, chan);
                        }
                    }
                    if jump {
                        rank = m.src as usize;
                        t = lo;
                    } else {
                        t = a;
                    }
                }
            }
        }
        self.segs.reverse();
        finalize(runtime, self.segs)
    }
}

/// `x` clamped into `[lo, hi]` (marks must be monotone within a wait).
fn clamp(x: Time, lo: Time, hi: Time) -> Time {
    x.max(lo).min(hi)
}

/// Fold the chronological segments into aggregates and certify
/// exactness.
fn finalize(runtime: Time, segments: Vec<CritSegment>) -> CritPath {
    let nranks = segments.iter().map(|s| s.rank + 1).max().unwrap_or(0);
    let mut class = [(); Blame::COUNT].map(|_| ExactSum::default());
    let mut ranks = vec![ExactSum::default(); nranks];
    let mut channels: BTreeMap<(u32, u32), ExactSum> = BTreeMap::new();
    let mut all = ExactSum::default();
    let mut chained = true;
    let mut prev_end = Time::ZERO;
    for seg in &segments {
        chained &= seg.start.as_secs().to_bits() == prev_end.as_secs().to_bits();
        prev_end = seg.end;
        let (s, e) = (seg.start.as_secs(), seg.end.as_secs());
        all.add(e);
        all.add(-s);
        class[seg.blame.idx()].add(e);
        class[seg.blame.idx()].add(-s);
        ranks[seg.rank].add(e);
        ranks[seg.rank].add(-s);
        if let Some(ch) = seg.channel {
            let c = channels.entry(ch).or_default();
            c.add(e);
            c.add(-s);
        }
    }
    chained &= prev_end.as_secs().to_bits() == runtime.as_secs().to_bits();
    all.add(-runtime.as_secs());
    let exact = chained && all.is_zero();
    CritPath {
        runtime,
        segments,
        class_totals: class.map(|c| c.value()),
        rank_totals: ranks.into_iter().map(|r| r.value()).collect(),
        channel_totals: channels.into_iter().map(|(k, v)| (k, v.value())).collect(),
        exact,
    }
}

// The recorder must be a live sink; checked at compile time like the
// others in `probe.rs`.
const _: () = {
    assert!(CritPathRecorder::ENABLED);
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_sum_proves_telescoping_cancellation() {
        let mut s = ExactSum::default();
        // deliberately awkward magnitudes: naive summation rounds
        let cuts = [0.0, 0.1, 1e-17, 0.3, 1.0 + 1e-16, 7.77];
        let mut acc = 0.0f64;
        let mut points = vec![0.0];
        for c in cuts {
            acc += c;
            points.push(acc);
        }
        for w in points.windows(2) {
            s.add(w[1]);
            s.add(-w[0]);
        }
        s.add(-points[points.len() - 1]);
        assert!(s.is_zero(), "telescoping boundaries must cancel exactly");
        // and a genuinely nonzero residue is detected, even one far
        // below the ulp of the values it hides behind
        let mut t = ExactSum::default();
        t.add(1.0);
        t.add(1e-18);
        t.add(-1.0);
        assert!(!t.is_zero());
    }

    #[test]
    fn exact_sum_value_is_deterministic() {
        let mut a = ExactSum::default();
        let mut b = ExactSum::default();
        for x in [1e16, 1.0, -1e16, 1e-3, 2.5] {
            a.add(x);
            b.add(x);
        }
        assert_eq!(a.value().to_bits(), b.value().to_bits());
        assert_eq!(a.value(), 1.0 + 1e-3 + 2.5);
    }

    #[test]
    fn lone_compute_rank_is_all_compute() {
        let mut r = CritPathRecorder::new();
        r.on_begin(2, &[]);
        r.on_state(0, Time::ZERO, Time::secs(0.25), State::Compute);
        r.on_state(1, Time::ZERO, Time::secs(1.0), State::Compute);
        r.on_end(Time::secs(1.0), 0);
        let cp = r.into_critpath();
        assert!(cp.exact);
        assert_eq!(cp.segments.len(), 1);
        assert_eq!(cp.segments[0].rank, 1);
        assert_eq!(cp.segments[0].blame, Blame::Compute);
        assert_eq!(cp.total(Blame::Compute), 1.0);
        assert_eq!(cp.rank_totals, vec![0.0, 1.0]);
    }

    #[test]
    fn wait_interval_follows_edge_to_late_sender() {
        // rank 1 waits [0, 2]; the gating send was posted at t=1 by
        // rank 0 (which computed [0, 1]), granted at 1, latency 0.25,
        // uncontended arrival 2 — the walk must jump to rank 0.
        let mut r = CritPathRecorder::new();
        r.on_begin(2, &[]);
        r.on_state(0, Time::ZERO, Time::secs(1.0), State::Compute);
        r.on_state(1, Time::ZERO, Time::secs(2.0), State::WaitRecv);
        r.on_send_posted(0, 0, 1, 7, 1024, false, Time::secs(1.0));
        r.on_transfer_granted(0, Time::secs(1.0), Time::secs(0.25), Some(Time::secs(2.0)));
        r.on_wait_edge(1, Time::ZERO, Time::secs(2.0), 0, WaitEdge::Arrival);
        r.on_end(Time::secs(2.0), 0);
        let cp = r.into_critpath();
        assert!(cp.exact);
        let blames: Vec<(usize, Blame)> = cp.segments.iter().map(|s| (s.rank, s.blame)).collect();
        assert_eq!(
            blames,
            vec![
                (0, Blame::Compute),
                (1, Blame::TransferLatency),
                (1, Blame::TransferBandwidth),
            ]
        );
        assert_eq!(cp.total(Blame::Compute), 1.0);
        assert_eq!(cp.total(Blame::TransferLatency), 0.25);
        assert_eq!(cp.total(Blame::TransferBandwidth), 0.75);
        assert_eq!(cp.channel_totals, vec![((0, 1), 1.0)]);
    }

    #[test]
    fn early_sender_charges_contention_and_rendezvous_charges_endpoint() {
        // receiver waits [1, 4]; send posted at 0.5 (before the wait),
        // granted at 2, latency 0.5, uncontended arrival 3, actual 4.
        let run = |rendezvous: bool| {
            let mut r = CritPathRecorder::new();
            r.on_begin(2, &[]);
            // the sender finishes early: rank 1 alone decides the runtime
            r.on_state(0, Time::ZERO, Time::secs(0.5), State::Compute);
            r.on_state(1, Time::ZERO, Time::secs(1.0), State::Compute);
            r.on_state(1, Time::secs(1.0), Time::secs(4.0), State::WaitRecv);
            r.on_send_posted(0, 0, 1, 7, 1024, rendezvous, Time::secs(0.5));
            r.on_transfer_granted(0, Time::secs(2.0), Time::secs(0.5), Some(Time::secs(3.0)));
            r.on_wait_edge(1, Time::secs(1.0), Time::secs(4.0), 0, WaitEdge::Arrival);
            r.on_end(Time::secs(4.0), 0);
            r.into_critpath()
        };
        let eager = run(false);
        assert!(eager.exact);
        // rank 1: compute [0,1], pre-grant stall [1,2], latency
        // [2,2.5], bandwidth [2.5,3], post-uncontended stall [3,4]
        assert_eq!(eager.total(Blame::Compute), 1.0);
        assert_eq!(eager.total(Blame::ContentionStall), 2.0);
        assert_eq!(eager.total(Blame::TransferLatency), 0.5);
        assert_eq!(eager.total(Blame::TransferBandwidth), 0.5);
        let rdv = run(true);
        assert!(rdv.exact);
        // pre-grant time becomes endpoint-wait under rendezvous
        assert_eq!(rdv.total(Blame::EndpointWait), 1.0);
        assert_eq!(rdv.total(Blame::ContentionStall), 1.0);
    }

    #[test]
    fn rerouted_flow_blames_fault_reroute() {
        let mut r = CritPathRecorder::new();
        r.on_begin(2, &[]);
        r.on_state(0, Time::ZERO, Time::secs(3.0), State::WaitRecv);
        r.on_state(1, Time::ZERO, Time::secs(0.5), State::Compute);
        r.on_send_posted(0, 1, 0, 7, 1024, false, Time::ZERO);
        r.on_transfer_granted(0, Time::ZERO, Time::secs(0.5), None);
        r.on_flow_path(0, Time::secs(2.0));
        r.on_flow_rerouted(0);
        r.on_wait_edge(0, Time::ZERO, Time::secs(3.0), 0, WaitEdge::Arrival);
        r.on_end(Time::secs(3.0), 0);
        let cp = r.into_critpath();
        assert!(cp.exact);
        assert_eq!(cp.total(Blame::FaultReroute), 1.0);
        assert_eq!(cp.total(Blame::TransferLatency), 0.5);
        assert_eq!(cp.total(Blame::TransferBandwidth), 1.5);
    }

    #[test]
    fn json_rendering_is_stable() {
        let mut r = CritPathRecorder::new();
        r.on_begin(1, &[]);
        r.on_state(0, Time::ZERO, Time::secs(0.5), State::Compute);
        r.on_end(Time::secs(0.5), 0);
        let cp = r.into_critpath();
        let a = cp.to_json();
        assert_eq!(a, cp.to_json());
        assert!(a.contains("\"exact\": true"));
        assert!(a.contains("\"blame_totals_s\""));
        assert!(a.contains("\"compute\": 0.5"));
    }
}
