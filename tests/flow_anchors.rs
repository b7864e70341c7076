//! Analytic anchors for the flow-level network model: cases whose
//! answer is known in closed form, so they pin the truth rather than
//! yesterday's output.
//!
//! * a lone flow takes `latency + size/capacity`, bit-equal to the bus;
//! * `k` flows on one bottleneck each get `capacity/k`;
//! * a flow that a second flow joins and then leaves finishes at the
//!   piecewise closed-form time;
//! * a link's byte total is the exact sum of the sizes routed over it,
//!   and its busy time is the length of the union of its active
//!   intervals;
//! * lazy settlement: on a link-disjoint fabric, the flows a start or
//!   finish visits (brought up to date, sorted or re-estimated) do not
//!   grow with the flows in flight.

use overlap_sim::machine::net::{FlowEvent, FlowNet, LinkGraph, Topology};
use overlap_sim::machine::{NoopSink, Platform, Time};
use overlap_sim::trace::Bytes;

const MBS: f64 = 250.0;
const CAP: f64 = MBS * 1e6;

fn crossbar(nodes: usize) -> FlowNet {
    FlowNet::new(LinkGraph::build(&Topology::Crossbar, nodes, MBS).unwrap())
}

fn rel(a: f64, b: f64) -> f64 {
    (a - b).abs() / a.abs().max(b.abs())
}

/// One flow to start: `(at, msg, src, dst, bytes, latency)`.
type Start = (f64, usize, usize, usize, f64, f64);

/// Drive `net` through `starts` (ascending `at`) and every completion
/// they cause, finishing each flow at its live estimate. Returns each
/// message's `(start, finish)` times.
fn drive(net: &mut FlowNet, starts: &[Start]) -> Vec<(f64, f64)> {
    let mut pending: Vec<FlowEvent> = Vec::new();
    let mut spans = vec![(f64::NAN, f64::NAN); starts.len()];
    let mut next = 0;
    loop {
        pending.retain(|e| net.is_current(e.msg, e.epoch));
        let done = pending
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.at.cmp(&b.1.at))
            .map(|(i, e)| (i, *e));
        match (starts.get(next), done) {
            (Some(s), d) if d.is_none_or(|(_, e)| s.0 < e.at.as_secs()) => {
                let (at, msg, src, dst, bytes, lat) = *s;
                spans[msg].0 = at;
                net.start(
                    msg,
                    msg as u64,
                    src,
                    dst,
                    bytes,
                    lat,
                    Time::secs(at),
                    &mut pending,
                    &mut NoopSink,
                )
                .unwrap();
                next += 1;
            }
            (_, Some((i, e))) => {
                pending.swap_remove(i);
                spans[e.msg].1 = e.at.as_secs();
                net.finish(e.msg, e.at, &mut pending, &mut NoopSink);
            }
            (None, None) => return spans,
            (Some(_), None) => unreachable!("handled by the first arm"),
        }
    }
}

#[test]
fn a_lone_flow_takes_latency_plus_size_over_capacity() {
    let platform = Platform {
        bandwidth_mbs: MBS,
        ..Platform::default()
    };
    for (at, size) in [(0.0, 1.0), (0.25, 65_536.0), (1.5, 3_000_017.0)] {
        let mut net = crossbar(2);
        let mut out = Vec::new();
        let now = Time::secs(at);
        let latency = platform.latency().as_secs();
        net.start(0, 0, 0, 1, size, latency, now, &mut out, &mut NoopSink)
            .unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].at, now + Time::secs(latency + size / CAP));
        // the bus model's linear transfer time, to the last bit
        assert_eq!(out[0].at, now + platform.transfer_time(Bytes(size as u64)));
    }
}

#[test]
fn k_flows_on_one_bottleneck_each_get_a_kth() {
    for k in 1..=8usize {
        // every flow leaves node 0: they share its single up link
        let mut net = crossbar(k + 1);
        let mut out = Vec::new();
        for m in 0..k {
            net.start(
                m,
                m as u64,
                0,
                m + 1,
                1e6,
                0.0,
                Time::ZERO,
                &mut out,
                &mut NoopSink,
            )
            .unwrap();
        }
        let share = CAP / k as f64;
        for (msg, rate) in net.debug_rates() {
            assert_eq!(rate, share, "k={k}, flow {msg}");
        }
        // the live estimate of each flow is size / (cap/k)
        out.retain(|e| net.is_current(e.msg, e.epoch));
        assert_eq!(out.len(), k);
        for e in &out {
            assert_eq!(e.at, Time::secs(1e6 / share), "k={k}");
        }
    }
}

#[test]
fn a_joined_then_left_flow_finishes_at_the_closed_form_time() {
    // flow 0 runs alone at cap after its latency; flow 1 joins on the
    // same up link at t1 and halves both rates until it drains, then
    // flow 0 finishes the rest at full rate
    let (size0, lat0) = (4e6, 8e-6);
    let (t1, size1, lat1) = (2e-3, 1e6, 5e-6);
    let mut net = crossbar(3);
    let spans = drive(
        &mut net,
        &[(0.0, 0, 0, 1, size0, lat0), (t1, 1, 0, 2, size1, lat1)],
    );
    let half = CAP / 2.0;
    let t_b = t1 + lat1 + size1 / half;
    let left = size0 - CAP * (t1 - lat0) - half * (t_b - t1);
    let t_a = t_b + left / CAP;
    assert!(rel(spans[1].1, t_b) <= 1e-12, "{} vs {t_b}", spans[1].1);
    assert!(rel(spans[0].1, t_a) <= 1e-12, "{} vs {t_a}", spans[0].1);
}

#[test]
fn link_totals_are_exact_sums_and_busy_unions() {
    // ten flows over a shared fat-tree, some overlapping in time and
    // some starting after the links they use went idle
    let graph = LinkGraph::build(
        &Topology::FatTree {
            radix: 4,
            oversubscription: 2,
        },
        16,
        MBS,
    )
    .unwrap();
    let mut net = FlowNet::new(graph.clone());
    let starts: Vec<Start> = (0..10)
        .map(|m| {
            let at = if m < 6 {
                m as f64 * 1e-4
            } else {
                0.05 + m as f64 * 1e-3
            };
            let src = (3 * m) % 16;
            let dst = (src + 5 + m) % 16;
            let bytes = (100_003 + 77_777 * m) as f64;
            (at, m, src, dst, bytes, 8e-6)
        })
        .collect();
    let spans = drive(&mut net, &starts);
    let usage = net.usage();
    for (l, u) in usage.iter().enumerate() {
        let mut bytes = 0.0;
        let mut intervals = Vec::new();
        for &(_, m, src, dst, size, _) in &starts {
            if graph.route(src, dst).iter().any(|id| id.idx() == l) {
                bytes += size;
                intervals.push(spans[m]);
            }
        }
        // integral sizes: every summation order is exact
        assert_eq!(u.bytes, bytes, "link {}", u.label);
        intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut union = 0.0;
        let mut open: Option<(f64, f64)> = None;
        for (a, b) in intervals {
            open = match open {
                Some((s, e)) if a <= e => Some((s, e.max(b))),
                Some((s, e)) => {
                    union += e - s;
                    Some((a, b))
                }
                None => Some((a, b)),
            };
        }
        if let Some((s, e)) = open {
            union += e - s;
        }
        if union == 0.0 {
            assert_eq!(u.busy_secs, 0.0, "link {}", u.label);
        } else {
            assert!(
                rel(u.busy_secs, union) <= 1e-12,
                "link {}: busy {} vs union {union}",
                u.label,
                u.busy_secs
            );
        }
    }
}

/// Flows visited per operation while `n` link-disjoint flows stay in
/// flight: each round finishes the oldest flow and starts a new one on
/// the pair it freed.
fn visits_per_op(n: usize) -> f64 {
    let mut net = crossbar(2 * n);
    let mut out = Vec::new();
    for m in 0..n {
        net.start(
            m,
            m as u64,
            2 * m,
            2 * m + 1,
            1e6,
            1e-5,
            Time::ZERO,
            &mut out,
            &mut NoopSink,
        )
        .unwrap();
    }
    let before = net.flow_visits();
    let rounds = 64;
    for r in 0..rounds {
        let (old, msg) = (r % n, n + r);
        let now = Time::secs(1e-3 * (r + 1) as f64);
        net.finish(r, now, &mut out, &mut NoopSink);
        net.start(
            msg,
            msg as u64,
            2 * old,
            2 * old + 1,
            1e6,
            1e-5,
            now,
            &mut out,
            &mut NoopSink,
        )
        .unwrap();
    }
    assert_eq!(net.active_flows(), n);
    (net.flow_visits() - before) as f64 / (2 * rounds) as f64
}

#[test]
fn disjoint_starts_and_finishes_visit_only_the_flows_they_change() {
    let small = visits_per_op(4);
    let large = visits_per_op(256);
    // a finish brings its own flow up to date; a start visits none (no
    // sort, no emit loop over the flows in flight)
    assert_eq!(small, 0.5);
    assert_eq!(large, small, "work per event grew with the flows in flight");
}
