//! Property-based invariants of the flow-level network model: the
//! max-min allocator never oversubscribes a link and is monotone under
//! flow removal, and crossbar replays stay bit-identical to the bus
//! model on randomized workloads.
//!
//! Off by default; run with `cargo test --features proptest-tests`.
#![cfg(feature = "proptest-tests")]

use ovlp_machine::net::{max_min_rates, FaultAction, FlowNet, LinkGraph, LinkId};
use ovlp_machine::{simulate, NoopSink, Platform, Time, Topology};
use ovlp_trace::record::{Record, SendMode};
use ovlp_trace::{Bytes, Instructions, Rank, Tag, Trace, TransferId};
use proptest::prelude::*;

/// Build per-flow paths over `nlinks` links from raw proptest indices
/// (deduplicated so a path never lists the same link twice).
fn build_paths(raw: &[Vec<usize>], nlinks: usize) -> Vec<Vec<LinkId>> {
    raw.iter()
        .map(|p| {
            let mut seen = vec![false; nlinks];
            let mut path = Vec::new();
            for &l in p {
                let l = l % nlinks;
                if !seen[l] {
                    seen[l] = true;
                    path.push(LinkId(l as u32));
                }
            }
            path
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Feasibility: every rate is positive, and the rates crossing any
    /// link sum to at most its capacity (up to float slack).
    #[test]
    fn max_min_never_oversubscribes_a_link(
        cap_units in proptest::collection::vec(1u64..1_000_000, 1..8),
        raw_paths in proptest::collection::vec(
            proptest::collection::vec(0usize..64, 1..6), 1..12),
    ) {
        let caps: Vec<f64> = cap_units.iter().map(|&c| c as f64).collect();
        let paths = build_paths(&raw_paths, caps.len());
        let flows: Vec<&[LinkId]> = paths.iter().map(Vec::as_slice).collect();
        let rates = max_min_rates(&flows, &caps);
        prop_assert_eq!(rates.len(), flows.len());
        for (f, &r) in flows.iter().zip(&rates) {
            prop_assert!(r > 0.0, "flow {f:?} got rate {r}");
            prop_assert!(!f.is_empty() || r.is_infinite());
        }
        for (l, &cap) in caps.iter().enumerate() {
            let used: f64 = flows
                .iter()
                .zip(&rates)
                .filter(|(f, _)| f.contains(&LinkId(l as u32)))
                .map(|(_, &r)| r)
                .sum();
            prop_assert!(
                used <= cap * (1.0 + 1e-9),
                "link {l}: {used} over capacity {cap}"
            );
        }
    }

    /// Monotonicity under flow removal. Individual rates can legally
    /// DROP when a flow leaves (parking lot: removing f3 from link B
    /// lets f2 grow on B and squeeze f1 on shared link A), so the
    /// faithful statement is lexicographic: the sorted rate vector of
    /// the survivors never gets worse — in particular the minimum rate
    /// never decreases.
    #[test]
    fn max_min_improves_lexicographically_under_flow_removal(
        cap_units in proptest::collection::vec(1u64..1_000_000, 1..8),
        raw_paths in proptest::collection::vec(
            proptest::collection::vec(0usize..64, 1..6), 2..10),
        drop in 0usize..16,
    ) {
        let caps: Vec<f64> = cap_units.iter().map(|&c| c as f64).collect();
        let paths = build_paths(&raw_paths, caps.len());
        let flows: Vec<&[LinkId]> = paths.iter().map(Vec::as_slice).collect();
        let before = max_min_rates(&flows, &caps);
        let drop = drop % flows.len();
        let kept: Vec<&[LinkId]> = flows
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != drop)
            .map(|(_, f)| *f)
            .collect();
        let after = max_min_rates(&kept, &caps);
        let mut old: Vec<f64> = before
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != drop)
            .map(|(_, &r)| r)
            .collect();
        let mut new = after.clone();
        old.sort_by(|a, b| a.partial_cmp(b).unwrap());
        new.sort_by(|a, b| a.partial_cmp(b).unwrap());
        // first strictly differing slot must favour the new allocation
        for (i, (&o, &n)) in old.iter().zip(&new).enumerate() {
            if n < o * (1.0 - 1e-9) {
                prop_assert!(
                    false,
                    "sorted rates regressed at slot {i}: {o} -> {n} \
                     (old {old:?}, new {new:?})"
                );
            }
            if n > o * (1.0 + 1e-9) {
                break; // lexicographically better already
            }
        }
    }

    /// Uncontended crossbar flows must reproduce the linear bus model
    /// bit-for-bit on randomized ring workloads, not just on the
    /// hand-picked fixtures.
    #[test]
    fn crossbar_matches_bus_on_random_rings(
        nranks in 2u32..10,
        iters in 1u32..6,
        bursts in proptest::collection::vec(1000u64..500_000, 2..6),
        sizes in proptest::collection::vec(1u64..200_000, 2..6),
    ) {
        let mut t = Trace::new(nranks as usize);
        for r in 0..nranks {
            let next = (r + 1) % nranks;
            let prev = (r + nranks - 1) % nranks;
            let rt = t.rank_mut(Rank(r));
            for i in 0..iters {
                let size = |sender: u32| sizes[((sender + i * nranks) as usize) % sizes.len()];
                rt.push(Record::Compute {
                    instr: Instructions(bursts[((r + i * nranks) as usize) % bursts.len()]),
                });
                rt.push(Record::Send {
                    dst: Rank(next),
                    tag: Tag::user(0),
                    bytes: Bytes(size(r)),
                    mode: SendMode::Eager,
                    transfer: TransferId::new(Rank(r), 2 * i),
                });
                rt.push(Record::Recv {
                    src: Rank(prev),
                    tag: Tag::user(0),
                    bytes: Bytes(size(prev)),
                    transfer: TransferId::new(Rank(r), 2 * i + 1),
                });
            }
        }
        prop_assert!(ovlp_trace::validate(&t).is_empty());
        let bus = simulate(&t, &Platform::default()).unwrap();
        let flow = simulate(&t, &Platform::default().with_topology(Topology::Crossbar)).unwrap();
        prop_assert_eq!(bus.runtime().to_bits(), flow.runtime().to_bits());
        prop_assert_eq!(
            format!("{:?} {:?}", bus.totals, bus.timelines),
            format!("{:?} {:?}", flow.totals, flow.timelines)
        );
        // transfer initiation order may interleave differently when
        // unrelated completions coincide (bus mode learns a recv's
        // finish time at pairing, flow mode only at FlowDone), but the
        // set of transfers and every timestamp must agree exactly
        let sorted = |sim: &ovlp_machine::SimResult| {
            let mut c: Vec<String> = sim.comms.iter().map(|r| format!("{r:?}")).collect();
            c.sort();
            c
        };
        prop_assert_eq!(sorted(&bus), sorted(&flow));
    }
}

/// One of the supported topologies plus a node count that fits it.
fn arena(pick: usize) -> (Topology, usize) {
    match pick % 4 {
        0 => (Topology::Crossbar, 6),
        1 => (
            Topology::FatTree {
                radix: 4,
                oversubscription: 1,
            },
            8,
        ),
        2 => (Topology::Torus { dims: vec![2, 2] }, 4),
        _ => (
            Topology::Torus {
                dims: vec![2, 2, 2],
            },
            8,
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// The incremental active-set allocator inside [`FlowNet`] must
    /// agree with the from-scratch oracle to the last bit after every
    /// step of a randomized flow arrival/departure sequence, on every
    /// topology. (Debug builds additionally assert this inside each
    /// reshare; this suite pins it in release builds too, across
    /// long churn sequences that empty and refill the link set.)
    #[test]
    fn incremental_allocator_matches_oracle_on_random_churn(
        pick in 0usize..4,
        ops in proptest::collection::vec(
            (0u8..4, 0usize..64, 0usize..64, 1u64..2_000), 1..48),
    ) {
        let (topo, nodes) = arena(pick);
        let graph = LinkGraph::build(&topo, nodes, 100.0).unwrap();
        let caps: Vec<f64> = graph.links().iter().map(|l| l.capacity).collect();
        let oracle_graph = LinkGraph::build(&topo, nodes, 100.0).unwrap();
        let mut net = FlowNet::new(graph);
        let mut active: Vec<(usize, usize, usize)> = Vec::new(); // (msg, src, dst)
        let mut next_msg = 0usize;
        let mut now = 0.0f64;
        let mut evs = Vec::new();
        for &(op, a, b, kb) in &ops {
            now += kb as f64 * 1e-6; // strictly increasing settle points
            evs.clear();
            if op == 0 && !active.is_empty() {
                // departure
                let (msg, _, _) = active.remove(a % active.len());
                net.finish(msg, Time::secs(now), &mut evs, &mut NoopSink);
            } else {
                // arrival on a random (src, dst) pair
                let src = a % nodes;
                let dst = (src + 1 + b % (nodes - 1)) % nodes;
                let msg = next_msg;
                next_msg += 1;
                net.start(
                    msg,
                    msg as u64,src,
                    dst,
                    kb as f64 * 1024.0,
                    1e-5,
                    Time::secs(now),
                    &mut evs,
                    &mut NoopSink,
                ).unwrap();
                active.push((msg, src, dst));
            }
            // `active` stays in ascending msg order (arrivals take
            // increasing ids, removals preserve order), matching the
            // order FlowNet reports rates in
            let paths: Vec<Vec<LinkId>> = active
                .iter()
                .map(|&(_, s, d)| oracle_graph.route(s, d))
                .collect();
            let flows: Vec<&[LinkId]> = paths.iter().map(Vec::as_slice).collect();
            let want = max_min_rates(&flows, &caps);
            let got = net.debug_rates();
            prop_assert_eq!(got.len(), want.len());
            for (k, (&(msg, r), &w)) in got.iter().zip(&want).enumerate() {
                prop_assert_eq!(msg, active[k].0);
                prop_assert_eq!(
                    r.to_bits(), w.to_bits(),
                    "flow {} after {} ops: incremental {} vs oracle {}",
                    msg, next_msg, r, w
                );
            }
        }
    }
}

/// A fabric whose links end up with mixed capacities: an oversubscribed
/// fat-tree (fabric links at `host / oversub`), or a crossbar or torus
/// that only the degrade faults make non-uniform. Returns the topology
/// and its node count.
fn mixed_arena(pick: usize, oversub: u32) -> (Topology, usize) {
    match pick % 3 {
        0 => (
            Topology::FatTree {
                radix: 4,
                oversubscription: oversub,
            },
            16,
        ),
        1 => (Topology::Crossbar, 8),
        _ => (Topology::Torus { dims: vec![3, 3] }, 9),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 192, ..ProptestConfig::default() })]

    /// The production net and a `with_reference_solver()` net, driven
    /// through the same churn on mixed-capacity fabrics, must emit the
    /// same completion events and hold the same rates after every step.
    /// Phases of eight steps alternate between arrivals on unused
    /// endpoints (host links stay disjoint, so the class chain solves)
    /// and arrivals on random pairs (links get shared, so the general
    /// solver does), interleaved with degrade, kill and restore. The
    /// bandwidths include ones whose chained levels round away from the
    /// capacities, so changed class rates force the full emit loop.
    #[test]
    fn production_net_matches_reference_net_on_mixed_capacities(
        pick in 0usize..3,
        oversub in 2u32..8,
        bw in 0usize..4,
        ops in proptest::collection::vec(
            (0u8..16, 0usize..64, 0usize..64, 1u64..2_000, 1u32..1001), 1..64),
    ) {
        let (topo, nodes) = mixed_arena(pick, oversub);
        let mbs = [100.0, 57.0 / 7.0, 29.0 / 7.0, 1000.0 / 3.0][bw];
        let graph = LinkGraph::build(&topo, nodes, mbs).unwrap();
        let nlinks = graph.len();
        let mut net = FlowNet::new(graph.clone());
        let mut reference = FlowNet::new(graph.clone()).with_reference_solver();
        let mut active: Vec<(usize, usize, usize)> = Vec::new(); // (msg, src, dst)
        let mut next_msg = 0usize;
        let mut now = 0.0f64;
        let (mut got, mut want) = (Vec::new(), Vec::new());
        for (step, &(op, a, b, kb, factor)) in ops.iter().enumerate() {
            now += kb as f64 * 1e-6; // strictly increasing settle points
            let t = Time::secs(now);
            got.clear();
            want.clear();
            let disjoint_phase = (step / 8) % 2 == 0;
            match op {
                0..=4 if !active.is_empty() => {
                    let (msg, _, _) = active.remove(a % active.len());
                    net.finish(msg, t, &mut got, &mut NoopSink);
                    reference.finish(msg, t, &mut want, &mut NoopSink);
                }
                12..=15 => {
                    // mostly a link some active flow's nominal route
                    // crosses, so the fault touches live traffic
                    let link = match active.get(b % (active.len() + 1)) {
                        Some(&(_, s, d)) => {
                            let route = graph.route(s, d);
                            route[a % route.len()]
                        }
                        None => LinkId((a * 7919 % nlinks) as u32),
                    };
                    let action = match op {
                        12 | 13 => FaultAction::Degrade { factor: factor as f64 / 1000.0 },
                        14 => FaultAction::Kill,
                        _ => FaultAction::Restore,
                    };
                    let x = net.apply_fault(&action, &[link], t, &mut got, &mut NoopSink);
                    let y = reference.apply_fault(&action, &[link], t, &mut want, &mut NoopSink);
                    prop_assert_eq!(format!("{x:?}"), format!("{y:?}"));
                    if x.is_err() {
                        return Ok(()); // partitioned: the replay would stop here
                    }
                }
                _ => {
                    let pair = if disjoint_phase {
                        // endpoints no active flow uses
                        let src = (0..nodes)
                            .map(|k| (a + k) % nodes)
                            .find(|&s| active.iter().all(|f| f.1 != s));
                        let dst = (0..nodes)
                            .map(|k| (b + k) % nodes)
                            .find(|&d| Some(d) != src && active.iter().all(|f| f.2 != d));
                        src.zip(dst)
                    } else {
                        let src = a % nodes;
                        Some((src, (src + 1 + b % (nodes - 1)) % nodes))
                    };
                    let Some((src, dst)) = pair else { continue };
                    let msg = next_msg;
                    next_msg += 1;
                    let bytes = kb as f64 * 1024.0;
                    let x = net.start(msg, msg as u64,src, dst, bytes, 1e-5, t, &mut got, &mut NoopSink);
                    let y = reference.start(msg, msg as u64,src, dst, bytes, 1e-5, t, &mut want, &mut NoopSink);
                    prop_assert_eq!(format!("{x:?}"), format!("{y:?}"));
                    if x.is_ok() {
                        active.push((msg, src, dst));
                    }
                }
            }
            prop_assert_eq!(&got, &want, "events after step {}", step);
            let rates = |n: &FlowNet| -> Vec<(usize, u64)> {
                n.debug_rates().iter().map(|&(m, r)| (m, r.to_bits())).collect()
            };
            prop_assert_eq!(rates(&net), rates(&reference), "rates after step {}", step);
        }
    }
}
