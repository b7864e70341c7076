//! Bit-identity of the record supply's inline collective expansion
//! and lazy generators against materialized inputs.
//!
//! Every replay pulls records through per-rank cursors that expand
//! collectives inline. `simulate` on a trace must produce exactly the
//! same replay — every timestamp, timeline, transfer, network
//! statistic, and engine counter — as `simulate` on its eager
//! `expand_collectives` rewrite (which the benchmark harness times as
//! its own layer), and a generator must replay exactly as its
//! materialization, on every topology, with and without fault
//! schedules. The supply reads a materialized trace in place and a
//! generator through a boxed iterator; both arms must replay a traced
//! program identically. `render_exact` round-trips every float, so
//! string equality is bit equality.

use overlap_sim::machine::{
    expand_collectives, render_exact, replay_scale, simulate, Platform, Topology,
};
use overlap_sim::trace::mlgen::{MlAllreduce, MlConfig};
use overlap_sim::trace::{synth, text, RankTiled, Trace, TraceSource};
use std::path::PathBuf;

fn fixture(name: &str) -> Trace {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    let content = std::fs::read_to_string(&path).unwrap();
    text::parse(&content).unwrap_or_else(|e| panic!("{name}: {e}"))
}

fn topologies(nranks: usize) -> Vec<(&'static str, Topology)> {
    let torus = match nranks {
        4 => Topology::Torus { dims: vec![2, 2] },
        8 => Topology::Torus {
            dims: vec![2, 2, 2],
        },
        n => Topology::Torus {
            dims: vec![2, n.div_ceil(2) as u32],
        },
    };
    vec![
        ("crossbar", Topology::Crossbar),
        (
            "fat-tree:4",
            Topology::FatTree {
                radix: 4,
                oversubscription: 1,
            },
        ),
        ("torus", torus),
    ]
}

/// Inline (per-cursor) vs eager (whole-trace) collective expansion on
/// one (trace, platform): byte-identical rendering or bust.
fn assert_stream_identity(label: &str, trace: &Trace, platform: &Platform) {
    let eager = simulate(&expand_collectives(trace, platform.collective), platform);
    let inline = simulate(trace, platform);
    assert_eq!(
        render_exact(&inline),
        render_exact(&eager),
        "{label}: inline collective expansion diverged from the eager rewrite"
    );
}

#[test]
fn streamed_matches_materialized_on_fixtures() {
    for name in ["sweep3d_4r.trf", "nas_cg_8r.trf"] {
        let trace = fixture(name);
        // bus model first — the weak-scaling configuration
        assert_stream_identity(&format!("{name}/bus"), &trace, &Platform::default());
        for (topo_name, topo) in topologies(trace.nranks()) {
            let platform = Platform::default().with_topology(topo);
            assert_stream_identity(&format!("{name}/{topo_name}"), &trace, &platform);
        }
    }
}

#[test]
fn streamed_matches_materialized_on_synth_seeds() {
    // seeded generator output covers collectives, non-blocking rings,
    // chains, and chunked exchanges the goldens don't
    for seed in 0..10u64 {
        let trace = synth::generate(seed);
        assert_stream_identity(&format!("synth-{seed}/bus"), &trace, &Platform::default());
        let crossbar = Platform::default().with_topology(Topology::Crossbar);
        assert_stream_identity(&format!("synth-{seed}/crossbar"), &trace, &crossbar);
    }
}

#[test]
fn streamed_matches_materialized_on_tiled_traces() {
    // rank-tiled copies exercise the supply's per-rank cursors well
    // past the base trace's width
    let tiled = synth::tile_ranks(&synth::generate(7), 8);
    assert_stream_identity("tiled/bus", &tiled, &Platform::default());
}

#[test]
fn streamed_matches_materialized_under_faults() {
    let trace = fixture("nas_cg_8r.trf");
    let schedule: overlap_sim::machine::FaultSchedule =
        "degrade=0.5@1ms:n0->sw;restore@3ms:n0->sw".parse().unwrap();
    let platform = Platform::default()
        .with_topology(Topology::Crossbar)
        .with_faults(schedule);
    assert_stream_identity("faults", &trace, &platform);
}

/// The supply's `Slice` arm (a trace's records read in place) against
/// its `Stream` arm (the same records through a boxed iterator: a
/// one-copy `RankTiled` re-emits its base unchanged) on one (trace,
/// platform).
fn assert_arms_agree(label: &str, trace: &Trace, platform: &Platform) {
    let slice = simulate(trace, platform);
    let stream = simulate(&RankTiled::new(trace.clone(), 1), platform);
    assert_eq!(
        render_exact(&stream),
        render_exact(&slice),
        "{label}: the stream arm diverged from the slice arm"
    );
}

#[test]
fn slice_and_stream_arms_replay_identically() {
    let mut traces: Vec<(String, Trace)> = ["sweep3d_4r.trf", "nas_cg_8r.trf"]
        .into_iter()
        .map(|name| (name.to_string(), fixture(name)))
        .collect();
    traces.extend((0..10u64).map(|seed| (format!("synth-{seed}"), synth::generate(seed))));
    // link 0 exists on every fabric; the degrade lands mid-traffic on
    // some inputs and on an idle link on others
    let schedule: overlap_sim::machine::FaultSchedule =
        "degrade=0.5@1ms:link:0;restore@3ms:link:0".parse().unwrap();
    for (name, trace) in &traces {
        assert_arms_agree(&format!("{name}/bus"), trace, &Platform::default());
        for (topo_name, topo) in topologies(trace.nranks()) {
            let platform = Platform::default().with_topology(topo);
            assert_arms_agree(&format!("{name}/{topo_name}"), trace, &platform);
            let faulted = platform.with_faults(schedule.clone());
            assert_arms_agree(&format!("{name}/{topo_name}/faults"), trace, &faulted);
        }
    }
}

#[test]
fn generated_workload_stream_equals_its_materialization() {
    // the ML workload both ways: records pulled lazily from the
    // generator vs the same generator materialized up front
    let cfg = MlConfig::new(16, 0x6d6c_6172).unwrap();
    let source = MlAllreduce::new(cfg);
    let trace = source.materialize();
    let from_source = simulate(&source, &Platform::marenostrum(0));
    let from_trace = simulate(&trace, &Platform::marenostrum(0));
    assert_eq!(
        render_exact(&from_source),
        render_exact(&from_trace),
        "ml-allreduce: generator stream diverged from its materialization"
    );
}

#[test]
fn scale_replay_cross_checks_full_fidelity_stream() {
    // the totals-only recorder sees the same replay as the result
    // recorder: runtime and event count are bit-identical
    let cfg = MlConfig::new(64, 0x6d6c_6172).unwrap();
    let source = MlAllreduce::new(cfg);
    let platform = Platform::marenostrum(0);
    let full = simulate(&source, &platform).unwrap();
    let scale = replay_scale(&source, &platform).unwrap();
    assert_eq!(scale.nranks, 64);
    assert_eq!(scale.runtime, full.runtime, "totals-only runtime drifted");
    assert_eq!(scale.events_processed, full.events_processed);
    assert!(
        scale.records_peak < scale.records_streamed,
        "streaming kept every record resident ({} of {})",
        scale.records_peak,
        scale.records_streamed
    );
    // the same recycling engine runs flow fabrics: it must agree with
    // the result-building replay there too, from a fraction of the
    // message slots
    for topology in [
        Topology::Crossbar,
        Topology::FatTree {
            radix: 16,
            oversubscription: 4,
        },
    ] {
        let flowed = Platform::marenostrum(0).with_topology(topology.clone());
        let full = simulate(&source, &flowed).unwrap();
        let scale = replay_scale(&source, &flowed).unwrap();
        assert_eq!(
            scale.runtime.as_secs().to_bits(),
            full.runtime().to_bits(),
            "{topology:?}: runtime drifted"
        );
        assert_eq!(
            scale.events_processed, full.events_processed,
            "{topology:?}"
        );
        assert_eq!(
            scale.transfers, full.network.transfers as u64,
            "{topology:?}"
        );
        assert!(
            scale.msg_slots < full.network.transfers,
            "{topology:?}: {} message slots for {} transfers",
            scale.msg_slots,
            full.network.transfers
        );
    }
}

#[test]
fn registry_rank_override_streams_identically() {
    // the CLI's `--ranks` path end to end: registry source at a
    // non-default rank count vs its materialization
    let entry = overlap_sim::apps::registry::by_name("ml-allreduce").unwrap();
    let source = entry.source(24).unwrap();
    let run = entry.trace_run(24).unwrap();
    let platform = Platform::marenostrum(0);
    let streamed = simulate(source.as_ref(), &platform);
    let materialized = simulate(&run.trace, &platform);
    assert_eq!(render_exact(&streamed), render_exact(&materialized));
}
