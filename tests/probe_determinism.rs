//! The probe layer must observe without perturbing: a replay with a
//! `WindowedRecorder` attached produces bit-identical simulation
//! results (and Paraver exports) to one with the `NoopSink`, the
//! recorded metrics themselves are deterministic, and probed sweep
//! points hash identically to unprobed ones for any worker count.

use overlap_sim::core::chunk::ChunkPolicy;
use overlap_sim::core::sweep::{sweep, SweepApp, SweepCache, SweepConfig, SweepGrid};
use overlap_sim::instr::trace_app;
use overlap_sim::machine::{
    render_exact, simulate, simulate_probed, Metrics, NoopSink, Platform, SimResult, Time,
    Topology, WindowedRecorder,
};
use overlap_sim::trace::{text, Trace};
use overlap_sim::viz::paraver;
use std::path::PathBuf;

fn load_fixture(name: &str) -> Trace {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    text::parse(&std::fs::read_to_string(path).unwrap()).unwrap()
}

/// Every f64 the simulation reports, as bits: approximate equality is
/// not good enough here.
fn result_bits(sim: &SimResult) -> Vec<u64> {
    let mut bits = vec![sim.runtime().to_bits()];
    for c in &sim.comms {
        for t in [c.t_send, c.t_start, c.t_arrive, c.t_consume] {
            bits.push(t.as_secs().to_bits());
        }
    }
    bits
}

fn probed(trace: &Trace, platform: &Platform, window: Time) -> (SimResult, Metrics) {
    let mut rec = WindowedRecorder::new(window);
    let sim = simulate_probed(trace, platform, &mut rec).unwrap();
    (sim, rec.into_metrics().unwrap())
}

/// Both golden fixtures on the default platform under all four
/// contention models: the bus plus the three flow topologies.
fn fixture_topology_cases() -> Vec<(&'static str, Platform)> {
    let mut cases = Vec::new();
    for (name, torus) in [
        ("sweep3d_4r.trf", "torus:2x2"),
        ("nas_cg_8r.trf", "torus:2x2x2"),
    ] {
        for spec in ["bus", "crossbar", "fat-tree:4", torus] {
            let platform = Platform::default().with_contention(spec.parse().unwrap());
            cases.push((name, platform));
        }
    }
    cases
}

#[test]
fn windowed_recorder_does_not_perturb_the_replay() {
    let cases: [(&str, Platform); 4] = [
        ("sweep3d_4r.trf", Platform::marenostrum(4)),
        (
            "sweep3d_4r.trf",
            Platform::marenostrum(4).with_topology(Topology::Torus { dims: vec![2, 2] }),
        ),
        ("nas_cg_8r.trf", Platform::marenostrum(8)),
        (
            "nas_cg_8r.trf",
            Platform::marenostrum(8).with_topology(Topology::FatTree {
                radix: 4,
                oversubscription: 1,
            }),
        ),
    ];
    for (name, platform) in &cases {
        let trace = load_fixture(name);
        let mut noop = NoopSink;
        let plain = simulate_probed(&trace, platform, &mut noop).unwrap();
        let (recorded, _) = probed(&trace, platform, Time::micros(7.0));
        assert_eq!(
            result_bits(&plain),
            result_bits(&recorded),
            "{name}: recording probes changed the simulation"
        );
        // ...and the NoopSink path is the plain `simulate` path
        assert_eq!(
            result_bits(&plain),
            result_bits(&simulate(&trace, platform).unwrap()),
            "{name}: NoopSink diverged from simulate()"
        );
    }
}

#[test]
fn probed_fixtures_match_unprobed_on_every_topology() {
    for (name, platform) in fixture_topology_cases() {
        let trace = load_fixture(name);
        let mut noop = NoopSink;
        let plain = simulate_probed(&trace, &platform, &mut noop).unwrap();
        let (recorded, _) = probed(&trace, &platform, Time::micros(7.0));
        // every observable, not just the timestamps, and the Paraver
        // export built from them
        assert_eq!(
            render_exact(&Ok(plain.clone())),
            render_exact(&Ok(recorded.clone())),
            "{name}: recording probes changed the simulation"
        );
        assert_eq!(
            paraver::export(name, &plain),
            paraver::export(name, &recorded),
            "{name}: recording probes changed the Paraver export"
        );
        // ...and the NoopSink path is the plain `simulate` path
        assert_eq!(
            result_bits(&plain),
            result_bits(&simulate(&trace, &platform).unwrap()),
            "{name}: NoopSink diverged from simulate()"
        );
    }
}

#[test]
fn recorded_metrics_are_deterministic() {
    let trace = load_fixture("nas_cg_8r.trf");
    let platform = Platform::marenostrum(8).with_topology(Topology::FatTree {
        radix: 4,
        oversubscription: 1,
    });
    let (_, a) = probed(&trace, &platform, Time::micros(20.0));
    let (_, b) = probed(&trace, &platform, Time::micros(20.0));
    assert_eq!(a, b, "same replay, same windows, different metrics");
    assert!(a.windows > 1, "degenerate window count");
    assert!(!a.links.is_empty(), "flow topology should expose links");
    // repeat runs agree to the byte on every fixture and topology:
    // the replay, the metrics JSON, and the Paraver export
    for (name, platform) in fixture_topology_cases() {
        let trace = load_fixture(name);
        let (sim_a, a) = probed(&trace, &platform, Time::micros(20.0));
        let (sim_b, b) = probed(&trace, &platform, Time::micros(20.0));
        assert_eq!(
            render_exact(&Ok(sim_a.clone())),
            render_exact(&Ok(sim_b.clone()))
        );
        assert_eq!(a.to_json(), b.to_json(), "{name}: metrics JSON diverged");
        assert_eq!(paraver::export(name, &sim_a), paraver::export(name, &sim_b));
    }
}

fn small_grid() -> SweepGrid {
    let app = overlap_sim::apps::synthetic::PatternApp::quick();
    let run = trace_app(&app, 4).unwrap();
    SweepGrid {
        apps: vec![SweepApp::new("pattern", run)],
        platforms: vec![
            Platform::marenostrum(4),
            Platform::marenostrum(4).with_bandwidth(50.0),
        ],
        policies: [1u32, 4]
            .into_iter()
            .map(ChunkPolicy::with_chunks)
            .collect(),
    }
}

#[test]
fn probed_sweep_points_hash_identically_to_unprobed_ones() {
    let grid = small_grid();
    let unprobed = sweep(&grid, &SweepConfig::with_jobs(2), &SweepCache::new());
    let mut config = SweepConfig::with_jobs(2);
    config.probe_window_us = Some(50.0);
    let probed = sweep(&grid, &config, &SweepCache::new());
    // metrics are excluded from the replay fingerprint by construction
    assert_eq!(unprobed.result_hashes(), probed.result_hashes());
    for outcome in &unprobed.outcomes {
        assert!(outcome.as_ref().unwrap().metrics.is_none());
    }
    for outcome in &probed.outcomes {
        let m = outcome.as_ref().unwrap().metrics.as_ref().unwrap();
        assert!(m.original.windows >= 1);
    }
}

#[test]
fn sweep_metrics_are_identical_for_any_worker_count() {
    let grid = small_grid();
    let run_with = |jobs: usize| {
        let mut config = SweepConfig::with_jobs(jobs);
        config.probe_window_us = Some(50.0);
        sweep(&grid, &config, &SweepCache::new())
    };
    let base = run_with(1);
    for jobs in [2, 4] {
        let r = run_with(jobs);
        assert_eq!(r.result_hashes(), base.result_hashes(), "jobs={jobs}");
        for (a, b) in base.outcomes.iter().zip(&r.outcomes) {
            let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
            assert_eq!(a.metrics, b.metrics, "jobs={jobs}: metrics diverged");
        }
    }
}
