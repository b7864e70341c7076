//! Deterministic link-fault injection, pinned on the committed trace
//! fixtures.
//!
//! The fault schedule is part of the platform, so a faulted replay must
//! be exactly as deterministic as a healthy one: bit-identical across
//! repeat runs and across sweep worker counts. Faults that never touch
//! a flow must be invisible to timing, and an empty schedule must be
//! indistinguishable from a build without the feature.

use overlap_sim::core::chunk::ChunkPolicy;
use overlap_sim::core::sweep::{sweep, SweepApp, SweepCache, SweepConfig, SweepGrid};
use overlap_sim::instr::trace_app;
use overlap_sim::machine::{simulate, FaultSchedule, Platform, SimError, SimResult};
use overlap_sim::trace::text;
use std::path::PathBuf;

fn fixture(name: &str) -> overlap_sim::trace::Trace {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    let content = std::fs::read_to_string(&path).unwrap();
    text::parse(&content).unwrap_or_else(|e| panic!("{name}: {e}"))
}

/// Everything observable about a replay's timing, rendered exactly
/// (float Debug output is round-trip precise).
fn timing(sim: &SimResult) -> String {
    format!(
        "{:?} {:?} {:?} {:?}",
        sim.runtime, sim.totals, sim.timelines, sim.markers
    )
}

fn transfers(sim: &SimResult) -> Vec<String> {
    let mut c: Vec<String> = sim.comms.iter().map(|r| format!("{r:?}")).collect();
    c.sort();
    c
}

fn faults(spec: &str) -> FaultSchedule {
    spec.parse().unwrap_or_else(|e| panic!("{spec}: {e}"))
}

/// The acceptance scenario: kill a fat-tree up-link mid-run, restore it
/// later. The replay must complete (ECMP reroutes around the dead
/// link), reproduce bit-identically, and differ from the fault-free
/// baseline — a fault on a traffic-carrying link is not a no-op.
#[test]
fn fat_tree_uplink_kill_restore_reroutes_and_replays_identically() {
    let trace = fixture("nas_cg_8r.trf");
    let base = Platform::default().with_contention("fat-tree:4".parse().unwrap());
    let clean = simulate(&trace, &base).unwrap();
    let faulted_p = base
        .clone()
        .with_faults(faults("kill@50us:e0->a0;restore@120us:e0->a0"));
    let a = simulate(&trace, &faulted_p).unwrap();
    let b = simulate(&trace, &faulted_p).unwrap();
    assert_eq!(timing(&a), timing(&b), "faulted replay nondeterministic");
    assert_eq!(transfers(&a), transfers(&b));
    assert_eq!(a.network.faults_applied, 2);
    assert_eq!(a.fault_log.len(), 2);
    assert!(a.fault_log[0].desc.contains("kill"), "{:?}", a.fault_log);
    assert_ne!(
        timing(&clean),
        timing(&a),
        "killing a traffic-carrying up-link must perturb the replay"
    );
    let killed = a.links.iter().find(|l| &*l.label == "e0->a0").unwrap();
    assert_eq!(killed.faults, 2, "kill + restore both touch the link");
}

/// Killing the only path between two endpoints must fail fast with a
/// partition error naming the dead link — never a silent hang.
#[test]
fn crossbar_kill_partitions_with_a_clean_error() {
    let trace = fixture("nas_cg_8r.trf");
    let p = Platform::default()
        .with_contention("crossbar".parse().unwrap())
        .with_faults(faults("kill@1us:n0->sw"));
    match simulate(&trace, &p) {
        Err(SimError::Partitioned { src, dst, link }) => {
            assert_eq!(src, 0, "node 0 lost its only up-link");
            assert_eq!(link, "n0->sw");
            assert_ne!(dst, 0);
        }
        other => panic!("expected a partition error, got {other:?}"),
    }
}

/// A schedule whose faults never coincide with traffic must leave
/// every timing observable bit-identical to the fault-free replay, on
/// every flow topology and both fixtures: mid-run faults on a link
/// that carries zero traffic, or — where every link is busy (CG on the
/// crossbar) — faults landing after the last flow has drained. (Fault
/// bookkeeping — event counts, per-link fault markers — may differ;
/// timing may not.)
#[test]
fn faults_on_idle_links_are_timing_invisible() {
    let cases = [
        (
            "sweep3d_4r.trf",
            vec!["crossbar", "fat-tree:4", "torus:2x2"],
        ),
        (
            "nas_cg_8r.trf",
            vec!["crossbar", "fat-tree:4", "torus:2x2x2"],
        ),
    ];
    for (name, topologies) in cases {
        let trace = fixture(name);
        for spec in topologies {
            let base = Platform::default().with_contention(spec.parse().unwrap());
            let clean = simulate(&trace, &base).unwrap();
            let (label, t0) = match clean.links.iter().find(|l| l.bytes == 0.0) {
                Some(idle) => (idle.label.clone(), 20e-6),
                None => (clean.links[0].label.clone(), clean.runtime() + 1e-3),
            };
            let schedule = faults(&format!(
                "degrade=0.5@{t0}s:{label};kill@{t1}s:{label};restore@{t2}s:{label}",
                t1 = t0 + 20e-6,
                t2 = t0 + 40e-6,
            ));
            let faulted = simulate(&trace, &base.clone().with_faults(schedule))
                .unwrap_or_else(|e| panic!("{name} on {spec}: {e}"));
            assert_eq!(
                timing(&clean),
                timing(&faulted),
                "{name} on {spec}: idle-link faults perturbed timing"
            );
            assert_eq!(transfers(&clean), transfers(&faulted));
            assert_eq!(faulted.network.faults_applied, 3);
            assert_eq!(faulted.network.flows_rerouted, 0);
        }
    }
}

/// The empty schedule is the feature turned off: replays must be
/// bit-identical in every observable, including engine event counts.
#[test]
fn empty_fault_schedule_is_bit_identical_everywhere() {
    let cases = [
        (
            "sweep3d_4r.trf",
            vec!["crossbar", "fat-tree:4", "torus:2x2"],
        ),
        (
            "nas_cg_8r.trf",
            vec!["crossbar", "fat-tree:4", "torus:2x2x2"],
        ),
    ];
    for (name, topologies) in cases {
        let trace = fixture(name);
        for spec in topologies {
            let base = Platform::default().with_contention(spec.parse().unwrap());
            let clean = simulate(&trace, &base).unwrap();
            let empty = simulate(&trace, &base.clone().with_faults(FaultSchedule::default()))
                .unwrap_or_else(|e| panic!("{name} on {spec}: {e}"));
            assert_eq!(timing(&clean), timing(&empty), "{name} on {spec}");
            assert_eq!(transfers(&clean), transfers(&empty));
            assert_eq!(clean.events_processed, empty.events_processed);
            assert_eq!(format!("{:?}", clean.links), format!("{:?}", empty.links));
            assert!(empty.fault_log.is_empty());
        }
    }
}

/// Resilience sweeps: a grid mixing fault-free and faulted platforms
/// must stay bit-identical for any worker count, and the retention
/// section must quantify each scenario against its clean baseline.
#[test]
fn resilience_sweep_is_bit_identical_across_jobs() {
    let app = overlap_sim::apps::nas_cg::NasCgApp::quick();
    let run = trace_app(&app, 8).unwrap();
    let base = Platform::marenostrum(6).with_contention("fat-tree:4".parse().unwrap());
    let scenarios = [
        faults("degrade=0.25@50us:uplink:*"),
        faults("kill@50us:e0->a0;restore@120us:e0->a0"),
    ];
    let mut platforms = vec![base.clone()];
    platforms.extend(
        scenarios
            .iter()
            .map(|s| base.clone().with_faults(s.clone())),
    );
    let grid = SweepGrid {
        apps: vec![SweepApp::new("nas-cg", run)],
        platforms,
        policies: [2u32, 4]
            .into_iter()
            .map(ChunkPolicy::with_chunks)
            .collect(),
    };
    let outputs: Vec<(String, String)> = [1usize, 2, 4]
        .into_iter()
        .map(|jobs| {
            let report = sweep(&grid, &SweepConfig::with_jobs(jobs), &SweepCache::new());
            assert_eq!(report.err_count(), 0, "jobs={jobs}");
            (report.render(&grid), report.render_retention(&grid))
        })
        .collect();
    assert_eq!(outputs[0], outputs[1]);
    assert_eq!(outputs[1], outputs[2]);
    let (render, retention) = &outputs[0];
    assert!(render.contains("faults=none"), "{render}");
    assert!(render.contains("faults=kill@0.00005s:e0->a0"), "{render}");
    assert!(retention.contains("retention"), "{retention}");
    assert!(
        retention.contains("degrade=0.25@0.00005s:uplink:*"),
        "{retention}"
    );
    // one retention row per (policy, scenario)
    assert_eq!(retention.lines().count(), 2 + 2 * 2, "{retention}");
}

/// Kill, degrade, and restore faults striking mid-replay reproduce
/// byte for byte at every flow topology — including the schedule that
/// partitions the fabric and fails the replay.
#[test]
fn fault_schedules_replay_identically_on_every_flow_topology() {
    use overlap_sim::machine::render_exact;
    let cases = [
        (
            "sweep3d_4r.trf",
            vec!["crossbar", "fat-tree:4", "torus:2x2"],
        ),
        (
            "nas_cg_8r.trf",
            vec!["crossbar", "fat-tree:4", "torus:2x2x2"],
        ),
    ];
    for (name, topologies) in cases {
        let trace = fixture(name);
        for spec in topologies {
            let base = Platform::default().with_contention(spec.parse().unwrap());
            // Schedules spanning all three actions. On the crossbar the
            // mid-run kill partitions the fabric: the *error* must then
            // reproduce too. Fat-tree/torus reroute around it.
            let link = match spec {
                "crossbar" => "n0->sw",
                "fat-tree:4" => "e0->a0",
                _ => "n0->n1(+x)",
            };
            let schedules = [
                format!("degrade=0.5@30us:{link};restore@90us:{link}"),
                format!("kill@50us:{link};restore@120us:{link}"),
                format!("degrade=0.25@20us:{link};kill@60us:{link};restore@100us:{link}"),
            ];
            for schedule in &schedules {
                let p = base.clone().with_faults(faults(schedule));
                assert_eq!(
                    render_exact(&simulate(&trace, &p)),
                    render_exact(&simulate(&trace, &p)),
                    "{name} on {spec} with {schedule}: repeat run diverged"
                );
            }
        }
    }
}
