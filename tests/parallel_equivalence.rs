//! The parallel-engine contract, pinned differentially: for any
//! worker count, `ReplayEngine::Parallel` must produce **byte-identical**
//! output to the sequential oracle — every timestamp, timeline,
//! transfer, counter, windowed metric, and Paraver export, on every
//! topology, with and without fault schedules, on golden fixtures and
//! on randomized generated traces alike. Errors too: a deadlocked or
//! partitioned replay must report the identical diagnosis.
//!
//! Test names carry their worker count (`_w1`/`_w2`/`_w4`/`_w8`) so CI
//! can slice the suite (`cargo test --test parallel_equivalence w8`).
//! Debug builds double the protection: the engine itself re-runs the
//! sequential oracle inside every parallel replay and asserts equality.

use overlap_sim::machine::{
    render_exact, simulate, simulate_probed, simulate_probed_with, simulate_with, Platform,
    ReplayEngine, SimResult, Time, WindowedRecorder,
};
use overlap_sim::trace::{synth, text, Trace};
use overlap_sim::viz::paraver;
use std::path::PathBuf;

fn fixture(name: &str) -> Trace {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    let content = std::fs::read_to_string(&path).unwrap();
    text::parse(&content).unwrap_or_else(|e| panic!("{name}: {e}"))
}

/// Every observable of a replay, rendered exactly (float Debug output
/// is round-trip precise, so equal strings mean equal bits).
fn full_render(sim: &SimResult) -> String {
    format!(
        "{:?} {:?} {:?} {:?} {:?} {:?} {:?} {} {} {} {:?}",
        sim.runtime,
        sim.totals,
        sim.timelines,
        sim.comms,
        sim.markers,
        sim.network,
        sim.links,
        sim.events_processed,
        sim.queue_peak,
        sim.stale_events,
        sim.fault_log,
    )
}

/// All four contention models, shaped for `nranks`: the bus model plus
/// the three flow topologies.
fn platforms(nranks: usize) -> Vec<(String, Platform)> {
    let torus = match nranks {
        4 => "torus:2x2",
        8 => "torus:2x2x2",
        n => panic!("no torus shape for {n} ranks"),
    };
    let mut out = vec![("bus".to_string(), Platform::default())];
    for spec in ["crossbar", "fat-tree:4", torus] {
        out.push((
            spec.to_string(),
            Platform::default().with_contention(spec.parse().unwrap()),
        ));
    }
    out
}

fn parallel(workers: usize) -> ReplayEngine {
    ReplayEngine::Parallel { workers }
}

/// Golden fixtures on all four topologies: unprobed results, windowed
/// metrics JSON, and the Paraver export triple must all match byte for
/// byte at the given worker count.
fn check_golden_fixtures(workers: usize) {
    for name in ["sweep3d_4r.trf", "nas_cg_8r.trf"] {
        let trace = fixture(name);
        for (label, platform) in platforms(trace.nranks()) {
            let seq = simulate(&trace, &platform).unwrap();
            let par = simulate_with(&trace, &platform, parallel(workers)).unwrap();
            assert_eq!(
                full_render(&seq),
                full_render(&par),
                "{name} on {label}: parallel:{workers} diverged from sequential"
            );

            let window = Time::micros(20.0);
            let mut seq_rec = WindowedRecorder::new(window);
            let seq_probed = simulate_probed(&trace, &platform, &mut seq_rec).unwrap();
            let mut par_rec = WindowedRecorder::new(window);
            let par_probed =
                simulate_probed_with(&trace, &platform, &mut par_rec, parallel(workers)).unwrap();
            assert_eq!(
                full_render(&seq_probed),
                full_render(&par_probed),
                "{name} on {label}: probed parallel:{workers} diverged"
            );
            assert_eq!(
                seq_rec.into_metrics().unwrap().to_json(),
                par_rec.into_metrics().unwrap().to_json(),
                "{name} on {label}: metrics JSON diverged at parallel:{workers}"
            );
            let seq_prv = paraver::export(name, &seq);
            let par_prv = paraver::export(name, &par);
            assert_eq!(
                (seq_prv.prv, seq_prv.pcf, seq_prv.row),
                (par_prv.prv, par_prv.pcf, par_prv.row),
                "{name} on {label}: Paraver export diverged at parallel:{workers}"
            );
        }
    }
}

/// 64 generated traces, rotated across the four contention models;
/// every even seed on a flow topology is additionally replayed under a
/// degrade/restore fault schedule derived from its own clean run (so
/// the faults always name real links and strike mid-run).
fn check_generated(workers: usize) {
    for seed in 0..64u64 {
        let trace = synth::generate(seed);
        let plats = platforms(trace.nranks());
        let (label, platform) = &plats[(seed as usize) % plats.len()];
        let clean = simulate(&trace, platform);
        assert_eq!(
            render_exact(&clean),
            render_exact(&simulate_with(&trace, platform, parallel(workers))),
            "seed {seed} on {label}: parallel:{workers} diverged"
        );
        let faultable = match &clean {
            Ok(sim) => !sim.links.is_empty() && sim.runtime() > 0.0 && seed % 2 == 0,
            Err(_) => false,
        };
        if faultable {
            let sim = clean.as_ref().unwrap();
            let link = &sim.links[(seed as usize / 4) % sim.links.len()].label;
            let t0 = (sim.runtime() * 0.25 * 1e6).max(1.0) as u64;
            let t1 = (sim.runtime() * 0.6 * 1e6).max(2.0) as u64;
            let spec = format!("degrade=0.5@{t0}us:{link};restore@{t1}us:{link}");
            let faulted = platform.clone().with_faults(spec.parse().unwrap());
            assert_eq!(
                render_exact(&simulate(&trace, &faulted)),
                render_exact(&simulate_with(&trace, &faulted, parallel(workers))),
                "seed {seed} on {label} with {spec}: parallel:{workers} diverged"
            );
        }
    }
}

#[test]
fn golden_fixtures_match_w1() {
    check_golden_fixtures(1);
}

#[test]
fn golden_fixtures_match_w2() {
    check_golden_fixtures(2);
}

#[test]
fn golden_fixtures_match_w4() {
    check_golden_fixtures(4);
}

#[test]
fn golden_fixtures_match_w8() {
    check_golden_fixtures(8);
}

#[test]
fn generated_traces_match_w1() {
    check_generated(1);
}

#[test]
fn generated_traces_match_w2() {
    check_generated(2);
}

#[test]
fn generated_traces_match_w4() {
    check_generated(4);
}

#[test]
fn generated_traces_match_w8() {
    check_generated(8);
}

/// Error paths are part of the contract: a deadlock (receive with no
/// sender) and an unknown request must produce the identical error from
/// both engines, including the human-readable stuck-rank diagnosis.
#[test]
fn error_paths_match_w2() {
    use overlap_sim::trace::{Bytes, Rank, Record, ReqId, Tag, TransferId};
    let platform = Platform::default();

    let mut deadlock = Trace::new(2);
    deadlock.rank_mut(Rank(0)).push(Record::Recv {
        src: Rank(1),
        tag: Tag::user(3),
        bytes: Bytes(4096),
        transfer: TransferId::new(Rank(0), 0),
    });
    let seq = simulate(&deadlock, &platform);
    assert!(seq.is_err(), "fixture must deadlock");
    assert_eq!(
        render_exact(&seq),
        render_exact(&simulate_with(&deadlock, &platform, parallel(2))),
    );

    let mut unknown = Trace::new(1);
    unknown
        .rank_mut(Rank(0))
        .push(Record::Wait { req: ReqId(77) });
    let seq = simulate(&unknown, &platform);
    assert!(seq.is_err(), "fixture must fail on the unknown request");
    assert_eq!(
        render_exact(&seq),
        render_exact(&simulate_with(&unknown, &platform, parallel(2))),
    );
}

/// Scheduling invariance: the same replay, run twice at the same
/// worker count and across different worker counts, renders to the
/// same bytes. (OS scheduling noise between the two runs is exactly
/// what this must be immune to.)
#[test]
fn repeat_runs_and_worker_counts_agree_w8() {
    for seed in [3u64, 17, 40] {
        let trace = synth::generate(seed);
        let plats = platforms(trace.nranks());
        let (label, platform) = &plats[(seed as usize) % plats.len()];
        let first = render_exact(&simulate_with(&trace, platform, parallel(8)));
        let again = render_exact(&simulate_with(&trace, platform, parallel(8)));
        assert_eq!(first, again, "seed {seed} on {label}: repeat run diverged");
        for workers in [1, 2, 4] {
            assert_eq!(
                first,
                render_exact(&simulate_with(&trace, platform, parallel(workers))),
                "seed {seed} on {label}: worker count changed the bytes"
            );
        }
    }
}
