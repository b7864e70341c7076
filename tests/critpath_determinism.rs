//! The causal critical-path layer must be an exact observer: attaching
//! a `CritPathRecorder` never perturbs the replay, the recorded path is
//! byte-identical across repeat runs and sweep worker counts, and
//! every path is a *certified* partition — the blame totals sum exactly
//! (not approximately) to the simulated runtime.

use overlap_sim::core::chunk::ChunkPolicy;
use overlap_sim::core::sweep::{sweep, SweepApp, SweepCache, SweepConfig, SweepGrid};
use overlap_sim::instr::trace_app;
use overlap_sim::machine::{
    simulate, simulate_probed, CritPath, CritPathRecorder, FaultSchedule, NoopSink, Platform,
    SimResult, Topology,
};
use overlap_sim::trace::{synth, text, Trace};
use std::path::PathBuf;

fn load_fixture(name: &str) -> Trace {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    text::parse(&std::fs::read_to_string(path).unwrap()).unwrap()
}

fn critpath(trace: &Trace, platform: &Platform) -> (SimResult, CritPath) {
    let mut rec = CritPathRecorder::new();
    let sim = simulate_probed(trace, platform, &mut rec).unwrap();
    (sim, rec.into_critpath())
}

/// Every f64 the simulation reports, as bits.
fn result_bits(sim: &SimResult) -> Vec<u64> {
    let mut bits = vec![sim.runtime().to_bits()];
    for c in &sim.comms {
        for t in [c.t_send, c.t_start, c.t_arrive, c.t_consume] {
            bits.push(t.as_secs().to_bits());
        }
    }
    bits
}

/// Golden fixture x platform cases: bus, torus, fat-tree, and a
/// degraded torus fabric (mid-replay link kill + restore) so the
/// `fault-reroute` blame class is exercised too.
fn golden_cases() -> Vec<(&'static str, Platform)> {
    let killed: FaultSchedule = "kill@50us:n0->n1(+x);restore@100us:n0->n1(+x)"
        .parse()
        .unwrap();
    vec![
        ("sweep3d_4r.trf", Platform::marenostrum(4)),
        (
            "sweep3d_4r.trf",
            Platform::marenostrum(4).with_topology(Topology::Torus { dims: vec![2, 2] }),
        ),
        (
            "sweep3d_4r.trf",
            Platform::marenostrum(4)
                .with_topology(Topology::Torus { dims: vec![2, 2] })
                .with_faults(killed),
        ),
        ("nas_cg_8r.trf", Platform::marenostrum(8)),
        (
            "nas_cg_8r.trf",
            Platform::marenostrum(8).with_topology(Topology::FatTree {
                radix: 4,
                oversubscription: 1,
            }),
        ),
    ]
}

#[test]
fn critpath_recorder_does_not_perturb_the_replay() {
    for (name, platform) in &golden_cases() {
        let trace = load_fixture(name);
        let mut noop = NoopSink;
        let plain = simulate_probed(&trace, platform, &mut noop).unwrap();
        let (recorded, _) = critpath(&trace, platform);
        assert_eq!(
            result_bits(&plain),
            result_bits(&recorded),
            "{name}: recording the critical path changed the simulation"
        );
        assert_eq!(
            result_bits(&plain),
            result_bits(&simulate(&trace, platform).unwrap()),
            "{name}: NoopSink diverged from simulate()"
        );
    }
}

#[test]
fn critpath_is_byte_identical_across_repeat_runs() {
    for (name, platform) in &golden_cases() {
        let trace = load_fixture(name);
        let (_, first) = critpath(&trace, platform);
        let (_, again) = critpath(&trace, platform);
        assert_eq!(
            first.to_json(),
            again.to_json(),
            "{name}: critpath diverged run to run"
        );
    }
}

#[test]
fn blame_totals_sum_exactly_to_runtime_on_golden_fixtures() {
    for (name, platform) in &golden_cases() {
        let trace = load_fixture(name);
        let (sim, cp) = critpath(&trace, platform);
        assert!(
            cp.exact,
            "{name}: blame partition not certified exact (runtime {})",
            sim.runtime()
        );
        assert!(!cp.segments.is_empty(), "{name}: empty path");
        assert_eq!(
            cp.runtime.as_secs().to_bits(),
            sim.runtime().to_bits(),
            "{name}: path runtime is not the simulated runtime"
        );
        // the certified partition also chains bitwise through time
        assert_eq!(cp.segments.first().unwrap().start.as_secs(), 0.0);
        for pair in cp.segments.windows(2) {
            assert_eq!(
                pair[0].end.as_secs().to_bits(),
                pair[1].start.as_secs().to_bits(),
                "{name}: gap in the segment chain"
            );
        }
        assert_eq!(
            cp.segments.last().unwrap().end.as_secs().to_bits(),
            sim.runtime().to_bits(),
            "{name}: path does not end at the runtime"
        );
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
fn sweep_critpaths_are_identical_for_any_worker_count() {
    let grid = small_grid();
    let run_with = |jobs: usize| {
        let mut config = SweepConfig::with_jobs(jobs);
        config.critpath = true;
        sweep(&grid, &config, &SweepCache::new())
    };
    let base = run_with(1);
    for outcome in &base.outcomes {
        let cp = outcome.as_ref().unwrap().critpaths.as_ref().unwrap();
        assert!(cp.original.exact && cp.overlapped.exact && cp.ideal.exact);
    }
    // critpaths are excluded from the replay fingerprint by construction
    let unprobed = sweep(&grid, &SweepConfig::with_jobs(2), &SweepCache::new());
    assert_eq!(base.result_hashes(), unprobed.result_hashes());
    for jobs in [2, 4] {
        let r = run_with(jobs);
        assert_eq!(r.result_hashes(), base.result_hashes(), "jobs={jobs}");
        for (a, b) in base.outcomes.iter().zip(&r.outcomes) {
            let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
            assert_eq!(a.critpaths, b.critpaths, "jobs={jobs}: critpaths diverged");
        }
    }
}

/// Deterministic seeded sweep over generated applications: every seed,
/// on every topology its rank count supports, yields a certified-exact
/// path that is byte-identical run to run. (The proptest variant below
/// explores the seed space further when `--features proptest-tests` is
/// on.)
#[test]
fn generated_apps_have_exact_repeatable_paths() {
    for seed in [1u64, 7, 42, 1234, 0xFEED_5EED] {
        let trace = synth::generate(seed);
        let specs: &[&str] = if trace.nranks() == 4 {
            &["bus", "crossbar", "fat-tree:4", "torus:2x2"]
        } else {
            &["bus", "crossbar", "fat-tree:4", "torus:2x2x2"]
        };
        for spec in specs {
            let platform = Platform::default().with_contention(spec.parse().unwrap());
            let (_, first) = critpath(&trace, &platform);
            assert!(first.exact, "seed {seed} on {spec}: partition not exact");
            let (_, again) = critpath(&trace, &platform);
            assert_eq!(
                first.to_json(),
                again.to_json(),
                "seed {seed} on {spec}: critpath diverged run to run"
            );
        }
    }
}

/// The CLI's `ovlp.metrics.v2` document (windowed metrics plus the
/// critical path, whose segments name their messages by initiation
/// order) for a fixture on a flow fabric, pinned as text. The checks
/// above compare runs with each other; this one compares against an
/// absolute reference, so a change that renumbers every message the
/// same way in every run still fails. Re-bless deliberately with
/// `OVLP_BLESS=1 cargo test --test critpath_determinism`.
#[test]
fn cli_critpath_documents_match_committed_goldens() {
    let fixtures = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let dir = std::env::temp_dir().join(format!("ovlp-critpath-golden-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for (trf, topology, golden) in [
        ("nas_cg_8r.trf", "fat-tree:4", "nas_cg_8r_fattree.json"),
        ("sweep3d_4r.trf", "torus:2x2", "sweep3d_4r_torus.json"),
    ] {
        let out = dir.join(golden);
        let run = std::process::Command::new(env!("CARGO_BIN_EXE_ovlp"))
            .args(["simulate", fixtures.join(trf).to_str().unwrap(), "250", "0"])
            .args(["--topology", topology, "--critpath", "--metrics"])
            .arg(&out)
            .output()
            .unwrap();
        assert!(run.status.success(), "{trf}: {run:?}");
        let body = std::fs::read_to_string(&out).unwrap();
        let path = fixtures.join("critpath").join(golden);
        if std::env::var_os("OVLP_BLESS").is_some() {
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(&path, &body).unwrap();
            continue;
        }
        let want = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("{}: {e}; bless with OVLP_BLESS=1", path.display()));
        assert!(
            want == body,
            "{trf} on {topology}: the critpath/metrics document drifted from {}",
            path.display()
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[cfg(feature = "proptest-tests")]
mod props {
    use super::*;
    use proptest::prelude::*;

    fn small_app() -> impl Strategy<Value = Trace> {
        (0u64..u64::MAX).prop_map(synth::generate)
    }

    fn contention_specs(nranks: usize) -> [&'static str; 4] {
        match nranks {
            4 => ["bus", "crossbar", "fat-tree:4", "torus:2x2"],
            _ => ["bus", "crossbar", "fat-tree:4", "torus:2x2x2"],
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

        /// The blame partition is certified exact for arbitrary
        /// generated apps on every topology family.
        #[test]
        fn blame_sum_is_exact_for_generated_apps(trace in small_app(), spec_idx in 0usize..4) {
            let spec = contention_specs(trace.nranks())[spec_idx];
            let platform = Platform::default().with_contention(spec.parse().unwrap());
            let (sim, cp) = critpath(&trace, &platform);
            prop_assert!(cp.exact, "partition not exact on {}", spec);
            prop_assert_eq!(cp.runtime.as_secs().to_bits(), sim.runtime().to_bits());
        }
    }
}
