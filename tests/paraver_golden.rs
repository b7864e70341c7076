//! Golden-file tests for the Paraver export: the `.prv`/`.pcf`/`.row`
//! triple produced from the committed trace fixtures is pinned
//! byte-for-byte, both without metrics (the legacy export) and with the
//! windowed counter records appended. Any formatting or semantic drift
//! in the exporter fails loudly here instead of silently changing what
//! wxParaver displays.
//!
//! Re-bless deliberately with
//! `OVLP_BLESS=1 cargo test --test paraver_golden`.

use overlap_sim::machine::{
    simulate, simulate_probed, Platform, SimResult, Time, Topology, WindowedRecorder,
};
use overlap_sim::trace::{text, Trace};
use overlap_sim::viz::paraver;
use std::path::PathBuf;

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn load(trf: &str) -> Trace {
    let body = std::fs::read_to_string(fixture_path(trf)).unwrap();
    text::parse(&body).unwrap()
}

/// Compare `body` against `tests/fixtures/paraver/<name>` (or rewrite
/// it under `OVLP_BLESS=1`).
fn check_golden(name: &str, body: &str) {
    let path = fixture_path("paraver").join(name);
    if std::env::var_os("OVLP_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, body).unwrap();
        eprintln!("blessed {}", path.display());
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{}: {e}; run OVLP_BLESS=1 to create", path.display()));
    assert_eq!(
        golden, body,
        "{name}: Paraver export drifted from the committed golden; \
         if intentional, re-bless with OVLP_BLESS=1"
    );
}

fn check_export(stem: &str, export: &paraver::ParaverExport) {
    check_golden(&format!("{stem}.prv"), &export.prv);
    check_golden(&format!("{stem}.pcf"), &export.pcf);
    check_golden(&format!("{stem}.row"), &export.row);
}

/// Replay `trf` on `platform` twice — unprobed and probed with a fixed
/// `window` — and pin both export flavours. The probed replay must not
/// perturb the simulation, so the plain export is also asserted
/// identical across the two runs.
fn check_fixture_exports(trf: &str, stem: &str, platform: &Platform, window: Time) {
    let trace = load(trf);
    let plain = simulate(&trace, platform).unwrap();
    let mut rec = WindowedRecorder::new(window);
    let probed: SimResult = simulate_probed(&trace, platform, &mut rec).unwrap();
    let metrics = rec.into_metrics().unwrap();

    let bare = paraver::export(stem, &plain);
    assert_eq!(
        bare,
        paraver::export(stem, &probed),
        "{stem}: probing changed the simulated execution"
    );
    check_export(stem, &bare);
    check_export(
        &format!("{stem}_counters"),
        &paraver::export_with_metrics(stem, &probed, Some(&metrics)),
    );
}

#[test]
fn sweep3d_4r_torus_export_is_stable() {
    let platform = Platform::marenostrum(4).with_topology(Topology::Torus { dims: vec![2, 2] });
    check_fixture_exports(
        "sweep3d_4r.trf",
        "sweep3d_4r_torus",
        &platform,
        Time::micros(20.0),
    );
}

#[test]
fn nas_cg_8r_fat_tree_export_is_stable() {
    let platform = Platform::marenostrum(8).with_topology(Topology::FatTree {
        radix: 4,
        oversubscription: 1,
    });
    check_fixture_exports(
        "nas_cg_8r.trf",
        "nas_cg_8r_fattree",
        &platform,
        Time::micros(20.0),
    );
}

#[test]
fn counter_records_are_well_formed() {
    let trace = load("nas_cg_8r.trf");
    let platform = Platform::marenostrum(8);
    let mut rec = WindowedRecorder::new(Time::micros(20.0));
    let sim = simulate_probed(&trace, &platform, &mut rec).unwrap();
    let m = rec.into_metrics().unwrap();
    let e = paraver::export_with_metrics("nas_cg_8r", &sim, Some(&m));
    let mut counters = 0usize;
    for l in e.prv.lines().filter(|l| l.starts_with("2:")) {
        counters += 1;
        let f: Vec<&str> = l.split(':').collect();
        assert!(f.len() >= 8, "{l}");
        // object fields + timestamp, then type:value pairs
        assert_eq!(f.len() % 2, 0, "{l}");
        for v in &f[1..] {
            v.parse::<u64>().unwrap_or_else(|e| panic!("{l}: {e}"));
        }
    }
    assert_eq!(counters, m.windows * (1 + m.ranks.len()));
}
