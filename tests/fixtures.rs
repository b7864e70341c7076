//! Golden trace fixtures: small, committed `.trf` files that pin the
//! tracer output and the text format bit-for-bit. If either changes,
//! these tests fail loudly instead of silently shifting every
//! downstream number.
//!
//! Re-bless deliberately with `OVLP_BLESS=1 cargo test --test fixtures`.

use overlap_sim::instr::trace_app;
use overlap_sim::instr::MpiApp;
use overlap_sim::machine::{simulate, Platform};
use overlap_sim::trace::{text, validate};
use std::path::PathBuf;

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// Trace `app` at `nranks`, emit it, and compare against the committed
/// fixture (or rewrite the fixture under `OVLP_BLESS=1`).
fn check_fixture(name: &str, app: &dyn MpiApp, nranks: usize) -> String {
    let run = trace_app(app, nranks).unwrap();
    let emitted = text::emit(&run.trace);
    let path = fixture_path(name);
    if std::env::var_os("OVLP_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &emitted).unwrap();
        eprintln!("blessed {}", path.display());
        return emitted;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{}: {e}; run OVLP_BLESS=1 to create", path.display()));
    assert_eq!(
        golden, emitted,
        "{name}: tracer output drifted from the committed fixture; \
         if intentional, re-bless with OVLP_BLESS=1"
    );
    emitted
}

/// Parse → re-emit must be byte-identical, and the parsed trace must be
/// structurally equal, valid, and replayable.
fn check_roundtrip(name: &str) {
    let golden = std::fs::read_to_string(fixture_path(name)).unwrap();
    let parsed = text::parse(&golden).unwrap_or_else(|e| panic!("{name}: parse: {e}"));
    assert!(validate(&parsed).is_empty(), "{name}: invalid");
    assert_eq!(
        golden,
        text::emit(&parsed),
        "{name}: emit(parse(fixture)) is not byte-identical"
    );
    let sim = simulate(&parsed, &Platform::marenostrum(8)).unwrap();
    assert!(sim.runtime() > 0.0, "{name}: degenerate replay");
}

#[test]
fn sweep3d_4rank_fixture_is_stable() {
    let app = overlap_sim::apps::sweep3d::Sweep3dApp::quick();
    check_fixture("sweep3d_4r.trf", &app, 4);
}

#[test]
fn nas_cg_8rank_fixture_is_stable() {
    let app = overlap_sim::apps::nas_cg::NasCgApp::quick();
    check_fixture("nas_cg_8r.trf", &app, 8);
}

#[test]
fn sweep3d_fixture_roundtrips_byte_identically() {
    check_roundtrip("sweep3d_4r.trf");
}

#[test]
fn nas_cg_fixture_roundtrips_byte_identically() {
    check_roundtrip("nas_cg_8r.trf");
}
