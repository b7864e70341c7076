//! The offline toolchain: artifacts written to disk (trace + access
//! log) must drive the transformation to the identical result as the
//! in-memory pipeline — the property that makes the framework usable
//! the way the Dimemas toolchain is (files between stages).

use overlap_sim::core::chunk::ChunkPolicy;
use overlap_sim::core::{check_intervals, transform};
use overlap_sim::instr::trace_app;
use overlap_sim::trace::{access_text, text};

#[test]
fn offline_transform_matches_in_memory() {
    let app = overlap_sim::apps::nas_cg::NasCgApp::quick();
    let run = trace_app(&app, 4).unwrap();

    // in-memory
    let policy = ChunkPolicy::paper_default();
    let direct = transform(&run.trace, &run.access, &policy);

    // through serialized artifacts
    let trace_file = text::emit(&run.trace);
    let mut acc_file = Vec::new();
    access_text::emit(&run.access, &mut acc_file).unwrap();
    let trace_back = text::parse(&trace_file).unwrap();
    let acc_back = access_text::parse(&acc_file[..]).unwrap();
    let offline = transform(&trace_back, &acc_back, &policy);

    assert_eq!(direct, offline);
}

#[test]
fn access_log_roundtrips_for_every_pool_app() {
    use overlap_sim::instr::MpiApp;
    let apps: Vec<Box<dyn MpiApp>> = vec![
        Box::new(overlap_sim::apps::sweep3d::Sweep3dApp::quick()),
        Box::new(overlap_sim::apps::pop::PopApp::quick()),
        Box::new(overlap_sim::apps::alya::AlyaApp::quick()),
        Box::new(overlap_sim::apps::specfem3d::Specfem3dApp::quick()),
        Box::new(overlap_sim::apps::nas_bt::NasBtApp::quick()),
        Box::new(overlap_sim::apps::nas_cg::NasCgApp::quick()),
    ];
    for app in apps {
        let run = trace_app(app.as_ref(), 4).unwrap();
        let mut acc_file = Vec::new();
        access_text::emit(&run.access, &mut acc_file).unwrap();
        let back =
            access_text::parse(&acc_file[..]).unwrap_or_else(|e| panic!("{}: {e}", app.name()));
        assert_eq!(run.access, back, "{}", app.name());
        // a traced run always fits its own trace
        check_intervals(&run.trace, &back).unwrap_or_else(|e| panic!("{}: {e}", app.name()));
    }
}
