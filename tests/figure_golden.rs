//! Absolute anchor for the paper's Figure 6: the Fig. 6(a) speedups (3
//! decimals) and Fig. 6(b) bandwidth relaxations (2 decimals), as the
//! `fig6a`/`fig6b` binaries print them at their settings (16 ranks, 4
//! chunks, `marenostrum_for`): the numbers EXPERIMENTS.md reports.
//! Unlike the equivalence suites, this fails when every replay path
//! moves together. Re-bless after a deliberate model change with
//! `OVLP_BLESS=1 cargo test --test figure_golden`.

use overlap_sim::apps::paper_pool;
use overlap_sim::core::chunk::ChunkPolicy;
use overlap_sim::core::experiments::{bandwidth_relaxation, run_variants};
use overlap_sim::core::pipeline::build_variants;
use overlap_sim::core::presets::marenostrum_for;
use overlap_sim::core::report::{fig6a_row, fig6b_row};
use overlap_sim::machine::NoopSink;
use std::path::PathBuf;

/// The `fig6a` and `fig6b` rows of every traced app, as the binaries
/// print them.
fn figure6() -> String {
    let (mut a, mut b) = (Vec::new(), Vec::new());
    for entry in paper_pool().iter().filter(|e| !e.is_generated()) {
        let run = entry.trace_run(entry.ranks).unwrap();
        let bundle = build_variants(&run, &ChunkPolicy::paper_default());
        let platform = marenostrum_for(entry.name);
        let (r, _) = run_variants(&bundle, &platform, || NoopSink, |_| Ok(())).unwrap();
        a.push(fig6a_row(&r));
        let relaxation = bandwidth_relaxation(&bundle, &platform).unwrap();
        b.push(fig6b_row(entry.name, platform.bandwidth_mbs, &relaxation));
    }
    format!("{}\n\n{}\n", a.join("\n"), b.join("\n"))
}

#[test]
fn figure6_matches_the_reported_numbers() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/figure6.txt");
    let body = figure6();
    if std::env::var_os("OVLP_BLESS").is_some() {
        std::fs::write(&path, &body).unwrap();
        eprintln!("blessed {}:\n{body}", path.display());
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{}: {e}; run OVLP_BLESS=1 to create", path.display()));
    assert_eq!(
        body, golden,
        "Figure 6 drifted from the committed golden; if intentional, \
         re-bless with OVLP_BLESS=1"
    );
}
