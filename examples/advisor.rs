//! The implementer's workflow the paper closes §I with: decide whether
//! restructuring for overlap is worth the effort *before* writing any
//! code — and pick the chunk count while at it.
//!
//! ```sh
//! cargo run --release --example advisor [app] [ranks]
//! ```

use overlap_sim::core::advisor::advise;
use overlap_sim::core::experiments::{chunk_search, default_candidates, run_variants};
use overlap_sim::core::pipeline::build_variants;
use overlap_sim::machine::NoopSink;
use overlap_sim::prelude::*;

fn main() {
    let app_name = std::env::args().nth(1).unwrap_or_else(|| "sweep3d".into());
    let ranks: usize = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(8);
    let entry = overlap_sim::apps::registry::by_name(&app_name)
        .unwrap_or_else(|| panic!("unknown app {app_name}"));
    let platform = overlap_sim::core::presets::marenostrum_for(entry.name);
    let run = entry.trace_run(ranks).expect("tracing failed");

    // 1. is restructuring worth it? (per-transfer diagnosis)
    println!("== {} on {} ranks ==\n", entry.name, ranks);
    let advice = advise(
        &run.trace,
        &run.access,
        &platform,
        &ChunkPolicy::paper_default(),
    );
    print!("{}", advice.render());

    // 2. whatever the patterns allow, which chunk count extracts it?
    let bundle = build_variants(&run, &ChunkPolicy::paper_default());
    let (known, _) =
        run_variants(&bundle, &platform, || NoopSink, |_| Ok(())).expect("replay failed");
    let search =
        chunk_search(&run, &platform, &default_candidates(), &known).expect("search failed");
    println!("\nchunk-count sweep (simulated overlapped runtime):");
    for p in &search.points {
        println!(
            "  {:>3} chunks: {:.3} ms (x{:.3}){}",
            p.chunks,
            p.runtime * 1e3,
            p.speedup_vs_original,
            if p.chunks == search.best.chunks {
                "  <= best"
            } else {
                ""
            }
        );
    }

    // 3. the 2-D (KBA) wavefront variant shows the same analysis on a
    //    richer communication skeleton
    if entry.name == "sweep3d" && ranks == 8 {
        println!("\n== sweep3d-kba (4x2 processor grid) ==\n");
        let kba = overlap_sim::apps::sweep3d_kba::Sweep3dKbaApp {
            px: 4,
            py: 2,
            face: 1_000,
            mk: 3,
            iters: 1,
            ..overlap_sim::apps::sweep3d_kba::Sweep3dKbaApp::default()
        };
        let run = trace_app(&kba, 8).expect("tracing failed");
        let bundle = build_variants(&run, &ChunkPolicy::paper_default());
        let orig = simulate(&bundle.original, &platform).unwrap();
        let ideal = simulate(&bundle.ideal, &platform).unwrap();
        println!(
            "octant-sweep pipeline: original {:.2} ms, ideal overlap {:.2} ms (x{:.2})",
            orig.runtime() * 1e3,
            ideal.runtime() * 1e3,
            orig.runtime() / ideal.runtime()
        );
        let advice = advise(
            &run.trace,
            &run.access,
            &platform,
            &ChunkPolicy::paper_default(),
        );
        print!("{}", advice.render());
    }
}
