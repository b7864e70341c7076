//! The file-based toolchain, exactly like the paper's: the tracer
//! writes artifacts, the transformation and the simulator consume them
//! off-line (docs/trace-format.md specifies both formats).
//!
//! ```sh
//! cargo run --example offline_toolchain
//! ```

use overlap_sim::core::chunk::ChunkPolicy;
use overlap_sim::core::transform;
use overlap_sim::instr::trace_app;
use overlap_sim::machine::{simulate, Platform};
use overlap_sim::trace::{access_text, text};
use std::fs;

fn main() {
    let dir = std::env::temp_dir().join("ovlp-offline-demo");
    fs::create_dir_all(&dir).expect("create temp dir");

    // stage 1: instrument (the Valgrind step) — write the artifacts
    let app = overlap_sim::apps::pop::PopApp::quick();
    let run = trace_app(&app, 4).expect("tracing failed");
    let trf = dir.join("original.trf");
    let acc = dir.join("access.acc");
    fs::write(&trf, text::emit(&run.trace)).unwrap();
    access_text::emit(&run.access, fs::File::create(&acc).unwrap()).unwrap();
    println!(
        "wrote {} ({} bytes)",
        trf.display(),
        fs::metadata(&trf).unwrap().len()
    );
    println!(
        "wrote {} ({} bytes)",
        acc.display(),
        fs::metadata(&acc).unwrap().len()
    );

    // stage 2: transform (a different process, in principle) — read
    // the artifacts back and rewrite
    let trace = text::parse(&fs::read_to_string(&trf).unwrap()).expect("parse trace");
    let access = access_text::parse(std::io::BufReader::new(fs::File::open(&acc).unwrap()))
        .expect("parse access");
    let overlapped = transform(&trace, &access, &ChunkPolicy::paper_default());
    let out = dir.join("overlapped.trf");
    fs::write(&out, text::emit(&overlapped)).unwrap();
    println!("wrote {}", out.display());

    // stage 3: replay (the Dimemas step) — from the file again
    let replayed = text::parse(&fs::read_to_string(&out).unwrap()).unwrap();
    let platform = Platform::marenostrum(12);
    let orig = simulate(&trace, &platform).unwrap();
    let ovl = simulate(&replayed, &platform).unwrap();
    println!(
        "replayed: original {:.3} ms, overlapped {:.3} ms (x{:.3})",
        orig.runtime() * 1e3,
        ovl.runtime() * 1e3,
        orig.runtime() / ovl.runtime()
    );

    // the file round trip is lossless: rewriting in memory gives the
    // byte-identical trace
    let direct = transform(&run.trace, &run.access, &ChunkPolicy::paper_default());
    assert_eq!(text::emit(&direct), text::emit(&replayed));
    println!("offline == in-memory: verified");
}
