//! Figure 6(a): speedup of the overlapped executions (real and ideal
//! patterns) over the original, for the whole application pool on the
//! Marenostrum platform (250 MB/s, Table I buses, 4 chunks).
//!
//! Paper shape: real patterns give a speedup only for NAS-CG (~8%);
//! ideal patterns give a decent speedup for several applications, the
//! largest for Sweep3D (wavefront pipelining).

use ovlp_bench::{parse_jobs, prepare_pool_jobs};
use ovlp_core::experiments::run_variants;
use ovlp_core::report::fig6a_row;
use ovlp_machine::NoopSink;

fn main() {
    println!("Figure 6(a) — speedup of overlapped execution (4 chunks, Marenostrum)");
    println!();
    for p in prepare_pool_jobs(parse_jobs()) {
        let (r, _) = run_variants(&p.bundle, &p.platform, || NoopSink, |_| Ok(()))
            .expect("simulation failed");
        println!(
            "{}  ({} ranks, {} buses)",
            fig6a_row(&r),
            p.ranks,
            p.platform.buses
        );
    }
}
