//! Regenerate every table and figure in sequence (the full §V
//! evaluation). Equivalent to running `table1`, `table2`, `fig4`,
//! `fig5`, `fig6a`, `fig6b`, `fig6c` one after another, reusing one
//! traced pool.

use ovlp_bench::prepare_pool;
use ovlp_core::experiments::{bandwidth_relaxation, equivalent_bandwidth, run_variants};
use ovlp_core::patterns::{consumption_stats, production_stats};
use ovlp_core::report::{csv, fig6a_row, fig6b_row, fig6c_row, table2a, table2b};
use ovlp_machine::simulate;
use ovlp_machine::NoopSink;
use std::fs;
use std::path::Path;

fn main() {
    let pool = prepare_pool();
    let out_dir = Path::new("target/eval");
    fs::create_dir_all(out_dir).expect("create target/eval");

    println!("=== Table I — buses per application ===\n");
    for p in &pool {
        println!("  {:<12} {}", p.name, p.platform.buses);
    }

    println!("\n=== Table II — production/consumption patterns ===\n");
    let mut prod = Vec::new();
    let mut cons = Vec::new();
    for p in &pool {
        let mut db = p.run.access.clone();
        if p.name != "alya" {
            for rank in &mut db.ranks {
                rank.productions.retain(|_, l| l.elems > 1);
                rank.consumptions.retain(|_, l| l.elems > 1);
            }
        }
        prod.push((p.name.clone(), production_stats(&db)));
        cons.push((p.name.clone(), consumption_stats(&db)));
    }
    println!("{}", table2a(&prod));
    println!("{}", table2b(&cons));
    fs::write(out_dir.join("table2.csv"), csv::table2(&prod, &cons)).expect("write csv");

    println!("=== Figure 6(a) — speedup ===\n");
    let mut fig6a_rows = Vec::new();
    for p in &pool {
        let (r, _) = run_variants(&p.bundle, &p.platform, || NoopSink, |_| Ok(()))
            .expect("simulation failed");
        println!("{}", fig6a_row(&r));
        fig6a_rows.push(r);
    }
    fs::write(out_dir.join("fig6a.csv"), csv::fig6a(&fig6a_rows)).expect("write csv");

    println!("\n=== Figure 6(b) — bandwidth relaxation ===\n");
    let mut fig6b_rows = Vec::new();
    for p in &pool {
        let r = bandwidth_relaxation(&p.bundle, &p.platform).expect("simulation failed");
        println!("{}", fig6b_row(&p.name, p.platform.bandwidth_mbs, &r));
        fig6b_rows.push((p.name.clone(), r));
    }
    fs::write(out_dir.join("fig6b.csv"), csv::fig6b(&fig6b_rows)).expect("write csv");

    println!("\n=== Figure 6(c) — equivalent bandwidth ===\n");
    let mut fig6c_rows = Vec::new();
    for p in &pool {
        let real = simulate(&p.bundle.overlapped, &p.platform)
            .unwrap()
            .runtime();
        let ideal = simulate(&p.bundle.ideal, &p.platform).unwrap().runtime();
        let er = equivalent_bandwidth(&p.bundle.original, &p.platform, real).unwrap();
        let ei = equivalent_bandwidth(&p.bundle.original, &p.platform, ideal).unwrap();
        println!(
            "{}",
            fig6c_row(&p.name, p.platform.bandwidth_mbs, "real", &er)
        );
        println!(
            "{}",
            fig6c_row(&p.name, p.platform.bandwidth_mbs, "ideal", &ei)
        );
        fig6c_rows.push((p.name.clone(), "real".to_string(), er));
        fig6c_rows.push((p.name.clone(), "ideal".to_string(), ei));
    }
    fs::write(out_dir.join("fig6c.csv"), csv::fig6c(&fig6c_rows)).expect("write csv");

    println!("\nwrote CSV series to {}", out_dir.display());
    println!("(run the fig4/fig5 binaries for the timeline and scatter panels)");
}
