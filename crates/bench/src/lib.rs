//! Shared harness for the table/figure reproduction binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the
//! paper's evaluation (§V). This library provides the common steps:
//! trace the application pool under instrumentation, build the three
//! trace variants, and pair each application with its Table I platform.
//!
//! All binaries accept `--jobs N`: preparation (tracing + variant
//! construction, the expensive part) fans out over the sweep engine's
//! worker pool. Results are identical for every `N` — apps are
//! constructed by name inside each worker and results are slotted by
//! pool index.

use ovlp_core::chunk::ChunkPolicy;
use ovlp_core::pipeline::{build_variants, VariantBundle};
use ovlp_core::presets::marenostrum_for;
use ovlp_core::sweep::scheduler;
use ovlp_instr::{trace_app, TraceOptions, TraceRun};
use ovlp_machine::Platform;

pub mod gauge;
pub mod timing;

/// `git describe --always --dirty` of the working directory, so a
/// bench run on uncommitted changes says so; `unknown` outside a git
/// checkout.
pub fn commit() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// One prepared application: traced, transformed, and configured.
pub struct PreparedApp {
    pub name: String,
    pub ranks: usize,
    pub run: TraceRun,
    pub bundle: VariantBundle,
    pub platform: Platform,
}

/// Read `--jobs N` from the process arguments (default 1).
pub fn parse_jobs() -> usize {
    let args: Vec<String> = std::env::args().collect();
    match args.iter().position(|a| a == "--jobs") {
        None => 1,
        Some(i) => args
            .get(i + 1)
            .and_then(|v| v.parse().ok())
            .filter(|&n| n >= 1)
            .unwrap_or_else(|| {
                eprintln!("warning: bad --jobs value, using 1");
                1
            }),
    }
}

/// Trace and transform the whole pool with the paper's chunk policy
/// (4 chunks) and Table I bus counts, sequentially.
///
/// Set `OVLP_QUICK=1` to use the miniature app configurations (CI and
/// smoke runs).
pub fn prepare_pool() -> Vec<PreparedApp> {
    prepare_pool_jobs(1)
}

/// [`prepare_pool`] with the preparation of different apps fanned over
/// `jobs` worker threads.
pub fn prepare_pool_jobs(jobs: usize) -> Vec<PreparedApp> {
    // The table/figure binaries reproduce the paper's six *traced*
    // apps; generated workload families have their own bench
    // (`scale_bench`).
    let names: Vec<&'static str> = ovlp_apps::paper_pool()
        .iter()
        .filter(|e| !e.is_generated())
        .map(|e| e.name)
        .collect();
    prepare_named(&names, jobs)
}

/// Prepare the named subset of the pool, fanning app preparation over
/// `jobs` worker threads. Output order follows `names`.
pub fn prepare_named(names: &[&str], jobs: usize) -> Vec<PreparedApp> {
    let quick = std::env::var("OVLP_QUICK").is_ok_and(|v| v != "0");
    scheduler::run_indexed(names.to_vec(), jobs, 2 * jobs, |_i, name| {
        prepare_app(name, quick)
    })
    .into_iter()
    .map(|slot| slot.unwrap_or_else(|e| panic!("preparation failed: {e}")))
    .collect()
}

/// Prepare one application. The `dyn MpiApp` is built *inside* this
/// call so workers never need to move trait objects across threads.
fn prepare_app(name: &str, quick: bool) -> PreparedApp {
    let policy = ChunkPolicy::paper_default();
    let (run, ranks) = if quick {
        let app = quick_variant(name);
        let run = trace_app(app.as_ref(), 4).expect("tracing failed");
        (run, 4)
    } else {
        let entry =
            ovlp_apps::registry::by_name(name).unwrap_or_else(|| panic!("unknown app {name}"));
        let ranks = entry.ranks;
        // fig5 plots the access scatter, so the figures trace with it
        let run = entry
            .trace_run_with(ranks, &TraceOptions::default())
            .unwrap_or_else(|e| panic!("tracing {name} failed: {e}"));
        (run, ranks)
    };
    let bundle = build_variants(&run, &policy);
    PreparedApp {
        name: name.to_string(),
        ranks,
        run,
        bundle,
        platform: marenostrum_for(name),
    }
}

fn quick_variant(name: &str) -> Box<dyn ovlp_instr::MpiApp> {
    match name {
        "sweep3d" => Box::new(ovlp_apps::sweep3d::Sweep3dApp::quick()),
        "pop" => Box::new(ovlp_apps::pop::PopApp::quick()),
        "alya" => Box::new(ovlp_apps::alya::AlyaApp::quick()),
        "specfem3d" => Box::new(ovlp_apps::specfem3d::Specfem3dApp::quick()),
        "nas-bt" => Box::new(ovlp_apps::nas_bt::NasBtApp::quick()),
        "nas-cg" => Box::new(ovlp_apps::nas_cg::NasCgApp::quick()),
        other => panic!("unknown app {other}"),
    }
}

/// Prepare a single application by name (no longer traces the whole
/// pool to produce one entry).
pub fn prepare_one(name: &str) -> PreparedApp {
    prepare_named(&[name], 1)
        .into_iter()
        .next()
        .expect("one name in, one app out")
}
