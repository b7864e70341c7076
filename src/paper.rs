//! The paper's evaluation (§V) as one text document: Table I with its
//! bus-sensitivity grid, Table II(a)/(b), Figs. 4, 5 and 6(a)–(c), the
//! comparison with the SC'06 analytic model (§VI) and the DESIGN.md §5
//! ablations.
//!
//! [`render`] traces and transforms the six traced apps of the pool
//! once, each on one of up to `jobs` worker threads, and derives every
//! table and figure from that one pool. The document is identical for
//! every `jobs` value: each app is built by name inside its worker and
//! its results are slotted by pool index. `ovlp paper` prints it, and
//! `tests/paper_golden.rs` pins it (`tests/fixtures/paper.txt`).

use ovlp_apps::synthetic::{Consumption, PatternApp, Production};
use ovlp_core::analytic::{estimate, AnalyticEstimate};
use ovlp_core::chunk::ChunkPolicy;
use ovlp_core::experiments::{
    bandwidth_relaxation, equivalent_bandwidth, run_variants, BandwidthRelaxation,
    EquivalentBandwidth, SpeedupResult,
};
use ovlp_core::iterations::iteration_comparison;
use ovlp_core::patterns::{
    consumption_scatter, consumption_stats, production_scatter, production_stats, ConsumptionStats,
    ProductionStats,
};
use ovlp_core::pipeline::build_variants;
use ovlp_core::presets::{marenostrum_for, table1};
use ovlp_core::report::{csv, fig6a_row, fig6b_row, fig6c_row, table2a, table2b};
use ovlp_core::sweep::scheduler;
use ovlp_core::transform::transform;
use ovlp_instr::{trace_app, FnApp, RankCtx, ReduceOp, TraceOptions};
use ovlp_machine::{
    replay_scale, simulate, CollectiveAlgo, NoopSink, Platform, SimError, SimResult,
};
use ovlp_trace::access::{ConsumptionLog, ProductionLog};
use ovlp_trace::record::SendMode;
use ovlp_trace::{AccessDb, Trace, TransferId};
use ovlp_viz::{gantt_comparison, paraver, scatter_ascii, timeline_svg};
use std::fmt::Write;

/// `writeln!` into the document; writing to a `String` cannot fail.
macro_rules! put {
    ($out:expr, $($arg:tt)*) => {
        writeln!($out, $($arg)*).unwrap()
    };
}

/// The rendered evaluation.
pub struct Paper {
    /// The document: one `## section` heading per table or figure.
    pub text: String,
    /// Side files as `(name, contents)`: the Fig. 4 SVG timelines and
    /// Paraver traces, and the CSV series of Table II and Fig. 6.
    pub files: Vec<(String, String)>,
}

/// Any failure: a tracing or replay error, or a worker's panic.
pub type Error = Box<dyn std::error::Error + Send + Sync>;

/// Bus counts of Table I's sensitivity grid; 0 is unlimited.
const SENSITIVITY_BUSES: [u32; 7] = [1, 2, 4, 8, 12, 22, 0];

/// One traced app with every number the document reports for it.
struct AppEval {
    name: &'static str,
    ranks: usize,
    platform: Platform,
    /// Table II's population (see [`p2p_only`]); Fig. 5 reads it too.
    access: AccessDb,
    /// Original runtime (s) at each of [`SENSITIVITY_BUSES`].
    bus_grid: Vec<f64>,
    prod: ProductionStats,
    cons: ConsumptionStats,
    speedup: SpeedupResult,
    relaxation: BandwidthRelaxation,
    /// Fig. 6(c) for the real and the ideal patterns.
    equivalent: [EquivalentBandwidth; 2],
    analytic: AnalyticEstimate,
}

/// Render the whole evaluation, with app preparation and replays fanned
/// over up to `jobs` worker threads.
pub fn render(jobs: usize) -> Result<Paper, Error> {
    // the paper's six *traced* apps; generated workload families have
    // their own bench (`scale_bench`)
    let names: Vec<&'static str> = ovlp_apps::paper_pool()
        .iter()
        .filter(|e| !e.is_generated())
        .map(|e| e.name)
        .collect();
    let jobs = jobs.clamp(1, names.len());
    let apps = scheduler::run_indexed(names, jobs, |_i, name| evaluate(name))
        .into_iter()
        .map(|slot| slot?)
        .collect::<Result<Vec<_>, Error>>()?;

    let mut paper = Paper {
        text: String::new(),
        files: Vec::new(),
    };
    table_1(&mut paper.text, &apps);
    table_2(&mut paper, &apps);
    fig_4(&mut paper)?;
    fig_5(&mut paper.text, &apps);
    fig_6(&mut paper, &apps);
    analytic(&mut paper.text, &apps);
    ablations(&mut paper.text)?;
    Ok(paper)
}

/// Trace, transform and replay one pool app. The app is built from its
/// name inside this call, so workers never move trait objects.
fn evaluate(name: &'static str) -> Result<AppEval, Error> {
    let entry = ovlp_apps::registry::by_name(name).ok_or(format!("unknown app {name}"))?;
    let platform = marenostrum_for(name);
    // Fig. 5 plots the access scatter, so the evaluation traces with it
    let run = entry.trace_run_with(entry.ranks, &TraceOptions::default())?;
    let bundle = build_variants(&run, &ChunkPolicy::paper_default());
    let mut access = run.access;
    if name != "alya" {
        p2p_only(&mut access);
    }
    let bus_grid = SENSITIVITY_BUSES
        .iter()
        .map(|&b| runtime(&bundle.original, &platform.with_buses(b)))
        .collect::<Result<_, _>>()?;
    let (speedup, _) = run_variants(&bundle, &platform, || NoopSink, |_| Ok(()))?;
    let relaxation = bandwidth_relaxation(&bundle, &platform)?;
    let matching = |target| equivalent_bandwidth(&bundle.original, &platform, target);
    let equivalent = [
        matching(speedup.overlapped.runtime())?,
        matching(speedup.ideal.runtime())?,
    ];
    let prod = production_stats(&access);
    let cons = consumption_stats(&access);
    let analytic = estimate(&speedup.original, &prod, &cons);
    Ok(AppEval {
        name,
        ranks: entry.ranks,
        platform,
        access,
        bus_grid,
        prod,
        cons,
        speedup,
        relaxation,
        equivalent,
        analytic,
    })
}

/// Restrict an access database to multi-element transfers: Table II and
/// the analytic model cover the point-to-point transfers, not the
/// scalar reductions, which are a separate population. (Alya has only
/// those, so it keeps them and its partial columns stay blank.)
fn p2p_only(db: &mut AccessDb) {
    for rank in &mut db.ranks {
        rank.productions.retain(|_, p| p.elems > 1);
        rank.consumptions.retain(|_, c| c.elems > 1);
    }
}

/// Simulated runtime (s) of `trace` on `platform`, from a totals-only
/// replay.
fn runtime(trace: &Trace, platform: &Platform) -> Result<f64, SimError> {
    Ok(replay_scale(trace, platform)?.runtime.as_secs())
}

/// Start a `## name` section, a blank line after the previous one.
fn section(out: &mut String, name: &str) {
    if !out.is_empty() {
        out.push('\n');
    }
    put!(out, "## {name}");
}

/// Table I: the Dimemas bus count per app, and what the calibration
/// knob does to the original runtime (it bounds how many messages
/// travel concurrently).
fn table_1(out: &mut String, apps: &[AppEval]) {
    section(out, "table-1");
    let (names, buses): (String, String) = table1()
        .iter()
        .map(|(name, buses)| (format!("{name:>11}"), format!("{buses:>11}")))
        .unzip();
    put!(
        out,
        "Table I — number of network buses used in the simulator per application\n\n\
         {:<14}{names}\n{:<14}{buses}\n\n\
         Sensitivity of the simulated original runtime to the bus count:\n",
        "",
        "buses"
    );
    write!(out, "{:<14}", "buses").unwrap();
    for a in apps {
        write!(out, "{:>11}", a.name).unwrap();
    }
    for (i, buses) in SENSITIVITY_BUSES.into_iter().enumerate() {
        write!(out, "\n{:<14}", bus_label(buses)).unwrap();
        for a in apps {
            write!(out, "{:>10.2}ms", a.bus_grid[i] * 1e3).unwrap();
        }
    }
    out.push('\n');
}

/// A bus count as the tables print it; 0 is unlimited.
fn bus_label(buses: u32) -> String {
    match buses {
        0 => "unlimited".to_string(),
        n => n.to_string(),
    }
}

/// Table II: (a) the percent of the production phase needed to produce
/// the 1st element / a quarter / half / the whole message; (b) the
/// percent of the consumption phase that can be passed upon reception
/// of nothing / a quarter / half of it.
fn table_2(paper: &mut Paper, apps: &[AppEval]) {
    let prod: Vec<_> = apps.iter().map(|a| (a.name.to_string(), a.prod)).collect();
    let cons: Vec<_> = apps.iter().map(|a| (a.name.to_string(), a.cons)).collect();
    let out = &mut paper.text;
    section(out, "table-2");
    put!(out, "{}\n{}", table2a(&prod), table2b(&cons));
    out.push_str(
        "paper reference (Table II):\n  \
         production  — BT 99.1/99.37/99.56/99.98  CG 3.98/27.98/51.99/99.97\n                \
         Sweep3D 66.3/94.8/98.2/99.8  POP 95.5/96.62/97.75/99.99\n                \
         SPECFEM3D 95.3/96.48/97.65/98.87  Alya 98.8/—/—/—\n  \
         consumption — BT 13.68/13.71/13.74  CG 2.175/18.35/34.53\n                \
         Sweep3D ~0/~0/~0  POP 3.525/3.53/3.534\n                \
         SPECFEM3D 0.032/0.034/0.036  Alya 0.4/—/—\n",
    );
    paper
        .files
        .push(("table2.csv".into(), csv::table2(&prod, &cons)));
}

/// Figure 4: the non-overlapped and overlapped executions of NAS-CG on
/// four processes, first five iterations. The paper attributes its 8%
/// improvement to "advancing the MPI transfer … as we can see by the
/// longer synchronization lines".
fn fig_4(paper: &mut Paper) -> Result<(), Error> {
    // With 4 uncontended ranks the communication/computation ratio
    // comes from the segment size; 12k elements lands at the ~8%
    // improvement the paper reports.
    let app = ovlp_apps::nas_cg::NasCgApp {
        iters: 5,
        seg: 12_000,
        ..Default::default()
    };
    let ranks = 4;
    let platform = marenostrum_for("nas-cg");
    let run = trace_app(&app, ranks)?;
    let bundle = build_variants(&run, &ChunkPolicy::paper_default());
    let original = simulate(&bundle.original, &platform)?;
    let overlapped = simulate(&bundle.overlapped, &platform)?;

    let out = &mut paper.text;
    section(out, "fig-4");
    let mean_span = |s: &SimResult| {
        s.comms.iter().map(|c| c.span().as_secs()).sum::<f64>() / s.comms.len().max(1) as f64
    };
    put!(
        out,
        "Figure 4 — NAS-CG on {ranks} processes, 5 iterations, Marenostrum (6 buses)\n\n{}\n\
         per-iteration comparison (the paper's first-five-iterations reading):\n{}\n\
         mean synchronization-line span: original {:.1} us, overlapped {:.1} us \
         (longer lines = transfers advanced ahead of their use)\n\
         wait time per rank: original {:.1} us, overlapped {:.1} us",
        gantt_comparison("non-overlapped", &original, "overlapped", &overlapped, 100),
        iteration_comparison("non-overlapped", &original, "overlapped", &overlapped),
        mean_span(&original) * 1e6,
        mean_span(&overlapped) * 1e6,
        original.total_wait() * 1e6 / ranks as f64,
        overlapped.total_wait() * 1e6 / ranks as f64
    );

    let span = original.runtime.max(overlapped.runtime);
    for (label, sim) in [("original", &original), ("overlapped", &overlapped)] {
        let svg = timeline_svg(&format!("NAS-CG {label}"), sim, 1200, span);
        let e = paraver::export(&format!("nas-cg-{label}"), sim);
        for (ext, body) in [("svg", svg), ("prv", e.prv), ("pcf", e.pcf), ("row", e.row)] {
            paper.files.push((format!("fig4-{label}.{ext}"), body));
        }
    }
    Ok(())
}

/// Figure 5: production and consumption scatters (normalized interval
/// time against element offset) of (a) Sweep3D's production, (b)
/// NAS-BT's consumption and (c) POP's consumption.
fn fig_5(out: &mut String, apps: &[AppEval]) {
    let access = |name: &str| {
        let app = apps.iter().find(|a| a.name == name);
        &app.expect("Figure 5's apps are traced apps of the pool")
            .access
    };
    section(out, "fig-5");
    out.push_str(
        "Figure 5 — production and consumption patterns\n\
         (x: normalized time within the computation interval; y: element offset)\n",
    );
    let p = representative(
        access("sweep3d")
            .all_productions()
            .filter(|p| p.elems > 1 && !p.events.is_empty()),
        |p: &ProductionLog| p.transfer,
    );
    put!(
        out,
        "\n(a) Sweep3D production pattern ({} elements, {} stores):\n{}",
        p.elems,
        p.events.len(),
        scatter_ascii(&production_scatter(p), 100, 24)
    );
    for (panel, app, label) in [("b", "nas-bt", "NAS-BT"), ("c", "pop", "POP")] {
        let c = representative(
            access(app)
                .all_consumptions()
                .filter(|c| c.elems > 1 && !c.events.is_empty()),
            |c: &ConsumptionLog| c.transfer,
        );
        put!(
            out,
            "({panel}) {label} consumption pattern ({} elements, {} loads):\n{}",
            c.elems,
            c.events.len(),
            scatter_ascii(&consumption_scatter(c), 100, 24)
        );
    }
}

/// A representative steady-state log: the second instance (the first
/// is the warm-up) on the middle rank of the ordered logs.
fn representative<'a, L>(
    logs: impl Iterator<Item = &'a L>,
    transfer: impl Fn(&L) -> TransferId,
) -> &'a L {
    let mut logs: Vec<&L> = logs.collect();
    logs.sort_by_key(|l| transfer(l));
    let mid = transfer(logs[logs.len() / 2]).rank;
    logs.iter()
        .filter(|l| transfer(l).rank == mid)
        .nth(1)
        .copied()
        .unwrap_or(logs[0])
}

/// Figures 6(a)–(c): the speedup of the overlapped executions, the
/// minimum bandwidth at which they still match the original at 250
/// MB/s, and the bandwidth the original would need to match them.
fn fig_6(paper: &mut Paper, apps: &[AppEval]) {
    let out = &mut paper.text;
    section(out, "fig-6a");
    put!(
        out,
        "Figure 6(a) — speedup of overlapped execution (4 chunks, Marenostrum)\n"
    );
    for a in apps {
        put!(
            out,
            "{}  ({} ranks, {} buses)",
            fig6a_row(&a.speedup),
            a.ranks,
            a.platform.buses
        );
    }
    section(out, "fig-6b");
    put!(
        out,
        "Figure 6(b) — minimum bandwidth for the overlapped execution to match\n\
         the original execution at 250 MB/s\n"
    );
    for a in apps {
        let row = fig6b_row(a.name, a.platform.bandwidth_mbs, &a.relaxation);
        put!(out, "{row}");
    }
    section(out, "fig-6c");
    put!(
        out,
        "Figure 6(c) — bandwidth required by the non-overlapped execution to match\n\
         the overlapped execution at 250 MB/s\n"
    );
    let mut fig6c = Vec::new();
    for a in apps {
        for (which, e) in ["real", "ideal"].into_iter().zip(a.equivalent) {
            let row = fig6c_row(a.name, a.platform.bandwidth_mbs, which, &e);
            put!(out, "{row}");
            fig6c.push((a.name.to_string(), which.to_string(), e));
        }
    }
    let speedups: Vec<_> = apps.iter().map(|a| a.speedup.clone()).collect();
    let fig6b: Vec<_> = apps
        .iter()
        .map(|a| (a.name.to_string(), a.relaxation))
        .collect();
    paper.files.extend([
        ("fig6a.csv".into(), csv::fig6a(&speedups)),
        ("fig6b.csv".into(), csv::fig6b(&fig6b)),
        ("fig6c.csv".into(), csv::fig6c(&fig6c)),
    ]);
}

/// The analytic overlap model of Sancho et al. (SC'06, the paper's
/// reference \[23\]) against the simulation: the quantitative version of
/// §VI's claim that simulating "accounts for more delicate application
/// properties" (chunk windows, contention, cross-rank pipelining).
fn analytic(out: &mut String, apps: &[AppEval]) {
    section(out, "analytic");
    put!(
        out,
        "Analytical baseline (Sancho et al.) vs simulated overlap speedup\n\n\
         {:<12} {:>8} {:>10} {:>10} {:>12} {:>12} {:>12}",
        "app",
        "f",
        "Tc (ms)",
        "Tm (ms)",
        "analytic",
        "analytic-ub",
        "simulated"
    );
    for a in apps {
        let e = &a.analytic;
        put!(
            out,
            "{:<12} {:>8.3} {:>10.2} {:>10.3} {:>11.3}x {:>11.3}x {:>11.3}x",
            a.name,
            e.f,
            e.tc * 1e3,
            e.tm * 1e3,
            e.speedup,
            e.upper_bound,
            a.speedup.speedup_real()
        );
    }
    out.push_str(
        "\nWhere the analytical column overshoots the simulated one, contention and\n\
         per-chunk serialization (which the loop model cannot see) are the cause;\n\
         where it undershoots (Sweep3D), cross-rank pipeline effects are — the\n\
         motivation for simulating instead of estimating (paper §VI).\n",
    );
}

/// The design-choice ablations of DESIGN.md §5 as simulated runtimes:
/// chunk count, bus count, collective algorithm and the chunk transfer
/// protocol. `tests/ablations.rs` asserts their directions.
fn ablations(out: &mut String) -> Result<(), Error> {
    section(out, "ablations");
    let ms = |t: f64| format!("{:.3} ms", t * 1e3);
    let platform = Platform::marenostrum(0);
    let pattern = |production| PatternApp {
        elems: 4_000,
        iters: 4,
        phase_instr: 2_000_000,
        production,
        consumption: Consumption::Linear,
    };
    let run = trace_app(&pattern(Production::Linear), 8)?;
    let orig = runtime(&run.trace, &platform)?;
    put!(
        out,
        "[ablation] chunk count -> simulated runtime (linear patterns):\n  original: {}",
        ms(orig)
    );
    for chunks in [1u32, 2, 4, 8, 16, 32] {
        let t = transform(&run.trace, &run.access, &ChunkPolicy::with_chunks(chunks));
        let rt = runtime(&t, &platform)?;
        put!(out, "  {chunks:>2} chunks: {} (x{:.3})", ms(rt), orig / rt);
    }

    put!(
        out,
        "\n[ablation] bus count -> simulated runtime (original trace):"
    );
    for buses in [1u32, 2, 4, 8, 12, 0] {
        let rt = runtime(&run.trace, &platform.with_buses(buses))?;
        put!(out, "  {:>9} buses: {}", bus_label(buses), ms(rt));
    }

    let chain = FnApp::new("allreduce-chain", |ctx: &mut RankCtx| {
        let mut buf = ctx.buffer(1024);
        for i in 0..8u32 {
            buf.store(0, i as f64);
            ctx.allreduce(ReduceOp::Sum, &mut buf);
            ctx.compute(100_000);
        }
    });
    let run = trace_app(&chain, 32)?;
    put!(
        out,
        "\n[ablation] collective algorithm -> simulated runtime (32 ranks):"
    );
    for collective in [CollectiveAlgo::Binomial, CollectiveAlgo::Linear] {
        let p = Platform {
            collective,
            ..platform.clone()
        };
        put!(
            out,
            "  {:<9}: {}",
            collective.name(),
            ms(runtime(&run.trace, &p)?)
        );
    }

    let run = trace_app(&pattern(Production::Window { from: 0.5, to: 1.0 }), 8)?;
    put!(
        out,
        "\n[ablation] chunk transfer protocol -> simulated runtime:"
    );
    for (label, mode) in [
        ("eager", SendMode::Eager),
        ("rendezvous", SendMode::Rendezvous),
    ] {
        let policy = ChunkPolicy {
            mode,
            ..ChunkPolicy::paper_default()
        };
        let t = transform(&run.trace, &run.access, &policy);
        put!(out, "  {label:<10}: {}", ms(runtime(&t, &platform)?));
    }
    Ok(())
}
