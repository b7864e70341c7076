//! `ovlp` — command-line front end for the overlap-analysis framework.
//!
//! Run `ovlp help` for the subcommand list; it is generated from the
//! [`COMMANDS`] table, which is also the dispatch source of truth, so
//! the help text cannot drift from what the binary accepts.

use overlap_sim::core::chunk::ChunkPolicy;
use overlap_sim::core::experiments::run_variants;
use overlap_sim::core::patterns::{consumption_stats, production_stats};
use overlap_sim::core::pipeline::{build_variants, VariantBundle};
use overlap_sim::core::presets::marenostrum_for;
use overlap_sim::core::report::{pct, table2a, table2b};
use overlap_sim::instr::TraceOptions;
use overlap_sim::machine::{
    replay_scale, simulate, simulate_probed, ContentionModel, CritPathRecorder, FaultSchedule,
    Metrics, NoopSink, Platform, SimError, TeeSink, Time, WindowedRecorder,
};
use overlap_sim::trace::{text, TraceSource};
use overlap_sim::viz::{gantt_comparison, link_heatmap_ascii, paraver, timeline_svg};
use std::fs;
use std::io::Write;
use std::path::Path;
use std::process::ExitCode;

/// `print!` for command output. A closed stdout means the reader has
/// all it wants (`ovlp ... | head -1`), so the command ends quietly
/// with exit 0 instead of panicking; any other write error exits 1.
macro_rules! out {
    ($($arg:tt)*) => {
        write_stdout(format_args!($($arg)*))
    };
}

/// `println!` counterpart of [`out!`].
macro_rules! outln {
    ($($arg:tt)*) => {
        out!("{}\n", format_args!($($arg)*))
    };
}

fn write_stdout(args: std::fmt::Arguments) {
    if let Err(e) = std::io::stdout().write_fmt(args) {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        eprintln!("error: writing stdout: {e}");
        std::process::exit(1);
    }
}

/// One `ovlp` subcommand. The usage text shown by `ovlp help` (and on
/// bad invocations) is rendered from this table.
struct Cmd {
    name: &'static str,
    args: &'static str,
    about: &'static str,
}

const COMMANDS: &[Cmd] = &[
    Cmd {
        name: "list",
        args: "",
        about: "list the application pool",
    },
    Cmd {
        name: "analyze",
        args: "<app> <ranks>",
        about: "full pipeline report (patterns + benefits)",
    },
    Cmd {
        name: "trace",
        args: "<app> <ranks> <outdir>",
        about: "write .trf traces + the .acc access log",
    },
    Cmd {
        name: "transform",
        args: "<trace.trf> <log.acc>",
        about: "rewrite a trace offline (stdout)",
    },
    Cmd {
        name: "simulate",
        args: "<trace.trf|app> [bw] [buses] [--ranks N] [--topology T] \
               [--faults SPEC] [--metrics out.json] [--probe-window us] [--critpath]",
        about: "replay a trace file or pool app on a platform",
    },
    Cmd {
        name: "scale",
        args: "<app> <ranks> [bw] [buses]",
        about: "streamed O(active-state) weak-scaling replay summary",
    },
    Cmd {
        name: "stats",
        args: "<trace.trf>",
        about: "structural statistics of a trace file",
    },
    Cmd {
        name: "gantt",
        args: "<app> <ranks>",
        about: "original vs overlapped ASCII timelines",
    },
    Cmd {
        name: "waits",
        args: "<app> <ranks>",
        about: "wait-duration histograms (both variants)",
    },
    Cmd {
        name: "chunks",
        args: "<app> <ranks>",
        about: "find the best chunk count",
    },
    Cmd {
        name: "advise",
        args: "<app> <ranks>",
        about: "per-transfer restructuring advice",
    },
    Cmd {
        name: "report",
        args: "<app> <ranks> <out.html> [--topology T] [--probe-window us] [--critpath]",
        about: "self-contained HTML analysis report",
    },
    Cmd {
        name: "paraver",
        args: "<app> <ranks> <outdir> [--topology T] [--probe-window us]",
        about: "Paraver .prv/.pcf/.row (with counters) + SVG for both variants",
    },
    Cmd {
        name: "sweep",
        args: "<app> <ranks> [--jobs N] [--chunks a,b,..] [--bw a,b,..] [--buses a,b,..] \
               [--topology t1,t2,..] [--faults f1,f2,..] [--store dir] [--metrics dir] \
               [--probe-window us] [--critpath]",
        about: "parallel parameter sweep over platforms x policies",
    },
    Cmd {
        name: "serve",
        args: "[--addr host:port] [--store dir] [--max-running N] [--max-conn N] \
               [--point-deadline s] [--retries N] [--backoff-ms ms] [--drain-grace s]",
        about: "sweep-as-a-service HTTP daemon over the persistent result store",
    },
    Cmd {
        name: "help",
        args: "",
        about: "show this help",
    },
];

fn usage() -> String {
    let mut s = String::from("usage: ovlp <command> [args]\n\ncommands:\n");
    for c in COMMANDS {
        let head = if c.args.is_empty() {
            c.name.to_string()
        } else {
            format!("{} {}", c.name, c.args)
        };
        if head.len() <= 38 {
            s.push_str(&format!("  {head:<38} {}\n", c.about));
        } else {
            s.push_str(&format!("  {head}\n  {:<38} {}\n", "", c.about));
        }
    }
    s.push_str(
        "\ntopologies: bus | crossbar | fat-tree:<radix>[:<oversub>] | torus:<A>x<B>[x<C>]\n\
         fault specs: `;`-joined events, each kill|restore|degrade=<f>@<time>:<selector>\n\
         (selector = link label, link:<id>, uplink:*, or dim:<d>; sweep takes a\n\
         comma-separated scenario list and keeps a fault-free baseline per platform)\n\
         probe windows are microseconds; omitted, they default to runtime/256\n\
         --store points sweep and serve at a shared persistent result store\n\
         \nexit codes: 0 success, 1 simulation/runtime failure, 2 usage or parse error\n",
    );
    s
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let strs: Vec<&str> = args.iter().map(String::as_str).collect();
    match strs.as_slice() {
        ["list"] => {
            for e in overlap_sim::apps::paper_pool() {
                let kind = if e.is_generated() {
                    "generated; weak-scales via --ranks / ovlp scale"
                } else {
                    "traced"
                };
                outln!("{:<12} (default {} ranks, {kind})", e.name, e.ranks);
            }
            ExitCode::SUCCESS
        }
        ["analyze", app, ranks] => analyze(app, ranks),
        ["trace", app, ranks, outdir] => trace_cmd(app, ranks, outdir),
        ["transform", trf, acc] => transform_cmd(trf, acc),
        ["simulate", path, rest @ ..] => simulate_cmd(path, rest),
        ["scale", app, ranks, rest @ ..] => scale_cmd(app, ranks, rest),
        ["stats", path] => stats_cmd(path),
        ["gantt", app, ranks] => gantt_cmd(app, ranks),
        ["waits", app, ranks] => waits_cmd(app, ranks),
        ["chunks", app, ranks] => chunks_cmd(app, ranks),
        ["advise", app, ranks] => advise_cmd(app, ranks),
        ["report", app, ranks, out, rest @ ..] => report_cmd(app, ranks, out, rest),
        ["paraver", app, ranks, outdir, rest @ ..] => paraver_cmd(app, ranks, outdir, rest),
        ["sweep", app, ranks, rest @ ..] => sweep_cmd(app, ranks, rest),
        ["serve", rest @ ..] => serve_cmd(rest),
        ["help"] | ["--help"] | ["-h"] => {
            out!("{}", usage());
            ExitCode::SUCCESS
        }
        _ => {
            eprint!("{}", usage());
            usage_error()
        }
    }
}

/// Exit code for usage and parse errors (bad flags, malformed specs):
/// distinct from 1, which means the inputs were well-formed but the
/// run itself failed (I/O, simulation error, failed sweep points).
fn usage_error() -> ExitCode {
    ExitCode::from(2)
}

/// CLI failure, classified for the exit code: `Usage` exits 2,
/// `Run` exits 1.
enum CliError {
    Usage(String),
    Run(String),
}

fn bail(e: CliError) -> ExitCode {
    match e {
        CliError::Usage(m) => fail_usage(m),
        CliError::Run(m) => fail(m),
    }
}

/// Whether a command reads the Figure-5 access scatter (`access.acc`
/// `e` lines, the independent-tail estimate). Only those capture it.
#[derive(Clone, Copy)]
enum Scatter {
    Capture,
    Skip,
}

/// Trace `app_name` at `ranks` and build its variants, with the app's
/// platform on `topology` when one is given. Every usage error, a
/// fabric that cannot hold the ranks included, is found before the
/// trace runs.
fn prepare(
    app_name: &str,
    ranks: &str,
    scatter: Scatter,
    topology: Option<ContentionModel>,
) -> Result<
    (
        overlap_sim::core::pipeline::VariantBundle,
        overlap_sim::instr::TraceRun,
        Platform,
    ),
    CliError,
> {
    let ranks: usize = ranks
        .parse()
        .map_err(|e| CliError::Usage(format!("bad rank count: {e}")))?;
    let entry = overlap_sim::apps::registry::by_name(app_name)
        .ok_or_else(|| CliError::Usage(format!("unknown app `{app_name}` (try `ovlp list`)")))?;
    // Rank-count violations (odd counts on XOR apps, counts past the
    // thread-per-rank cap) are the caller's mistake: exit 2, not 1.
    entry.validate_ranks(ranks).map_err(CliError::Usage)?;
    let mut platform = marenostrum_for(entry.name);
    if let Some(model) = topology {
        platform = platform.with_contention(model);
    }
    if let ContentionModel::Flow(topo) = &platform.contention {
        topo.check_size(platform.nodes(ranks))
            .map_err(CliError::Usage)?;
    }
    let run = match scatter {
        Scatter::Capture => entry.trace_run_with(ranks, &TraceOptions::default()),
        Scatter::Skip => entry.trace_run(ranks),
    }
    .map_err(CliError::Run)?;
    let bundle = build_variants(&run, &ChunkPolicy::paper_default());
    Ok((bundle, run, platform))
}

/// Runtime failure (exit 1): I/O, tracing, or simulation errors.
fn fail(msg: String) -> ExitCode {
    eprintln!("error: {msg}");
    ExitCode::FAILURE
}

/// Usage or parse failure (exit 2): malformed flags, specs, or values.
fn fail_usage(msg: String) -> ExitCode {
    eprintln!("error: {msg}");
    usage_error()
}

fn analyze(app: &str, ranks: &str) -> ExitCode {
    let (bundle, run, platform) = match prepare(app, ranks, Scatter::Capture, None) {
        Ok(v) => v,
        Err(e) => return bail(e),
    };
    let p = production_stats(&run.access);
    let c = consumption_stats(&run.access);
    outln!("{}", table2a(&[(app.to_string(), p)]));
    outln!("{}", table2b(&[(app.to_string(), c)]));
    match run_variants(&bundle, &platform, || NoopSink, |_| Ok(())) {
        Ok((r, _)) => {
            outln!(
                "runtime: original {:.4}s  overlapped {:.4}s (x{:.3})  ideal {:.4}s (x{:.3})",
                r.original.runtime(),
                r.overlapped.runtime(),
                r.speedup_real(),
                r.ideal.runtime(),
                r.speedup_ideal()
            );
            outln!(
                "wait/rank: original {:.1}us  overlapped {:.1}us",
                r.original.total_wait() * 1e6 / r.original.totals.len() as f64,
                r.overlapped.total_wait() * 1e6 / r.overlapped.totals.len() as f64,
            );
            let demand = overlap_sim::core::double_buffer_demand(&r.overlapped);
            outln!(
                "double-buffering demand: {} of {} candidate transfers ({})",
                demand.early_arrivals,
                demand.candidates,
                pct(Some(100.0 * demand.fraction()))
            );
            // the paper's §VII future work, quantified: how much more
            // postponement would phase-level reordering expose?
            match overlap_sim::core::patterns::mean_independent_tail(&run.access) {
                Some(tail) => outln!(
                    "phase-reorder potential (mean independent tail): {}",
                    pct(Some(100.0 * tail))
                ),
                None => outln!("phase-reorder potential: n/a (scatter capture off)"),
            }
            outln!("\nheaviest channels (original execution):");
            out!(
                "{}",
                overlap_sim::machine::chanstat::render_top(&r.original, 8)
            );
            ExitCode::SUCCESS
        }
        Err(e) => fail(e.to_string()),
    }
}

fn trace_cmd(app: &str, ranks: &str, outdir: &str) -> ExitCode {
    let (bundle, run, _) = match prepare(app, ranks, Scatter::Capture, None) {
        Ok(v) => v,
        Err(e) => return bail(e),
    };
    let dir = Path::new(outdir);
    if let Err(e) = fs::create_dir_all(dir) {
        return fail(e.to_string());
    }
    for (name, body) in [
        ("original.trf", text::emit(&bundle.original)),
        ("overlapped.trf", text::emit(&bundle.overlapped)),
        ("ideal.trf", text::emit(&bundle.ideal)),
    ] {
        let path = dir.join(name);
        if let Err(e) = fs::write(&path, body) {
            return fail(e.to_string());
        }
        outln!("wrote {}", path.display());
    }
    // the access log runs to gigabytes at a few hundred ranks: stream it
    let path = dir.join("access.acc");
    if let Err(e) =
        fs::File::create(&path).and_then(|f| overlap_sim::trace::access_text::emit(&run.access, f))
    {
        return fail(format!("{}: {e}", path.display()));
    }
    outln!("wrote {}", path.display());
    ExitCode::SUCCESS
}

/// Offline transformation: the paper's §III-C generation step applied
/// to artifacts on disk.
fn transform_cmd(trf: &str, acc: &str) -> ExitCode {
    let trace = match fs::read_to_string(trf)
        .map_err(|e| e.to_string())
        .and_then(|c| text::parse(&c).map_err(|e| e.to_string()))
    {
        Ok(t) => t,
        Err(e) => return fail(format!("{trf}: {e}")),
    };
    let access = match fs::File::open(acc)
        .map_err(|e| e.to_string())
        .and_then(|f| {
            overlap_sim::trace::access_text::parse(std::io::BufReader::new(f))
                .map_err(|e| e.to_string())
        }) {
        Ok(a) => a,
        Err(e) => return fail(format!("{acc}: {e}")),
    };
    let out = overlap_sim::core::transform(&trace, &access, &ChunkPolicy::paper_default());
    out!("{}", text::emit(&out));
    ExitCode::SUCCESS
}

fn stats_cmd(path: &str) -> ExitCode {
    let trace = match fs::read_to_string(path)
        .map_err(|e| e.to_string())
        .and_then(|c| text::parse(&c).map_err(|e| e.to_string()))
    {
        Ok(t) => t,
        Err(e) => return fail(format!("{path}: {e}")),
    };
    outln!("{}", overlap_sim::trace::TraceStats::of(&trace));
    let errs = overlap_sim::trace::validate(&trace);
    if errs.is_empty() {
        outln!("validation:       ok");
        ExitCode::SUCCESS
    } else {
        outln!("validation:       {} problems", errs.len());
        for e in errs.iter().take(10) {
            outln!("  - {e}");
        }
        ExitCode::FAILURE
    }
}

fn waits_cmd(app: &str, ranks: &str) -> ExitCode {
    let (bundle, _, platform) = match prepare(app, ranks, Scatter::Skip, None) {
        Ok(v) => v,
        Err(e) => return bail(e),
    };
    match run_variants(&bundle, &platform, || NoopSink, |_| Ok(())) {
        Ok((r, _)) => {
            outln!("== non-overlapped ==");
            outln!("{}", overlap_sim::viz::wait_report(&r.original, 48));
            outln!("== overlapped ==");
            outln!("{}", overlap_sim::viz::wait_report(&r.overlapped, 48));
            ExitCode::SUCCESS
        }
        Err(e) => fail(e.to_string()),
    }
}

fn chunks_cmd(app: &str, ranks: &str) -> ExitCode {
    use overlap_sim::core::experiments::{chunk_search, default_candidates};
    let ranks_n: usize = match ranks.parse() {
        Ok(n) => n,
        Err(e) => return fail_usage(format!("bad rank count: {e}")),
    };
    let entry = match overlap_sim::apps::registry::by_name(app) {
        Some(e) => e,
        None => return fail_usage(format!("unknown app `{app}`")),
    };
    if let Err(e) = entry.validate_ranks(ranks_n) {
        return fail_usage(e);
    }
    let run = match entry.trace_run(ranks_n) {
        Ok(r) => r,
        Err(e) => return fail(e),
    };
    let platform = marenostrum_for(entry.name);
    match chunk_search(&run, &platform, &default_candidates()) {
        Ok(s) => {
            outln!("original runtime: {:.4}s", s.original_runtime);
            for p in &s.points {
                let marker = if p.chunks == s.best.chunks {
                    "  <= best"
                } else {
                    ""
                };
                outln!(
                    "{:>3} chunks: {:.4}s (x{:.3}){}",
                    p.chunks,
                    p.runtime,
                    p.speedup_vs_original,
                    marker
                );
            }
            outln!(
                "recommendation: {} chunks (the paper fixes 4)",
                s.best.chunks
            );
            ExitCode::SUCCESS
        }
        Err(e) => fail(e.to_string()),
    }
}

fn simulate_cmd(path: &str, rest: &[&str]) -> ExitCode {
    // Flags are parsed before the trace is read, so malformed flags
    // are reported as usage errors (exit 2) even when the file is also
    // missing or unreadable (exit 1).
    let flags = (|| -> Result<_, String> {
        Ok((
            positionals(
                "simulate",
                rest,
                &[
                    "--topology",
                    "--faults",
                    "--metrics",
                    "--probe-window",
                    "--ranks",
                ],
                &["--critpath"],
                2,
            )?,
            parse_flag(rest, "--topology", ContentionModel::Bus)?,
            parse_opt_flag::<String>(rest, "--metrics")?,
            parse_opt_flag::<f64>(rest, "--probe-window")?,
            parse_opt_flag::<FaultSchedule>(rest, "--faults")?,
            parse_opt_flag::<usize>(rest, "--ranks")?,
        ))
    })();
    let (pos, topology, metrics_out, window_us, faults, ranks_flag) = match flags {
        Ok(v) => v,
        Err(e) => return fail_usage(e),
    };
    let want_critpath = rest.contains(&"--critpath");
    // The positional either names a trace file on disk or a pool app
    // (`ovlp list`); files win when both exist. Pool apps replay their
    // registry source (the lean trace of a traced app, or the generator
    // itself, never materialized) on their calibrated Table I platform;
    // trace files keep the historical default platform.
    let app = overlap_sim::apps::registry::by_name(path).filter(|_| !Path::new(path).exists());
    let (input, base): (Box<dyn TraceSource>, Platform) = if let Some(entry) = app {
        let ranks = ranks_flag.unwrap_or(entry.ranks);
        if let Err(e) = entry.validate_ranks(ranks) {
            return fail_usage(e);
        }
        match entry.source(ranks) {
            Ok(s) => (s, marenostrum_for(entry.name)),
            Err(e) => return fail(e),
        }
    } else {
        if ranks_flag.is_some() {
            return fail_usage(format!(
                "--ranks applies to pool apps, but `{path}` is a trace file \
                 (rank count comes from the trace)"
            ));
        }
        let content = match fs::read_to_string(path) {
            Ok(c) => c,
            Err(e) => return fail(format!("{path}: {e}")),
        };
        match text::parse(&content) {
            Ok(t) => (Box::new(t), Platform::default()),
            Err(e) => return fail(e.to_string()),
        }
    };
    let input = input.as_ref();
    let mut platform = base.with_contention(topology);
    if let Some(f) = faults {
        platform = platform.with_faults(f);
    }
    if let Err(e) = set_bw_buses(&mut platform, &pos) {
        return fail_usage(e);
    }
    // refuse a fabric too small for the ranks, or far too large,
    // before compiling it
    if let ContentionModel::Flow(topo) = &platform.contention {
        if let Err(e) = topo.check_size(platform.nodes(input.nranks())) {
            return fail_usage(e);
        }
    }
    // Probing is on when either metrics flag is given; the replay
    // results are bit-identical with and without it (and with or
    // without --critpath — probes observe, never influence).
    let probing = metrics_out.is_some() || window_us.is_some();
    let window = if probing {
        match window_us {
            Some(us) if us > 0.0 => Some(Time::micros(us)),
            Some(us) => {
                return fail_usage(format!("bad --probe-window value `{us}`: must be positive"))
            }
            None => {
                // auto window: 1/256 of this trace's runtime, measured
                // by an extra (cheap, deterministic) unprobed replay
                let base = match simulate(input, &platform) {
                    Ok(r) => r,
                    Err(e) => return fail(e.to_string()),
                };
                Some(auto_window(base.runtime()))
            }
        }
    } else {
        None
    };
    // the recorders the flags asked for: windowed metrics when a window
    // is set, the critical path under --critpath
    let replayed = (|| -> Result<_, Box<dyn std::error::Error>> {
        Ok(match (window, want_critpath) {
            (None, false) => (simulate(input, &platform)?, None, None),
            (Some(w), false) => {
                let mut rec = WindowedRecorder::new(w);
                let r = simulate_probed(input, &platform, &mut rec)?;
                (r, Some(rec.into_metrics()?), None)
            }
            (None, true) => {
                let mut rec = CritPathRecorder::new();
                let r = simulate_probed(input, &platform, &mut rec)?;
                (r, None, Some(rec.into_critpath()))
            }
            (Some(w), true) => {
                let mut tee = TeeSink(WindowedRecorder::new(w), CritPathRecorder::new());
                let r = simulate_probed(input, &platform, &mut tee)?;
                let TeeSink(windowed, crit) = tee;
                (
                    r,
                    Some(windowed.into_metrics()?),
                    Some(crit.into_critpath()),
                )
            }
        })
    })();
    let (r, metrics, critpath) = match replayed {
        Ok(v) => v,
        Err(e) => return fail(e.to_string()),
    };
    outln!(
        "runtime {:.6}s  ({} ranks, {} events, efficiency {:.1}%)",
        r.runtime(),
        r.timelines.len(),
        r.events_processed,
        100.0 * r.efficiency()
    );
    for (i, t) in r.totals.iter().enumerate() {
        outln!(
            "  r{i}: compute {:.3}ms  wait-recv {:.3}ms  wait-send {:.3}ms  collective {:.3}ms",
            unsigned(t.compute) * 1e3,
            unsigned(t.wait_recv) * 1e3,
            unsigned(t.wait_send) * 1e3,
            unsigned(t.collective) * 1e3
        );
    }
    let links = overlap_sim::viz::link_report(&r, 12);
    if !links.is_empty() {
        outln!("network: {} fair-share recomputations", r.network.reshares);
        out!("{links}");
    }
    if !r.fault_log.is_empty() {
        outln!(
            "faults: {} applied, {} flows rerouted, {} reroute reshares",
            r.network.faults_applied,
            r.network.flows_rerouted,
            r.network.reroute_reshares
        );
        for f in &r.fault_log {
            outln!("  {:.6}s  {}", f.at.as_secs(), f.desc);
        }
    }
    if let Some(cp) = &critpath {
        out!("{}", overlap_sim::viz::critpath_report(cp));
    }
    if let Some(m) = &metrics {
        let e = &m.engine;
        outln!(
            "probe: {} windows of {:.1}us; events resume {} / transfer {} / flow {} / fault {}; \
             reshares {}; queue peak {}; records peak {}; in-flight peak {}",
            m.windows,
            m.window_s * 1e6,
            e.events_by_kind[0],
            e.events_by_kind[1],
            e.events_by_kind[2],
            e.events_by_kind[3],
            e.reshares,
            e.queue_peak,
            e.records_peak,
            e.max_in_flight
        );
        let heat = link_heatmap_ascii(m, 100, r.runtime, 12);
        if !heat.is_empty() {
            outln!("link utilization over time:");
            out!("{heat}");
        }
        if let Some(out) = &metrics_out {
            // with --critpath the document upgrades to ovlp.metrics.v2:
            // the full v1 payload plus the critpath section
            let doc = match &critpath {
                Some(cp) => m.to_json_v2(cp),
                None => m.to_json(),
            };
            if let Err(e) = fs::write(out, doc) {
                return fail(e.to_string());
            }
            outln!("wrote {out}");
        }
    }
    ExitCode::SUCCESS
}

/// `ovlp scale`: streamed totals-only replay for weak-scaling studies.
/// It keeps no timelines or comm records, so memory stays O(active
/// ranks + in-flight traffic) and generated apps run at 100k–1M ranks
/// where `simulate` would exhaust the machine.
fn scale_cmd(app: &str, ranks: &str, rest: &[&str]) -> ExitCode {
    let pos = match positionals("scale", rest, &[], &[], 2) {
        Ok(v) => v,
        Err(e) => return fail_usage(e),
    };
    let ranks_n: usize = match ranks.parse() {
        Ok(n) => n,
        Err(e) => return fail_usage(format!("bad rank count: {e}")),
    };
    let entry = match overlap_sim::apps::registry::by_name(app) {
        Some(e) => e,
        None => return fail_usage(format!("unknown app `{app}` (try `ovlp list`)")),
    };
    if let Err(e) = entry.validate_ranks(ranks_n) {
        return fail_usage(e);
    }
    let mut platform = marenostrum_for(entry.name);
    if let Err(e) = set_bw_buses(&mut platform, &pos) {
        return fail_usage(e);
    }
    let source = match entry.source(ranks_n) {
        Ok(s) => s,
        Err(e) => return fail(e),
    };
    match replay_scale(source.as_ref(), &platform) {
        Ok(rep) => {
            outln!(
                "runtime {:.6}s  ({} ranks, {} events, efficiency {:.1}%)",
                rep.runtime.as_secs(),
                rep.nranks,
                rep.events_processed,
                100.0 * rep.efficiency()
            );
            outln!(
                "transfers {}  records streamed {}",
                rep.transfers,
                rep.records_streamed
            );
            outln!(
                "high-water marks: records resident {}  queue {}  msg slots {}  \
                 req slots {}  chan slots {}  blocked transfers {}",
                rep.records_peak,
                rep.queue_peak,
                rep.msg_slots,
                rep.req_slots,
                rep.chan_slots,
                rep.waiters_peak
            );
            outln!(
                "state totals: compute {:.3}s  wait-recv {:.3}s  wait-send {:.3}s  \
                 collective {:.3}s",
                unsigned(rep.totals.compute),
                unsigned(rep.totals.wait_recv),
                unsigned(rep.totals.wait_send),
                unsigned(rep.totals.collective)
            );
            ExitCode::SUCCESS
        }
        Err(e) => fail(e.to_string()),
    }
}

/// The optional `[bw] [buses]` positionals of `simulate` and `scale`.
fn set_bw_buses(platform: &mut Platform, pos: &[&str]) -> Result<(), String> {
    if let Some(bw) = pos.first() {
        platform.bandwidth_mbs = bw.parse().map_err(|e| format!("bad bandwidth: {e}"))?;
    }
    if let Some(buses) = pos.get(1) {
        platform.buses = buses.parse().map_err(|e| format!("bad bus count: {e}"))?;
    }
    platform.check_ranges()
}

/// A state total in seconds for printing. A state a rank never entered
/// sums an empty series, which `f64` makes `-0.0`; adding `+0.0` turns
/// it into `0.0` (and leaves every other value as it is), so the line
/// never reads `-0.000`.
fn unsigned(t: Time) -> f64 {
    t.as_secs() + 0.0
}

/// Probe window for commands without an explicit `--probe-window`:
/// 1/256 of the run's span, so every trace gets a usefully dense
/// timeline regardless of scale (floor of 1ns for degenerate runs).
fn auto_window(runtime_s: f64) -> Time {
    let w = runtime_s / 256.0;
    if w > 0.0 {
        Time::secs(w)
    } else {
        Time::secs(1e-9)
    }
}

fn gantt_cmd(app: &str, ranks: &str) -> ExitCode {
    let (bundle, _, platform) = match prepare(app, ranks, Scatter::Skip, None) {
        Ok(v) => v,
        Err(e) => return bail(e),
    };
    match run_variants(&bundle, &platform, || NoopSink, |_| Ok(())) {
        Ok((r, _)) => {
            outln!(
                "{}",
                gantt_comparison(
                    "non-overlapped",
                    &r.original,
                    "overlapped",
                    &r.overlapped,
                    100
                )
            );
            ExitCode::SUCCESS
        }
        Err(e) => fail(e.to_string()),
    }
}

fn advise_cmd(app: &str, ranks: &str) -> ExitCode {
    let (_, run, platform) = match prepare(app, ranks, Scatter::Skip, None) {
        Ok(v) => v,
        Err(e) => return bail(e),
    };
    let advice = overlap_sim::core::advisor::advise(
        &run.trace,
        &run.access,
        &platform,
        &ChunkPolicy::paper_default(),
    );
    out!("{}", advice.render());
    ExitCode::SUCCESS
}

fn report_cmd(app: &str, ranks: &str, out: &str, rest: &[&str]) -> ExitCode {
    if let Err(e) = positionals(
        "report",
        rest,
        &["--topology", "--probe-window"],
        &["--critpath"],
        0,
    ) {
        return fail_usage(e);
    }
    let topology = match parse_opt_flag::<ContentionModel>(rest, "--topology") {
        Ok(t) => t,
        Err(e) => return fail_usage(e),
    };
    let (bundle, run, platform) = match prepare(app, ranks, Scatter::Capture, topology) {
        Ok(v) => v,
        Err(e) => return bail(e),
    };
    let window = match probe_window_arg(rest, &bundle, &platform) {
        Ok(w) => w,
        Err(e) => return bail(e),
    };
    // each variant's windowed metrics, and its critical path under
    // --critpath
    let replayed = if rest.contains(&"--critpath") {
        let tee = || TeeSink(WindowedRecorder::new(window), CritPathRecorder::new());
        run_variants(&bundle, &platform, tee, |TeeSink(w, c)| {
            Ok((metrics_of(w)?, Some(c.into_critpath())))
        })
    } else {
        let windowed = || WindowedRecorder::new(window);
        run_variants(&bundle, &platform, windowed, |w| Ok((metrics_of(w)?, None)))
    };
    let (r, recorded) = match replayed {
        Ok(v) => v,
        Err(e) => return fail(e.to_string()),
    };
    let mut tables = table2a(&[(app.to_string(), production_stats(&run.access))]);
    tables.push('\n');
    tables.push_str(&table2b(&[(
        app.to_string(),
        consumption_stats(&run.access),
    )]));
    let advice = overlap_sim::core::advisor::advise(
        &run.trace,
        &run.access,
        &platform,
        &ChunkPolicy::paper_default(),
    )
    .render();
    let mut notes = vec![format!(
        "double-buffering demand: {:.1}% of candidate transfers",
        100.0 * overlap_sim::core::double_buffer_demand(&r.overlapped).fraction()
    )];
    if let Some(tail) = overlap_sim::core::patterns::mean_independent_tail(&run.access) {
        notes.push(format!(
            "phase-reorder potential (mean independent tail): {:.1}%",
            100.0 * tail
        ));
    }
    let inputs = overlap_sim::viz::ReportInputs {
        app: app.to_string(),
        ranks: r.original.totals.len(),
        platform: format!(
            "{} MB/s, {} us latency, {} buses, 4 chunks",
            platform.bandwidth_mbs, platform.latency_us, platform.buses
        ),
        pattern_tables: tables,
        advice,
        notes,
    };
    let (o, v, i) = (&recorded.original, &recorded.overlapped, &recorded.ideal);
    let html = overlap_sim::viz::report_full(
        &inputs,
        &[
            (
                "non-overlapped (original)",
                &r.original,
                Some(&o.0),
                o.1.as_ref(),
            ),
            (
                "overlapped (measured patterns)",
                &r.overlapped,
                Some(&v.0),
                v.1.as_ref(),
            ),
            (
                "overlapped (ideal patterns)",
                &r.ideal,
                Some(&i.0),
                i.1.as_ref(),
            ),
        ],
    );
    if let Err(e) = fs::write(out, html) {
        return fail(e.to_string());
    }
    outln!("wrote {out}");
    ExitCode::SUCCESS
}

/// `ovlp sweep`: evaluate the app on a grid of platforms x chunk
/// policies using the parallel sweep engine. Results are bit-identical
/// for any `--jobs` value, and — via the shared [`SweepSpec`] grid
/// builder — byte-identical to what the `ovlp serve` daemon computes
/// for the same axes.
fn sweep_cmd(app: &str, ranks: &str, rest: &[&str]) -> ExitCode {
    use overlap_sim::core::sweep::{sweep, SweepCache};
    use overlap_sim::serve::{SpecError, SweepSpec};

    if let Err(e) = positionals(
        "sweep",
        rest,
        &[
            "--jobs",
            "--chunks",
            "--bw",
            "--buses",
            "--topology",
            "--faults",
            "--store",
            "--metrics",
            "--probe-window",
        ],
        &["--critpath"],
        0,
    ) {
        return fail_usage(e);
    }
    let ranks_n: usize = match ranks.parse() {
        Ok(n) => n,
        Err(e) => return fail_usage(format!("bad rank count: {e}")),
    };
    // Empty axis lists mean "use the spec's defaults", which are the
    // historical CLI defaults (chunks 1,2,4,8; 250 MB/s; preset buses;
    // bus topology; no fault scenarios).
    let mut spec = SweepSpec::new(app, ranks_n);
    spec.jobs = match parse_flag(rest, "--jobs", 1usize) {
        Ok(v) => v,
        Err(e) => return fail_usage(e),
    };
    spec.chunks = match parse_list_flag(rest, "--chunks", Vec::new()) {
        Ok(v) => v,
        Err(e) => return fail_usage(e),
    };
    spec.bandwidths = match parse_list_flag(rest, "--bw", Vec::new()) {
        Ok(v) => v,
        Err(e) => return fail_usage(e),
    };
    spec.buses = match parse_list_flag(rest, "--buses", Vec::new()) {
        Ok(v) => v,
        Err(e) => return fail_usage(e),
    };
    spec.topologies = match parse_list_flag(rest, "--topology", Vec::new()) {
        Ok(v) => v,
        Err(e) => return fail_usage(e),
    };
    spec.faults = match parse_list_flag::<FaultSchedule>(rest, "--faults", Vec::new()) {
        Ok(v) => v,
        Err(e) => return fail_usage(e),
    };
    let (grid, mut config) = match spec.build() {
        Ok(v) => v,
        Err(SpecError::Usage(m)) => return fail_usage(m),
        Err(SpecError::Trace(m)) => return fail(m),
    };
    let metrics_dir = match parse_opt_flag::<String>(rest, "--metrics") {
        Ok(v) => v,
        Err(e) => return fail_usage(e),
    };
    let window_us = match parse_opt_flag::<f64>(rest, "--probe-window") {
        Ok(v) => v,
        Err(e) => return fail_usage(e),
    };
    if let Some(us) = window_us {
        if us <= 0.0 {
            return fail_usage(format!("bad --probe-window value `{us}`: must be positive"));
        }
    }
    // --metrics alone probes at the 100us default window; probed points
    // bypass the cache, so runtimes still replay deterministically.
    config.probe_window_us = match (&metrics_dir, window_us) {
        (_, Some(us)) => Some(us),
        (Some(_), None) => Some(100.0),
        (None, None) => None,
    };
    config.critpath = rest.contains(&"--critpath");
    let store_dir = match parse_opt_flag::<String>(rest, "--store") {
        Ok(v) => v,
        Err(e) => return fail_usage(e),
    };
    let cache = match &store_dir {
        Some(dir) => match SweepCache::persistent(dir) {
            Ok(c) => c,
            Err(e) => return fail(format!("--store {dir}: {e}")),
        },
        None => SweepCache::new(),
    };

    let report = sweep(&grid, &config, &cache);
    out!("{}", report.render_full(&grid));
    let jobs = config.jobs;
    if config.probe_window_us.is_some() || config.critpath {
        eprintln!(
            "({} points in {:.2}s with {} jobs; probed, cache bypassed; {} replays)",
            report.outcomes.len(),
            report.elapsed.as_secs_f64(),
            jobs,
            report.replays,
        );
    } else if let Some(dir) = &store_dir {
        let disk = cache.disk().map(|d| d.stats()).unwrap_or_default();
        eprintln!(
            "({} points in {:.2}s with {} jobs; {} simulated, {} from cache; \
             store {dir}: {} hits, {} misses; {} replays)",
            report.outcomes.len(),
            report.elapsed.as_secs_f64(),
            jobs,
            report.cache_misses,
            report.cache_hits,
            disk.hits,
            disk.misses,
            report.replays,
        );
    } else {
        eprintln!(
            "({} points in {:.2}s with {} jobs; {} simulated, {} from cache; {} replays)",
            report.outcomes.len(),
            report.elapsed.as_secs_f64(),
            jobs,
            report.cache_misses,
            report.cache_hits,
            report.replays,
        );
    }
    if let Some(dirname) = &metrics_dir {
        let dir = Path::new(dirname);
        if let Err(e) = fs::create_dir_all(dir) {
            return fail(e.to_string());
        }
        let mut written = 0usize;
        for p in report.outcomes.iter().flatten() {
            if let Some(m) = &p.metrics {
                for (label, doc) in m.labelled() {
                    let name = format!(
                        "{}-p{}c{}-{label}.json",
                        p.app, p.point.platform, p.point.policy
                    );
                    if let Err(e) = fs::write(dir.join(&name), doc.to_json()) {
                        return fail(e.to_string());
                    }
                    written += 1;
                }
            }
        }
        eprintln!("wrote {written} metric documents to {}", dir.display());
    }
    if report.err_count() == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `ovlp serve`: run the sweep-as-a-service HTTP daemon (see
/// `docs/serving.md` for the protocol). With `--store`, results are
/// shared with `ovlp sweep --store` and survive restarts.
fn serve_cmd(rest: &[&str]) -> ExitCode {
    use overlap_sim::serve::server::install_termination_handler;
    use overlap_sim::serve::{ServeConfig, Server};
    use std::time::Duration;

    if let Err(e) = positionals(
        "serve",
        rest,
        &[
            "--addr",
            "--store",
            "--max-running",
            "--max-conn",
            "--point-deadline",
            "--retries",
            "--backoff-ms",
            "--drain-grace",
        ],
        &[],
        0,
    ) {
        return fail_usage(e);
    }
    let defaults = ServeConfig::default();
    let default_deadline_s = defaults.point_deadline.map(|d| d.as_secs()).unwrap_or(0);
    let default_grace_s = defaults.drain_grace.as_secs();
    let config = ServeConfig {
        addr: match parse_flag(rest, "--addr", defaults.addr) {
            Ok(v) => v,
            Err(e) => return fail_usage(e),
        },
        store_dir: match parse_opt_flag::<String>(rest, "--store") {
            Ok(v) => v.map(std::path::PathBuf::from),
            Err(e) => return fail_usage(e),
        },
        max_running: match parse_flag(rest, "--max-running", defaults.max_running) {
            Ok(v) => v,
            Err(e) => return fail_usage(e),
        },
        max_connections: match parse_flag(rest, "--max-conn", defaults.max_connections) {
            Ok(v) => v,
            Err(e) => return fail_usage(e),
        },
        // Seconds; 0 disables the per-attempt watchdog.
        point_deadline: match parse_flag(rest, "--point-deadline", default_deadline_s) {
            Ok(0) => None,
            Ok(s) => Some(Duration::from_secs(s)),
            Err(e) => return fail_usage(e),
        },
        max_attempts: match parse_flag(rest, "--retries", defaults.max_attempts) {
            Ok(v) => v,
            Err(e) => return fail_usage(e),
        },
        backoff_ms: match parse_flag(rest, "--backoff-ms", defaults.backoff_ms) {
            Ok(v) => v,
            Err(e) => return fail_usage(e),
        },
        drain_grace: match parse_flag(rest, "--drain-grace", default_grace_s) {
            Ok(s) => Duration::from_secs(s),
            Err(e) => return fail_usage(e),
        },
        chaos: std::env::var("OVLP_CHAOS").ok().filter(|s| !s.is_empty()),
    };
    if config.max_running == 0 {
        return fail_usage("--max-running must be at least 1".to_string());
    }
    if config.max_connections == 0 {
        return fail_usage("--max-conn must be at least 1".to_string());
    }
    if config.max_attempts == 0 {
        return fail_usage("--retries must be at least 1 (it counts total attempts)".to_string());
    }
    let addr = config.addr.clone();
    let server = match Server::bind(config.clone()) {
        Ok(s) => s,
        Err(e) => return fail(format!("bind {addr}: {e}")),
    };
    match server.local_addr() {
        Ok(bound) => outln!("ovlp serve listening on http://{bound}"),
        Err(e) => return fail(e.to_string()),
    }
    match &config.store_dir {
        Some(dir) => outln!("store: {}", dir.display()),
        None => outln!("store: in-memory (gone on exit; pass --store dir to persist)"),
    }
    if config.chaos.is_some() {
        outln!("chaos: fault injection armed via OVLP_CHAOS");
    }
    // Scripts (and the CI smoke job) wait for the banner to know the
    // listener is ready; make sure it is not stuck in the pipe buffer.
    let _ = std::io::stdout().flush();

    // SIGTERM/SIGINT → drain: the handler only sets a flag; this
    // watcher thread notices it and runs the bounded drain, so the
    // daemon always exits 0 with a flushed journal.
    let term = install_termination_handler();
    let handle = match server.handle() {
        Ok(h) => h,
        Err(e) => return fail(e.to_string()),
    };
    let grace = config.drain_grace;
    std::thread::spawn(move || {
        while !term.load(std::sync::atomic::Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(50));
        }
        eprintln!("ovlp serve: termination signal, draining (grace {grace:?})");
        handle.drain(grace);
    });
    match server.run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => fail(e.to_string()),
    }
}

/// Check a subcommand's trailing arguments and return its positionals.
/// `values` are the flags that take a value, `switches` those that take
/// none; any other `--token`, and any positional past the first `max`,
/// is a usage error that names the token — a misspelled flag must not
/// silently fall back to a default.
fn positionals<'a>(
    cmd: &str,
    rest: &[&'a str],
    values: &[&str],
    switches: &[&str],
    max: usize,
) -> Result<Vec<&'a str>, String> {
    let mut pos = Vec::new();
    let mut args = rest.iter();
    while let Some(&a) = args.next() {
        if values.contains(&a) {
            // a missing value is reported by the flag's own parser
            args.next();
        } else if !switches.contains(&a) {
            if a.starts_with("--") || pos.len() == max {
                return Err(format!("unknown `{cmd}` argument `{a}`"));
            }
            pos.push(a);
        }
    }
    Ok(pos)
}

/// `--flag value` lookup with a default.
fn parse_flag<T: std::str::FromStr>(args: &[&str], flag: &str, default: T) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    match args.iter().position(|a| *a == flag) {
        None => Ok(default),
        Some(i) => match args.get(i + 1) {
            None => Err(format!("{flag} needs a value")),
            Some(v) => v
                .parse()
                .map_err(|e| format!("bad {flag} value `{v}`: {e}")),
        },
    }
}

/// `--flag value` lookup returning `None` when the flag is absent.
fn parse_opt_flag<T: std::str::FromStr>(args: &[&str], flag: &str) -> Result<Option<T>, String>
where
    T::Err: std::fmt::Display,
{
    match args.iter().position(|a| *a == flag) {
        None => Ok(None),
        Some(i) => match args.get(i + 1) {
            None => Err(format!("{flag} needs a value")),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|e| format!("bad {flag} value `{v}`: {e}")),
        },
    }
}

/// `--flag a,b,c` lookup with a default list.
fn parse_list_flag<T: std::str::FromStr>(
    args: &[&str],
    flag: &str,
    default: Vec<T>,
) -> Result<Vec<T>, String>
where
    T::Err: std::fmt::Display,
{
    match args.iter().position(|a| *a == flag) {
        None => Ok(default),
        Some(i) => match args.get(i + 1) {
            None => Err(format!("{flag} needs a comma-separated list")),
            Some(v) => v
                .split(',')
                .map(|s| {
                    s.trim()
                        .parse()
                        .map_err(|e| format!("bad {flag} entry `{s}`: {e}"))
                })
                .collect(),
        },
    }
}

fn paraver_cmd(app: &str, ranks: &str, outdir: &str, rest: &[&str]) -> ExitCode {
    if let Err(e) = positionals("paraver", rest, &["--topology", "--probe-window"], &[], 0) {
        return fail_usage(e);
    }
    let topology = match parse_opt_flag::<ContentionModel>(rest, "--topology") {
        Ok(t) => t,
        Err(e) => return fail_usage(e),
    };
    let (bundle, _, platform) = match prepare(app, ranks, Scatter::Skip, topology) {
        Ok(v) => v,
        Err(e) => return bail(e),
    };
    let window = match probe_window_arg(rest, &bundle, &platform) {
        Ok(w) => w,
        Err(e) => return bail(e),
    };
    let windowed = || WindowedRecorder::new(window);
    let (r, metrics) = match run_variants(&bundle, &platform, windowed, metrics_of) {
        Ok(v) => v,
        Err(e) => return fail(e.to_string()),
    };
    let dir = Path::new(outdir);
    if let Err(e) = fs::create_dir_all(dir) {
        return fail(e.to_string());
    }
    let span = r.original.runtime.max(r.overlapped.runtime);
    for (label, sim, m) in [
        ("original", &r.original, &metrics.original),
        ("overlapped", &r.overlapped, &metrics.overlapped),
    ] {
        let e = paraver::export_with_metrics(&format!("{app}-{label}"), sim, Some(m));
        for (ext, body) in [("prv", e.prv), ("pcf", e.pcf), ("row", e.row)] {
            let path = dir.join(format!("{app}-{label}.{ext}"));
            if let Err(err) = fs::write(&path, body) {
                return fail(err.to_string());
            }
        }
        let svg = timeline_svg(&format!("{app} {label}"), sim, 1200, span);
        if let Err(err) = fs::write(dir.join(format!("{app}-{label}.svg")), svg) {
            return fail(err.to_string());
        }
    }
    outln!("wrote Paraver + SVG artifacts to {}", dir.display());
    ExitCode::SUCCESS
}

/// A windowed recorder's document; a run past its window ceiling fails
/// like the replay.
fn metrics_of(w: WindowedRecorder) -> Result<Metrics, SimError> {
    Ok(w.into_metrics()?)
}

/// Resolve `--probe-window` for the app-level commands: explicit value
/// in microseconds, else 1/256 of the original variant's runtime
/// (one extra unprobed replay to measure it).
fn probe_window_arg(
    rest: &[&str],
    bundle: &VariantBundle,
    platform: &Platform,
) -> Result<Time, CliError> {
    match parse_opt_flag::<f64>(rest, "--probe-window").map_err(CliError::Usage)? {
        Some(us) if us > 0.0 => Ok(Time::micros(us)),
        Some(us) => Err(CliError::Usage(format!(
            "bad --probe-window value `{us}`: must be positive"
        ))),
        None => {
            let base =
                simulate(&bundle.original, platform).map_err(|e| CliError::Run(e.to_string()))?;
            Ok(auto_window(base.runtime()))
        }
    }
}
