//! `ovlp` — command-line front end for the overlap-analysis framework.
//!
//! Run `ovlp help` for the subcommand list. It is rendered from the
//! [`COMMANDS`] table, which also declares each command's positional
//! arguments and flags for the one parser and names the function that
//! runs it, so the help text cannot drift from what the binary accepts.

use overlap_sim::apps::AppEntry;
use overlap_sim::core::chunk::ChunkPolicy;
use overlap_sim::core::double_buffer_demand;
use overlap_sim::core::experiments::{
    chunk_search, default_candidates, recorded, recorders, run_variants, SpeedupResult, Variants,
};
use overlap_sim::core::patterns::{consumption_stats, mean_independent_tail, production_stats};
use overlap_sim::core::pipeline::{build_variants, VariantBundle};
use overlap_sim::core::presets::marenostrum_for;
use overlap_sim::core::report::{pct, table2a, table2b};
use overlap_sim::instr::{TraceOptions, TraceRun};
use overlap_sim::machine::chanstat::render_top;
use overlap_sim::machine::{
    replay_scale, simulate, simulate_probed, ContentionModel, CritPath, FaultSchedule, Metrics,
    NoopSink, Platform, SimError, SimResult, Time,
};
use overlap_sim::trace::access_text::{self, AccessErrorKind};
use overlap_sim::trace::{text, Trace, TraceSource};
use overlap_sim::viz::{gantt_comparison, link_heatmap_ascii, paraver, timeline_svg, wait_report};
use std::fmt::Display;
use std::fs;
use std::io::Write;
use std::path::Path;
use std::process::ExitCode;
use std::str::FromStr;

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

/// How a flag takes its argument.
#[derive(Clone, Copy, PartialEq)]
enum Kind {
    /// `--flag value`
    Value,
    /// `--flag a,b,..`
    List,
    /// `--flag` alone
    Switch,
}
use Kind::{List, Switch, Value};

/// One flag a command accepts: its name, how it takes its argument,
/// and what the help calls that argument.
struct Flag(&'static str, Kind, &'static str);

/// One `ovlp` subcommand: what `ovlp help` shows, what [`parse`]
/// accepts, and the function that runs it.
struct Cmd {
    name: &'static str,
    /// Positionals as the help shows them: the required `<x>` ones,
    /// then the optional `[x]` ones.
    pos: &'static [&'static str],
    flags: &'static [Flag],
    about: &'static str,
    run: fn(&Args) -> CliResult,
}

const APP_RANKS: &[&str] = &["<app>", "<ranks>"];
const TOPOLOGY: Flag = Flag("--topology", Value, "T");
const PROBE_WINDOW: Flag = Flag("--probe-window", Value, "us");
const CRITPATH: Flag = Flag("--critpath", Switch, "");

const COMMANDS: &[Cmd] = &[
    Cmd {
        name: "list",
        pos: &[],
        flags: &[],
        about: "list the application pool",
        run: list_cmd,
    },
    Cmd {
        name: "analyze",
        pos: APP_RANKS,
        flags: &[],
        about: "patterns, benefits, timelines, waits, chunks, advice",
        run: analyze_cmd,
    },
    Cmd {
        name: "trace",
        pos: &["<app>", "<ranks>", "<outdir>"],
        flags: &[],
        about: "write .trf traces + the .acc access log",
        run: trace_cmd,
    },
    Cmd {
        name: "transform",
        pos: &["<trace.trf>", "<log.acc>"],
        flags: &[],
        about: "rewrite a trace offline (stdout)",
        run: transform_cmd,
    },
    Cmd {
        name: "simulate",
        pos: &["<trace.trf|app>", "[bw]", "[buses]"],
        flags: &[
            Flag("--ranks", Value, "N"),
            TOPOLOGY,
            Flag("--faults", Value, "SPEC"),
            Flag("--metrics", Value, "out.json"),
            PROBE_WINDOW,
            CRITPATH,
        ],
        about: "replay a trace file or pool app on a platform",
        run: simulate_cmd,
    },
    Cmd {
        name: "scale",
        pos: &["<app>", "<ranks>", "[bw]", "[buses]"],
        flags: &[],
        about: "streamed O(active-state) weak-scaling replay summary",
        run: scale_cmd,
    },
    Cmd {
        name: "stats",
        pos: &["<trace.trf>"],
        flags: &[],
        about: "structural statistics of a trace file",
        run: stats_cmd,
    },
    Cmd {
        name: "report",
        pos: &["<app>", "<ranks>", "<out.html>"],
        flags: &[TOPOLOGY, PROBE_WINDOW, CRITPATH],
        about: "self-contained HTML analysis report",
        run: report_cmd,
    },
    Cmd {
        name: "paraver",
        pos: &["<app>", "<ranks>", "<outdir>"],
        flags: &[TOPOLOGY, PROBE_WINDOW],
        about: "Paraver .prv/.pcf/.row (with counters) + SVG for both variants",
        run: paraver_cmd,
    },
    Cmd {
        name: "sweep",
        pos: APP_RANKS,
        flags: &[
            Flag("--jobs", Value, "N"),
            Flag("--chunks", List, "a,b,.."),
            Flag("--bw", List, "a,b,.."),
            Flag("--buses", List, "a,b,.."),
            Flag("--topology", List, "t1,t2,.."),
            Flag("--faults", List, "f1,f2,.."),
            Flag("--store", Value, "dir"),
            Flag("--metrics", Value, "dir"),
            PROBE_WINDOW,
            CRITPATH,
        ],
        about: "parallel parameter sweep over platforms x policies",
        run: sweep_cmd,
    },
    Cmd {
        name: "serve",
        pos: &[],
        flags: &[
            Flag("--addr", Value, "host:port"),
            Flag("--store", Value, "dir"),
            Flag("--max-running", Value, "N"),
            Flag("--max-conn", Value, "N"),
            Flag("--point-deadline", Value, "s"),
            Flag("--retries", Value, "N"),
            Flag("--backoff-ms", Value, "ms"),
            Flag("--drain-grace", Value, "s"),
        ],
        about: "sweep-as-a-service HTTP daemon over the persistent result store",
        run: serve_cmd,
    },
    Cmd {
        name: "paper",
        pos: &[],
        flags: &[Flag("--jobs", Value, "N"), Flag("--out", Value, "DIR")],
        about: "the paper's evaluation: Tables I-II, Figs. 4-6, SC'06 model, ablations",
        run: paper_cmd,
    },
    Cmd {
        name: "help",
        pos: &[],
        flags: &[],
        about: "show this help",
        run: help_cmd,
    },
];

fn usage() -> String {
    let mut s = String::from("usage: ovlp <command> [args]\n\ncommands:\n");
    for c in COMMANDS {
        let mut head = c.name.to_string();
        for p in c.pos {
            head = format!("{head} {p}");
        }
        for Flag(name, kind, meta) in c.flags {
            head = match kind {
                Switch => format!("{head} [{name}]"),
                _ => format!("{head} [{name} {meta}]"),
            };
        }
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
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (code, msg) = match parse(&argv).and_then(|args| (args.cmd.run)(&args)) {
        Ok(code) => return code,
        Err(CliError::Invocation) => (2, usage()),
        Err(CliError::Usage(m)) => (2, format!("error: {m}\n")),
        Err(CliError::Run(m)) => (1, format!("error: {m}\n")),
    };
    eprint!("{msg}");
    ExitCode::from(code)
}

type CliResult<T = ExitCode> = Result<T, CliError>;

/// CLI failure, classified for the exit code: `Invocation` (no command
/// matches; the usage text is shown) and `Usage` exit 2, `Run` exits 1.
enum CliError {
    Invocation,
    Usage(String),
    Run(String),
}

/// Errors of running a command (I/O, simulation, probes) exit 1; usage
/// errors are raised explicitly with [`usage_err`].
impl<E: std::error::Error> From<E> for CliError {
    fn from(e: E) -> CliError {
        CliError::Run(e.to_string())
    }
}

fn usage_err(msg: impl Display) -> CliError {
    CliError::Usage(msg.to_string())
}

fn run_err(msg: impl Display) -> CliError {
    CliError::Run(msg.to_string())
}

/// A command line, checked against its command's declaration.
struct Args<'a> {
    cmd: &'static Cmd,
    /// The required positional arguments.
    pos: Vec<&'a str>,
    /// The optional positional arguments given.
    extra: Vec<&'a str>,
    /// Each flag given once, with its value (`None` for a switch, or
    /// when the line ends first).
    flags: Vec<(&'static Flag, Option<&'a str>)>,
}

/// Match `argv` to a command in one walk. The required positional
/// arguments come first, in order; after them any token naming one of
/// the command's flags is that flag (taking the next token as its value
/// unless it is a switch), and any other token fills the next optional
/// positional argument. An unknown `--token`, a `--token` where a
/// required positional argument goes, a flag given twice, or a
/// positional argument past the declared ones, is a usage error that
/// names it — a misspelled or repeated flag must not silently fall
/// back to a default or lose its value. A command without flags or
/// optional positional arguments shows the usage text instead.
fn parse(argv: &[String]) -> CliResult<Args<'_>> {
    let (name, rest) = argv.split_first().ok_or(CliError::Invocation)?;
    let name = if name == "--help" || name == "-h" {
        "help"
    } else {
        name
    };
    let cmd = COMMANDS
        .iter()
        .find(|c| c.name == name)
        .ok_or(CliError::Invocation)?;
    let required = cmd.pos.iter().filter(|p| p.starts_with('<')).count();
    let fixed = cmd.flags.is_empty() && cmd.pos.len() == required;
    if rest.len() < required || (fixed && rest.len() > required) {
        return Err(CliError::Invocation);
    }
    let mut args = Args {
        cmd,
        pos: rest[..required].iter().map(String::as_str).collect(),
        extra: Vec::new(),
        flags: Vec::new(),
    };
    if let Some(tok) = args.pos.iter().find(|t| t.starts_with("--")) {
        return Err(usage_err(format!(
            "`{name}` takes {} first, not the flag `{tok}`",
            cmd.pos[..required].join(" ")
        )));
    }
    let mut tokens = rest[required..].iter().map(String::as_str);
    while let Some(tok) = tokens.next() {
        match cmd.flags.iter().find(|f| f.0 == tok) {
            Some(_) if args.flags.iter().any(|(f, _)| f.0 == tok) => {
                return Err(usage_err(format!("`{name}` flag `{tok}` given twice")))
            }
            Some(f @ Flag(_, Switch, _)) => args.flags.push((f, None)),
            Some(f) => args.flags.push((f, tokens.next())),
            None if !tok.starts_with("--") && required + args.extra.len() < cmd.pos.len() => {
                args.extra.push(tok)
            }
            None => return Err(usage_err(format!("unknown `{name}` argument `{tok}`"))),
        }
    }
    Ok(args)
}

impl<'a> Args<'a> {
    /// Whether switch `name` was given.
    fn switch(&self, name: &str) -> bool {
        self.flags.iter().any(|(f, _)| f.0 == name)
    }

    /// The text after flag `name`, if the flag was given.
    fn raw(&self, name: &str) -> CliResult<Option<&'a str>> {
        match self.flags.iter().find(|(f, _)| f.0 == name) {
            None => Ok(None),
            Some((_, Some(v))) => Ok(Some(v)),
            Some((Flag(_, List, _), None)) => {
                Err(usage_err(format!("{name} needs a comma-separated list")))
            }
            Some(_) => Err(usage_err(format!("{name} needs a value"))),
        }
    }

    /// `--flag value`, parsed.
    fn value<T: FromStr>(&self, name: &str) -> CliResult<Option<T>>
    where
        T::Err: Display,
    {
        let parse = |v: &str| {
            v.parse()
                .map_err(|e| usage_err(format!("bad {name} value `{v}`: {e}")))
        };
        self.raw(name)?.map(parse).transpose()
    }

    /// `--flag a,b,c`, each entry parsed; empty when the flag is absent.
    fn list<T: FromStr>(&self, name: &str) -> CliResult<Vec<T>>
    where
        T::Err: Display,
    {
        let Some(v) = self.raw(name)? else {
            return Ok(Vec::new());
        };
        v.split(',')
            .map(|s| {
                s.trim()
                    .parse()
                    .map_err(|e| usage_err(format!("bad {name} entry `{s}`: {e}")))
            })
            .collect()
    }
}

/// The command line's amendments to a base platform: `--topology`,
/// `--faults` and the optional `[bw] [buses]` positional arguments,
/// where the command takes them. The flags are parsed here, before any
/// input is read; `[bw] [buses]` when the platform is built.
struct Net<'a> {
    topology: Option<ContentionModel>,
    faults: Option<FaultSchedule>,
    bw_buses: &'a [&'a str],
}

impl<'a> Net<'a> {
    fn parse(args: &'a Args) -> CliResult<Net<'a>> {
        Ok(Net {
            topology: args.value("--topology")?,
            faults: args.value("--faults")?,
            bw_buses: &args.extra,
        })
    }

    /// `base` as amended, refused when a number is outside its accepted
    /// range or the fabric is too small for `nranks` ranks, or far too
    /// large — before anything is compiled or traced.
    fn platform(self, mut base: Platform, nranks: usize) -> CliResult<Platform> {
        if let Some(model) = self.topology {
            base = base.with_contention(model);
        }
        if let Some(f) = self.faults {
            base = base.with_faults(f);
        }
        if let Some(bw) = self.bw_buses.first() {
            base.bandwidth_mbs = bw
                .parse()
                .map_err(|e| usage_err(format!("bad bandwidth: {e}")))?;
        }
        if let Some(buses) = self.bw_buses.get(1) {
            base.buses = buses
                .parse()
                .map_err(|e| usage_err(format!("bad bus count: {e}")))?;
        }
        base.check_ranges().map_err(CliError::Usage)?;
        if let ContentionModel::Flow(topo) = &base.contention {
            topo.check_size(base.nodes(nranks))
                .map_err(CliError::Usage)?;
        }
        Ok(base)
    }
}

/// The pool app `name` (`ovlp list`) at `ranks` ranks (its default count
/// when `None`) on its calibrated Table I platform as `net` amends it.
/// Every usage error is found here, before anything is traced.
fn pool_app(name: &str, ranks: Option<usize>, net: Net) -> CliResult<(AppEntry, usize, Platform)> {
    let entry = overlap_sim::apps::registry::by_name(name)
        .ok_or_else(|| usage_err(format!("unknown app `{name}` (try `ovlp list`)")))?;
    let ranks = ranks.unwrap_or(entry.ranks);
    // Rank-count violations (odd counts on XOR apps, counts past the
    // thread-per-rank cap) are the caller's mistake: exit 2, not 1.
    entry.validate_ranks(ranks).map_err(CliError::Usage)?;
    let platform = net.platform(marenostrum_for(entry.name), ranks)?;
    Ok((entry, ranks, platform))
}

/// [`pool_app`] for the `<app> <ranks>` positional arguments.
fn app_args(args: &Args) -> CliResult<(AppEntry, usize, Platform)> {
    let net = Net::parse(args)?;
    let ranks = rank_count(args.pos[1])?;
    pool_app(args.pos[0], Some(ranks), net)
}

fn rank_count(s: &str) -> CliResult<usize> {
    s.parse()
        .map_err(|e| usage_err(format!("bad rank count: {e}")))
}

/// Read and parse the `.trf` file at `path`; failures name the file.
fn load_trace(path: &str) -> CliResult<Trace> {
    let content = fs::read_to_string(path).map_err(|e| run_err(format!("{path}: {e}")))?;
    text::parse(&content).map_err(|e| run_err(format!("{path}: {e}")))
}

/// Whether a command reads the Figure-5 access scatter (`access.acc`
/// `e` lines, the independent-tail estimate). Only those capture it.
#[derive(Clone, Copy)]
enum Scatter {
    Capture,
    Skip,
}

/// Trace the `<app> <ranks>` of `args` and build its variants.
fn prepare(args: &Args, scatter: Scatter) -> CliResult<(VariantBundle, TraceRun, Platform)> {
    let (entry, ranks, platform) = app_args(args)?;
    let run = match scatter {
        Scatter::Capture => entry.trace_run_with(ranks, &TraceOptions::default()),
        Scatter::Skip => entry.trace_run(ranks),
    }
    .map_err(CliError::Run)?;
    let bundle = build_variants(&run, &ChunkPolicy::paper_default());
    Ok((bundle, run, platform))
}

/// `--probe-window`, in microseconds, refused unless positive and finite.
fn window_flag(args: &Args) -> CliResult<Option<f64>> {
    match args.value::<f64>("--probe-window")? {
        Some(us) if us.is_finite() && us > 0.0 => Ok(Some(us)),
        Some(us) => Err(usage_err(format!(
            "bad --probe-window value `{us}`: must be positive and finite"
        ))),
        None => Ok(None),
    }
}

/// The probe window: `us` microseconds when given, else 1/256 of the
/// runtime of `base`, an extra (cheap, deterministic) unprobed replay,
/// so every run gets a usefully dense timeline whatever its scale (a
/// floor of 1ns for degenerate runs).
fn probe_window(
    us: Option<f64>,
    base: impl FnOnce() -> Result<SimResult, SimError>,
) -> Result<Time, SimError> {
    if let Some(us) = us {
        return Ok(Time::micros(us));
    }
    let w = base()?.runtime() / 256.0;
    Ok(Time::secs(if w > 0.0 { w } else { 1e-9 }))
}

/// What [`recorders`] keep of each variant.
type Recorded = (Option<Metrics>, Option<CritPath>);

/// Trace the `<app> <ranks>` of `args` and replay its variants probed:
/// windowed metrics always, the critical path under `--critpath`.
fn replay_probed(
    args: &Args,
    scatter: Scatter,
) -> CliResult<(TraceRun, Platform, SpeedupResult, Variants<Recorded>)> {
    let us = window_flag(args)?;
    let (bundle, run, platform) = prepare(args, scatter)?;
    let window = probe_window(us, || simulate(&bundle.original, &platform))?;
    let critpath = args.switch("--critpath");
    let (r, recorded) = run_variants(
        &bundle,
        &platform,
        || recorders(Some(window), critpath),
        |rec| Ok(recorded(rec)?),
    )?;
    Ok((run, platform, r, recorded))
}

/// Table II(a) and II(b) for `app`, a blank line apart.
fn pattern_tables(app: &str, run: &TraceRun) -> String {
    let a = table2a(&[(app.to_string(), production_stats(&run.access))]);
    let b = table2b(&[(app.to_string(), consumption_stats(&run.access))]);
    format!("{a}\n{b}")
}

/// Per-transfer restructuring advice for the paper's chunk policy.
fn advice(run: &TraceRun, platform: &Platform) -> String {
    let policy = ChunkPolicy::paper_default();
    overlap_sim::core::advisor::advise(&run.trace, &run.access, platform, &policy).render()
}

/// The sections of `ovlp analyze`, in order: each name and the text
/// printed under its `## <name>` heading. `r` is the plain replay of
/// the variants of `run` on `platform`; only the chunk search replays
/// again, once per chunk count other than the paper's 4. `report`
/// renders [`pattern_tables`] and [`advice`] too.
fn analysis(
    app: &str,
    run: &TraceRun,
    platform: &Platform,
    r: &SpeedupResult,
) -> CliResult<Vec<(&'static str, String)>> {
    let (o, v) = (&r.original, &r.overlapped);
    let demand = double_buffer_demand(v);
    // the paper's §VII future work, quantified: how much more
    // postponement would phase-level reordering expose?
    let tail = match mean_independent_tail(&run.access) {
        Some(tail) => format!(
            "phase-reorder potential (mean independent tail): {}",
            pct(Some(100.0 * tail))
        ),
        None => "phase-reorder potential: n/a (scatter capture off)".to_string(),
    };
    let s = chunk_search(run, platform, &default_candidates(), r)?;
    let points: String = s
        .points
        .iter()
        .map(|p| {
            let (c, t, x) = (p.chunks, p.runtime, p.speedup_vs_original);
            let best = if c == s.best.chunks { "  <= best" } else { "" };
            format!("{c:>3} chunks: {t:.4}s (x{x:.3}){best}\n")
        })
        .collect();
    Ok(vec![
        ("patterns", format!("{}\n", pattern_tables(app, run))),
        (
            "runtimes",
            format!(
                "runtime: original {:.4}s  overlapped {:.4}s (x{:.3})  ideal {:.4}s (x{:.3})\n\
                 wait/rank: original {:.1}us  overlapped {:.1}us\n",
                o.runtime(),
                v.runtime(),
                r.speedup_real(),
                r.ideal.runtime(),
                r.speedup_ideal(),
                o.total_wait() * 1e6 / o.totals.len() as f64,
                v.total_wait() * 1e6 / v.totals.len() as f64,
            ),
        ),
        (
            "double-buffering",
            format!(
                "double-buffering demand: {} of {} candidate transfers ({})\n{tail}\n\n",
                demand.early_arrivals,
                demand.candidates,
                pct(Some(100.0 * demand.fraction()))
            ),
        ),
        (
            "channels",
            format!(
                "heaviest channels (original execution):\n{}",
                render_top(o, 8)
            ),
        ),
        (
            "gantt",
            format!(
                "{}\n",
                gantt_comparison("non-overlapped", o, "overlapped", v, 100)
            ),
        ),
        (
            "waits",
            format!(
                "== non-overlapped ==\n{}\n== overlapped ==\n{}\n",
                wait_report(o, 48),
                wait_report(v, 48)
            ),
        ),
        (
            "chunks",
            format!(
                "original runtime: {:.4}s\n{points}recommendation: {} chunks (the paper fixes 4)\n",
                s.original_runtime, s.best.chunks
            ),
        ),
        ("advice", advice(run, platform)),
    ])
}

/// A state total in seconds for printing. A state a rank never entered
/// sums an empty series, which `f64` makes `-0.0`; adding `+0.0` turns
/// it into `0.0` (and leaves every other value as it is), so the line
/// never reads `-0.000`.
fn unsigned(t: Time) -> f64 {
    t.as_secs() + 0.0
}

fn list_cmd(_: &Args) -> CliResult {
    for e in overlap_sim::apps::paper_pool() {
        let kind = if e.is_generated() {
            "generated; weak-scales via --ranks / ovlp scale"
        } else {
            "traced"
        };
        outln!("{:<12} (default {} ranks, {kind})", e.name, e.ranks);
    }
    Ok(ExitCode::SUCCESS)
}

fn help_cmd(_: &Args) -> CliResult {
    out!("{}", usage());
    Ok(ExitCode::SUCCESS)
}

/// `ovlp analyze`: trace the app once, replay its three variants once,
/// and print every section of [`analysis`].
fn analyze_cmd(args: &Args) -> CliResult {
    let (bundle, run, platform) = prepare(args, Scatter::Capture)?;
    let (r, _) = run_variants(&bundle, &platform, || NoopSink, |_| Ok(()))?;
    for (name, body) in analysis(args.pos[0], &run, &platform, &r)? {
        out!("## {name}\n{body}");
    }
    Ok(ExitCode::SUCCESS)
}

fn trace_cmd(args: &Args) -> CliResult {
    let (bundle, run, _) = prepare(args, Scatter::Capture)?;
    let dir = Path::new(args.pos[2]);
    fs::create_dir_all(dir)?;
    for (name, body) in [
        ("original.trf", text::emit(&bundle.original)),
        ("overlapped.trf", text::emit(&bundle.overlapped)),
        ("ideal.trf", text::emit(&bundle.ideal)),
    ] {
        let path = dir.join(name);
        fs::write(&path, body)?;
        outln!("wrote {}", path.display());
    }
    // the access log runs to gigabytes at a few hundred ranks: stream it
    let path = dir.join("access.acc");
    fs::File::create(&path)
        .and_then(|f| access_text::emit(&run.access, f))
        .map_err(|e| run_err(format!("{}: {e}", path.display())))?;
    outln!("wrote {}", path.display());
    Ok(ExitCode::SUCCESS)
}

/// Offline transformation: the paper's §III-C generation step applied
/// to artifacts on disk.
fn transform_cmd(args: &Args) -> CliResult {
    let (trf, acc) = (args.pos[0], args.pos[1]);
    let trace = load_trace(trf)?;
    let file = fs::File::open(acc).map_err(|e| run_err(format!("{acc}: {e}")))?;
    let access = access_text::parse(std::io::BufReader::new(file)).map_err(|e| match e.kind {
        AccessErrorKind::Inconsistent => usage_err(format!("{acc}: {e}")),
        AccessErrorKind::Malformed => run_err(format!("{acc}: {e}")),
    })?;
    // logs that contradict the trace would make the rewrite panic
    overlap_sim::core::check_intervals(&trace, &access)
        .map_err(|e| usage_err(format!("{acc} does not fit {trf}: {e}")))?;
    let out = overlap_sim::core::transform(&trace, &access, &ChunkPolicy::paper_default());
    out!("{}", text::emit(&out));
    Ok(ExitCode::SUCCESS)
}

fn stats_cmd(args: &Args) -> CliResult {
    let trace = load_trace(args.pos[0])?;
    outln!("{}", overlap_sim::trace::TraceStats::of(&trace));
    let errs = overlap_sim::trace::validate(&trace);
    if errs.is_empty() {
        outln!("validation:       ok");
        return Ok(ExitCode::SUCCESS);
    }
    outln!("validation:       {} problems", errs.len());
    for e in errs.iter().take(10) {
        outln!("  - {e}");
    }
    Ok(ExitCode::FAILURE)
}

fn simulate_cmd(args: &Args) -> CliResult {
    // Flags are parsed before the trace is read, so malformed flags
    // are reported as usage errors (exit 2) even when the file is also
    // missing or unreadable (exit 1).
    let path = args.pos[0];
    let net = Net::parse(args)?;
    let metrics_out: Option<String> = args.value("--metrics")?;
    let window_us = window_flag(args)?;
    let ranks: Option<usize> = args.value("--ranks")?;
    let critpath = args.switch("--critpath");
    // The positional either names a trace file on disk or a pool app
    // (`ovlp list`); files win when both exist. Pool apps replay their
    // registry source (the lean trace of a traced app, or the generator
    // itself, never materialized) on their calibrated Table I platform;
    // trace files keep the historical default platform.
    let app = overlap_sim::apps::registry::by_name(path).filter(|_| !Path::new(path).exists());
    let (input, platform): (Box<dyn TraceSource>, Platform) = match app {
        Some(_) => {
            let (entry, ranks, platform) = pool_app(path, ranks, net)?;
            (entry.source(ranks).map_err(CliError::Run)?, platform)
        }
        None if ranks.is_some() => {
            return Err(usage_err(format!(
                "--ranks applies to pool apps, but `{path}` is a trace file \
                 (rank count comes from the trace)"
            )))
        }
        None => {
            let trace = load_trace(path)?;
            let platform = net.platform(Platform::default(), trace.nranks())?;
            (Box::new(trace), platform)
        }
    };
    let input = input.as_ref();
    // Probing is on when either metrics flag is given; the replay
    // results are bit-identical with and without it (and with or
    // without --critpath — probes observe, never influence).
    let probing = metrics_out.is_some() || window_us.is_some();
    let window = probing
        .then(|| probe_window(window_us, || simulate(input, &platform)))
        .transpose()?;
    let (r, (metrics, critpath)) = if window.is_none() && !critpath {
        (simulate(input, &platform)?, (None, None))
    } else {
        let mut rec = recorders(window, critpath);
        let r = simulate_probed(input, &platform, &mut rec)?;
        (r, recorded(rec)?)
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
    let Some(m) = &metrics else {
        return Ok(ExitCode::SUCCESS);
    };
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
        fs::write(out, doc)?;
        outln!("wrote {out}");
    }
    Ok(ExitCode::SUCCESS)
}

/// `ovlp scale`: streamed totals-only replay for weak-scaling studies.
/// It keeps no timelines or comm records, so memory stays O(active
/// ranks + in-flight traffic) and generated apps run at 100k–1M ranks
/// where `simulate` would exhaust the machine.
fn scale_cmd(args: &Args) -> CliResult {
    let (entry, ranks, platform) = app_args(args)?;
    let source = entry.source(ranks).map_err(CliError::Run)?;
    let rep = replay_scale(source.as_ref(), &platform)?;
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
    Ok(ExitCode::SUCCESS)
}

fn report_cmd(args: &Args) -> CliResult {
    let (app, out) = (args.pos[0], args.pos[2]);
    let (run, platform, r, recorded) = replay_probed(args, Scatter::Capture)?;
    let mut notes = vec![format!(
        "double-buffering demand: {:.1}% of candidate transfers",
        100.0 * double_buffer_demand(&r.overlapped).fraction()
    )];
    if let Some(tail) = mean_independent_tail(&run.access) {
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
        pattern_tables: pattern_tables(app, &run),
        advice: advice(&run, &platform),
        notes,
    };
    let html = overlap_sim::viz::report_full(
        &inputs,
        &[
            ("non-overlapped (original)", &r.original, &recorded.original),
            (
                "overlapped (measured patterns)",
                &r.overlapped,
                &recorded.overlapped,
            ),
            ("overlapped (ideal patterns)", &r.ideal, &recorded.ideal),
        ]
        .map(|(label, sim, (m, c))| (label, sim, m.as_ref(), c.as_ref())),
    );
    fs::write(out, html)?;
    outln!("wrote {out}");
    Ok(ExitCode::SUCCESS)
}

fn paraver_cmd(args: &Args) -> CliResult {
    let app = args.pos[0];
    let (_, _, r, recorded) = replay_probed(args, Scatter::Skip)?;
    let dir = Path::new(args.pos[2]);
    fs::create_dir_all(dir)?;
    let span = r.original.runtime.max(r.overlapped.runtime);
    for (label, sim, (m, _)) in [
        ("original", &r.original, &recorded.original),
        ("overlapped", &r.overlapped, &recorded.overlapped),
    ] {
        let e = paraver::export_with_metrics(&format!("{app}-{label}"), sim, m.as_ref());
        for (ext, body) in [("prv", e.prv), ("pcf", e.pcf), ("row", e.row)] {
            fs::write(dir.join(format!("{app}-{label}.{ext}")), body)?;
        }
        let svg = timeline_svg(&format!("{app} {label}"), sim, 1200, span);
        fs::write(dir.join(format!("{app}-{label}.svg")), svg)?;
    }
    outln!("wrote Paraver + SVG artifacts to {}", dir.display());
    Ok(ExitCode::SUCCESS)
}

/// `ovlp sweep`: evaluate the app on a grid of platforms x chunk
/// policies using the parallel sweep engine. Results are bit-identical
/// for any `--jobs` value, and — via the shared [`SweepSpec`] grid
/// builder — byte-identical to what the `ovlp serve` daemon computes
/// for the same axes.
fn sweep_cmd(args: &Args) -> CliResult {
    use overlap_sim::core::sweep::{sweep, FingerprintFrom, SweepCache};
    use overlap_sim::serve::{SpecError, SweepSpec};

    // Empty axis lists mean "use the spec's defaults", which are the
    // historical CLI defaults (chunks 1,2,4,8; 250 MB/s; preset buses;
    // bus topology; no fault scenarios).
    let mut spec = SweepSpec::new(args.pos[0], rank_count(args.pos[1])?);
    spec.jobs = match args.value("--jobs")? {
        // the daemon's reason for the same job spec
        Some(0) => {
            return Err(usage_err(
                "bad --jobs value `0`: `jobs` must be a positive integer",
            ))
        }
        jobs => jobs.unwrap_or(1),
    };
    spec.chunks = args.list("--chunks")?;
    spec.bandwidths = args.list("--bw")?;
    spec.buses = args.list("--buses")?;
    spec.topologies = args.list("--topology")?;
    spec.faults = args.list("--faults")?;
    let metrics_dir: Option<String> = args.value("--metrics")?;
    let window = window_flag(args)?;
    let critpath = args.switch("--critpath");
    // The store is opened first: a stored trace fingerprint lets the
    // build skip the instrumented run.
    let store_dir: Option<String> = args.value("--store")?;
    let cache = match &store_dir {
        Some(dir) => {
            SweepCache::persistent(dir).map_err(|e| run_err(format!("--store {dir}: {e}")))?
        }
        None => SweepCache::new(),
    };
    let (grid, mut config, from) = spec.build_cached(&cache).map_err(|e| match e {
        SpecError::Usage(m) => CliError::Usage(m),
        SpecError::Trace(m) => CliError::Run(m),
    })?;
    // --metrics alone probes at the 100us default window; probed points
    // bypass the cache, so runtimes still replay deterministically.
    config.probe_window_us = window.or(metrics_dir.as_ref().map(|_| 100.0));
    config.critpath = critpath;

    let report = sweep(&grid, &config, &cache);
    out!("{}", report.render_full(&grid));
    let detail = if config.probe_window_us.is_some() || config.critpath {
        "probed, cache bypassed".to_string()
    } else {
        let mut d = format!(
            "{} simulated, {} from cache",
            report.cache_misses, report.cache_hits
        );
        if let Some(dir) = &store_dir {
            let disk = cache.disk().map(|d| d.stats()).unwrap_or_default();
            d += &format!("; store {dir}: {} hits, {} misses", disk.hits, disk.misses);
        }
        d
    };
    let detail = match from {
        FingerprintFrom::Store => format!("{detail}; trace fingerprint from the store"),
        FingerprintFrom::Trace | FingerprintFrom::Memory => detail,
    };
    eprintln!(
        "({} points in {:.2}s with {} jobs; {detail}; {} replays)",
        report.outcomes.len(),
        report.elapsed.as_secs_f64(),
        config.jobs,
        report.replays,
    );
    if let Some(dirname) = &metrics_dir {
        let dir = Path::new(dirname);
        fs::create_dir_all(dir)?;
        let mut written = 0usize;
        for p in report.outcomes.iter().flatten() {
            for (label, doc) in p.metrics.iter().flat_map(|m| m.labelled()) {
                let name = format!(
                    "{}-p{}c{}-{label}.json",
                    p.app, p.point.platform, p.point.policy
                );
                fs::write(dir.join(&name), doc.to_json())?;
                written += 1;
            }
        }
        eprintln!("wrote {written} metric documents to {}", dir.display());
    }
    Ok(if report.err_count() == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// `ovlp serve`: run the sweep-as-a-service HTTP daemon (see
/// `docs/serving.md` for the protocol). With `--store`, results are
/// shared with `ovlp sweep --store` and survive restarts.
fn serve_cmd(args: &Args) -> CliResult {
    use overlap_sim::serve::server::install_termination_handler;
    use overlap_sim::serve::{ServeConfig, Server};
    use std::time::Duration;

    let defaults = ServeConfig::default();
    let default_deadline_s = defaults.point_deadline.map(|d| d.as_secs()).unwrap_or(0);
    let default_grace_s = defaults.drain_grace.as_secs();
    let config = ServeConfig {
        addr: args.value("--addr")?.unwrap_or(defaults.addr),
        store_dir: args.value("--store")?,
        max_running: args.value("--max-running")?.unwrap_or(defaults.max_running),
        max_connections: args
            .value("--max-conn")?
            .unwrap_or(defaults.max_connections),
        // Seconds; 0 disables the per-attempt watchdog.
        point_deadline: Some(Duration::from_secs(
            args.value("--point-deadline")?
                .unwrap_or(default_deadline_s),
        ))
        .filter(|d| !d.is_zero()),
        max_attempts: args.value("--retries")?.unwrap_or(defaults.max_attempts),
        backoff_ms: args.value("--backoff-ms")?.unwrap_or(defaults.backoff_ms),
        drain_grace: Duration::from_secs(args.value("--drain-grace")?.unwrap_or(default_grace_s)),
        chaos: std::env::var("OVLP_CHAOS").ok().filter(|s| !s.is_empty()),
    };
    if config.max_running == 0 {
        return Err(usage_err("--max-running must be at least 1"));
    }
    if config.max_connections == 0 {
        return Err(usage_err("--max-conn must be at least 1"));
    }
    if config.max_attempts == 0 {
        return Err(usage_err(
            "--retries must be at least 1 (it counts total attempts)",
        ));
    }
    let addr = config.addr.clone();
    let server = Server::bind(config.clone()).map_err(|e| run_err(format!("bind {addr}: {e}")))?;
    outln!("ovlp serve listening on http://{}", server.local_addr()?);
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
    let handle = server.handle()?;
    let grace = config.drain_grace;
    std::thread::spawn(move || {
        while !term.load(std::sync::atomic::Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(50));
        }
        eprintln!("ovlp serve: termination signal, draining (grace {grace:?})");
        handle.drain(grace);
    });
    server.run()?;
    Ok(ExitCode::SUCCESS)
}

/// `ovlp paper`: print the evaluation document; with `--out DIR`, also
/// write its Fig. 4 timelines and Paraver traces and its CSV series
/// there. The document is identical for any `--jobs` value.
fn paper_cmd(args: &Args) -> CliResult {
    let jobs = match args.value("--jobs")? {
        Some(0) => return Err(usage_err("bad --jobs value `0`: must be at least 1")),
        jobs => jobs.unwrap_or(1),
    };
    let out_dir: Option<String> = args.value("--out")?;
    // an unusable output directory fails before the evaluation runs
    if let Some(dir) = &out_dir {
        fs::create_dir_all(dir).map_err(|e| run_err(format!("{dir}: {e}")))?;
    }
    let paper = overlap_sim::paper::render(jobs).map_err(run_err)?;
    if let Some(dir) = out_dir {
        let dir = Path::new(&dir);
        for (name, body) in &paper.files {
            let path = dir.join(name);
            fs::write(&path, body).map_err(|e| run_err(format!("{}: {e}", path.display())))?;
        }
        eprintln!("wrote {} files to {}", paper.files.len(), dir.display());
    }
    out!("{}", paper.text);
    Ok(ExitCode::SUCCESS)
}
