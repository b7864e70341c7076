//! `paper-sweep`: the paper's pipeline — instrumented run, overlap
//! transform, replay on bus and flow topologies — through the shipped
//! `ovlp sweep`, plus a mirror of that pipeline that calls each layer
//! separately, which the traced run (in a fresh process) and the
//! daemon's probes time layer by layer.

use crate::gauge::Gauge;
use crate::proc;
use crate::spans::Spans;
use crate::stats::{median, Summary};
use crate::{secs, Ctx, Outcome};
use overlap_sim::apps::registry;
use overlap_sim::core::build_variants;
use overlap_sim::core::chunk::ChunkPolicy;
use overlap_sim::core::presets::marenostrum_for;
use overlap_sim::core::sweep::{point_key, Fnv, PointKey, SweepApp};
use overlap_sim::machine::{expand_collectives, simulate, ContentionModel};
use overlap_sim::serve::json::{self, Obj, Value};
use overlap_sim::trace::{Record, Trace};
use std::collections::BTreeMap;
use std::time::Instant;

/// The six traced applications of the paper.
pub const APPS: [&str; 6] = ["sweep3d", "pop", "alya", "specfem3d", "nas-bt", "nas-cg"];

/// One sweep grid: `ovlp sweep` axes, in the CLI's canonical order.
pub struct Axes {
    pub chunks: &'static [u32],
    pub bw: &'static [f64],
    pub topologies: &'static [&'static str],
}

impl Axes {
    pub fn points(&self) -> usize {
        self.chunks.len() * self.bw.len() * self.topologies.len()
    }

    fn join<T: ToString>(items: &[T]) -> String {
        items.iter().map(T::to_string).collect::<Vec<_>>().join(",")
    }

    /// `ovlp sweep <app> <ranks>` arguments for this grid.
    pub fn cli(&self, app: &str, ranks: usize) -> Vec<String> {
        [
            "sweep",
            app,
            &ranks.to_string(),
            "--jobs",
            "1",
            "--chunks",
            &Self::join(self.chunks),
            "--bw",
            &Self::join(self.bw),
            "--topology",
            &Self::join(self.topologies),
        ]
        .map(String::from)
        .to_vec()
    }

    /// The same grid as an `ovlp.sweep-job.v1` document.
    pub fn job_json(&self, app: &str, ranks: usize) -> String {
        let topo: Vec<String> = self.topologies.iter().map(|t| format!("\"{t}\"")).collect();
        format!(
            "{{\"schema\":\"ovlp.sweep-job.v1\",\"app\":\"{app}\",\"ranks\":{ranks},\"jobs\":1,\
             \"chunks\":[{}],\"bw\":[{}],\"topology\":[{}]}}",
            Self::join(self.chunks),
            Self::join(self.bw),
            topo.join(",")
        )
    }
}

const RANKS: usize = 64;
const GRID: Axes = Axes {
    chunks: &[1, 2, 4, 8],
    bw: &[25.0, 250.0, 2500.0],
    topologies: &["bus", "fat-tree:16", "torus:8x4x4"],
};
const SMOKE_RANKS: usize = 16;
const SMOKE_GRID: Axes = Axes {
    chunks: &[1, 4],
    bw: &[250.0],
    topologies: &["bus", "fat-tree:16"],
};
/// The set-up sweep: one point, so it costs about one trace.
const WARMUP: Axes = Axes {
    chunks: &[4],
    bw: &[250.0],
    topologies: &["bus"],
};

fn grid(smoke: bool) -> (usize, &'static Axes) {
    if smoke {
        (SMOKE_RANKS, &SMOKE_GRID)
    } else {
        (RANKS, &GRID)
    }
}

/// Names of the spans [`prepare`] and [`evaluate`] record.
const LAYER_SPANS: &[&str] = &[
    "instr.trace_run",
    "core.fingerprint",
    "core.transform",
    "machine.expand",
    "machine.replay.bus",
    "machine.replay.flow",
];

/// Per-point result hashes from `ovlp sweep` stdout (the `hash`
/// column), after checking the header counts every point ok.
pub fn cli_hashes(stdout: &str, points: usize) -> Result<Vec<u64>, String> {
    let mut lines = stdout.lines();
    let header = lines.next().unwrap_or("");
    let want = format!("= {points} points ({points} ok, 0 failed)");
    if !header.ends_with(&want) {
        return Err(format!("sweep header `{header}` lacks `{want}`"));
    }
    let hashes = lines
        .skip(1)
        .take(points)
        .map(|row| {
            let hex = row.split_whitespace().last().unwrap_or("");
            u64::from_str_radix(hex, 16).map_err(|_| format!("no hash in row `{row}`"))
        })
        .collect::<Result<Vec<u64>, String>>()?;
    if hashes.len() != points {
        return Err(format!("{} rows for {points} points", hashes.len()));
    }
    Ok(hashes)
}

/// One evaluated grid point: its store key and the simulated runtimes
/// of the original, overlapped and ideal variants.
pub struct Point {
    pub key: PointKey,
    pub runtimes: [f64; 3],
}

impl Point {
    /// `PointResult::result_hash`, rebuilt from the public fields.
    pub fn hash(&self, app: &str) -> u64 {
        Fnv::new()
            .str(app)
            .u64(self.key.0)
            .f64(self.runtimes[0])
            .f64(self.runtimes[1])
            .f64(self.runtimes[2])
            .finish()
    }
}

/// What evaluating one app's grid in process produced.
#[derive(Default)]
pub struct Eval {
    pub points: Vec<Point>,
    pub events: u64,
    pub reshares: u64,
    pub stale: u64,
    pub queue_peak: usize,
    pub bus_replays: u32,
    pub flow_replays: u32,
}

/// Trace `app` at `ranks` and fingerprint the run — what `ovlp sweep`
/// and the daemon do before any point is evaluated.
pub fn prepare(app: &str, ranks: usize, sp: &mut Spans, req: u64) -> Result<SweepApp, String> {
    let entry = registry::by_name(app).ok_or_else(|| format!("unknown app {app}"))?;
    let run = sp.time("instr.trace_run", req, || entry.trace_run(ranks))?;
    Ok(sp.time("core.fingerprint", req, || SweepApp::new(entry.name, run)))
}

fn has_collectives(trace: &Trace) -> bool {
    trace.ranks.iter().any(|r| {
        r.records
            .iter()
            .any(|x| matches!(x, Record::Collective { .. }))
    })
}

/// Evaluate every point of `axes` for a prepared app, calling each
/// layer separately: one transform per policy, then per point and
/// variant a collective expansion and a replay — the calls `ovlp sweep`
/// makes, in the same grid order, so the point hashes must match its
/// `hash` column bit for bit.
pub fn evaluate(app: &SweepApp, axes: &Axes, sp: &mut Spans, req: u64) -> Result<Eval, String> {
    let base = marenostrum_for(&app.name);
    let mut platforms = Vec::new();
    for &bw in axes.bw {
        for topo in axes.topologies {
            let model: ContentionModel = topo.parse()?;
            platforms.push(
                base.with_bandwidth(bw)
                    .with_buses(base.buses)
                    .with_contention(model),
            );
        }
    }
    let policies: Vec<ChunkPolicy> = axes
        .chunks
        .iter()
        .map(|&c| ChunkPolicy::with_chunks(c))
        .collect();
    let bundles: Vec<_> = policies
        .iter()
        .map(|p| sp.time("core.transform", req, || build_variants(&app.run, p)))
        .collect();
    let mut eval = Eval::default();
    for platform in &platforms {
        let bus = matches!(platform.contention, ContentionModel::Bus);
        let layer = if bus {
            "machine.replay.bus"
        } else {
            "machine.replay.flow"
        };
        for (policy, bundle) in policies.iter().zip(&bundles) {
            let mut runtimes = [0.0; 3];
            for (slot, variant) in [&bundle.original, &bundle.overlapped, &bundle.ideal]
                .into_iter()
                .enumerate()
            {
                let expanded = has_collectives(variant).then(|| {
                    sp.time("machine.expand", req, || {
                        expand_collectives(variant, platform.collective)
                    })
                });
                let res = sp
                    .time(layer, req, || {
                        simulate(expanded.as_ref().unwrap_or(variant), platform)
                    })
                    .map_err(|e| format!("{} replay failed: {e}", app.name))?;
                runtimes[slot] = res.runtime();
                eval.events += res.events_processed;
                eval.reshares += res.network.reshares;
                eval.stale += res.stale_events;
                eval.queue_peak = eval.queue_peak.max(res.queue_peak);
                if bus {
                    eval.bus_replays += 1;
                } else {
                    eval.flow_replays += 1;
                }
            }
            eval.points.push(Point {
                key: point_key(app.fingerprint(), platform, policy),
                runtimes,
            });
        }
    }
    Ok(eval)
}

/// `--mirror <app>`: evaluate one app's grid traced, in this fresh
/// process, and return what it measured as one JSON line.
pub fn mirror(app: &str, smoke: bool) -> Result<String, String> {
    let (ranks, grid) = grid(smoke);
    let mut sp = Spans::new(Instant::now(), true);
    let prepared = prepare(app, ranks, &mut sp, 0)?;
    let eval = evaluate(&prepared, grid, &mut sp, 0)?;
    let hashes = eval
        .points
        .iter()
        .map(|p| Value::str(format!("{:016x}", p.hash(&prepared.name))))
        .collect();
    let mut o = Obj::new();
    o.set("hashes", Value::Arr(hashes));
    for (k, v) in [
        ("records", prepared.run.trace.total_records() as f64),
        ("events", eval.events as f64),
        ("reshares", eval.reshares as f64),
        ("stale", eval.stale as f64),
        ("queue_peak", eval.queue_peak as f64),
        ("bus_replays", eval.bus_replays as f64),
        ("flow_replays", eval.flow_replays as f64),
    ] {
        o.set(k, Value::Num(v));
    }
    o.set("spans", json::parse(&sp.to_json())?);
    Ok(Value::Obj(o).to_string())
}

/// One traced sweep, as measured by a mirror process.
struct Traced {
    wall_s: f64,
    hashes: Vec<u64>,
    counters: Obj,
    spans: Spans,
}

/// Run the traced mirror of one sweep in a fresh process of this
/// benchmark, so it pays the same process start, page faults and exit
/// as the `ovlp sweep` it is compared with.
fn traced_sweep(ctx: &Ctx, app: &str, request: u64) -> Result<Traced, String> {
    let offset = ctx.epoch.elapsed();
    let mut args = vec!["--mirror", app];
    if ctx.smoke {
        args.push("--smoke");
    }
    let r = proc::run(&ctx.exe, &args)?;
    let doc = json::parse(r.stdout.trim()).map_err(|e| format!("mirror output: {e}"))?;
    let counters = doc
        .as_obj()
        .cloned()
        .ok_or("mirror output is not an object")?;
    let hashes = counters
        .get("hashes")
        .and_then(Value::as_arr)
        .ok_or("mirror output lacks hashes")?
        .iter()
        .map(|h| h.as_str().and_then(|h| u64::from_str_radix(h, 16).ok()))
        .collect::<Option<Vec<u64>>>()
        .ok_or("bad hash in mirror output")?;
    let spans = Spans::from_json(
        counters.get("spans").ok_or("mirror output lacks spans")?,
        ctx.epoch,
        offset,
        LAYER_SPANS,
        request,
    )?;
    Ok(Traced {
        wall_s: r.wall_s,
        hashes,
        counters,
        spans,
    })
}

/// Per-app totals of the traced run, summed over its operations: the
/// untraced and traced wall times, span self times by span name, and
/// the mirror's counters.
#[derive(Default)]
struct Acc {
    ops: f64,
    sums: BTreeMap<String, f64>,
    queue_peak: f64,
}

impl Acc {
    fn add(&mut self, key: &str, value: f64) {
        *self.sums.entry(key.to_string()).or_default() += value;
    }
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let (ranks, grid) = grid(ctx.smoke);
    let mut apps = APPS;
    ctx.rng(1).shuffle(&mut apps);
    let apps = if ctx.smoke { &apps[..2] } else { &apps[..] };

    let mut gauge = Gauge::new(ctx.smoke);
    let mut setup = Vec::new();
    let mut setup_gauged = Vec::new();
    let mut walls: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut gauged: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut first: BTreeMap<&str, (String, Vec<u64>)> = BTreeMap::new();
    let mut acc: BTreeMap<&str, Acc> = BTreeMap::new();
    let mut busy = 0.0;
    let mut spans = ctx.spans(ctx.traced);
    let started = Instant::now();
    let mut op_index = 0u64;
    'passes: loop {
        for &app in apps {
            let done = walls.len() == apps.len();
            if done && (ctx.smoke || secs(started) >= ctx.seconds) {
                break 'passes;
            }
            if !walls.contains_key(app) {
                // Set-up: a one-point sweep loads the binary, the page
                // cache and the app's code paths before its first timed
                // sweep (first runs were up to 50% slower).
                let args = WARMUP.cli(app, ranks);
                let args: Vec<&str> = args.iter().map(String::as_str).collect();
                let (res, t) = gauge.time(|| proc::run(&ctx.ovlp, &args));
                if out.op(res).is_some() {
                    setup.push(t.wall);
                    setup_gauged.push(t.gauged);
                }
            }
            op_index += 1;
            let args = grid.cli(app, ranks);
            let args: Vec<&str> = args.iter().map(String::as_str).collect();
            let (res, t) = gauge.time(|| proc::run(&ctx.ovlp, &args));
            let checked = res.and_then(|r| {
                let hashes = cli_hashes(&r.stdout, grid.points())?;
                match first.get(app) {
                    Some((stdout, _)) if *stdout != r.stdout => {
                        Err(format!("{app}: sweep output changed between repetitions"))
                    }
                    Some(_) => Ok((r, hashes)),
                    None => {
                        first.insert(app, (r.stdout.clone(), hashes.clone()));
                        Ok((r, hashes))
                    }
                }
            });
            let Some((r, hashes)) = out.op(checked) else {
                walls.entry(app).or_default();
                continue;
            };
            walls.entry(app).or_default().push(r.wall_s);
            gauged.entry(app).or_default().push(t.gauged);
            busy += r.wall_s;
            if ctx.traced {
                // between gauge samples too, so the next sweep's "before"
                // sample is fresh
                let (traced, _) = gauge.time(|| traced_sweep(ctx, app, op_index));
                let traced = traced.and_then(|t| {
                    if t.hashes == hashes {
                        Ok(t)
                    } else {
                        Err(format!(
                            "{app}: traced run's point hashes differ from ovlp sweep"
                        ))
                    }
                });
                if let Some(t) = out.op(traced) {
                    let a = acc.entry(app).or_default();
                    a.ops += 1.0;
                    a.add("cli_wall", r.wall_s);
                    a.add("traced_wall", t.wall_s);
                    a.add("top_level", t.spans.top_level_s());
                    a.add("spans", t.spans.spans().len() as f64);
                    for (name, x) in t.spans.totals() {
                        a.add(name, x.self_s);
                    }
                    for key in t.counters.keys() {
                        if let Some(v) = t.counters.get(key).and_then(Value::as_f64) {
                            a.add(key, v);
                        }
                    }
                    let peak = t.counters.get("queue_peak").and_then(Value::as_f64);
                    a.queue_peak = a.queue_peak.max(peak.unwrap_or(0.0));
                    spans.absorb(t.spans);
                }
            }
        }
    }

    // Independent check of the untraced run: one seed-chosen app
    // evaluated in process must reproduce the CLI's hash column.
    if !ctx.traced {
        let app = apps[ctx.rng(2).below(apps.len())];
        if let Some((_, hashes)) = first.get(app) {
            let mut sp = ctx.spans(false);
            let res = prepare(app, ranks, &mut sp, 0)
                .and_then(|a| evaluate(&a, grid, &mut sp, 0).map(|e| (a, e)))
                .and_then(|(a, e)| {
                    let mine: Vec<u64> = e.points.iter().map(|p| p.hash(&a.name)).collect();
                    if mine == *hashes {
                        Ok(())
                    } else {
                        Err(format!(
                            "{app}: in-process evaluation differs from ovlp sweep"
                        ))
                    }
                });
            out.op(res);
        }
    }

    // One pass = every app once: the sum of each app's median gauged
    // sweep (see gauge.rs).
    let pass_s: f64 = apps
        .iter()
        .map(|app| gauged.get(app).and_then(|g| median(g)).unwrap_or(f64::NAN))
        .sum();
    out.set("wall_s", pass_s);
    out.set("throughput", (grid.points() * apps.len()) as f64 / pass_s);
    out.set(
        "peak_rss_mb",
        proc::children_peak_rss_mib().unwrap_or(f64::NAN),
    );
    out.set("setup_s", median(&setup_gauged).unwrap_or(f64::NAN));
    let ops: usize = walls.values().map(Vec::len).sum();
    out.note(format!(
        "{ops} sweeps of {} points at {ranks} ranks in {busy:.2} s; gauged pass {pass_s:.3} s",
        grid.points(),
    ));
    if let Some(s) = Summary::of(&setup) {
        out.note(format!("set-up sweep wall {s}"));
    }
    if let Some(s) = Summary::of(gauge.samples()) {
        out.note(format!("gauge {s}"));
    }
    for (app, w) in &walls {
        if let Some(sum) = Summary::of(w) {
            out.note(format!("  {app:<10} sweep wall {sum}"));
        }
    }
    if ctx.traced {
        layer_metrics(&mut out, &acc);
        out.spans = Some(spans);
    }
    out
}

/// Per-pass layer metrics: each quantity's per-app mean, summed over
/// the apps.
fn layer_metrics(out: &mut Outcome, acc: &BTreeMap<&str, Acc>) {
    let per_pass = |key: &str| -> f64 {
        acc.values()
            .filter(|a| a.ops > 0.0)
            .map(|a| a.sums.get(key).copied().unwrap_or(0.0) / a.ops)
            .sum()
    };
    let supply = per_pass("instr.trace_run");
    let fingerprint = per_pass("core.fingerprint");
    let transform = per_pass("core.transform");
    let expand = per_pass("machine.expand");
    let bus = per_pass("machine.replay.bus");
    let flow = per_pass("machine.replay.flow");
    let replay = bus + flow;
    let traced = per_pass("traced_wall");
    let cli = per_pass("cli_wall");
    let events = per_pass("events");
    out.set("supply_s", supply);
    out.set("replay_s", replay);
    out.set("ns_per_event", replay / events * 1e9);
    out.set("records", per_pass("records"));
    out.set("events", events);
    out.set("share_supply", supply / traced);
    out.set("share_fingerprint", fingerprint / traced);
    out.set("share_transform", transform / traced);
    out.set("share_expand", expand / traced);
    out.set("share_replay", replay / traced);
    out.set(
        "queue_peak",
        acc.values().map(|a| a.queue_peak).fold(0.0, f64::max),
    );
    out.set("reshares", per_pass("reshares"));
    out.set("stale_ratio", per_pass("stale") / events);
    out.set(
        "flow_bus_ratio",
        (flow / per_pass("flow_replays")) / (bus / per_pass("bus_replays")),
    );
    out.set("trace_coverage", per_pass("top_level") / cli);
    out.set(
        "trace_overhead_pct",
        100.0 * per_pass("spans") * crate::spans::cost_s() / traced,
    );
    out.note(format!(
        "traced pass {traced:.3} s vs ovlp sweep {cli:.3} s: trace {supply:.3} fingerprint \
         {fingerprint:.3} transform {transform:.3} expand {expand:.3} replay bus {bus:.3} \
         flow {flow:.3}"
    ));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cli_and_job_forms_name_the_same_grid() {
        assert_eq!(GRID.points(), 36);
        assert_eq!(
            GRID.cli("pop", RANKS).join(" "),
            "sweep pop 64 --jobs 1 --chunks 1,2,4,8 --bw 25,250,2500 \
             --topology bus,fat-tree:16,torus:8x4x4"
        );
        let spec = overlap_sim::serve::SweepSpec::from_json(&SMOKE_GRID.job_json("pop", 16))
            .expect("valid job document");
        assert_eq!(spec.chunks, SMOKE_GRID.chunks);
        assert_eq!(spec.bandwidths, SMOKE_GRID.bw);
        assert_eq!(spec.topologies.len(), 2);
    }

    #[test]
    fn hash_column_is_parsed_and_counted() {
        let out = "sweep: 1 apps x 1 platforms x 2 policies = 2 points (2 ok, 0 failed)\n\
                   app platform ... hash\n\
                   pop bw=250 ... 00000000000000ff\n\
                   pop bw=250 ... 0123456789abcdef\n";
        assert_eq!(
            cli_hashes(out, 2).unwrap(),
            vec![0xff, 0x0123_4567_89ab_cdef]
        );
        assert!(cli_hashes(out, 3).is_err());
        assert!(cli_hashes(&out.replace("0 failed", "1 failed"), 2).is_err());
    }

    /// The in-process mirror reproduces the sweep engine's result
    /// hashes (`PointResult::result_hash`) bit for bit.
    #[test]
    fn mirror_matches_the_sweep_engine() {
        let spec =
            overlap_sim::serve::SweepSpec::from_json(&SMOKE_GRID.job_json("nas-cg", 8)).unwrap();
        let (grid, config) = spec.build().unwrap();
        let report = overlap_sim::core::sweep(&grid, &config, &Default::default());
        let mut sp = Spans::new(Instant::now(), true);
        let app = prepare("nas-cg", 8, &mut sp, 1).unwrap();
        let eval = evaluate(&app, &SMOKE_GRID, &mut sp, 1).unwrap();
        let mine: Vec<u64> = eval.points.iter().map(|p| p.hash(&app.name)).collect();
        assert_eq!(mine, report.result_hashes());
        assert!(eval.flow_replays > 0 && eval.bus_replays > 0);
        assert!(sp.totals().contains_key("core.transform"));
    }
}
