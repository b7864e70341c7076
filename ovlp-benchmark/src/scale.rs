//! `weak-scale` and `flow-contention`: in-process replays of the seeded
//! `ml-allreduce` generator through the public replay entry points.
//!
//! `weak-scale` replays on the bus model in summary mode at two rank
//! counts 8x apart, so the first-fit pending scan's growth shows as lost
//! events/s. `flow-contention` replays one trace on an oversubscribed
//! fat-tree, where shared uplinks force max-min resharing, and the same
//! trace on the bus as its control.
//!
//! Every repetition of a replay and of the set-up runs between two
//! samples of the host-speed gauge (see `gauge.rs`). The end-to-end
//! times are medians of gauged repetitions; the per-layer split and the
//! notes use wall times.

use crate::gauge::{self, Gauge, Timing};
use crate::proc;
use crate::spans::Spans;
use crate::stats::{median, Summary};
use crate::{secs, Ctx, Outcome};
use overlap_sim::core::presets::marenostrum_for;
use overlap_sim::machine::{
    expand_collectives, replay_scale, simulate, simulate_source, ContentionModel, Platform,
    ScaleReport, SimResult,
};
use overlap_sim::trace::{MlAllreduce, MlConfig, TraceSource};
use std::time::Instant;

fn source(ranks: usize, seed: u64) -> Result<MlAllreduce, String> {
    Ok(MlAllreduce::new(MlConfig::new(ranks, seed)?))
}

/// Pull every record of every rank stream without replaying: the trace
/// supply's share of a streamed replay. Returns the record count.
fn drain(src: &dyn TraceSource) -> u64 {
    (0..src.nranks())
        .map(|r| src.rank_records(r).count() as u64)
        .sum()
}

/// Set-up repetitions per run; the reported set-up time is their median.
/// The first precedes every measurement, the rest are interleaved with
/// the replays so one burst of host contention cannot skew them all.
const SETUPS: usize = 7;

/// Times of one replay configuration.
#[derive(Default)]
struct Reps {
    untraced: Vec<f64>,
    traced: Vec<f64>,
    /// Gauged times of the untraced repetitions.
    gauged: Vec<f64>,
    /// Exact digest of the first replay; every later one must equal it.
    digest: Option<String>,
}

impl Reps {
    fn push(&mut self, traced: bool, time: Timing, digest: String) -> Result<(), String> {
        match &self.digest {
            Some(d) if *d != digest => {
                return Err(format!(
                    "replay changed between repetitions: {d} vs {digest}"
                ))
            }
            Some(_) => {}
            None => self.digest = Some(digest),
        }
        if traced {
            self.traced.push(time.wall);
        } else {
            self.untraced.push(time.wall);
            self.gauged.push(time.gauged);
        }
        Ok(())
    }

    /// The median gauged untraced repetition: the end-to-end time.
    fn gauged_median(&self) -> f64 {
        median(&self.gauged).unwrap_or(f64::NAN)
    }

    /// The fastest untraced repetition, by wall time.
    fn best(&self) -> f64 {
        self.untraced.iter().copied().fold(f64::INFINITY, f64::min)
    }

    fn traced_best(&self) -> f64 {
        self.traced.iter().copied().fold(f64::INFINITY, f64::min)
    }

    fn summary(&self) -> String {
        Summary::of(&self.untraced).map_or_else(|| "none".to_string(), |s| s.to_string())
    }
}

/// One replay configuration of a workload.
struct Rung<'a, R> {
    label: String,
    span: &'static str,
    /// Whether traced repetitions alternate with untraced ones when the
    /// run is traced.
    traced: bool,
    reps: Reps,
    last: Option<R>,
    /// One replay: its result and an exact digest of it.
    replay: Box<dyn Fn() -> Result<(R, String), String> + 'a>,
}

impl<'a, R> Rung<'a, R> {
    fn new(
        label: String,
        span: &'static str,
        traced: bool,
        replay: impl Fn() -> Result<(R, String), String> + 'a,
    ) -> Rung<'a, R> {
        Rung {
            label,
            span,
            traced,
            reps: Reps::default(),
            last: None,
            replay: Box::new(replay),
        }
    }

    fn done(&self, ctx: &Ctx) -> bool {
        let awaits_traced = ctx.traced && self.traced && self.reps.traced.is_empty();
        !(self.reps.untraced.is_empty() || awaits_traced)
    }
}

/// Set-up times of one run.
struct Setups {
    wall: Vec<f64>,
    gauged: Vec<f64>,
    /// Every gauge time of the run, for the notes.
    gauge: Vec<f64>,
}

/// Run the set-up, then cycle through `rungs` (interleaving the other
/// set-up repetitions) until every rung has run and the time budget is
/// spent. Every repetition runs between two gauge samples.
fn measure<R>(
    ctx: &Ctx,
    out: &mut Outcome,
    sp: &mut Spans,
    rungs: &mut [Rung<R>],
    set_up: &dyn Fn() -> Result<(), String>,
) -> Setups {
    let mut gauge = Gauge::new(ctx.smoke);
    let mut wall = Vec::new();
    let mut gauged = Vec::new();
    let mut attempts = 0;
    let mut time_setup = |out: &mut Outcome, gauge: &mut Gauge| {
        attempts += 1;
        let (res, t) = gauge.time(set_up);
        if out.op(res).is_some() {
            wall.push(t.wall);
            gauged.push(t.gauged);
        }
        attempts
    };
    let mut set_up_done = time_setup(out, &mut gauge) >= SETUPS;
    let started = Instant::now();
    let mut req = 0;
    while !(set_up_done
        && rungs.iter().all(|r| r.done(ctx))
        && (ctx.smoke || secs(started) >= ctx.seconds))
    {
        for rung in rungs.iter_mut() {
            req += 1;
            let traced =
                ctx.traced && rung.traced && rung.reps.untraced.len() > rung.reps.traced.len();
            let (res, time) = gauge.time(|| {
                if traced {
                    sp.time(rung.span, req, &rung.replay)
                } else {
                    (rung.replay)()
                }
            });
            let res = res
                .and_then(|(r, digest)| rung.reps.push(traced, time, digest).map(|()| r))
                .map_err(|e| format!("{}: {e}", rung.label));
            match out.op(res) {
                Some(r) => rung.last = Some(r),
                None => {
                    // a failing rung must not keep the loop alive
                    rung.reps.untraced.push(f64::NAN);
                    rung.reps.traced.push(f64::NAN);
                }
            }
        }
        if !set_up_done {
            set_up_done = time_setup(out, &mut gauge) >= SETUPS;
        }
    }
    Setups {
        wall,
        gauged,
        gauge: gauge.samples().to_vec(),
    }
}

impl Setups {
    /// The end-to-end set-up time: the median gauged set-up.
    fn gauged_median(&self) -> f64 {
        median(&self.gauged).unwrap_or(f64::NAN)
    }

    fn notes(&self, out: &mut Outcome) {
        if let Some(s) = Summary::of(&self.wall) {
            out.note(format!("set-up wall {s}"));
        }
        if let Some(s) = Summary::of(&self.gauge) {
            out.note(format!("gauge {s}"));
        }
    }
}

/// Peak memory of this process, less the gauge's table.
fn peak_rss_mib() -> f64 {
    proc::vm_hwm_mib("self").map_or(f64::NAN, |m| m - gauge::TABLE_MIB)
}

const WEAK: (usize, usize) = (1_000, 8_000);
const WEAK_SMOKE: (usize, usize) = (8, 16);

fn scale_digest(r: &ScaleReport) -> String {
    format!(
        "runtime {:016x} events {} transfers {} records {}",
        r.runtime.as_secs().to_bits(),
        r.events_processed,
        r.transfers,
        r.records_streamed
    )
}

/// A summary-mode replay of `src` on the bus.
fn scale_rung<'a>(
    src: &'a MlAllreduce,
    platform: &'a Platform,
    traced: bool,
) -> Rung<'a, ScaleReport> {
    let ranks = src.nranks();
    Rung::new(
        format!("{ranks} ranks"),
        "machine.replay_scale",
        traced,
        move || {
            let rep = replay_scale(src, platform).map_err(|e| format!("replay failed: {e}"))?;
            if rep.nranks != ranks || rep.records_peak >= rep.records_streamed {
                return Err(format!("replay summary is inconsistent: {rep:?}"));
            }
            let digest = scale_digest(&rep);
            Ok((rep, digest))
        },
    )
}

pub fn run_weak(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let (small, big) = if ctx.smoke { WEAK_SMOKE } else { WEAK };
    let platform = marenostrum_for("ml-allreduce");
    let seed = ctx.seed;
    let (src_small, src_big) = match source(small, seed).and_then(|s| Ok((s, source(big, seed)?))) {
        Ok(v) => v,
        Err(e) => {
            out.op::<()>(Err(e));
            return out;
        }
    };
    let mut rungs = [
        scale_rung(&src_big, &platform, true),
        scale_rung(&src_small, &platform, false),
    ];
    let mut sp = ctx.spans(ctx.traced);
    // Set-up: build a source and replay it once at the small size,
    // which also warms code paths and the allocator.
    let setups = measure(ctx, &mut out, &mut sp, &mut rungs, &|| {
        let src = source(small, seed)?;
        replay_scale(&src, &platform)
            .map(drop)
            .map_err(|e| e.to_string())
    });
    let [big_rung, small_rung] = rungs;

    // Independent check: summary mode must agree with the full-fidelity
    // streamed replay on runtime and events (documented as bit-identical).
    if let Some(rep) = &small_rung.last {
        let res = simulate_source(&src_small, &platform)
            .map_err(|e| e.to_string())
            .and_then(|full| {
                if full.runtime().to_bits() == rep.runtime.as_secs().to_bits()
                    && full.events_processed == rep.events_processed
                {
                    Ok(())
                } else {
                    Err("replay_scale disagrees with simulate_source".to_string())
                }
            });
        out.op(res);
    }

    let events = |r: &Rung<ScaleReport>| r.last.as_ref().map_or(0, |x| x.events_processed) as f64;
    let (events_big, events_small) = (events(&big_rung), events(&small_rung));
    let gauged = big_rung.reps.gauged_median();
    out.set("wall_s", gauged);
    out.set("throughput", events_big / gauged);
    out.set("peak_rss_mb", peak_rss_mib());
    out.set("setup_s", setups.gauged_median());
    let wall = big_rung.reps.best();
    out.note(format!(
        "{small} ranks: replay wall {}",
        small_rung.reps.summary()
    ));
    out.note(format!(
        "{big} ranks: replay wall {}, best {wall:.6}, gauged median {gauged:.6}, \
         {events_big} events",
        big_rung.reps.summary()
    ));
    setups.notes(&mut out);

    if ctx.traced {
        if let Some(rep) = &big_rung.last {
            let records = sp.time("trace.supply", 0, || drain(&src_big));
            let traced = big_rung.reps.traced_best();
            let supply = sp.self_s("trace.supply");
            let replay = (traced - supply).max(0.0);
            out.set("supply_s", supply);
            out.set("replay_s", replay);
            out.set("ns_per_event", replay / events_big * 1e9);
            out.set("records", records as f64);
            out.set("events", events_big);
            out.set("queue_peak", rep.queue_peak as f64);
            out.set("records_peak", rep.records_peak as f64);
            out.set("msg_slots", rep.msg_slots as f64);
            out.set("share_supply", supply / traced);
            out.set("share_replay", replay / traced);
            out.set(
                "scaling_eff",
                (events_big / wall) / (events_small / small_rung.reps.best()),
            );
            out.set("trace_coverage", traced / wall);
            out.set(
                "trace_overhead_pct",
                100.0 * crate::spans::cost_s() / traced,
            );
        }
        out.spans = Some(sp);
    }
    out
}

const FLOW_RANKS: usize = 512;
const FLOW_SMOKE_RANKS: usize = 16;
const WARMUP_RANKS: usize = 128;
/// 4:1 oversubscribed uplinks: flows share links, so the disjoint-flow
/// fast path never applies.
const TOPOLOGY: &str = "fat-tree:16:4";

fn sim_digest(r: &SimResult) -> String {
    format!(
        "runtime {:016x} events {} transfers {} reshares {} stale {}",
        r.runtime().to_bits(),
        r.events_processed,
        r.network.transfers,
        r.network.reshares,
        r.stale_events
    )
}

/// A full streamed replay of `src`; on the flow fabric it must reshare,
/// on the bus it must not.
fn flow_rung<'a>(
    src: &'a MlAllreduce,
    platform: &'a Platform,
    is_flow: bool,
) -> Rung<'a, SimResult> {
    let label = format!("{} ranks on {}", src.nranks(), platform.contention);
    Rung::new(label, "machine.replay.flow", is_flow, move || {
        let r = simulate_source(src, platform).map_err(|e| format!("replay failed: {e}"))?;
        if is_flow == (r.network.reshares == 0) {
            return Err(format!(
                "{} reshares: the contention path did not run as expected",
                r.network.reshares
            ));
        }
        let digest = sim_digest(&r);
        Ok((r, digest))
    })
}

pub fn run_flow(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let ranks = if ctx.smoke {
        FLOW_SMOKE_RANKS
    } else {
        FLOW_RANKS
    };
    let warmup = if ctx.smoke { 8 } else { WARMUP_RANKS };
    let seed = ctx.seed;
    let bus = marenostrum_for("ml-allreduce");
    let setup = TOPOLOGY
        .parse::<ContentionModel>()
        .and_then(|model| Ok((bus.with_contention(model), source(ranks, seed)?)));
    let Some((flow, src)) = out.op(setup) else {
        return out;
    };
    let mut rungs = [flow_rung(&src, &flow, true), flow_rung(&src, &bus, false)];
    let mut sp = ctx.spans(ctx.traced);
    // Set-up: build a source and replay it once at a small size on the
    // same fabric.
    let setups = measure(ctx, &mut out, &mut sp, &mut rungs, &|| {
        let src = source(warmup, seed)?;
        simulate_source(&src, &flow)
            .map(drop)
            .map_err(|e| e.to_string())
    });
    let [flow_rung, bus_rung] = rungs;

    // Independent check: the streamed replay must equal the replay of
    // the materialized trace. Untraced runs check the cheap bus control;
    // traced runs check the flow replay itself, timing each layer.
    let (check_rung, platform) = if ctx.traced {
        (&flow_rung, &flow)
    } else {
        (&bus_rung, &bus)
    };
    let decomposed = decompose(&mut out, &mut sp, &src, platform);
    if let Some((_, digest)) = &decomposed {
        if Some(digest) != check_rung.reps.digest.as_ref() {
            out.op::<()>(Err(format!(
                "{}: the materialized trace replays differently from the stream",
                check_rung.label
            )));
        }
    }

    let events = flow_rung.last.as_ref().map_or(0, |r| r.events_processed) as f64;
    let gauged = flow_rung.reps.gauged_median();
    out.set("wall_s", gauged);
    out.set("throughput", events / gauged);
    out.set("peak_rss_mb", peak_rss_mib());
    out.set("setup_s", setups.gauged_median());
    let wall = flow_rung.reps.best();
    out.note(format!(
        "{}: replay wall {}, best {wall:.6}, gauged median {gauged:.6}",
        flow_rung.label,
        flow_rung.reps.summary()
    ));
    out.note(format!(
        "{}: replay wall {}",
        bus_rung.label,
        bus_rung.reps.summary()
    ));
    out.note(format!("{events} events on {TOPOLOGY}"));
    setups.notes(&mut out);

    if let (true, Some((records, _)), Some(r)) = (ctx.traced, decomposed, &flow_rung.last) {
        let traced = flow_rung.reps.traced_best();
        let supply = sp.self_s("trace.supply");
        let expand = sp.self_s("machine.expand");
        let replay = (traced - supply - expand).max(0.0);
        out.set("supply_s", supply);
        out.set("replay_s", replay);
        out.set("ns_per_event", replay / events * 1e9);
        out.set("records", records as f64);
        out.set("events", events);
        out.set("queue_peak", r.queue_peak as f64);
        out.set("share_supply", supply / traced);
        out.set("share_expand", expand / traced);
        out.set("share_replay", replay / traced);
        out.set("reshares", r.network.reshares as f64);
        out.set("stale_ratio", r.stale_events as f64 / events);
        out.set("flow_bus_ratio", wall / bus_rung.reps.best());
        out.set("trace_coverage", traced / wall);
        out.set(
            "trace_overhead_pct",
            100.0 * crate::spans::cost_s() / traced,
        );
    }
    if ctx.traced {
        out.spans = Some(sp);
    }
    out
}

/// Layer probes on one trace: drain the streams (supply), materialize
/// and expand the collectives (expansion), then replay the expanded
/// trace. Returns the record count and the replay's digest, which must
/// equal the streamed replay's.
fn decompose(
    out: &mut Outcome,
    sp: &mut Spans,
    src: &MlAllreduce,
    platform: &Platform,
) -> Option<(u64, String)> {
    let records = sp.time("trace.supply", 0, || drain(src));
    let trace = src.materialize();
    let expanded = sp.time("machine.expand", 0, || {
        expand_collectives(&trace, platform.collective)
    });
    drop(trace);
    let res = simulate(&expanded, platform)
        .map(|r| (records, sim_digest(&r)))
        .map_err(|e| e.to_string());
    out.op(res)
}
