//! Weak-scaling trajectory of the streamed totals-only replay.
//!
//! Replays the registry's generated `ml-allreduce` workload through
//! [`ovlp_machine::replay_scale`] at a ladder of rank counts and
//! records, per point: ranks, streamed record count, the records
//! resident high-water mark (the number the whole streaming tentpole
//! exists to keep flat), the blocked-transfer high-water mark,
//! events/sec, and the process RSS high-water mark from
//! `/proc/self/status` (ground truth that the engine-level counter is
//! honest). The measurements are written to `BENCH_scale.json` (schema
//! `ovlp.bench_scale.v2`) together with the machine they ran on
//! (`hardware_threads`, `git describe` of the checkout) and the
//! events/sec spread across the ladder, so the memory and throughput
//! trajectory is tracked in-repo; `scripts/check_scale_bench.py`
//! validates the document and CI's `scale-smoke` job re-runs the quick
//! ladder under a hard `ulimit -v`. Rungs up to 10k ranks are timed as
//! the median of five replays, larger ones by a single replay.
//!
//! Every replay of the ladder runs between two samples of a host-speed
//! gauge ([`ovlp_bench::gauge`]), and each point records the gauged
//! time (`gauged_wall_s`) beside the wall time: the events/s spread is
//! computed from the gauged times, which the host's drift over the
//! ladder moves far less than the wall times. The gauge's 8 MiB table
//! is part of every point's `rss_peak_bytes`.
//!
//! A second, flow rung follows: the same streamed trace replayed in
//! full ([`ovlp_machine::simulate`]) on the `fat-tree:32:4`
//! flow fabric at 1k, 2k, 4k and 8k ranks (1k and 4k with `--quick`),
//! each next to the bus replay of the same trace. Those points go to
//! `flow_points`, with the flow/bus wall ratio that shows whether
//! max-min resharing keeps pace with the bus as the ranks grow.
//!
//! ```text
//! scale_bench [--quick] [--out PATH] [--points R1,R2,..]
//! ```
//!
//! Points run in increasing rank order; `VmHWM` is process-monotone,
//! so each point's figure is "peak RSS up to and including this point"
//! — still a valid sublinearity witness, since the largest point
//! dominates.

use ovlp_bench::gauge::{Gauge, Timing};
use ovlp_core::presets::marenostrum_for;
use ovlp_machine::{replay_scale, simulate, ContentionModel};
use std::path::PathBuf;
use std::time::Instant;

const APP: &str = "ml-allreduce";

/// Full ladder: up to three orders of magnitude past the
/// thread-per-rank cap.
const POINTS: &[usize] = &[1_000, 10_000, 100_000, 1_000_000];
/// CI smoke ladder (the 10k point is the one `scale-smoke` runs under
/// `ulimit -v`).
const QUICK_POINTS: &[usize] = &[1_000, 10_000];
/// Rungs up to this many ranks take the median of [`SMALL_RUNG_REPS`]
/// timed replays: a 1k-rank replay lasts about 40 ms, and one sample
/// of it moved by a third between two runs of the same code, enough
/// to swing the events/s spread by more than any engine change.
const SMALL_RUNG_MAX_RANKS: usize = 10_000;
const SMALL_RUNG_REPS: usize = 5;

/// Flow rung fabric: 8192 endpoints, 4:1 oversubscribed uplinks.
const FLOW_TOPOLOGY: &str = "fat-tree:32:4";
const FLOW_POINTS: &[usize] = &[1_024, 2_048, 4_096, 8_192];
const QUICK_FLOW_POINTS: &[usize] = &[1_024, 4_096];
/// Timed repetitions of each flow-rung replay; the fastest counts.
const FLOW_REPS: usize = 3;

/// One flow-rung point: the flow replay and the bus replay of the same
/// trace.
struct FlowPoint {
    ranks: usize,
    events: u64,
    transfers: usize,
    reshares: u64,
    stale_events: u64,
    flow_wall_s: f64,
    bus_wall_s: f64,
}

impl FlowPoint {
    fn wall_ratio(&self) -> f64 {
        self.flow_wall_s / self.bus_wall_s
    }

    fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.flow_wall_s
    }
}

struct Point {
    ranks: usize,
    records_total: u64,
    records_peak: u64,
    events: u64,
    transfers: u64,
    queue_peak: usize,
    msg_slots: usize,
    req_slots: usize,
    chan_slots: usize,
    waiters_peak: usize,
    wall_s: f64,
    gauged_wall_s: f64,
    events_per_sec: f64,
    sim_runtime_s: f64,
    efficiency: f64,
    rss_peak_bytes: Option<u64>,
}

/// Process RSS high-water mark (`VmHWM`), in bytes. Linux-only; other
/// platforms report `null` in the document.
fn rss_peak_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn json_opt_u64(v: Option<u64>) -> String {
    match v {
        Some(n) => n.to_string(),
        None => "null".to_string(),
    }
}

/// Fastest of [`FLOW_REPS`] streamed full replays of `ranks` on
/// `platform`, with the last result.
fn timed_full_replay(
    ranks: usize,
    platform: &ovlp_machine::Platform,
) -> (ovlp_machine::SimResult, f64) {
    let entry = ovlp_apps::registry::by_name(APP).expect("registry app missing");
    let source = entry
        .source(ranks)
        .unwrap_or_else(|e| panic!("{APP} at {ranks} ranks: {e}"));
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..FLOW_REPS {
        let t0 = Instant::now();
        let r = simulate(source.as_ref(), platform)
            .unwrap_or_else(|e| panic!("{APP} at {ranks} ranks on {}: {e}", platform.contention));
        best = best.min(t0.elapsed().as_secs_f64());
        last = Some(r);
    }
    (last.expect("FLOW_REPS > 0"), best)
}

/// The flow rung: each point replayed on [`FLOW_TOPOLOGY`] and on the
/// bus.
fn flow_ladder(ladder: &[usize]) -> Vec<FlowPoint> {
    let bus = marenostrum_for(APP);
    let model: ContentionModel = FLOW_TOPOLOGY.parse().expect("flow topology");
    let flow = bus.clone().with_contention(model);
    let mut points = Vec::new();
    for &ranks in ladder {
        let (r, flow_wall_s) = timed_full_replay(ranks, &flow);
        assert!(r.network.reshares > 0, "the flow replay never reshared");
        let (_, bus_wall_s) = timed_full_replay(ranks, &bus);
        let p = FlowPoint {
            ranks,
            events: r.events_processed,
            transfers: r.network.transfers,
            reshares: r.network.reshares,
            stale_events: r.stale_events,
            flow_wall_s,
            bus_wall_s,
        };
        println!(
            "{APP} {:>8} ranks on {FLOW_TOPOLOGY}  {:>10} events  {:>10} reshares  \
             {:>12.0} events/s  wall {:>7.3} s  bus {:>7.3} s  flow/bus {:.2}x",
            p.ranks,
            p.events,
            p.reshares,
            p.events_per_sec(),
            p.flow_wall_s,
            p.bus_wall_s,
            p.wall_ratio()
        );
        points.push(p);
    }
    points
}

/// The median wall and median gauged time of `reps` calls of
/// `replay`, with the last call's report (every call replays the same
/// trace).
fn median_replay<R>(reps: usize, mut replay: impl FnMut() -> (R, Timing)) -> (R, Timing) {
    let mut walls = Vec::with_capacity(reps);
    let mut gauged = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        let (rep, t) = replay();
        walls.push(t.wall);
        gauged.push(t.gauged);
        last = Some(rep);
    }
    let median = |mut v: Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    let t = Timing {
        wall: median(walls),
        gauged: median(gauged),
    };
    (last.expect("at least one replay"), t)
}

/// Fastest over slowest events/s: 1.0 is perfectly flat weak scaling.
fn spread(eps: impl Iterator<Item = f64> + Clone) -> f64 {
    eps.clone().fold(0.0, f64::max) / eps.fold(f64::INFINITY, f64::min)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut out = PathBuf::from("BENCH_scale.json");
    let mut points: Option<Vec<usize>> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => quick = true,
            "--out" => {
                i += 1;
                out = PathBuf::from(args.get(i).expect("--out needs a path"));
            }
            "--points" => {
                i += 1;
                let list = args.get(i).expect("--points needs a comma-separated list");
                points = Some(
                    list.split(',')
                        .map(|s| {
                            s.trim()
                                .parse()
                                .unwrap_or_else(|e| panic!("bad --points entry `{s}`: {e}"))
                        })
                        .collect(),
                );
            }
            other => {
                eprintln!("unknown argument `{other}`");
                eprintln!("usage: scale_bench [--quick] [--out PATH] [--points R1,R2,..]");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    let mut ladder = points.unwrap_or_else(|| {
        if quick {
            QUICK_POINTS.to_vec()
        } else {
            POINTS.to_vec()
        }
    });
    ladder.sort_unstable();

    let entry = ovlp_apps::registry::by_name(APP).expect("registry app missing");
    let platform = marenostrum_for(APP);
    let mut gauge = Gauge::new();
    let mut replay = |ranks: usize| {
        let source = entry
            .source(ranks)
            .unwrap_or_else(|e| panic!("{APP} at {ranks} ranks: {e}"));
        gauge.time(|| {
            replay_scale(source.as_ref(), &platform)
                .unwrap_or_else(|e| panic!("{APP} at {ranks} ranks: {e}"))
        })
    };
    // One untimed replay of the smallest point first, so the first timed
    // point does not pay the process's page faults and allocator growth.
    if let Some(&ranks) = ladder.first() {
        replay(ranks);
    }
    let mut results = Vec::new();
    for &ranks in &ladder {
        let reps = if ranks <= SMALL_RUNG_MAX_RANKS {
            SMALL_RUNG_REPS
        } else {
            1
        };
        let (rep, t) = median_replay(reps, || replay(ranks));
        assert_eq!(rep.nranks, ranks);
        assert!(
            rep.records_peak < rep.records_streamed || rep.records_streamed == 0,
            "streaming kept every record resident — the lazy supply regressed"
        );
        let p = Point {
            ranks,
            records_total: rep.records_streamed,
            records_peak: rep.records_peak,
            events: rep.events_processed,
            transfers: rep.transfers,
            queue_peak: rep.queue_peak,
            msg_slots: rep.msg_slots,
            req_slots: rep.req_slots,
            chan_slots: rep.chan_slots,
            waiters_peak: rep.waiters_peak,
            wall_s: t.wall,
            gauged_wall_s: t.gauged,
            events_per_sec: rep.events_processed as f64 / t.wall,
            sim_runtime_s: rep.runtime.as_secs(),
            efficiency: rep.efficiency(),
            rss_peak_bytes: rss_peak_bytes(),
        };
        println!(
            "{APP} {:>8} ranks  {:>11} records ({:>9} resident peak)  {:>11} events  \
             {:>7} blocked peak  {:>12.0} events/s  wall {:>8.3} s  gauged {:>8.3} s  \
             rss peak {}",
            p.ranks,
            p.records_total,
            p.records_peak,
            p.events,
            p.waiters_peak,
            p.events_per_sec,
            p.wall_s,
            p.gauged_wall_s,
            p.rss_peak_bytes
                .map(|b| format!("{:.1} MiB", b as f64 / (1024.0 * 1024.0)))
                .unwrap_or_else(|| "n/a".to_string()),
        );
        results.push(p);
    }
    let flow_points = flow_ladder(if quick {
        QUICK_FLOW_POINTS
    } else {
        FLOW_POINTS
    });

    let mut s = String::new();
    s.push_str("{\n  \"schema\": \"ovlp.bench_scale.v2\",\n");
    s.push_str(&format!("  \"quick\": {quick},\n"));
    s.push_str(&format!("  \"app\": \"{APP}\",\n"));
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    s.push_str(&format!(
        "  \"machine\": {{\"hardware_threads\": {threads}, \"commit\": \"{}\"}},\n",
        ovlp_bench::commit()
    ));
    s.push_str(&format!(
        "  \"events_per_sec_spread\": {},\n",
        json_f64(spread(
            results.iter().map(|p| p.events as f64 / p.gauged_wall_s)
        ))
    ));
    s.push_str("  \"points\": [\n");
    for (i, p) in results.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"ranks\": {}, \"records_total\": {}, \"records_peak\": {}, \
             \"events\": {}, \"transfers\": {}, \"queue_peak\": {}, \"msg_slots\": {}, \
             \"req_slots\": {}, \"chan_slots\": {}, \"waiters_peak\": {}, \"wall_s\": {}, \
             \"gauged_wall_s\": {}, \"events_per_sec\": {}, \"sim_runtime_s\": {}, \
             \"efficiency\": {}, \
             \"rss_peak_bytes\": {}}}{}",
            p.ranks,
            p.records_total,
            p.records_peak,
            p.events,
            p.transfers,
            p.queue_peak,
            p.msg_slots,
            p.req_slots,
            p.chan_slots,
            p.waiters_peak,
            json_f64(p.wall_s),
            json_f64(p.gauged_wall_s),
            json_f64(p.events_per_sec),
            json_f64(p.sim_runtime_s),
            json_f64(p.efficiency),
            json_opt_u64(p.rss_peak_bytes),
            if i + 1 < results.len() { ",\n" } else { "\n" }
        ));
    }
    s.push_str(&format!(
        "  ],\n  \"flow_topology\": \"{FLOW_TOPOLOGY}\",\n  \"flow_events_per_sec_spread\": {},\n",
        json_f64(spread(flow_points.iter().map(FlowPoint::events_per_sec)))
    ));
    s.push_str("  \"flow_points\": [\n");
    for (i, p) in flow_points.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"ranks\": {}, \"events\": {}, \"transfers\": {}, \"reshares\": {}, \
             \"stale_events\": {}, \"flow_wall_s\": {}, \"bus_wall_s\": {}, \
             \"wall_ratio\": {}, \"events_per_sec\": {}}}{}",
            p.ranks,
            p.events,
            p.transfers,
            p.reshares,
            p.stale_events,
            json_f64(p.flow_wall_s),
            json_f64(p.bus_wall_s),
            json_f64(p.wall_ratio()),
            json_f64(p.events_per_sec()),
            if i + 1 < flow_points.len() {
                ",\n"
            } else {
                "\n"
            }
        ));
    }
    s.push_str("  ]\n}\n");
    std::fs::write(&out, &s).unwrap_or_else(|e| panic!("cannot write {}: {e}", out.display()));
    println!("wrote {}", out.display());
}
