//! `daemon-mixed`: the `ovlp serve` daemon under a closed loop of two
//! clients with zero think time, one connection each.
//!
//! Jobs come from a 12-spec catalog — six apps at 32 ranks, each with
//! two axis sets. Set-up pre-writes one axis set per app into the store
//! with `ovlp sweep --store`, so the mix covers store reads (pre-written
//! specs), replays plus writes (first-time specs) and memory hits
//! (repeats). Every round submits each spec once, in a seed-shuffled
//! order; rounds run one after another, and a run ends on a round
//! boundary, so every run has the same mix.

use crate::gauge::{Gauge, Timing};
use crate::http;
use crate::proc;
use crate::spans::Spans;
use crate::stats::{median, tail, Summary};
use crate::sweep::{cli_hashes, evaluate, prepare, Axes, Eval, APPS};
use crate::{secs, Ctx, Outcome};
use overlap_sim::core::sweep::store::{DiskStore, StoredPoint};
use overlap_sim::core::sweep::SweepApp;
use overlap_sim::serve::json::{self, Obj, Value};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::Mutex;
use std::time::{Duration, Instant};

const RANKS: usize = 32;
const SMOKE_RANKS: usize = 8;
const CLIENTS: usize = 2;
/// The daemon's peak memory is read when the load submits this job. Its
/// high-water mark creeps up with every job, so faster and slower code
/// are compared after the same work; smoke runs, which submit fewer
/// jobs, read it at the end.
const RSS_MARK: usize = 120;
/// Daemon spawns per run; the reported set-up time is their median.
const SETUPS: usize = 7;
/// The job every set-up repetition waits for: one pre-written point, so
/// each repetition reads it back from disk.
const PROBE_APP: &str = "nas-cg";
const PROBE_RANKS: usize = 16;
const PROBE: Axes = Axes {
    chunks: &[4],
    bw: &[250.0],
    topologies: &["bus"],
};
/// Pre-written by set-up: first submissions read the store from disk.
const STORED: Axes = Axes {
    chunks: &[1, 4],
    bw: &[250.0, 2500.0],
    topologies: &["bus"],
};
/// Not pre-written: first submissions replay on a flow topology and
/// write the store.
const FRESH: Axes = Axes {
    chunks: &[2, 8],
    bw: &[25.0, 250.0],
    topologies: &["fat-tree:16"],
};

struct Spec {
    app: &'static str,
    stored: bool,
}

impl Spec {
    fn axes(&self) -> &'static Axes {
        if self.stored {
            &STORED
        } else {
            &FRESH
        }
    }
}

/// A running daemon; stopped and reaped when dropped.
struct Daemon {
    child: Child,
    addr: String,
    /// Kept open after the banner: the daemon must never write to a
    /// closed pipe.
    stdout: BufReader<ChildStdout>,
}

impl Drop for Daemon {
    /// SIGTERM makes the daemon drain and seal its journal before it
    /// exits. After a SIGKILL the next daemon on the same store could
    /// find the last job unsealed and replay it while starting, which
    /// made about half the set-up repetitions 50 ms slower.
    fn drop(&mut self) {
        proc::terminate(&mut self.child, Duration::from_secs(10));
    }
}

/// Spawn `ovlp serve` on `store` and wait until `/v1/health` reports
/// ready.
fn spawn(ovlp: &Path, store: &Path) -> Result<Daemon, String> {
    let mut child = Command::new(ovlp)
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--max-running",
            "2",
            "--store",
        ])
        .arg(store)
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot start the daemon: {e}"))?;
    let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
    let mut daemon = Daemon {
        child,
        addr: String::new(),
        stdout,
    };
    let mut banner = String::new();
    daemon
        .stdout
        .read_line(&mut banner)
        .map_err(|e| format!("daemon banner: {e}"))?;
    daemon.addr = banner
        .trim()
        .rsplit("http://")
        .next()
        .filter(|a| a.contains(':'))
        .ok_or_else(|| format!("unexpected daemon banner {banner:?}"))?
        .to_string();
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        if let Ok(r) = http::request(&daemon.addr, "GET", "/v1/health", "") {
            if r.status == 200 && field(&r.body, "ready").and_then(|v| v.as_bool()) == Some(true) {
                return Ok(daemon);
            }
        }
        if Instant::now() > deadline {
            return Err("daemon never reported ready".to_string());
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// One top-level field of a JSON object document.
fn field(doc: &str, key: &str) -> Option<Value> {
    json::parse(doc).ok()?.as_obj()?.get(key).cloned()
}

/// One completed job, as the client saw it.
struct Job {
    spec: usize,
    /// Which round of the catalog the job belongs to.
    round: usize,
    id: String,
    start: Instant,
    accepted: Instant,
    first_point: Instant,
    done: Instant,
    hashes: Vec<u64>,
}

impl Job {
    fn latency(&self) -> f64 {
        (self.done - self.start).as_secs_f64()
    }
}

/// Submit one job and read its stream to the `sweep-done` line.
/// Non-2xx answers, refused connections, failed points and malformed
/// lines are all errors.
fn run_job(addr: &str, spec: usize, body: &str, points: usize) -> Result<Job, String> {
    let start = Instant::now();
    let resp = http::request(addr, "POST", "/v1/sweeps", body).map_err(|e| format!("POST: {e}"))?;
    if resp.status != 202 {
        return Err(format!(
            "POST answered {}: {}",
            resp.status,
            resp.body.trim()
        ));
    }
    let id = field(&resp.body, "job")
        .and_then(|v| v.as_str().map(String::from))
        .ok_or_else(|| format!("no job id in {}", resp.body.trim()))?;
    let accepted = Instant::now();
    let mut lines =
        http::stream(addr, &format!("/v1/sweeps/{id}")).map_err(|e| format!("stream: {e}"))?;
    let mut first_point = None;
    let mut hashes = Vec::with_capacity(points);
    loop {
        let line = lines
            .next_line()
            .map_err(|e| format!("{id}: {e}"))?
            .ok_or_else(|| format!("{id}: stream ended before its done line"))?;
        let doc = json::parse(&line).map_err(|e| format!("{id}: bad line {line:?}: {e}"))?;
        let obj = doc
            .as_obj()
            .ok_or_else(|| format!("{id}: line is not an object"))?;
        let num = |k: &str| obj.get(k).and_then(Value::as_u64);
        match obj.get("schema").and_then(Value::as_str) {
            Some("ovlp.sweep-point.v1") => {
                first_point.get_or_insert_with(Instant::now);
                let hash = obj
                    .get("hash")
                    .and_then(Value::as_str)
                    .and_then(|h| u64::from_str_radix(h, 16).ok())
                    .ok_or_else(|| format!("{id}: failed point {line}"))?;
                hashes.push(hash);
            }
            Some("ovlp.sweep-done.v1") => {
                if num("failed") != Some(0) || num("ok") != Some(points as u64) {
                    return Err(format!("{id}: {line}"));
                }
                let done = Instant::now();
                return Ok(Job {
                    spec,
                    round: 0,
                    id,
                    start,
                    accepted,
                    first_point: first_point.unwrap_or(done),
                    done,
                    hashes,
                });
            }
            _ => return Err(format!("{id}: unexpected line {line}")),
        }
    }
}

/// The closed-loop load on one daemon.
struct Load<'a> {
    ctx: &'a Ctx,
    addr: &'a str,
    /// The daemon's process id, for its peak memory.
    pid: String,
    catalog: &'a [Spec],
    bodies: &'a [String],
    rss_at_mark: Mutex<Option<f64>>,
}

impl Load<'_> {
    /// Round `round`: every catalog spec once, in the round's order,
    /// from [`CLIENTS`] clients with zero think time.
    fn round(&self, round: usize) -> Vec<Result<Job, String>> {
        let n = self.catalog.len();
        let next = Mutex::new(round * n);
        let results = Mutex::new(Vec::new());
        std::thread::scope(|s| {
            for _ in 0..CLIENTS {
                s.spawn(|| loop {
                    let index = {
                        let mut next = next.lock().expect("no client panics holding the queue");
                        if *next == (round + 1) * n {
                            break;
                        }
                        *next += 1;
                        *next - 1
                    };
                    if index == RSS_MARK {
                        let rss = proc::vm_hwm_mib(&self.pid);
                        *self
                            .rss_at_mark
                            .lock()
                            .expect("no client panics holding it") = rss;
                    }
                    let spec = job_spec(self.ctx, n, index);
                    let points = self.catalog[spec].axes().points();
                    let res =
                        run_job(self.addr, spec, &self.bodies[spec], points).map(|mut job| {
                            job.round = round;
                            job
                        });
                    results
                        .lock()
                        .expect("no client panics holding results")
                        .push(res);
                });
            }
        });
        results.into_inner().expect("clients joined")
    }
}

/// Which catalog entry the `index`-th job submits: each round is a
/// seed-shuffled permutation of the whole catalog.
fn job_spec(ctx: &Ctx, n: usize, index: usize) -> usize {
    let mut perm: Vec<usize> = (0..n).collect();
    ctx.rng(100 + (index / n) as u64).shuffle(&mut perm);
    perm[index % n]
}

/// `/v1/store/stats` counters: memory-tier hits, misses, coalesced
/// joins, disk bytes read and written.
fn store_stats(addr: &str) -> Result<[f64; 5], String> {
    let r = http::request(addr, "GET", "/v1/store/stats", "").map_err(|e| e.to_string())?;
    let doc = json::parse(&r.body).map_err(|e| e.to_string())?;
    let o = doc.as_obj().ok_or("store stats is not an object")?;
    let num = |o: &Obj, k: &str| o.get(k).and_then(Value::as_f64).unwrap_or(0.0);
    let disk = o
        .get("disk")
        .and_then(Value::as_obj)
        .cloned()
        .unwrap_or_default();
    Ok([
        num(o, "hits"),
        num(o, "misses"),
        num(o, "coalesced"),
        num(&disk, "bytes_read"),
        num(&disk, "bytes_written"),
    ])
}

fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let dest = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_dir(&entry.path(), &dest)?;
        } else {
            std::fs::copy(entry.path(), dest)?;
        }
    }
    Ok(())
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let ranks = if ctx.smoke { SMOKE_RANKS } else { RANKS };
    let mut apps = APPS;
    ctx.rng(3).shuffle(&mut apps);
    let apps = if ctx.smoke { &apps[..3] } else { &apps[..] };
    let catalog: Vec<Spec> = apps
        .iter()
        .flat_map(|&app| [true, false].map(|stored| Spec { app, stored }))
        .collect();

    // Set-up: pre-write one axis set per app, keeping the CLI's report
    // for the byte-identity check; then spawn the daemon several times.
    let store = ctx.scratch.join("store");
    let mut cli: BTreeMap<usize, (String, Vec<u64>)> = BTreeMap::new();
    for (i, spec) in catalog.iter().enumerate().filter(|(_, s)| s.stored) {
        let mut args = STORED.cli(spec.app, ranks);
        args.extend(["--store".to_string(), store.display().to_string()]);
        let args: Vec<&str> = args.iter().map(String::as_str).collect();
        let res = proc::run(&ctx.ovlp, &args)
            .and_then(|r| Ok((cli_hashes(&r.stdout, STORED.points())?, r.stdout)));
        if let Some((hashes, stdout)) = out.op(res) {
            cli.insert(i, (stdout, hashes));
        }
    }
    let copy = ctx.scratch.join("store-copy");
    if ctx.traced {
        out.op(copy_dir(&store, &copy).map_err(|e| format!("copying the store: {e}")));
    }
    // Set-up time: spawn until the daemon served its first result.
    let mut probe = PROBE.cli(PROBE_APP, PROBE_RANKS);
    probe.extend(["--store".to_string(), store.display().to_string()]);
    let probe: Vec<&str> = probe.iter().map(String::as_str).collect();
    let probe_hashes =
        out.op(proc::run(&ctx.ovlp, &probe).and_then(|r| cli_hashes(&r.stdout, PROBE.points())));
    let probe_body = PROBE.job_json(PROBE_APP, PROBE_RANKS);
    let mut setup = Vec::new();
    let mut daemon = None;
    for _ in 0..if ctx.smoke { 2 } else { SETUPS } {
        daemon = None; // the previous daemon is killed before the next spawns
        let t = Instant::now();
        let res = spawn(&ctx.ovlp, &store).and_then(|d| {
            let job = run_job(&d.addr, usize::MAX, &probe_body, PROBE.points())?;
            if Some(&job.hashes) != probe_hashes.as_ref() {
                return Err("the probe job's result differs from ovlp sweep".to_string());
            }
            Ok(d)
        });
        if let Some(d) = out.op(res) {
            setup.push(secs(t));
            daemon = Some(d);
        }
    }
    let Some(daemon) = daemon else {
        out.set("setup_s", f64::NAN);
        return out;
    };
    let addr = daemon.addr.clone();
    let stats_before = out.op(store_stats(&addr));

    // Load: rounds of two closed-loop clients until the deadline. Each
    // round runs between two samples of the host-speed gauge (see
    // gauge.rs), taken while the daemon is idle.
    let bodies: Vec<String> = catalog
        .iter()
        .map(|s| s.axes().job_json(s.app, ranks))
        .collect();
    let load = Load {
        ctx,
        addr: &addr,
        pid: daemon.child.id().to_string(),
        catalog: &catalog,
        bodies: &bodies,
        rss_at_mark: Mutex::new(None),
    };
    let mut gauge = Gauge::new(ctx.smoke);
    let mut rounds: Vec<Timing> = Vec::new();
    let mut jobs = Vec::new();
    let started = Instant::now();
    while rounds.is_empty() || !(ctx.smoke || secs(started) >= ctx.seconds) {
        let (results, time) = gauge.time(|| load.round(rounds.len()));
        rounds.push(time);
        for r in results {
            if let Some(job) = out.op(r) {
                jobs.push(job);
            }
        }
    }
    let load_s = secs(started);

    // Output checks: every repetition of a spec streams the same hashes;
    // pre-written specs stream the CLI's hashes; one job's report is
    // byte-identical to the CLI's stdout for the same spec.
    let mut seen: BTreeMap<usize, Vec<u64>> = BTreeMap::new();
    for job in &jobs {
        let want = seen.entry(job.spec).or_insert_with(|| {
            cli.get(&job.spec)
                .map_or(job.hashes.clone(), |(_, h)| h.clone())
        });
        if *want != job.hashes {
            out.op::<()>(Err(format!(
                "job {} ({}): point hashes differ from earlier results for the same spec",
                job.id, catalog[job.spec].app
            )));
        }
    }
    let stored_jobs: Vec<&Job> = jobs.iter().filter(|j| cli.contains_key(&j.spec)).collect();
    if !stored_jobs.is_empty() {
        let job = stored_jobs[ctx.rng(4).below(stored_jobs.len())];
        let res = http::request(&addr, "GET", &format!("/v1/sweeps/{}/report", job.id), "")
            .map_err(|e| e.to_string())
            .and_then(|r| {
                if r.status == 200 && r.body == cli[&job.spec].0 {
                    Ok(())
                } else {
                    Err(format!(
                        "job {} report differs from ovlp sweep stdout",
                        job.id
                    ))
                }
            });
        out.op(res);
    }

    let stats_after = out.op(store_stats(&addr));
    let mut server_s = 0.0;
    if ctx.traced {
        for job in &jobs {
            let res = http::request(
                &addr,
                "GET",
                &format!("/v1/sweeps/{}/summary?wait=1", job.id),
                "",
            )
            .map_err(|e| e.to_string())
            .and_then(|r| {
                field(&r.body, "elapsed_ms")
                    .and_then(|v| v.as_f64())
                    .ok_or_else(|| format!("no elapsed_ms in {}", r.body))
            });
            server_s += out.op(res).unwrap_or(0.0) / 1e3;
        }
    }
    let rss = load.rss_at_mark.into_inner().expect("clients joined");
    let rss = rss.or_else(|| proc::vm_hwm_mib(&load.pid));
    out.set("peak_rss_mb", rss.unwrap_or(f64::NAN));
    drop(daemon);

    // A job's gauged latency is its latency scaled like its round's. The
    // job time is the mean over specs of each spec's median gauged
    // latency; the throughput comes from the median gauged round. The
    // notes give the wall-time distributions.
    let latencies: Vec<f64> = jobs.iter().map(Job::latency).collect();
    let mut gauged: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for job in &jobs {
        let round = rounds[job.round];
        gauged
            .entry(job.spec)
            .or_default()
            .push(job.latency() * round.gauged / round.wall);
    }
    let per_spec: Vec<f64> = gauged.values().filter_map(|g| median(g)).collect();
    let round_s: Vec<f64> = rounds.iter().map(|r| r.wall).collect();
    let round_gauged: Vec<f64> = rounds.iter().map(|r| r.gauged).collect();
    let median_latency = median(&latencies).unwrap_or(f64::NAN);
    out.set(
        "wall_s",
        per_spec.iter().sum::<f64>() / per_spec.len() as f64,
    );
    out.set(
        "throughput",
        catalog.len() as f64 / median(&round_gauged).unwrap_or(f64::NAN),
    );
    out.set("setup_s", median(&setup).unwrap_or(f64::NAN));
    let tail = tail(&latencies);
    out.note(format!(
        "{} jobs in {load_s:.2} s from {CLIENTS} clients: {:.3} jobs/s",
        jobs.len(),
        jobs.len() as f64 / load_s
    ));
    if let Some(sum) = Summary::of(&round_s) {
        out.note(format!("round wall {sum}"));
    }
    if let Some(sum) = Summary::of(gauge.samples()) {
        out.note(format!("gauge {sum}"));
    }
    if let Some(sum) = Summary::of(&latencies) {
        out.note(format!("job latency {sum}"));
    }
    if let Some((p, v)) = tail {
        out.note(format!(
            "job latency p{p} {v:.6} (ten or more jobs beyond it)"
        ));
    }
    if let Some(sum) = Summary::of(&setup) {
        out.note(format!("spawn to first result {sum}"));
    }

    if ctx.traced {
        let mut sp = ctx.spans(true);
        for (n, job) in jobs.iter().enumerate() {
            let n = n as u64;
            sp.record("serve.submit", n, job.start, job.accepted);
            sp.record("serve.first_point", n, job.accepted, job.first_point);
            sp.record("serve.stream", n, job.first_point, job.done);
        }
        let wall_sum: f64 = latencies.iter().sum();
        out.set("trace_coverage", sp.top_level_s() / wall_sum);
        out.set("tail_ratio", tail.map_or(0.0, |(_, v)| v / median_latency));
        if let (Some(b), Some(a)) = (stats_before, stats_after) {
            let d: Vec<f64> = a.iter().zip(b).map(|(a, b)| a - b).collect();
            let n = jobs.len() as f64;
            out.set("store_hit_ratio", d[0] / (d[0] + d[1]));
            out.set("coalesced", d[2] / n);
            out.set("disk_bytes_read", d[3] / n);
            out.set("disk_bytes_written", d[4] / n);
        }
        let mut probe_spans = ctx.spans(true);
        probes(
            ctx,
            &mut out,
            &mut probe_spans,
            &catalog,
            &jobs,
            ranks,
            &copy,
            wall_sum,
            server_s,
        );
        out.set(
            "trace_overhead_pct",
            100.0 * (sp.spans().len() + probe_spans.spans().len()) as f64 * crate::spans::cost_s()
                / wall_sum,
        );
        sp.absorb(probe_spans);
        out.spans = Some(sp);
    }
    out
}

/// Per-layer attribution of the daemon's work. The daemon traces and
/// fingerprints the app at every submission, reads the store for each
/// first submission of a pre-written spec, and transforms, replays and
/// writes for each first submission of a fresh spec; repeats are memory
/// hits. Each of those calls is timed here in process, on the same
/// inputs and a copy of the pre-written store, and weighted by the mix
/// the clients ran. The rest of each job's wall time is the serve layer.
#[allow(clippy::too_many_arguments)]
fn probes(
    ctx: &Ctx,
    out: &mut Outcome,
    sp: &mut Spans,
    catalog: &[Spec],
    jobs: &[Job],
    ranks: usize,
    copy: &Path,
    wall_sum: f64,
    server_s: f64,
) {
    let Some(store) = out.op(DiskStore::open(copy).map_err(|e| e.to_string())) else {
        return;
    };
    // per app: (trace s, fingerprint s, records); per spec: what its
    // first submission costs
    let mut app_cost: BTreeMap<&str, (f64, f64, f64)> = BTreeMap::new();
    let mut spec_cost: BTreeMap<usize, FirstCost> = BTreeMap::new();
    let mut queue_peak = 0usize;
    let mut prepared: BTreeMap<&str, SweepApp> = BTreeMap::new();
    for (i, spec) in catalog.iter().enumerate() {
        let req = 1_000 + i as u64;
        let mut local = ctx.spans(true);
        if !prepared.contains_key(spec.app) {
            let Some(app) = out.op(prepare(spec.app, ranks, &mut local, req)) else {
                continue;
            };
            app_cost.insert(
                spec.app,
                (
                    local.self_s("instr.trace_run"),
                    local.self_s("core.fingerprint"),
                    app.run.trace.total_records() as f64,
                ),
            );
            prepared.insert(spec.app, app);
        }
        let app = &prepared[spec.app];
        let Some(eval) = out.op(evaluate(app, spec.axes(), &mut local, req)) else {
            continue;
        };
        let store_s = store_probe(out, &mut local, &store, &app.name, &eval, spec.stored, req);
        let hashes: Vec<u64> = eval.points.iter().map(|p| p.hash(&app.name)).collect();
        if jobs.iter().any(|j| j.spec == i && j.hashes != hashes) {
            out.op::<()>(Err(format!(
                "{}: daemon hashes differ from in-process",
                spec.app
            )));
        }
        // only fresh specs are computed; pre-written ones are store reads
        spec_cost.insert(
            i,
            if spec.stored {
                FirstCost {
                    store: store_s,
                    ..FirstCost::default()
                }
            } else {
                queue_peak = queue_peak.max(eval.queue_peak);
                FirstCost {
                    transform: local.self_s("core.transform"),
                    expand: local.self_s("machine.expand"),
                    replay: local.self_s("machine.replay"),
                    store: store_s,
                    events: eval.events as f64,
                }
            },
        );
        sp.absorb(local);
    }
    let n = jobs.len() as f64;
    let (mut supply, mut fingerprint, mut records) = (0.0, 0.0, 0.0);
    for job in jobs {
        if let Some(&(t, f, r)) = app_cost.get(catalog[job.spec].app) {
            supply += t;
            fingerprint += f;
            records += r;
        }
    }
    let mut first = FirstCost::default();
    let specs: std::collections::BTreeSet<usize> = jobs.iter().map(|j| j.spec).collect();
    for c in specs.iter().filter_map(|i| spec_cost.get(i)) {
        first.transform += c.transform;
        first.expand += c.expand;
        first.replay += c.replay;
        first.store += c.store;
        first.events += c.events;
    }
    let FirstCost {
        transform,
        expand,
        replay,
        store: store_s,
        events,
    } = first;
    out.set("supply_s", supply / n);
    out.set("replay_s", replay / n);
    out.set("ns_per_event", replay / events * 1e9);
    out.set("records", records / n);
    out.set("events", events / n);
    out.set("queue_peak", queue_peak as f64);
    out.set("share_supply", supply / wall_sum);
    out.set("share_fingerprint", fingerprint / wall_sum);
    out.set("share_transform", transform / wall_sum);
    out.set("share_expand", expand / wall_sum);
    out.set("share_replay", replay / wall_sum);
    out.set("share_store", store_s / wall_sum);
    out.set(
        "share_serve",
        ((wall_sum - supply - fingerprint - server_s) / wall_sum).max(0.0),
    );
}

/// What the first submission of one spec costs the daemon beyond the
/// trace and fingerprint every submission pays, in seconds, and the
/// events it replays.
#[derive(Debug, Default, Clone, Copy)]
struct FirstCost {
    transform: f64,
    expand: f64,
    replay: f64,
    store: f64,
    events: f64,
}

/// Time the store calls one first submission makes: a verified read per
/// point, and for computed points a write. Reads of pre-written points
/// must return the in-process runtimes bit for bit.
fn store_probe(
    out: &mut Outcome,
    sp: &mut Spans,
    store: &DiskStore,
    app: &str,
    eval: &Eval,
    stored: bool,
    req: u64,
) -> f64 {
    let before = sp.self_s("core.store");
    let mut mismatch = false;
    for p in &eval.points {
        let got = sp.time("core.store_get", req, || store.get(p.key));
        if stored {
            let runtimes = got.map(|s| [s.t_original, s.t_overlapped, s.t_ideal]);
            mismatch |= runtimes != Some(p.runtimes);
        } else {
            let point = StoredPoint {
                t_original: p.runtimes[0],
                t_overlapped: p.runtimes[1],
                t_ideal: p.runtimes[2],
            };
            let put = sp.time("core.store_put", req, || store.put(p.key, &point));
            mismatch |= got.is_some() || put.is_err();
        }
    }
    if mismatch {
        out.op::<()>(Err(format!("{app}: store probe read or write failed")));
    }
    sp.self_s("core.store") - before
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A refused connection is a failed job, and counts against the
    /// run's failures like any other.
    #[test]
    fn refused_jobs_count_as_failed() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        drop(listener);
        let mut out = Outcome::default();
        assert!(out.op(run_job(&addr, 0, "{}", 1)).is_none());
        assert!(out.op(Ok::<(), String>(())).is_some());
        assert_eq!((out.attempted, out.failed), (2, 1));
        assert_eq!(crate::stats::fail_ratio(out.attempted, out.failed), 0.5);
    }

    #[test]
    fn rounds_cover_the_catalog_once_each() {
        let ctx = Ctx {
            ovlp: "ovlp".into(),
            exe: "ovlp-benchmark".into(),
            seed: 9,
            seconds: 0.0,
            traced: false,
            smoke: true,
            scratch: std::env::temp_dir(),
            epoch: Instant::now(),
        };
        for round in 0..3 {
            let mut specs: Vec<usize> = (0..12)
                .map(|i| job_spec(&ctx, 12, round * 12 + i))
                .collect();
            specs.sort_unstable();
            assert_eq!(specs, (0..12).collect::<Vec<_>>());
        }
    }
}
