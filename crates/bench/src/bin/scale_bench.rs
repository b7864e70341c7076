//! Weak-scaling trajectory of the streamed summary-mode replay.
//!
//! Replays the registry's generated `ml-allreduce` workload through
//! [`ovlp_machine::replay_scale`] at a ladder of rank counts and
//! records, per point: ranks, streamed record count, the records
//! resident high-water mark (the number the whole streaming tentpole
//! exists to keep flat), the blocked-transfer high-water mark,
//! events/sec, and the process RSS high-water mark from
//! `/proc/self/status` (ground truth that the engine-level counter is
//! honest). The measurements are written to `BENCH_scale.json` (schema
//! `ovlp.bench_scale.v1`) together with the machine they ran on
//! (`hardware_threads`, `git describe` of the checkout) and the
//! events/sec spread across the ladder, so the memory and throughput
//! trajectory is tracked in-repo; `scripts/check_scale_bench.py`
//! validates the document and CI's `scale-smoke` job re-runs the quick
//! ladder under a hard `ulimit -v`.
//!
//! ```text
//! scale_bench [--quick] [--out PATH] [--points R1,R2,..]
//! ```
//!
//! Points run in increasing rank order; `VmHWM` is process-monotone,
//! so each point's figure is "peak RSS up to and including this point"
//! — still a valid sublinearity witness, since the largest point
//! dominates.

use ovlp_core::presets::marenostrum_for;
use ovlp_machine::replay_scale;
use std::path::PathBuf;
use std::time::Instant;

const APP: &str = "ml-allreduce";

/// Full ladder: up to three orders of magnitude past the
/// thread-per-rank cap.
const POINTS: &[usize] = &[1_000, 10_000, 100_000, 1_000_000];
/// CI smoke ladder (the 10k point is the one `scale-smoke` runs under
/// `ulimit -v`).
const QUICK_POINTS: &[usize] = &[1_000, 10_000];

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

/// `git describe --always --dirty` of the working directory, so a run
/// on uncommitted changes says so; `unknown` outside a git checkout.
fn commit() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
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
    let replay = |ranks: usize| {
        let source = entry
            .source(ranks)
            .unwrap_or_else(|e| panic!("{APP} at {ranks} ranks: {e}"));
        let t0 = Instant::now();
        let rep = replay_scale(source.as_ref(), &platform)
            .unwrap_or_else(|e| panic!("{APP} at {ranks} ranks: {e}"));
        (rep, t0.elapsed().as_secs_f64())
    };
    // One untimed replay of the smallest point first, so the first timed
    // point does not pay the process's page faults and allocator growth.
    if let Some(&ranks) = ladder.first() {
        replay(ranks);
    }
    let mut results = Vec::new();
    for &ranks in &ladder {
        let (rep, wall) = replay(ranks);
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
            wall_s: wall,
            events_per_sec: rep.events_processed as f64 / wall,
            sim_runtime_s: rep.runtime.as_secs(),
            efficiency: rep.efficiency(),
            rss_peak_bytes: rss_peak_bytes(),
        };
        println!(
            "{APP} {:>8} ranks  {:>11} records ({:>9} resident peak)  {:>11} events  \
             {:>7} blocked peak  {:>12.0} events/s  wall {:>8.3} s  rss peak {}",
            p.ranks,
            p.records_total,
            p.records_peak,
            p.events,
            p.waiters_peak,
            p.events_per_sec,
            p.wall_s,
            p.rss_peak_bytes
                .map(|b| format!("{:.1} MiB", b as f64 / (1024.0 * 1024.0)))
                .unwrap_or_else(|| "n/a".to_string()),
        );
        results.push(p);
    }

    let mut s = String::new();
    s.push_str("{\n  \"schema\": \"ovlp.bench_scale.v1\",\n");
    s.push_str(&format!("  \"quick\": {quick},\n"));
    s.push_str(&format!("  \"app\": \"{APP}\",\n"));
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    s.push_str(&format!(
        "  \"machine\": {{\"hardware_threads\": {threads}, \"commit\": \"{}\"}},\n",
        commit()
    ));
    // fastest over slowest point: 1.0 is perfectly flat weak scaling
    let eps = results.iter().map(|p| p.events_per_sec);
    let spread = eps.clone().fold(0.0, f64::max) / eps.fold(f64::INFINITY, f64::min);
    s.push_str(&format!(
        "  \"events_per_sec_spread\": {},\n",
        json_f64(spread)
    ));
    s.push_str("  \"points\": [\n");
    for (i, p) in results.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"ranks\": {}, \"records_total\": {}, \"records_peak\": {}, \
             \"events\": {}, \"transfers\": {}, \"queue_peak\": {}, \"msg_slots\": {}, \
             \"req_slots\": {}, \"chan_slots\": {}, \"waiters_peak\": {}, \"wall_s\": {}, \
             \"events_per_sec\": {}, \"sim_runtime_s\": {}, \"efficiency\": {}, \
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
            json_f64(p.events_per_sec),
            json_f64(p.sim_runtime_s),
            json_f64(p.efficiency),
            json_opt_u64(p.rss_peak_bytes),
            if i + 1 < results.len() { ",\n" } else { "\n" }
        ));
    }
    s.push_str("  ]\n}\n");
    std::fs::write(&out, &s).unwrap_or_else(|e| panic!("cannot write {}: {e}", out.display()));
    println!("wrote {}", out.display());
}
