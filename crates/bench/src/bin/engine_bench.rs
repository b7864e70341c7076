//! Replay-engine throughput benchmark over the committed golden
//! fixtures.
//!
//! Replays `tests/fixtures/{sweep3d_4r,nas_cg_8r}.trf` across the four
//! contention models (bus, crossbar, fat-tree, torus) and reports
//! events/sec and reshares/sec (quoted against the fastest iteration;
//! the replay is deterministic, so iteration-to-iteration variance is
//! machine noise), per-replay wall time, and the event-queue
//! high-water mark. Each fixture's timed replays run between two
//! samples of the host-speed gauge ([`ovlp_bench::gauge`], as in
//! `scale_bench`), so every row also carries its mean replay time in
//! gauge units (`gauged_wall_s`) and the events/s computed from it
//! (`gauged_events_per_sec`), which host drift moves far less than the
//! wall-time figures. The measurements are written to
//! `BENCH_engine.json` (schema `ovlp.bench_engine.v4`) so the engine's
//! perf trajectory is tracked in-repo; see `docs/perf.md`. The document
//! records the machine it ran on: `hardware_threads` and the `commit`
//! (`git describe --always --dirty` of the working directory).
//!
//! ```text
//! engine_bench [--quick] [--out PATH] [--baseline EVENTS_PER_SEC] [--fixtures DIR]
//! ```
//!
//! `--quick` shrinks the sample count for CI smoke jobs. `--baseline`
//! embeds a reference events/sec figure (by convention: the
//! `nas_cg_8r` fat-tree replay measured at the parent commit) so the
//! emitted document records both sides of a before/after comparison.

use ovlp_bench::gauge::{Gauge, Timing};
use ovlp_machine::{simulate, Platform, SimResult};
use ovlp_trace::{text, Trace};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

struct Config {
    fixture: &'static str,
    topology: &'static str,
}

const CONFIGS: &[Config] = &[
    Config {
        fixture: "sweep3d_4r",
        topology: "bus",
    },
    Config {
        fixture: "sweep3d_4r",
        topology: "crossbar",
    },
    Config {
        fixture: "sweep3d_4r",
        topology: "fat-tree:4",
    },
    Config {
        fixture: "sweep3d_4r",
        topology: "torus:2x2",
    },
    Config {
        fixture: "nas_cg_8r",
        topology: "bus",
    },
    Config {
        fixture: "nas_cg_8r",
        topology: "crossbar",
    },
    Config {
        fixture: "nas_cg_8r",
        topology: "fat-tree:4",
    },
    Config {
        fixture: "nas_cg_8r",
        topology: "torus:2x2x2",
    },
];

struct Measurement {
    fixture: String,
    topology: String,
    ranks: usize,
    iterations: usize,
    wall_median_s: f64,
    wall_min_s: f64,
    /// Mean replay time over the timed iterations, in gauge units.
    gauged_wall_s: f64,
    events: u64,
    events_per_sec: f64,
    gauged_events_per_sec: f64,
    reshares: u64,
    reshares_per_sec: f64,
    stale_events: u64,
    queue_peak: usize,
    sim_runtime_s: f64,
}

fn fixture_dir(cli: Option<&str>) -> PathBuf {
    if let Some(d) = cli {
        return PathBuf::from(d);
    }
    // crates/bench -> workspace root; fall back to the cwd for a binary
    // invoked from a target/ directory copied elsewhere.
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures");
    if manifest.is_dir() {
        manifest
    } else {
        PathBuf::from("tests/fixtures")
    }
}

fn load(dir: &Path, stem: &str) -> Trace {
    let path = dir.join(format!("{stem}.trf"));
    let body = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read fixture {}: {e}", path.display()));
    text::parse(&body).unwrap_or_else(|e| panic!("{stem}: {e}"))
}

fn replay(trace: &Trace, platform: &Platform) -> SimResult {
    simulate(trace, platform).expect("fixture replay failed")
}

/// Repeat the replay until `budget` wall time is spent (at least
/// `min_iters` times) and report the sorted per-iteration walls, with
/// the timing of the whole batch between two gauge samples.
fn measure(
    gauge: &mut Gauge,
    trace: &Trace,
    platform: &Platform,
    budget: Duration,
    min_iters: usize,
) -> (Vec<Duration>, Timing, SimResult) {
    let sim = replay(trace, platform); // warmup + canonical result
    let (mut times, batch) = gauge.time(|| {
        let mut times = Vec::new();
        let start = Instant::now();
        while times.len() < min_iters || start.elapsed() < budget {
            let t0 = Instant::now();
            let s = replay(trace, platform);
            times.push(t0.elapsed());
            assert_eq!(
                s.events_processed, sim.events_processed,
                "nondeterministic replay"
            );
        }
        times
    });
    times.sort();
    (times, batch, sim)
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut out = PathBuf::from("BENCH_engine.json");
    let mut baseline: Option<f64> = None;
    let mut fixtures: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => quick = true,
            "--out" => {
                i += 1;
                out = PathBuf::from(args.get(i).expect("--out needs a path"));
            }
            "--baseline" => {
                i += 1;
                baseline = Some(
                    args.get(i)
                        .and_then(|v| v.parse().ok())
                        .expect("--baseline needs an events/sec number"),
                );
            }
            "--fixtures" => {
                i += 1;
                fixtures = Some(args.get(i).expect("--fixtures needs a dir").clone());
            }
            other => {
                eprintln!("unknown argument `{other}`");
                eprintln!(
                    "usage: engine_bench [--quick] [--out PATH] \
                     [--baseline EVENTS_PER_SEC] [--fixtures DIR]"
                );
                std::process::exit(2);
            }
        }
        i += 1;
    }

    let (budget, min_iters) = if quick {
        (Duration::from_millis(60), 3)
    } else {
        (Duration::from_millis(500), 9)
    };
    let dir = fixture_dir(fixtures.as_deref());

    let mut gauge = Gauge::new();
    let mut results = Vec::new();
    for cfg in CONFIGS {
        let trace = load(&dir, cfg.fixture);
        let platform =
            Platform::default().with_contention(cfg.topology.parse().unwrap_or_else(|e| {
                panic!("bad topology {}: {e}", cfg.topology);
            }));
        let (times, batch, sim) = measure(&mut gauge, &trace, &platform, budget, min_iters);
        let median = times[times.len() / 2].as_secs_f64();
        let min = times[0].as_secs_f64();
        let gauged = batch.gauged / times.len() as f64;
        // throughput is quoted from the fastest iteration: each replay
        // is deterministic and identical, so wall-time variance is pure
        // scheduler/frequency noise and the minimum is the least-biased
        // estimate on a shared machine (the median is kept alongside)
        let m = Measurement {
            fixture: cfg.fixture.to_string(),
            topology: cfg.topology.to_string(),
            ranks: trace.nranks(),
            iterations: times.len(),
            wall_median_s: median,
            wall_min_s: min,
            gauged_wall_s: gauged,
            events: sim.events_processed,
            events_per_sec: sim.events_processed as f64 / min,
            gauged_events_per_sec: sim.events_processed as f64 / gauged,
            reshares: sim.network.reshares,
            reshares_per_sec: sim.network.reshares as f64 / min,
            stale_events: sim.stale_events,
            queue_peak: sim.queue_peak,
            sim_runtime_s: sim.runtime(),
        };
        println!(
            "{:<11} {:<13} {:>9} events  {:>12.0} events/s  {:>12.0} gauged  {:>9} reshares  {:>12.0} reshares/s  min {:.3} ms  median {:.3} ms",
            m.fixture,
            m.topology,
            m.events,
            m.events_per_sec,
            m.gauged_events_per_sec,
            m.reshares,
            m.reshares_per_sec,
            m.wall_min_s * 1e3,
            m.wall_median_s * 1e3,
        );
        results.push(m);
    }

    let hw_threads = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);

    // The headline number the perf floor and the baseline comparison
    // refer to: the nas_cg_8r fat-tree replay (the reshare-dominated
    // configuration).
    let headline = results
        .iter()
        .find(|m| m.fixture == "nas_cg_8r" && m.topology.starts_with("fat-tree"))
        .expect("headline config missing");
    let headline_events_per_sec = headline.events_per_sec;

    let mut s = String::new();
    s.push_str("{\n  \"schema\": \"ovlp.bench_engine.v4\",\n");
    s.push_str(&format!("  \"quick\": {quick},\n"));
    s.push_str(&format!("  \"hardware_threads\": {hw_threads},\n"));
    s.push_str(&format!("  \"commit\": \"{}\",\n", ovlp_bench::commit()));
    s.push_str(&format!(
        "  \"headline\": {{\"fixture\": \"nas_cg_8r\", \"topology\": \"fat-tree:4\", \"events_per_sec\": {}, \"gauged_events_per_sec\": {}}},\n",
        json_f64(headline_events_per_sec),
        json_f64(headline.gauged_events_per_sec)
    ));
    match baseline {
        Some(b) => {
            s.push_str(&format!(
                "  \"baseline\": {{\"events_per_sec\": {}, \"note\": \"nas_cg_8r fat-tree:4 at the parent commit\"}},\n",
                json_f64(b)
            ));
            s.push_str(&format!(
                "  \"speedup_vs_baseline\": {},\n",
                json_f64(headline_events_per_sec / b)
            ));
        }
        None => {
            s.push_str("  \"baseline\": null,\n  \"speedup_vs_baseline\": null,\n");
        }
    }
    s.push_str("  \"results\": [\n");
    for (i, m) in results.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"fixture\": \"{}\", \"topology\": \"{}\", \"ranks\": {}, \"iterations\": {}, \
             \"wall_median_s\": {}, \"wall_min_s\": {}, \"gauged_wall_s\": {}, \"events\": {}, \
             \"events_per_sec\": {}, \"gauged_events_per_sec\": {}, \
             \"reshares\": {}, \"reshares_per_sec\": {}, \"stale_events\": {}, \"queue_peak\": {}, \
             \"sim_runtime_s\": {}}}{}",
            m.fixture,
            m.topology,
            m.ranks,
            m.iterations,
            json_f64(m.wall_median_s),
            json_f64(m.wall_min_s),
            json_f64(m.gauged_wall_s),
            m.events,
            json_f64(m.events_per_sec),
            json_f64(m.gauged_events_per_sec),
            m.reshares,
            json_f64(m.reshares_per_sec),
            m.stale_events,
            m.queue_peak,
            json_f64(m.sim_runtime_s),
            if i + 1 < results.len() { ",\n" } else { "\n" }
        ));
    }
    s.push_str("  ]\n}\n");
    std::fs::write(&out, &s).unwrap_or_else(|e| panic!("cannot write {}: {e}", out.display()));
    println!("wrote {}", out.display());
}
