//! `ovlp-benchmark`: end-to-end and per-layer performance of the overlap
//! simulator, on four workloads (see `README.md` and `metrics.rs`).
//!
//! ```text
//! ovlp-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//!                [--spans FILE] [--smoke] [--record FILE]
//! ovlp-benchmark --check BENCHMARK.json
//! ```
//!
//! With `--workload`, one workload runs in this process and the last
//! line of stdout is its result as one JSON object: the end-to-end
//! metrics untraced (`--trace 0`), or the per-layer metrics from a
//! traced run (`--trace 1`). Without it, every workload runs in its own
//! child process, so peak memory is per workload. The exit code is 1
//! when any output check fails, 2 on a usage error.

mod check;
mod daemon;
mod gauge;
mod http;
mod metrics;
mod proc;
mod scale;
mod spans;
mod stats;
mod sweep;

use overlap_sim::serve::json::{self, Obj, Value};
use spans::Spans;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

/// Everything a workload needs to run.
pub struct Ctx {
    /// The shipped `ovlp` binary.
    pub ovlp: PathBuf,
    /// This benchmark's binary, for work that must run in a fresh
    /// process.
    pub exe: PathBuf,
    pub seed: u64,
    /// Measurement budget; every workload also completes at least one
    /// unit of work.
    pub seconds: f64,
    pub traced: bool,
    /// Tiny inputs and a single repetition, for the test suite.
    pub smoke: bool,
    /// Private directory for stores and temp files (removed at exit).
    pub scratch: PathBuf,
    /// Zero point of every span.
    pub epoch: Instant,
}

impl Ctx {
    pub fn rng(&self, stream: u64) -> Rng {
        Rng(self.seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    pub fn spans(&self, enabled: bool) -> Spans {
        Spans::new(self.epoch, enabled)
    }
}

/// What one workload run produced.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
    pub spans: Option<Spans>,
}

impl Outcome {
    /// Count one operation; a failed one is recorded with its reason.
    pub fn op<T>(&mut self, result: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                self.problems.push(e);
                None
            }
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }
}

/// splitmix64: a small, seedable generator for workload inputs.
pub struct Rng(u64);

impl Rng {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Time elapsed since `t`, in seconds.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    spans: Option<PathBuf>,
    smoke: bool,
    record: Option<PathBuf>,
    check: Option<PathBuf>,
    mirror: Option<String>,
}

const USAGE: &str = "usage: ovlp-benchmark [--workload NAME] [--seed N] [--seconds S] \
                     [--trace 0|1] [--spans FILE] [--smoke] [--record FILE]\n       \
                     ovlp-benchmark --check BENCHMARK.json";

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: 27.0,
        traced: false,
        spans: None,
        smoke: false,
        record: None,
        check: None,
        mirror: None,
    };
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            a.smoke = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .clone();
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} value `{value}`: {e}");
        match flag.as_str() {
            "--workload" => {
                if !metrics::WORKLOADS.iter().any(|w| w.name == value) {
                    return Err(format!("unknown workload `{value}`"));
                }
                a.workload = Some(value);
            }
            "--seed" => a.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                a.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(a.seconds >= 0.0 && a.seconds <= 600.0) {
                    return Err(bad(&"must be within 0..=600"));
                }
            }
            "--trace" => {
                a.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--spans" => a.spans = Some(PathBuf::from(value)),
            "--record" => a.record = Some(PathBuf::from(value)),
            "--check" => a.check = Some(PathBuf::from(value)),
            // internal: one traced paper-sweep mirror (see sweep::mirror)
            "--mirror" => a.mirror = Some(value),
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(manifest) = &args.check {
        return check::run(manifest);
    }
    if let Some(app) = &args.mirror {
        return match sweep::mirror(app, args.smoke) {
            Ok(line) => {
                println!("{line}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: cannot locate this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    match &args.workload {
        Some(name) => run_one(&args, name, &exe),
        None => run_all(&args, &raw, &exe),
    }
}

/// Removes the run's scratch directory however the run ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn run_one(args: &Args, name: &str, exe: &Path) -> ExitCode {
    let dir = exe.parent().unwrap_or(Path::new("."));
    let scratch = Scratch(dir.join(format!("ovlp-benchmark-run-{}", std::process::id())));
    if let Err(e) = std::fs::create_dir_all(&scratch.0) {
        eprintln!("error: cannot create {}: {e}", scratch.0.display());
        return ExitCode::FAILURE;
    }
    let ctx = Ctx {
        ovlp: dir.join("ovlp"),
        exe: exe.to_path_buf(),
        seed: args.seed,
        seconds: if args.smoke { 0.0 } else { args.seconds },
        traced: args.traced,
        smoke: args.smoke,
        scratch: scratch.0.clone(),
        epoch: Instant::now(),
    };
    let mut out = run_workload(name, &ctx);
    if let (Some(path), Some(spans)) = (&args.spans, &out.spans) {
        if let Err(e) = std::fs::write(path, spans.to_json()) {
            out.problems
                .push(format!("cannot write {}: {e}", path.display()));
        }
    }
    let (line, correct) = result_line(&mut out, args.traced);
    out.note(format!(
        "fail ratio {} ({} of {} operations failed)",
        stats::fail_ratio(out.attempted, out.failed),
        out.failed,
        out.attempted
    ));
    for note in &out.notes {
        println!("{name}: {note}");
    }
    for p in &out.problems {
        eprintln!("{name}: CHECK FAILED: {p}");
    }
    println!("{line}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run_workload(name: &str, ctx: &Ctx) -> Outcome {
    match name {
        "paper-sweep" => sweep::run(ctx),
        "daemon-mixed" => daemon::run(ctx),
        "weak-scale" => scale::run_weak(ctx),
        "flow-contention" => scale::run_flow(ctx),
        _ => unreachable!("workload names are validated while parsing"),
    }
}

/// The result object: exactly the end-to-end metrics (untraced) or the
/// per-layer metrics (traced), each with its unit. Per-layer metrics a
/// workload does not exercise read 0; a missing or non-finite value
/// fails the run.
fn result_line(out: &mut Outcome, traced: bool) -> (String, bool) {
    let wanted: Vec<(&'static str, &'static str)> = if traced {
        metrics::LAYERS.iter().map(|m| (m.name, m.unit)).collect()
    } else {
        metrics::END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .collect()
    };
    let mut m = Obj::new();
    for (name, unit) in wanted {
        let value = match out.metrics.get(name) {
            Some(v) if v.is_finite() => *v,
            Some(v) => {
                out.problems.push(format!("{name} is {v}"));
                0.0
            }
            None if traced && !metrics::is_time(unit) => 0.0,
            None => {
                out.problems.push(format!("{name} was not measured"));
                0.0
            }
        };
        let mut entry = Obj::new();
        entry.set("value", Value::Num(value));
        entry.set("unit", Value::str(unit));
        m.set(name, Value::Obj(entry));
    }
    let correct = out.problems.is_empty() && out.failed == 0 && out.attempted > 0;
    let mut o = Obj::new();
    o.set("correct", Value::Bool(correct));
    o.set("attempted", Value::Num(out.attempted as f64));
    o.set("failed", Value::Num(out.failed as f64));
    o.set("metrics", Value::Obj(m));
    (Value::Obj(o).to_string(), correct)
}

/// One workload in a child process; returns its parsed result line.
fn child_result(exe: &Path, forward: &[String], workload: &str, traced: bool) -> Option<Obj> {
    let out = Command::new(exe)
        .args(forward)
        .args([
            "--workload",
            workload,
            "--trace",
            if traced { "1" } else { "0" },
        ])
        .stderr(std::process::Stdio::inherit())
        .output();
    let out = match out {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{workload}: cannot run: {e}");
            return None;
        }
    };
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().unwrap_or("");
    for l in lines {
        println!("{l}");
    }
    json::parse(last)
        .ok()
        .and_then(|v| v.as_obj().cloned())
        .or_else(|| {
            eprintln!("{workload}: no result line ({})", out.status);
            None
        })
}

fn run_all(args: &Args, raw: &[String], exe: &Path) -> ExitCode {
    // Forward everything but the flags this parent consumes; --trace is
    // set per child.
    let mut forward = Vec::new();
    let mut it = raw.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => forward.push(a.clone()),
            "--record" | "--trace" | "--spans" => {
                it.next();
            }
            _ => {
                forward.push(a.clone());
                forward.extend(it.next().cloned());
            }
        }
    }
    let passes: &[bool] = if args.record.is_some() {
        &[false, true]
    } else if args.traced {
        &[true]
    } else {
        &[false]
    };
    let mut all_ok = true;
    let mut recorded = Obj::new();
    for w in metrics::WORKLOADS {
        let mut entry = Obj::new();
        for &traced in passes {
            let mut fwd = forward.clone();
            if let (true, Some(spans)) = (traced, &args.spans) {
                fwd.push("--spans".into());
                fwd.push(format!("{}.{}.json", spans.display(), w.name));
            }
            let Some(res) = child_result(exe, &fwd, w.name, traced) else {
                all_ok = false;
                continue;
            };
            let ok = res.get("correct").and_then(Value::as_bool) == Some(true);
            all_ok &= ok;
            println!(
                "== {} ({}): correct {ok}, attempted {}, failed {}",
                w.name,
                if traced { "traced" } else { "untraced" },
                res.get("attempted")
                    .map(Value::to_string)
                    .unwrap_or_default(),
                res.get("failed").map(Value::to_string).unwrap_or_default(),
            );
            let mut values = Obj::new();
            if let Some(m) = res.get("metrics").and_then(Value::as_obj) {
                for name in m.keys() {
                    let v = m.get(name).and_then(Value::as_obj);
                    let value = v
                        .and_then(|o| o.get("value"))
                        .cloned()
                        .unwrap_or(Value::Null);
                    let unit = v.and_then(|o| o.get("unit")).and_then(Value::as_str);
                    println!("   {name:<20} {value} {}", unit.unwrap_or(""));
                    values.set(name, value);
                }
            }
            entry.set(
                if traced { "per_layer" } else { "end_to_end" },
                Value::Obj(values),
            );
            for key in ["attempted", "failed"] {
                if let Some(v) = res.get(key) {
                    let k = format!("{key}_{}", if traced { "traced" } else { "untraced" });
                    entry.set(k, v.clone());
                }
            }
        }
        recorded.set(w.name, Value::Obj(entry));
    }
    if let (true, Some(path)) = (all_ok, &args.record) {
        let doc = check::results_document(args.seed, args.seconds, recorded);
        if let Err(e) = std::fs::write(path, doc) {
            eprintln!("error: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("wrote {}", path.display());
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Debug builds of the shipped `ovlp` binary and of this benchmark,
    /// next to this test's target directory.
    fn binaries() -> (PathBuf, PathBuf) {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let target = std::env::current_exe()
            .expect("test executable path")
            .parent()
            .and_then(Path::parent)
            .and_then(Path::parent)
            .expect("target directory")
            .to_path_buf();
        for (bin, manifest) in [
            ("ovlp", here.join("../Cargo.toml")),
            ("ovlp-benchmark", here.join("Cargo.toml")),
        ] {
            let status = Command::new(env!("CARGO"))
                .args([
                    "build",
                    "--offline",
                    "--quiet",
                    "--bin",
                    bin,
                    "--manifest-path",
                ])
                .arg(manifest)
                .env("CARGO_TARGET_DIR", &target)
                .status()
                .expect("cargo runs");
            assert!(status.success(), "building {bin} failed");
        }
        let debug = target.join("debug");
        (debug.join("ovlp"), debug.join("ovlp-benchmark"))
    }

    /// The whole harness at smoke size: every workload, untraced and
    /// traced, must pass its output checks and report every metric.
    #[test]
    fn smoke_runs_every_workload() {
        let (ovlp, exe) = binaries();
        for w in metrics::WORKLOADS {
            for traced in [false, true] {
                let dir = std::env::temp_dir().join(format!(
                    "ovlp-benchmark-smoke-{}-{}-{traced}",
                    std::process::id(),
                    w.name
                ));
                std::fs::create_dir_all(&dir).unwrap();
                let scratch = Scratch(dir);
                let ctx = Ctx {
                    ovlp: ovlp.clone(),
                    exe: exe.clone(),
                    seed: 3,
                    seconds: 0.0,
                    traced,
                    smoke: true,
                    scratch: scratch.0.clone(),
                    epoch: Instant::now(),
                };
                let mut out = run_workload(w.name, &ctx);
                let (line, correct) = result_line(&mut out, traced);
                assert!(
                    correct,
                    "{} traced={traced}: {:?}\n{line}",
                    w.name, out.problems
                );
                let doc = json::parse(&line).unwrap();
                let m = doc
                    .as_obj()
                    .unwrap()
                    .get("metrics")
                    .unwrap()
                    .as_obj()
                    .unwrap();
                let defs: Vec<(&str, &str)> = if traced {
                    metrics::LAYERS.iter().map(|l| (l.name, l.unit)).collect()
                } else {
                    metrics::END_TO_END
                        .iter()
                        .map(|e| (e.name, e.unit))
                        .collect()
                };
                assert_eq!(m.keys().count(), defs.len());
                for (name, unit) in defs {
                    let v = m.get(name).unwrap().as_obj().unwrap();
                    let value = v.get("value").unwrap().as_f64().unwrap();
                    if !traced || metrics::is_time(unit) {
                        assert!(value > 0.0, "{} {name} = {value}", w.name);
                    }
                }
            }
        }
    }

    #[test]
    fn arguments_are_validated() {
        let parse = |s: &[&str]| parse_args(&s.iter().map(|x| x.to_string()).collect::<Vec<_>>());
        let a = parse(&["--workload", "weak-scale", "--seed", "7", "--trace", "1"]).unwrap();
        assert_eq!(
            (a.workload.as_deref(), a.seed, a.traced),
            (Some("weak-scale"), 7, true)
        );
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--trace", "2"]).is_err());
        assert!(parse(&["--seconds", "-1"]).is_err());
        assert!(parse(&["--seed"]).is_err());
        assert!(parse(&["--bogus", "1"]).is_err());
    }

    #[test]
    fn shuffles_depend_only_on_the_seed() {
        let mut a: Vec<u32> = (0..12).collect();
        let mut b = a.clone();
        Rng(5).shuffle(&mut a);
        Rng(5).shuffle(&mut b);
        assert_eq!(a, b);
        let mut c: Vec<u32> = (0..12).collect();
        Rng(6).shuffle(&mut c);
        assert_ne!(a, c);
        c.sort_unstable();
        assert_eq!(c, (0..12).collect::<Vec<_>>());
    }
}
