//! Shared pieces of the recorded benchmarks: `engine_bench` writes
//! `BENCH_engine.json` and `scale_bench` writes `BENCH_scale.json`.
//! The paper's tables and figures are `ovlp paper`, not a benchmark.

pub mod gauge;

/// `git describe --always --dirty` of the working directory, so a
/// bench run on uncommitted changes says so; `unknown` outside a git
/// checkout.
pub fn commit() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}
