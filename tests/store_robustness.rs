//! Robustness tests for the persistent content-addressed result store:
//! corruption (truncation, bit flips) is detected and healed, racing
//! writers converge on one valid entry, and the store is shared
//! bit-exactly between the `ovlp` CLI process and in-process callers.
//! The same holds for the `.trace` entries that let a warm store skip
//! the instrumented run, and a stale one fails only the points that
//! needed a re-trace, then is replaced.

use overlap_sim::apps::registry;
use overlap_sim::core::sweep::store::{DiskStore, StoredPoint};
use overlap_sim::core::sweep::{
    sweep, trace_key, FailKind, FingerprintFrom, PointKey, SweepCache, SweepConfig, SweepGrid,
    TraceKey,
};
use overlap_sim::serve::SweepSpec;
use std::path::PathBuf;
use std::process::Command;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ovlp-robust-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The same 4-point grid `ovlp sweep nas-cg 4 --chunks 1,4 --bw
/// 100,250` evaluates, built through the shared spec so the point
/// keys are guaranteed to match the CLI's.
fn small_grid() -> SweepGrid {
    small_spec().build().unwrap().0
}

fn small_spec() -> SweepSpec {
    let mut spec = SweepSpec::new("nas-cg", 4);
    spec.chunks = vec![1, 4];
    spec.bandwidths = vec![100.0, 250.0];
    spec
}

/// The `.trace` entry key of nas-cg at `ranks` ranks, `generations`
/// after the registry's current one.
fn nas_cg_key(ranks: usize, generations: u32) -> TraceKey {
    let trace_gen = registry::by_name("nas-cg").unwrap().trace_gen;
    trace_key("nas-cg", ranks, trace_gen + generations)
}

#[test]
fn damaged_trace_entries_are_a_miss_that_traces_and_rewrites() {
    let dir = temp_dir("trace-entry");
    let spec = small_spec();
    let cold = SweepCache::persistent(&dir).unwrap();
    let (grid, _, from) = spec.build_cached(&cold).unwrap();
    assert_eq!(from, FingerprintFrom::Trace);
    let fp = grid.apps[0].fingerprint();
    let disk = cold.disk().unwrap();
    let (key, path) = (nas_cg_key(4, 0), disk.trace_path(nas_cg_key(4, 0)));
    let pristine = std::fs::read(&path).unwrap();
    assert_eq!(disk.entries(), 0, "a trace entry is not a point");

    // valid entries of other keys: another rank count, another generation
    disk.put_trace(nas_cg_key(8, 0), fp).unwrap();
    disk.put_trace(nas_cg_key(4, 1), fp).unwrap();
    let misfiled = std::fs::read(disk.trace_path(nas_cg_key(8, 0))).unwrap();
    let other_gen = std::fs::read(disk.trace_path(nas_cg_key(4, 1))).unwrap();
    let mut rows: Vec<(String, Option<Vec<u8>>)> = vec![
        (
            "truncated".into(),
            Some(pristine[..pristine.len() / 2].to_vec()),
        ),
        ("misfiled".into(), Some(misfiled)),
        ("other-generation copy".into(), Some(other_gen)),
        // only the other generation's own entry exists
        ("other-generation entry".into(), None),
    ];
    for offset in (0..pristine.len()).step_by(9) {
        let mut bytes = pristine.clone();
        bytes[offset] ^= 0x08;
        rows.push((format!("bit flip at {offset}"), Some(bytes)));
    }
    for (row, bytes) in rows {
        match bytes {
            Some(bytes) => std::fs::write(&path, bytes).unwrap(),
            None => std::fs::remove_file(&path).unwrap(),
        }
        let reopened = SweepCache::persistent(&dir).unwrap();
        let (grid, _, from) = spec.build_cached(&reopened).unwrap();
        assert_eq!(from, FingerprintFrom::Trace, "{row}: served a bad entry");
        assert_eq!(grid.apps[0].fingerprint(), fp, "{row}");
        assert_eq!(
            std::fs::read(&path).unwrap(),
            pristine,
            "{row}: not rewritten"
        );
        let stats = reopened.disk().unwrap().stats();
        assert_eq!(
            (stats.hits, stats.misses, stats.corrupt),
            (0, 0, 0),
            "{row}"
        );
    }

    // the rewritten entry is served, and a warm build traces nothing
    let warm = SweepCache::persistent(&dir).unwrap();
    let (grid, _, from) = spec.build_cached(&warm).unwrap();
    assert_eq!(from, FingerprintFrom::Store);
    assert!(grid.apps[0].run.retraced().is_none(), "not traced");
    assert_eq!(warm.disk().unwrap().get_trace(key), Some(fp));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_stale_trace_entry_fails_the_points_that_miss_and_is_replaced() {
    let dir = temp_dir("stale-trace");
    let spec = small_spec();
    let cold = SweepCache::persistent(&dir).unwrap();
    let (grid, config, _) = spec.build_cached(&cold).unwrap();
    let first = sweep(&grid, &config, &cold);
    assert_eq!(first.err_count(), 0);
    let fp = grid.apps[0].fingerprint();

    // a well-formed entry holding another run's fingerprint
    let key = nas_cg_key(4, 0);
    let disk = cold.disk().unwrap();
    disk.put_trace(key, fp ^ 1).unwrap();
    let stale = SweepCache::persistent(&dir).unwrap();
    let (grid, config, from) = spec.build_cached(&stale).unwrap();
    assert_eq!(from, FingerprintFrom::Store);
    let failed = sweep(&grid, &config, &stale);
    assert_eq!(failed.err_count(), grid.len(), "no stale key hits");
    let path = disk.trace_path(key).display().to_string();
    for outcome in &failed.outcomes {
        let e = outcome.as_ref().unwrap_err();
        assert_eq!(e.kind, FailKind::Transform);
        assert!(
            e.message.contains("fingerprint mismatch") && e.message.contains(&path),
            "{}",
            e.message
        );
    }
    assert_eq!(disk.get_trace(key), Some(fp), "entry replaced");

    // the next run takes the replaced entry: all hits, the first bits
    let healed = SweepCache::persistent(&dir).unwrap();
    let (grid, config, from) = spec.build_cached(&healed).unwrap();
    assert_eq!(from, FingerprintFrom::Store);
    let again = sweep(&grid, &config, &healed);
    assert_eq!(again.cache_hits, grid.len() as u64);
    assert_eq!(again.render(&grid), first.render(&grid));
    assert!(grid.apps[0].run.retraced().is_none(), "nothing traced");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn truncated_entries_are_detected_recomputed_and_replaced() {
    let dir = temp_dir("truncate");
    let grid = small_grid();
    let cold = SweepCache::persistent(&dir).unwrap();
    let first = sweep(&grid, &SweepConfig::with_jobs(2), &cold);
    assert_eq!(first.err_count(), 0);

    // Truncate every stored entry at a different length.
    let disk = cold.disk().unwrap();
    for (i, outcome) in first.outcomes.iter().enumerate() {
        let path = disk.entry_path(outcome.as_ref().unwrap().key);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..i * bytes.len() / 8]).unwrap();
    }

    let reopened = SweepCache::persistent(&dir).unwrap();
    let second = sweep(&grid, &SweepConfig::with_jobs(2), &reopened);
    assert_eq!(second.result_hashes(), first.result_hashes());
    assert_eq!(second.render(&grid), first.render(&grid));
    let stats = reopened.disk().unwrap().stats();
    assert_eq!(
        stats.corrupt,
        grid.len() as u64,
        "every truncation detected"
    );
    assert_eq!(second.cache_misses, grid.len() as u64, "all points re-ran");

    // The recomputed entries replaced the truncated files: a third
    // open serves everything from disk again.
    let healed = SweepCache::persistent(&dir).unwrap();
    let third = sweep(&grid, &SweepConfig::with_jobs(2), &healed);
    assert_eq!(third.cache_hits, grid.len() as u64);
    assert_eq!(third.result_hashes(), first.result_hashes());
    assert_eq!(healed.disk().unwrap().stats().corrupt, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bit_flips_anywhere_in_an_entry_are_detected() {
    let dir = temp_dir("bitflip");
    let grid = small_grid();
    let cache = SweepCache::persistent(&dir).unwrap();
    let first = sweep(&grid, &SweepConfig::with_jobs(1), &cache);
    let key = first.outcomes[1].as_ref().unwrap().key;
    let path = cache.disk().unwrap().entry_path(key);
    let pristine = std::fs::read(&path).unwrap();

    // Flip a single bit at every offset in turn; the store must never
    // serve the damaged entry (it recomputes and heals instead).
    for offset in (0..pristine.len()).step_by(7) {
        let mut bytes = pristine.clone();
        bytes[offset] ^= 0x04;
        std::fs::write(&path, &bytes).unwrap();
        let reopened = SweepCache::persistent(&dir).unwrap();
        let again = sweep(&grid, &SweepConfig::with_jobs(1), &reopened);
        assert_eq!(
            again.result_hashes(),
            first.result_hashes(),
            "flip at byte {offset} must not leak into results"
        );
        let stats = reopened.disk().unwrap().stats();
        assert_eq!(stats.corrupt, 1, "flip at byte {offset} undetected");
        assert_eq!(again.cache_misses, 1);
        // healed: the rewritten entry matches the pristine bytes
        assert_eq!(std::fs::read(&path).unwrap(), pristine);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn racing_writers_on_one_key_leave_exactly_one_valid_entry() {
    let dir = temp_dir("race");
    let key = PointKey(0xfeed_beef_dead_cafe);
    let value = StoredPoint {
        t_original: 3.5,
        t_overlapped: 2.25,
        t_ideal: 2.0,
    };
    let threads: Vec<_> = (0..8)
        .map(|_| {
            let dir = dir.clone();
            std::thread::spawn(move || {
                // Each thread opens its own store handle, as separate
                // processes would.
                let store = DiskStore::open(&dir).unwrap();
                for _ in 0..32 {
                    store.put(key, &value).unwrap();
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }

    let store = DiskStore::open(&dir).unwrap();
    assert_eq!(store.get(key), Some(value), "the entry decodes cleanly");
    assert_eq!(store.entries(), 1, "exactly one entry on disk");
    // No temp files were leaked by the 256 racing atomic writes.
    let leftovers: Vec<_> = walk(&dir)
        .into_iter()
        .filter(|p| p.extension().is_some_and(|e| e == "tmp"))
        .collect();
    assert!(leftovers.is_empty(), "leaked temp files: {leftovers:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

fn walk(dir: &std::path::Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let Ok(entries) = std::fs::read_dir(dir) else {
        return out;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            out.extend(walk(&path));
        } else {
            out.push(path);
        }
    }
    out
}

#[test]
fn store_is_shared_between_cli_and_in_process_callers() {
    let dir = temp_dir("shared");

    // Warm the store from the CLI binary (a separate process).
    let out = Command::new(env!("CARGO_BIN_EXE_ovlp"))
        .args(["sweep", "nas-cg", "4", "--chunks", "1,4", "--bw", "100,250"])
        .arg("--store")
        .arg(&dir)
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("4 misses"), "cold store summary: {stderr}");
    assert!(!stderr.contains("fingerprint from the store"), "{stderr}");

    // Resweep from the CLI: everything is served from the store.
    let again = Command::new(env!("CARGO_BIN_EXE_ovlp"))
        .args(["sweep", "nas-cg", "4", "--chunks", "1,4", "--bw", "100,250"])
        .arg("--store")
        .arg(&dir)
        .output()
        .unwrap();
    assert!(again.status.success());
    let stderr = String::from_utf8(again.stderr).unwrap();
    assert!(
        stderr.contains("0 simulated, 4 from cache") && stderr.contains("4 hits, 0 misses"),
        "warm store summary: {stderr}"
    );
    // ...and so is the trace fingerprint: no instrumented run
    assert!(
        stderr.contains("trace fingerprint from the store"),
        "{stderr}"
    );
    assert_eq!(out.stdout, again.stdout, "sweep output changed across runs");

    // And the same grid, swept in-process against the same directory,
    // is served from disk bit-identically.
    let cache = SweepCache::persistent(&dir).unwrap();
    let (grid, _, from) = small_spec().build_cached(&cache).unwrap();
    assert_eq!(from, FingerprintFrom::Store);
    let report = sweep(&grid, &SweepConfig::with_jobs(1), &cache);
    assert_eq!(report.cache_hits, grid.len() as u64);
    assert_eq!(report.cache_misses, 0);
    assert!(grid.apps[0].run.retraced().is_none(), "nothing traced");
    let rendered = report.render(&grid);
    let cli_stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        cli_stdout.starts_with(&rendered),
        "CLI table and in-process render disagree"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
