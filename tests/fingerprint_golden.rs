//! Absolute anchors for trace fingerprints, and the lean-trace contract.
//!
//! `trace_fingerprint` keys every sweep store entry, so a change to the
//! instrumented apps, the access summaries, their packing or the
//! fingerprint's own definition orphans every stored result. The
//! fingerprint of each paper app at 16 ranks is pinned in
//! `tests/fixtures/fingerprints.txt`, so such a change shows up as a
//! diff of that file. Re-bless after a deliberate key move with
//! `OVLP_BLESS=1 cargo test --test fingerprint_golden`.
//!
//! Each line also pins the app's `TRACE_GEN` (the registry's
//! `trace_gen`), which keys the store's `.trace` entries: a warm store
//! answers a sweep from the stored fingerprint without tracing. A
//! fingerprint that moves under an unchanged generation would leave
//! those entries naming the old run, so the test then asks for the
//! generation bump by app name before any re-bless.
//!
//! Replay-only callers (`AppEntry::trace_run`, `AppEntry::source`) trace
//! without the Figure-5 scatter. The second test pins that this drops
//! only the scatter: the trace and every last-store/first-load stamp
//! equal a scatter-capturing run.

use overlap_sim::apps::registry;
use overlap_sim::core::sweep::trace_fingerprint;
use overlap_sim::instr::{TraceOptions, TraceRun};
use overlap_sim::trace::{ConsumptionLog, ProductionLog, Stamp, TransferId};
use std::path::PathBuf;

const RANKS: usize = 16;

const APPS: [&str; 6] = ["sweep3d", "pop", "alya", "specfem3d", "nas-bt", "nas-cg"];

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/fingerprints.txt")
}

/// `<app> <TRACE_GEN> <trace_fingerprint as 16 hex digits>` per paper
/// app at 16 ranks, one line each.
fn fingerprint_table() -> String {
    APPS.iter()
        .map(|name| {
            let entry = registry::by_name(name).unwrap();
            let run = entry.trace_run(RANKS).unwrap();
            let fp = trace_fingerprint(&run);
            format!("{name} {} {fp:016x}\n", entry.trace_gen)
        })
        .collect()
}

#[test]
fn paper_app_fingerprints_are_pinned() {
    let table = fingerprint_table();
    let path = golden_path();
    if std::env::var_os("OVLP_BLESS").is_some() {
        std::fs::write(&path, &table).unwrap();
        eprintln!("blessed {}", path.display());
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{}: {e}; run OVLP_BLESS=1 to create", path.display()));
    for line in table.lines() {
        let [app, generation, fp] = fields(line);
        let pinned = golden.lines().map(fields).find(|g| g[0] == app);
        if let Some([_, pinned_gen, pinned_fp]) = pinned {
            assert!(
                fp == pinned_fp || generation != pinned_gen,
                "bump `TRACE_GEN` for {app}: its fingerprint moved from {pinned_fp} to {fp} \
                 under generation {generation}, so stored `.trace` entries would keep \
                 naming the old run; then re-bless with OVLP_BLESS=1"
            );
        }
    }
    assert_eq!(
        table, golden,
        "trace fingerprints or generations moved; if intentional, re-bless with OVLP_BLESS=1"
    );
}

/// The three fields of a fixture line (empty when missing).
fn fields(line: &str) -> [&str; 3] {
    let mut it = line.split_whitespace();
    std::array::from_fn(|_| it.next().unwrap_or(""))
}

#[test]
fn lean_trace_drops_only_the_scatter() {
    for name in APPS {
        let entry = registry::by_name(name).unwrap();
        let lean = entry.trace_run(RANKS).unwrap();
        let full = entry
            .trace_run_with(RANKS, &TraceOptions::default())
            .unwrap();
        assert_eq!(lean.trace, full.trace, "{name}: trace differs");
        assert_eq!(lean.access.ranks.len(), full.access.ranks.len());

        let mut scatter = 0;
        for p in full.access.all_productions() {
            let l = lean.access.production(p.transfer).unwrap();
            assert_eq!(
                (l.elems, l.interval_start, l.interval_end),
                (p.elems, p.interval_start, p.interval_end),
                "{name}: production {:?}",
                p.transfer
            );
            assert_eq!(l.last_store(), p.last_store(), "{name}: {:?}", p.transfer);
            assert!(l.events.is_empty(), "{name}: lean trace kept a scatter");
            scatter += p.events.len();
        }
        for c in full.access.all_consumptions() {
            let l = lean.access.consumption(c.transfer).unwrap();
            assert_eq!(
                (l.elems, l.interval_start, l.interval_end),
                (c.elems, c.interval_start, c.interval_end),
                "{name}: consumption {:?}",
                c.transfer
            );
            assert_eq!(l.first_load(), c.first_load(), "{name}: {:?}", c.transfer);
            assert!(l.events.is_empty(), "{name}: lean trace kept a scatter");
            scatter += c.events.len();
        }
        assert_eq!(
            lean.access.all_productions().count(),
            full.access.all_productions().count()
        );
        assert_eq!(
            lean.access.all_consumptions().count(),
            full.access.all_consumptions().count()
        );
        assert!(scatter > 0, "{name}: the scatter-capturing run has none");
        assert_eq!(trace_fingerprint(&lean), trace_fingerprint(&full));

        let source = entry.source(RANKS).unwrap();
        assert_eq!(source.materialize(), lean.trace, "{name}: source differs");
    }
}

/// `run` with production `t`'s stamps edited by `edit`.
fn edit_production(run: &TraceRun, t: TransferId, edit: impl FnOnce(&mut Vec<Stamp>)) -> TraceRun {
    let mut out = run.clone();
    let p = run.access.production(t).unwrap();
    let mut stamps = p.last_store().to_vec();
    edit(&mut stamps);
    let log = ProductionLog::new(t, p.interval_start, p.interval_end, stamps);
    out.access.insert_production(log);
    out
}

/// A stamp different from `s`.
fn other(s: Stamp) -> Stamp {
    s.get().map_or(Stamp::at(0), |t| Stamp::at(t.get() ^ 1))
}

#[test]
fn every_stamp_edit_moves_the_fingerprint() {
    let run = registry::by_name("nas-cg").unwrap().trace_run(4).unwrap();
    let base = trace_fingerprint(&run);
    // the longest production with two different adjacent stamps, and
    // the next production of its rank
    let p = run
        .access
        .all_productions()
        .filter(|p| p.last_store().windows(2).any(|w| w[0] != w[1]))
        .max_by_key(|p| (p.elems, p.transfer.rank.0, p.transfer.seq))
        .unwrap();
    let t = p.transfer;
    let next = run
        .access
        .all_productions()
        .map(|q| q.transfer)
        .filter(|q| q.rank == t.rank && q.seq > t.seq)
        .min_by_key(|q| q.seq)
        .unwrap();
    let i = p
        .last_store()
        .windows(2)
        .position(|w| w[0] != w[1])
        .unwrap();

    let flipped = edit_production(&run, t, |s| s[i] = other(s[i]));
    assert_ne!(trace_fingerprint(&flipped), base, "one stamp flipped");
    let swapped = edit_production(&run, t, |s| s.swap(i, i + 1));
    assert_ne!(
        trace_fingerprint(&swapped),
        base,
        "two adjacent stamps swapped"
    );
    // the stamps in transfer order stay the same sequence
    let mut last = Stamp::NEVER;
    let moved = edit_production(&run, t, |s| last = s.pop().unwrap());
    let moved = edit_production(&moved, next, |s| s.insert(0, last));
    assert_ne!(
        trace_fingerprint(&moved),
        base,
        "a last stamp moved to the next log"
    );

    // the same for a consumption stamp
    let c = run
        .access
        .all_consumptions()
        .max_by_key(|c| (c.elems, c.transfer.rank.0, c.transfer.seq))
        .unwrap();
    let mut stamps = c.first_load().to_vec();
    stamps[c.elems as usize / 2] = other(stamps[c.elems as usize / 2]);
    let mut flipped = run.clone();
    flipped.access.insert_consumption(ConsumptionLog::new(
        c.transfer,
        c.interval_start,
        c.interval_end,
        stamps,
    ));
    assert_ne!(trace_fingerprint(&flipped), base, "one load stamp flipped");
}
