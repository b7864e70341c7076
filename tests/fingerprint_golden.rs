//! Absolute anchors for trace fingerprints, and the lean-trace contract.
//!
//! `trace_fingerprint` keys every sweep store entry, so a change to the
//! instrumented apps, the access summaries or their packing would
//! silently orphan every stored result. The hex values below were
//! recorded from the traces that kept per-element times as
//! `Option<Instructions>` and captured the access scatter on every run;
//! packed stamps and lean tracing reproduce them bit for bit.
//!
//! Replay-only callers (`AppEntry::trace_run`, `AppEntry::source`) trace
//! without the Figure-5 scatter. The second test pins that this drops
//! only the scatter: the trace and every last-store/first-load stamp
//! equal a scatter-capturing run.

use overlap_sim::apps::registry;
use overlap_sim::core::sweep::trace_fingerprint;
use overlap_sim::instr::TraceOptions;

const RANKS: usize = 16;

/// `trace_fingerprint` of each paper app at 16 ranks.
const GOLDEN: [(&str, &str); 6] = [
    ("sweep3d", "1e802373c2b95b9c"),
    ("pop", "bba978c9f14e2d03"),
    ("alya", "695b27be9fa68a3f"),
    ("specfem3d", "d2fcc11a27bccf84"),
    ("nas-bt", "8bd6d048c407d106"),
    ("nas-cg", "8f93c901e0e08551"),
];

#[test]
fn paper_app_fingerprints_are_pinned() {
    for (name, want) in GOLDEN {
        let run = registry::by_name(name).unwrap().trace_run(RANKS).unwrap();
        let got = format!("{:016x}", trace_fingerprint(&run));
        assert_eq!(got, want, "{name}: trace fingerprint moved");
    }
}

#[test]
fn lean_trace_drops_only_the_scatter() {
    for (name, _) in GOLDEN {
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
            assert_eq!(l.last_store, p.last_store, "{name}: {:?}", p.transfer);
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
            assert_eq!(l.first_load, c.first_load, "{name}: {:?}", c.transfer);
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
