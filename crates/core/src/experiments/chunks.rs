//! Chunk-count optimization: the paper fixes 4 chunks per message; this
//! search finds the count that actually minimizes the simulated
//! overlapped runtime for a given application and platform — the kind
//! of implementer-facing question the framework is meant to answer
//! ("an implementer can easily identify bottlenecks in the overlapping
//! technique and try to fix them", §I).

use crate::chunk::ChunkPolicy;
use crate::experiments::SpeedupResult;
use crate::transform::transform;
use ovlp_instr::TraceRun;
use ovlp_machine::{Platform, Replayer, SimError};

/// One point of the chunk-count sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChunkPoint {
    pub chunks: u32,
    pub runtime: f64,
    pub speedup_vs_original: f64,
}

/// Result of the chunk-count search.
#[derive(Debug, Clone, PartialEq)]
pub struct ChunkSearch {
    /// Runtime of the untransformed trace.
    pub original_runtime: f64,
    /// All evaluated points, in candidate order.
    pub points: Vec<ChunkPoint>,
    /// The best candidate (smallest runtime; ties go to fewer chunks).
    pub best: ChunkPoint,
}

/// Evaluate the overlapped runtime for each chunk count in
/// `candidates` and report the best. `known` is the replay of `run`'s
/// variants under [`ChunkPolicy::paper_default`] on `platform` (what
/// `build_variants` and `run_variants` give): its original runtime and
/// its overlapped one, the paper's chunk count, are taken as they are.
/// Every other candidate is transformed and replayed once, on one
/// [`Replayer`] and keeping only the runtime.
pub fn chunk_search(
    run: &TraceRun,
    platform: &Platform,
    candidates: &[u32],
    known: &SpeedupResult,
) -> Result<ChunkSearch, SimError> {
    assert!(!candidates.is_empty(), "need at least one candidate");
    let original_runtime = known.original.runtime();
    let paper = ChunkPolicy::paper_default();
    let mut rp = Replayer::new();
    let mut points = Vec::with_capacity(candidates.len());
    for &chunks in candidates {
        let policy = ChunkPolicy::with_chunks(chunks);
        let runtime = if policy == paper {
            known.overlapped.runtime()
        } else {
            let t = transform(&run.trace, &run.access, &policy);
            rp.replay_scale(&t, platform)?.runtime.as_secs()
        };
        points.push(ChunkPoint {
            chunks,
            runtime,
            speedup_vs_original: original_runtime / runtime,
        });
    }
    let best = *points
        .iter()
        .min_by(|a, b| {
            a.runtime
                .total_cmp(&b.runtime)
                .then(a.chunks.cmp(&b.chunks))
        })
        .expect("non-empty candidates");
    Ok(ChunkSearch {
        original_runtime,
        points,
        best,
    })
}

/// The default candidate set: powers of two up to the tag-encoding
/// limit, bracketing the paper's fixed 4.
pub fn default_candidates() -> Vec<u32> {
    vec![1, 2, 4, 8, 16, 32, 64]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::run_variants;
    use crate::pipeline::build_variants;
    use ovlp_instr::trace_app;
    use ovlp_machine::{simulate, NoopSink};

    /// [`chunk_search`] with its known replay made here.
    fn search(run: &TraceRun, platform: &Platform, candidates: &[u32]) -> ChunkSearch {
        let bundle = build_variants(run, &ChunkPolicy::paper_default());
        let (known, _) = run_variants(&bundle, platform, || NoopSink, |_| Ok(())).unwrap();
        chunk_search(run, platform, candidates, &known).unwrap()
    }

    fn linear_run() -> TraceRun {
        use ovlp_apps_shim::*;
        shim_linear_run()
    }

    // ovlp-core cannot depend on ovlp-apps (cycle); build the linear
    // workload inline through the instr API instead.
    mod ovlp_apps_shim {
        use super::*;
        use ovlp_instr::{FnApp, RankCtx};
        use ovlp_trace::Rank;

        pub fn shim_linear_run() -> TraceRun {
            let app = FnApp::new("linear", |ctx: &mut RankCtx| {
                let me = ctx.rank().get();
                let partner = Rank(me ^ 1);
                let n = 2_000usize;
                let mut out = ctx.buffer(n);
                let mut inp = ctx.buffer(n);
                for _ in 0..3 {
                    let start = ctx.now();
                    for i in 0..n {
                        let target = start + (1_000_000 * (i as u64 + 1) / n as u64);
                        let now = ctx.now();
                        if target > now {
                            ctx.compute(target - now);
                        }
                        out.store(i, i as f64);
                    }
                    ctx.sendrecv(partner, 0, &mut out, partner, 0, &mut inp);
                    let start = ctx.now();
                    for i in 0..n {
                        let target = start + (1_000_000 * i as u64 / n as u64);
                        let now = ctx.now();
                        if target > now {
                            ctx.compute(target - now);
                        }
                        let _ = inp.load(i);
                    }
                }
            });
            trace_app(&app, 4).unwrap()
        }
    }

    #[test]
    fn search_finds_an_improvement_on_linear_patterns() {
        let run = linear_run();
        let platform = Platform::marenostrum(0);
        let s = search(&run, &platform, &default_candidates());
        assert_eq!(s.points.len(), 7);
        assert!(s.best.runtime <= s.original_runtime);
        assert!(
            s.best.speedup_vs_original > 1.0,
            "linear patterns must benefit: {:?}",
            s.best
        );
        // the best is at least as good as the paper's fixed 4
        let four = s.points.iter().find(|p| p.chunks == 4).unwrap();
        assert!(s.best.runtime <= four.runtime + 1e-15);
        // every runtime, the reused ones too, is a plain replay's bits
        assert_eq!(
            s.original_runtime,
            simulate(&run.trace, &platform).unwrap().runtime()
        );
        for p in &s.points {
            let policy = ChunkPolicy::with_chunks(p.chunks);
            let t = transform(&run.trace, &run.access, &policy);
            let want = simulate(&t, &platform).unwrap().runtime();
            assert_eq!(p.runtime.to_bits(), want.to_bits(), "{} chunks", p.chunks);
        }
    }

    #[test]
    fn ties_prefer_fewer_chunks() {
        let run = linear_run();
        let platform = Platform::marenostrum(0);
        let s = search(&run, &platform, &[4, 4]);
        assert_eq!(s.best.chunks, 4);
    }

    #[test]
    #[should_panic(expected = "at least one candidate")]
    fn empty_candidates_rejected() {
        let run = linear_run();
        let _ = search(&run, &Platform::marenostrum(0), &[]);
    }
}
