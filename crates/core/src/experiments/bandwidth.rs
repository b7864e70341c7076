//! Figures 6(b) and 6(c): bandwidth relaxation and equivalent
//! bandwidth.
//!
//! * **Relaxation (6b)** — "in order to achieve the performance of the
//!   non-overlapped execution on 250 MB/s, the overlapped execution
//!   needs much less bandwidth": the minimum bandwidth at which the
//!   overlapped trace still matches the original's 250 MB/s runtime.
//! * **Equivalent bandwidth (6c)** — "the bandwidth required by the
//!   non-overlapped execution in order to achieve the performance of
//!   the overlapped execution at 250 MB/s". For some applications
//!   (Sweep3D) no finite bandwidth suffices: chunking creates
//!   finer-grain dependencies between ranks that a faster network
//!   cannot emulate — the result "tends to infinity", reported here as
//!   [`EquivalentBandwidth::Divergent`].

use crate::pipeline::VariantBundle;
use ovlp_machine::{simulate, Platform, SimError};
use ovlp_trace::Trace;

/// Relative tolerance for runtime comparisons and search convergence.
const REL_TOL: f64 = 1e-3;
/// Bisection iterations (log-scale; plenty for 12 digits).
const ITERS: usize = 60;
/// Lower bandwidth bound for relaxation searches, MB/s.
const MIN_BW: f64 = 1e-3;

fn runtime_at(trace: &Trace, platform: &Platform, bw: f64) -> Result<f64, SimError> {
    Ok(simulate(trace, &platform.with_bandwidth(bw))?.runtime())
}

/// A bandwidth in `[lo, hi]` at which `trace` runs in at most `target`
/// seconds, found by bisection; `None` if even `hi` is too slow.
///
/// Bisection finds the smallest such bandwidth only where runtime is
/// monotone non-increasing in bandwidth, and in this model it is not
/// always. Measured counterexample: at 16 ranks and 4 chunks on the
/// preset platform (the Fig. 6(b) setting), specfem3d's overlapped
/// trace meets its target on [125.85, 153.56) MB/s, misses it on
/// [153.56, 157.68) and meets it again from there up. The answer
/// (125.92 MB/s) is a bandwidth that meets the target, but not the one
/// from which every higher bandwidth does.
pub fn min_bandwidth_matching(
    trace: &Trace,
    platform: &Platform,
    target: f64,
    lo: f64,
    hi: f64,
) -> Result<Option<f64>, SimError> {
    let tol_target = target * (1.0 + REL_TOL);
    if runtime_at(trace, platform, hi)? > tol_target {
        return Ok(None);
    }
    if runtime_at(trace, platform, lo)? <= tol_target {
        return Ok(Some(lo));
    }
    let (mut lo, mut hi) = (lo, hi);
    for _ in 0..ITERS {
        // geometric midpoint: the search spans orders of magnitude
        let mid = (lo * hi).sqrt().clamp(lo, hi);
        if runtime_at(trace, platform, mid)? <= tol_target {
            hi = mid;
        } else {
            lo = mid;
        }
        if hi / lo < 1.0 + REL_TOL {
            break;
        }
    }
    Ok(Some(hi))
}

/// Figure 6(b) result for one application.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BandwidthRelaxation {
    /// The original execution's runtime at the baseline bandwidth.
    pub baseline_runtime: f64,
    /// Minimum bandwidth (MB/s) for the real-pattern overlapped trace
    /// to match it; `None` if the overlapped trace cannot match it even
    /// at the baseline bandwidth.
    pub real_mbs: Option<f64>,
    /// Same for the ideal-pattern overlapped trace.
    pub ideal_mbs: Option<f64>,
}

/// Compute Figure 6(b) for one application bundle.
pub fn bandwidth_relaxation(
    bundle: &VariantBundle,
    platform: &Platform,
) -> Result<BandwidthRelaxation, SimError> {
    let base_bw = platform.bandwidth_mbs;
    let baseline_runtime = simulate(&bundle.original, platform)?.runtime();
    let real_mbs = min_bandwidth_matching(
        &bundle.overlapped,
        platform,
        baseline_runtime,
        MIN_BW,
        base_bw,
    )?;
    let ideal_mbs =
        min_bandwidth_matching(&bundle.ideal, platform, baseline_runtime, MIN_BW, base_bw)?;
    Ok(BandwidthRelaxation {
        baseline_runtime,
        real_mbs,
        ideal_mbs,
    })
}

/// Figure 6(c) result: the non-overlapped bandwidth equivalent of
/// overlapping.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EquivalentBandwidth {
    /// The original execution matches the overlapped one at this
    /// bandwidth (MB/s).
    Finite(f64),
    /// No finite bandwidth suffices (the Sweep3D case: even an
    /// infinitely fast network cannot reproduce the finer-grain
    /// pipelining that chunking creates).
    Divergent,
}

impl EquivalentBandwidth {
    /// Advancement factor over the baseline bandwidth, if finite.
    pub fn factor_over(&self, baseline_mbs: f64) -> Option<f64> {
        match *self {
            EquivalentBandwidth::Finite(bw) => Some(bw / baseline_mbs),
            EquivalentBandwidth::Divergent => None,
        }
    }
}

/// Compute Figure 6(c) for one trace pair: the bandwidth the
/// *original* trace needs to match `target` (the overlapped trace's
/// runtime at the baseline bandwidth).
pub fn equivalent_bandwidth(
    original: &Trace,
    platform: &Platform,
    target: f64,
) -> Result<EquivalentBandwidth, SimError> {
    // already matched at the baseline bandwidth (no-benefit case, e.g.
    // Alya where nothing could be transformed)
    let mut hi = platform.bandwidth_mbs;
    if runtime_at(original, platform, hi)? <= target * (1.0 + REL_TOL) {
        return Ok(EquivalentBandwidth::Finite(hi));
    }
    // divergence probe: the infinitely fast network must beat the
    // target by a clear margin, otherwise the match is only asymptotic
    // ("tends to infinity", the paper's Sweep3D note)
    let at_inf = runtime_at(original, platform, f64::INFINITY)?;
    if at_inf > target * (1.0 - REL_TOL) {
        return Ok(EquivalentBandwidth::Divergent);
    }
    // exponential growth to bracket, then bisect
    for _ in 0..60 {
        hi *= 2.0;
        if runtime_at(original, platform, hi)? <= target * (1.0 + REL_TOL) {
            break;
        }
    }
    match min_bandwidth_matching(original, platform, target, platform.bandwidth_mbs, hi)? {
        Some(bw) => Ok(EquivalentBandwidth::Finite(bw)),
        None => Ok(EquivalentBandwidth::Divergent),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ovlp_trace::record::{Record, SendMode};
    use ovlp_trace::{Bytes, Instructions, Rank, Tag, TransferId};

    /// Original: compute then blocking exchange (receiver idle during
    /// transfer). Overlapped stand-in: irecv + compute + wait.
    fn pair() -> (Trace, Trace) {
        let mut orig = Trace::new(2);
        orig.rank_mut(Rank(0)).push(Record::Compute {
            instr: Instructions(23_000_000), // 10 ms at 2300 MIPS
        });
        orig.rank_mut(Rank(0)).push(Record::Send {
            dst: Rank(1),
            tag: Tag::user(0),
            bytes: Bytes(1_000_000),
            mode: SendMode::Eager,
            transfer: TransferId::new(Rank(0), 0),
        });
        orig.rank_mut(Rank(1)).push(Record::Recv {
            src: Rank(0),
            tag: Tag::user(0),
            bytes: Bytes(1_000_000),
            transfer: TransferId::new(Rank(1), 0),
        });
        orig.rank_mut(Rank(1)).push(Record::Compute {
            instr: Instructions(23_000_000),
        });

        let mut ovl = Trace::new(2);
        ovl.rank_mut(Rank(0)).push(Record::Compute {
            instr: Instructions(11_500_000),
        });
        ovl.rank_mut(Rank(0)).push(Record::ISend {
            dst: Rank(1),
            tag: Tag::user(0),
            bytes: Bytes(1_000_000),
            mode: SendMode::Eager,
            req: ovlp_trace::ReqId(0),
            transfer: TransferId::new(Rank(0), 0),
        });
        ovl.rank_mut(Rank(0)).push(Record::Compute {
            instr: Instructions(11_500_000),
        });
        ovl.rank_mut(Rank(1)).push(Record::IRecv {
            src: Rank(0),
            tag: Tag::user(0),
            bytes: Bytes(1_000_000),
            req: ovlp_trace::ReqId(0),
            transfer: TransferId::new(Rank(1), 0),
        });
        ovl.rank_mut(Rank(1)).push(Record::Compute {
            instr: Instructions(23_000_000),
        });
        ovl.rank_mut(Rank(1)).push(Record::Wait {
            req: ovlp_trace::ReqId(0),
        });
        (orig, ovl)
    }

    #[test]
    fn min_bandwidth_search_converges() {
        let (orig, _) = pair();
        let p = Platform::marenostrum(0);
        let target = simulate(&orig, &p).unwrap().runtime();
        // the original itself matches its own runtime at 250
        let bw = min_bandwidth_matching(&orig, &p, target, 1e-3, 250.0)
            .unwrap()
            .unwrap();
        assert!(bw <= 250.0);
        // at half that bandwidth it must be slower than target
        let slower = simulate(&orig, &p.with_bandwidth(bw * 0.5))
            .unwrap()
            .runtime();
        assert!(slower > target);
    }

    #[test]
    fn overlapped_trace_allows_relaxation() {
        let (orig, ovl) = pair();
        let p = Platform::marenostrum(0);
        let target = simulate(&orig, &p).unwrap().runtime();
        let bw = min_bandwidth_matching(&ovl, &p, target, 1e-3, 250.0)
            .unwrap()
            .expect("overlapped should match at some bandwidth");
        // the overlapped variant hides the transfer behind 10 ms of
        // compute, so it tolerates far less bandwidth than 250 MB/s
        assert!(bw < 150.0, "relaxed bandwidth {bw}");
    }

    #[test]
    fn unreachable_target_returns_none() {
        let (orig, _) = pair();
        let p = Platform::marenostrum(0);
        let r = min_bandwidth_matching(&orig, &p, 1e-9, 1e-3, 250.0).unwrap();
        assert_eq!(r, None);
    }

    #[test]
    fn equivalent_bandwidth_finite_case() {
        let (orig, _) = pair();
        let p = Platform::marenostrum(0);
        // a target the original achieves at exactly 1000 MB/s
        let target = simulate(&orig, &p.with_bandwidth(1000.0))
            .unwrap()
            .runtime();
        match equivalent_bandwidth(&orig, &p, target).unwrap() {
            EquivalentBandwidth::Finite(bw) => {
                assert!(bw > 250.0, "needs more bandwidth than baseline: {bw}");
                // REL_TOL slack on the runtime comparison translates to
                // a few percent of bandwidth slack here
                assert!(
                    (bw - 1000.0).abs() / 1000.0 < 0.05,
                    "search should recover ~1000 MB/s, got {bw}"
                );
            }
            EquivalentBandwidth::Divergent => panic!("should be matchable"),
        }
    }

    #[test]
    fn fully_hidden_transfer_diverges() {
        // the overlapped variant hides the receiver's only transfer
        // entirely behind compute — no finite bandwidth lets the
        // blocking original match it (the Sweep3D effect in miniature)
        let (orig, ovl) = pair();
        let p = Platform::marenostrum(0);
        let target = simulate(&ovl, &p).unwrap().runtime();
        assert_eq!(
            equivalent_bandwidth(&orig, &p, target).unwrap(),
            EquivalentBandwidth::Divergent
        );
    }

    #[test]
    fn equivalent_bandwidth_divergent_case() {
        let (orig, _) = pair();
        let p = Platform::marenostrum(0);
        // a target below the original's infinite-bandwidth runtime
        let at_inf = simulate(&orig, &p.with_bandwidth(f64::INFINITY))
            .unwrap()
            .runtime();
        let r = equivalent_bandwidth(&orig, &p, at_inf * 0.9).unwrap();
        assert_eq!(r, EquivalentBandwidth::Divergent);
        assert_eq!(r.factor_over(250.0), None);
    }

    #[test]
    fn factor_over_baseline() {
        assert_eq!(
            EquivalentBandwidth::Finite(1000.0).factor_over(250.0),
            Some(4.0)
        );
    }
}
