//! Analytical overlap estimation — the baseline this framework
//! supersedes.
//!
//! Sancho, Barker, Kerbyson & Davis (*Quantifying the Potential Benefit
//! of Overlapping Communication and Computation in Large-Scale
//! Scientific Applications*, SC'06 — the paper's reference \[23\])
//! estimate overlap potential analytically: the application is modeled
//! as one iterative loop with computation time `Tc` and exposed
//! communication time `Tm` per rank, of which a fraction `f` of the
//! computation is *available* to hide communication. The overlapped
//! runtime estimate is then
//!
//! ```text
//! T_overlap = Tc + max(0, Tm − min(Tm, f·Tc))
//! ```
//!
//! i.e. communication is hidden under the available computation window
//! and only the remainder stays exposed.
//!
//! The paper's §VI argues its simulation "accounts for more delicate
//! application properties" than this model — chunk-level windows,
//! bus/port contention, pipelining across ranks. This module implements
//! the analytical baseline so the claim is testable: compare
//! [`estimate`] against the simulated speedups (the `analytic` section
//! of `ovlp paper`).

use crate::patterns::{ConsumptionStats, ProductionStats};
use ovlp_machine::SimResult;

/// Analytical estimate for one application.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnalyticEstimate {
    /// Mean per-rank computation time (s).
    pub tc: f64,
    /// Mean per-rank exposed communication time (s).
    pub tm: f64,
    /// Overlappable-computation fraction derived from the measured
    /// patterns (advance + postpone windows, averaged over chunks).
    pub f: f64,
    /// Estimated speedup with measured patterns.
    pub speedup: f64,
    /// Estimated upper bound (all communication hidden, `f = 1`).
    pub upper_bound: f64,
}

/// Derive the overlappable fraction from Table II statistics, per
/// Eq. 1 of the paper specialised to 4 chunks: chunk `k` can hide
/// behind the production still pending after it is complete plus the
/// consumption that runs before it is needed.
pub fn overlappable_fraction(prod: &ProductionStats, cons: &ConsumptionStats) -> f64 {
    // production completion per chunk boundary (fractions in [0,1])
    let p = [
        prod.quarter.unwrap_or(prod.whole.unwrap_or(100.0)) / 100.0,
        prod.half.unwrap_or(prod.whole.unwrap_or(100.0)) / 100.0,
        prod.whole.unwrap_or(100.0) / 100.0,
        prod.whole.unwrap_or(100.0) / 100.0,
    ];
    // consumption need per chunk (passable fractions)
    let c0 = cons.nothing.unwrap_or(0.0) / 100.0;
    let c = [
        c0,
        cons.quarter.unwrap_or(c0 * 100.0) / 100.0,
        cons.half.unwrap_or(c0 * 100.0) / 100.0,
        cons.half.unwrap_or(c0 * 100.0) / 100.0,
    ];
    // window for chunk k: (1 - produced_by(k)) of the producing burst
    // plus needed_at(k) of the consuming burst
    let mean: f64 = (0..4).map(|k| (1.0 - p[k]) + c[k]).sum::<f64>() / 4.0;
    mean.clamp(0.0, 1.0)
}

/// Analytical overlap estimate from an original-execution simulation
/// and the measured pattern statistics.
pub fn estimate(
    original: &SimResult,
    prod: &ProductionStats,
    cons: &ConsumptionStats,
) -> AnalyticEstimate {
    let n = original.totals.len().max(1) as f64;
    let tc: f64 = original
        .totals
        .iter()
        .map(|t| t.compute.as_secs())
        .sum::<f64>()
        / n;
    let tm: f64 = original
        .totals
        .iter()
        .map(|t| t.total_wait().as_secs())
        .sum::<f64>()
        / n;
    let f = overlappable_fraction(prod, cons);
    let t_orig = tc + tm;
    let hidden = tm.min(f * tc);
    let t_overlap = tc + (tm - hidden);
    let t_upper = tc + (tm - tm.min(tc));
    AnalyticEstimate {
        tc,
        tm,
        f,
        speedup: t_orig / t_overlap.max(1e-300),
        upper_bound: t_orig / t_upper.max(1e-300),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ovlp_machine::timeline::State;
    use ovlp_machine::{StateTotals, Time, Timeline};

    fn sim_with(tc_s: f64, tm_s: f64, ranks: usize) -> SimResult {
        let mut tl = Timeline::default();
        tl.push(Time::ZERO, Time::secs(tc_s), State::Compute);
        tl.push(Time::secs(tc_s), Time::secs(tc_s + tm_s), State::WaitRecv);
        let totals = StateTotals::of(&tl);
        SimResult {
            runtime: Time::secs(tc_s + tm_s),
            timelines: vec![tl; ranks],
            comms: vec![],
            totals: vec![totals; ranks],
            markers: vec![Vec::new(); ranks],
            network: Default::default(),
            links: Vec::new(),
            events_processed: 0,
            queue_peak: 0,
            stale_events: 0,
            fault_log: Vec::new(),
        }
    }

    fn linear_patterns() -> (ProductionStats, ConsumptionStats) {
        (
            ProductionStats {
                first: Some(1.0),
                quarter: Some(25.0),
                half: Some(50.0),
                whole: Some(100.0),
                samples: 10,
            },
            ConsumptionStats {
                nothing: Some(0.0),
                quarter: Some(25.0),
                half: Some(50.0),
                samples: 10,
            },
        )
    }

    fn late_patterns() -> (ProductionStats, ConsumptionStats) {
        (
            ProductionStats {
                first: Some(99.0),
                quarter: Some(99.4),
                half: Some(99.6),
                whole: Some(100.0),
                samples: 10,
            },
            ConsumptionStats {
                nothing: Some(0.1),
                quarter: Some(0.1),
                half: Some(0.1),
                samples: 10,
            },
        )
    }

    #[test]
    fn linear_patterns_expose_large_windows() {
        let (p, c) = linear_patterns();
        let f = overlappable_fraction(&p, &c);
        // chunks: (1-.25)+0, (1-.5)+.25, (1-1)+.5, (1-1)+.5 → mean 0.625
        assert!((f - 0.625).abs() < 1e-9, "{f}");
    }

    #[test]
    fn late_patterns_expose_almost_nothing() {
        let (p, c) = late_patterns();
        let f = overlappable_fraction(&p, &c);
        assert!(f < 0.01, "{f}");
    }

    #[test]
    fn estimate_hides_comm_under_available_window() {
        let (p, c) = linear_patterns();
        // Tc = 10 ms, Tm = 2 ms, f = 0.625 → hideable 6.25 ms ≥ Tm
        let e = estimate(&sim_with(0.010, 0.002, 4), &p, &c);
        assert!((e.speedup - 1.2).abs() < 1e-9, "{e:?}");
        assert!((e.upper_bound - 1.2).abs() < 1e-9);
    }

    #[test]
    fn estimate_limited_by_window() {
        let (p, c) = late_patterns();
        let e = estimate(&sim_with(0.010, 0.002, 4), &p, &c);
        // almost no window: speedup ~1, but the upper bound still 1.2
        assert!(e.speedup < 1.01, "{e:?}");
        assert!((e.upper_bound - 1.2).abs() < 1e-9);
    }

    #[test]
    fn comm_bound_case() {
        let (p, c) = linear_patterns();
        // Tm >> Tc: even full overlap leaves Tm - Tc exposed
        let e = estimate(&sim_with(0.001, 0.010, 2), &p, &c);
        assert!(e.upper_bound > e.speedup - 1e-12);
        assert!(e.upper_bound < 11.0 / 2.0);
    }

    #[test]
    fn missing_stats_degrade_gracefully() {
        // Alya-like: only single-element columns
        let p = ProductionStats {
            first: Some(98.8),
            quarter: None,
            half: None,
            whole: Some(98.8),
            samples: 5,
        };
        let c = ConsumptionStats {
            nothing: Some(0.4),
            quarter: None,
            half: None,
            samples: 5,
        };
        let f = overlappable_fraction(&p, &c);
        assert!(f < 0.03, "{f}");
    }
}
