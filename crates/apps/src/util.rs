//! Shared building blocks for the mini-applications: burst scheduling
//! against the virtual instruction counter and canonical
//! production/consumption access shapes.

use ovlp_instr::{RankCtx, TrackedBuf};

/// Advance the rank's instruction counter to `burst_start + frac*total`
/// (no-op if already past it). This is how apps place accesses at
/// precise fractions of a computation phase, tolerating the cost the
/// accesses themselves charge.
pub fn advance_to(ctx: &mut RankCtx, burst_start: u64, frac: f64, total: u64) {
    debug_assert!((0.0..=1.0 + 1e-9).contains(&frac));
    let target = burst_start + (frac * total as f64) as u64;
    let now = ctx.now();
    if target > now {
        ctx.compute(target - now);
    }
}

/// Store every element of `buf` once, in order, spread uniformly over
/// the window `[from, to]` (fractions of a `total`-instruction phase
/// starting at `burst_start`). Values derive from `seed` and the
/// element index so the data is deterministic but non-trivial.
pub fn linear_pack(
    ctx: &mut RankCtx,
    buf: &mut TrackedBuf,
    burst_start: u64,
    total: u64,
    from: f64,
    to: f64,
    seed: f64,
) {
    let n = buf.len();
    for i in 0..n {
        let frac = from + (to - from) * (i as f64 + 1.0) / n as f64;
        advance_to(ctx, burst_start, frac.min(to), total);
        let v = seed + i as f64 * 0.5;
        buf.store(i, v);
    }
}

/// Load every element back-to-back (a wholesale copy-in, the NAS-BT
/// consumption shape), `passes` times. Returns the sum of the last
/// pass.
pub fn copy_in(ctx: &mut RankCtx, buf: &mut TrackedBuf, passes: usize) -> f64 {
    let _ = ctx;
    let mut acc = 0.0;
    for _ in 0..passes.max(1) {
        acc = 0.0;
        for i in 0..buf.len() {
            acc += buf.load(i);
        }
    }
    acc
}

/// Store every element back-to-back (a wholesale pack).
pub fn copy_out(ctx: &mut RankCtx, buf: &mut TrackedBuf, seed: f64) {
    let _ = ctx;
    for i in 0..buf.len() {
        buf.store(i, seed + i as f64);
    }
}

/// The partner of `me` under pairwise (XOR) exchange; requires an even
/// world size.
pub fn xor_partner(me: u32, nranks: usize) -> u32 {
    assert!(
        nranks.is_multiple_of(2),
        "pairwise exchange needs an even rank count"
    );
    me ^ 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use ovlp_instr::{trace_app_with, CostModel, FnApp, TraceOptions};
    use ovlp_trace::{Rank, TransferId};

    fn free() -> TraceOptions {
        TraceOptions {
            cost: CostModel::free_accesses(),
            ..TraceOptions::default()
        }
    }

    #[test]
    fn advance_to_is_monotone() {
        let app = FnApp::new("adv", |ctx: &mut ovlp_instr::RankCtx| {
            let start = ctx.now();
            advance_to(ctx, start, 0.5, 1000);
            assert_eq!(ctx.now(), start + 500);
            // going backwards is a no-op
            advance_to(ctx, start, 0.1, 1000);
            assert_eq!(ctx.now(), start + 500);
            advance_to(ctx, start, 1.0, 1000);
            assert_eq!(ctx.now(), start + 1000);
        });
        ovlp_instr::trace_app(&app, 1).unwrap();
    }

    #[test]
    fn linear_pack_produces_linear_pattern() {
        let app = FnApp::new("pack", |ctx: &mut ovlp_instr::RankCtx| {
            let mut buf = ctx.buffer(100);
            if ctx.rank() == Rank(0) {
                let start = ctx.now();
                linear_pack(ctx, &mut buf, start, 10_000, 0.0, 1.0, 1.0);
                advance_to(ctx, start, 1.0, 10_000);
                ctx.send(Rank(1), 0, &mut buf);
            } else {
                ctx.recv(Rank(0), 0, &mut buf);
            }
        });
        let run = trace_app_with(&app, 2, &free()).unwrap();
        let p = run.access.production(TransferId::new(Rank(0), 0)).unwrap();
        let (first, quarter, half, whole) = ovlp_core::patterns::production_fractions(p).unwrap();
        assert!(first < 2.0, "{first}");
        assert!((quarter.unwrap() - 25.0).abs() < 2.0);
        assert!((half.unwrap() - 50.0).abs() < 2.0);
        assert!(whole > 99.0);
    }

    #[test]
    fn late_pack_window_respected() {
        let app = FnApp::new("late", |ctx: &mut ovlp_instr::RankCtx| {
            let mut buf = ctx.buffer(50);
            if ctx.rank() == Rank(0) {
                let start = ctx.now();
                linear_pack(ctx, &mut buf, start, 100_000, 0.955, 1.0, 0.0);
                advance_to(ctx, start, 1.0, 100_000);
                ctx.send(Rank(1), 0, &mut buf);
            } else {
                ctx.recv(Rank(0), 0, &mut buf);
            }
        });
        let run = trace_app_with(&app, 2, &free()).unwrap();
        let p = run.access.production(TransferId::new(Rank(0), 0)).unwrap();
        let (first, quarter, _, whole) = ovlp_core::patterns::production_fractions(p).unwrap();
        assert!((first - 95.5).abs() < 0.5, "{first}");
        assert!((quarter.unwrap() - 96.6).abs() < 0.5);
        assert!(whole <= 100.0 && whole > 99.5);
    }

    #[test]
    fn copy_in_is_compact_and_counts_passes() {
        let app = FnApp::new("copy", |ctx: &mut ovlp_instr::RankCtx| {
            let mut buf = ctx.buffer(10);
            if ctx.rank() == Rank(0) {
                copy_out(ctx, &mut buf, 5.0);
                ctx.send(Rank(1), 0, &mut buf);
            } else {
                ctx.recv(Rank(0), 0, &mut buf);
                ctx.compute(1000);
                let s = copy_in(ctx, &mut buf, 4);
                assert_eq!(s, (0..10).map(|i| 5.0 + i as f64).sum::<f64>());
                ctx.compute(5000);
            }
        });
        // default cost model: loads cost 1 instruction each
        let run = ovlp_instr::trace_app(&app, 2).unwrap();
        let c = run.access.consumption(TransferId::new(Rank(1), 0)).unwrap();
        let (nothing, quarter, half) = ovlp_core::patterns::consumption_fractions(c).unwrap();
        // first load right after the 1000-instruction independent work
        assert!(nothing > 10.0, "{nothing}");
        // copy-in is compact: all prefixes available almost at once
        assert!((quarter.unwrap() - nothing).abs() < 2.0);
        assert!((half.unwrap() - nothing).abs() < 2.0);
        // 4 passes recorded in the scatter
        assert_eq!(c.events.len(), 40);
    }

    #[test]
    fn xor_partner_pairs() {
        assert_eq!(xor_partner(0, 4), 1);
        assert_eq!(xor_partner(1, 4), 0);
        assert_eq!(xor_partner(2, 4), 3);
    }

    #[test]
    #[should_panic(expected = "even rank count")]
    fn xor_partner_rejects_odd() {
        let _ = xor_partner(0, 3);
    }
}
