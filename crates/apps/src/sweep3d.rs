//! Sweep3D mini-kernel.
//!
//! Sweep3D solves 3-D neutron transport with a wavefront (pipelined)
//! sweep: each rank waits for the upstream face, sweeps its local
//! cells for every angle group (`mk`), and forwards the downstream
//! face. The paper runs 50×50×50 with `mk = 10`.
//!
//! Measured patterns (Table II, Fig. 5a): the outgoing face is
//! **revisited many times** during a sweep — every angle pass rewrites
//! it — so final versions appear extremely late and non-uniformly: the
//! first element's final version at ~66.3% of the production interval,
//! a quarter at ~94.8%, half ~98.2%, whole ~99.8%. The incoming face
//! is needed essentially immediately (~0.02%).
//!
//! The mini-kernel reproduces this with two uniform rewrite passes over
//! `[0, 66.3%]` and a finalization pass whose element completion times
//! follow `f(x) = 0.663 + 0.335·x^(1/8)` — giving quarter/half/whole at
//! ≈94.5 / 97 / 99.8%.
//!
//! The wavefront structure is what makes Sweep3D the paper's headline:
//! under ideal patterns, chunking creates finer-grain pipeline
//! dependencies between ranks, so the overlapped execution reaches
//! speedups **no bandwidth increase can match** (Fig. 6c "tends to
//! infinity") and tolerates drastic bandwidth reduction (Fig. 6b,
//! 11.75 MB/s).

use crate::util::{advance_to, copy_in};
use ovlp_instr::{MpiApp, RankCtx};
use ovlp_trace::Rank;
use std::sync::{Arc, Mutex, PoisonError};

/// Configuration of the Sweep3D mini-kernel.
#[derive(Debug, Clone)]
pub struct Sweep3dApp {
    /// Elements of the pipelined face (50×50 grid ⇒ up to 2500;
    /// default enlarged so transfers are non-trivial).
    pub face: usize,
    /// Angle groups per time step (the paper's `mk = 10`).
    pub mk: u32,
    /// Time steps.
    pub iters: u32,
    /// Instructions per angle-group sweep of the local cells.
    pub sweep_instr: u64,
    /// Fraction of the sweep before the final rewrite pass begins
    /// (66.3% in the paper's measurement).
    pub final_pass_at: f64,
    /// Exponent of the finalization profile (1/8 reproduces the
    /// measured 94.8%-quarter point).
    pub profile_exp: f64,
}

impl Default for Sweep3dApp {
    fn default() -> Sweep3dApp {
        Sweep3dApp {
            face: 3_000,
            mk: 10,
            iters: 2,
            sweep_instr: 4_600_000, // ~2 ms at 2300 MIPS
            final_pass_at: 0.663,
            profile_exp: 0.125,
        }
    }
}

impl Sweep3dApp {
    /// A tiny configuration for unit tests.
    pub fn quick() -> Sweep3dApp {
        Sweep3dApp {
            face: 64,
            mk: 2,
            iters: 1,
            sweep_instr: 50_000,
            ..Sweep3dApp::default()
        }
    }

    /// The finalization pass's completion fraction of each face element,
    /// `min(1, final_pass_at + span·(i/face)^profile_exp)`. The table
    /// depends only on the configuration, so it is computed once and
    /// shared read-only by every rank thread of every run with the same
    /// configuration, instead of `face × mk × iters` calls to `powf` on
    /// every rank.
    fn final_profile(&self) -> Arc<[f64]> {
        type Key = (usize, u64, u64);
        /// Distinct configurations kept; a sweep traces one or two.
        const CAP: usize = 8;
        static PROFILES: Mutex<Vec<(Key, Arc<[f64]>)>> = Mutex::new(Vec::new());
        let key = (
            self.face,
            self.final_pass_at.to_bits(),
            self.profile_exp.to_bits(),
        );
        let mut cache = PROFILES.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some((_, table)) = cache.iter().find(|(k, _)| *k == key) {
            return Arc::clone(table);
        }
        let (n, span) = (self.face, 1.0 - self.final_pass_at);
        let table: Arc<[f64]> = (0..n)
            .map(|i| {
                // x = i/n so the first element's final version lands
                // exactly at `final_pass_at` (the measured 66.3%)
                let x = i as f64 / n as f64;
                (self.final_pass_at + span * x.powf(self.profile_exp)).min(1.0)
            })
            .collect();
        if cache.len() >= CAP {
            cache.clear();
        }
        cache.push((key, Arc::clone(&table)));
        table
    }
}

impl MpiApp for Sweep3dApp {
    fn name(&self) -> &str {
        "sweep3d"
    }

    fn run(&self, ctx: &mut RankCtx) {
        let me = ctx.rank().get();
        let last = ctx.nranks() as u32 - 1;
        let mut face_in = ctx.buffer(self.face);
        let mut face_out = ctx.buffer(self.face);
        let n = self.face;
        let profile = self.final_profile();

        for it in 0..self.iters {
            ctx.iter_begin(it);
            for _g in 0..self.mk {
                // wait for the upstream face; the wavefront needs it
                // immediately (Table IIb: ~0.02%)
                let mut inflow = 1.0;
                if me > 0 {
                    ctx.recv(Rank(me - 1), 20, &mut face_in);
                    inflow = copy_in(ctx, &mut face_in, 1) / n as f64;
                }

                // the sweep burst: two full rewrite passes, then the
                // finalization pass with late-concentrated completions
                let start = ctx.now();
                for pass in 0..2u64 {
                    for i in 0..n {
                        let frac = self.final_pass_at
                            * ((pass * n as u64 + i as u64 + 1) as f64 / (2 * n) as f64);
                        advance_to(ctx, start, frac, self.sweep_instr);
                        face_out.store(i, inflow + (pass * 7) as f64 + i as f64 * 0.25);
                    }
                }
                for (i, &frac) in profile.iter().enumerate() {
                    advance_to(ctx, start, frac, self.sweep_instr);
                    face_out.store(i, inflow * 0.5 + i as f64);
                }
                advance_to(ctx, start, 1.0, self.sweep_instr);

                // forward the downstream face
                if me < last {
                    ctx.send(Rank(me + 1), 20, &mut face_out);
                }
            }
            ctx.iter_end(it);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ovlp_core::patterns::{consumption_stats, production_stats};
    use ovlp_instr::trace_app;
    use ovlp_trace::validate::validate;

    #[test]
    fn trace_is_valid() {
        let run = trace_app(&Sweep3dApp::quick(), 4).unwrap();
        assert!(validate(&run.trace).is_empty());
    }

    #[test]
    fn patterns_match_table2_sweep3d_row() {
        let app = Sweep3dApp {
            face: 2000,
            mk: 3,
            iters: 1,
            sweep_instr: 2_000_000,
            ..Sweep3dApp::default()
        };
        let run = trace_app(&app, 4).unwrap();
        let p = production_stats(&run.access);
        // paper: 66.3 / 94.8 / 98.2 / 99.8
        assert!((p.first.unwrap() - 66.3).abs() < 4.0, "{p:?}");
        assert!((p.quarter.unwrap() - 94.8).abs() < 3.0, "{p:?}");
        assert!((p.half.unwrap() - 98.2).abs() < 3.0, "{p:?}");
        assert!(p.whole.unwrap() > 99.0, "{p:?}");
        let c = consumption_stats(&run.access);
        // paper: ~0.02 / ~0.003 / ~0.004 (all essentially zero)
        assert!(c.nothing.unwrap() < 2.0, "{c:?}");
        assert!(c.quarter.unwrap() < 3.0, "{c:?}");
    }

    #[test]
    fn wavefront_pipelines_across_ranks() {
        // middle ranks both receive and send every sweep
        let run = trace_app(&Sweep3dApp::quick(), 4).unwrap();
        use ovlp_trace::record::Record;
        let count = |r: usize, pred: fn(&Record) -> bool| {
            run.trace.ranks[r]
                .records
                .iter()
                .filter(|x| pred(x))
                .count()
        };
        let sweeps = (Sweep3dApp::quick().mk * Sweep3dApp::quick().iters) as usize;
        assert_eq!(count(0, |r| matches!(r, Record::Send { .. })), sweeps);
        assert_eq!(count(0, |r| matches!(r, Record::Recv { .. })), 0);
        assert_eq!(count(1, |r| matches!(r, Record::Send { .. })), sweeps);
        assert_eq!(count(1, |r| matches!(r, Record::Recv { .. })), sweeps);
        assert_eq!(count(3, |r| matches!(r, Record::Send { .. })), 0);
        assert_eq!(count(3, |r| matches!(r, Record::Recv { .. })), sweeps);
    }
}
