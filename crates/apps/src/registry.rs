//! The application pool, by name: the paper's six traced apps plus
//! natively-generated workload families.
//!
//! Each entry carries its **kind**: [`AppKind::Traced`] applications
//! are instrumented [`MpiApp`]s executed thread-per-rank by
//! `ovlp_instr::trace_app_with` (materialized traces, access logs, the full
//! transform pipeline); [`AppKind::Generated`] applications synthesize
//! per-rank record streams directly as a
//! [`TraceSource`](ovlp_trace::TraceSource), which is what makes
//! 100k–1M-rank weak-scaling replays affordable — the records are
//! produced lazily as the replay engine's cursors advance.
//!
//! Rank-count overrides are validated *here*, before any rank thread
//! spawns or any stream opens, so front ends (CLI, daemon, bench) can
//! map violations to usage errors (exit 2 / HTTP 400) instead of
//! panicking mid-trace.

use crate::{alya, nas_bt, nas_cg, pop, specfem3d, sweep3d};
use ovlp_instr::{trace_app_with, MpiApp, TraceOptions, TraceRun};
use ovlp_trace::mlgen::{MlAllreduce, MlConfig};
use ovlp_trace::{AccessDb, TraceSource};

/// Thread-per-rank tracing spawns one OS thread per rank; beyond this
/// the scheduler thrashes long before the trace finishes. Weak-scaling
/// studies past the cap use a generated app (`ovlp scale`, or
/// `ovlp simulate <app> --ranks N`, which streams it).
pub const TRACED_RANK_CAP: usize = 4096;

/// Materializing a generated workload builds the full O(ranks ×
/// records) trace in memory; past this, replay its source instead,
/// which streams (`ovlp scale`, `ovlp simulate <app> --ranks N`).
pub const GENERATED_MATERIALIZE_CAP: usize = 16_384;

/// Fixed seed for the registry's generated workloads: lookups by name
/// must be deterministic so sweep fingerprints and goldens are stable.
const ML_SEED: u64 = 0x6d6c_6172; // "mlar"

/// Structural constraint an application places on its rank count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RankRule {
    /// Any rank count >= 2.
    Any,
    /// Even rank counts only (XOR-partner exchange patterns).
    Even,
}

/// How an application's trace comes into being.
pub enum AppKind {
    /// Instrumented [`MpiApp`] executed thread-per-rank.
    Traced {
        app: Box<dyn MpiApp>,
        rule: RankRule,
    },
    /// Natively-generated per-rank record streams; `make` builds the
    /// source for a validated rank count (and is the place rank rules
    /// beyond [`RankRule`] live, e.g. group divisibility).
    Generated {
        make: fn(usize) -> Result<Box<dyn TraceSource>, String>,
    },
}

/// One entry of the application pool.
pub struct AppEntry {
    /// Canonical name (matches `ovlp_core::presets::bus_preset`).
    pub name: &'static str,
    /// Default rank count (the paper-reproduction experiments for
    /// traced apps).
    pub ranks: usize,
    /// Trace provenance and rank constraints.
    pub kind: AppKind,
}

impl AppEntry {
    /// Whether this app generates streams natively (no thread-per-rank
    /// tracing, no access log).
    pub fn is_generated(&self) -> bool {
        matches!(self.kind, AppKind::Generated { .. })
    }

    /// The instrumented application, for [`AppKind::Traced`] entries.
    pub fn mpi_app(&self) -> Option<&dyn MpiApp> {
        match &self.kind {
            AppKind::Traced { app, .. } => Some(app.as_ref()),
            AppKind::Generated { .. } => None,
        }
    }

    /// Validate a rank-count override before any tracing/streaming
    /// work starts. Errors are caller mistakes (CLI exit 2, HTTP 400).
    pub fn validate_ranks(&self, ranks: usize) -> Result<(), String> {
        match &self.kind {
            AppKind::Traced { rule, .. } => {
                if ranks < 2 {
                    return Err(format!(
                        "bad rank count {ranks} for `{}`: needs at least 2 ranks",
                        self.name
                    ));
                }
                if ranks > TRACED_RANK_CAP {
                    return Err(format!(
                        "bad rank count {ranks} for `{}`: traced apps run one thread \
                         per rank (cap {TRACED_RANK_CAP}); use a generated app with \
                         `ovlp scale` for weak-scaling studies",
                        self.name
                    ));
                }
                if *rule == RankRule::Even && !ranks.is_multiple_of(2) {
                    return Err(format!(
                        "bad rank count {ranks} for `{}`: XOR-partner exchanges \
                         need an even rank count",
                        self.name
                    ));
                }
                Ok(())
            }
            // Generated rank rules live in the generator config; build
            // (and discard) the source to surface them.
            AppKind::Generated { make } => make(ranks).map(|_| ()),
        }
    }

    /// A lazily-evaluated record source for `ranks` ranks.
    ///
    /// Generated entries stream natively; traced entries run the
    /// instrumented app lean (materialized — tracing is inherently
    /// eager) and wrap the resulting trace.
    pub fn source(&self, ranks: usize) -> Result<Box<dyn TraceSource>, String> {
        self.validate_ranks(ranks)?;
        match &self.kind {
            AppKind::Generated { make } => make(ranks),
            AppKind::Traced { .. } => Ok(Box::new(self.trace_run(ranks)?.trace)),
        }
    }

    /// Trace (or materialize) the app at `ranks` for the eager
    /// pipeline. Traced apps run lean: the access log holds the
    /// per-element summaries the transforms read, but no Figure-5
    /// scatter (use [`AppEntry::trace_run_with`] to capture it).
    /// Generated apps come back with an empty access log — they
    /// already encode their overlap explicitly, so the measured-pattern
    /// transforms are identity on them.
    pub fn trace_run(&self, ranks: usize) -> Result<TraceRun, String> {
        self.trace_run_with(ranks, &lean())
    }

    /// [`AppEntry::trace_run`] with explicit tracing options, for the
    /// callers that read the access scatter (`events`). The options do
    /// not apply to generated apps.
    pub fn trace_run_with(&self, ranks: usize, opts: &TraceOptions) -> Result<TraceRun, String> {
        self.validate_ranks(ranks)?;
        match &self.kind {
            AppKind::Traced { app, .. } => {
                trace_app_with(app.as_ref(), ranks, opts).map_err(|e| e.to_string())
            }
            AppKind::Generated { make } => {
                if ranks > GENERATED_MATERIALIZE_CAP {
                    return Err(format!(
                        "materializing `{}` at {ranks} ranks exceeds the \
                         {GENERATED_MATERIALIZE_CAP}-rank cap; use `ovlp scale` or \
                         `ovlp simulate {} --ranks {ranks}`, which stream it",
                        self.name, self.name
                    ));
                }
                let source = make(ranks)?;
                Ok(TraceRun {
                    trace: source.materialize(),
                    access: AccessDb::new(ranks),
                })
            }
        }
    }
}

/// Tracing options for replay-only callers: no access scatter.
fn lean() -> TraceOptions {
    TraceOptions {
        scatter: false,
        ..TraceOptions::default()
    }
}

fn ml_allreduce_source(ranks: usize) -> Result<Box<dyn TraceSource>, String> {
    let cfg = MlConfig::new(ranks, ML_SEED)?;
    Ok(Box::new(MlAllreduce::new(cfg)))
}

/// The six applications of §IV with experiment-scale configurations,
/// plus the generated workload families.
pub fn paper_pool() -> Vec<AppEntry> {
    vec![
        AppEntry {
            name: "sweep3d",
            ranks: 16,
            kind: AppKind::Traced {
                app: Box::new(sweep3d::Sweep3dApp::default()),
                rule: RankRule::Any,
            },
        },
        AppEntry {
            name: "pop",
            ranks: 16,
            kind: AppKind::Traced {
                app: Box::new(pop::PopApp::default()),
                rule: RankRule::Any,
            },
        },
        AppEntry {
            name: "alya",
            ranks: 16,
            kind: AppKind::Traced {
                app: Box::new(alya::AlyaApp::default()),
                rule: RankRule::Any,
            },
        },
        AppEntry {
            name: "specfem3d",
            ranks: 16,
            kind: AppKind::Traced {
                app: Box::new(specfem3d::Specfem3dApp::default()),
                rule: RankRule::Even,
            },
        },
        AppEntry {
            name: "nas-bt",
            ranks: 16,
            kind: AppKind::Traced {
                app: Box::new(nas_bt::NasBtApp::default()),
                rule: RankRule::Even,
            },
        },
        AppEntry {
            name: "nas-cg",
            ranks: 16,
            kind: AppKind::Traced {
                app: Box::new(nas_cg::NasCgApp::default()),
                rule: RankRule::Even,
            },
        },
        AppEntry {
            name: "ml-allreduce",
            ranks: 8,
            kind: AppKind::Generated {
                make: ml_allreduce_source,
            },
        },
    ]
}

/// Look one application up by name (accepts the aliases `bt`/`cg`/`ml`).
pub fn by_name(name: &str) -> Option<AppEntry> {
    let canonical = match name.to_ascii_lowercase().as_str() {
        "bt" => "nas-bt".to_string(),
        "cg" => "nas-cg".to_string(),
        "ml" => "ml-allreduce".to_string(),
        other => other.to_string(),
    };
    paper_pool().into_iter().find(|e| e.name == canonical)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_has_seven_apps() {
        let pool = paper_pool();
        assert_eq!(pool.len(), 7);
        for e in &pool {
            match &e.kind {
                AppKind::Traced { app, .. } => {
                    assert!(e.ranks >= 2);
                    assert_eq!(app.name(), e.name);
                }
                AppKind::Generated { .. } => {
                    assert!(e.ranks >= 1);
                    assert!(e.validate_ranks(e.ranks).is_ok());
                }
            }
        }
    }

    #[test]
    fn lookup_with_aliases() {
        assert!(by_name("sweep3d").is_some());
        assert!(by_name("CG").is_some());
        assert_eq!(by_name("cg").unwrap().name, "nas-cg");
        assert_eq!(by_name("ml").unwrap().name, "ml-allreduce");
        assert!(by_name("nonesuch").is_none());
    }

    #[test]
    fn pool_names_have_bus_presets() {
        for e in paper_pool() {
            assert!(
                ovlp_core::presets::bus_preset(e.name).is_some(),
                "{} missing from platform presets",
                e.name
            );
        }
    }

    #[test]
    fn rank_rules_reject_before_tracing() {
        // odd rank count on an XOR-partner app: usage error, not a
        // mid-trace panic
        let e = by_name("nas-cg").unwrap();
        assert!(e.validate_ranks(4).is_ok());
        let msg = e.validate_ranks(5).unwrap_err();
        assert!(msg.contains("even"), "{msg}");
        // single rank is rejected for every traced app
        assert!(by_name("pop").unwrap().validate_ranks(1).is_err());
        // beyond the thread-per-rank cap
        let msg = e.validate_ranks(TRACED_RANK_CAP + 1).unwrap_err();
        assert!(msg.contains("cap"), "{msg}");
        // generated rank rule: group divisibility
        let ml = by_name("ml-allreduce").unwrap();
        assert!(ml.validate_ranks(8).is_ok());
        assert!(ml.validate_ranks(100_000).is_ok());
        assert!(ml.validate_ranks(100_001).is_err());
    }

    #[test]
    fn generated_app_sources_and_materializes() {
        let ml = by_name("ml-allreduce").unwrap();
        assert!(ml.is_generated());
        assert!(ml.mpi_app().is_none());
        let src = ml.source(8).unwrap();
        assert_eq!(src.nranks(), 8);
        let run = ml.trace_run(8).unwrap();
        assert_eq!(run.trace.nranks(), 8);
        assert_eq!(src.materialize(), run.trace);
        // identical by construction: same name, same seed
        let again = by_name("ml-allreduce").unwrap().trace_run(8).unwrap();
        assert_eq!(run.trace, again.trace);
        // materialization cap points at the streaming path
        let msg = ml.trace_run(GENERATED_MATERIALIZE_CAP * 8).unwrap_err();
        assert!(msg.contains("scale"), "{msg}");
        assert!(msg.contains("simulate ml-allreduce --ranks"), "{msg}");
    }

    #[test]
    fn traced_app_sources_stream_the_trace() {
        let e = by_name("nas-cg").unwrap();
        let src = e.source(4).unwrap();
        assert_eq!(src.nranks(), 4);
        let run = e.trace_run(4).unwrap();
        assert_eq!(src.materialize(), run.trace);
    }
}
