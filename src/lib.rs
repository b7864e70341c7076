//! # overlap-sim
//!
//! A simulation framework to automatically analyze the
//! communication-computation overlap in scientific applications — a
//! from-scratch Rust reproduction of Subotic, Sancho, Labarta & Valero
//! (IEEE CLUSTER 2010).
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`trace`] — trace model and text format (`ovlp-trace`);
//! * [`machine`] — the Dimemas-like trace-driven machine simulator
//!   (`ovlp-machine`);
//! * [`instr`] — the Valgrind-like instrumented runtime that executes
//!   message-passing mini-apps and extracts traces plus element-level
//!   access logs (`ovlp-instr`);
//! * [`core`] — the paper's contribution: the automatic overlap
//!   transformation (message chunking, advancing sends, double
//!   buffering, post-postponing receptions), pattern analysis and the
//!   benefit experiments (`ovlp-core`);
//! * [`viz`] — Paraver export plus ASCII/SVG timeline rendering
//!   (`ovlp-viz`);
//! * [`apps`] — the application pool: Sweep3D, POP, Alya, SPECFEM3D,
//!   NAS BT and NAS CG mini-kernels plus synthetic workloads
//!   (`ovlp-apps`);
//! * [`serve`] — sweep-as-a-service: the `ovlp serve` HTTP daemon and
//!   the shared sweep-job specification, backed by the persistent
//!   content-addressed result store (`ovlp-serve`);
//! * [`paper`] — the paper's whole evaluation (Tables I–II, Figs. 4–6,
//!   the SC'06 model comparison, the ablations) as one document, the
//!   output of `ovlp paper`.
//!
//! ## Quickstart
//!
//! ```
//! use overlap_sim::prelude::*;
//!
//! // 1. Pick an application and trace it under instrumentation.
//! let app = overlap_sim::apps::nas_cg::NasCgApp::default();
//! let run = overlap_sim::instr::trace_app(&app, 4).unwrap();
//!
//! // 2. Rewrite the original trace into the overlapped variants.
//! let bundle = overlap_sim::core::pipeline::build_variants(
//!     &run,
//!     &ChunkPolicy::paper_default(),
//! );
//!
//! // 3. Replay all variants on a Marenostrum-like platform.
//! let platform = Platform::marenostrum(6);
//! let original = simulate(&bundle.original, &platform).unwrap();
//! let overlapped = simulate(&bundle.overlapped, &platform).unwrap();
//! assert!(overlapped.runtime() < original.runtime());
//! ```

pub use ovlp_apps as apps;
pub use ovlp_core as core;
pub use ovlp_instr as instr;
pub use ovlp_machine as machine;
pub use ovlp_serve as serve;
pub use ovlp_trace as trace;
pub use ovlp_viz as viz;

pub mod paper;

/// Commonly used items, importable with one `use`.
pub mod prelude {
    pub use ovlp_core::chunk::ChunkPolicy;
    pub use ovlp_core::pipeline::{build_variants, VariantBundle};
    pub use ovlp_instr::{trace_app, MpiApp, RankCtx};
    pub use ovlp_machine::{simulate, Platform, SimResult};
    pub use ovlp_trace::{Bytes, Instructions, Rank, Tag, Trace};
}
