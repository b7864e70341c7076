//! Trace model for the overlap-sim framework.
//!
//! This crate defines the two artefacts the instrumentation front end
//! (crate `ovlp-instr`, the stand-in for the paper's Valgrind tool)
//! produces, and that everything downstream consumes:
//!
//! 1. **Record streams** ([`Trace`], [`RankTrace`], [`Record`]) — a
//!    Dimemas-like per-rank sequence of computation bursts and
//!    communication operations. The replay simulator in `ovlp-machine`
//!    reconstructs time behaviour from these streams; the overlap
//!    transformation in `ovlp-core` rewrites them.
//! 2. **Access logs** ([`access::AccessDb`]) — element-level
//!    production/consumption timestamps for every transferred buffer,
//!    i.e. the last-store and first-load instant of each element inside
//!    its production/consumption interval. This is the information the
//!    paper's Valgrind tool extracts by intercepting every load and
//!    store (§III-C), and is what makes *advancing sends* and
//!    *post-postponing receptions* computable without source access.
//!
//! Times inside traces are virtual **instruction counts**
//! ([`units::Instructions`]); they are converted to wall-clock time only
//! by the machine simulator, using a MIPS rate — exactly the paper's
//! "time-stamps obtained by scaling the number of executed instructions
//! by the average MIPS rate".

pub mod access;
pub mod access_text;
pub mod ids;
pub mod mlgen;
pub mod record;
pub mod source;
pub mod stats;
pub mod synth;
pub mod text;
pub mod trace;
pub mod units;
pub mod validate;

pub use access::{AccessDb, ConsumptionLog, ProductionLog, RankAccessLog, Stamp};
pub use ids::{ChunkId, CollOp, Rank, ReqId, Tag, TransferId};
pub use mlgen::{MlAllreduce, MlConfig};
pub use record::{Marker, Record, SendMode};
pub use source::{RankRecords, RankTiled, TraceSource};
pub use stats::TraceStats;
pub use trace::{RankTrace, Trace};
pub use units::{Bytes, Instructions};
pub use validate::{validate, ValidationError};
