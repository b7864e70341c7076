//! The automatic communication-computation overlap analysis — the
//! paper's primary contribution.
//!
//! Given the two artefacts the instrumentation front end extracts from
//! one run of an unmodified application (the *original* trace and the
//! element-level access logs), this crate:
//!
//! 1. **rewrites** the original trace into the *overlapped* trace
//!    ([`transform()`](transform::transform)) by applying the four §II mechanisms — message
//!    chunking, advancing sends, double buffering and post-postponing
//!    receptions — and into the *overlapped-ideal* trace ([`ideal`])
//!    that assumes uniform production/consumption (the best case of the
//!    paper's Eq. 1);
//! 2. **analyzes** the recorded production/consumption patterns
//!    ([`patterns`]): the Table II statistics and the Figure 5
//!    scatters;
//! 3. **quantifies the benefits** ([`experiments`]): speedup
//!    (Fig. 6a), bandwidth relaxation (Fig. 6b) and equivalent
//!    bandwidth (Fig. 6c), on a configurable platform with the paper's
//!    per-application bus calibration (Table I).

pub mod advisor;
pub mod analytic;
pub mod chunk;
pub mod experiments;
pub mod hazard;
pub mod ideal;
pub mod iterations;
pub mod patterns;
pub mod pipeline;
pub mod presets;
pub mod report;
pub mod sweep;
pub mod transform;

pub use chunk::ChunkPolicy;
pub use hazard::{double_buffer_demand, DoubleBufferDemand};
pub use ideal::ideal_transform;
pub use pipeline::{build_variants, VariantBundle};
pub use sweep::{sweep, SweepCache, SweepConfig, SweepGrid};
pub use transform::{check_intervals, transform};
