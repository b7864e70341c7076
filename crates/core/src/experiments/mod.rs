//! The benefit experiments of §V: speedup (Fig. 6a), bandwidth
//! relaxation (Fig. 6b) and equivalent bandwidth (Fig. 6c).

pub mod bandwidth;
pub mod chunks;
pub mod speedup;

pub use bandwidth::{
    bandwidth_relaxation, equivalent_bandwidth, min_bandwidth_matching, BandwidthRelaxation,
    EquivalentBandwidth,
};
pub use chunks::{chunk_search, default_candidates, ChunkPoint, ChunkSearch};
pub use speedup::{recorded, recorders, run_variants, Recorders, SpeedupResult, Variants};
