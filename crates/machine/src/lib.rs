//! Trace-driven machine simulator — the framework's Dimemas.
//!
//! Given a [`Trace`](ovlp_trace::Trace) (per-rank streams of computation
//! bursts and communication records) and a [`Platform`] description,
//! [`simulate`] reconstructs the application's time behaviour with a
//! discrete-event engine implementing the Dimemas communication model
//! (Girona, Labarta & Badia, EuroPVM/MPI 2000):
//!
//! * a **linear model** — a point-to-point transfer takes
//!   `latency + size / bandwidth`;
//! * **non-linear contention effects** — a finite number of *global
//!   buses* bounds how many messages may concurrently travel through the
//!   network, and per-node *input/output ports* bound each processor's
//!   injection/extraction concurrency;
//! * **CPU speed** — computation bursts (virtual instruction counts) are
//!   scaled by a MIPS rate;
//! * **collectives decomposed into point-to-point transfers** (the paper
//!   assumes no collective hardware support), via linear or
//!   binomial-tree algorithms selected by the platform.
//!
//! The simulator is fully deterministic: simultaneous events are ordered
//! by insertion sequence, and blocked transfers acquire resources in
//! first-fit initiation order.
//!
//! Output is a [`SimResult`]: total runtime, a per-rank state
//! [`Timeline`] (compute / wait-receive / wait-send / collective), and
//! the list of physical communication events — everything the
//! visualization layer (`ovlp-viz`, the framework's Paraver) needs.

pub mod chanstat;
pub mod collective;
pub mod critpath;
pub mod event;
mod fx;
pub mod net;
pub mod platform;
pub mod probe;
pub mod replay;
pub mod resources;
pub mod time;
pub mod timeline;

pub use chanstat::{channel_stats, ChannelStat};
pub use collective::expand_collectives;
pub use critpath::{Blame, CritPath, CritPathRecorder, CritSegment};
pub use net::{
    AppliedFault, ContentionModel, FaultAction, FaultEvent, FaultSchedule, LinkSelector, LinkUsage,
    Topology,
};
pub use platform::{CollectiveAlgo, Platform, BANDWIDTH_RANGE_MBS, LATENCY_RANGE_US, MIPS_RANGE};
pub use probe::{
    EventKind, Metrics, NoopSink, ProbeSink, TeeSink, TooManyWindows, WaitEdge, WindowedRecorder,
    MAX_CELLS, MAX_WINDOWS,
};
/// Former name of [`simulate`], from when materialized traces and lazy
/// sources took separate paths; kept for callers outside the workspace.
pub use replay::simulate as simulate_source;
pub use replay::{
    render_exact, replay_scale, simulate, simulate_probed, NetworkStats, Replayer, ScaleReport,
    SimError, SimResult,
};
pub use time::Time;
pub use timeline::{CommRecord, Interval, State, StateTotals, Timeline};

// The parallel sweep engine (ovlp-core::sweep) replays traces from
// worker threads; everything crossing [`simulate`]'s boundary must stay
// thread-safe. These assertions turn an accidental `Rc`/`RefCell`/raw
// pointer regression into a compile error right here.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Platform>();
    assert_send_sync::<SimResult>();
    assert_send_sync::<SimError>();
    // a sweep attempt moves its replayer onto a watchdog thread
    assert_send_sync::<crate::Replayer>();
    assert_send_sync::<Timeline>();
    assert_send_sync::<ovlp_trace::Trace>();
    assert_send_sync::<ovlp_trace::AccessDb>();
};
