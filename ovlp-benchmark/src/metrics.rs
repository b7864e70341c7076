//! Workload and metric definitions. `BENCHMARK.json` at the repository
//! root states the same names, units, directions and bounds;
//! `--check` fails when the two disagree.

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "paper-sweep",
        why: "the paper's own use: ovlp sweep of six traced apps at 64 ranks, 36 points each; \
              tracing, transform, bus and flow replay all work and nothing is cached",
    },
    Workload {
        name: "daemon-mixed",
        why: "ovlp serve under two closed-loop clients: store reads, first-time replays and \
              memory hits; the only load where the store and HTTP/NDJSON layers work",
    },
    Workload {
        name: "weak-scale",
        why: "bus replay_scale of generated ml-allreduce at 1k and 8k ranks; the first-fit \
              pending scan dominates and no tracing or transform runs",
    },
    Workload {
        name: "flow-contention",
        why: "simulate_source on an oversubscribed fat-tree, so max-min resharing dominates; \
              the same trace on the bus is its control",
    },
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    pub what: &'static str,
}

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        what: "one unit, from medians of gauged times: a 216-point pass (each app's sweep), \
               a daemon job (each spec's, averaged), an 8k-rank or flow replay",
    },
    EndToEnd {
        name: "throughput",
        unit: "items/s",
        better: Better::Higher,
        bound: 0.25,
        what: "points/s of that pass, jobs/s of the median gauged daemon round, events/s of \
               that replay",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.25,
        what: "peak resident set of the sweep children, the daemon, or the replaying process \
               less the gauge's table",
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        what: "median of repeated set-ups: gauged warm-up sweep, daemon spawn to first \
               result, gauged source construction plus warm-up replay",
    },
];

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The end-to-end metric this layer metric should move.
    pub moves: &'static str,
    /// Workloads where the layer does work (elsewhere the value is 0).
    pub on: &'static [&'static str],
    pub what: &'static str,
}

const ALL: &[&str] = &[
    "paper-sweep",
    "daemon-mixed",
    "weak-scale",
    "flow-contention",
];
const DAEMON: &[&str] = &["daemon-mixed"];
const SCALE: &[&str] = &["weak-scale"];
const FLOW: &[&str] = &["paper-sweep", "flow-contention"];
const SWEEPS: &[&str] = &["paper-sweep", "daemon-mixed"];
const EXPAND: &[&str] = &["paper-sweep", "daemon-mixed", "flow-contention"];

pub const LAYERS: &[Layer] = &[
    Layer {
        name: "supply_s",
        unit: "s",
        better: Better::Lower,
        moves: "wall_s",
        on: ALL,
        what: "trace supply per unit: instrumented tracing (AppEntry::trace_run) or draining the generator's rank streams",
    },
    Layer {
        name: "replay_s",
        unit: "s",
        better: Better::Lower,
        moves: "wall_s",
        on: ALL,
        what: "machine replay per unit (simulate, replay_scale, simulate_source), supply and expansion excluded",
    },
    Layer {
        name: "ns_per_event",
        unit: "ns",
        better: Better::Lower,
        moves: "throughput",
        on: ALL,
        what: "replay time per simulated event",
    },
    Layer {
        name: "records",
        unit: "count",
        better: Better::Lower,
        moves: "wall_s",
        on: ALL,
        what: "trace records supplied per unit",
    },
    Layer {
        name: "events",
        unit: "count",
        better: Better::Lower,
        moves: "throughput",
        on: ALL,
        what: "discrete events replayed per unit",
    },
    Layer {
        name: "queue_peak",
        unit: "count",
        better: Better::Lower,
        moves: "peak_rss_mb",
        on: ALL,
        what: "largest event-queue high-water mark of any replay",
    },
    Layer {
        name: "share_supply",
        unit: "ratio",
        better: Better::Lower,
        moves: "wall_s",
        on: ALL,
        what: "trace supply's share of the traced unit's wall time",
    },
    Layer {
        name: "share_fingerprint",
        unit: "ratio",
        better: Better::Lower,
        moves: "wall_s",
        on: SWEEPS,
        what: "trace fingerprinting (SweepApp::new)",
    },
    Layer {
        name: "share_transform",
        unit: "ratio",
        better: Better::Lower,
        moves: "wall_s",
        on: SWEEPS,
        what: "overlap transform (build_variants)",
    },
    Layer {
        name: "share_expand",
        unit: "ratio",
        better: Better::Lower,
        moves: "throughput",
        on: EXPAND,
        what: "collective expansion (expand_collectives)",
    },
    Layer {
        name: "share_replay",
        unit: "ratio",
        better: Better::Lower,
        moves: "throughput",
        on: ALL,
        what: "event dispatch and resharing",
    },
    Layer {
        name: "share_store",
        unit: "ratio",
        better: Better::Lower,
        moves: "wall_s",
        on: DAEMON,
        what: "DiskStore reads and writes",
    },
    Layer {
        name: "share_serve",
        unit: "ratio",
        better: Better::Lower,
        moves: "wall_s",
        on: DAEMON,
        what: "HTTP, queueing and streaming: job wall left after the simulator's work",
    },
    Layer {
        name: "reshares",
        unit: "count",
        better: Better::Lower,
        moves: "throughput",
        on: FLOW,
        what: "max-min reshare passes per unit",
    },
    Layer {
        name: "stale_ratio",
        unit: "ratio",
        better: Better::Lower,
        moves: "throughput",
        on: FLOW,
        what: "stale FlowDone events over all events: wasted dispatch",
    },
    Layer {
        name: "flow_bus_ratio",
        unit: "ratio",
        better: Better::Lower,
        moves: "throughput",
        on: FLOW,
        what: "mean flow-level replay time over mean bus replay time",
    },
    Layer {
        name: "scaling_eff",
        unit: "ratio",
        better: Better::Higher,
        moves: "throughput",
        on: SCALE,
        what: "events/s at 8k ranks over events/s at 1k ranks",
    },
    Layer {
        name: "records_peak",
        unit: "count",
        better: Better::Lower,
        moves: "peak_rss_mb",
        on: SCALE,
        what: "records resident in the streamed supply (ScaleReport)",
    },
    Layer {
        name: "msg_slots",
        unit: "count",
        better: Better::Lower,
        moves: "peak_rss_mb",
        on: SCALE,
        what: "live message slots high-water mark (ScaleReport)",
    },
    Layer {
        name: "store_hit_ratio",
        unit: "ratio",
        better: Better::Higher,
        moves: "throughput",
        on: DAEMON,
        what: "cache hits over lookups during the load (/v1/store/stats delta)",
    },
    Layer {
        name: "coalesced",
        unit: "count",
        better: Better::Lower,
        moves: "throughput",
        on: DAEMON,
        what: "points per job that joined another job's in-flight computation",
    },
    Layer {
        name: "disk_bytes_read",
        unit: "B",
        better: Better::Lower,
        moves: "throughput",
        on: DAEMON,
        what: "store bytes read per job",
    },
    Layer {
        name: "disk_bytes_written",
        unit: "B",
        better: Better::Lower,
        moves: "throughput",
        on: DAEMON,
        what: "store bytes written per job",
    },
    Layer {
        name: "tail_ratio",
        unit: "ratio",
        better: Better::Lower,
        moves: "wall_s",
        on: DAEMON,
        what: "job latency at the highest percentile with ten jobs beyond it, over the median",
    },
    Layer {
        name: "trace_coverage",
        unit: "ratio",
        better: Better::Higher,
        moves: "wall_s",
        on: ALL,
        what: "top-level span time over the untraced wall time of the same units (>= 0.9)",
    },
    Layer {
        name: "trace_overhead_pct",
        unit: "%",
        better: Better::Lower,
        moves: "wall_s",
        on: ALL,
        what: "span recording cost as a share of the traced wall time",
    },
];

/// Per-layer metrics whose unit is a time: these are measured on every
/// workload and never read 0.
pub fn is_time(unit: &str) -> bool {
    matches!(unit, "s" | "ms" | "us" | "ns")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_cross_referenced() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(LAYERS.iter().map(|m| m.name));
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "a metric name is used twice");
        for l in LAYERS {
            assert!(END_TO_END.iter().any(|m| m.name == l.moves), "{}", l.name);
            assert!(!l.on.is_empty());
            for w in l.on {
                assert!(WORKLOADS.iter().any(|x| x.name == *w), "{}: {w}", l.name);
            }
            if is_time(l.unit) {
                assert_eq!(
                    l.on.len(),
                    WORKLOADS.len(),
                    "{} must be measured everywhere",
                    l.name
                );
            }
        }
        assert!(END_TO_END.iter().any(|m| m.name == "setup_s"));
    }
}
