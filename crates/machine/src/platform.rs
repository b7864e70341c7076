//! Configurable parallel platform description.
//!
//! These are exactly the knobs the paper tunes in Dimemas: network
//! bandwidth, latency, the number of global buses (Table I), per-node
//! input/output ports, and the CPU speed used to scale instruction
//! counts into time.

use crate::net::{ContentionModel, FaultAction, FaultSchedule, Topology};
use crate::time::Time;
use ovlp_trace::{Bytes, Instructions};

/// Algorithm used to decompose collectives into point-to-point
/// transfers (the paper assumes no hardware collective support).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CollectiveAlgo {
    /// Binomial trees for bcast/reduce (log₂P stages); allreduce as
    /// reduce-to-0 plus bcast; pairwise-ordered alltoall.
    #[default]
    Binomial,
    /// Star topology: the root sends/receives P−1 individual messages.
    Linear,
}

impl CollectiveAlgo {
    pub fn name(self) -> &'static str {
        match self {
            CollectiveAlgo::Binomial => "binomial",
            CollectiveAlgo::Linear => "linear",
        }
    }
}

/// Bandwidths a request may ask for, MB/s. The floor (1 kB/s) is the
/// floor of the Fig. 6(b) relaxation search; the ceiling (1 PB/s) is
/// 4·10⁵ times the fastest network any sweep in the docs or tests uses
/// (2500 MB/s). The engine itself also takes `f64::INFINITY` (the
/// equivalent-bandwidth divergence probe); a request never does.
pub const BANDWIDTH_RANGE_MBS: std::ops::RangeInclusive<f64> = 1e-3..=1e9;
/// Per-message latencies a request may ask for, µs: from the ideal
/// zero up to one second, beyond any wide-area round trip.
pub const LATENCY_RANGE_US: std::ops::RangeInclusive<f64> = 0.0..=1e6;
/// CPU speeds a request may ask for, MIPS: a millionth to a million
/// times the presets' MareNostrum-class cores (hundreds to thousands
/// of MIPS).
pub const MIPS_RANGE: std::ops::RangeInclusive<f64> = 1e-3..=1e9;

/// The simulated parallel platform.
///
/// ```
/// use ovlp_machine::Platform;
/// use ovlp_trace::Bytes;
///
/// // the paper's test bed: 250 MB/s Myrinet, 8 us latency, Table I buses
/// let p = Platform::marenostrum(12);
/// // the Dimemas linear model: latency + size/bandwidth
/// let t = p.transfer_time(Bytes(1_000_000));
/// assert!((t.as_secs() - (8e-6 + 0.004)).abs() < 1e-12);
/// // sweepable knobs for the bandwidth experiments
/// let slow = p.with_bandwidth(11.75);
/// assert!(slow.transfer_time(Bytes(1_000_000)) > t);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Platform {
    /// CPU speed in millions of (virtual) instructions per second.
    /// Computation bursts of `n` instructions take `n / (mips·10⁶)` s.
    pub mips: f64,
    /// Unidirectional link bandwidth in MB/s (10⁶ bytes per second,
    /// matching the paper's "250 MB/s" Myrinet figure).
    /// `f64::INFINITY` is allowed and models an infinitely fast network
    /// where only latency remains (used by the equivalent-bandwidth
    /// experiment's divergence probe).
    pub bandwidth_mbs: f64,
    /// Per-message startup latency in microseconds.
    pub latency_us: f64,
    /// Number of global buses: how many messages may concurrently
    /// travel through the network. `0` means unlimited.
    pub buses: u32,
    /// Concurrent incoming transfers each node sustains.
    pub input_ports: u32,
    /// Concurrent outgoing transfers each node sustains.
    pub output_ports: u32,
    /// Collective decomposition algorithm.
    pub collective: CollectiveAlgo,
    /// Ranks per (multi-core) node. Messages between ranks on the same
    /// node are memory copies: they use the intra-node model below and
    /// consume no network resources (no bus, no ports) — the Dimemas
    /// intra-node model. `1` (the default) makes every rank its own
    /// node.
    pub ranks_per_node: u32,
    /// Intra-node (shared-memory) bandwidth, MB/s.
    pub intra_bandwidth_mbs: f64,
    /// Intra-node latency, microseconds.
    pub intra_latency_us: f64,
    /// Messages strictly larger than this switch to rendezvous
    /// semantics regardless of their record's send mode (the MPI eager
    /// threshold). `None` honours the trace's modes unconditionally.
    pub eager_threshold_bytes: Option<u64>,
    /// Per-rank relative CPU speed (Dimemas' per-task ratio). A rank's
    /// bursts take `instr / (mips·ratio·10⁶)` seconds; ranks beyond the
    /// vector's length get ratio 1.0. Empty = homogeneous machine.
    pub cpu_ratios: Vec<f64>,
    /// Nodes per machine for the Dimemas multi-machine (Grid/WAN)
    /// hierarchy. `0` disables the level (everything is one machine).
    /// Transfers between ranks on different machines use the WAN model
    /// below; they still occupy the endpoints' ports but not the
    /// machine-local buses.
    pub nodes_per_machine: u32,
    /// Inter-machine bandwidth, MB/s.
    pub wan_bandwidth_mbs: f64,
    /// Inter-machine latency, microseconds.
    pub wan_latency_us: f64,
    /// Concurrent inter-machine transfers network-wide (0 = unlimited).
    pub wan_links: u32,
    /// How intra-machine network contention is modelled:
    /// [`ContentionModel::Bus`] (the default) is the Dimemas buses+ports
    /// counter; [`ContentionModel::Flow`] routes each transfer over an
    /// explicit topology with max-min fair link sharing. In flow mode
    /// `buses` is ignored (ports still apply) and `bandwidth_mbs` is the
    /// endpoint link capacity.
    pub contention: ContentionModel,
    /// Deterministic link-fault schedule applied during the replay
    /// (kill/degrade/restore events, see [`crate::net::fault`]). Only
    /// meaningful in flow mode; empty (the default) injects nothing.
    pub faults: FaultSchedule,
}

impl Default for Platform {
    fn default() -> Platform {
        Platform {
            mips: 2300.0,
            bandwidth_mbs: 250.0,
            latency_us: 8.0,
            buses: 0,
            input_ports: 1,
            output_ports: 1,
            collective: CollectiveAlgo::Binomial,
            ranks_per_node: 1,
            intra_bandwidth_mbs: 2000.0,
            intra_latency_us: 0.5,
            eager_threshold_bytes: None,
            cpu_ratios: Vec::new(),
            nodes_per_machine: 0,
            wan_bandwidth_mbs: 10.0,
            wan_latency_us: 1000.0,
            wan_links: 0,
            contention: ContentionModel::Bus,
            faults: FaultSchedule::default(),
        }
    }
}

impl Platform {
    /// The paper's test bed: Marenostrum nodes (PowerPC 970 @ 2.3 GHz,
    /// modelled as 2300 MIPS) on Myrinet at 250 MB/s unidirectional
    /// bandwidth, with the per-application bus count of Table I.
    pub fn marenostrum(buses: u32) -> Platform {
        Platform {
            buses,
            ..Platform::default()
        }
    }

    /// Same platform with a different bandwidth — the axis swept by the
    /// bandwidth-relaxation and equivalent-bandwidth experiments.
    pub fn with_bandwidth(&self, bandwidth_mbs: f64) -> Platform {
        assert!(
            bandwidth_mbs > 0.0,
            "bandwidth must be positive (can be infinite)"
        );
        Platform {
            bandwidth_mbs,
            ..self.clone()
        }
    }

    /// Same platform with a different bus count.
    pub fn with_buses(&self, buses: u32) -> Platform {
        Platform {
            buses,
            ..self.clone()
        }
    }

    /// Same platform with a different contention model.
    pub fn with_contention(&self, contention: ContentionModel) -> Platform {
        Platform {
            contention,
            ..self.clone()
        }
    }

    /// Same platform routed over an explicit topology (flow-level
    /// contention instead of the bus counter).
    pub fn with_topology(&self, topology: Topology) -> Platform {
        self.with_contention(ContentionModel::Flow(topology))
    }

    /// Same platform with a link-fault schedule (flow mode only; the
    /// bus model has no links to fault — `check` rejects that combo).
    pub fn with_faults(&self, faults: FaultSchedule) -> Platform {
        Platform {
            faults,
            ..self.clone()
        }
    }

    /// Same platform with multi-core nodes: `ranks_per_node` ranks
    /// share a node, exchanging intra-node messages at
    /// `intra_bandwidth_mbs` / `intra_latency_us` without touching the
    /// network.
    pub fn with_nodes(
        &self,
        ranks_per_node: u32,
        intra_bandwidth_mbs: f64,
        intra_latency_us: f64,
    ) -> Platform {
        assert!(ranks_per_node >= 1);
        Platform {
            ranks_per_node,
            intra_bandwidth_mbs,
            intra_latency_us,
            ..self.clone()
        }
    }

    /// The node hosting `rank`.
    pub fn node_of(&self, rank: usize) -> usize {
        rank / self.ranks_per_node.max(1) as usize
    }

    /// Nodes that `nranks` ranks occupy.
    pub fn nodes(&self, nranks: usize) -> usize {
        nranks.div_ceil(self.ranks_per_node.max(1) as usize)
    }

    /// The machine hosting `rank` (0 when the machine level is
    /// disabled).
    pub fn machine_of(&self, rank: usize) -> usize {
        if self.nodes_per_machine == 0 {
            0
        } else {
            self.node_of(rank) / self.nodes_per_machine as usize
        }
    }

    /// Same platform split into machines of `nodes_per_machine` nodes
    /// connected by a WAN of the given bandwidth/latency.
    pub fn with_machines(
        &self,
        nodes_per_machine: u32,
        wan_bandwidth_mbs: f64,
        wan_latency_us: f64,
        wan_links: u32,
    ) -> Platform {
        assert!(nodes_per_machine >= 1);
        Platform {
            nodes_per_machine,
            wan_bandwidth_mbs,
            wan_latency_us,
            wan_links,
            ..self.clone()
        }
    }

    /// Uncontended duration of an inter-machine transfer.
    pub fn wan_transfer_time(&self, bytes: Bytes) -> Time {
        let wire = if self.wan_bandwidth_mbs.is_infinite() {
            0.0
        } else {
            bytes.get() as f64 / (self.wan_bandwidth_mbs * 1e6)
        };
        Time::micros(self.wan_latency_us) + Time::secs(wire)
    }

    /// Relative CPU speed of `rank`.
    pub fn cpu_ratio(&self, rank: usize) -> f64 {
        self.cpu_ratios.get(rank).copied().unwrap_or(1.0)
    }

    /// Duration of a computation burst on this platform (homogeneous
    /// part; see [`Platform::compute_time_for`] for per-rank ratios).
    pub fn compute_time(&self, instr: Instructions) -> Time {
        Time::secs(instr.get() as f64 / (self.mips * 1e6))
    }

    /// Duration of a computation burst on `rank`, honouring its CPU
    /// ratio.
    pub fn compute_time_for(&self, rank: usize, instr: Instructions) -> Time {
        Time::secs(instr.get() as f64 / (self.mips * self.cpu_ratio(rank) * 1e6))
    }

    /// Effective send mode of a message of `bytes` whose trace record
    /// requested `requested` (the eager threshold may force
    /// rendezvous).
    pub fn effective_mode(
        &self,
        requested: ovlp_trace::record::SendMode,
        bytes: Bytes,
    ) -> ovlp_trace::record::SendMode {
        use ovlp_trace::record::SendMode;
        match self.eager_threshold_bytes {
            Some(th) if bytes.get() > th => SendMode::Rendezvous,
            Some(_) => SendMode::Eager,
            None => requested,
        }
    }

    /// Uncontended duration of an intra-node transfer.
    pub fn intra_transfer_time(&self, bytes: Bytes) -> Time {
        let wire = if self.intra_bandwidth_mbs.is_infinite() {
            0.0
        } else {
            bytes.get() as f64 / (self.intra_bandwidth_mbs * 1e6)
        };
        Time::micros(self.intra_latency_us) + Time::secs(wire)
    }

    /// Message startup latency.
    pub fn latency(&self) -> Time {
        Time::micros(self.latency_us)
    }

    /// Pure wire occupancy of a message (without latency): `size / BW`.
    pub fn wire_time(&self, bytes: Bytes) -> Time {
        if self.bandwidth_mbs.is_infinite() {
            Time::ZERO
        } else {
            Time::secs(bytes.get() as f64 / (self.bandwidth_mbs * 1e6))
        }
    }

    /// Full uncontended transfer duration: `latency + size / BW`
    /// (the Dimemas linear model).
    pub fn transfer_time(&self, bytes: Bytes) -> Time {
        self.latency() + self.wire_time(bytes)
    }

    /// Refuse a requested bandwidth, latency or CPU speed that is not
    /// finite or lies outside [`BANDWIDTH_RANGE_MBS`],
    /// [`LATENCY_RANGE_US`] or [`MIPS_RANGE`], and a fault schedule
    /// whose smallest degrade factor takes the bandwidth below the
    /// range's floor, with the reason. Input
    /// layers (CLI arguments, sweep job specs) call this; [`check`]
    /// stays the engine's looser consistency check.
    ///
    /// [`check`]: Platform::check
    pub fn check_ranges(&self) -> Result<(), String> {
        for (what, unit, v, range) in [
            ("bandwidth", "MB/s", self.bandwidth_mbs, BANDWIDTH_RANGE_MBS),
            ("latency", "us", self.latency_us, LATENCY_RANGE_US),
            ("mips", "MIPS", self.mips, MIPS_RANGE),
        ] {
            if !range.contains(&v) {
                return Err(format!(
                    "{what} {v:?} {unit} is outside the accepted range {:e}..={:e} {unit}",
                    range.start(),
                    range.end()
                ));
            }
        }
        // a degrade scales the healthy capacity, so the smallest factor
        // gives the slowest a link can get
        let factor = (self.faults.events.iter())
            .filter_map(|ev| match ev.action {
                FaultAction::Degrade { factor } => Some(factor),
                _ => None,
            })
            .fold(1.0, f64::min);
        let (degraded, floor) = (factor * self.bandwidth_mbs, *BANDWIDTH_RANGE_MBS.start());
        if degraded < floor {
            return Err(format!(
                "degrade factor {factor:?} leaves {degraded:e} MB/s of the {} MB/s \
                 bandwidth, below the accepted floor {floor:e} MB/s",
                self.bandwidth_mbs
            ));
        }
        Ok(())
    }

    /// Validate internal consistency; used by constructors in the
    /// experiment layer before long sweeps.
    pub fn check(&self) -> Result<(), String> {
        if self.mips <= 0.0 || self.mips.is_nan() {
            return Err(format!("mips must be positive, got {}", self.mips));
        }
        if self.bandwidth_mbs <= 0.0 || self.bandwidth_mbs.is_nan() {
            return Err(format!(
                "bandwidth must be positive, got {}",
                self.bandwidth_mbs
            ));
        }
        if self.latency_us < 0.0 {
            return Err(format!("latency must be >= 0, got {}", self.latency_us));
        }
        if self.input_ports == 0 || self.output_ports == 0 {
            return Err("ports must be >= 1".to_string());
        }
        if let ContentionModel::Flow(topo) = &self.contention {
            topo.check()?;
        }
        self.faults.validate()?;
        if !self.faults.is_empty() && !matches!(self.contention, ContentionModel::Flow(_)) {
            return Err(
                "fault schedules need explicit links: use a flow-level topology \
                 (crossbar | fat-tree:<radix>[:<oversub>] | torus:<A>x<B>[x<C>]), not the \
                 bus model"
                    .to_string(),
            );
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requested_numbers_are_bounded() {
        let p = Platform::marenostrum(4);
        assert!(p.check_ranges().is_ok());
        for bw in [
            *BANDWIDTH_RANGE_MBS.start(),
            2500.0,
            *BANDWIDTH_RANGE_MBS.end(),
        ] {
            assert!(p.with_bandwidth(bw).check_ranges().is_ok(), "{bw}");
        }
        for bw in [1e-300, 0.0, -1.0, 1e10, f64::INFINITY, f64::NAN] {
            let e = Platform {
                bandwidth_mbs: bw,
                ..p.clone()
            }
            .check_ranges()
            .unwrap_err();
            assert!(e.contains("bandwidth") && e.contains("1e-3..=1e9"), "{e}");
        }
        let slow = Platform {
            latency_us: 2e6,
            ..p.clone()
        };
        assert!(slow.check_ranges().unwrap_err().contains("latency"));
        let fast = Platform {
            mips: f64::INFINITY,
            ..p.clone()
        };
        assert!(fast.check_ranges().unwrap_err().contains("mips"));
        // a degraded link is held to the same floor as the bandwidth
        let flow = p.with_topology(Topology::Crossbar);
        let degrade = |spec: &str| flow.with_faults(spec.parse().unwrap()).check_ranges();
        assert!(degrade("degrade=0.5@1ms:n0->sw;kill@2ms:n1->sw").is_ok());
        assert!(degrade("degrade=1e-5@1ms:n0->sw").is_ok());
        let e = degrade("degrade=0.5@1ms:n0->sw;degrade=1e-300@2ms:n1->sw").unwrap_err();
        assert!(
            e.contains("degrade factor 1e-300") && e.contains("floor 1e-3"),
            "{e}"
        );
        // the engine still replays an infinitely fast network
        assert!(p.with_bandwidth(f64::INFINITY).check().is_ok());
    }

    #[test]
    fn linear_model() {
        let p = Platform::marenostrum(12);
        // 1 MB at 250 MB/s = 4 ms wire time + 8 us latency
        let t = p.transfer_time(Bytes(1_000_000));
        assert!((t.as_secs() - (0.004 + 8e-6)).abs() < 1e-12);
        // zero-size message costs exactly the latency
        assert_eq!(p.transfer_time(Bytes::ZERO), p.latency());
    }

    #[test]
    fn compute_scaling() {
        let p = Platform::marenostrum(12);
        // 2300 Minstr at 2300 MIPS = 1 second
        let t = p.compute_time(Instructions(2_300_000_000));
        assert!((t.as_secs() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn infinite_bandwidth_leaves_latency() {
        let p = Platform::default().with_bandwidth(f64::INFINITY);
        assert_eq!(p.transfer_time(Bytes(1 << 30)), p.latency());
    }

    #[test]
    fn builders_preserve_other_fields() {
        let p = Platform::marenostrum(12);
        let q = p.with_bandwidth(10.0).with_buses(3);
        assert_eq!(q.buses, 3);
        assert!((q.bandwidth_mbs - 10.0).abs() < 1e-12);
        assert!((q.mips - p.mips).abs() < 1e-12);
    }

    #[test]
    fn check_catches_bad_configs() {
        assert!(Platform::default().check().is_ok());
        assert!(Platform {
            mips: 0.0,
            ..Platform::default()
        }
        .check()
        .is_err());
        assert!(Platform {
            input_ports: 0,
            ..Platform::default()
        }
        .check()
        .is_err());
        assert!(Platform {
            latency_us: -1.0,
            ..Platform::default()
        }
        .check()
        .is_err());
    }

    #[test]
    fn faults_require_a_flow_topology() {
        let faults: FaultSchedule = "kill@1ms:n0->sw".parse().unwrap();
        let bus = Platform::default().with_faults(faults.clone());
        let err = bus.check().unwrap_err();
        assert!(err.contains("not the bus model"), "{err}");
        let flow = Platform::default()
            .with_topology(Topology::Crossbar)
            .with_faults(faults);
        assert!(flow.check().is_ok());
        // builders must carry the schedule along
        assert!(!flow.with_bandwidth(100.0).faults.is_empty());
    }
}
