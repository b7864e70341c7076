//! Paraver trace export.
//!
//! Paraver traces are line-oriented text: a `.prv` file with a header,
//! state records (`1:...`) and communication records (`3:...`), plus a
//! `.pcf` semantic file (labels and colors) and a `.row` file (object
//! names). This module emits all three from a simulated execution, so
//! the framework's timelines can be opened in real wxParaver, mirroring
//! the role Paraver plays in the paper's toolchain.
//!
//! Record syntax (Paraver trace format reference):
//!
//! ```text
//! 1:cpu:appl:task:thread:begin:end:state
//! 2:cpu:appl:task:thread:time:type:value[:type:value...]
//! 3:cpu_s:ptask_s:task_s:thread_s:logical_send:physical_send:
//!   cpu_r:ptask_r:task_r:thread_r:logical_recv:physical_recv:size:tag
//! ```
//!
//! Times are emitted in nanoseconds. When windowed
//! [`Metrics`](ovlp_machine::Metrics) are supplied
//! ([`export_with_metrics`]), counter series are appended as event
//! records sampled at each window start, so wxParaver plots link
//! utilization, in-flight transfers, queue depth, reshares, and
//! injected bytes under the state timeline.

use ovlp_machine::{Metrics, SimResult, State, Time};
use std::fmt::Write as _;

/// Counter event types used by the metrics export (see the `.pcf`).
pub const EV_MAX_LINK_UTIL: u32 = 70000001;
pub const EV_IN_FLIGHT: u32 = 70000002;
pub const EV_QUEUE_DEPTH: u32 = 70000003;
pub const EV_RESHARES: u32 = 70000004;
pub const EV_INJECTED_BYTES: u32 = 70000005;

/// The three Paraver files for one simulated execution.
#[derive(Debug, Clone, PartialEq)]
pub struct ParaverExport {
    pub prv: String,
    pub pcf: String,
    pub row: String,
}

fn ns(t: Time) -> u64 {
    (t.as_secs() * 1e9).round() as u64
}

/// Map internal states onto Paraver-like state codes (see the `.pcf`).
fn state_code(s: State) -> u32 {
    match s {
        State::Done => 0,
        State::Compute => 1,
        State::WaitRecv => 3,
        State::WaitSend => 4,
        State::Collective => 9,
    }
}

/// Export a simulated execution.
///
/// `name` is used in the header comment only.
pub fn export(name: &str, sim: &SimResult) -> ParaverExport {
    export_with_metrics(name, sim, None)
}

/// Export a simulated execution, appending counter event records for
/// each windowed metric series when `metrics` is given. Without
/// metrics the output is byte-identical to [`export`].
pub fn export_with_metrics(
    name: &str,
    sim: &SimResult,
    metrics: Option<&Metrics>,
) -> ParaverExport {
    let nranks = sim.timelines.len();
    let ftime = ns(sim.runtime);
    let mut prv = String::new();
    // header: date is fixed (traces are deterministic artifacts)
    let _ = write!(
        prv,
        "#Paraver (01/01/2026 at 00:00):{ftime}_ns:1({nranks}):1:{nranks}("
    );
    for i in 0..nranks {
        if i > 0 {
            prv.push(',');
        }
        let _ = write!(prv, "1:{}", i + 1);
    }
    prv.push_str(")\n");
    let _ = writeln!(prv, "c:{name}");

    // state records
    for (r, tl) in sim.timelines.iter().enumerate() {
        let (cpu, task) = (r + 1, r + 1);
        for iv in &tl.intervals {
            let _ = writeln!(
                prv,
                "1:{cpu}:1:{task}:1:{}:{}:{}",
                ns(iv.start),
                ns(iv.end),
                state_code(iv.state)
            );
        }
        // trailing idle until the global end
        let end = tl.end();
        if end < sim.runtime {
            let _ = writeln!(prv, "1:{cpu}:1:{task}:1:{}:{}:0", ns(end), ns(sim.runtime));
        }
    }

    // counter event records: every metric series sampled at each
    // window start (a Paraver counter holds its value until the next
    // event record)
    if let Some(m) = metrics {
        let max_util = m.max_link_utilization();
        for w in 0..m.windows {
            let t = ns(Time::secs(w as f64 * m.window_s));
            let mut line = format!("2:1:1:1:1:{t}");
            if !max_util.is_empty() {
                let _ = write!(
                    line,
                    ":{EV_MAX_LINK_UTIL}:{}",
                    (max_util[w] * 1000.0).round() as u64
                );
            }
            let _ = write!(line, ":{EV_IN_FLIGHT}:{}", m.net.in_flight[w]);
            let _ = write!(line, ":{EV_QUEUE_DEPTH}:{}", m.net.queue_depth[w]);
            let _ = write!(line, ":{EV_RESHARES}:{}", m.engine.reshares_per_window[w]);
            let _ = writeln!(prv, "{line}");
            for (r, series) in m.ranks.iter().enumerate() {
                let (cpu, task) = (r + 1, r + 1);
                let _ = writeln!(
                    prv,
                    "2:{cpu}:1:{task}:1:{t}:{EV_INJECTED_BYTES}:{}",
                    series.injected_bytes[w]
                );
            }
        }
    }

    // communication records
    for c in &sim.comms {
        let (cs, ts) = (c.src.idx() + 1, c.src.idx() + 1);
        let (cr, tr) = (c.dst.idx() + 1, c.dst.idx() + 1);
        let _ = writeln!(
            prv,
            "3:{cs}:1:{ts}:1:{}:{}:{cr}:1:{tr}:1:{}:{}:{}:{}",
            ns(c.t_send),
            ns(c.t_start),
            ns(c.t_consume),
            ns(c.t_arrive),
            c.bytes.get(),
            c.tag.0
        );
    }

    let mut pcf = "\
DEFAULT_OPTIONS

LEVEL               THREAD
UNITS               NANOSEC

STATES
0    Idle
1    Running
3    Waiting a message
4    Blocked sending
9    Group Communication

STATES_COLOR
0    {117,195,255}
1    {0,0,255}
3    {255,0,0}
4    {255,160,0}
9    {255,130,171}
"
    .to_string();
    if metrics.is_some() {
        pcf.push_str(&format!(
            "\nEVENT_TYPE\n\
             7  {EV_MAX_LINK_UTIL}  Max link utilization (per-mille of capacity)\n\
             7  {EV_IN_FLIGHT}  In-flight transfers (window peak)\n\
             7  {EV_QUEUE_DEPTH}  Event queue depth (window peak)\n\
             7  {EV_RESHARES}  Max-min reshares per window\n\
             7  {EV_INJECTED_BYTES}  Injected bytes per window\n"
        ));
    }

    let mut row = String::new();
    let _ = writeln!(row, "LEVEL CPU SIZE {nranks}");
    for r in 0..nranks {
        let _ = writeln!(row, "{}.{}", r + 1, 1);
    }
    let _ = writeln!(row, "\nLEVEL THREAD SIZE {nranks}");
    for r in 0..nranks {
        let _ = writeln!(row, "THREAD 1.{}.1 (rank {})", r + 1, r);
    }

    ParaverExport { prv, pcf, row }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ovlp_machine::{simulate, simulate_probed, Platform, Topology, WindowedRecorder};
    use ovlp_trace::record::{Record, SendMode};
    use ovlp_trace::{Bytes, Instructions, Rank, Tag, Trace, TransferId};

    fn trace() -> Trace {
        let mut t = Trace::new(2);
        t.rank_mut(Rank(0)).push(Record::Compute {
            instr: Instructions(1_000_000),
        });
        t.rank_mut(Rank(0)).push(Record::Send {
            dst: Rank(1),
            tag: Tag::user(7),
            bytes: Bytes(1024),
            mode: SendMode::Eager,
            transfer: TransferId::new(Rank(0), 0),
        });
        t.rank_mut(Rank(1)).push(Record::Recv {
            src: Rank(0),
            tag: Tag::user(7),
            bytes: Bytes(1024),
            transfer: TransferId::new(Rank(1), 0),
        });
        t
    }

    fn sim() -> SimResult {
        simulate(&trace(), &Platform::default()).unwrap()
    }

    #[test]
    fn header_and_records_present() {
        let e = export("demo", &sim());
        let first = e.prv.lines().next().unwrap();
        assert!(first.starts_with("#Paraver"), "{first}");
        assert!(first.contains("_ns:1(2):1:2("));
        assert!(e.prv.lines().any(|l| l.starts_with("1:")), "state records");
        assert!(e.prv.lines().any(|l| l.starts_with("3:")), "comm records");
    }

    #[test]
    fn comm_record_carries_size_and_tag() {
        let e = export("demo", &sim());
        let comm = e.prv.lines().find(|l| l.starts_with("3:")).unwrap();
        let fields: Vec<&str> = comm.split(':').collect();
        assert_eq!(fields.len(), 15);
        assert_eq!(fields[13], "1024");
        assert_eq!(fields[14], "7");
    }

    #[test]
    fn state_records_are_well_formed() {
        let e = export("demo", &sim());
        for l in e.prv.lines().filter(|l| l.starts_with("1:")) {
            let f: Vec<&str> = l.split(':').collect();
            assert_eq!(f.len(), 8, "{l}");
            let begin: u64 = f[5].parse().unwrap();
            let end: u64 = f[6].parse().unwrap();
            assert!(end >= begin);
        }
    }

    #[test]
    fn pcf_and_row_emitted() {
        let e = export("demo", &sim());
        assert!(e.pcf.contains("STATES_COLOR"));
        assert!(!e.pcf.contains("EVENT_TYPE"), "no counters without metrics");
        assert!(e.row.contains("LEVEL THREAD SIZE 2"));
        assert!(e.row.contains("rank 1"));
    }

    #[test]
    fn metrics_add_counter_records_and_event_types() {
        let t = trace();
        let p = Platform::default().with_topology(Topology::Crossbar);
        let mut rec = WindowedRecorder::new(Time::micros(200.0));
        let sim = simulate_probed(&t, &p, &mut rec).unwrap();
        let m = rec.into_metrics().unwrap();
        let e = export_with_metrics("demo", &sim, Some(&m));
        let counters: Vec<&str> = e.prv.lines().filter(|l| l.starts_with("2:")).collect();
        assert_eq!(counters.len(), m.windows * (1 + m.ranks.len()));
        // global line carries link-utilization + in-flight + queue +
        // reshare counters
        let global = counters
            .iter()
            .find(|l| l.starts_with("2:1:1:1:1:"))
            .unwrap();
        for ty in [EV_MAX_LINK_UTIL, EV_IN_FLIGHT, EV_QUEUE_DEPTH, EV_RESHARES] {
            assert!(global.contains(&format!(":{ty}:")), "{global}");
        }
        assert!(
            counters
                .iter()
                .any(|l| l.contains(&format!(":{EV_INJECTED_BYTES}:"))),
            "per-rank injected-bytes series"
        );
        for ty in [
            EV_MAX_LINK_UTIL,
            EV_IN_FLIGHT,
            EV_QUEUE_DEPTH,
            EV_RESHARES,
            EV_INJECTED_BYTES,
        ] {
            assert!(e.pcf.contains(&ty.to_string()), "pcf names type {ty}");
        }
    }

    #[test]
    fn export_without_metrics_is_unchanged_by_the_probe_run() {
        let t = trace();
        let p = Platform::default();
        let plain = simulate(&t, &p).unwrap();
        let mut rec = WindowedRecorder::new(Time::micros(200.0));
        let probed = simulate_probed(&t, &p, &mut rec).unwrap();
        assert_eq!(
            export("demo", &plain),
            export_with_metrics("demo", &probed, None)
        );
    }
}
