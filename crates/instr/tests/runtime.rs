//! End-to-end tests of the instrumented runtime: trace structure,
//! access-log content, data correctness and determinism.

use ovlp_instr::{trace_app, trace_app_with, CostModel, FnApp, RankCtx, ReduceOp, TraceOptions};
use ovlp_trace::record::Record;
use ovlp_trace::{validate, Instructions, Rank, Stamp, TransferId};
use std::time::Duration;

fn free_opts() -> TraceOptions {
    TraceOptions {
        cost: CostModel::free_accesses(),
        ..TraceOptions::default()
    }
}

#[test]
fn ping_trace_structure() {
    let app = FnApp::new("ping", |ctx: &mut RankCtx| {
        let mut buf = ctx.buffer(8);
        if ctx.rank() == Rank(0) {
            ctx.compute(1000);
            for i in 0..8 {
                buf.store(i, i as f64);
            }
            ctx.send(Rank(1), 5, &mut buf);
            ctx.compute(500);
        } else {
            ctx.recv(Rank(0), 5, &mut buf);
            let mut s = 0.0;
            for i in 0..8 {
                s += buf.load(i);
            }
            assert_eq!(s, 28.0);
            ctx.compute(2000);
        }
    });
    let run = trace_app_with(&app, 2, &free_opts()).unwrap();
    assert!(validate(&run.trace).is_empty());

    // rank 0: Compute(1000) Send Compute(500)
    let r0 = &run.trace.ranks[0].records;
    assert_eq!(r0.len(), 3, "{r0:?}");
    assert_eq!(r0[0].compute_len(), Some(Instructions(1000)));
    assert!(matches!(r0[1], Record::Send { .. }));
    assert_eq!(r0[2].compute_len(), Some(Instructions(500)));

    // rank 1: Recv Compute(2000)
    let r1 = &run.trace.ranks[1].records;
    assert_eq!(r1.len(), 2, "{r1:?}");
    assert!(matches!(r1[0], Record::Recv { .. }));
    assert_eq!(r1[1].compute_len(), Some(Instructions(2000)));

    // production log exists for rank 0's transfer and covers all 8 elems
    let p = run
        .access
        .production(TransferId::new(Rank(0), 0))
        .expect("production log");
    assert_eq!(p.elems, 8);
    assert!(p.last_store().iter().all(|o| !o.is_never()));

    // consumption log for rank 1 (flushed at buffer drop)
    let c = run
        .access
        .consumption(TransferId::new(Rank(1), 0))
        .expect("consumption log");
    assert_eq!(c.elems, 8);
    assert!(c.first_load().iter().all(|o| !o.is_never()));
}

#[test]
fn access_costs_show_up_in_bursts() {
    let app = FnApp::new("costed", |ctx: &mut RankCtx| {
        let mut buf = ctx.buffer(10);
        if ctx.rank() == Rank(0) {
            for i in 0..10 {
                buf.store(i, 1.0); // 10 stores at cost 1 each
            }
            ctx.send(Rank(1), 0, &mut buf);
        } else {
            ctx.recv(Rank(0), 0, &mut buf);
        }
    });
    let run = trace_app(&app, 2).unwrap();
    let r0 = &run.trace.ranks[0].records;
    // the stores form a 10-instruction burst before the send
    assert_eq!(r0[0].compute_len(), Some(Instructions(10)));
}

#[test]
fn nonblocking_roundtrip() {
    let app = FnApp::new("nb", |ctx: &mut RankCtx| {
        let mut buf = ctx.buffer(4);
        if ctx.rank() == Rank(0) {
            buf.store(0, 9.0);
            let h = ctx.isend(Rank(1), 1, &mut buf);
            ctx.compute(100);
            ctx.wait_send(h);
        } else {
            let h = ctx.irecv(Rank(0), 1, &buf);
            ctx.compute(5000);
            ctx.wait_recv(h, &mut buf);
            assert_eq!(buf.load(0), 9.0);
        }
    });
    let run = trace_app_with(&app, 2, &free_opts()).unwrap();
    assert!(validate(&run.trace).is_empty());
    let r1 = &run.trace.ranks[1].records;
    // IRecv, Compute(5000), Wait
    assert!(matches!(r1[0], Record::IRecv { .. }));
    assert_eq!(r1[1].compute_len(), Some(Instructions(5000)));
    assert!(matches!(r1[2], Record::Wait { .. }));
}

#[test]
fn collectives_compute_correct_values() {
    let app = FnApp::new("colls", |ctx: &mut RankCtx| {
        let n = ctx.nranks();
        let me = ctx.rank().get() as f64;

        // allreduce sum of rank ids
        let mut a = ctx.buffer(2);
        a.store(0, me);
        a.store(1, 2.0 * me);
        ctx.allreduce(ReduceOp::Sum, &mut a);
        let total: f64 = (0..n as u32).map(f64::from).sum();
        assert_eq!(a.load(0), total);
        assert_eq!(a.load(1), 2.0 * total);

        // bcast from rank 1
        let mut b = ctx.buffer(1);
        if ctx.rank() == Rank(1) {
            b.store(0, 77.0);
        }
        ctx.bcast(Rank(1), &mut b);
        assert_eq!(b.load(0), 77.0);

        // reduce max to rank 0
        let mut c = ctx.buffer(1);
        c.store(0, me);
        ctx.reduce(ReduceOp::Max, Rank(0), &mut c);
        if ctx.rank() == Rank(0) {
            assert_eq!(c.load(0), (n - 1) as f64);
        }

        // allgather
        let mut s = ctx.buffer(1);
        s.store(0, me + 100.0);
        let mut g = ctx.buffer(n);
        ctx.allgather(&mut s, &mut g);
        for i in 0..n {
            assert_eq!(g.load(i), i as f64 + 100.0);
        }

        // alltoall: block j of rank i carries i*10 + j
        let mut snd = ctx.buffer(n);
        for j in 0..n {
            snd.store(j, me * 10.0 + j as f64);
        }
        let mut rcv = ctx.buffer(n);
        ctx.alltoall(&mut snd, &mut rcv);
        for i in 0..n {
            assert_eq!(rcv.load(i), i as f64 * 10.0 + me);
        }

        ctx.barrier();
    });
    let run = trace_app(&app, 4).unwrap();
    assert!(validate(&run.trace).is_empty());
    // every rank has 6 collective records
    for rt in &run.trace.ranks {
        let colls = rt
            .records
            .iter()
            .filter(|r| matches!(r, Record::Collective { .. }))
            .count();
        assert_eq!(colls, 6);
    }
}

#[test]
fn traces_are_deterministic_across_runs() {
    let app = FnApp::new("det", |ctx: &mut RankCtx| {
        let n = ctx.nranks() as u32;
        let me = ctx.rank().get();
        let mut out = ctx.buffer(16);
        let mut inp = ctx.buffer(16);
        for iter in 0..3 {
            for i in 0..16 {
                out.store(i, (me * 1000 + iter * 10 + i as u32) as f64);
            }
            ctx.send(Rank((me + 1) % n), 0, &mut out);
            ctx.recv(Rank((me + n - 1) % n), 0, &mut inp);
            let mut acc = 0.0;
            for i in 0..16 {
                acc += inp.load(i);
            }
            ctx.compute((acc as u64) % 1000 + 100); // data-dependent burst
        }
    });
    let a = trace_app(&app, 4).unwrap();
    let b = trace_app(&app, 4).unwrap();
    assert_eq!(a.trace, b.trace);
    assert_eq!(a.access, b.access);
}

#[test]
fn deadlock_reports_failure() {
    let app = FnApp::new("dead", |ctx: &mut RankCtx| {
        let mut buf = ctx.buffer(1);
        if ctx.rank() == Rank(0) {
            ctx.recv(Rank(1), 0, &mut buf); // never sent
        }
    });
    let opts = TraceOptions {
        timeout: Duration::from_millis(50),
        ..TraceOptions::default()
    };
    let err = trace_app_with(&app, 2, &opts).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("timed out"), "{msg}");
}

#[test]
fn zero_ranks_rejected() {
    let app = FnApp::new("z", |_: &mut RankCtx| {});
    assert!(trace_app(&app, 0).is_err());
}

#[test]
fn consumption_interval_closed_by_next_recv() {
    // two receives into the same buffer: the first consumption interval
    // must be keyed by the first transfer and closed at the second recv
    let app = FnApp::new("two-recvs", |ctx: &mut RankCtx| {
        let mut buf = ctx.buffer(4);
        if ctx.rank() == Rank(0) {
            for round in 0..2 {
                for i in 0..4 {
                    buf.store(i, round as f64);
                }
                ctx.send(Rank(1), 0, &mut buf);
            }
        } else {
            ctx.recv(Rank(0), 0, &mut buf);
            ctx.compute(100);
            let _ = buf.load(2); // consume one element
            ctx.recv(Rank(0), 0, &mut buf);
        }
    });
    let run = trace_app_with(&app, 2, &free_opts()).unwrap();
    let c0 = run
        .access
        .consumption(TransferId::new(Rank(1), 0))
        .expect("first consumption interval");
    assert_eq!(c0.first_load()[2].get(), Some(Instructions(100)));
    assert_eq!(c0.first_load()[0], Stamp::NEVER);
    // second interval flushed at drop, no loads
    let c1 = run
        .access
        .consumption(TransferId::new(Rank(1), 1))
        .expect("second consumption interval");
    assert!(c1.first_load().iter().all(|o| o.is_never()));
}

#[test]
fn production_interval_spans_between_sends() {
    let app = FnApp::new("two-sends", |ctx: &mut RankCtx| {
        let mut buf = ctx.buffer(2);
        if ctx.rank() == Rank(0) {
            buf.store(0, 1.0);
            buf.store(1, 1.0);
            ctx.send(Rank(1), 0, &mut buf);
            ctx.compute(1000);
            buf.store(0, 2.0); // only elem 0 updated in second interval
            ctx.send(Rank(1), 0, &mut buf);
        } else {
            ctx.recv(Rank(0), 0, &mut buf);
            ctx.recv(Rank(0), 0, &mut buf);
            assert_eq!(buf.raw(), &[2.0, 1.0]);
        }
    });
    let run = trace_app_with(&app, 2, &free_opts()).unwrap();
    let p1 = run
        .access
        .production(TransferId::new(Rank(0), 1))
        .expect("second production log");
    assert!(!p1.last_store()[0].is_never());
    assert_eq!(p1.last_store()[1], Stamp::NEVER, "elem 1 not rewritten");
}

#[test]
fn markers_recorded() {
    let app = FnApp::new("marks", |ctx: &mut RankCtx| {
        ctx.iter_begin(0);
        ctx.compute(10);
        ctx.iter_end(0);
        ctx.phase(3);
    });
    let run = trace_app(&app, 1).unwrap();
    let recs = &run.trace.ranks[0].records;
    assert!(matches!(recs[0], Record::Marker { .. }));
    assert_eq!(recs[1].compute_len(), Some(Instructions(10)));
}

#[test]
fn meta_contains_app_name() {
    let app = FnApp::new("meta-check", |ctx: &mut RankCtx| {
        ctx.compute(1);
    });
    let run = trace_app(&app, 2).unwrap();
    assert_eq!(
        run.trace.meta.get("app").map(String::as_str),
        Some("meta-check")
    );
    assert_eq!(run.trace.meta.get("nranks").map(String::as_str), Some("2"));
}

#[test]
fn stress_many_ranks_and_rounds_stay_deterministic() {
    // 32 rank threads, mixed collectives and p2p, run twice: traces
    // must be identical despite arbitrary host scheduling
    let app = FnApp::new("stress", |ctx: &mut RankCtx| {
        let n = ctx.nranks() as u32;
        let me = ctx.rank().get();
        let mut ring_out = ctx.buffer(32);
        let mut ring_in = ctx.buffer(32);
        let mut scalar = ctx.buffer(1);
        let mut acc = me as f64;
        for round in 0..8u32 {
            for i in 0..32 {
                ring_out.store(i, acc + (round * 32 + i as u32) as f64);
            }
            ctx.send(Rank((me + 1) % n), 2, &mut ring_out);
            ctx.recv(Rank((me + n - 1) % n), 2, &mut ring_in);
            acc = ring_in.load((round % 32) as usize);
            scalar.store(0, acc);
            ctx.allreduce(ovlp_instr::ReduceOp::Max, &mut scalar);
            acc = scalar.load(0) * 0.5;
            ctx.compute((acc.abs() as u64) % 5_000 + 100);
            if round % 3 == 0 {
                ctx.barrier();
            }
        }
    });
    let a = trace_app(&app, 32).unwrap();
    let b = trace_app(&app, 32).unwrap();
    assert_eq!(a.trace, b.trace);
    assert_eq!(a.access, b.access);
    assert!(validate(&a.trace).is_empty());
}

#[test]
fn scatter_capture_can_be_disabled() {
    let app = FnApp::new("noscatter", |ctx: &mut RankCtx| {
        let mut buf = ctx.buffer(16);
        if ctx.rank() == Rank(0) {
            for i in 0..16 {
                buf.store(i, 1.0);
            }
            ctx.send(Rank(1), 0, &mut buf);
        } else {
            ctx.recv(Rank(0), 0, &mut buf);
            let _ = buf.load(3);
        }
    });
    let opts = TraceOptions {
        scatter: false,
        ..TraceOptions::default()
    };
    let run = trace_app_with(&app, 2, &opts).unwrap();
    let p = run.access.production(TransferId::new(Rank(0), 0)).unwrap();
    assert!(p.events.is_empty(), "scatter disabled");
    // summaries still captured
    assert!(p.last_store().iter().all(|o| !o.is_never()));
}

#[test]
fn mpi_call_cost_charged_per_call() {
    let app = FnApp::new("callcost", |ctx: &mut RankCtx| {
        let mut buf = ctx.buffer(1);
        if ctx.rank() == Rank(0) {
            ctx.send(Rank(1), 0, &mut buf); // one call
        } else {
            ctx.recv(Rank(0), 0, &mut buf);
        }
    });
    let opts = TraceOptions {
        cost: CostModel {
            load: 0,
            store: 0,
            mpi_call: 250,
        },
        ..TraceOptions::default()
    };
    let run = trace_app_with(&app, 2, &opts).unwrap();
    // the call overhead appears as a 250-instruction burst before the send
    let r0 = &run.trace.ranks[0].records;
    assert_eq!(r0[0].compute_len(), Some(Instructions(250)));
}

#[test]
fn gather_and_scatter_roundtrip() {
    let app = FnApp::new("gs", |ctx: &mut RankCtx| {
        let n = ctx.nranks();
        let me = ctx.rank().get() as f64;
        // gather rank ids to root 1
        let mut part = ctx.buffer(2);
        part.store(0, me);
        part.store(1, me * 10.0);
        let mut all = ctx.buffer(2 * n);
        ctx.gather(Rank(1), &mut part, &mut all);
        if ctx.rank() == Rank(1) {
            for i in 0..n {
                assert_eq!(all.load(2 * i), i as f64);
                assert_eq!(all.load(2 * i + 1), i as f64 * 10.0);
            }
        }
        // scatter doubled values back from root 1
        let mut spread = ctx.buffer(2 * n);
        if ctx.rank() == Rank(1) {
            for i in 0..2 * n {
                spread.store(i, 100.0 + i as f64);
            }
        }
        let mut mine = ctx.buffer(2);
        ctx.scatter(Rank(1), &mut spread, &mut mine);
        assert_eq!(mine.load(0), 100.0 + 2.0 * me);
        assert_eq!(mine.load(1), 101.0 + 2.0 * me);
    });
    let run = trace_app(&app, 4).unwrap();
    assert!(validate(&run.trace).is_empty());
}

#[test]
fn waitall_send_completes_batch() {
    let app = FnApp::new("waitall", |ctx: &mut RankCtx| {
        let mut buf = ctx.buffer(4);
        if ctx.rank() == Rank(0) {
            let handles: Vec<_> = (0..3)
                .map(|k| {
                    buf.store(0, k as f64);
                    ctx.isend(Rank(1), k, &mut buf)
                })
                .collect();
            ctx.compute(1000);
            ctx.waitall_send(handles);
        } else {
            for k in 0..3 {
                ctx.recv(Rank(0), k, &mut buf);
                assert_eq!(buf.load(0), k as f64);
            }
        }
    });
    let run = trace_app(&app, 2).unwrap();
    assert!(validate(&run.trace).is_empty());
    let waits = run.trace.ranks[0]
        .records
        .iter()
        .filter(|r| matches!(r, Record::Wait { .. }))
        .count();
    assert_eq!(waits, 3);
}
