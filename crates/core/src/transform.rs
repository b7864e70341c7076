//! The overlap transformation on measured (real) patterns.
//!
//! Implements the trace-generation methodology of §III-C: from the
//! original trace and the access logs, produce the trace of the
//! *potential overlapped execution*:
//!
//! * every matched blocking `Send`/`Recv` pair is split into chunks
//!   (message chunking);
//! * each chunk's send becomes a non-blocking send injected into the
//!   producing burst at the chunk's **last update** time — "the tracer
//!   emits a send record of every chunk at the moment of the last
//!   update of that chunk" (advancing sends);
//! * at the original receive point, a non-blocking receive is posted
//!   for every chunk — "it emits a non-blocking-receive record for each
//!   chunk of the original message";
//! * each chunk's wait is injected at the chunk's **first use** time in
//!   the consuming burst — "the wait for each incoming chunk is at the
//!   point where that chunk is needed for the first time"
//!   (post-postponing receptions);
//! * chunks may arrive before the consuming iteration begins; the
//!   receiver is assumed double-buffered (eager chunk mode), or not
//!   (rendezvous chunk mode — the ablation).
//!
//! Collectives are not transformed (they cannot be chunked — the Alya
//! case), and records already non-blocking in the original are kept
//! verbatim.

use crate::chunk::ChunkPolicy;
use ovlp_trace::record::Record;
use ovlp_trace::trace::RankTrace;
use ovlp_trace::{AccessDb, Bytes, Instructions, Rank, ReqId, Trace, TransferId};
use std::collections::{HashMap, VecDeque};

/// A joint chunking decision for one matched send/recv pair.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Decision {
    /// Elements in the message (both sides agree; the chunk count and
    /// boundaries derive from this through the policy).
    pub elems: u32,
}

/// Matched pairs and their chunking decisions, keyed by the transfer id
/// of *either* side.
#[derive(Debug, Default)]
pub(crate) struct MatchDb {
    pub decisions: HashMap<TransferId, Decision>,
    /// Send-side ↔ recv-side pairing (both directions).
    pub peers: HashMap<TransferId, TransferId>,
}

/// Pair blocking sends with blocking receives, channel by channel, in
/// first-in-first-out order (MPI's non-overtaking rule), and decide
/// which pairs are transformable.
///
/// A pair is transformable only when *both* sides can be rewritten
/// consistently: blocking records on both ends and — when `access` is
/// supplied (the real-pattern transform) — production and consumption
/// logs present with matching element counts.
pub(crate) fn match_p2p(trace: &Trace, access: Option<&AccessDb>) -> MatchDb {
    type ChannelKey = (u32, u32, u32); // src, dst, tag
    let mut sends: HashMap<ChannelKey, VecDeque<(TransferId, Bytes)>> = HashMap::new();
    let mut recvs: HashMap<ChannelKey, VecDeque<(TransferId, Bytes)>> = HashMap::new();
    for (r, rt) in trace.ranks.iter().enumerate() {
        let me = r as u32;
        for rec in &rt.records {
            match *rec {
                Record::Send {
                    dst,
                    tag,
                    bytes,
                    transfer,
                    ..
                } if tag.is_user() => {
                    sends
                        .entry((me, dst.get(), tag.0))
                        .or_default()
                        .push_back((transfer, bytes));
                }
                Record::Recv {
                    src,
                    tag,
                    bytes,
                    transfer,
                } if tag.is_user() => {
                    recvs
                        .entry((src.get(), me, tag.0))
                        .or_default()
                        .push_back((transfer, bytes));
                }
                _ => {}
            }
        }
    }

    let mut db = MatchDb::default();
    for (key, mut sq) in sends {
        let Some(rq) = recvs.get_mut(&key) else {
            continue;
        };
        while let (Some((s_tid, s_bytes)), Some((r_tid, r_bytes))) =
            (sq.pop_front(), rq.pop_front())
        {
            if s_bytes != r_bytes {
                continue; // inconsistent channel; leave untransformed
            }
            let elems = match access {
                Some(db_acc) => {
                    let Some(p) = db_acc.production(s_tid) else {
                        continue;
                    };
                    let Some(c) = db_acc.consumption(r_tid) else {
                        continue;
                    };
                    if p.elems != c.elems || p.elems == 0 {
                        continue;
                    }
                    p.elems
                }
                None => {
                    // ideal transform: element granularity from size
                    let e = (s_bytes.get() / 8).max(1);
                    if e > u32::MAX as u64 {
                        continue;
                    }
                    e as u32
                }
            };
            let d = Decision { elems };
            db.decisions.insert(s_tid, d);
            db.decisions.insert(r_tid, d);
            db.peers.insert(s_tid, r_tid);
            db.peers.insert(r_tid, s_tid);
        }
    }
    db
}

/// Byte size of chunk `[lo, hi)` of an `elems`-element, `bytes`-byte
/// message, computed so that chunk sizes sum exactly to `bytes`.
pub(crate) fn chunk_bytes(bytes: Bytes, elems: u32, lo: u32, hi: u32) -> Bytes {
    let b = bytes.get();
    let e = elems as u64;
    Bytes(b * hi as u64 / e - b * lo as u64 / e)
}

/// Rebuild a rank stream from `(instruction-count, record)` events:
/// stable-sorts by position (preserving generation order on ties) and
/// re-inserts `Compute` bursts in the gaps, ending at `total`.
pub(crate) fn rebuild(mut events: Vec<(u64, Record)>, total: u64) -> RankTrace {
    events.sort_by_key(|&(t, _)| t); // stable
    let mut rt = RankTrace::new();
    let mut prev = 0u64;
    for (t, rec) in events {
        let t = t.min(total);
        if t > prev {
            rt.push(Record::Compute {
                instr: Instructions(t - prev),
            });
            prev = t;
        }
        rt.push(rec);
    }
    if total > prev {
        rt.push(Record::Compute {
            instr: Instructions(total - prev),
        });
    }
    rt
}

/// Highest request id used in a rank stream (so injected requests are
/// fresh).
fn max_req(rt: &RankTrace) -> u64 {
    rt.records
        .iter()
        .filter_map(|r| match *r {
            Record::ISend { req, .. } | Record::IRecv { req, .. } | Record::Wait { req } => {
                Some(req.0)
            }
            _ => None,
        })
        .max()
        .map(|m| m + 1)
        .unwrap_or(0)
}

/// Check that `access` fits `trace`: every production interval starts
/// at or before its send, and every consumption interval ends at or
/// after its receive, a record's position being the instructions
/// computed before it. A traced run always fits its own trace;
/// [`transform`] assumes it and panics on a log that does not, so a
/// caller handed logs from elsewhere (an `.acc` file) checks first.
/// The error names the first transfer that does not fit.
pub fn check_intervals(trace: &Trace, access: &AccessDb) -> Result<(), String> {
    for rt in &trace.ranks {
        let mut at = 0u64;
        for rec in &rt.records {
            match *rec {
                Record::Compute { instr } => at += instr.get(),
                Record::Send { transfer, .. } => {
                    if let Some(p) = access.production(transfer) {
                        let start = p.interval_start.get();
                        if start > at {
                            return Err(format!(
                                "production {}.{} starts at {start}, after its send at {at}",
                                transfer.rank.get(),
                                transfer.seq
                            ));
                        }
                    }
                }
                Record::Recv { transfer, .. } => {
                    if let Some(c) = access.consumption(transfer) {
                        let end = c.interval_end.get();
                        if end < at {
                            return Err(format!(
                                "consumption {}.{} ends at {end}, before its receive at {at}",
                                transfer.rank.get(),
                                transfer.seq
                            ));
                        }
                    }
                }
                _ => {}
            }
        }
    }
    Ok(())
}

/// Rewrite `trace` into the overlapped trace using the measured
/// production/consumption patterns in `access`, which must pass
/// [`check_intervals`].
pub fn transform(trace: &Trace, access: &AccessDb, policy: &ChunkPolicy) -> Trace {
    let matches = match_p2p(trace, Some(access));
    let mut out = Trace::new(trace.nranks());
    out.meta = trace.meta.clone();
    out.meta
        .insert("variant".to_string(), "overlapped".to_string());
    out.meta
        .insert("chunks".to_string(), policy.chunks.to_string());

    for (r, rt) in trace.ranks.iter().enumerate() {
        let rank = Rank(r as u32);
        let mut next_req = max_req(rt);
        let mut fresh_req = || {
            let q = ReqId(next_req);
            next_req += 1;
            q
        };
        let mut events: Vec<(u64, Record)> = Vec::with_capacity(rt.records.len());
        let mut at = 0u64;
        for rec in &rt.records {
            match *rec {
                Record::Compute { instr } => at += instr.get(),
                Record::Send {
                    dst,
                    tag,
                    bytes,
                    transfer,
                    ..
                } if matches.decisions.contains_key(&transfer) => {
                    let d = matches.decisions[&transfer];
                    let plog = access
                        .production(transfer)
                        .expect("decision implies production log");
                    for (k, (lo, hi)) in policy.boundaries(d.elems).into_iter().enumerate() {
                        let ready = plog
                            .range_ready_at(lo as usize, hi as usize)
                            .get()
                            .clamp(plog.interval_start.get(), at);
                        events.push((
                            ready,
                            Record::ISend {
                                dst,
                                tag: tag.chunk(k as u32),
                                bytes: chunk_bytes(bytes, d.elems, lo, hi),
                                mode: policy.mode,
                                req: fresh_req(),
                                transfer,
                            },
                        ));
                    }
                }
                Record::Recv {
                    src,
                    tag,
                    bytes,
                    transfer,
                } if matches.decisions.contains_key(&transfer) => {
                    let d = matches.decisions[&transfer];
                    let clog = access
                        .consumption(transfer)
                        .expect("decision implies consumption log");
                    let bounds = policy.boundaries(d.elems);
                    let mut reqs = Vec::with_capacity(bounds.len());
                    for (k, (lo, hi)) in bounds.iter().enumerate() {
                        let req = fresh_req();
                        reqs.push(req);
                        events.push((
                            at,
                            Record::IRecv {
                                src,
                                tag: tag.chunk(k as u32),
                                bytes: chunk_bytes(bytes, d.elems, *lo, *hi),
                                req,
                                transfer,
                            },
                        ));
                    }
                    for (k, (lo, hi)) in bounds.iter().enumerate() {
                        let need = clog
                            .range_needed_at(*lo as usize, *hi as usize)
                            .get()
                            .clamp(at, clog.interval_end.get());
                        events.push((need, Record::Wait { req: reqs[k] }));
                    }
                }
                other => events.push((at, other)),
            }
        }
        out.ranks[r] = rebuild(events, at);
        debug_assert_eq!(
            out.ranks[r].total_compute(),
            trace.rank(rank).total_compute(),
            "transformation must preserve per-rank compute"
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ovlp_trace::access::{consumption_log_for_test, production_log_for_test};
    use ovlp_trace::record::SendMode;
    use ovlp_trace::validate::validate;
    use ovlp_trace::Tag;

    /// Hand-built two-rank trace: rank 0 computes 1000 (producing 4
    /// elements along the way) then sends; rank 1 receives then
    /// computes 1000 (consuming along the way).
    fn fixture() -> (Trace, AccessDb) {
        let mut t = Trace::new(2);
        let s_tid = TransferId::new(Rank(0), 0);
        let r_tid = TransferId::new(Rank(1), 0);
        t.rank_mut(Rank(0)).push(Record::Compute {
            instr: Instructions(1000),
        });
        t.rank_mut(Rank(0)).push(Record::Send {
            dst: Rank(1),
            tag: Tag::user(3),
            bytes: Bytes(32),
            mode: SendMode::Eager,
            transfer: s_tid,
        });
        t.rank_mut(Rank(1)).push(Record::Recv {
            src: Rank(0),
            tag: Tag::user(3),
            bytes: Bytes(32),
            transfer: r_tid,
        });
        t.rank_mut(Rank(1)).push(Record::Compute {
            instr: Instructions(1000),
        });
        let mut db = AccessDb::new(2);
        // elements produced at 200, 400, 600, 800
        db.insert_production(production_log_for_test(
            0,
            0,
            0,
            1000,
            &[Some(200), Some(400), Some(600), Some(800)],
        ));
        // elements consumed at 100, 300, 500, 700 (rank 1 clock: recv at 0)
        db.insert_consumption(consumption_log_for_test(
            1,
            0,
            0,
            1000,
            &[Some(100), Some(300), Some(500), Some(700)],
        ));
        (t, db)
    }

    #[test]
    fn chunked_sends_injected_at_last_store() {
        let (t, db) = fixture();
        let out = transform(&t, &db, &ChunkPolicy::paper_default());
        assert!(validate(&out).is_empty(), "{:?}", validate(&out));
        let r0 = &out.ranks[0].records;
        // Compute(200) ISend#0 Compute(200) ISend#1 ... Compute(200)
        let kinds: Vec<String> = r0.iter().map(|r| r.to_string()).collect();
        assert_eq!(r0.len(), 9, "{kinds:?}");
        assert_eq!(r0[0].compute_len(), Some(Instructions(200)));
        assert!(
            matches!(r0[1], Record::ISend { tag, .. } if tag.chunk_parts() == Some((Tag::user(3), 0)))
        );
        assert_eq!(r0[2].compute_len(), Some(Instructions(200)));
        assert!(matches!(r0[7], Record::ISend { .. }));
        // trailing compute back to 1000 total
        assert_eq!(r0[8].compute_len(), Some(Instructions(200)));
        assert_eq!(out.ranks[0].total_compute(), Instructions(1000));
    }

    #[test]
    fn receptions_postponed_to_first_need() {
        let (t, db) = fixture();
        let out = transform(&t, &db, &ChunkPolicy::paper_default());
        let r1 = &out.ranks[1].records;
        // 4 IRecvs at t=0, then Wait/Compute interleaved at 100/300/500/700
        assert!(matches!(r1[0], Record::IRecv { .. }));
        assert!(matches!(r1[3], Record::IRecv { .. }));
        assert_eq!(r1[4].compute_len(), Some(Instructions(100)));
        assert!(matches!(r1[5], Record::Wait { .. }));
        assert_eq!(r1[6].compute_len(), Some(Instructions(200)));
        assert!(matches!(r1[7], Record::Wait { .. }));
        assert_eq!(out.ranks[1].total_compute(), Instructions(1000));
    }

    #[test]
    fn chunk_bytes_sum_exactly() {
        for (bytes, elems) in [(32u64, 4u32), (100, 7), (8, 1), (1000, 3)] {
            let p = ChunkPolicy::paper_default();
            let total: u64 = p
                .boundaries(elems)
                .into_iter()
                .map(|(lo, hi)| chunk_bytes(Bytes(bytes), elems, lo, hi).get())
                .sum();
            assert_eq!(total, bytes, "bytes={bytes} elems={elems}");
        }
    }

    #[test]
    fn unmatched_records_left_alone() {
        // a send with no access logs is not transformed
        let (t, _) = fixture();
        let empty = AccessDb::new(2);
        let out = transform(&t, &empty, &ChunkPolicy::paper_default());
        assert!(matches!(out.ranks[0].records[1], Record::Send { .. }));
        assert!(matches!(out.ranks[1].records[0], Record::Recv { .. }));
    }

    #[test]
    fn collectives_pass_through() {
        let mut t = Trace::new(2);
        for r in 0..2u32 {
            t.rank_mut(Rank(r)).push(Record::Collective {
                op: ovlp_trace::CollOp::Allreduce,
                bytes_in: Bytes(8),
                bytes_out: Bytes(8),
                root: Rank(0),
                transfer: TransferId::new(Rank(r), 0),
            });
        }
        let out = transform(&t, &AccessDb::new(2), &ChunkPolicy::paper_default());
        assert!(matches!(out.ranks[0].records[0], Record::Collective { .. }));
    }

    #[test]
    fn single_element_message_advanced_but_not_split() {
        let mut t = Trace::new(2);
        let s_tid = TransferId::new(Rank(0), 0);
        let r_tid = TransferId::new(Rank(1), 0);
        t.rank_mut(Rank(0)).push(Record::Compute {
            instr: Instructions(1000),
        });
        t.rank_mut(Rank(0)).push(Record::Send {
            dst: Rank(1),
            tag: Tag::user(0),
            bytes: Bytes(8),
            mode: SendMode::Eager,
            transfer: s_tid,
        });
        t.rank_mut(Rank(1)).push(Record::Recv {
            src: Rank(0),
            tag: Tag::user(0),
            bytes: Bytes(8),
            transfer: r_tid,
        });
        t.rank_mut(Rank(1)).push(Record::Compute {
            instr: Instructions(1000),
        });
        let mut db = AccessDb::new(2);
        db.insert_production(production_log_for_test(0, 0, 0, 1000, &[Some(640)]));
        db.insert_consumption(consumption_log_for_test(1, 0, 0, 1000, &[Some(500)]));
        let out = transform(&t, &db, &ChunkPolicy::paper_default());
        assert!(validate(&out).is_empty());
        let r0 = &out.ranks[0].records;
        // one chunk, isend advanced to 640
        assert_eq!(r0[0].compute_len(), Some(Instructions(640)));
        assert!(matches!(r0[1], Record::ISend { bytes, .. } if bytes == Bytes(8)));
        let r1 = &out.ranks[1].records;
        // irecv at 0, wait postponed to 500
        assert!(matches!(r1[0], Record::IRecv { .. }));
        assert_eq!(r1[1].compute_len(), Some(Instructions(500)));
        assert!(matches!(r1[2], Record::Wait { .. }));
    }

    #[test]
    fn never_loaded_chunks_waited_at_interval_end() {
        let mut t = Trace::new(2);
        t.rank_mut(Rank(0)).push(Record::Send {
            dst: Rank(1),
            tag: Tag::user(0),
            bytes: Bytes(16),
            mode: SendMode::Eager,
            transfer: TransferId::new(Rank(0), 0),
        });
        t.rank_mut(Rank(1)).push(Record::Recv {
            src: Rank(0),
            tag: Tag::user(0),
            bytes: Bytes(16),
            transfer: TransferId::new(Rank(1), 0),
        });
        t.rank_mut(Rank(1)).push(Record::Compute {
            instr: Instructions(800),
        });
        let mut db = AccessDb::new(2);
        db.insert_production(production_log_for_test(0, 0, 0, 0, &[Some(0), Some(0)]));
        // second element never loaded; interval ends at 800
        db.insert_consumption(consumption_log_for_test(1, 0, 0, 800, &[Some(10), None]));
        let out = transform(&t, &db, &ChunkPolicy::paper_default());
        assert!(validate(&out).is_empty());
        let r1 = &out.ranks[1].records;
        // irecv irecv compute(10) wait compute(790) wait
        assert!(matches!(r1[5], Record::Wait { .. }), "{r1:?}");
        assert_eq!(r1[4].compute_len(), Some(Instructions(790)));
    }

    #[test]
    fn compute_totals_always_preserved() {
        let (t, db) = fixture();
        for chunks in [1u32, 2, 3, 4, 8] {
            let out = transform(&t, &db, &ChunkPolicy::with_chunks(chunks));
            for r in 0..2 {
                assert_eq!(
                    out.ranks[r].total_compute(),
                    t.ranks[r].total_compute(),
                    "chunks={chunks} rank={r}"
                );
            }
        }
    }

    #[test]
    fn meta_updated() {
        let (t, db) = fixture();
        let out = transform(&t, &db, &ChunkPolicy::paper_default());
        assert_eq!(
            out.meta.get("variant").map(String::as_str),
            Some("overlapped")
        );
        assert_eq!(out.meta.get("chunks").map(String::as_str), Some("4"));
    }

    #[test]
    fn check_intervals_names_the_transfer_that_does_not_fit() {
        let (t, db) = fixture();
        assert_eq!(check_intervals(&t, &db), Ok(()));
        // the send sits at 1000 on rank 0, the receive at 0 on rank 1
        let mut late = db.clone();
        late.insert_production(production_log_for_test(0, 0, 1001, 2000, &[None; 4]));
        let e = check_intervals(&t, &late).unwrap_err();
        assert!(e.contains("production 0.0") && e.contains("1001"), "{e}");
        let mut early = AccessDb::new(2);
        early.insert_consumption(consumption_log_for_test(1, 0, 0, 0, &[None; 4]));
        assert_eq!(
            check_intervals(&t, &early),
            Ok(()),
            "an empty interval fits"
        );
        let mut t2 = t.clone();
        t2.rank_mut(Rank(1)).records.insert(
            0,
            Record::Compute {
                instr: Instructions(5),
            },
        );
        let e = check_intervals(&t2, &early).unwrap_err();
        assert!(e.contains("consumption 1.0") && e.contains("at 5"), "{e}");
    }
}
