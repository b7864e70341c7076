//! Collective decomposition into point-to-point transfers.
//!
//! The paper states (§III-C): *"collective communication operations are
//! performed in Dimemas without assuming any collective hardware
//! support on the network, so they are implemented as usual using
//! multiple point-to-point MPI transfers."*
//!
//! This pass rewrites every [`Record::Collective`] in a trace into the
//! equivalent sequence of `Send`/`Recv` records using internal tags
//! ([`Tag::collective`]) so the replay engine only ever sees
//! point-to-point traffic. The `i`-th collective of each rank's stream
//! belongs to instance `i` (trace validation guarantees ranks agree on
//! the sequence), so the internal tags match up across ranks.
//!
//! Two algorithm families are provided, selected by
//! [`CollectiveAlgo`]:
//!
//! * **Binomial** — log₂(P)-depth trees for bcast/reduce/barrier,
//!   reduce-to-root + bcast for allreduce, gather + bcast for
//!   allgather, pairwise ordered exchange for alltoall;
//! * **Linear** — the root exchanges P−1 individual messages (a star);
//!   alltoall remains pairwise.
//!
//! Byte-size conventions per operation (per-rank `bytes_in`/`bytes_out`
//! of the collective record):
//!
//! | op        | meaning of `bytes_in`            | tree message size |
//! |-----------|----------------------------------|-------------------|
//! | barrier   | ignored                          | 0                 |
//! | bcast     | payload size (root's buffer)     | `bytes_in`        |
//! | reduce    | per-rank contribution            | `bytes_in`        |
//! | allreduce | per-rank contribution            | `bytes_in`        |
//! | gather    | per-rank contribution            | subtree-summed    |
//! | allgather | per-rank contribution            | subtree-summed    |
//! | scatter   | per-leaf slice size              | subtree-summed    |
//! | alltoall  | per-pair block size              | `bytes_in`        |

use crate::platform::CollectiveAlgo;
use ovlp_trace::record::SendMode;
use ovlp_trace::{Bytes, CollOp, Rank, Record, Tag, Trace, TransferId};

/// Rewrite all collectives in `trace` into point-to-point records.
///
/// The result contains no [`Record::Collective`]; all synthesized
/// records reuse the collective's [`TransferId`] so provenance is
/// preserved for visualization.
pub fn expand_collectives(trace: &Trace, algo: CollectiveAlgo) -> Trace {
    let nranks = trace.nranks();
    let mut out = Trace::new(nranks);
    out.meta = trace.meta.clone();
    out.meta
        .insert("collectives".to_string(), algo.name().to_string());

    for (r, rt) in trace.ranks.iter().enumerate() {
        expand_rank(nranks, r, &rt.records, algo, &mut out.ranks[r].records);
    }
    out
}

/// Expand one rank's record stream into `out`. Each rank's expansion is
/// independent: the instance counter that keys the internal tags is
/// per-rank, and trace validation guarantees ranks agree on the
/// collective sequence.
fn expand_rank(
    nranks: usize,
    r: usize,
    records: &[Record],
    algo: CollectiveAlgo,
    out: &mut Vec<Record>,
) {
    let rank = Rank(r as u32);
    let mut instance = 0u32;
    // collectives expand to at most 2·(P−1) records each; reserving
    // for the common tree case (≤ 2·log₂P + 2) avoids most regrowth
    out.reserve(records.len() + 4);
    for rec in records {
        expand_one(nranks, rank, rec, &mut instance, algo, &mut |r| out.push(r));
    }
}

/// Expand a single record: collectives become their point-to-point
/// steps (advancing the rank-local `instance` counter that keys the
/// internal tags), everything else passes through verbatim.
///
/// Both the eager rewriter above and the replay's record supply
/// (`replay::supply`) funnel through this function, which is what
/// guarantees a trace and its eager expansion replay as byte-identical
/// record sequences.
pub(crate) fn expand_one(
    nranks: usize,
    rank: Rank,
    rec: &Record,
    instance: &mut u32,
    algo: CollectiveAlgo,
    emit: &mut impl FnMut(Record),
) {
    match *rec {
        Record::Collective {
            op,
            bytes_in,
            bytes_out: _,
            root,
            transfer,
        } => {
            let tag = Tag::collective(*instance);
            *instance += 1;
            plan(op, algo, nranks as u32, rank, root, bytes_in, &mut |step| {
                emit(step.into_record(tag, transfer))
            });
        }
        other => emit(other),
    }
}

/// One point-to-point step of a decomposed collective, relative to the
/// executing rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    SendTo(Rank, Bytes),
    RecvFrom(Rank, Bytes),
}

impl Step {
    fn into_record(self, tag: Tag, transfer: TransferId) -> Record {
        match self {
            Step::SendTo(dst, bytes) => Record::Send {
                dst,
                tag,
                bytes,
                mode: SendMode::Eager,
                transfer,
            },
            Step::RecvFrom(src, bytes) => Record::Recv {
                src,
                tag,
                bytes,
                transfer,
            },
        }
    }
}

/// Emit the point-to-point step sequence rank `me` executes for one
/// collective instance (directly into `emit`, in execution order).
fn plan(
    op: CollOp,
    algo: CollectiveAlgo,
    p: u32,
    me: Rank,
    root: Rank,
    bytes: Bytes,
    emit: &mut impl FnMut(Step),
) {
    if p <= 1 {
        return;
    }
    match (op, algo) {
        (CollOp::Barrier, _) => {
            // reduce-to-0 then bcast-from-0, zero bytes, always tree-shaped
            reduce_tree(p, me, Rank(0), |_| Bytes::ZERO, emit);
            bcast_tree(p, me, Rank(0), Bytes::ZERO, emit);
        }
        (CollOp::Bcast, CollectiveAlgo::Binomial) => bcast_tree(p, me, root, bytes, emit),
        (CollOp::Bcast, CollectiveAlgo::Linear) => bcast_linear(p, me, root, bytes, emit),
        (CollOp::Reduce, CollectiveAlgo::Binomial) => reduce_tree(p, me, root, |_| bytes, emit),
        (CollOp::Reduce, CollectiveAlgo::Linear) => reduce_linear(p, me, root, bytes, emit),
        (CollOp::Allreduce, CollectiveAlgo::Binomial) => {
            reduce_tree(p, me, Rank(0), |_| bytes, emit);
            bcast_tree(p, me, Rank(0), bytes, emit);
        }
        (CollOp::Allreduce, CollectiveAlgo::Linear) => {
            reduce_linear(p, me, Rank(0), bytes, emit);
            bcast_linear(p, me, Rank(0), bytes, emit);
        }
        (CollOp::Gather, CollectiveAlgo::Binomial) => {
            // message sizes grow with the gathered subtree
            reduce_tree(
                p,
                me,
                root,
                |subtree| Bytes(bytes.get() * subtree as u64),
                emit,
            )
        }
        (CollOp::Gather, CollectiveAlgo::Linear) => reduce_linear(p, me, root, bytes, emit),
        (CollOp::Allgather, CollectiveAlgo::Binomial) => {
            reduce_tree(
                p,
                me,
                Rank(0),
                |subtree| Bytes(bytes.get() * subtree as u64),
                emit,
            );
            bcast_tree(p, me, Rank(0), Bytes(bytes.get() * p as u64), emit);
        }
        (CollOp::Allgather, CollectiveAlgo::Linear) => {
            reduce_linear(p, me, Rank(0), bytes, emit);
            bcast_linear(p, me, Rank(0), Bytes(bytes.get() * p as u64), emit);
        }
        (CollOp::Scatter, CollectiveAlgo::Binomial) => scatter_tree(p, me, root, bytes, emit),
        (CollOp::Scatter, CollectiveAlgo::Linear) => scatter_linear(p, me, root, bytes, emit),
        (CollOp::Alltoall, _) => alltoall_pairwise(p, me, bytes, emit),
    }
}

/// Relative rank in a tree rooted at `root`.
fn rel(me: Rank, root: Rank, p: u32) -> u32 {
    (me.get() + p - root.get()) % p
}

fn abs(rel: u32, root: Rank, p: u32) -> Rank {
    Rank((rel + root.get()) % p)
}

/// Size of the binomial subtree rooted at relative rank `rel` in a
/// `p`-rank tree (number of ranks whose data flows through `rel`,
/// including itself).
fn subtree_size(rel: u32, p: u32) -> u32 {
    if rel == 0 {
        return p;
    }
    // In the clear-highest-bit binomial tree, the descendants of `rel`
    // are exactly the ranks congruent to `rel` modulo the next power of
    // two above it.
    let s = 1u32 << (32 - rel.leading_zeros());
    (p - 1 - rel) / s + 1
}

/// Binomial-tree broadcast from `root`. Parent of relative rank `r`
/// (r>0) is `r` with its highest set bit cleared; parents forward to
/// children in decreasing-subtree order (farthest first).
fn bcast_tree(p: u32, me: Rank, root: Rank, bytes: Bytes, emit: &mut impl FnMut(Step)) {
    let r = rel(me, root, p);
    if r != 0 {
        let high = 1u32 << (31 - r.leading_zeros());
        emit(Step::RecvFrom(abs(r - high, root, p), bytes));
    }
    // children: r + m for m = next power of two above r (or 1 if r==0),
    // doubling while r + m < p. In the clear-highest-bit tree the
    // *smallest* mask owns the largest subtree, so sends go in
    // ascending-mask order (deepest subtree released first — this is
    // what makes the broadcast critical path logarithmic even though
    // the sender injects its children's messages serially).
    let start = if r == 0 {
        1u32
    } else {
        1u32 << (32 - r.leading_zeros())
    };
    let mut m = start;
    while r + m < p {
        emit(Step::SendTo(abs(r + m, root, p), bytes));
        m <<= 1;
    }
}

/// Binomial-tree reduction to `root`: mirror image of `bcast_tree`.
/// `msg_size(subtree)` maps a child's subtree size to the message size
/// it forwards (constant for reduce, growing for gather).
fn reduce_tree(
    p: u32,
    me: Rank,
    root: Rank,
    msg_size: impl Fn(u32) -> Bytes,
    emit: &mut impl FnMut(Step),
) {
    let r = rel(me, root, p);
    // receive from children, nearest first (reverse of bcast order)
    let start = if r == 0 {
        1u32
    } else {
        1u32 << (32 - r.leading_zeros())
    };
    let mut m = start;
    while r + m < p {
        let child = r + m;
        emit(Step::RecvFrom(
            abs(child, root, p),
            msg_size(subtree_size(child, p)),
        ));
        m <<= 1;
    }
    if r != 0 {
        let high = 1u32 << (31 - r.leading_zeros());
        emit(Step::SendTo(
            abs(r - high, root, p),
            msg_size(subtree_size(r, p)),
        ));
    }
}

/// Binomial scatter: root pushes subtree-sized slices down the tree.
fn scatter_tree(p: u32, me: Rank, root: Rank, bytes: Bytes, emit: &mut impl FnMut(Step)) {
    let r = rel(me, root, p);
    if r != 0 {
        let high = 1u32 << (31 - r.leading_zeros());
        emit(Step::RecvFrom(
            abs(r - high, root, p),
            Bytes(bytes.get() * subtree_size(r, p) as u64),
        ));
    }
    let start = if r == 0 {
        1u32
    } else {
        1u32 << (32 - r.leading_zeros())
    };
    let mut m = start;
    while r + m < p {
        let child = r + m;
        emit(Step::SendTo(
            abs(child, root, p),
            Bytes(bytes.get() * subtree_size(child, p) as u64),
        ));
        m <<= 1;
    }
}

fn bcast_linear(p: u32, me: Rank, root: Rank, bytes: Bytes, emit: &mut impl FnMut(Step)) {
    if me == root {
        for r in (0..p).filter(|&r| Rank(r) != root) {
            emit(Step::SendTo(Rank(r), bytes));
        }
    } else {
        emit(Step::RecvFrom(root, bytes));
    }
}

fn reduce_linear(p: u32, me: Rank, root: Rank, bytes: Bytes, emit: &mut impl FnMut(Step)) {
    if me == root {
        for r in (0..p).filter(|&r| Rank(r) != root) {
            emit(Step::RecvFrom(Rank(r), bytes));
        }
    } else {
        emit(Step::SendTo(root, bytes));
    }
}

fn scatter_linear(p: u32, me: Rank, root: Rank, bytes: Bytes, emit: &mut impl FnMut(Step)) {
    // same message pattern as a linear bcast, but per-leaf slice sizes
    bcast_linear(p, me, root, bytes, emit)
}

/// Pairwise-ordered alltoall: in step `k` (1..P), exchange with
/// `(me+k) mod P` / `(me-k) mod P`. Eager sends keep this deadlock-free
/// in the replay model.
fn alltoall_pairwise(p: u32, me: Rank, block: Bytes, emit: &mut impl FnMut(Step)) {
    for k in 1..p {
        let to = Rank((me.get() + k) % p);
        let from = Rank((me.get() + p - k) % p);
        emit(Step::SendTo(to, block));
        emit(Step::RecvFrom(from, block));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ovlp_trace::validate::validate;
    use ovlp_trace::Instructions;

    /// Build a trace in which every rank performs the given collective
    /// once, then expand it.
    fn expand_one(op: CollOp, algo: CollectiveAlgo, p: u32, root: u32, bytes: u64) -> Trace {
        let mut t = Trace::new(p as usize);
        for r in 0..p {
            t.rank_mut(Rank(r)).push(Record::Compute {
                instr: Instructions(100),
            });
            t.rank_mut(Rank(r)).push(Record::Collective {
                op,
                bytes_in: Bytes(bytes),
                bytes_out: Bytes(bytes),
                root: Rank(root),
                transfer: TransferId::new(Rank(r), 0),
            });
        }
        expand_collectives(&t, algo)
    }

    /// The expanded trace must be channel-consistent (every send has a
    /// matching recv of equal size) — `validate` checks exactly that.
    fn assert_consistent(t: &Trace) {
        let errs = validate(t);
        assert!(errs.is_empty(), "expansion inconsistent: {errs:?}");
    }

    #[test]
    fn all_ops_all_algos_all_sizes_consistent() {
        for op in CollOp::ALL {
            for algo in [CollectiveAlgo::Binomial, CollectiveAlgo::Linear] {
                for p in [1u32, 2, 3, 4, 5, 8, 13, 16] {
                    for root in [0u32, p - 1] {
                        let t = expand_one(op, algo, p, root % p, 4096);
                        assert_consistent(&t);
                        // no collective records remain
                        for rt in &t.ranks {
                            assert!(rt
                                .records
                                .iter()
                                .all(|r| !matches!(r, Record::Collective { .. })));
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn binomial_bcast_message_count_is_p_minus_1() {
        for p in [2u32, 4, 7, 16] {
            let t = expand_one(CollOp::Bcast, CollectiveAlgo::Binomial, p, 0, 100);
            let sends: usize = t
                .ranks
                .iter()
                .flat_map(|rt| &rt.records)
                .filter(|r| matches!(r, Record::Send { .. }))
                .count();
            assert_eq!(sends, (p - 1) as usize, "p={p}");
        }
    }

    #[test]
    fn binomial_bcast_depth_is_logarithmic() {
        // the root sends ceil(log2(p)) messages
        let t = expand_one(CollOp::Bcast, CollectiveAlgo::Binomial, 16, 0, 100);
        let root_sends = t.ranks[0]
            .records
            .iter()
            .filter(|r| matches!(r, Record::Send { .. }))
            .count();
        assert_eq!(root_sends, 4);
    }

    #[test]
    fn linear_bcast_root_sends_all() {
        let t = expand_one(CollOp::Bcast, CollectiveAlgo::Linear, 8, 2, 64);
        let root_sends = t.ranks[2]
            .records
            .iter()
            .filter(|r| matches!(r, Record::Send { .. }))
            .count();
        assert_eq!(root_sends, 7);
    }

    #[test]
    fn gather_total_bytes_reach_root() {
        // every rank contributes `b` bytes; the root must receive
        // (p-1)*b in total regardless of tree shape
        for algo in [CollectiveAlgo::Binomial, CollectiveAlgo::Linear] {
            let p = 8u32;
            let b = 100u64;
            let t = expand_one(CollOp::Gather, algo, p, 0, b);
            let root_recv_bytes: u64 = t.ranks[0]
                .records
                .iter()
                .filter_map(|r| match r {
                    Record::Recv { bytes, .. } => Some(bytes.get()),
                    _ => None,
                })
                .sum();
            assert_eq!(root_recv_bytes, (p as u64 - 1) * b, "{algo:?}");
        }
    }

    #[test]
    fn alltoall_each_rank_sends_p_minus_1_blocks() {
        let p = 6u32;
        let t = expand_one(CollOp::Alltoall, CollectiveAlgo::Binomial, p, 0, 32);
        for rt in &t.ranks {
            let sends = rt
                .records
                .iter()
                .filter(|r| matches!(r, Record::Send { .. }))
                .count();
            let recvs = rt
                .records
                .iter()
                .filter(|r| matches!(r, Record::Recv { .. }))
                .count();
            assert_eq!(sends, (p - 1) as usize);
            assert_eq!(recvs, (p - 1) as usize);
        }
    }

    #[test]
    fn barrier_moves_zero_bytes() {
        let t = expand_one(CollOp::Barrier, CollectiveAlgo::Binomial, 8, 0, 999);
        for rt in &t.ranks {
            for rec in &rt.records {
                if let Record::Send { bytes, .. } = rec {
                    assert_eq!(*bytes, Bytes::ZERO);
                }
            }
        }
    }

    #[test]
    fn single_rank_collectives_are_noops() {
        let t = expand_one(CollOp::Allreduce, CollectiveAlgo::Binomial, 1, 0, 64);
        assert_eq!(t.ranks[0].comm_records(), 0);
    }

    #[test]
    fn nonzero_root_trees_are_consistent() {
        for root in 0..5u32 {
            let t = expand_one(CollOp::Reduce, CollectiveAlgo::Binomial, 5, root, 10);
            assert_consistent(&t);
        }
    }

    #[test]
    fn subtree_sizes_partition_the_tree() {
        for p in [2u32, 3, 8, 13] {
            // children of the root partition [1, p)
            let total: u32 = (1..p)
                .filter(|&r| r & (r - 1) == 0) // powers of two = root's children
                .map(|r| subtree_size(r, p))
                .sum();
            assert_eq!(total, p - 1, "p={p}");
        }
    }

    #[test]
    fn successive_collectives_get_distinct_instance_tags() {
        let mut t = Trace::new(2);
        for r in 0..2u32 {
            for s in 0..2u32 {
                t.rank_mut(Rank(r)).push(Record::Collective {
                    op: CollOp::Barrier,
                    bytes_in: Bytes::ZERO,
                    bytes_out: Bytes::ZERO,
                    root: Rank(0),
                    transfer: TransferId::new(Rank(r), s),
                });
            }
        }
        let e = expand_collectives(&t, CollectiveAlgo::Binomial);
        let tags: std::collections::HashSet<u32> = e.ranks[0]
            .records
            .iter()
            .filter_map(|r| match r {
                Record::Send { tag, .. } | Record::Recv { tag, .. } => Some(tag.0),
                _ => None,
            })
            .collect();
        assert_eq!(tags.len(), 2, "two instances, two internal tags");
    }
}
