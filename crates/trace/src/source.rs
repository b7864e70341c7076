//! Lazy trace supply: per-rank record streams produced on demand.
//!
//! A materialized [`Trace`] costs O(ranks × records) memory before a
//! replay even starts, which caps weak-scaling studies at a few
//! thousand ranks. [`TraceSource`] abstracts *where records come from*:
//! the replay engine pulls each rank's stream through an iterator and
//! never needs the whole program in memory at once. A materialized
//! `Trace` is one implementation (iterating its vectors); generated
//! workloads ([`crate::mlgen`]) and rank-tiling wrappers
//! ([`RankTiled`]) synthesize records as the cursor advances, so the
//! resident footprint is O(ranks) cursors rather than O(ranks ×
//! records) vectors.
//!
//! A rank's stream is a [`RankRecords`]: a materialized trace hands out
//! a cursor over its record vector (no virtual call per record), a
//! generator a boxed iterator.
//!
//! Contract: for any source that can afford [`materialize`], streaming
//! the iterators and replaying the materialized trace must describe the
//! *same program* — `ovlp-machine` pins byte-identical `SimResult`s
//! across the two paths.
//!
//! [`materialize`]: TraceSource::materialize

use crate::ids::Rank;
use crate::record::Record;
use crate::trace::Trace;
use std::collections::BTreeMap;

/// A per-rank supplier of trace records.
///
/// `rank_records(r)` may be called once per rank and must yield rank
/// `r`'s records in program order. Implementations must be cheap to
/// *open* for every rank up front (the replay engine creates all
/// cursors at start), so iterators should generate lazily rather than
/// pre-building the rank's full record vector.
pub trait TraceSource: Send + Sync {
    /// Number of ranks in the program.
    fn nranks(&self) -> usize;

    /// Rank `rank`'s record stream, in program order.
    fn rank_records(&self, rank: usize) -> RankRecords<'_>;

    /// Trace metadata describing this source (application name,
    /// generator parameters); attached to materialized traces.
    fn meta(&self) -> BTreeMap<String, String> {
        BTreeMap::new()
    }

    /// Drain every rank's stream into a concrete [`Trace`].
    ///
    /// This is the bridge back to the eager world (sweep pipeline,
    /// text emission) and is only affordable when ranks × records fits
    /// in memory.
    fn materialize(&self) -> Trace {
        let mut t = Trace::new(self.nranks());
        for r in 0..self.nranks() {
            t.ranks[r].records.extend(self.rank_records(r));
        }
        t.meta = self.meta();
        t
    }
}

/// One rank's record stream: records that already live in memory, or
/// records a generator synthesizes as the cursor advances.
pub enum RankRecords<'a> {
    /// A materialized rank's records, read in place.
    Slice(std::slice::Iter<'a, Record>),
    /// A generated stream.
    Stream(Box<dyn Iterator<Item = Record> + 'a>),
}

impl<'a> RankRecords<'a> {
    /// A generated stream.
    pub fn stream(iter: impl Iterator<Item = Record> + 'a) -> RankRecords<'a> {
        RankRecords::Stream(Box::new(iter))
    }
}

impl Iterator for RankRecords<'_> {
    type Item = Record;

    #[inline]
    fn next(&mut self) -> Option<Record> {
        match self {
            RankRecords::Slice(records) => records.next().copied(),
            RankRecords::Stream(iter) => iter.next(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            RankRecords::Slice(records) => records.size_hint(),
            RankRecords::Stream(iter) => iter.size_hint(),
        }
    }
}

impl TraceSource for Trace {
    fn nranks(&self) -> usize {
        Trace::nranks(self)
    }

    fn rank_records(&self, rank: usize) -> RankRecords<'_> {
        RankRecords::Slice(self.ranks[rank].records.iter())
    }

    fn meta(&self) -> BTreeMap<String, String> {
        self.meta.clone()
    }

    fn materialize(&self) -> Trace {
        self.clone()
    }
}

/// Weak-scales a base trace by replicating its rank pattern across
/// disjoint rank blocks.
///
/// Block `b` holds ranks `[b·n, (b+1)·n)` where `n` is the base rank
/// count; each block runs the base program with point-to-point peers
/// shifted into its own block. Collective roots are deliberately *not*
/// shifted: collectives span the world communicator, so every rank must
/// agree on the root, and the blocks' identical collective sequences
/// simply become world-sized operations — which is exactly the
/// weak-scaling behaviour of interest (the collective grows with the
/// machine while point-to-point halos stay local).
///
/// Records are synthesized per cursor step, so the wrapper itself costs
/// one base-trace copy regardless of the tiling factor.
pub struct RankTiled {
    base: Trace,
    copies: usize,
}

impl RankTiled {
    /// Tile `base` across `copies` rank blocks.
    pub fn new(base: Trace, copies: usize) -> RankTiled {
        assert!(copies > 0, "rank tiling needs at least one copy");
        assert!(base.nranks() > 0, "rank tiling needs a non-empty base");
        RankTiled { base, copies }
    }

    /// Shift a base-block record into the block starting at `off` ranks.
    fn retarget(rec: Record, off: u32) -> Record {
        let bump = |r: Rank| Rank(r.0 + off);
        match rec {
            Record::Send {
                dst,
                tag,
                bytes,
                mode,
                mut transfer,
            } => {
                transfer.rank = bump(transfer.rank);
                Record::Send {
                    dst: bump(dst),
                    tag,
                    bytes,
                    mode,
                    transfer,
                }
            }
            Record::Recv {
                src,
                tag,
                bytes,
                mut transfer,
            } => {
                transfer.rank = bump(transfer.rank);
                Record::Recv {
                    src: bump(src),
                    tag,
                    bytes,
                    transfer,
                }
            }
            Record::ISend {
                dst,
                tag,
                bytes,
                mode,
                req,
                mut transfer,
            } => {
                transfer.rank = bump(transfer.rank);
                Record::ISend {
                    dst: bump(dst),
                    tag,
                    bytes,
                    mode,
                    req,
                    transfer,
                }
            }
            Record::IRecv {
                src,
                tag,
                bytes,
                req,
                mut transfer,
            } => {
                transfer.rank = bump(transfer.rank);
                Record::IRecv {
                    src: bump(src),
                    tag,
                    bytes,
                    req,
                    transfer,
                }
            }
            Record::Collective {
                op,
                bytes_in,
                bytes_out,
                root,
                mut transfer,
            } => {
                transfer.rank = bump(transfer.rank);
                Record::Collective {
                    op,
                    bytes_in,
                    bytes_out,
                    root, // world collective: all blocks must agree
                    transfer,
                }
            }
            other @ (Record::Compute { .. } | Record::Wait { .. } | Record::Marker { .. }) => other,
        }
    }
}

impl TraceSource for RankTiled {
    fn nranks(&self) -> usize {
        self.base.nranks() * self.copies
    }

    fn rank_records(&self, rank: usize) -> RankRecords<'_> {
        let n = self.base.nranks();
        let off = (rank / n * n) as u32;
        RankRecords::stream(
            self.base.ranks[rank % n]
                .records
                .iter()
                .map(move |rec| RankTiled::retarget(*rec, off)),
        )
    }

    fn meta(&self) -> BTreeMap<String, String> {
        let mut m = self.base.meta.clone();
        m.insert("rank-tiles".to_string(), self.copies.to_string());
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{Tag, TransferId};
    use crate::record::SendMode;
    use crate::synth;
    use crate::units::Bytes;
    use crate::validate::validate;

    #[test]
    fn trace_roundtrips_through_source() {
        let t = synth::generate(7);
        let m = TraceSource::materialize(&t);
        assert_eq!(t, m);
        for r in 0..t.nranks() {
            let streamed: Vec<Record> = t.rank_records(r).collect();
            assert_eq!(streamed, t.ranks[r].records);
        }
    }

    #[test]
    fn rank_tiled_shifts_peers_into_blocks() {
        let mut base = Trace::new(2);
        base.ranks[0].push(Record::Send {
            dst: Rank(1),
            tag: Tag::user(3),
            bytes: Bytes(8),
            mode: SendMode::Eager,
            transfer: TransferId::new(Rank(0), 0),
        });
        base.ranks[1].push(Record::Recv {
            src: Rank(0),
            tag: Tag::user(3),
            bytes: Bytes(8),
            transfer: TransferId::new(Rank(1), 0),
        });
        let tiled = RankTiled::new(base, 3);
        assert_eq!(TraceSource::nranks(&tiled), 6);
        let r4: Vec<Record> = tiled.rank_records(4).collect();
        match r4[0] {
            Record::Send { dst, transfer, .. } => {
                assert_eq!(dst, Rank(5));
                assert_eq!(transfer.rank, Rank(4));
            }
            ref other => panic!("unexpected record {other:?}"),
        }
        let m = tiled.materialize();
        assert_eq!(m.nranks(), 6);
        assert!(validate(&m).is_empty(), "tiled trace validates");
    }

    #[test]
    fn rank_tiled_synth_traces_validate() {
        for seed in [1u64, 2, 3] {
            let base = synth::generate(seed);
            let tiled = RankTiled::new(base.clone(), 4);
            let m = tiled.materialize();
            assert_eq!(m.nranks(), base.nranks() * 4);
            assert_eq!(m.total_records(), base.total_records() * 4);
            assert!(validate(&m).is_empty(), "tiled synth trace validates");
        }
    }
}
