//! Natively-generated ML training workload: data-parallel
//! ring-allreduce with chunked gradient buckets.
//!
//! This is the first workload family designed to be *generated* rather
//! than traced: no per-rank OS thread ever runs, records are
//! synthesized by a per-rank cursor ([`TraceSource`]), and the program
//! therefore scales to rank counts (100k+) where the thread-per-rank
//! tracing front end cannot go.
//!
//! The modeled step mirrors a DDP training iteration with bucketed
//! gradient communication:
//!
//! 1. forward + loss compute (one burst, jittered per rank/iteration);
//! 2. for each gradient chunk: an intra-group ring **reduce-scatter**
//!    (`g−1` stages of irecv/isend with a slice of backward compute
//!    overlapped inside each stage — the chunk-level overlap the
//!    framework exists to measure), then a world `Allreduce` collective
//!    combining the reduced shards across groups, then an intra-group
//!    ring **allgather**;
//! 3. iteration markers bracket each step for the analysis layer.
//!
//! Every non-blocking request is waited in-program, so a replay can
//! retire message state eagerly — the property the engine's summary
//! (scale) mode relies on for O(active ranks) memory.

use crate::ids::{CollOp, Rank, ReqId, Tag, TransferId};
use crate::record::{Marker, Record, SendMode};
use crate::source::{RankRecords, TraceSource};
use crate::units::{Bytes, Instructions};
use std::collections::BTreeMap;

/// Ring group size used whenever the rank count allows it.
pub const GROUP: usize = 8;

/// Parameters of the generated training run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MlConfig {
    /// World size.
    pub ranks: usize,
    /// Intra-group ring size (`ranks` is a multiple of this).
    pub group: usize,
    /// Training iterations.
    pub iters: u32,
    /// Gradient chunks (communication buckets) per iteration.
    pub chunks: u32,
    /// Total gradient bytes per iteration, split across chunks and
    /// ring shards.
    pub bucket_bytes: u64,
    /// Forward + loss compute per iteration (virtual instructions).
    pub fwd_instr: u64,
    /// Backward compute per iteration, overlapped with the
    /// reduce-scatter stages.
    pub bwd_instr: u64,
    /// Jitter seed (per-rank compute imbalance).
    pub seed: u64,
}

impl MlConfig {
    /// Default configuration at `ranks` ranks.
    ///
    /// Rank rule: groups of [`GROUP`] when `ranks` divides evenly; a
    /// single group when `ranks <= GROUP`; anything else is rejected so
    /// the CLI can surface a clean usage error.
    pub fn new(ranks: usize, seed: u64) -> Result<MlConfig, String> {
        if ranks == 0 {
            return Err("ml-allreduce needs at least one rank".to_string());
        }
        let group = if ranks <= GROUP {
            ranks
        } else if ranks.is_multiple_of(GROUP) {
            GROUP
        } else {
            return Err(format!(
                "ml-allreduce tiles rings of {GROUP} ranks: \
                 {ranks} ranks is neither <= {GROUP} nor a multiple of {GROUP}"
            ));
        };
        Ok(MlConfig {
            ranks,
            group,
            iters: 2,
            chunks: 2,
            bucket_bytes: 4 << 20,
            fwd_instr: 50_000_000,
            bwd_instr: 80_000_000,
            seed,
        })
    }

    /// Bytes of one ring shard (one stage's message).
    fn shard_bytes(&self) -> u64 {
        (self.bucket_bytes / self.chunks as u64 / self.group as u64).max(1)
    }

    /// Records one rank emits (before collective expansion); the
    /// closed form the tests hold the generator to.
    #[cfg(test)]
    fn records_per_rank(&self) -> u64 {
        let g = self.group as u64;
        let per_chunk = (g - 1) * 5 + 1 + (g - 1) * 4;
        self.iters as u64 * (3 + self.chunks as u64 * per_chunk)
    }
}

/// The generated workload; create via [`MlAllreduce::new`].
pub struct MlAllreduce {
    cfg: MlConfig,
}

impl MlAllreduce {
    pub fn new(cfg: MlConfig) -> MlAllreduce {
        assert!(
            cfg.ranks > 0 && cfg.group > 0 && cfg.ranks.is_multiple_of(cfg.group),
            "rank count must be a positive multiple of the group size"
        );
        assert!(
            (cfg.iters * cfg.chunks) * 2 < Tag::MAX_USER,
            "iteration x chunk count exceeds the user tag space"
        );
        MlAllreduce { cfg }
    }

    pub fn config(&self) -> &MlConfig {
        &self.cfg
    }
}

impl TraceSource for MlAllreduce {
    fn nranks(&self) -> usize {
        self.cfg.ranks
    }

    fn rank_records(&self, rank: usize) -> RankRecords<'_> {
        RankRecords::stream(RankProgram::new(self.cfg, rank as u32))
    }

    fn meta(&self) -> BTreeMap<String, String> {
        let mut m = BTreeMap::new();
        m.insert("app".to_string(), "ml-allreduce".to_string());
        m.insert("ranks".to_string(), self.cfg.ranks.to_string());
        m.insert("group".to_string(), self.cfg.group.to_string());
        m.insert("iters".to_string(), self.cfg.iters.to_string());
        m.insert("chunks".to_string(), self.cfg.chunks.to_string());
        m.insert("seed".to_string(), self.cfg.seed.to_string());
        m
    }
}

/// SplitMix64 — the same mixer `synth` uses, kept local so generated
/// streams never depend on another module's constants.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// Deterministic compute jitter in `[base/2, base]`.
fn jitter(base: u64, h: u64) -> u64 {
    if base == 0 {
        return 0;
    }
    base / 2 + mix(h) % (base / 2 + 1)
}

/// Where the cursor is inside one iteration's program.
#[derive(Debug, Clone, Copy)]
enum Stage {
    /// Iteration marker + forward compute.
    Header,
    /// Reduce-scatter ring stage `s` of chunk `c`.
    Rs {
        c: u32,
        s: u32,
    },
    /// World allreduce of chunk `c`'s reduced shard.
    Coll {
        c: u32,
    },
    /// Allgather ring stage `s` of chunk `c`.
    Ag {
        c: u32,
        s: u32,
    },
    /// Iteration-end marker.
    Footer,
    Done,
}

/// One rank's lazily-generated record stream.
///
/// All world cursors are opened at replay start, so this holds only
/// counters plus the current segment (at most five records, held
/// inline) — never the rank's full program.
struct RankProgram {
    cfg: MlConfig,
    rank: u32,
    /// First rank of this rank's ring group.
    blk: u32,
    /// Position within the group.
    lane: u32,
    iter: u32,
    stage: Stage,
    next_req: u64,
    next_seq: u32,
    buf: Segment,
}

/// The records of one program segment not yet handed out: an inline
/// FIFO sized to the largest segment (a reduce-scatter ring stage), so
/// a generator is one heap object however many ranks run.
struct Segment {
    recs: [Record; Segment::CAP],
    head: u8,
    len: u8,
}

impl Segment {
    const CAP: usize = 5;

    fn new() -> Segment {
        Segment {
            recs: [Record::Wait { req: ReqId(0) }; Segment::CAP],
            head: 0,
            len: 0,
        }
    }

    /// Append a record. A segment is refilled only once drained, so
    /// the records of one segment fill `recs` from the front.
    fn push_back(&mut self, rec: Record) {
        self.recs[usize::from(self.head + self.len)] = rec;
        self.len += 1;
    }

    fn pop_front(&mut self) -> Option<Record> {
        if self.len == 0 {
            self.head = 0;
            return None;
        }
        let rec = self.recs[usize::from(self.head)];
        self.head += 1;
        self.len -= 1;
        Some(rec)
    }
}

impl RankProgram {
    fn new(cfg: MlConfig, rank: u32) -> RankProgram {
        let g = cfg.group as u32;
        RankProgram {
            cfg,
            rank,
            blk: rank / g * g,
            lane: rank % g,
            iter: 0,
            stage: if cfg.iters == 0 {
                Stage::Done
            } else {
                Stage::Header
            },
            next_req: 0,
            next_seq: 0,
            buf: Segment::new(),
        }
    }

    fn transfer(&mut self) -> TransferId {
        let t = TransferId::new(Rank(self.rank), self.next_seq);
        self.next_seq += 1;
        t
    }

    fn req(&mut self) -> ReqId {
        let r = ReqId(self.next_req);
        self.next_req += 1;
        r
    }

    /// Left/right neighbours on the intra-group ring.
    fn neighbours(&self) -> (Rank, Rank) {
        let g = self.cfg.group as u32;
        let left = self.blk + (self.lane + g - 1) % g;
        let right = self.blk + (self.lane + 1) % g;
        (Rank(left), Rank(right))
    }

    /// Distinct user tag per (iteration, chunk, ring phase).
    fn tag(&self, c: u32, phase: u32) -> Tag {
        Tag::user((self.iter * self.cfg.chunks + c) * 2 + phase)
    }

    /// One irecv/isend ring stage: post the receive first so the stage
    /// is deadlock-free even when the platform upgrades sends to
    /// rendezvous, then overlap a slice of backward compute before
    /// waiting (reduce-scatter only).
    fn ring_stage(&mut self, c: u32, phase: u32, overlap: Option<u64>) {
        let (left, right) = self.neighbours();
        let tag = self.tag(c, phase);
        let bytes = Bytes(self.cfg.shard_bytes());
        let rreq = self.req();
        let rtr = self.transfer();
        let sreq = self.req();
        let str_ = self.transfer();
        self.buf.push_back(Record::IRecv {
            src: left,
            tag,
            bytes,
            req: rreq,
            transfer: rtr,
        });
        self.buf.push_back(Record::ISend {
            dst: right,
            tag,
            bytes,
            mode: SendMode::Eager,
            req: sreq,
            transfer: str_,
        });
        if let Some(instr) = overlap {
            self.buf.push_back(Record::Compute {
                instr: Instructions(instr),
            });
        }
        self.buf.push_back(Record::Wait { req: rreq });
        self.buf.push_back(Record::Wait { req: sreq });
    }

    /// First stage of chunk `c` (skips the rings in one-rank groups).
    fn start_chunk(&self, c: u32) -> Stage {
        if self.cfg.group > 1 {
            Stage::Rs { c, s: 0 }
        } else {
            Stage::Coll { c }
        }
    }

    fn after_chunk(&self, c: u32) -> Stage {
        if c + 1 < self.cfg.chunks {
            self.start_chunk(c + 1)
        } else {
            Stage::Footer
        }
    }

    /// Emit the records of the current segment and advance the stage.
    fn refill(&mut self) {
        let g = self.cfg.group as u32;
        match self.stage {
            Stage::Header => {
                self.buf.push_back(Record::Marker {
                    marker: Marker::IterBegin(self.iter),
                });
                let h = self.cfg.seed ^ (self.rank as u64) << 32 ^ self.iter as u64;
                self.buf.push_back(Record::Compute {
                    instr: Instructions(jitter(self.cfg.fwd_instr, h)),
                });
                self.stage = if self.cfg.chunks > 0 {
                    self.start_chunk(0)
                } else {
                    Stage::Footer
                };
            }
            Stage::Rs { c, s } => {
                let per_stage = self.cfg.bwd_instr / self.cfg.chunks as u64 / (g as u64 - 1).max(1);
                let h = self.cfg.seed
                    ^ (self.rank as u64) << 32
                    ^ (self.iter as u64) << 16
                    ^ (c as u64) << 8
                    ^ s as u64;
                self.ring_stage(c, 0, Some(jitter(per_stage, h)));
                self.stage = if s + 1 < g - 1 {
                    Stage::Rs { c, s: s + 1 }
                } else {
                    Stage::Coll { c }
                };
            }
            Stage::Coll { c } => {
                let bytes = Bytes(self.cfg.shard_bytes());
                let transfer = self.transfer();
                self.buf.push_back(Record::Collective {
                    op: CollOp::Allreduce,
                    bytes_in: bytes,
                    bytes_out: bytes,
                    root: Rank(0),
                    transfer,
                });
                self.stage = if g > 1 {
                    Stage::Ag { c, s: 0 }
                } else {
                    self.after_chunk(c)
                };
            }
            Stage::Ag { c, s } => {
                self.ring_stage(c, 1, None);
                self.stage = if s + 1 < g - 1 {
                    Stage::Ag { c, s: s + 1 }
                } else {
                    self.after_chunk(c)
                };
            }
            Stage::Footer => {
                self.buf.push_back(Record::Marker {
                    marker: Marker::IterEnd(self.iter),
                });
                self.iter += 1;
                self.stage = if self.iter < self.cfg.iters {
                    Stage::Header
                } else {
                    Stage::Done
                };
            }
            Stage::Done => {}
        }
    }
}

impl Iterator for RankProgram {
    type Item = Record;

    fn next(&mut self) -> Option<Record> {
        loop {
            if let Some(r) = self.buf.pop_front() {
                return Some(r);
            }
            if matches!(self.stage, Stage::Done) {
                return None;
            }
            self.refill();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::validate;

    #[test]
    fn rank_rule() {
        assert_eq!(MlConfig::new(1, 0).unwrap().group, 1);
        assert_eq!(MlConfig::new(6, 0).unwrap().group, 6);
        assert_eq!(MlConfig::new(8, 0).unwrap().group, 8);
        assert_eq!(MlConfig::new(64, 0).unwrap().group, 8);
        assert!(MlConfig::new(0, 0).is_err());
        assert!(MlConfig::new(12, 0).is_err());
        assert!(MlConfig::new(100_000, 0).is_ok());
    }

    #[test]
    fn generated_traces_validate() {
        for ranks in [1usize, 4, 8, 16, 32] {
            let app = MlAllreduce::new(MlConfig::new(ranks, 42).unwrap());
            let t = app.materialize();
            assert_eq!(t.nranks(), ranks);
            assert_eq!(
                t.total_records() as u64,
                app.config().records_per_rank() * ranks as u64
            );
            assert!(validate(&t).is_empty(), "ml trace validates");
        }
    }

    #[test]
    fn streams_match_hint_and_are_deterministic() {
        let app = MlAllreduce::new(MlConfig::new(16, 7).unwrap());
        let a: Vec<Record> = app.rank_records(3).collect();
        let b: Vec<Record> = app.rank_records(3).collect();
        assert_eq!(a, b);
        assert_eq!(
            a.len() as u64,
            app.config().records_per_rank(),
            "per-rank record count matches the closed form"
        );
    }

    #[test]
    fn every_request_is_waited() {
        let app = MlAllreduce::new(MlConfig::new(8, 9).unwrap());
        for r in 0..8 {
            let mut open = std::collections::BTreeSet::new();
            for rec in app.rank_records(r) {
                match rec {
                    Record::ISend { req, .. } | Record::IRecv { req, .. } => {
                        assert!(open.insert(req), "request reused while open");
                    }
                    Record::Wait { req } => {
                        assert!(open.remove(&req), "wait on unknown request");
                    }
                    _ => {}
                }
            }
            assert!(open.is_empty(), "rank {r} left requests unwaited");
        }
    }

    #[test]
    fn jitter_bounds() {
        for h in 0..100u64 {
            let j = jitter(1000, h);
            assert!((500..=1000).contains(&j));
        }
        assert_eq!(jitter(0, 3), 0);
    }
}
