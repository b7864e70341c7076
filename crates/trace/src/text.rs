//! Plain-text trace serialization.
//!
//! Dimemas consumes a line-oriented text trace format (`.trf`); this
//! module implements the framework's equivalent. The format is
//! deliberately simple — one record per line, whitespace-separated
//! fields — so traces can be inspected, diffed and hand-written in
//! tests.
//!
//! ```text
//! #OVLP-TRACE 1
//! ranks 2
//! meta app cg
//! rank 0
//! c 1000
//! s 1 5 4096 E x0.0
//! w q3
//! end
//! rank 1
//! r 0 5 4096 x1.0
//! end
//! ```

use crate::ids::{CollOp, Rank, ReqId, Tag, TransferId};
use crate::record::{Marker, Record, SendMode};
use crate::trace::Trace;
use crate::units::{Bytes, Instructions};
use std::fmt::Write as _;

/// Largest `ranks` header a trace or access-log file may declare.
/// Both readers allocate per-rank storage from the header, so without a
/// cap a two-line file could demand any amount of memory; 2^20 covers
/// the 1M-rank weak-scaling point.
pub const MAX_RANKS: usize = 1 << 20;

/// The `ranks` header's rank count, refused past [`MAX_RANKS`].
pub(crate) fn header_ranks(n: usize) -> Result<usize, String> {
    if n > MAX_RANKS {
        return Err(format!("`ranks {n}` exceeds the {MAX_RANKS}-rank cap"));
    }
    Ok(n)
}

/// Magic first line of the format.
pub const MAGIC: &str = "#OVLP-TRACE 1";

/// Errors produced when parsing a text trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    pub line: usize,
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "trace parse error at line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for ParseError {}

fn err(line: usize, message: impl ToString) -> ParseError {
    ParseError {
        line,
        message: message.to_string(),
    }
}

/// Serialize a trace to the text format.
pub fn emit(trace: &Trace) -> String {
    let mut out = String::new();
    out.push_str(MAGIC);
    out.push('\n');
    let _ = writeln!(out, "ranks {}", trace.nranks());
    for (k, v) in &trace.meta {
        let _ = writeln!(out, "meta {} {}", k, v);
    }
    for (r, rt) in trace.ranks.iter().enumerate() {
        let _ = writeln!(out, "rank {}", r);
        for rec in &rt.records {
            emit_record(&mut out, rec);
        }
        out.push_str("end\n");
    }
    out
}

fn emit_record(out: &mut String, rec: &Record) {
    match *rec {
        Record::Compute { instr } => {
            let _ = writeln!(out, "c {}", instr.get());
        }
        Record::Send {
            dst,
            tag,
            bytes,
            mode,
            transfer,
        } => {
            let _ = writeln!(
                out,
                "s {} {} {} {} {}",
                dst.get(),
                tag.0,
                bytes.get(),
                mode.code(),
                fmt_tid(transfer)
            );
        }
        Record::Recv {
            src,
            tag,
            bytes,
            transfer,
        } => {
            let _ = writeln!(
                out,
                "r {} {} {} {}",
                src.get(),
                tag.0,
                bytes.get(),
                fmt_tid(transfer)
            );
        }
        Record::ISend {
            dst,
            tag,
            bytes,
            mode,
            req,
            transfer,
        } => {
            let _ = writeln!(
                out,
                "is {} {} {} {} {} {}",
                dst.get(),
                tag.0,
                bytes.get(),
                mode.code(),
                req.0,
                fmt_tid(transfer)
            );
        }
        Record::IRecv {
            src,
            tag,
            bytes,
            req,
            transfer,
        } => {
            let _ = writeln!(
                out,
                "ir {} {} {} {} {}",
                src.get(),
                tag.0,
                bytes.get(),
                req.0,
                fmt_tid(transfer)
            );
        }
        Record::Wait { req } => {
            let _ = writeln!(out, "w {}", req.0);
        }
        Record::Collective {
            op,
            bytes_in,
            bytes_out,
            root,
            transfer,
        } => {
            let _ = writeln!(
                out,
                "g {} {} {} {} {}",
                op.name(),
                bytes_in.get(),
                bytes_out.get(),
                root.get(),
                fmt_tid(transfer)
            );
        }
        Record::Marker { marker } => match marker {
            Marker::IterBegin(n) => {
                let _ = writeln!(out, "mb {}", n);
            }
            Marker::IterEnd(n) => {
                let _ = writeln!(out, "me {}", n);
            }
            Marker::Phase(n) => {
                let _ = writeln!(out, "mp {}", n);
            }
        },
    }
}

fn fmt_tid(t: TransferId) -> String {
    format!("{}.{}", t.rank.get(), t.seq)
}

fn parse_tid(s: &str, line: usize) -> Result<TransferId, ParseError> {
    let (a, b) = s
        .split_once('.')
        .ok_or_else(|| err(line, format!("bad transfer id `{s}`")))?;
    Ok(TransferId::new(
        Rank(
            a.parse()
                .map_err(|e| err(line, format!("bad rank in transfer id: {e}")))?,
        ),
        b.parse()
            .map_err(|e| err(line, format!("bad seq in transfer id: {e}")))?,
    ))
}

/// Parse a text trace.
pub fn parse(input: &str) -> Result<Trace, ParseError> {
    let mut lines = input.lines().enumerate();
    let (_, first) = lines.next().ok_or_else(|| err(0, "empty input"))?;
    if first.trim() != MAGIC {
        return Err(err(1, format!("bad magic line `{first}`")));
    }
    let mut trace: Option<Trace> = None;
    let mut current: Option<usize> = None;
    let mut pending_meta: Vec<(String, String)> = Vec::new();

    for (idx, raw) in lines {
        let lineno = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut f = line.split_whitespace();
        let kw = f.next().unwrap();
        let rest: Vec<&str> = f.collect();
        match kw {
            "ranks" => {
                if trace.is_some() {
                    return Err(err(lineno, "repeated `ranks` header"));
                }
                let n = header_ranks(field(&rest, 0, lineno)?).map_err(|m| err(lineno, m))?;
                let mut t = Trace::new(n);
                for (k, v) in pending_meta.drain(..) {
                    t.meta.insert(k, v);
                }
                trace = Some(t);
            }
            "meta" => {
                let key = rest
                    .first()
                    .ok_or_else(|| err(lineno, "meta missing key"))?
                    .to_string();
                let val = rest[1..].join(" ");
                match &mut trace {
                    Some(t) => {
                        t.meta.insert(key, val);
                    }
                    None => pending_meta.push((key, val)),
                }
            }
            "rank" => {
                let r: usize = field(&rest, 0, lineno)?;
                let t = trace
                    .as_ref()
                    .ok_or_else(|| err(lineno, "`rank` before `ranks`"))?;
                if r >= t.nranks() {
                    return Err(err(lineno, format!("rank {r} out of range")));
                }
                current = Some(r);
            }
            "end" => {
                current = None;
            }
            _ => {
                let r = current.ok_or_else(|| err(lineno, "record outside rank block"))?;
                let rec = parse_record(kw, &rest, lineno)?;
                trace
                    .as_mut()
                    .unwrap()
                    .ranks
                    .get_mut(r)
                    .unwrap()
                    .records
                    .push(rec);
            }
        }
    }
    trace.ok_or_else(|| err(0, "missing `ranks` header"))
}

fn field<T: std::str::FromStr>(rest: &[&str], i: usize, line: usize) -> Result<T, ParseError>
where
    T::Err: std::fmt::Display,
{
    rest.get(i)
        .ok_or_else(|| err(line, format!("missing field {i}")))?
        .parse()
        .map_err(|e| err(line, format!("bad field {i}: {e}")))
}

fn parse_record(kw: &str, rest: &[&str], line: usize) -> Result<Record, ParseError> {
    Ok(match kw {
        "c" => Record::Compute {
            instr: Instructions(field(rest, 0, line)?),
        },
        "s" => Record::Send {
            dst: Rank(field(rest, 0, line)?),
            tag: Tag(field(rest, 1, line)?),
            bytes: Bytes(field(rest, 2, line)?),
            mode: parse_mode(rest, 3, line)?,
            transfer: parse_tid(rest.get(4).ok_or_else(|| err(line, "missing tid"))?, line)?,
        },
        "r" => Record::Recv {
            src: Rank(field(rest, 0, line)?),
            tag: Tag(field(rest, 1, line)?),
            bytes: Bytes(field(rest, 2, line)?),
            transfer: parse_tid(rest.get(3).ok_or_else(|| err(line, "missing tid"))?, line)?,
        },
        "is" => Record::ISend {
            dst: Rank(field(rest, 0, line)?),
            tag: Tag(field(rest, 1, line)?),
            bytes: Bytes(field(rest, 2, line)?),
            mode: parse_mode(rest, 3, line)?,
            req: ReqId(field(rest, 4, line)?),
            transfer: parse_tid(rest.get(5).ok_or_else(|| err(line, "missing tid"))?, line)?,
        },
        "ir" => Record::IRecv {
            src: Rank(field(rest, 0, line)?),
            tag: Tag(field(rest, 1, line)?),
            bytes: Bytes(field(rest, 2, line)?),
            req: ReqId(field(rest, 3, line)?),
            transfer: parse_tid(rest.get(4).ok_or_else(|| err(line, "missing tid"))?, line)?,
        },
        "w" => Record::Wait {
            req: ReqId(field(rest, 0, line)?),
        },
        "g" => {
            let name: String = field(rest, 0, line)?;
            Record::Collective {
                op: CollOp::from_name(&name)
                    .ok_or_else(|| err(line, format!("unknown collective `{name}`")))?,
                bytes_in: Bytes(field(rest, 1, line)?),
                bytes_out: Bytes(field(rest, 2, line)?),
                root: Rank(field(rest, 3, line)?),
                transfer: parse_tid(rest.get(4).ok_or_else(|| err(line, "missing tid"))?, line)?,
            }
        }
        "mb" => Record::Marker {
            marker: Marker::IterBegin(field(rest, 0, line)?),
        },
        "me" => Record::Marker {
            marker: Marker::IterEnd(field(rest, 0, line)?),
        },
        "mp" => Record::Marker {
            marker: Marker::Phase(field(rest, 0, line)?),
        },
        _ => return Err(err(line, format!("unknown record keyword `{kw}`"))),
    })
}

fn parse_mode(rest: &[&str], i: usize, line: usize) -> Result<SendMode, ParseError> {
    let s = rest
        .get(i)
        .ok_or_else(|| err(line, format!("missing mode field {i}")))?;
    SendMode::from_code(s).ok_or_else(|| err(line, format!("bad send mode `{s}`")))
}

/// Round-trip helper used by tests and the CLI.
pub fn roundtrip(trace: &Trace) -> Result<Trace, ParseError> {
    parse(&emit(trace))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> Trace {
        let mut t = Trace::new(2).with_meta("app", "demo").with_meta("iters", 3);
        let r0 = t.rank_mut(Rank(0));
        r0.push(Record::Marker {
            marker: Marker::IterBegin(0),
        });
        r0.push(Record::Compute {
            instr: Instructions(1000),
        });
        r0.push(Record::ISend {
            dst: Rank(1),
            tag: Tag::user(5).chunk(2),
            bytes: Bytes(1024),
            mode: SendMode::Eager,
            req: ReqId(7),
            transfer: TransferId::new(Rank(0), 0),
        });
        r0.push(Record::Wait { req: ReqId(7) });
        r0.push(Record::Collective {
            op: CollOp::Allreduce,
            bytes_in: Bytes(8),
            bytes_out: Bytes(8),
            root: Rank(0),
            transfer: TransferId::new(Rank(0), 1),
        });
        r0.push(Record::Marker {
            marker: Marker::IterEnd(0),
        });
        let r1 = t.rank_mut(Rank(1));
        r1.push(Record::IRecv {
            src: Rank(0),
            tag: Tag::user(5).chunk(2),
            bytes: Bytes(1024),
            req: ReqId(0),
            transfer: TransferId::new(Rank(1), 0),
        });
        r1.push(Record::Compute {
            instr: Instructions(500),
        });
        r1.push(Record::Wait { req: ReqId(0) });
        r1.push(Record::Collective {
            op: CollOp::Allreduce,
            bytes_in: Bytes(8),
            bytes_out: Bytes(8),
            root: Rank(0),
            transfer: TransferId::new(Rank(1), 1),
        });
        t
    }

    #[test]
    fn roundtrip_preserves_trace() {
        let t = sample_trace();
        let back = roundtrip(&t).expect("roundtrip");
        assert_eq!(t, back);
    }

    #[test]
    fn emit_starts_with_magic() {
        assert!(emit(&Trace::new(0)).starts_with(MAGIC));
    }

    #[test]
    fn rejects_bad_magic() {
        assert!(parse("#WRONG\nranks 0\n").is_err());
    }

    #[test]
    fn rejects_record_outside_rank() {
        let e = parse("#OVLP-TRACE 1\nranks 1\nc 5\n").unwrap_err();
        assert!(e.message.contains("outside rank"));
    }

    #[test]
    fn rejects_out_of_range_rank() {
        let e = parse("#OVLP-TRACE 1\nranks 1\nrank 4\nend\n").unwrap_err();
        assert!(e.message.contains("out of range"));
    }

    #[test]
    fn rejects_unknown_keyword() {
        let e = parse("#OVLP-TRACE 1\nranks 1\nrank 0\nzz 1\nend\n").unwrap_err();
        assert!(e.message.contains("unknown record keyword"));
    }

    #[test]
    fn meta_with_spaces_preserved() {
        let t = Trace::new(1).with_meta("desc", "hello world trace");
        let back = roundtrip(&t).unwrap();
        assert_eq!(
            back.meta.get("desc").map(String::as_str),
            Some("hello world trace")
        );
    }

    #[test]
    fn rejects_rank_headers_past_the_cap() {
        // refused before any per-rank storage is allocated
        let e = parse("#OVLP-TRACE 1\nranks 4000000000\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains(&MAX_RANKS.to_string()), "{e}");
        let at_cap = format!("#OVLP-TRACE 1\nranks {MAX_RANKS}\n");
        assert_eq!(parse(&at_cap).unwrap().nranks(), MAX_RANKS);
    }

    #[test]
    fn rejects_a_repeated_ranks_header() {
        let txt = "#OVLP-TRACE 1\nranks 2\nrank 0\nc 5\nend\nranks 3\n";
        let e = parse(txt).unwrap_err();
        assert_eq!(e.line, 6);
        assert!(e.message.contains("repeated"), "{e}");
    }

    #[test]
    fn blank_lines_and_comments_skipped() {
        let txt = "#OVLP-TRACE 1\n\nranks 1\n# comment\nrank 0\nc 5\n\nend\n";
        let t = parse(txt).unwrap();
        assert_eq!(t.rank(Rank(0)).records.len(), 1);
    }
}
