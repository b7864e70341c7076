//! Text serialization of access logs.
//!
//! The paper's Valgrind tool emits its artifacts as files consumed
//! off-line by Dimemas; the framework mirrors that for the access
//! database so a traced run can be fully captured on disk
//! (`.trf` + `.acc`) and transformed later.
//!
//! Format (line oriented):
//!
//! ```text
//! #OVLP-ACCESS 1
//! ranks 2
//! p 0.3 8 100 900          # production: transfer elems start end
//! ls 0 150                 #   last store: offset at
//! e 0 120                  #   raw store event (scatter)
//! c 1.3 8 900 1800         # consumption: transfer elems start end
//! fl 2 950                 #   first load: offset at
//! ```
//!
//! Summaries (`ls`/`fl`) only list elements that were accessed; raw
//! events (`e`) are optional scatter data.

use crate::access::{AccessDb, AccessEvent, ConsumptionLog, ProductionLog, Stamp};
use crate::ids::{Rank, TransferId};
use crate::text::header_ranks;
use crate::units::Instructions;
use std::io::{self, BufRead, BufWriter, Write};

pub const MAGIC: &str = "#OVLP-ACCESS 1";

/// Most elements one `p`/`c` line may declare. The reader allocates an
/// 8-byte stamp per declared element when it reads the line, so
/// without a cap a three-line file could demand any amount of memory.
/// A whole file may declare one element per byte of its text (at least
/// this cap), so its stamps take at most eight times its size. `ovlp
/// trace` writes at most 5,000 per line and 0.032 per byte (every pool
/// app at 16–256 ranks), since each accessed element also costs an
/// `ls`/`fl` line.
pub const MAX_ELEMS: u32 = 1 << 24;

/// Errors produced when parsing an access-log file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessParseError {
    pub line: usize,
    pub message: String,
    pub kind: AccessErrorKind,
}

/// What is wrong with a refused access log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessErrorKind {
    /// Unreadable, malformed or past a cap.
    Malformed,
    /// Well formed, but a log contradicts itself (an interval that
    /// starts after it ends).
    Inconsistent,
}

impl std::fmt::Display for AccessParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "access parse error at line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for AccessParseError {}

fn err(line: usize, message: impl ToString) -> AccessParseError {
    AccessParseError {
        line,
        message: message.to_string(),
        kind: AccessErrorKind::Malformed,
    }
}

/// Serialize an access database to `out`, one line at a time (a
/// traced run's log can run to gigabytes, so it is never held as one
/// string). `out` is buffered here.
pub fn emit(db: &AccessDb, out: impl Write) -> io::Result<()> {
    let mut out = BufWriter::new(out);
    writeln!(out, "{MAGIC}")?;
    writeln!(out, "ranks {}", db.ranks.len())?;
    for rank in &db.ranks {
        let mut prods: Vec<&ProductionLog> = rank.productions.values().collect();
        prods.sort_by_key(|p| p.transfer.seq);
        for p in prods {
            writeln!(
                out,
                "p {}.{} {} {} {}",
                p.transfer.rank.get(),
                p.transfer.seq,
                p.elems,
                p.interval_start.get(),
                p.interval_end.get()
            )?;
            for (i, t) in p.last_store().iter().enumerate() {
                if let Some(t) = t.get() {
                    writeln!(out, "ls {} {}", i, t.get())?;
                }
            }
            for e in &p.events {
                writeln!(out, "e {} {}", e.offset, e.at.get())?;
            }
        }
        let mut cons: Vec<&ConsumptionLog> = rank.consumptions.values().collect();
        cons.sort_by_key(|c| c.transfer.seq);
        for c in cons {
            writeln!(
                out,
                "c {}.{} {} {} {}",
                c.transfer.rank.get(),
                c.transfer.seq,
                c.elems,
                c.interval_start.get(),
                c.interval_end.get()
            )?;
            for (i, t) in c.first_load().iter().enumerate() {
                if let Some(t) = t.get() {
                    writeln!(out, "fl {} {}", i, t.get())?;
                }
            }
            for e in &c.events {
                writeln!(out, "e {} {}", e.offset, e.at.get())?;
            }
        }
    }
    out.flush()
}

/// The log being read: its header line and the stamps and scatter
/// read so far. It is sealed (and indexed) when the next header or the
/// end of input closes it.
struct Open {
    production: bool,
    transfer: TransferId,
    start: Instructions,
    end: Instructions,
    stamps: Vec<Stamp>,
    events: Vec<AccessEvent>,
}

/// Parse an access database from `input`, one line at a time. A file
/// may declare, up to any line, one element per byte read so far (at
/// least [`MAX_ELEMS`]), so the stamps never take more than eight times
/// the text behind them. An interval that starts after it ends is
/// refused with [`AccessErrorKind::Inconsistent`].
pub fn parse(mut input: impl BufRead) -> Result<AccessDb, AccessParseError> {
    let mut db: Option<AccessDb> = None;
    let mut open: Option<Open> = None;
    let mut declared = 0usize;
    let mut read = 0usize;
    let mut raw = String::new();
    let mut lineno = 0usize;

    fn flush(db: &mut AccessDb, open: &mut Option<Open>) {
        let Some(o) = open.take() else {
            return;
        };
        if o.production {
            let mut p = ProductionLog::new(o.transfer, o.start, o.end, o.stamps);
            p.events = o.events;
            db.insert_production(p);
        } else {
            let mut c = ConsumptionLog::new(o.transfer, o.start, o.end, o.stamps);
            c.events = o.events;
            db.insert_consumption(c);
        }
    }

    loop {
        raw.clear();
        let n = input.read_line(&mut raw).map_err(|e| err(lineno + 1, e))?;
        if n == 0 {
            break;
        }
        lineno += 1;
        read += n;
        if lineno == 1 {
            if raw.trim() != MAGIC {
                return Err(err(1, format!("bad magic line `{}`", raw.trim_end())));
            }
            continue;
        }
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut f = line.split_whitespace();
        let kw = f.next().unwrap();
        let rest: Vec<&str> = f.collect();
        match kw {
            "ranks" => {
                if db.is_some() {
                    return Err(err(lineno, "repeated `ranks` header"));
                }
                let n = header_ranks(parse_field(&rest, 0, lineno)?).map_err(|m| err(lineno, m))?;
                db = Some(AccessDb::new(n));
            }
            "p" | "c" => {
                let db_ref = db
                    .as_mut()
                    .ok_or_else(|| err(lineno, "record before `ranks`"))?;
                flush(db_ref, &mut open);
                let tid = parse_tid(rest.first().copied(), lineno)?;
                if tid.rank.idx() >= db_ref.ranks.len() {
                    return Err(err(lineno, format!("rank {} out of range", tid.rank)));
                }
                let elems: u32 = parse_field(&rest, 1, lineno)?;
                declared += elems as usize;
                let budget = read.max(MAX_ELEMS as usize);
                if elems > MAX_ELEMS || declared > budget {
                    return Err(err(
                        lineno,
                        format!(
                            "{elems} elements pass the element cap: {MAX_ELEMS} per line, \
                             {budget} in this file so far (one per byte of text)"
                        ),
                    ));
                }
                let start: u64 = parse_field(&rest, 2, lineno)?;
                let end: u64 = parse_field(&rest, 3, lineno)?;
                let production = kw == "p";
                if start > end {
                    let what = if production {
                        "production"
                    } else {
                        "consumption"
                    };
                    return Err(AccessParseError {
                        line: lineno,
                        message: format!(
                            "{what} {}.{} has an interval that starts after it ends \
                             ({start} > {end})",
                            tid.rank.get(),
                            tid.seq
                        ),
                        kind: AccessErrorKind::Inconsistent,
                    });
                }
                open = Some(Open {
                    production,
                    transfer: tid,
                    start: Instructions(start),
                    end: Instructions(end),
                    stamps: vec![Stamp::NEVER; elems as usize],
                    events: Vec::new(),
                });
            }
            "ls" | "fl" => {
                let i: usize = parse_field(&rest, 0, lineno)?;
                let t = parse_stamp(&rest, lineno)?;
                let production = kw == "ls";
                match &mut open {
                    Some(o) if o.production == production => {
                        *o.stamps
                            .get_mut(i)
                            .ok_or_else(|| err(lineno, format!("{kw} offset out of range")))? = t;
                    }
                    _ if production => return Err(err(lineno, "`ls` outside production block")),
                    _ => return Err(err(lineno, "`fl` outside consumption block")),
                }
            }
            "e" => {
                let offset: u32 = parse_field(&rest, 0, lineno)?;
                let at: u64 = parse_field(&rest, 1, lineno)?;
                let ev = AccessEvent {
                    offset,
                    at: Instructions(at),
                };
                match &mut open {
                    Some(o) => o.events.push(ev),
                    None => return Err(err(lineno, "`e` outside any block")),
                }
            }
            other => return Err(err(lineno, format!("unknown keyword `{other}`"))),
        }
    }
    if lineno == 0 {
        return Err(err(0, "empty input"));
    }
    let mut db = db.ok_or_else(|| err(0, "missing `ranks` header"))?;
    flush(&mut db, &mut open);
    Ok(db)
}

fn parse_field<T: std::str::FromStr>(
    rest: &[&str],
    i: usize,
    line: usize,
) -> Result<T, AccessParseError>
where
    T::Err: std::fmt::Display,
{
    rest.get(i)
        .ok_or_else(|| err(line, format!("missing field {i}")))?
        .parse()
        .map_err(|e| err(line, format!("bad field {i}: {e}")))
}

/// The access time in field 1 of an `ls`/`fl` line, packed.
fn parse_stamp(rest: &[&str], line: usize) -> Result<Stamp, AccessParseError> {
    let t: u64 = parse_field(rest, 1, line)?;
    if t == u64::MAX {
        return Err(err(line, "bad field 1: access time out of range"));
    }
    Ok(Stamp::at(t))
}

fn parse_tid(s: Option<&str>, line: usize) -> Result<TransferId, AccessParseError> {
    let s = s.ok_or_else(|| err(line, "missing transfer id"))?;
    let (a, b) = s
        .split_once('.')
        .ok_or_else(|| err(line, format!("bad transfer id `{s}`")))?;
    Ok(TransferId::new(
        Rank(a.parse().map_err(|e| err(line, format!("bad rank: {e}")))?),
        b.parse().map_err(|e| err(line, format!("bad seq: {e}")))?,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::{consumption_log_for_test, production_log_for_test};

    fn emit_text(db: &AccessDb) -> String {
        let mut out = Vec::new();
        emit(db, &mut out).unwrap();
        String::from_utf8(out).unwrap()
    }

    fn parse_text(text: &str) -> Result<AccessDb, AccessParseError> {
        parse(text.as_bytes())
    }

    fn sample() -> AccessDb {
        let mut db = AccessDb::new(2);
        let mut p = production_log_for_test(0, 3, 100, 900, &[Some(200), None, Some(850)]);
        p.events = vec![
            AccessEvent {
                offset: 0,
                at: Instructions(150),
            },
            AccessEvent {
                offset: 2,
                at: Instructions(850),
            },
        ];
        db.insert_production(p);
        db.insert_consumption(consumption_log_for_test(
            1,
            7,
            900,
            1800,
            &[Some(950), None],
        ));
        db.insert_production(production_log_for_test(1, 8, 0, 10, &[None]));
        db
    }

    #[test]
    fn roundtrip_preserves_db() {
        let db = sample();
        let back = parse_text(&emit_text(&db)).expect("roundtrip");
        assert_eq!(db, back);
    }

    #[test]
    fn emit_is_stable() {
        let db = sample();
        let a = emit_text(&db);
        let b = emit_text(&parse_text(&a).unwrap());
        assert_eq!(a, b);
    }

    #[test]
    fn rejects_bad_magic() {
        assert!(parse_text("#WRONG\n").is_err());
    }

    #[test]
    fn rejects_summary_outside_block() {
        let e = parse_text("#OVLP-ACCESS 1\nranks 1\nls 0 5\n").unwrap_err();
        assert!(e.message.contains("outside production"));
    }

    #[test]
    fn rejects_out_of_range_offset() {
        let txt = "#OVLP-ACCESS 1\nranks 1\np 0.0 2 0 10\nls 5 3\n";
        let e = parse_text(txt).unwrap_err();
        assert!(e.message.contains("out of range"));
    }

    #[test]
    fn rejects_unpackable_access_time() {
        let txt = format!("#OVLP-ACCESS 1\nranks 1\np 0.0 1 0 10\nls 0 {}\n", u64::MAX);
        let e = parse_text(&txt).unwrap_err();
        assert!(e.message.contains("access time out of range"), "{e}");
    }

    #[test]
    fn rejects_intervals_that_start_after_they_end() {
        for (txt, what) in [
            ("p 0.0 5000 7000 5000", "production 0.0"),
            ("c 0.1 5000 5000 0", "consumption 0.1"),
        ] {
            let e = parse_text(&format!("#OVLP-ACCESS 1\nranks 1\n{txt}\n")).unwrap_err();
            assert_eq!((e.line, e.kind), (3, AccessErrorKind::Inconsistent), "{e}");
            assert!(e.message.contains(what), "{e}");
        }
        // an empty interval is consistent
        assert!(parse_text("#OVLP-ACCESS 1\nranks 1\nc 0.1 2 9 9\n").is_ok());
        let e = parse_text("#OVLP-ACCESS 1\nranks 1\nls 0 5\n").unwrap_err();
        assert_eq!(e.kind, AccessErrorKind::Malformed);
    }

    #[test]
    fn rejects_rank_overflow() {
        let txt = "#OVLP-ACCESS 1\nranks 1\np 7.0 1 0 10\n";
        let e = parse_text(txt).unwrap_err();
        assert!(e.message.contains("out of range"));
    }

    #[test]
    fn rejects_rank_headers_past_the_cap() {
        // refused before any per-rank storage is allocated
        let e = parse_text("#OVLP-ACCESS 1\nranks 4000000000\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(
            e.message.contains(&crate::text::MAX_RANKS.to_string()),
            "{e}"
        );
    }

    #[test]
    fn rejects_a_repeated_ranks_header() {
        let txt = "#OVLP-ACCESS 1\nranks 1\np 0.0 1 0 10\nranks 2\n";
        let e = parse_text(txt).unwrap_err();
        assert_eq!(e.line, 4);
        assert!(e.message.contains("repeated"), "{e}");
    }

    #[test]
    fn rejects_element_counts_past_the_caps() {
        // refused before the stamps are allocated
        let e = parse_text("#OVLP-ACCESS 1\nranks 8\np 0.0 4000000000 0 10\n").unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.message.contains(&MAX_ELEMS.to_string()), "{e}");
        // each line under the cap, together past the file's budget
        let line = format!("p 0.0 {MAX_ELEMS} 0 10\n");
        let e = parse_text(&format!("#OVLP-ACCESS 1\nranks 1\n{line}{line}")).unwrap_err();
        assert_eq!(e.line, 4);
        assert!(e.message.contains("one per byte"), "{e}");
    }

    #[test]
    fn unreadable_input_fails_at_its_line() {
        let e = parse(&b"#OVLP-ACCESS 1\nranks 1\n\xff\n"[..]).unwrap_err();
        assert_eq!(e.line, 3);
    }

    #[test]
    fn empty_db_roundtrips() {
        let db = AccessDb::new(3);
        assert_eq!(parse_text(&emit_text(&db)).unwrap(), db);
    }
}
