//! Host-time spans recorded around the benchmark's calls into the
//! simulator's layers.
//!
//! A span has a name, a start and end relative to a shared epoch, the
//! span that was open when it started (its parent), and a request id —
//! the job or operation it belongs to. Spans stay in memory and are
//! written out once, when the run ends. A recorder created disabled
//! keeps nothing, so the same code path serves traced and untraced
//! operations.

use overlap_sim::serve::json::{Obj, Value};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: Duration,
    pub end: Duration,
    pub parent: Option<usize>,
    pub request: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }
}

/// Handle of an open span; pass it back to [`Spans::exit`].
#[must_use]
pub struct Open(Option<usize>);

pub struct Spans {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Per-name totals: the spans' summed duration and summed self time
/// (duration minus the time their children cover).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Totals {
    pub total_s: f64,
    pub self_s: f64,
}

impl Spans {
    pub fn new(epoch: Instant, enabled: bool) -> Spans {
        Spans {
            epoch,
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enter(&mut self, name: &'static str, request: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let now = self.epoch.elapsed();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent: self.open.last().copied(),
            request,
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        Open(Some(id))
    }

    pub fn exit(&mut self, open: Open) {
        let Some(id) = open.0 else { return };
        self.spans[id].end = self.epoch.elapsed();
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans must close innermost first");
    }

    /// Time `f` as one span named `name`.
    pub fn time<T>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> T) -> T {
        let open = self.enter(name, request);
        let out = f();
        self.exit(open);
        out
    }

    /// Record a span measured elsewhere (e.g. on a client thread),
    /// with no parent.
    pub fn record(&mut self, name: &'static str, request: u64, start: Instant, end: Instant) {
        if self.enabled {
            self.spans.push(Span {
                name,
                start: start.saturating_duration_since(self.epoch),
                end: end.saturating_duration_since(self.epoch),
                parent: None,
                request,
            });
        }
    }

    /// Move another recorder's spans (same epoch) into this one.
    pub fn absorb(&mut self, other: Spans) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Rebuild spans another process wrote with [`Spans::to_json`] for
    /// one request, placing its epoch `offset` after `epoch`. Span names
    /// must be among `names`.
    pub fn from_json(
        doc: &Value,
        epoch: Instant,
        offset: Duration,
        names: &[&'static str],
        request: u64,
    ) -> Result<Spans, String> {
        let list = doc
            .as_obj()
            .and_then(|o| o.get("spans"))
            .and_then(Value::as_arr)
            .ok_or("no span list")?;
        let mut out = Spans::new(epoch, true);
        for s in list {
            let s = s.as_obj().ok_or("span is not an object")?;
            let num = |k: &str| {
                s.get(k)
                    .and_then(Value::as_f64)
                    .ok_or(format!("span lacks {k}"))
            };
            let text = s.get("name").and_then(Value::as_str).unwrap_or("");
            let name = names
                .iter()
                .find(|n| **n == text)
                .ok_or_else(|| format!("unknown span name `{text}`"))?;
            let at = |us: f64| offset + Duration::from_secs_f64(us.max(0.0) / 1e6);
            out.spans.push(Span {
                name,
                start: at(num("start_us")?),
                end: at(num("end_us")?),
                parent: s.get("parent").and_then(Value::as_u64).map(|p| p as usize),
                request,
            });
        }
        Ok(out)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summed duration of the spans without a parent.
    pub fn top_level_s(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(Span::secs)
            .sum()
    }

    /// Totals per span name. Children of one span never overlap (they
    /// run on the parent's thread), so self time is the duration minus
    /// the children's summed durations.
    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        let mut child_s = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_s[p] += s.secs();
            }
        }
        let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_s) {
            let t = out.entry(s.name).or_default();
            t.total_s += s.secs();
            t.self_s += (s.secs() - children).max(0.0);
        }
        out
    }

    /// Self time summed over every span whose name starts with `prefix`.
    pub fn self_s(&self, prefix: &str) -> f64 {
        self.totals()
            .iter()
            .filter(|(name, _)| name.starts_with(prefix))
            .map(|(_, t)| t.self_s)
            .sum()
    }

    /// The spans as one JSON document.
    pub fn to_json(&self) -> String {
        let us = |d: Duration| Value::Num(d.as_secs_f64() * 1e6);
        let list = self
            .spans
            .iter()
            .map(|s| {
                let mut o = Obj::new();
                o.set("name", Value::str(s.name));
                o.set("start_us", us(s.start));
                o.set("end_us", us(s.end));
                o.set(
                    "parent",
                    s.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                );
                o.set("request", Value::Num(s.request as f64));
                Value::Obj(o)
            })
            .collect();
        let mut doc = Obj::new();
        doc.set("schema", Value::str("ovlp.benchmark-spans.v1"));
        doc.set("spans", Value::Arr(list));
        Value::Obj(doc).to_string()
    }
}

/// Measured cost of recording one span (enter plus exit), in seconds:
/// the tracing overhead a traced run adds per span.
pub fn cost_s() -> f64 {
    const N: usize = 20_000;
    let mut sp = Spans::new(Instant::now(), true);
    let t = Instant::now();
    for i in 0..N {
        let open = sp.enter("cost", i as u64);
        sp.exit(open);
    }
    std::hint::black_box(&sp);
    t.elapsed().as_secs_f64() / N as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut sp = Spans::new(Instant::now(), true);
        let outer = sp.enter("outer", 1);
        sp.time("inner", 1, || std::thread::sleep(Duration::from_millis(20)));
        std::thread::sleep(Duration::from_millis(5));
        sp.exit(outer);
        let t = sp.totals();
        assert_eq!(sp.spans()[1].parent, Some(0));
        assert!(t["inner"].self_s >= 0.02);
        assert!(t["outer"].total_s >= t["inner"].total_s + 0.005);
        assert!(t["outer"].self_s < t["outer"].total_s - 0.019);
        assert_eq!(sp.top_level_s(), t["outer"].total_s);
    }

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let mut sp = Spans::new(Instant::now(), false);
        let v = sp.time("x", 0, || 7);
        sp.record("y", 0, Instant::now(), Instant::now());
        assert_eq!(v, 7);
        assert!(sp.spans().is_empty());
        assert_eq!(
            sp.to_json(),
            r#"{"schema":"ovlp.benchmark-spans.v1","spans":[]}"#
        );
    }

    #[test]
    fn absorbed_spans_keep_their_parents() {
        let epoch = Instant::now();
        let mut a = Spans::new(epoch, true);
        a.time("a", 1, || ());
        let mut b = Spans::new(epoch, true);
        let o = b.enter("b", 2);
        b.time("b.child", 2, || ());
        b.exit(o);
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, Some(1));
        assert!(a.totals().contains_key("b.child"));
    }

    #[test]
    fn spans_survive_a_json_round_trip() {
        let epoch = Instant::now();
        let mut a = Spans::new(epoch, true);
        let o = a.enter("b", 2);
        a.time("b.child", 2, || {
            std::thread::sleep(Duration::from_millis(2))
        });
        a.exit(o);
        let doc = overlap_sim::serve::json::parse(&a.to_json()).unwrap();
        let offset = Duration::from_secs(1);
        let b = Spans::from_json(&doc, epoch, offset, &["b", "b.child"], 7).unwrap();
        assert_eq!(b.spans().len(), 2);
        assert_eq!(b.spans()[1].parent, Some(0));
        assert_eq!(b.spans()[1].request, 7);
        assert!(b.spans()[0].start >= offset);
        assert!((b.totals()["b.child"].total_s - a.totals()["b.child"].total_s).abs() < 1e-5);
        assert!(Spans::from_json(&doc, epoch, offset, &["b"], 7).is_err());
    }
}
