//! Self-contained HTML analysis report: the whole framework output for
//! one application — runtimes, pattern statistics, embedded SVG
//! timelines and the restructuring verdicts — in a single file a
//! colleague can open without any tooling.

use ovlp_machine::{CritPath, Metrics, SimResult, Time};
use std::fmt::Write as _;

/// Inputs for one report (everything is pre-rendered text/markup so
/// this module depends only on the machine layer).
#[derive(Debug, Clone, Default)]
pub struct ReportInputs {
    /// Application name.
    pub app: String,
    /// Rank count.
    pub ranks: usize,
    /// Platform description line.
    pub platform: String,
    /// Pre-rendered pattern tables (plain text, shown in `<pre>`).
    pub pattern_tables: String,
    /// Pre-rendered advisor output (plain text).
    pub advice: String,
    /// Extra note lines.
    pub notes: Vec<String>,
}

fn esc(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

/// Build the report. `variants` pairs a label with its simulation and,
/// optionally, its windowed metrics and critical path; the first entry
/// is the baseline for speedup computation. A variant carrying metrics
/// gets a link-utilization heatmap panel directly under its timeline
/// (shared time axis), and a per-link report table when the replay used
/// flow-level contention; one carrying a critical path gets its path
/// segments outlined on the timeline Gantt and a blame-attribution
/// section at the end.
pub fn report_full(
    inputs: &ReportInputs,
    variants: &[(&str, &SimResult, Option<&Metrics>, Option<&CritPath>)],
) -> String {
    let mut html = String::new();
    html.push_str("<!DOCTYPE html><html><head><meta charset=\"utf-8\">");
    let _ = write!(html, "<title>overlap-sim — {}</title>", esc(&inputs.app));
    html.push_str(
        "<style>body{font-family:sans-serif;max-width:1280px;margin:2em auto;\
         padding:0 1em;color:#222}pre{background:#f6f6f6;padding:.8em;\
         overflow-x:auto}table{border-collapse:collapse}td,th{border:1px solid \
         #ccc;padding:.3em .8em;text-align:right}th{background:#eee}\
         h2{border-bottom:1px solid #ddd;padding-bottom:.2em}</style></head><body>",
    );
    let _ = write!(
        html,
        "<h1>Communication-computation overlap analysis: {}</h1>\
         <p>{} ranks — {}</p>",
        esc(&inputs.app),
        inputs.ranks,
        esc(&inputs.platform)
    );

    // runtimes
    html.push_str(
        "<h2>Simulated runtimes</h2><table><tr><th>variant</th>\
                   <th>runtime</th><th>speedup</th><th>wait/rank</th></tr>",
    );
    let base = variants
        .first()
        .map(|(_, s, _, _)| s.runtime())
        .unwrap_or(1.0);
    for (label, sim, _, _) in variants {
        let nranks = sim.totals.len().max(1) as f64;
        let _ = write!(
            html,
            "<tr><td style=\"text-align:left\">{}</td><td>{:.3} ms</td>\
             <td>x{:.3}</td><td>{:.1} us</td></tr>",
            esc(label),
            sim.runtime() * 1e3,
            base / sim.runtime(),
            sim.total_wait() * 1e6 / nranks
        );
    }
    html.push_str("</table>");

    // timelines, each with its link-utilization heatmap when windowed
    // metrics were recorded (same width and span: the panels align)
    html.push_str("<h2>Timelines</h2>");
    let span = variants
        .iter()
        .map(|(_, s, _, _)| s.runtime)
        .max()
        .unwrap_or(Time::ZERO);
    for (label, sim, metrics, critpath) in variants {
        let _ = write!(html, "<h3>{}</h3>", esc(label));
        match critpath {
            Some(cp) => {
                html.push_str(&crate::critpath::timeline_svg_critpath(
                    label, sim, 1200, span, cp,
                ));
            }
            None => html.push_str(&crate::svg::timeline_svg(label, sim, 1200, span)),
        }
        if let Some(m) = metrics {
            let heat = crate::heatmap::link_heatmap_svg("link utilization", m, 1200, span, 16);
            if !heat.is_empty() {
                html.push_str("<br>");
                html.push_str(&heat);
            }
        }
    }

    // per-link usage tables (flow-level replays only)
    let link_reports: Vec<(&str, String)> = variants
        .iter()
        .filter(|(_, s, _, _)| !s.links.is_empty())
        .map(|(label, sim, _, _)| (*label, crate::links::link_report(sim, 12)))
        .collect();
    if !link_reports.is_empty() {
        html.push_str("<h2>Link usage</h2>");
        for (label, text) in link_reports {
            let _ = write!(html, "<h3>{}</h3><pre>{}</pre>", esc(label), esc(&text));
        }
    }

    // blame attribution (variants carrying critical paths only)
    let blames: Vec<(&str, String)> = variants
        .iter()
        .filter_map(|(label, _, _, cp)| cp.map(|cp| (*label, crate::critpath::critpath_report(cp))))
        .collect();
    if !blames.is_empty() {
        html.push_str("<h2>Critical path</h2>");
        for (label, text) in blames {
            let _ = write!(html, "<h3>{}</h3><pre>{}</pre>", esc(label), esc(&text));
        }
    }

    // patterns + advice
    if !inputs.pattern_tables.is_empty() {
        let _ = write!(
            html,
            "<h2>Production/consumption patterns</h2><pre>{}</pre>",
            esc(&inputs.pattern_tables)
        );
    }
    if !inputs.advice.is_empty() {
        let _ = write!(
            html,
            "<h2>Restructuring advice</h2><pre>{}</pre>",
            esc(&inputs.advice)
        );
    }
    if !inputs.notes.is_empty() {
        html.push_str("<h2>Notes</h2><ul>");
        for n in &inputs.notes {
            let _ = write!(html, "<li>{}</li>", esc(n));
        }
        html.push_str("</ul>");
    }
    html.push_str("</body></html>");
    html
}

#[cfg(test)]
mod tests {
    use super::*;
    use ovlp_machine::{simulate, Platform};
    use ovlp_trace::record::{Record, SendMode};
    use ovlp_trace::{Bytes, Instructions, Rank, Tag, Trace, TransferId};

    fn sim() -> SimResult {
        let mut t = Trace::new(2);
        t.rank_mut(Rank(0)).push(Record::Compute {
            instr: Instructions(1_000_000),
        });
        t.rank_mut(Rank(0)).push(Record::Send {
            dst: Rank(1),
            tag: Tag::user(0),
            bytes: Bytes(4096),
            mode: SendMode::Eager,
            transfer: TransferId::new(Rank(0), 0),
        });
        t.rank_mut(Rank(1)).push(Record::Recv {
            src: Rank(0),
            tag: Tag::user(0),
            bytes: Bytes(4096),
            transfer: TransferId::new(Rank(1), 0),
        });
        simulate(&t, &Platform::default()).unwrap()
    }

    fn inputs() -> ReportInputs {
        ReportInputs {
            app: "demo <app>".to_string(),
            ranks: 2,
            platform: "250 MB/s, 6 buses".to_string(),
            pattern_tables: "table body".to_string(),
            advice: "already-hidden 3".to_string(),
            notes: vec!["a & b".to_string()],
        }
    }

    #[test]
    fn report_is_self_contained_html() {
        let s = sim();
        let html = report_full(
            &inputs(),
            &[("original", &s, None, None), ("overlapped", &s, None, None)],
        );
        assert!(html.starts_with("<!DOCTYPE html>"));
        assert!(html.ends_with("</body></html>"));
        assert!(html.contains("<svg"), "embedded timelines");
        assert_eq!(html.matches("<svg").count(), 2);
        assert!(html.contains("x1.000"), "speedup vs baseline");
    }

    #[test]
    fn content_is_escaped() {
        let s = sim();
        let html = report_full(&inputs(), &[("orig<inal", &s, None, None)]);
        assert!(html.contains("demo &lt;app&gt;"));
        assert!(html.contains("orig&lt;inal"));
        assert!(html.contains("a &amp; b"));
    }

    #[test]
    fn metrics_variant_gets_heatmap_and_link_table() {
        use ovlp_machine::{simulate_probed, Topology, WindowedRecorder};
        let mut t = Trace::new(2);
        t.rank_mut(Rank(0)).push(Record::Send {
            dst: Rank(1),
            tag: Tag::user(0),
            bytes: Bytes(1_000_000),
            mode: SendMode::Eager,
            transfer: TransferId::new(Rank(0), 0),
        });
        t.rank_mut(Rank(1)).push(Record::Recv {
            src: Rank(0),
            tag: Tag::user(0),
            bytes: Bytes(1_000_000),
            transfer: TransferId::new(Rank(1), 0),
        });
        let p = Platform::default().with_topology(Topology::Crossbar);
        let mut rec = WindowedRecorder::new(Time::micros(500.0));
        let s = simulate_probed(&t, &p, &mut rec).unwrap();
        let m = rec.into_metrics().unwrap();
        let html = report_full(&inputs(), &[("original", &s, Some(&m), None)]);
        assert!(html.contains("link utilization"), "heatmap panel");
        assert_eq!(html.matches("<svg").count(), 2, "timeline + heatmap");
        assert!(html.contains("Link usage"), "link report section");
        assert!(html.contains("n0-&gt;sw"), "link labels escaped");
    }

    #[test]
    fn empty_sections_are_omitted() {
        let s = sim();
        let html = report_full(
            &ReportInputs {
                app: "x".into(),
                ranks: 2,
                platform: "p".into(),
                ..ReportInputs::default()
            },
            &[("only", &s, None, None)],
        );
        assert!(!html.contains("Restructuring advice"));
        assert!(!html.contains("<ul>"));
    }
}
