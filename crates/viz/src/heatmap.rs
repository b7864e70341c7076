//! Link-utilization-over-time heatmaps (ASCII and SVG).
//!
//! Renders the windowed per-link utilization series of a
//! [`Metrics`](ovlp_machine::Metrics) document as a heatmap whose time
//! axis matches the Gantt charts: the ASCII variant uses the same
//! 5-column gutter and column count as [`ascii::gantt`](crate::gantt),
//! and the SVG variant uses the same left offset and pixel scale as
//! [`timeline_svg`](crate::timeline_svg), so stacking them puts a
//! saturated link directly under the waits it causes.

use ovlp_machine::{Metrics, Time};
use std::fmt::Write as _;

/// Busiest-first link ordering (total bytes desc, then link order),
/// truncated to `top` rows (0 = all).
fn link_order(m: &Metrics, top: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..m.links.len()).collect();
    order.sort_by(|&a, &b| {
        let (ba, bb) = (
            m.links[a].bytes.iter().sum::<f64>(),
            m.links[b].bytes.iter().sum::<f64>(),
        );
        bb.partial_cmp(&ba)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    if top > 0 {
        order.truncate(top);
    }
    order
}

/// Utilization of `link` at time `t`, or 0 past the recorded windows.
fn util_at(m: &Metrics, link: usize, t: f64) -> f64 {
    let w = (t / m.window_s).floor();
    if w < 0.0 {
        return 0.0;
    }
    let w = w as usize;
    if w < m.windows {
        m.links[link].utilization[w]
    } else {
        0.0
    }
}

const RAMP: &[char] = &['.', ':', '-', '=', '+', '*', '#', '%', '@'];

fn ramp_glyph(u: f64) -> char {
    if u <= 0.0 {
        return ' ';
    }
    let i = (u * RAMP.len() as f64).floor() as usize;
    RAMP[i.min(RAMP.len() - 1)]
}

/// ASCII heatmap: one lane per link (`L0`, `L1`, ... busiest first),
/// `width` columns spanning `[0, span]` seconds — the same axis as
/// [`gantt`](crate::gantt) rendered with the same `width` and `span`.
/// Each cell shows the utilization of the window at the column's
/// midpoint on the ramp ` .:-=+*#%@` (blank = idle, `@` ≈ saturated).
/// A legend maps lanes back to link labels. Empty string when the
/// metrics carry no links (bus contention model).
pub fn link_heatmap_ascii(m: &Metrics, width: usize, span: Time, top: usize) -> String {
    if m.links.is_empty() {
        return String::new();
    }
    let width = width.max(10);
    let order = link_order(m, top);
    let dt = span.as_secs() / width as f64;
    let mut out = String::new();
    for (lane, &l) in order.iter().enumerate() {
        let _ = write!(out, "L{lane:<3}|");
        for col in 0..width {
            let t = (col as f64 + 0.5) * dt;
            out.push(ramp_glyph(util_at(m, l, t)));
        }
        out.push_str("|\n");
    }
    let _ = writeln!(
        out,
        "     link utilization/{} window   [ =idle .:-=+*#%@ =saturated]",
        Time::secs(m.window_s)
    );
    for (lane, &l) in order.iter().enumerate() {
        let link = &m.links[l];
        let peak = link.utilization.iter().copied().fold(0.0, f64::max);
        let _ = writeln!(
            out,
            "     L{lane} = {:<16} {:>10.3} MB  peak {:>5.1}%{}",
            link.label,
            link.bytes.iter().sum::<f64>() / 1e6,
            100.0 * peak,
            if link.faulted { "  [faulted]" } else { "" }
        );
    }
    if order.len() < m.links.len() {
        let _ = writeln!(out, "     ... ({} more links)", m.links.len() - order.len());
    }
    out
}

/// Heat color: white (idle) through orange to deep red (saturated).
fn heat_color(u: f64) -> String {
    let u = u.clamp(0.0, 1.0);
    // white (255,255,255) -> orange (253,141,60) -> red (165,0,38)
    let (r, g, b) = if u < 0.5 {
        let f = u / 0.5;
        (
            255.0 + (253.0 - 255.0) * f,
            255.0 + (141.0 - 255.0) * f,
            255.0 + (60.0 - 255.0) * f,
        )
    } else {
        let f = (u - 0.5) / 0.5;
        (
            253.0 + (165.0 - 253.0) * f,
            141.0 * (1.0 - f),
            60.0 + (38.0 - 60.0) * f,
        )
    };
    format!("#{:02x}{:02x}{:02x}", r as u8, g as u8, b as u8)
}

/// SVG heatmap: one 12 px row per link (busiest first), one cell per
/// metric window, colored white→red by utilization. Uses the same left
/// gutter (48 px) and time scale as [`timeline_svg`](crate::timeline_svg)
/// rendered with the same `width` and `span`, so the two stack into an
/// aligned panel. Empty string when the metrics carry no links.
pub fn link_heatmap_svg(title: &str, m: &Metrics, width: u32, span: Time, top: usize) -> String {
    if m.links.is_empty() {
        return String::new();
    }
    let row_h = 12.0;
    let row_gap = 2.0;
    let left = 48.0;
    let top_pad = 24.0;
    let order = link_order(m, top);
    let height = top_pad + order.len() as f64 * (row_h + row_gap) + 16.0;
    let scale = (width as f64 - left - 8.0) / span.as_secs().max(1e-12);
    let mut s = String::new();
    let _ = write!(
        s,
        r#"<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height:.0}" font-family="monospace" font-size="9">"#
    );
    let _ = write!(
        s,
        r#"<text x="4" y="14" font-size="11">{}</text>"#,
        xml_escape(title)
    );
    for (lane, &l) in order.iter().enumerate() {
        let link = &m.links[l];
        let y = top_pad + lane as f64 * (row_h + row_gap);
        // faulted links get a red label so degraded/killed fabric is
        // visible even where their utilization rows go blank
        if link.faulted {
            let _ = write!(
                s,
                r##"<text x="4" y="{:.1}" fill="#a50026">{} [faulted]</text>"##,
                y + row_h - 3.0,
                xml_escape(&link.label)
            );
        } else {
            let _ = write!(
                s,
                r#"<text x="4" y="{:.1}">{}</text>"#,
                y + row_h - 3.0,
                xml_escape(&link.label)
            );
        }
        for (w, &u) in link.utilization.iter().enumerate() {
            if u <= 0.0 {
                continue;
            }
            let x0 = left + w as f64 * m.window_s * scale;
            let cell_w = (m.window_s * scale).max(0.3);
            let _ = write!(
                s,
                r#"<rect x="{x0:.2}" y="{y:.2}" width="{cell_w:.2}" height="{row_h}" fill="{}"><title>{} w{} {:.1}%</title></rect>"#,
                heat_color(u),
                xml_escape(&link.label),
                w,
                100.0 * u
            );
        }
    }
    s.push_str("</svg>");
    s
}

fn xml_escape(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

#[cfg(test)]
mod tests {
    use super::*;
    use ovlp_machine::{simulate_probed, Platform, Topology, WindowedRecorder};
    use ovlp_trace::record::{Record, SendMode};
    use ovlp_trace::{Bytes, Rank, Tag, Trace, TransferId};

    fn metrics() -> Metrics {
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
        let mut rec = WindowedRecorder::new(ovlp_machine::Time::micros(500.0));
        simulate_probed(&t, &p, &mut rec).unwrap();
        rec.into_metrics().unwrap()
    }

    #[test]
    fn ascii_heatmap_shows_busy_links() {
        let m = metrics();
        let span = ovlp_machine::Time::secs(m.runtime_s);
        let text = link_heatmap_ascii(&m, 40, span, 2);
        assert!(text.contains("L0  |"), "{text}");
        assert!(text.contains("n0->sw"), "legend: {text}");
        assert!(text.contains("more links"), "idle links elided: {text}");
        // the busy link must render non-blank cells
        let lane0 = text.lines().next().unwrap();
        assert!(lane0.chars().any(|c| RAMP.contains(&c)), "{lane0}");
    }

    #[test]
    fn ascii_heatmap_empty_without_links() {
        let mut t = Trace::new(1);
        t.rank_mut(Rank(0)).push(Record::Compute {
            instr: ovlp_trace::Instructions(1000),
        });
        let mut rec = WindowedRecorder::new(ovlp_machine::Time::micros(100.0));
        let sim = simulate_probed(&t, &Platform::default(), &mut rec).unwrap();
        let m = rec.into_metrics().unwrap();
        assert_eq!(link_heatmap_ascii(&m, 40, sim.runtime, 0), "");
        assert_eq!(link_heatmap_svg("t", &m, 800, sim.runtime, 0), "");
    }

    #[test]
    fn faulted_links_are_marked_in_both_renderers() {
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
        let p = Platform::default()
            .with_topology(Topology::Crossbar)
            .with_faults("degrade=0.5@1ms:n0->sw".parse().unwrap());
        let mut rec = WindowedRecorder::new(ovlp_machine::Time::micros(500.0));
        let sim = simulate_probed(&t, &p, &mut rec).unwrap();
        let m = rec.into_metrics().unwrap();
        let text = link_heatmap_ascii(&m, 40, sim.runtime, 0);
        let marked = text.lines().find(|l| l.contains("[faulted]")).unwrap();
        assert!(marked.contains("n0->sw"), "{text}");
        let svg = link_heatmap_svg("links", &m, 800, sim.runtime, 0);
        assert!(svg.contains("n0-&gt;sw [faulted]"), "{svg}");
        assert!(!svg.contains("sw-&gt;n1 [faulted]"), "{svg}");
    }

    #[test]
    fn svg_heatmap_aligns_with_timeline_gutter() {
        let m = metrics();
        let span = ovlp_machine::Time::secs(m.runtime_s);
        let svg = link_heatmap_svg("links", &m, 800, span, 0);
        assert!(svg.starts_with("<svg"));
        assert!(svg.ends_with("</svg>"));
        assert!(svg.contains("n0-&gt;sw"), "labels escaped: missing");
        assert!(svg.contains("<rect"), "cells rendered");
        // cells start at the shared 48 px gutter
        assert!(svg.contains(r#"x="48.00""#), "{svg}");
    }

    #[test]
    fn heat_colors_are_deterministic_endpoints() {
        assert_eq!(heat_color(0.0), "#ffffff");
        assert_eq!(heat_color(1.0), "#a50026");
        assert_eq!(ramp_glyph(0.0), ' ');
        assert_eq!(ramp_glyph(1.5), '@');
    }
}
