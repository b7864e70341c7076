//! Visualization of simulated time behaviours — the framework's
//! Paraver.
//!
//! The paper uses Paraver to "visualize the obtained time-behaviors,
//! allowing to study the effects of the communication-computation
//! overlap" (Fig. 4 compares the non-overlapped and overlapped NAS-CG
//! timelines). This crate renders a
//! [`SimResult`](ovlp_machine::SimResult) three ways:
//!
//! * [`paraver`] — export to the Paraver text trace format
//!   (`.prv` + `.pcf` + `.row`), so timelines can be opened in the real
//!   wxParaver;
//! * [`ascii`] — terminal Gantt charts, including the side-by-side
//!   comparison used by the Fig. 4 reproduction;
//! * [`svg`] — standalone SVG timelines with communication lines;
//! * [`scatter`] — ASCII scatter plots of production/consumption
//!   patterns (the Fig. 5 panels).

pub mod ascii;
pub mod critpath;
pub mod heatmap;
pub mod histogram;
pub mod html;
pub mod links;
pub mod paraver;
pub mod scatter;
pub mod svg;

pub use ascii::{gantt, gantt_comparison};
pub use critpath::{critpath_report, timeline_svg_critpath};
pub use heatmap::{link_heatmap_ascii, link_heatmap_svg};
pub use histogram::{duration_histogram, wait_report, DurationHistogram};
pub use html::{report_full, ReportInputs};
pub use links::link_report;
pub use paraver::ParaverExport;
pub use scatter::scatter_ascii;
pub use svg::timeline_svg;
