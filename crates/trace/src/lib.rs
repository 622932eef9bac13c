//! Simulated-time tracing for the QuickStore reproduction.
//!
//! The engine is *time-free*: it counts events on a [`qs_sim::Meter`] and
//! prices them with the 1995 [`qs_sim::HardwareModel`]. This crate adds the
//! observability layer on top, without perturbing the counts:
//!
//! * [`SimClock`] — a clock that reads the meter and prices the run so far,
//!   giving every trace event a *simulated* timestamp (no wall clock);
//! * [`TraceEvent`] / [`TraceSink`] — spans and events with a monotonic
//!   sequence number, recorded through a sink: [`NullSink`] (tracing off,
//!   zero work beyond one branch), or [`RingSink`] (a fixed-capacity flight
//!   recorder in the black-box tradition);
//! * [`LogHistogram`] — hand-rolled HDR-style log-bucketed histograms for
//!   latencies and sizes, with p50/p90/p99/max and lossless merge;
//! * [`Tracer`] — the shared handle the whole stack carries ([`Tracer`] is
//!   cheap to clone via `Arc` and every method takes `&self`);
//! * [`RestartReport`] / [`FlightRecording`] — the headline consumers: a
//!   per-phase restart breakdown (analysis/redo/undo for ARIES,
//!   backward-scan/table-rebuild for WPL) and the last-N-events snapshot a
//!   crash leaves behind for the restarting server to print.
//!
//! Everything is std-only and exported as JSON through the existing
//! [`qs_sim::JsonWriter`], keeping the workspace hermetic.

pub mod clock;
pub mod event;
pub mod hist;
pub mod restart;
pub mod sink;
pub mod tlock;
pub mod tracer;

pub use clock::SimClock;
pub use event::{TraceCat, TraceEvent};
pub use hist::{HistSummary, LogHistogram};
pub use restart::{
    FlightRecording, PhaseStat, RestartReport, RestartWall, ScanWall, StageClock, StageWall,
};
pub use sink::{NullSink, RingSink, TraceSink};
pub use tlock::{held_by_this_thread, TracedGuard, TracedMutex};
pub use tracer::Tracer;
