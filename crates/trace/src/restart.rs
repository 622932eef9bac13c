//! Restart observability: the per-phase breakdown `Server::restart` emits
//! (analysis / redo / undo for the ARIES flavors, backward-scan /
//! table-rebuild for WPL) and the crash flight recording — the last N ring
//! events snapshotted into the stable parts so a restarting server can
//! print what the system was doing when it died.

use crate::event::TraceEvent;
use qs_sim::{HardwareModel, JsonWriter};
use std::time::Instant;

/// One restart phase: raw work counts plus their priced simulated time.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseStat {
    pub name: &'static str,
    /// Log records processed (scanned, applied, or undone).
    pub records: u64,
    /// Log pages read while scanning / fetching images.
    pub pages_read: u64,
    /// Data pages read from the volume.
    pub data_reads: u64,
    /// Data pages written back to the volume.
    pub data_writes: u64,
    /// Simulated seconds this phase costs on the paper's hardware.
    pub sim_s: f64,
}

impl PhaseStat {
    /// Price the phase's counts: sequential log reads, random data I/O,
    /// and per-record server CPU.
    pub fn priced(mut self, hw: &HardwareModel) -> PhaseStat {
        self.sim_s = hw.log_disk_secs(0, self.pages_read, 0)
            + hw.data_disk_secs(self.data_reads + self.data_writes)
            + hw.server_cpu_secs(self.records * hw.server_log_append_instr);
        self
    }

    /// Fold another phase's raw counts into this one. The parallel
    /// restart engine tallies per-worker stats and merges them in worker-
    /// index order, so the summed counts are deterministic; `sim_s` is
    /// intentionally not summed — the merged phase is priced once,
    /// afterwards, exactly like a serially-tallied phase.
    pub fn absorb(&mut self, other: &PhaseStat) {
        self.records += other.records;
        self.pages_read += other.pages_read;
        self.data_reads += other.data_reads;
        self.data_writes += other.data_writes;
    }

    fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.field_str("phase", self.name);
        w.field_u64("records", self.records);
        w.field_u64("log_pages_read", self.pages_read);
        w.field_u64("data_reads", self.data_reads);
        w.field_u64("data_writes", self.data_writes);
        w.field_f64("sim_s", self.sim_s);
        w.end_object();
    }
}

/// Host wall-clock time of one restart pipeline thread, split by what it
/// was doing: working, or parked on a channel (or on the join).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageWall {
    pub busy_ns: u64,
    pub blocked_ns: u64,
}

/// Stopwatch behind a [`StageWall`]: each call charges the time since
/// the previous one. Meant to be read per chunk or batch, never per
/// record.
pub struct StageClock {
    wall: StageWall,
    mark: Instant,
}

impl StageClock {
    pub fn start() -> StageClock {
        StageClock { wall: StageWall::default(), mark: Instant::now() }
    }

    fn lap(&mut self) -> u64 {
        let now = Instant::now();
        let ns = now.duration_since(self.mark).as_nanos() as u64;
        self.mark = now;
        ns
    }

    /// Charge the time since the last call as work.
    pub fn busy(&mut self) {
        self.wall.busy_ns += self.lap();
    }

    /// Charge the time since the last call as waiting.
    pub fn blocked(&mut self) {
        self.wall.blocked_ns += self.lap();
    }

    pub fn wall(&self) -> StageWall {
        self.wall
    }
}

/// Wall-clock accounting of one streamed scan (reader → router → workers
/// → merge) of the restart engine. A scan the engine ran inline on the
/// restart thread reports the three roles' busy time, no blocked time and
/// one worker.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScanWall {
    pub name: &'static str,
    /// From the start of the scan to the end of the merge.
    pub wall_ns: u64,
    pub reader: StageWall,
    /// The restart thread while it routes frames and awaits the join.
    pub router: StageWall,
    /// One entry per worker that ran, in worker-index order.
    pub workers: Vec<StageWall>,
    /// The restart thread's work after the join (shard merge, page
    /// install, table rebuild).
    pub merge_ns: u64,
    /// Bytes the reader pulled from the log, re-reads of frames that
    /// straddle a chunk boundary included.
    pub log_bytes_read: u64,
    /// Chunk buffers the reader allocated: a scan whose workers give each
    /// batch's buffer back allocates about as many as its pipeline holds.
    pub chunk_buffers: u64,
}

impl ScanWall {
    /// Charge a piece of the restart thread's post-join merge to the
    /// scan: it began at `merge_started` and ends now.
    pub fn end_merge(&mut self, merge_started: Instant) {
        let ns = merge_started.elapsed().as_nanos() as u64;
        self.merge_ns += ns;
        self.wall_ns += ns;
    }
}

/// Where a restart's host wall-clock time went. Kept apart from
/// [`PhaseStat`]: wall time differs run to run, so it never enters the
/// priced phases or anything [`RestartReport::write_json`] emits.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RestartWall {
    pub scans: Vec<ScanWall>,
    pub undo_ns: u64,
    pub checkpoint_ns: u64,
}

impl RestartWall {
    /// Log bytes read by all scans together: a restart that reads its log
    /// once reads about `tail − scan start` of them.
    pub fn log_bytes_read(&self) -> u64 {
        self.scans.iter().map(|s| s.log_bytes_read).sum()
    }

    /// Append the accounting as a JSON object under way in `w`. Stage
    /// arrays hold one number per thread: reader, router, then workers.
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.key("scans");
        w.begin_array();
        for s in &self.scans {
            let stages = || [s.reader, s.router].into_iter().chain(s.workers.iter().copied());
            w.begin_object();
            w.field_str("scan", s.name);
            w.field_u64("wall_ns", s.wall_ns);
            w.key("busy_ns");
            w.begin_array();
            for st in stages() {
                w.u64(st.busy_ns);
            }
            w.end_array();
            w.key("blocked_ns");
            w.begin_array();
            for st in stages() {
                w.u64(st.blocked_ns);
            }
            w.end_array();
            w.field_u64("merge_ns", s.merge_ns);
            w.field_u64("chunk_buffers", s.chunk_buffers);
            w.end_object();
        }
        w.end_array();
        w.field_u64("log_bytes_read", self.log_bytes_read());
        w.field_u64("undo_ns", self.undo_ns);
        w.field_u64("checkpoint_ns", self.checkpoint_ns);
        w.end_object();
    }

    /// One line per scan plus the epilogue, in milliseconds.
    pub fn render_text(&self) -> String {
        let ms = |ns: u64| ns as f64 / 1e6;
        let stage = |st: &StageWall| format!("{:.1}/{:.1}", ms(st.busy_ns), ms(st.blocked_ns));
        let mut out = String::new();
        for s in &self.scans {
            let workers: Vec<String> = s.workers.iter().map(stage).collect();
            out.push_str(&format!(
                "  {:<14} wall {:>7.1} ms  busy/blocked: reader {}  router {}  workers [{}]  merge {:.1}  read {:.1} MB in {} buffers\n",
                s.name,
                ms(s.wall_ns),
                stage(&s.reader),
                stage(&s.router),
                workers.join(" "),
                ms(s.merge_ns),
                s.log_bytes_read as f64 / 1e6,
                s.chunk_buffers
            ));
        }
        out.push_str(&format!(
            "  undo {:.1} ms  closing checkpoint {:.1} ms\n",
            ms(self.undo_ns),
            ms(self.checkpoint_ns)
        ));
        out
    }
}

/// What a restarting server reports: which algorithm ran, the per-phase
/// breakdown, and the flight recording recovered from the crash.
#[derive(Debug, Clone, Default)]
pub struct RestartReport {
    /// Recovery flavor name ("ESM", "REDO", "WPL").
    pub flavor: &'static str,
    pub phases: Vec<PhaseStat>,
    /// What the crashed server was doing when it died (may be empty).
    pub flight: FlightRecording,
    /// Host wall-clock stage accounting; not part of the JSON report.
    pub wall: RestartWall,
}

impl RestartReport {
    pub fn total_sim_s(&self) -> f64 {
        self.phases.iter().map(|p| p.sim_s).sum()
    }

    pub fn total_records(&self) -> u64 {
        self.phases.iter().map(|p| p.records).sum()
    }

    /// Append this report as a JSON object under way in `w`.
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.field_str("flavor", self.flavor);
        w.key("phases");
        w.begin_array();
        for p in &self.phases {
            p.write_json(w);
        }
        w.end_array();
        w.field_f64("total_sim_s", self.total_sim_s());
        w.field_u64("total_records", self.total_records());
        w.key("flight");
        self.flight.write_json(w);
        w.end_object();
    }

    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        self.write_json(&mut w);
        w.finish()
    }

    /// Multi-line human rendering for the `trace` binary and logs.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("restart breakdown ({})\n", self.flavor));
        out.push_str("  phase           records  log-pages  data-r  data-w     sim-time\n");
        for p in &self.phases {
            out.push_str(&format!(
                "  {:<14} {:>8} {:>10} {:>7} {:>7} {:>10.6}s\n",
                p.name, p.records, p.pages_read, p.data_reads, p.data_writes, p.sim_s
            ));
        }
        out.push_str(&format!(
            "  {:<14} {:>8} {:>10} {:>7} {:>7} {:>10.6}s\n",
            "total",
            self.total_records(),
            self.phases.iter().map(|p| p.pages_read).sum::<u64>(),
            self.phases.iter().map(|p| p.data_reads).sum::<u64>(),
            self.phases.iter().map(|p| p.data_writes).sum::<u64>(),
            self.total_sim_s()
        ));
        if !self.flight.events.is_empty() {
            out.push_str(&self.flight.render_text());
        }
        out
    }
}

/// The last N trace events, snapshotted out of the ring buffer by
/// `Server::crash` and carried inside the stable parts across the crash.
#[derive(Debug, Clone, Default)]
pub struct FlightRecording {
    pub events: Vec<TraceEvent>,
}

impl FlightRecording {
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    pub fn write_json(&self, w: &mut JsonWriter) {
        w.begin_array();
        for ev in &self.events {
            ev.write_json(w);
        }
        w.end_array();
    }

    /// "What was the system doing when it died?" — one line per event.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "  flight recorder ({} events before the crash):\n",
            self.events.len()
        ));
        for ev in &self.events {
            out.push_str("    ");
            out.push_str(&ev.render());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TraceCat;

    fn report() -> RestartReport {
        let hw = HardwareModel::paper_1995();
        RestartReport {
            flavor: "ESM",
            phases: vec![
                PhaseStat { name: "analysis", records: 10, pages_read: 4, ..Default::default() }
                    .priced(&hw),
                PhaseStat {
                    name: "redo",
                    records: 6,
                    data_reads: 3,
                    data_writes: 1,
                    ..Default::default()
                }
                .priced(&hw),
                PhaseStat { name: "undo", records: 2, ..Default::default() }.priced(&hw),
            ],
            flight: FlightRecording {
                events: vec![TraceEvent {
                    seq: 41,
                    sim_us: 12,
                    cat: TraceCat::WalForce,
                    label: "commit",
                    a: 1,
                    b: 0,
                }],
            },
            wall: RestartWall::default(),
        }
    }

    #[test]
    fn absorb_merges_worker_counts_then_prices_once() {
        let hw = HardwareModel::paper_1995();
        // Four workers' local tallies, merged in worker-index order…
        let mut merged = PhaseStat { name: "redo", ..Default::default() };
        for w in 0..4u64 {
            merged.absorb(&PhaseStat {
                name: "redo",
                records: 10 + w,
                data_reads: 2,
                data_writes: w % 2,
                ..Default::default()
            });
        }
        // …must equal one serial tally of the same totals.
        let serial = PhaseStat {
            name: "redo",
            records: 46,
            data_reads: 8,
            data_writes: 2,
            ..Default::default()
        };
        assert_eq!(merged, serial);
        assert!((merged.priced(&hw).sim_s - serial.priced(&hw).sim_s).abs() < 1e-15);
    }

    #[test]
    fn pricing_reflects_counts() {
        let r = report();
        assert!(r.phases[0].sim_s > 0.0, "log reads cost time");
        assert!(r.phases[1].sim_s > r.phases[2].sim_s, "data I/O dominates undo CPU");
        assert_eq!(r.total_records(), 18);
        assert!((r.total_sim_s() - r.phases.iter().map(|p| p.sim_s).sum::<f64>()).abs() < 1e-12);
    }

    #[test]
    fn json_shape_is_sane() {
        let j = report().to_json();
        assert!(j.contains("\"flavor\":\"ESM\""));
        assert!(j.contains("\"phase\":\"analysis\""));
        assert!(j.contains("\"total_records\":18"));
        assert!(j.contains("\"cat\":\"wal_force\""));
        // Balanced braces/brackets — cheap structural check.
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }

    #[test]
    fn text_rendering_includes_flight() {
        let t = report().render_text();
        assert!(t.contains("restart breakdown (ESM)"));
        assert!(t.contains("analysis"));
        assert!(t.contains("flight recorder (1 events"));
    }
}
