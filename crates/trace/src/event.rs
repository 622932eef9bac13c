//! Trace events: what happened, when (in simulated time), and two small
//! payload words. Events are `Copy` and fixed-size so the ring buffer's
//! cost per record is a few stores.

/// Event category — coarse routing key for filters and reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum TraceCat {
    /// Client commit protocol (span end; `a` = pages shipped).
    Commit,
    /// A page (data or log-record page) left the client for the server.
    Ship,
    /// Diff ran over a page (`a` = bytes compared, `b` = records produced).
    Diff,
    /// Recovery-buffer overflow eviction (`a` = victims flushed early).
    RbufEvict,
    /// Virtual-memory fault dispatch (`a` = frame, `b` = 0 read / 1 write).
    Fault,
    /// Lock acquisition that had to wait at the server (`a` = page).
    LockWait,
    /// Subsystem mutex released (`a` = held ns, `b` = wait ns; wall clock).
    LockHold,
    /// Log-manager append (`a` = LSN, `b` = record bytes).
    WalAppend,
    /// Log-manager force (`a` = pages written, `b` = 1 if it was a no-op).
    WalForce,
    /// Server checkpoint (`a` = dirty pages flushed).
    Checkpoint,
    /// Restart-recovery phase marker (`a`/`b` phase-specific).
    Restart,
    /// Background flusher activity (`a`/`b` label-specific: batch pages
    /// written, or nanoseconds stalled claiming a shard).
    Flusher,
}

impl TraceCat {
    pub fn name(self) -> &'static str {
        match self {
            TraceCat::Commit => "commit",
            TraceCat::Ship => "ship",
            TraceCat::Diff => "diff",
            TraceCat::RbufEvict => "rbuf_evict",
            TraceCat::Fault => "fault",
            TraceCat::LockWait => "lock_wait",
            TraceCat::LockHold => "lock_hold",
            TraceCat::WalAppend => "wal_append",
            TraceCat::WalForce => "wal_force",
            TraceCat::Checkpoint => "checkpoint",
            TraceCat::Restart => "restart",
            TraceCat::Flusher => "flusher",
        }
    }
}

/// One recorded event. `seq` is a per-tracer monotonic sequence number;
/// `sim_us` is the simulated-clock timestamp in microseconds (the priced
/// cost of everything the meter had counted when the event fired).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    pub seq: u64,
    pub sim_us: u64,
    pub cat: TraceCat,
    pub label: &'static str,
    pub a: u64,
    pub b: u64,
}

impl TraceEvent {
    /// Append this event as a JSON object under way in `w`.
    pub fn write_json(&self, w: &mut qs_sim::JsonWriter) {
        w.begin_object();
        w.field_u64("seq", self.seq);
        w.field_u64("sim_us", self.sim_us);
        w.field_str("cat", self.cat.name());
        w.field_str("label", self.label);
        w.field_u64("a", self.a);
        w.field_u64("b", self.b);
        w.end_object();
    }

    /// One-line rendering for the flight-recorder dump.
    pub fn render(&self) -> String {
        format!(
            "#{:<6} t={:>10}us {:<10} {:<18} a={} b={}",
            self.seq,
            self.sim_us,
            self.cat.name(),
            self.label,
            self.a,
            self.b
        )
    }
}
