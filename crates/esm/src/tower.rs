//! [`LogTower`]: the log subsystem — the WAL plus its commit-force policy.
//!
//! The tower owns the [`LogManager`] (which is internally synchronized and
//! never sits behind a server lock) and, when group commit is enabled, a
//! [`GroupCommitter`] that coalesces concurrent commit forces: one leader
//! syncs the log disk per batch while followers wait and absorb. With
//! group commit off (the default), `commit_force` is a plain
//! `LogManager::force` — the pre-decomposition commit path, preserved
//! exactly for the single-client figures.

use qs_trace::Tracer;
use qs_types::{Lsn, QsResult};
use qs_wal::{ForceStats, GroupCommitter, LogManager};
use std::sync::atomic::{AtomicU64, Ordering};

/// The log subsystem: WAL + group-commit policy.
pub struct LogTower {
    wal: LogManager,
    group: GroupCommitter,
    group_commit: bool,
    /// Commit forces currently executing (the adaptive flavor's log-disk
    /// queue-depth signal, exported via `Server::log_pressure`).
    in_flight: AtomicU64,
}

impl LogTower {
    pub fn new(wal: LogManager, group_commit: bool) -> LogTower {
        LogTower { wal, group: GroupCommitter::new(), group_commit, in_flight: AtomicU64::new(0) }
    }

    /// The WAL itself: appends, reads, scans, non-commit forces (eviction
    /// steals, checkpoints) go straight through.
    pub fn wal(&self) -> &LogManager {
        &self.wal
    }

    /// Commit-path force: group-batched when enabled, plain otherwise.
    /// Leaders record their batch size in the `group_commit_size`
    /// histogram; followers return `wrote: false` (metered by the caller
    /// as a no-op force, so forces + no-ops still sum to commits).
    pub fn commit_force(&self, lsn: Lsn, tracer: &Tracer) -> QsResult<ForceStats> {
        self.in_flight.fetch_add(1, Ordering::AcqRel);
        let out = if !self.group_commit {
            self.wal.force(lsn)
        } else {
            self.group.force(&self.wal, lsn).map(|out| {
                if let Some(batch) = out.led_batch {
                    tracer.record("group_commit_size", batch);
                }
                out.stats
            })
        };
        self.in_flight.fetch_sub(1, Ordering::AcqRel);
        out
    }

    /// Commit forces in flight right now (racy by nature — a load-only
    /// congestion signal, never a correctness input).
    pub fn forces_in_flight(&self) -> u64 {
        self.in_flight.load(Ordering::Acquire)
    }

    /// `(commit-force calls, real forces)` — mean batch size is their ratio.
    pub fn group_stats(&self) -> (u64, u64) {
        (self.group.calls(), self.group.forces())
    }
}
