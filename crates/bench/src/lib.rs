//! The experiment harness: regenerates every table and figure of the
//! paper's evaluation (§4–5).
//!
//! Methodology (DESIGN.md §2): the functional engine executes each
//! workload for real — OO7 traversals over a bulk-loaded database, with
//! genuine faults, diffs, log records, page shipping, buffer-pool paging,
//! and log-disk forces — while a shared [`qs_sim::Meter`] counts events.
//! Counts are priced by the frozen 1995 hardware model and fed to the
//! exact MVA solver to produce response time and throughput at 1–5
//! clients, mirroring the paper's closed-loop testbed.
//!
//! For the small database (which fits every cache) per-transaction demands
//! are independent of the client count, so one measured run per system
//! yields the whole curve. For the big database the server buffer pool's
//! hit rate depends on how many 24 MB modules are in play, so each client
//! count is measured separately with that many clients interleaving
//! against one server.

pub mod driver;
pub mod experiment;
pub mod figures;
pub mod jsoncheck;
pub mod report;
pub mod tracerun;

pub use experiment::{run_curve, run_point, ExperimentPoint, RunOpts};
pub use report::{render_curve_tables, render_writes_table};

use qs_storage::{MemDisk, StableMedia};
use std::sync::Arc;

/// Byte image of a stable medium: a crashed server's disk, frozen so a
/// bench can restart from the same state again and again.
pub fn image(media: &Arc<dyn StableMedia>) -> Vec<u8> {
    let mut buf = vec![0u8; media.len()];
    media.read_at(0, &mut buf).expect("a MemDisk reads its whole length");
    buf
}

/// A fresh in-memory medium holding `bytes`.
pub fn disk_from(bytes: &[u8]) -> Arc<dyn StableMedia> {
    let d = MemDisk::new(bytes.len());
    d.write_at(0, bytes).expect("a MemDisk writes its whole length");
    Arc::new(d)
}
