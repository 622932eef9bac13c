//! Write-ahead log substrate.
//!
//! Two halves:
//!
//! * [`record`] and [`writer`] — the log-record vocabulary (redo/undo
//!   updates, whole-page images, commit/abort, CLRs, checkpoints) and its
//!   hand-rolled binary codec; the only two files that know a frame's byte
//!   layout. [`RecordWriter`] is the one encoder, the `record::frame_*`
//!   views the one decoder. Every record's encoded size is exactly
//!   `LOG_HEADER_SIZE + variable payload`, so log-volume arithmetic in the
//!   experiments matches the paper's "50-byte header + before/after images"
//!   accounting byte-for-byte (§3.2.2's 116-vs-74-byte example holds).
//!
//! * [`log`] — a circular, append-only log manager over a stable medium
//!   (the paper's dedicated Sun0424 log disk), with an in-memory tail
//!   buffer, explicit force (WAL discipline), forward scans, and space
//!   reclamation via `truncate_to`.
//!
//! Plus [`group`] — a leader/follower [`GroupCommitter`] that coalesces
//! concurrent commit forces into one disk sync per batch — and [`stream`]
//! — the chunked log scanner, bounded-channel chunk producer, and undo
//! log-page cache that feed the restart engine.

pub mod group;
pub mod log;
pub mod record;
pub mod stream;
pub mod writer;

pub use group::{GroupCommitter, GroupOutcome};
pub use log::{ForceStats, LogManager, LogPressure};
pub use record::{CheckpointBody, LogRecord, SchemeCode, WplCheckpointEntry};
pub use stream::{
    stream_chunks, stream_chunks_timed, ChunkedScanner, FrameChunk, FrameRef, LogReadCache,
};
pub use writer::RecordWriter;
