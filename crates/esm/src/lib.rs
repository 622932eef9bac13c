//! The EXODUS Storage Manager (ESM) substrate: a client-server,
//! page-shipping storage manager (paper §3.1).
//!
//! * Clients and the server each manage their own buffer pool
//!   ([`buffer::BufferPool`]).
//! * Clients fetch pages from the server over a (metered, simulated)
//!   network, update objects locally, generate log records, and ship log
//!   records *before* the pages they describe (the log-before-page rule).
//! * The server manages a circular log (via `qs-wal`), hierarchical
//!   page/record locks ([`lock::LockManager`]), a STEAL/NO-FORCE buffer
//!   pool, and restart recovery ([`restart`]) — ARIES-style analysis /
//!   redo / undo for the log-replaying flavors, table reconstruction for
//!   whole-page logging ([`wpl`]).
//! * Five server flavors ([`RecoveryFlavor`]): the paper's three
//!   underlying recovery strategies — `EsmAries` (log records + dirty pages
//!   shipped), `RedoAtServer` (log records only; server applies redo),
//!   `Wpl` (dirty pages only; whole-page logging at the server) — plus
//!   `RedoLogical` (logical records, no-steal, REDO-only restart) and
//!   `Adaptive` (the format elected per transaction). A flavor is a client
//!   record format over one of two-and-a-half server [`Protocol`]s —
//!   steal + WAL + CLR undo, no-steal deferred apply, WPL's page log —
//!   and [`protocol`] is the only module that turns one into behaviour.
//!
//! Everything the server keeps in ordinary memory is volatile: a simulated
//! crash ([`server::Server::crash`]) drops the struct and keeps only the
//! stable media, from which [`server::Server::restart`] recovers.
//!
//! Internally the server is decomposed into independently locked
//! subsystems — a sharded buffer pool ([`shard`]), the log tower with
//! optional group commit ([`tower`]), the data-disk gate ([`gate`]), and
//! small dedicated locks for the transaction/WPL/dirty-page tables — see
//! the module docs on [`server`] and DESIGN.md for the locking protocol.

pub mod buffer;
pub mod client;
mod dpt;
mod flusher;
pub mod gate;
pub mod lock;
pub mod net;
pub mod protocol;
pub mod restart;
pub mod server;
pub mod shard;
mod stash;
pub mod tower;
pub mod txn;
pub mod wpl;

pub use buffer::{BufferPool, Evicted, PoolSlot};
pub use client::ClientConn;
pub use gate::VolumeGate;
pub use lock::{LockManager, LockMode, Resource};
pub use protocol::{FlavorFacts, Protocol, RecoveryFlavor};
pub use server::{RestartConfig, Server, ServerConfig, StableParts};
pub use shard::ShardedPool;
pub use tower::LogTower;
