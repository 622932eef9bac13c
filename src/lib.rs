//! # quickstore-recovery — facade crate
//!
//! A from-scratch Rust reproduction of **White & DeWitt, "Implementing
//! Crash Recovery in QuickStore: A Performance Study" (SIGMOD 1995)**.
//!
//! This crate re-exports the whole workspace so examples and downstream
//! users can depend on one name:
//!
//! * [`types`] — ids, page constants, errors (`qs-types`).
//! * [`storage`] — slotted pages, volumes, stable media (`qs-storage`).
//! * [`wal`] — log records + circular log manager (`qs-wal`).
//! * [`esm`] — the EXODUS Storage Manager substrate: client/server page
//!   shipping, buffer pools, locks, the restart engine (`qs-esm`).
//! * [`vmem`] — the software MMU (`qs-vmem`).
//! * [`core`] — QuickStore itself: descriptor table, recovery buffer,
//!   diffing, and the six recovery schemes (`quickstore`).
//! * [`oo7`] — the OO7 benchmark database and traversals (`qs-oo7`).
//! * [`sim`] — the 1995 hardware model and MVA solver (`qs-sim`).
//! * [`trace`] — simulated-time tracing: spans, histograms, and the
//!   crash flight recorder (`qs-trace`).
//! * [`prng`] — the seedable PRNG behind every randomized component
//!   (`qs-prng`); the workspace uses no external crates.
//!
//! See `README.md` for a tour and `examples/` for runnable programs.

pub use qs_esm as esm;
pub use qs_oo7 as oo7;
pub use qs_prng as prng;
pub use qs_sim as sim;
pub use qs_storage as storage;
pub use qs_trace as trace;
pub use qs_types as types;
pub use qs_vmem as vmem;
pub use qs_wal as wal;
pub use quickstore as core;

use qs_esm::{ClientConn, Server, ServerConfig};
use qs_sim::Meter;
use qs_types::{ClientId, QsResult};
use quickstore::{Store, SystemConfig};
use std::sync::Arc;

/// Convenience: a single-client QuickStore on a fresh in-memory server,
/// ready for `begin`/`allocate`/`commit`. Used by the quickstart example
/// and tests; production setups build [`esm::Server`] and [`core::Store`]
/// explicitly.
pub fn open_single_client(cfg: SystemConfig) -> QsResult<(Store, Arc<Server>)> {
    cfg.validate()?;
    let meter = Meter::new();
    let server = Arc::new(Server::format(
        ServerConfig::new(cfg.flavor).with_pool_mb(8.0).with_volume_pages(2048).with_log_mb(32.0),
        Arc::clone(&meter),
    )?);
    let client = ClientConn::new(ClientId(0), Arc::clone(&server), cfg.client_pool_pages(), meter);
    Ok((Store::new(client, cfg)?, server))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn facade_opens_every_scheme() {
        for cfg in [
            SystemConfig::pd_esm().with_memory(2.0, 0.5),
            SystemConfig::sd_esm().with_memory(2.0, 0.5),
            SystemConfig::sl_esm().with_memory(2.0, 0.5),
            SystemConfig::pd_redo().with_memory(2.0, 0.5),
            SystemConfig::wpl().with_memory(2.0, 0.0),
        ] {
            let (mut store, _server) = open_single_client(cfg).unwrap();
            store.begin().unwrap();
            let oid = store.allocate(b"facade smoke test").unwrap();
            store.commit().unwrap();
            store.begin().unwrap();
            assert_eq!(store.read(oid).unwrap(), b"facade smoke test");
            store.commit().unwrap();
        }
    }
}
