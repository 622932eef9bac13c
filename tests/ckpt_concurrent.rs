//! Concurrent checkpointing: N client threads hammer their hot pages
//! (each page re-dirtied every round — permanently claimable) while the
//! background flusher takes checkpoints in a loop. The flusher must
//! complete checkpoints during the traffic, and the state recovered after
//! a crash must be every client's last committed value.
//! Runs under the deadlock watchdog in `scripts/verify.sh`.

use qs_repro::core::{Store, SystemConfig};
use qs_repro::esm::{ClientConn, RecoveryFlavor, Server, ServerConfig};
use qs_repro::sim::Meter;
use qs_repro::storage::Page;
use qs_repro::types::{ClientId, Oid};
use std::sync::Arc;

const CLIENTS: usize = 4;
const SLOTS: usize = 4;
const ROUNDS: u8 = 20;

fn server_cfg(cfg: &SystemConfig) -> ServerConfig {
    ServerConfig::new(cfg.flavor).with_pool_mb(1.0).with_volume_pages(256).with_log_mb(8.0)
}

/// Client `i` owns page `i` (the paper's private-module design) and
/// writes slot `r % SLOTS` on round `r`, so the final value of every
/// slot is interleaving-independent: the last round that hit it.
fn expected_value(slot: usize) -> Vec<u8> {
    let last = (1..=ROUNDS).filter(|r| (*r as usize) % SLOTS == slot).max().unwrap();
    vec![last; 32]
}

#[test]
fn concurrent_flusher_checkpoints_recover_exactly() {
    for (cfg, _) in SystemConfig::all_schemes() {
        let cfg = cfg.with_memory(1.0, 0.25);
        let name = cfg.name();
        let meter = Meter::new();
        let server = Arc::new(Server::format(server_cfg(&cfg), Arc::clone(&meter)).unwrap());
        let pids = server.bulk_allocate(CLIENTS).unwrap();
        let mut oids = Vec::new();
        for &pid in &pids {
            let mut p = Page::new();
            for _ in 0..SLOTS {
                oids.push(Oid::new(pid, p.insert(pid, &[0u8; 100]).unwrap()));
            }
            server.bulk_write(pid, &p).unwrap();
        }
        server.bulk_sync().unwrap();

        // With the flusher thread started, maintenance leaves the
        // committing clients: they only queue a wakeup.
        server.start_flusher();
        let before = server.checkpoints_taken();
        std::thread::scope(|s| {
            for i in 0..CLIENTS {
                let server = Arc::clone(&server);
                let cfg = &cfg;
                let oids = &oids;
                s.spawn(move || {
                    let client = ClientConn::new(
                        ClientId(i as u16),
                        server,
                        cfg.client_pool_pages(),
                        Meter::new(),
                    );
                    let mut store = Store::new(client, cfg.clone()).unwrap();
                    for round in 1..=ROUNDS {
                        let slot = (round as usize) % SLOTS;
                        store.begin().unwrap();
                        store.modify(oids[i * SLOTS + slot], 0, &[round; 32]).unwrap();
                        store.commit().unwrap();
                    }
                });
            }
            // The checkpoint loop, concurrent with the hammering: every
            // request rides the flusher thread, below the log watermark.
            let mut queued = 0;
            for _ in 0..40 {
                if server.request_checkpoint() {
                    queued += 1;
                }
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            assert!(queued > 0, "{name}: no checkpoint request ever reached the flusher");
        });
        // Let any in-flight flusher pass finish, then prove checkpoints
        // actually ran concurrently with the traffic.
        server.stop_flusher();
        assert!(
            server.checkpoints_taken() > before,
            "{name}: the flusher never completed a checkpoint"
        );

        // Recovery: every client's last committed value.
        let parts = Arc::try_unwrap(server).ok().expect("sole owner").crash();
        let restarted = Server::restart(parts, server_cfg(&cfg), Meter::new()).unwrap();
        assert_eq!(restarted.active_txns(), 0, "{name}: txns leaked through restart");
        for (i, &pid) in pids.iter().enumerate() {
            let page = restarted.read_page_for_test(pid).unwrap();
            for slot in 0..SLOTS {
                let got = page.object(pid, oids[i * SLOTS + slot].slot).unwrap();
                assert_eq!(
                    &got[..32],
                    &expected_value(slot)[..],
                    "{name}: client {i} slot {slot} lost a committed value"
                );
            }
        }
        if cfg.flavor == RecoveryFlavor::Wpl {
            restarted.quiesce().unwrap();
        }
        drop(restarted.crash());
    }
}
