//! Multi-client integration: private modules over one server (the paper's
//! setup), plus genuinely conflicting clients exercising the lock manager
//! from real threads.

use qs_repro::core::{Store, SystemConfig};
use qs_repro::esm::{ClientConn, LockMode, RecoveryFlavor, Server, ServerConfig};
use qs_repro::sim::Meter;
use qs_repro::storage::Page;
use qs_repro::types::{ClientId, Oid, PageId, QsError, TxnId};
use std::sync::Arc;

fn make_server(flavor: RecoveryFlavor, pages: usize) -> (Arc<Server>, Vec<Oid>) {
    let meter = Meter::new();
    let server = Arc::new(
        Server::format(
            ServerConfig::new(flavor).with_pool_mb(2.0).with_volume_pages(1024).with_log_mb(32.0),
            meter,
        )
        .unwrap(),
    );
    let pids = server.bulk_allocate(pages).unwrap();
    let mut oids = Vec::new();
    for &pid in &pids {
        let mut p = Page::new();
        for _ in 0..4 {
            oids.push(Oid::new(pid, p.insert(pid, &[0u8; 80]).unwrap()));
        }
        server.bulk_write(pid, &p).unwrap();
    }
    server.bulk_sync().unwrap();
    (server, oids)
}

#[test]
fn private_working_sets_interleaved() {
    // Four clients, disjoint page ranges, transactions interleaved
    // round-robin — the paper's conflict-free design. All updates must land.
    for flavor in [
        RecoveryFlavor::EsmAries,
        RecoveryFlavor::RedoAtServer,
        RecoveryFlavor::RedoLogical,
        RecoveryFlavor::Wpl,
        RecoveryFlavor::Adaptive,
    ] {
        let (server, oids) = make_server(flavor, 16);
        let cfg_for = |_c: usize| match flavor {
            RecoveryFlavor::EsmAries => SystemConfig::pd_esm().with_memory(1.0, 0.25),
            RecoveryFlavor::RedoAtServer => SystemConfig::pd_redo().with_memory(1.0, 0.25),
            RecoveryFlavor::RedoLogical => SystemConfig::pd_rlog().with_memory(1.0, 0.25),
            RecoveryFlavor::Wpl => SystemConfig::wpl().with_memory(1.0, 0.25),
            RecoveryFlavor::Adaptive => SystemConfig::adaptive().with_memory(1.0, 0.25),
        };
        let mut stores: Vec<Store> = (0..4)
            .map(|c| {
                let cfg = cfg_for(c);
                Store::new(
                    ClientConn::new(
                        ClientId(c as u16),
                        Arc::clone(&server),
                        cfg.client_pool_pages(),
                        Meter::new(),
                    ),
                    cfg,
                )
                .unwrap()
            })
            .collect();
        for round in 1..=5u8 {
            for (c, store) in stores.iter_mut().enumerate() {
                store.begin().unwrap();
                for k in 0..16 {
                    let oid = oids[c * 16 + k];
                    store.modify(oid, 0, &[round * 10 + c as u8; 16]).unwrap();
                }
                store.commit().unwrap();
            }
        }
        for (c, store) in stores.iter_mut().enumerate() {
            store.begin().unwrap();
            for k in 0..16 {
                let v = store.read(oids[c * 16 + k]).unwrap();
                assert_eq!(v[0..16], [50 + c as u8; 16], "{flavor:?} client {c}");
            }
            store.commit().unwrap();
        }
    }
}

#[test]
fn conflicting_threads_serialize_through_locks() {
    // Eight real threads hammer the same page with X locks via raw server
    // calls; strict 2PL must serialize them with no lost updates.
    let (server, oids) = make_server(RecoveryFlavor::EsmAries, 2);
    let target = oids[0];
    let mut handles = Vec::new();
    for t in 0..8 {
        let server = Arc::clone(&server);
        handles.push(std::thread::spawn(move || {
            for _ in 0..25 {
                let txn = server.begin();
                server.lock_page(txn, target.page, LockMode::X).unwrap();
                let mut page = server.fetch_page(txn, target.page).unwrap();
                let obj = page.object_mut(target.page, target.slot).unwrap();
                let old = u64::from_le_bytes(obj[0..8].try_into().unwrap());
                let newv = old + 1;
                obj[0..8].copy_from_slice(&newv.to_le_bytes());
                let rec = qs_repro::wal::LogRecord::Update {
                    txn,
                    prev: qs_repro::types::Lsn::NULL,
                    page: target.page,
                    slot: target.slot,
                    offset: 0,
                    before: old.to_le_bytes().to_vec(),
                    after: newv.to_le_bytes().to_vec(),
                };
                server.receive_log_records(txn, vec![rec]).unwrap();
                server.receive_dirty_page(txn, target.page, page).unwrap();
                server.commit(txn).unwrap();
            }
            let _ = t;
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let page = server.read_page_for_test(target.page).unwrap();
    let v = u64::from_le_bytes(
        page.object(target.page, target.slot).unwrap()[0..8].try_into().unwrap(),
    );
    assert_eq!(v, 8 * 25, "every increment survived serialization");
}

#[test]
fn reader_blocks_until_writer_commits() {
    let (server, oids) = make_server(RecoveryFlavor::EsmAries, 2);
    let pid: PageId = oids[0].page;
    let writer: TxnId = server.begin();
    server.lock_page(writer, pid, LockMode::X).unwrap();

    let server2 = Arc::clone(&server);
    let reader = std::thread::spawn(move || {
        let txn = server2.begin();
        // Blocks until the writer commits.
        server2.lock_page(txn, pid, LockMode::S).unwrap();
        let page = server2.fetch_page(txn, pid).unwrap();
        let v = page.object(pid, 0).unwrap()[0];
        server2.commit(txn).unwrap();
        v
    });
    std::thread::sleep(std::time::Duration::from_millis(30));
    // Commit the writer (no updates — just releases the lock).
    server.commit(writer).unwrap();
    assert_eq!(reader.join().unwrap(), 0);
}

#[test]
fn deadlock_closer_is_denied_and_the_survivor_commits() {
    // A holds p1 and B holds p2. A blocks on p2; B asking for p1 closes the
    // cycle and is denied with `LockConflict`. B aborts, and A is granted
    // and commits.
    let (server, oids) = make_server(RecoveryFlavor::EsmAries, 2);
    let (p1, p2) = (oids[0].page, oids[4].page);
    assert_ne!(p1, p2);
    let client = |id: u16| ClientConn::new(ClientId(id), Arc::clone(&server), 8, Meter::new());
    let (mut a, mut b) = (client(0), client(1));
    a.begin().unwrap();
    b.begin().unwrap();
    a.fetch_page(p1, LockMode::X).unwrap();
    b.fetch_page(p2, LockMode::X).unwrap();

    std::thread::scope(|s| {
        let survivor = s.spawn(move || {
            a.fetch_page(p2, LockMode::X)?;
            a.finish_commit()
        });
        while server.queued_lock_waiters() == 0 {
            assert!(!survivor.is_finished(), "A was granted p2 while B held it");
            std::thread::yield_now();
        }
        match b.fetch_page(p1, LockMode::X) {
            Err(QsError::LockConflict { requester, .. }) => {
                assert_eq!(requester, b.txn().unwrap(), "the cycle closer is the one denied");
            }
            other => panic!("expected LockConflict for the cycle closer, got {other:?}"),
        }
        b.abort().unwrap();
        survivor.join().unwrap().expect("A is granted p2 and commits once B aborts");
    });
    assert_eq!(server.queued_lock_waiters(), 0);
    assert_eq!(server.active_txns(), 0);
}
