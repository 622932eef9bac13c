//! Whole OO7 update transactions allocate nothing once warm: a T2A and a
//! T2B over the tiny module under PD-ESM, with a client pool and recovery
//! buffer that hold the module, each make zero heap allocations from
//! `begin` to the return of `commit`. The traversal's search state (the
//! visited set and the depth-first stack) is kept between traversals, and
//! everything under it — faults, locks, before-images, diff, log records,
//! shipped pages, the log force — reuses storage already.
//!
//! This file holds exactly one test so no sibling test thread can
//! pollute the process-wide allocation counter mid-measurement.

use qs_esm::{ClientConn, Server, ServerConfig};
use qs_oo7::{generate, t2, ModuleHandle, Oo7Params, T2Mode};
use qs_sim::Meter;
use qs_testkit::CountingAlloc;
use qs_types::ClientId;
use quickstore::{Store, SystemConfig};
use std::sync::Arc;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations made by one `mode` transaction, `begin` through the return
/// of `commit`.
fn txn_allocs(store: &mut Store, module: &ModuleHandle, mode: T2Mode) -> usize {
    let start = CountingAlloc::calls();
    store.begin().unwrap();
    t2(store, module, mode).unwrap();
    store.commit().unwrap();
    CountingAlloc::calls() - start
}

#[test]
fn warm_t2a_and_t2b_transactions_are_allocation_free() {
    let cfg = SystemConfig::pd_esm().with_memory(2.0, 0.5);
    let meter = Meter::new();
    let server = Arc::new(
        Server::format(
            ServerConfig::new(cfg.flavor)
                .with_pool_mb(2.0)
                .with_volume_pages(2048)
                .with_log_mb(16.0),
            Arc::clone(&meter),
        )
        .unwrap(),
    );
    let db = generate(&server, &Oo7Params::tiny(), 11).unwrap();
    let module = &db.modules[0];
    assert!(module.pages <= cfg.client_pool_pages(), "the client pool holds the module");
    let client = ClientConn::new(ClientId(0), server, cfg.client_pool_pages(), meter);
    let mut store = Store::new(client, cfg).unwrap();
    for mode in [T2Mode::A, T2Mode::B] {
        // Warm-up: the first transaction caches the module and grows every
        // buffer on the path, the second finds the pages cached but
        // unlocked, as every later one does.
        for _ in 0..2 {
            txn_allocs(&mut store, module, mode);
        }
        let before = store.meter().snapshot();
        // The libtest harness thread occasionally allocates, so the
        // quietest of five counts: a genuine regression allocates in every
        // one.
        let quietest = (0..5).map(|_| txn_allocs(&mut store, module, mode)).min().unwrap();
        let after = store.meter().snapshot();
        assert_eq!(after.page_requests, before.page_requests, "no page is fetched again");
        assert_eq!(store.recovery_buffer_overflows(), 0, "the recovery buffer holds the write set");
        assert!(after.dirty_pages_shipped > before.dirty_pages_shipped, "{}", mode.name());
        assert_eq!(quietest, 0, "a warm {} transaction made {quietest} allocations", mode.name());
    }
}
