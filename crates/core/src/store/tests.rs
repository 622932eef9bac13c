//! The translation invariants behind the one-lookup access path: a frame
//! with any access maps a page that is cached and S-locked, so a page that
//! lost residency or its lock must fault on the next dereference — and the
//! bytes that come back are the server's, never ones reached through a
//! translation remembered from before.

use super::*;
use qs_esm::{Server, ServerConfig};
use qs_prng::Prng;
use qs_sim::MeterSnapshot;
use qs_types::ClientId;

const OBJ: usize = 64;
const OBJS_PER_PAGE: usize = 4;

/// `pages` of zeroed objects, plus one store per entry of `cfgs` (distinct
/// clients of the same server, all sharing its meter).
fn setup(pages: usize, cfgs: &[SystemConfig]) -> (Vec<Store>, Vec<Oid>) {
    let meter = Meter::new();
    let server_cfg = ServerConfig::new(cfgs[0].flavor)
        .with_pool_mb(1.0)
        .with_volume_pages(256)
        .with_log_mb(16.0);
    let server = Arc::new(Server::format(server_cfg, Arc::clone(&meter)).unwrap());
    let mut oids = Vec::new();
    for pid in server.bulk_allocate(pages).unwrap() {
        let mut p = Page::new();
        for _ in 0..OBJS_PER_PAGE {
            oids.push(Oid::new(pid, p.insert(pid, &[0u8; OBJ]).unwrap()));
        }
        server.bulk_write(pid, &p).unwrap();
    }
    server.bulk_sync().unwrap();
    let stores = cfgs
        .iter()
        .enumerate()
        .map(|(i, cfg)| {
            let client = ClientConn::new(
                ClientId(i as u16),
                Arc::clone(&server),
                cfg.client_pool_pages(),
                Arc::clone(&meter),
            );
            Store::new(client, cfg.clone()).unwrap()
        })
        .collect();
    (stores, oids)
}

/// PD-ESM with a client pool of `pool` pages and a recovery buffer of `rbuf`.
fn pd(pool: usize, rbuf: usize) -> SystemConfig {
    let cfg = SystemConfig::pd_esm().with_memory((pool + rbuf) as f64 / 128.0, rbuf as f64 / 128.0);
    assert_eq!(cfg.client_pool_pages(), pool);
    cfg
}

/// The first object of page `i`.
fn first_of(oids: &[Oid], i: usize) -> Oid {
    oids[i * OBJS_PER_PAGE]
}

/// Commit `value` into `oid` through another client.
fn overwrite_elsewhere(other: &mut Store, oid: Oid, value: u8) {
    other.begin().unwrap();
    other.modify(oid, 0, &[value; OBJ]).unwrap();
    other.commit().unwrap();
}

/// Read `oid` and return what the access cost: (bytes, read faults, page
/// requests, server lock acquisitions).
fn metered_read(store: &mut Store, oid: Oid) -> (Vec<u8>, u64, u64, u64) {
    let before = store.meter().snapshot();
    let bytes = store.read(oid).unwrap();
    let d: MeterSnapshot = store.meter().snapshot().since(&before);
    (bytes, d.read_faults, d.page_requests, d.locks_acquired)
}

fn assert_invariants(store: &Store) {
    assert_eq!(store.invariant_violation(), None);
}

#[test]
fn idle_store_has_every_frame_unmapped_and_every_flag_clear() {
    for cfg in [pd(8, 4), SystemConfig::sd_esm().with_memory(12.0 / 128.0, 4.0 / 128.0)] {
        let (mut stores, oids) = setup(6, &[cfg]);
        let store = &mut stores[0];
        for finish in [Store::commit, Store::abort] {
            store.begin().unwrap();
            for i in 0..6 {
                store.read(first_of(&oids, i)).unwrap();
            }
            store.modify(first_of(&oids, 1), 0, &[1; 8]).unwrap();
            store.allocate(&[9; 32]).unwrap();
            assert_invariants(store);
            finish(store).unwrap();
            assert!(store.table.len() >= 6);
            for d in store.table.iter() {
                assert_eq!(store.mmu.prot(d.frame), Prot::None, "{}", d.page);
                assert!(!d.s_locked && !d.x_locked && !d.recovery_enabled, "{d:?}");
                assert!(!d.created_this_txn, "{d:?}");
            }
            assert!(store.touched.is_empty());
        }
    }
}

#[test]
fn page_that_kept_residency_but_lost_its_lock_relocks_without_refetching() {
    let (mut stores, oids) = setup(2, &[pd(8, 4)]);
    let store = &mut stores[0];
    let a = first_of(&oids, 0);
    store.begin().unwrap();
    assert_eq!(metered_read(store, a), (vec![0; OBJ], 1, 1, 1), "cold: fetch + lock");
    assert_eq!(metered_read(store, a), (vec![0; OBJ], 0, 0, 0), "hit: nothing");
    store.commit().unwrap();
    store.begin().unwrap();
    assert_eq!(metered_read(store, a), (vec![0; OBJ], 1, 0, 1), "cached, lock not");
    assert_eq!(metered_read(store, oids[1]), (vec![0; OBJ], 0, 0, 0), "same page: hit");
    store.commit().unwrap();
}

#[test]
fn evicted_page_faults_and_returns_the_servers_bytes() {
    let (mut stores, oids) = setup(10, &[pd(8, 4), pd(8, 4)]);
    let (store, other) = stores.split_at_mut(1);
    let (store, other) = (&mut store[0], &mut other[0]);
    let a = first_of(&oids, 0);
    store.begin().unwrap();
    assert_eq!(store.read(a).unwrap(), vec![0; OBJ]);
    store.commit().unwrap();
    overwrite_elsewhere(other, a, 0xA1);

    // Eight more pages through a pool of eight push page 0 out.
    store.begin().unwrap();
    for i in 1..=8 {
        store.read(first_of(&oids, i)).unwrap();
        assert_invariants(store);
    }
    assert!(!store.client().cached(a.page), "page 0 was the LRU victim");
    assert_eq!(metered_read(store, a), (vec![0xA1; OBJ], 1, 1, 1));
    assert_invariants(store);
    store.commit().unwrap();
}

#[test]
fn a_page_that_returns_to_another_pool_slot_is_read_from_there() {
    // A three-page pool holds a, b and c; reads peek, so a stays the LRU
    // victim while it is also the access path's latest translation. d then
    // takes a's pool slot, and a comes back in b's, while the access path
    // still remembers a in its old slot.
    let (mut stores, oids) = setup(4, &[pd(3, 4), pd(8, 4)]);
    let (store, other) = stores.split_at_mut(1);
    let (store, other) = (&mut store[0], &mut other[0]);
    let [a, b, c, d] = [0, 1, 2, 3].map(|i| first_of(&oids, i));
    for (oid, value) in [(a, 0xA1), (b, 0xB2), (c, 0xC3), (d, 0xD4)] {
        overwrite_elsewhere(other, oid, value);
    }
    store.begin().unwrap();
    for (oid, value) in [(a, 0xA1), (b, 0xB2), (c, 0xC3), (a, 0xA1), (d, 0xD4)] {
        assert_eq!(store.read(oid).unwrap(), vec![value; OBJ]);
    }
    assert!(!store.client().cached(a.page), "page a was the LRU victim");
    assert_eq!(metered_read(store, a), (vec![0xA1; OBJ], 1, 1, 1));
    assert_eq!(store.read(d).unwrap(), vec![0xD4; OBJ]);
    assert_invariants(store);
    store.commit().unwrap();
}

#[test]
fn aborted_page_faults_and_returns_the_servers_bytes() {
    let (mut stores, oids) = setup(2, &[pd(8, 4)]);
    let store = &mut stores[0];
    let a = first_of(&oids, 0);
    store.begin().unwrap();
    store.modify(a, 0, &[0xEE; OBJ]).unwrap();
    assert_eq!(store.read(a).unwrap(), vec![0xEE; OBJ]);
    store.abort().unwrap();
    assert_invariants(store);
    assert!(!store.client().cached(a.page), "abort drops the dirty page");
    store.begin().unwrap();
    assert_eq!(metered_read(store, a), (vec![0; OBJ], 1, 1, 1));
    store.commit().unwrap();
}

#[test]
fn shrunk_and_flushed_caches_fault_and_return_the_servers_bytes() {
    let (mut stores, oids) = setup(8, &[pd(8, 4), pd(8, 4)]);
    let (store, other) = stores.split_at_mut(1);
    let (store, other) = (&mut store[0], &mut other[0]);
    let warm = |store: &mut Store| {
        store.begin().unwrap();
        for i in 0..8 {
            store.read(first_of(&oids, i)).unwrap();
        }
        store.commit().unwrap();
    };
    let a = first_of(&oids, 0);

    // Shrinking the pool to two pages evicts the six coldest, page 0 first.
    warm(store);
    store.set_memory_split(6.0 / 128.0, 4.0 / 128.0).unwrap();
    assert_invariants(store);
    assert!(!store.client().cached(a.page));
    overwrite_elsewhere(other, a, 0xB2);
    store.begin().unwrap();
    assert_eq!(metered_read(store, a), (vec![0xB2; OBJ], 1, 1, 1));
    store.commit().unwrap();

    // Dropping the whole cache: every page refetches; none is served from
    // where it used to sit.
    store.set_memory_split(12.0 / 128.0, 4.0 / 128.0).unwrap();
    warm(store);
    store.flush_cache().unwrap();
    assert_invariants(store);
    overwrite_elsewhere(other, a, 0xC3);
    store.begin().unwrap();
    assert!(store.flush_cache().is_err(), "not inside a transaction");
    assert_eq!(metered_read(store, a), (vec![0xC3; OBJ], 1, 1, 1));
    assert_eq!(metered_read(store, first_of(&oids, 5)), (vec![0; OBJ], 1, 1, 1));
    store.commit().unwrap();
}

#[test]
fn raw_write_under_software_schemes_is_still_a_protection_fault() {
    for cfg in [SystemConfig::sd_esm(), SystemConfig::sl_esm()] {
        let (mut stores, oids) = setup(2, &[cfg.with_memory(12.0 / 128.0, 4.0 / 128.0)]);
        let store = &mut stores[0];
        store.begin().unwrap();
        store.with_object(oids[0], |b| assert_eq!(b, [0u8; OBJ])).unwrap();
        let before = store.meter().snapshot();
        let err = store.write(oids[0], 0, &[1; 8]).unwrap_err();
        assert!(matches!(err, QsError::ProtectionFault { .. }), "{err:?}");
        assert_eq!(store.meter().snapshot().since(&before).write_faults, 1);
        // The update function on the same page, before and after, works.
        store.update(oids[0], 0, &[2; 8]).unwrap();
        assert!(matches!(store.write(oids[1], 0, &[1; 8]), Err(QsError::ProtectionFault { .. })));
        assert_eq!(store.read_at(oids[0], 0, 8).unwrap(), vec![2; 8]);
        assert_invariants(store);
        store.commit().unwrap();
    }
}

/// A seeded read / modify / commit / abort history over twelve pages
/// through a pool of four and a recovery buffer that overflows (two pages
/// under PD, four blocks under SD): the invariants hold after every step
/// and every read returns what a plain model of the database says it
/// should — including after an abort that follows a mid-transaction
/// eviction, ship and re-fetch of an updated page.
#[test]
fn seeded_history_on_a_constrained_pool_keeps_the_invariants() {
    let sd = SystemConfig::sd_esm().with_memory(4.0 / 128.0 + 1.0 / 4096.0, 1.0 / 4096.0);
    assert_eq!((sd.client_pool_pages(), sd.recovery_buffer_bytes()), (4, 256));
    for (seed, cfg) in [(1u64, pd(4, 2)), (2, pd(4, 2)), (3, sd)] {
        let (mut stores, oids) = setup(12, &[cfg]);
        let store = &mut stores[0];
        let mut rng = Prng::seed_from_u64(seed);
        let mut committed: Vec<[u8; OBJ]> = vec![[0; OBJ]; oids.len()];
        let mut working = committed.clone();
        store.begin().unwrap();
        for step in 0..2000 {
            let i = rng.gen_range(0..oids.len());
            match rng.gen_below(100) {
                0..=59 => {
                    let got = store.with_object(oids[i], |b| b == working[i]).unwrap();
                    assert!(got, "seed {seed} step {step}: stale read of {:?}", oids[i]);
                }
                60..=91 => {
                    let at = rng.gen_range(0..OBJ - 8);
                    let data = [rng.next_u32() as u8; 8];
                    store.modify(oids[i], at, &data).unwrap();
                    working[i][at..at + 8].copy_from_slice(&data);
                }
                92..=95 => {
                    store.commit().unwrap();
                    committed.clone_from(&working);
                    store.begin().unwrap();
                }
                _ => {
                    store.abort().unwrap();
                    working.clone_from(&committed);
                    store.begin().unwrap();
                }
            }
            assert_eq!(store.invariant_violation(), None, "seed {seed} step {step}");
        }
        store.commit().unwrap();
        assert_invariants(store);
        let m = store.meter().snapshot();
        assert!(m.client_evictions > 100 && m.recovery_buffer_overflows > 10, "{m:?}");
    }
}

/// An adaptive store elects mid-transaction, from the partial write set, at
/// the first event that generates records — a recovery-buffer overflow, a
/// dirty page leaving the client pool — and only there: the dirty list
/// those events price is not built again once the scheme sticks.
#[test]
fn adaptive_store_elects_at_its_first_overflow_and_at_a_dirty_eviction() {
    let adaptive = |pool: usize, rbuf: usize| {
        SystemConfig::adaptive().with_memory((pool + rbuf) as f64 / 128.0, rbuf as f64 / 128.0)
    };
    let elections = |store: &Store| {
        let m = store.meter().snapshot();
        m.txns_pd + m.txns_sd + m.txns_wpl + m.txns_rlog
    };
    // The electing event diffs each page once: pricing diffs the two dirty
    // pages, and the page it emits finds its priced regions.
    let diffed_once = |store: &Store| {
        assert_eq!(store.meter().snapshot().bytes_diffed, 2 * (OBJ * OBJS_PER_PAGE) as u64);
    };

    // Overflow: a 2-page recovery buffer under a roomy pool.
    let (mut stores, oids) = setup(6, &[adaptive(8, 2)]);
    let store = &mut stores[0];
    store.begin().unwrap();
    for i in 0..2 {
        store.modify(first_of(&oids, i), 0, &[i as u8 + 1; 8]).unwrap();
    }
    assert_eq!((store.client.elected_scheme(), store.recovery_buffer_overflows()), (None, 0));
    store.modify(first_of(&oids, 2), 0, &[3; 8]).unwrap();
    let elected = store.client.elected_scheme();
    assert!(elected.is_some(), "the first overflow elects, pricing pages 0 and 1");
    assert_eq!((store.recovery_buffer_overflows(), elections(store)), (1, 1));
    diffed_once(store);
    // Later overflows generate records under the scheme that stuck.
    for i in 3..6 {
        store.modify(first_of(&oids, i), 0, &[i as u8 + 1; 8]).unwrap();
    }
    assert_eq!(store.client.elected_scheme(), elected);
    assert_eq!((store.recovery_buffer_overflows(), elections(store)), (4, 1));
    store.commit().unwrap();
    for i in 0..6 {
        assert_eq!(store_read(store, first_of(&oids, i))[..8], [i as u8 + 1; 8]);
    }

    // Eviction: a 2-page pool under a roomy recovery buffer.
    let (mut stores, oids) = setup(4, &[adaptive(2, 4)]);
    let store = &mut stores[0];
    store.begin().unwrap();
    for i in 0..2 {
        store.modify(first_of(&oids, i), 0, &[i as u8 + 1; 8]).unwrap();
    }
    assert_eq!((store.client.elected_scheme(), elections(store)), (None, 0));
    store.read(first_of(&oids, 2)).unwrap();
    assert!(store.client.elected_scheme().is_some(), "a dirty page left the pool");
    assert_eq!((store.recovery_buffer_overflows(), elections(store)), (0, 1));
    diffed_once(store);
    store.read(first_of(&oids, 3)).unwrap();
    assert_eq!(elections(store), 1);
    store.commit().unwrap();
    for i in 0..2 {
        assert_eq!(store_read(store, first_of(&oids, i))[..8], [i as u8 + 1; 8]);
    }
}

/// Pricing lays pages out in the order it walked them; an eviction prices
/// its page (`extra`) first and then the pool's unsorted dirty list, an
/// overflow emits its victims in FIFO order. Whatever order an event asks
/// in, every priced page is found with its own regions, and a page the
/// event did not price is not.
#[test]
fn priced_lookup_finds_every_page_whatever_the_order() {
    let walked: Vec<PageId> = [17u32, 3, 40, 8, 25, 1].map(PageId).into();
    let mut priced = PricedDiffs::default();
    for (k, &pid) in walked.iter().enumerate() {
        let start = priced.flat.len();
        for r in 0..k {
            let region = diff::Region { start: r, end: r + 1 };
            priced.flat.push((pid.0 as u16, region));
        }
        priced.pages.push((pid, start, priced.flat.len()));
    }
    priced.valid = true;
    let mut sorted = walked.clone();
    sorted.sort();
    let reversed: Vec<PageId> = walked.iter().rev().copied().collect();
    let victims = [walked[3], walked[1], walked[4]];
    for order in [&walked[..], &sorted, &reversed, &victims, &[walked[0]]] {
        priced.cursor = 0;
        for &pid in order {
            let (s, e) = priced.lookup(pid).unwrap_or_else(|| panic!("{pid} not found"));
            let k = walked.iter().position(|&p| p == pid).unwrap();
            assert_eq!(e - s, k, "{pid}");
            assert!(priced.flat[s..e].iter().all(|&(slot, _)| slot == pid.0 as u16), "{pid}");
        }
        assert_eq!(priced.lookup(PageId(99)), None);
    }
    priced.clear();
    assert_eq!(priced.lookup(walked[0]), None, "a cleared pricing pass answers nothing");
}

/// Read `oid` in a transaction of its own.
fn store_read(store: &mut Store, oid: Oid) -> Vec<u8> {
    store.begin().unwrap();
    let bytes = store.read(oid).unwrap();
    store.commit().unwrap();
    bytes
}
