//! Meter identity: the client access path may get cheaper, but what it
//! *counts* may not move. T1, T2A and T2B over the tiny OO7 database under
//! PD-ESM, with a client pool of three pages (every traversal evicts) and a
//! recovery buffer of two (T2 overflows it), must leave exactly the meter
//! captured from the implementation before the one-translation access path
//! (commit 21c66ce) — visits, faults, lock and page requests, evictions,
//! overflows, bytes copied and diffed, records, network traffic, all of it.

use qs_esm::{ClientConn, Server, ServerConfig};
use qs_oo7::{generate, t1, t2, Oo7Params, T2Mode};
use qs_sim::{Meter, MeterSnapshot};
use qs_types::ClientId;
use quickstore::{Store, SystemConfig};
use std::sync::Arc;

/// Two transactions (the second finds pages cached but unlocked), each
/// traversing both modules.
fn run(mode: Option<T2Mode>) -> MeterSnapshot {
    let cfg = SystemConfig::pd_esm().with_memory(5.0 / 128.0, 2.0 / 128.0);
    assert_eq!((cfg.client_pool_pages(), cfg.recovery_buffer_bytes()), (3, 2 * 8192));
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
    let client = ClientConn::new(ClientId(0), server, cfg.client_pool_pages(), Arc::clone(&meter));
    let mut store = Store::new(client, cfg).unwrap();
    meter.reset();
    for _ in 0..2 {
        store.begin().unwrap();
        for module in &db.modules {
            match mode {
                None => t1(&mut store, module).unwrap(),
                Some(m) => t2(&mut store, module, m).unwrap(),
            };
        }
        store.commit().unwrap();
    }
    meter.snapshot()
}

#[test]
fn t1_meter_is_unchanged() {
    assert_eq!(
        run(None),
        MeterSnapshot {
            client_instr: 0,
            server_instr: 0,
            net_msgs: 152,
            net_bytes: 599_552,
            data_reads: 10,
            data_writes: 0,
            log_pages_written: 2,
            log_pages_read: 0,
            log_forces: 2,
            log_forces_noop: 0,
            dirty_pages_shipped: 0,
            log_record_pages_shipped: 0,
            log_records_generated: 0,
            log_image_bytes: 0,
            write_faults: 0,
            read_faults: 72,
            bytes_copied: 0,
            bytes_diffed: 0,
            updates: 0,
            update_fn_calls: 0,
            page_requests: 72,
            server_pool_misses: 10,
            client_evictions: 69,
            recovery_buffer_overflows: 0,
            commits: 2,
            visits: 2320,
            locks_acquired: 72,
            redo_applies: 0,
            maint_data_writes: 0,
            maint_log_pages_written: 0,
            maint_log_forces: 0,
            maint_log_pages_read: 0,
            scheme_switches: 0,
            txns_pd: 0,
            txns_sd: 0,
            txns_wpl: 0,
            txns_rlog: 0,
        }
    );
}

#[test]
fn t2a_meter_is_unchanged() {
    assert_eq!(
        run(Some(T2Mode::A)),
        MeterSnapshot {
            client_instr: 0,
            server_instr: 0,
            net_msgs: 392,
            net_bytes: 1_061_200,
            data_reads: 10,
            data_writes: 0,
            log_pages_written: 2,
            log_pages_read: 0,
            log_forces: 2,
            log_forces_noop: 0,
            dirty_pages_shipped: 52,
            log_record_pages_shipped: 50,
            log_records_generated: 92,
            log_image_bytes: 920,
            write_faults: 64,
            read_faults: 74,
            bytes_copied: 524_288,
            bytes_diffed: 504_100,
            updates: 108,
            update_fn_calls: 0,
            page_requests: 74,
            server_pool_misses: 10,
            client_evictions: 71,
            recovery_buffer_overflows: 34,
            commits: 2,
            visits: 2320,
            locks_acquired: 90,
            redo_applies: 0,
            maint_data_writes: 0,
            maint_log_pages_written: 0,
            maint_log_forces: 0,
            maint_log_pages_read: 0,
            scheme_switches: 0,
            txns_pd: 0,
            txns_sd: 0,
            txns_wpl: 0,
            txns_rlog: 0,
        }
    );
}

#[test]
fn t2b_meter_is_unchanged() {
    assert_eq!(
        run(Some(T2Mode::B)),
        MeterSnapshot {
            client_instr: 0,
            server_instr: 0,
            net_msgs: 372,
            net_bytes: 1_065_272,
            data_reads: 10,
            data_writes: 0,
            log_pages_written: 4,
            log_pages_read: 0,
            log_forces: 2,
            log_forces_noop: 0,
            dirty_pages_shipped: 54,
            log_record_pages_shipped: 42,
            log_records_generated: 450,
            log_image_bytes: 4500,
            write_faults: 68,
            read_faults: 70,
            bytes_copied: 557_056,
            bytes_diffed: 535_120,
            updates: 540,
            update_fn_calls: 0,
            page_requests: 70,
            server_pool_misses: 10,
            client_evictions: 67,
            recovery_buffer_overflows: 50,
            commits: 2,
            visits: 2320,
            locks_acquired: 86,
            redo_applies: 0,
            maint_data_writes: 0,
            maint_log_pages_written: 0,
            maint_log_forces: 0,
            maint_log_pages_read: 0,
            scheme_switches: 0,
            txns_pd: 0,
            txns_sd: 0,
            txns_wpl: 0,
            txns_rlog: 0,
        }
    );
}
