//! Crash-recovery equivalence for the adaptive scheme (§6g): a seeded
//! mixed workload under `SystemConfig::adaptive()` elects a different
//! recovery scheme per transaction, so the crashed log interleaves
//! physical Update records, whole-page images, and logical after-only
//! records — all tagged by per-transaction TxnScheme marks. Restart of
//! that mixed log must be deterministic: the restart engine must recover
//! byte-identical media across worker counts (1/2/4), and every
//! committed value must survive regardless of which scheme its
//! transaction elected.

use qs_repro::core::{Store, SystemConfig};
use qs_repro::esm::{ClientConn, Server, ServerConfig, StableParts};
use qs_repro::sim::Meter;
use qs_repro::storage::{MemDisk, Page, StableMedia};
use qs_repro::types::{ClientId, Oid};
use std::sync::Arc;

fn server_cfg(cfg: &SystemConfig) -> ServerConfig {
    ServerConfig::new(cfg.flavor).with_pool_mb(1.0).with_volume_pages(256).with_log_mb(8.0)
}

fn image(media: &Arc<dyn StableMedia>) -> Vec<u8> {
    let mut buf = vec![0u8; media.len()];
    media.read_at(0, &mut buf).unwrap();
    buf
}

fn disk_from(bytes: &[u8]) -> Arc<dyn StableMedia> {
    let d = MemDisk::new(bytes.len());
    d.write_at(0, bytes).unwrap();
    Arc::new(d)
}

/// Tiny deterministic PRNG (xorshift64*) — the workload must be seeded,
/// never random per run.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Objects per page and their size: 3 × 2400 B fills most of a page, so
/// a full rewrite of a page's objects makes the page genuinely dense.
const OBJS: usize = 3;
const OBJ_LEN: usize = 2400;

/// One seeded mixed transaction: sparse (a few small scattered writes,
/// the RLOG-shaped case), dense-narrow (every object on 2 pages fully
/// rewritten, the WPL-shaped case), or dense-wide (every object on 12
/// pages rewritten — the pending-page residency penalty makes physical
/// PD cheapest). The mix forces the elector through genuinely different
/// choices within one log.
fn run_txn(store: &mut Store, oids: &[Oid], rng: &mut Rng, round: u8) {
    store.begin().unwrap();
    match rng.below(3) {
        0 => {
            // Sparse: 2–4 writes of 8 bytes at scattered offsets.
            for _ in 0..(2 + rng.below(3)) {
                let oid = oids[rng.below(oids.len() as u64) as usize];
                let off = (rng.below(100) * 23) as usize;
                store.modify(oid, off, &[round; 8]).unwrap();
            }
        }
        1 => {
            // Dense-narrow: rewrite every object on 2 pages.
            let base = (rng.below(14) as usize) * OBJS;
            for oid in &oids[base..base + 2 * OBJS] {
                store.modify(*oid, 0, &[round ^ 0x55; OBJ_LEN]).unwrap();
            }
        }
        _ => {
            // Dense-wide: rewrite every object on 12 pages.
            let base = (rng.below(4) as usize) * OBJS;
            for oid in &oids[base..base + 12 * OBJS] {
                store.modify(*oid, 0, &[round ^ 0xAA; OBJ_LEN]).unwrap();
            }
        }
    }
    store.commit().unwrap();
}

/// Run `commits` seeded mixed transactions under the adaptive config and
/// crash, leaving one transaction in flight. Returns the crashed media,
/// the object ids, and the committed rounds' expected survivability
/// witness (the per-scheme election counts, to prove the mix was real).
fn crashed_images(cfg: &SystemConfig, seed: u64, commits: usize) -> (Vec<u8>, Vec<u8>, Vec<Oid>) {
    let meter = Meter::new();
    let server = Arc::new(Server::format(server_cfg(cfg), Arc::clone(&meter)).unwrap());
    let pids = server.bulk_allocate(16).unwrap();
    let mut oids = Vec::new();
    for &pid in &pids {
        let mut p = Page::new();
        for _ in 0..OBJS {
            oids.push(Oid::new(pid, p.insert(pid, &[0u8; OBJ_LEN]).unwrap()));
        }
        server.bulk_write(pid, &p).unwrap();
    }
    server.bulk_sync().unwrap();

    let client =
        ClientConn::new(ClientId(0), Arc::clone(&server), cfg.client_pool_pages(), meter.clone());
    let mut store = Store::new(client, cfg.clone()).unwrap();
    // A small pending-page budget sharpens the residency penalty so the
    // dense-wide transactions deterministically elect physical PD.
    store.elector_mut().unwrap().pending_page_budget = 4;
    let mut rng = Rng(seed | 1);
    for i in 0..commits {
        run_txn(&mut store, &oids, &mut rng, (i % 251) as u8 + 1);
        if i == commits / 2 {
            // A mid-run checkpoint so restart has a real anchor.
            server.checkpoint().unwrap();
        }
    }
    // The in-flight loser at crash time.
    store.begin().unwrap();
    store.modify(oids[3], 0, &[0xDD; 16]).unwrap();
    drop(store);

    // The workload must actually exercise the elector with more than one
    // scheme — otherwise this test degenerates to scheme_equivalence.
    let snap = meter.snapshot();
    let elected: [u64; 4] = [snap.txns_pd, snap.txns_sd, snap.txns_wpl, snap.txns_rlog];
    let kinds = elected.iter().filter(|&&n| n > 0).count();
    assert!(kinds >= 2, "seed {seed}: only {kinds} scheme(s) elected ({elected:?})");

    let parts = Arc::try_unwrap(server).ok().expect("sole owner").crash();
    (image(&parts.data_media), image(&parts.log_media), oids)
}

#[derive(PartialEq, Debug)]
struct Observed {
    phases: Vec<(&'static str, u64, u64)>,
    values: Vec<Vec<u8>>,
    active_txns: usize,
    data_image: Vec<u8>,
    log_image: Vec<u8>,
}

fn restart_observed(data: &[u8], log: &[u8], oids: &[Oid], workers: usize) -> Observed {
    let scfg = server_cfg(&SystemConfig::adaptive()).with_redo_workers(workers);
    let parts =
        StableParts { data_media: disk_from(data), log_media: disk_from(log), flight: None };
    let server = Server::restart(parts, scfg, Meter::new()).unwrap();
    let report = server.restart_report().unwrap();
    let phases = report.phases.iter().map(|p| (p.name, p.records, p.pages_read)).collect();
    let values = oids
        .iter()
        .map(|&o| {
            server.read_page_for_test(o.page).unwrap().object(o.page, o.slot).unwrap().to_vec()
        })
        .collect();
    let active_txns = server.active_txns();
    server.quiesce().unwrap();
    let parts = server.crash();
    Observed {
        phases,
        values,
        active_txns,
        data_image: image(&parts.data_media),
        log_image: image(&parts.log_media),
    }
}

/// The tentpole equivalence claim: crash the mixed-scheme workload after
/// every k-th commit (several crash points per seed), restart with 1, 2
/// and 4 redo workers — all three recoveries must be byte-identical,
/// with no transaction left active.
#[test]
fn adaptive_mixed_log_restart_is_bit_equivalent() {
    let cfg = SystemConfig::adaptive().with_memory(1.0, 0.25);
    for (seed, commits) in [(0xA11CE, 6), (0xA11CE, 13), (0xBEEF, 20), (0xC0FFEE, 27)] {
        let (data, log, oids) = crashed_images(&cfg, seed, commits);
        let baseline = restart_observed(&data, &log, &oids, 1);
        assert!(baseline.phases[0].1 > 0, "seed {seed:#x}: no scan work");
        assert_eq!(baseline.active_txns, 0, "seed {seed:#x}: loser still active");
        // The loser's in-flight bytes must not have been redone.
        assert!(
            baseline.values[3][..16] != [0xDD; 16],
            "seed {seed:#x}: uncommitted loser bytes survived restart"
        );
        for workers in [2, 4] {
            let got = restart_observed(&data, &log, &oids, workers);
            assert_eq!(
                got, baseline,
                "seed {seed:#x} commits={commits}: workers={workers} diverged from one worker"
            );
        }
    }
}

/// Committed values survive the crash no matter which scheme their
/// transaction elected: replay the same seeded workload against a
/// never-crashed server and compare object values after recovery.
#[test]
fn adaptive_recovers_exactly_the_committed_state() {
    let cfg = SystemConfig::adaptive().with_memory(1.0, 0.25);
    let (seed, commits) = (0xFEED_u64, 17);

    // Ground truth: same workload, no crash, read back directly.
    let meter = Meter::new();
    let server = Arc::new(Server::format(server_cfg(&cfg), Arc::clone(&meter)).unwrap());
    let pids = server.bulk_allocate(16).unwrap();
    let mut oids = Vec::new();
    for &pid in &pids {
        let mut p = Page::new();
        for _ in 0..OBJS {
            oids.push(Oid::new(pid, p.insert(pid, &[0u8; OBJ_LEN]).unwrap()));
        }
        server.bulk_write(pid, &p).unwrap();
    }
    server.bulk_sync().unwrap();
    let client = ClientConn::new(ClientId(0), Arc::clone(&server), cfg.client_pool_pages(), meter);
    let mut store = Store::new(client, cfg.clone()).unwrap();
    // A small pending-page budget sharpens the residency penalty so the
    // dense-wide transactions deterministically elect physical PD.
    store.elector_mut().unwrap().pending_page_budget = 4;
    let mut rng = Rng(seed | 1);
    for i in 0..commits {
        run_txn(&mut store, &oids, &mut rng, (i % 251) as u8 + 1);
        if i == commits / 2 {
            server.checkpoint().unwrap();
        }
    }
    drop(store);
    server.quiesce().unwrap();
    let truth: Vec<Vec<u8>> = oids
        .iter()
        .map(|&o| {
            server.read_page_for_test(o.page).unwrap().object(o.page, o.slot).unwrap().to_vec()
        })
        .collect();
    drop(server);

    // Crashed twin of the same workload, recovered with one and with four
    // workers: every committed value must match the ground truth.
    let (data, log, oids2) = crashed_images(&cfg, seed, commits);
    assert_eq!(oids, oids2, "scenario divergence");
    for workers in [1, 4] {
        let got = restart_observed(&data, &log, &oids, workers);
        assert_eq!(got.values, truth, "workers={workers}: recovered values diverge from truth");
    }
}
