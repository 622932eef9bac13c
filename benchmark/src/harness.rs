//! The correctness harness every workload ends in: crash, freeze the two
//! media images, restart K times per engine from the frozen images, and
//! check that what came back is exactly what was acknowledged.
//!
//! Checks (each one operation in the run's attempted/failed accounting):
//! (a) every updatable object, read through a fresh `Store` on the
//!     restarted server, digests to the value taken after the last
//!     acknowledged commit;
//! (b) the in-flight transaction's writes are absent;
//! (c) serial and parallel restart, quiesced, leave byte-identical media;
//! (d) the restart report's phase counts are identical across all
//!     restarts.
//!
//! `Server::crash` drops every piece of volatile state and `MemDisk` has
//! no OS cache behind it, so the frozen images hold only what was forced.

use crate::spans::Recorder;
use crate::stats::{fnv1a, FNV_OFFSET};
use crate::workloads::{read_all, Spec};
use qs_esm::{ClientConn, Server, ServerConfig, StableParts};
use qs_sim::Meter;
use qs_storage::{MemDisk, StableMedia, Volume};
use qs_types::{ClientId, Oid, QsResult};
use qs_wal::LogManager;
use quickstore::Store;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The two devices a server lives on. Allocated once per run; every
/// set-up reformats them and every restart starts from an overwrite.
pub struct Media {
    data: Arc<MemDisk>,
    log: Arc<MemDisk>,
}

/// Byte images of both devices at the crash.
pub struct Frozen {
    data: Vec<u8>,
    log: Vec<u8>,
}

fn image(disk: &MemDisk) -> Vec<u8> {
    let mut buf = vec![0u8; disk.len()];
    disk.read_at(0, &mut buf).expect("whole-device read");
    buf
}

impl Media {
    pub fn new(server: &ServerConfig, log_sync: Duration) -> Media {
        Media {
            data: Arc::new(MemDisk::new(Volume::required_bytes(server.volume_pages))),
            log: Arc::new(MemDisk::with_sync_latency(
                LogManager::required_bytes(server.log_bytes),
                log_sync,
            )),
        }
    }

    pub fn parts(&self) -> StableParts {
        StableParts {
            data_media: Arc::clone(&self.data) as Arc<dyn StableMedia>,
            log_media: Arc::clone(&self.log) as Arc<dyn StableMedia>,
            flight: None,
        }
    }

    pub fn freeze(&self) -> Frozen {
        Frozen { data: image(&self.data), log: image(&self.log) }
    }

    pub fn restore(&self, frozen: &Frozen) {
        self.data.write_at(0, &frozen.data).expect("whole-device write");
        self.log.write_at(0, &frozen.log).expect("whole-device write");
    }

    /// Whether both devices hold exactly `frozen`, compared in 1 MiB
    /// reads so no third image is allocated.
    pub fn equals(&self, frozen: &Frozen) -> bool {
        same(&self.data, &frozen.data) && same(&self.log, &frozen.log)
    }
}

fn same(disk: &MemDisk, image: &[u8]) -> bool {
    let mut buf = vec![0u8; 1 << 20];
    disk.len() == image.len()
        && image.chunks(buf.len()).enumerate().all(|(i, want)| {
            let got = &mut buf[..want.len()];
            disk.read_at(i << 20, got).expect("in-bounds read");
            got == want
        })
}

/// What must be true of the recovered database.
pub struct Expected {
    /// Every updatable object, in a fixed order.
    pub oids: Vec<Oid>,
    /// FNV digest of their images after the last acknowledged commit.
    pub digest: u64,
    /// An object the in-flight transaction wrote: index into `oids`, its
    /// committed image and its in-flight image. `None` if the in-flight
    /// transaction wrote nothing visible (itself a failed check).
    pub loser: Option<(usize, Vec<u8>, Vec<u8>)>,
}

pub fn digest(images: &[Vec<u8>]) -> u64 {
    images.iter().fold(FNV_OFFSET, |h, img| fnv1a(h, img))
}

/// Raw work counts of one restart phase.
pub type PhaseCounts = (&'static str, u64, u64, u64, u64);

pub struct RestartOutcome {
    pub serial_ns: Vec<u64>,
    pub parallel_ns: Vec<u64>,
    /// Phase counts of the first restart (all others must equal them).
    pub phases: Vec<PhaseCounts>,
    /// Simulated-1995 restart time of the first restart.
    pub sim_s: f64,
    pub digest_ok: bool,
    pub loser_absent: bool,
    pub media_equal: bool,
    pub counts_equal: bool,
}

/// Restart `spec.restarts` times per engine from `frozen`, alternating
/// `redo_workers` 1 and 2, and run checks (a)–(d) on the last restart of
/// each engine. `between_rounds` runs after every round but the last and
/// may overwrite the media.
pub fn restart_and_verify(
    spec: &Spec,
    media: &Media,
    frozen: &Frozen,
    expected: &Expected,
    rec: &mut Recorder,
    mut between_rounds: impl FnMut(usize, &mut Recorder) -> QsResult<()>,
) -> QsResult<RestartOutcome> {
    let mut out = RestartOutcome {
        serial_ns: Vec::with_capacity(spec.restarts),
        parallel_ns: Vec::with_capacity(spec.restarts),
        phases: Vec::new(),
        sim_s: 0.0,
        digest_ok: true,
        loser_absent: true,
        media_equal: false,
        counts_equal: true,
    };
    let mut serial_image: Option<Frozen> = None;
    for round in 0..spec.restarts {
        for workers in [1usize, 2] {
            rec.call("bench.restore_media", 0, || media.restore(frozen));
            let cfg = spec.server.clone().with_redo_workers(workers);
            let (parts, meter) = (media.parts(), Meter::new());
            let span = rec.open("esm.restart", 0);
            let t0 = Instant::now();
            let server = Server::restart(parts, cfg, meter)?;
            let ns = t0.elapsed().as_nanos() as u64;
            rec.close(span);
            if workers == 1 { &mut out.serial_ns } else { &mut out.parallel_ns }.push(ns);

            let report = server.restart_report().expect("restart leaves a report");
            let counts: Vec<PhaseCounts> = report
                .phases
                .iter()
                .map(|p| (p.name, p.records, p.pages_read, p.data_reads, p.data_writes))
                .collect();
            if out.phases.is_empty() {
                out.sim_s = report.phases.iter().map(|p| p.sim_s).sum();
                out.phases = counts;
            } else if counts != out.phases {
                eprintln!(
                    "check (d): restart {round} with {workers} worker(s) counted {counts:?}, the first counted {:?}",
                    out.phases
                );
                out.counts_equal = false;
            }

            if round + 1 == spec.restarts {
                let span = rec.open("bench.verify", 0);
                // (c) before (a): reading through a Store commits a
                // read-only transaction, which appends to the log.
                server.quiesce()?;
                match &serial_image {
                    None => serial_image = Some(media.freeze()),
                    Some(serial) => {
                        out.media_equal = media.equals(serial);
                        if !out.media_equal {
                            eprintln!(
                                "check (c): serial and parallel restart left different media"
                            );
                        }
                    }
                }
                let (digest_ok, loser_absent) = verify_contents(spec, server, expected)?;
                out.digest_ok &= digest_ok;
                out.loser_absent &= loser_absent;
                rec.close(span);
            }
        }
        if round + 1 < spec.restarts {
            between_rounds(round, rec)?;
        }
    }
    Ok(out)
}

/// Checks (a) and (b) against a restarted server.
fn verify_contents(spec: &Spec, server: Server, expected: &Expected) -> QsResult<(bool, bool)> {
    let conn =
        ClientConn::new(ClientId(0), Arc::new(server), spec.sys.client_pool_pages(), Meter::new());
    let mut store = Store::new(conn, spec.sys.clone())?;
    let images = read_all(&mut store, &expected.oids, true)?;
    let recovered = digest(&images);
    let digest_ok = recovered == expected.digest;
    if !digest_ok {
        eprintln!(
            "check (a): recovered digest {recovered:016x}, acknowledged digest {:016x}",
            expected.digest
        );
    }
    let loser_absent = match &expected.loser {
        Some((idx, committed, in_flight)) => {
            images[*idx] == *committed && images[*idx] != *in_flight
        }
        None => false,
    };
    if !loser_absent {
        eprintln!("check (b): the in-flight transaction's write is visible after restart (or it wrote nothing)");
    }
    Ok((digest_ok, loser_absent))
}
