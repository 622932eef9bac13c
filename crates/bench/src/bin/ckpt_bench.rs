//! `ckpt_bench`: commit tail latency when the log keeps crossing its high
//! watermark — maintenance on the committing client vs on the flusher
//! thread.
//!
//! Real wall-clock time, like `scale` (not simulated 1995 time). The
//! same disjoint-working-set update workload runs twice against servers
//! whose *data* disk charges a per-page-write device latency and whose
//! log disk charges a per-sync latency, with the high watermark set so a
//! checkpoint falls due every few dozen transactions. There is one
//! checkpoint procedure (drain incrementally, then one record — it never
//! stops the server); what differs is who runs it:
//!
//! * `inline` — no flusher thread: the client whose commit finds the log
//!   past the watermark runs the checkpoint before its `commit` returns;
//!   every client that commits meanwhile finds the log still past it,
//!   waits for the maintenance lock, and finds the work done.
//! * `flusher` — `Server::start_flusher`: a commit past the watermark
//!   only queues a (deduplicated) wakeup; the drain claims batches under
//!   one shard lock at a time and writes with no foreground-blocking lock
//!   held, so commits only ever pay the log sync.
//!
//! Both runs end with a crash + restart and re-assert every committed
//! value.
//!
//! Results go to `BENCH_ckpt.json` (see EXPERIMENTS.md): commit
//! p50/p99/max, checkpoints taken, drain batch shape, and `p99_ratio`
//! (inline p99 / flusher p99 — reported, not a bar: the stop-the-world
//! checkpoint the old `>= 3` bar was measured against no longer exists).
//!
//! Flags:
//!   --smoke            tiny counts and near-zero latencies: exercises
//!                      the harness and JSON output only
//!   --validate <path>  parse a previously written BENCH_ckpt.json and
//!                      check it covers both rows; exits non-zero on
//!                      failure

use qs_bench::driver::{
    assert_workload_applied, build_ckpt_server, drive_threads_commit_latency, ScaleWorkload,
};
use qs_esm::{Server, ServerConfig};
use qs_sim::{HardwareModel, JsonWriter, Meter};
use qs_trace::Tracer;
use quickstore::SystemConfig;
use std::sync::Arc;
use std::time::Duration;

const CLIENTS: usize = 8;
const PAGES_PER_CLIENT: usize = 16;
/// Pool shards, as in the scale bench (the PR-3 decomposition).
const SHARDS: usize = 8;
/// Log bytes between checkpoints: the high watermark, as an absolute size.
/// A transaction logs about 3 KB, so one falls due every ~40 of the 640.
const CKPT_EVERY_BYTES: f64 = 128.0 * 1024.0;
/// The log itself is far larger: with maintenance inline, everybody else
/// keeps appending for the length of a checkpoint.
const LOG_MB: f64 = 64.0;
fn workload(smoke: bool) -> ScaleWorkload {
    ScaleWorkload {
        clients: CLIENTS,
        txns_per_client: if smoke { 12 } else { 80 },
        pages_per_client: PAGES_PER_CLIENT,
        sync_latency: if smoke { Duration::from_micros(20) } else { Duration::from_micros(150) },
    }
}

/// Device time per data-page write: a checkpoint's drain costs `dirty
/// pages x this`, and inline that is the committing client's time.
fn data_write_latency(smoke: bool) -> Duration {
    if smoke {
        Duration::from_micros(5)
    } else {
        Duration::from_micros(100)
    }
}

fn server_cfg(w: &ScaleWorkload) -> ServerConfig {
    let flavor = SystemConfig::by_name("PD-ESM").expect("shared scheme list").flavor;
    let mut cfg = ServerConfig::new(flavor)
        .with_pool_mb(8.0)
        .with_volume_pages((w.clients * w.pages_per_client * 2).max(1024))
        .with_log_mb(LOG_MB)
        .with_pool_shards(SHARDS);
    cfg.log_high_watermark = CKPT_EVERY_BYTES / (LOG_MB * 1024.0 * 1024.0);
    cfg
}

struct ModeResult {
    name: String,
    txns: u64,
    commit_p50_ns: u64,
    commit_p99_ns: u64,
    commit_max_ns: u64,
    checkpoints: u64,
    drain_batches: u64,
    drain_pages: u64,
}

impl ModeResult {
    fn pages_per_batch(&self) -> f64 {
        self.drain_pages as f64 / self.drain_batches.max(1) as f64
    }
}

fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[((sorted.len() - 1) as f64 * q) as usize]
}

/// One full mode: drive the workload while the log keeps crossing the
/// watermark, then crash, restart, and re-assert every committed value
/// survived.
fn run_mode(w: &ScaleWorkload, flusher: bool, smoke: bool, name: &str) -> ModeResult {
    let tracer = Tracer::flight(Meter::new(), HardwareModel::paper_1995(), 256);
    let (server, sets) =
        build_ckpt_server(server_cfg(w), w, data_write_latency(smoke), Arc::clone(&tracer));
    if flusher {
        server.start_flusher();
    }
    let mut lats = drive_threads_commit_latency(&server, &sets, w.txns_per_client);
    // Lets a queued pass finish; a no-op for the inline row.
    server.stop_flusher();
    assert_workload_applied(&server, &sets, w.txns_per_client);
    let checkpoints = server.checkpoints_taken();
    assert!(checkpoints > 0, "{name}: the log never crossed its watermark");
    let (drain_batches, drain_pages) = server.drain_stats();

    let parts = Arc::try_unwrap(server).ok().expect("sole owner").crash();
    let restarted = Server::restart(parts, server_cfg(w), Meter::new())
        .expect("restart after checkpointed run");
    assert_eq!(restarted.active_txns(), 0, "{name}: transactions leaked through restart");
    assert_workload_applied(&restarted, &sets, w.txns_per_client);
    drop(restarted.crash());

    lats.sort_unstable();
    ModeResult {
        name: name.into(),
        txns: w.total_txns() as u64,
        commit_p50_ns: percentile(&lats, 0.50),
        commit_p99_ns: percentile(&lats, 0.99),
        commit_max_ns: lats.last().copied().unwrap_or(0),
        checkpoints,
        drain_batches,
        drain_pages,
    }
}

fn expected_names() -> Vec<String> {
    vec!["ckpt/inline".into(), "ckpt/flusher".into()]
}

fn render_json(results: &[ModeResult], ratio: f64, smoke: bool) -> String {
    let mut w = JsonWriter::new();
    w.begin_object()
        .field_str("benchmark", "ckpt")
        .field_str("build", if cfg!(debug_assertions) { "debug" } else { "release" })
        .key("smoke")
        .bool(smoke)
        .field_f64("p99_ratio", ratio)
        .key("results")
        .begin_array();
    for r in results {
        w.begin_object()
            .field_str("name", &r.name)
            .field_u64("txns", r.txns)
            .field_u64("commit_p50_ns", r.commit_p50_ns)
            .field_u64("commit_p99_ns", r.commit_p99_ns)
            .field_u64("commit_max_ns", r.commit_max_ns)
            .field_u64("checkpoints", r.checkpoints)
            .field_u64("drain_batches", r.drain_batches)
            .field_u64("drain_pages", r.drain_pages)
            .field_f64("pages_per_batch", r.pages_per_batch())
            .end_object();
    }
    w.end_array().end_object();
    w.finish()
}

fn validate(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    qs_bench::jsoncheck::check_json(&text)
        .map_err(|at| format!("{path}: malformed JSON at byte {at}"))?;
    let names = expected_names();
    let missing: Vec<&String> =
        names.iter().filter(|name| !text.contains(&format!("\"name\":\"{name}\""))).collect();
    if !missing.is_empty() {
        return Err(format!("{path}: missing benchmark results: {missing:?}"));
    }
    let ratio = text
        .split("\"p99_ratio\":")
        .nth(1)
        .and_then(|rest| rest.split([',', '}']).next()?.trim().parse::<f64>().ok())
        .ok_or_else(|| format!("{path}: no parseable p99_ratio field"))?;
    println!("{path}: inline p99 / flusher p99 = {ratio:.2}x");
    Ok(())
}

fn print_row(r: &ModeResult) {
    println!(
        "{:<16} commit p50 {:>8.1?} p99 {:>8.1?} max {:>8.1?}  | {:>4} ckpts, {:.1} pages/batch",
        r.name,
        Duration::from_nanos(r.commit_p50_ns),
        Duration::from_nanos(r.commit_p99_ns),
        Duration::from_nanos(r.commit_max_ns),
        r.checkpoints,
        r.pages_per_batch(),
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(pos) = args.iter().position(|a| a == "--validate") {
        let Some(path) = args.get(pos + 1) else {
            eprintln!("usage: ckpt_bench --validate <BENCH_ckpt.json>");
            std::process::exit(2);
        };
        match validate(path) {
            Ok(()) => {
                println!("{path}: ok ({} results covered)", expected_names().len());
                return;
            }
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(1);
            }
        }
    }
    let smoke = args.iter().any(|a| a == "--smoke");
    let w = workload(smoke);
    println!(
        "qs-ckpt: commit tail latency, maintenance inline vs on the flusher (build: {}{})",
        if cfg!(debug_assertions) { "DEBUG — use --release for real numbers" } else { "release" },
        if smoke { ", SMOKE — numbers not meaningful" } else { "" }
    );
    println!(
        "-- {} clients x {} txns x {} pages, log sync {:?}, data write {:?} --",
        w.clients,
        w.txns_per_client,
        w.pages_per_client,
        w.sync_latency,
        data_write_latency(smoke)
    );

    let inline = run_mode(&w, false, smoke, "ckpt/inline");
    print_row(&inline);
    let flusher = run_mode(&w, true, smoke, "ckpt/flusher");
    print_row(&flusher);

    let ratio = inline.commit_p99_ns as f64 / flusher.commit_p99_ns.max(1) as f64;
    println!("   inline p99 / flusher p99: {ratio:.2}x");

    let json = render_json(&[inline, flusher], ratio, smoke);
    std::fs::write("BENCH_ckpt.json", &json).expect("write BENCH_ckpt.json");
    println!("wrote BENCH_ckpt.json (2 results)");
}
