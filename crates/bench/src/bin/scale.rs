//! `scale`: wall-clock client scaling of the thread-per-client server.
//!
//! Unlike the figure binaries (simulated 1995 time), this measures *real*
//! elapsed time on the host. For each client count in 16/64/256/1024 the
//! same disjoint-working-set update workload runs two ways against a
//! fresh server whose log disk carries a real per-sync latency, one OS
//! thread per client making direct server calls:
//!
//! * `threads` — group commit off: the paper-era baseline, one log sync
//!   per commit.
//! * `threads_gc` — leader/follower group commit: concurrent committers
//!   share one log sync.
//!
//! Results are written to `BENCH_scale.json` (see EXPERIMENTS.md):
//! throughput, mean commit-force batch and the subsystem-mutex wait p99
//! per row.
//!
//! Flags:
//!   --smoke            tiny transaction counts and near-zero sync
//!                      latency: exercises the harness and JSON output
//!                      only, the numbers are not meaningful
//!   --validate <path>  parse a previously written BENCH_scale.json and
//!                      assert it covers every client count × mode;
//!                      exits non-zero on malformed or incomplete files
//!   --ckpt-interval-ms <n>
//!                      maintenance-on sweep: start the flusher thread
//!                      and queue a checkpoint to it every n ms for the
//!                      duration of every timed run, so the tail
//!                      latencies include checkpoints in flight. The JSON
//!                      schema is unchanged; without the flag no flusher
//!                      runs and nothing checkpoints below the watermark

use qs_bench::driver::{assert_workload_applied, build_scale_server, drive_threads, ScaleWorkload};
use qs_esm::ServerConfig;
use qs_sim::{HardwareModel, JsonWriter, Meter};
use qs_trace::Tracer;
use quickstore::SystemConfig;
use std::sync::Arc;
use std::time::Duration;

/// The sweep.
const CLIENT_COUNTS: &[usize] = &[16, 64, 256, 1024];
/// Pool shards for every mode (the PR-3 decomposition).
const SHARDS: usize = 8;

struct ModeResult {
    name: String,
    clients: usize,
    txns: u64,
    wall: Duration,
    commit_batch_mean: f64,
    lock_wait_p99_ns: u64,
}

impl ModeResult {
    fn throughput_tps(&self) -> f64 {
        self.txns as f64 / self.wall.as_secs_f64().max(1e-9)
    }
}

fn server_cfg(w: &ScaleWorkload, group_commit: bool) -> ServerConfig {
    // Scale measures the server's concurrency, not recovery: every row runs the shared
    // Table 3 list's lead scheme (PD-ESM) rather than a hand-copied flavor.
    let flavor = SystemConfig::by_name("PD-ESM").expect("shared scheme list").flavor;
    ServerConfig::new(flavor)
        .with_pool_mb(32.0)
        .with_volume_pages((w.clients * w.pages_per_client * 2).max(1024))
        .with_log_mb(64.0)
        .with_pool_shards(SHARDS)
        .with_group_commit(group_commit)
}

fn bench_tracer() -> Arc<Tracer> {
    let tracer = Tracer::flight(Meter::new(), HardwareModel::paper_1995(), 256);
    tracer.set_lock_stats(true);
    tracer
}

/// Worst subsystem-mutex wait tail (`lock_wait:*` histograms).
fn lock_wait_p99(tracer: &Tracer) -> u64 {
    tracer
        .summaries()
        .iter()
        .filter(|(name, _)| name.starts_with("lock_wait:"))
        .map(|(_, s)| s.p99)
        .max()
        .unwrap_or(0)
}

/// Run `f` with a checkpoint loop in flight when a `--ckpt-interval-ms`
/// interval is set: the flusher thread is started and a control thread
/// queues a checkpoint to it every `interval` until `f` returns, then the
/// flusher is stopped (its last pass finishes first). `None` runs `f`
/// alone, unchanged.
fn with_checkpointer<T>(
    server: &Arc<qs_esm::Server>,
    interval: Option<Duration>,
    f: impl FnOnce() -> T,
) -> T {
    let Some(interval) = interval else { return f() };
    server.start_flusher();
    let stop = std::sync::atomic::AtomicBool::new(false);
    let out = std::thread::scope(|s| {
        s.spawn(|| {
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                server.request_checkpoint();
                std::thread::sleep(interval);
            }
        });
        let out = f();
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        out
    });
    server.stop_flusher();
    out
}

/// One row.
fn run_threads(
    w: &ScaleWorkload,
    group_commit: bool,
    name: String,
    ckpt: Option<Duration>,
) -> ModeResult {
    let tracer = bench_tracer();
    let (server, sets) = build_scale_server(server_cfg(w, group_commit), w, Arc::clone(&tracer));
    let wall =
        with_checkpointer(&server, ckpt, || drive_threads(&server, &sets, w.txns_per_client));
    assert_workload_applied(&server, &sets, w.txns_per_client);
    let (gc_calls, gc_forces) = server.group_commit_stats();
    ModeResult {
        name,
        clients: w.clients,
        txns: w.total_txns() as u64,
        wall,
        commit_batch_mean: if group_commit && gc_forces > 0 {
            gc_calls as f64 / gc_forces as f64
        } else {
            1.0
        },
        lock_wait_p99_ns: lock_wait_p99(&tracer),
    }
}

fn sweep_workload(clients: usize, smoke: bool) -> ScaleWorkload {
    let total = if smoke { 128 } else { 4096 };
    ScaleWorkload {
        clients,
        txns_per_client: (total / clients).max(2),
        pages_per_client: 2,
        sync_latency: if smoke { Duration::from_micros(20) } else { Duration::from_micros(300) },
    }
}

/// Every result name the harness emits, for `--validate`.
fn expected_names() -> Vec<String> {
    let mut names = Vec::new();
    for &c in CLIENT_COUNTS {
        for mode in ["threads", "threads_gc"] {
            names.push(format!("scale/c{c}/{mode}"));
        }
    }
    names
}

fn render_json(results: &[ModeResult], smoke: bool) -> String {
    let mut w = JsonWriter::new();
    w.begin_object()
        .field_str("benchmark", "scale")
        .field_str("build", if cfg!(debug_assertions) { "debug" } else { "release" })
        .key("smoke")
        .bool(smoke)
        .key("results")
        .begin_array();
    for r in results {
        w.begin_object()
            .field_str("name", &r.name)
            .field_u64("clients", r.clients as u64)
            .field_u64("txns", r.txns)
            .field_u64("wall_ns", r.wall.as_nanos() as u64)
            .field_f64("throughput_tps", r.throughput_tps())
            .field_f64("commit_batch_mean", r.commit_batch_mean)
            .field_u64("lock_wait_p99_ns", r.lock_wait_p99_ns)
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
    if missing.is_empty() {
        Ok(())
    } else {
        Err(format!("{path}: missing benchmark results: {missing:?}"))
    }
}

fn print_row(r: &ModeResult) {
    println!(
        "{:<26} {:>9.1} tps  wall {:>9.1?}  batch {:>6.2}  lock_p99 {:>9}ns",
        r.name,
        r.throughput_tps(),
        r.wall,
        r.commit_batch_mean,
        r.lock_wait_p99_ns,
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(pos) = args.iter().position(|a| a == "--validate") {
        let Some(path) = args.get(pos + 1) else {
            eprintln!("usage: scale --validate <BENCH_scale.json>");
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
    let ckpt = args.iter().position(|a| a == "--ckpt-interval-ms").map(|pos| {
        let ms: u64 = args.get(pos + 1).and_then(|v| v.parse().ok()).unwrap_or_else(|| {
            eprintln!("usage: scale --ckpt-interval-ms <millis>");
            std::process::exit(2);
        });
        Duration::from_millis(ms.max(1))
    });
    println!(
        "qs-scale: client-scaling wall clock (real time, not simulated; build: {}{}{})",
        if cfg!(debug_assertions) { "DEBUG — use --release for real numbers" } else { "release" },
        if smoke { ", SMOKE — numbers not meaningful" } else { "" },
        match ckpt {
            Some(iv) => format!(", maintenance ON: fuzzy checkpoint every {iv:?}"),
            None => String::new(),
        }
    );

    let mut results: Vec<ModeResult> = Vec::new();
    for &clients in CLIENT_COUNTS {
        let w = sweep_workload(clients, smoke);
        println!(
            "-- {clients} clients x {} txns x {} pages, log sync {:?} --",
            w.txns_per_client, w.pages_per_client, w.sync_latency
        );
        let threads = run_threads(&w, false, format!("scale/c{clients}/threads"), ckpt);
        print_row(&threads);
        let threads_gc = run_threads(&w, true, format!("scale/c{clients}/threads_gc"), ckpt);
        print_row(&threads_gc);
        let speedup = threads.wall.as_secs_f64() / threads_gc.wall.as_secs_f64();
        println!("   threads_gc vs threads: {speedup:.2}x");
        results.extend([threads, threads_gc]);
    }

    let json = render_json(&results, smoke);
    std::fs::write("BENCH_scale.json", &json).expect("write BENCH_scale.json");
    println!("wrote BENCH_scale.json ({} results)", results.len());
}
