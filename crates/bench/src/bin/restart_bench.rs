//! Restart (crash-recovery) wall-clock benchmark: how long does the
//! server take to come back after a crash, and how does that scale with
//! the restart engine's worker pool (`RestartConfig::redo_workers`)?
//!
//! For each recovery scheme (PD-ESM, PD-REDO, WPL): bulk-load a scaled
//! OO7 database, run committed T2 update traversals until the log holds a
//! target volume of recovery work, crash (dropping every piece of
//! volatile state), then repeatedly restart from the same frozen media
//! images with `redo_workers` ∈ {1, 2, 4, 8}, timing each restart
//! end-to-end with a wall clock. Every row runs the same engine —
//! reader, router, N workers — so the rows of one scheme are a scaling
//! curve over the pool size, not a comparison of implementations. The
//! log is made long enough (40 MB) for the engine to pipeline its scan;
//! a scan under 32 MB runs inline on the restart thread, whatever the
//! pool size (EXPERIMENTS.md, "Short scans run inline").
//!
//! Every restart's per-phase work counts are asserted identical across
//! worker counts — the pool size must never change what recovery does
//! (the full bit-equivalence check lives in `tests/restart_equivalence.rs`).
//!
//! Results are written to `BENCH_restart.json` in the same shape as
//! `BENCH_micro.json` plus the git revision measured, each row extended
//! with `stages`: the median restart's per-stage wall accounting from
//! `RestartReport::wall` — per scan the busy and blocked time of reader,
//! router and every worker, plus merge, undo and closing-checkpoint time,
//! and `log_bytes_read` — and with `log_span_bytes`, the stretch of log a
//! restart that reads it once has to read (see EXPERIMENTS.md).
//!
//! Flags:
//!   --smoke            tiny log target and fewer iterations: exercises
//!                      the harness and JSON output only, the numbers are
//!                      not meaningful
//!   --validate <path>  parse a previously written BENCH_restart.json and
//!                      assert it covers every scheme × worker count, that
//!                      every row carries the stage fields, that no scan
//!                      reports more busy time than its threads had wall
//!                      time, that a real (non-smoke) run's scans were
//!                      pipelined over the row's whole pool, and that every
//!                      restart made one scan and read the log once; exits
//!                      non-zero otherwise

use qs_bench::{disk_from, image};
use qs_esm::{ClientConn, RestartConfig, Server, ServerConfig, StableParts};
use qs_oo7::{generate, t2, Oo7Params, T2Mode};
use qs_sim::{JsonWriter, Meter};
use qs_trace::RestartWall;
use qs_types::{ClientId, PAGE_SIZE};
use quickstore::{Store, SystemConfig};
use std::sync::Arc;
use std::time::Instant;

/// Worker-pool sizes timed for every scheme.
const WORKER_COUNTS: &[usize] = &[1, 2, 4, 8];

/// OO7 scaled for restart benchmarking: one module, big enough that T2
/// traversals dirty dozens of pages, small enough that building the crash
/// image is a fraction of the time spent restarting from it.
fn bench_params() -> Oo7Params {
    Oo7Params {
        num_atomic_per_comp: 10,
        num_conn_per_atomic: 3,
        document_size: 500,
        manual_size: 4096,
        num_comp_per_module: 50,
        num_assm_per_assm: 3,
        num_assm_levels: 4,
        num_comp_per_assm: 3,
        num_modules: 1,
    }
}

fn server_cfg(cfg: &SystemConfig) -> ServerConfig {
    let mut s =
        ServerConfig::new(cfg.flavor).with_pool_mb(8.0).with_volume_pages(4096).with_log_mb(48.0);
    // The bench wants the whole workload's log present at the crash, so
    // restart has a large scan to chew through: keep watermark
    // maintenance (checkpoint + truncate) from firing mid-run.
    s.log_high_watermark = 0.95;
    s
}

/// Frozen media images of a crashed server plus workload provenance.
struct CrashImage {
    data: Vec<u8>,
    log: Vec<u8>,
    log_used: usize,
    rounds: usize,
}

/// Load OO7, then run committed T2 traversals (alternating the sparse A
/// and dense B variants) until at least `target_log_bytes` of log exists,
/// and crash.
fn build_crash_image(
    cfg: &SystemConfig,
    scfg: &ServerConfig,
    target_log_bytes: usize,
) -> CrashImage {
    let meter = Meter::new();
    let server = Arc::new(Server::format(scfg.clone(), Arc::clone(&meter)).unwrap());
    let db = generate(&server, &bench_params(), 11).unwrap();
    let client = ClientConn::new(ClientId(0), Arc::clone(&server), cfg.client_pool_pages(), meter);
    let mut store = Store::new(client, cfg.clone()).unwrap();
    let mut rounds = 0usize;
    while server.log_used_bytes() < target_log_bytes && rounds < 4000 {
        store.begin().unwrap();
        let mode = if rounds.is_multiple_of(2) { T2Mode::A } else { T2Mode::B };
        t2(&mut store, &db.modules[0], mode).unwrap();
        store.commit().unwrap();
        rounds += 1;
    }
    let log_used = server.log_used_bytes();
    drop(store);
    let parts = Arc::try_unwrap(server).ok().expect("sole owner").crash();
    CrashImage { data: image(&parts.data_media), log: image(&parts.log_media), log_used, rounds }
}

/// One phase's raw work counts: (name, records, log pages read, data
/// reads, data writes) — the counts-identical assertion's unit.
type PhaseCounts = (String, u64, u64, u64, u64);

/// The stretch of log the longest priced pass covers: analysis from the
/// anchor or redo from the DPT's minimum — what one scan has to read.
fn log_span_bytes(counts: &[PhaseCounts]) -> u64 {
    counts.iter().map(|c| c.2).max().unwrap_or(0) * PAGE_SIZE as u64
}

/// How many bytes a restart that reads `span` bytes of log once may pull
/// from it: 5 % for the frames that straddle a chunk boundary and are
/// read again, plus one chunk.
fn read_once_bound(span: u64) -> u64 {
    span + span / 20 + RestartConfig::default().chunk_bytes as u64
}

/// One timed restart: wall-clock nanoseconds, the restart report's raw
/// work counts (for the counts-identical assertion) and its per-stage
/// wall accounting.
fn timed_restart(
    img: &CrashImage,
    scfg: &ServerConfig,
    workers: usize,
) -> (f64, Vec<PhaseCounts>, RestartWall) {
    let parts = StableParts {
        data_media: disk_from(&img.data),
        log_media: disk_from(&img.log),
        flight: None,
    };
    let scfg = scfg.clone().with_redo_workers(workers);
    let t0 = Instant::now();
    let server = Server::restart(parts, scfg, Meter::new()).unwrap();
    let ns = t0.elapsed().as_nanos() as f64;
    let report = server.restart_report().expect("restart leaves a report");
    let counts = report
        .phases
        .iter()
        .map(|p| (p.name.to_string(), p.records, p.pages_read, p.data_reads, p.data_writes))
        .collect();
    (ns, counts, report.wall)
}

struct BenchResult {
    name: String,
    median_ns: f64,
    min_ns: f64,
    max_ns: f64,
    log_span_bytes: u64,
    /// Stage accounting of the median restart.
    stages: RestartWall,
}

fn ns(v: f64) -> String {
    if v >= 1e9 {
        format!("{:.3} s", v / 1e9)
    } else if v >= 1e6 {
        format!("{:.3} ms", v / 1e6)
    } else if v >= 1e3 {
        format!("{:.3} µs", v / 1e3)
    } else {
        format!("{v:.1} ns")
    }
}

fn render_json(results: &[BenchResult], smoke: bool) -> String {
    let mut w = JsonWriter::new();
    w.begin_object()
        .field_str("benchmark", "restart")
        .field_str("build", if cfg!(debug_assertions) { "debug" } else { "release" })
        .key("smoke")
        .bool(smoke)
        // The rows are a curve over thread counts: say how many cores the
        // threads had.
        .key("host_cores")
        .usize(std::thread::available_parallelism().map_or(0, |n| n.get()))
        .field_str("git_rev", &git_rev())
        .key("results")
        .begin_array();
    for r in results {
        w.begin_object()
            .field_str("name", &r.name)
            .field_f64("median_ns", r.median_ns)
            .field_f64("min_ns", r.min_ns)
            .field_f64("max_ns", r.max_ns)
            .field_u64("log_span_bytes", r.log_span_bytes)
            .key("stages");
        r.stages.write_json(&mut w);
        w.end_object();
    }
    w.end_array().end_object();
    w.finish()
}

/// `git describe` of the tree the binary ran in, `-dirty` if it had
/// uncommitted changes; "unknown" outside a git checkout.
fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".into(), |rev| rev.trim().to_string())
}

fn schemes() -> Vec<SystemConfig> {
    // The page-diffing variant of every recovery flavor plus WPL, drawn
    // from the shared Table 3 list: new flavors get restart rows (and
    // `--validate` coverage) automatically. The sub-page schemes differ
    // only in how the client generates records, not in restart work.
    SystemConfig::all_schemes()
        .into_iter()
        .map(|(cfg, _)| cfg)
        .filter(|cfg| !cfg.log_gen.software_updates())
        .map(|cfg| cfg.with_memory(8.0, 2.0))
        .collect()
}

/// Every result name the harness emits and its pool size, for
/// `--validate`.
fn expected_rows() -> Vec<(String, usize)> {
    let mut rows = Vec::new();
    for cfg in schemes() {
        for &w in WORKER_COUNTS {
            rows.push((format!("restart/{}/workers_{w}", cfg.name()), w));
        }
    }
    rows
}

fn validate(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    qs_bench::jsoncheck::check_json(&text)
        .map_err(|at| format!("{path}: malformed JSON at byte {at}"))?;
    if !text.contains("\"git_rev\":\"") {
        return Err(format!("{path}: no git_rev field"));
    }
    // A real run's log is long enough to be pipelined: every row must
    // show its whole pool. (The smoke log is scanned inline.)
    let pipelined = text.contains("\"smoke\":false");
    // Rows are flat up to `stages`, so each row is the text between two
    // `"name":` keys.
    for (name, pool) in expected_rows() {
        let row = text
            .split("\"name\":")
            .find(|row| row.starts_with(&format!("\"{name}\"")))
            .ok_or_else(|| format!("{path}: missing benchmark result {name}"))?;
        check_stages(row, pipelined.then_some(pool)).map_err(|e| format!("{path}: {name}: {e}"))?;
    }
    Ok(())
}

/// The numbers after every occurrence of `"key":` in `text`, each either
/// a scalar or a flat array.
fn numbers_after(text: &str, key: &str) -> Result<Vec<Vec<u64>>, String> {
    text.split(&format!("\"{key}\":"))
        .skip(1)
        .map(|rest| {
            let list = match rest.strip_prefix('[') {
                Some(array) => array.split(']').next(),
                None => rest.split([',', '}']).next(),
            };
            list.unwrap_or("")
                .split(',')
                .map(|n| n.trim().parse::<u64>().map_err(|_| format!("unparseable {key}")))
                .collect()
        })
        .collect()
}

/// One row's stage fields: present, one busy and one blocked number per
/// stage (reader, router, at least one worker — `pool` of them if the
/// scan was pipelined), per scan no more busy time than its stages had
/// wall time — and one scan, which read the log once.
fn check_stages(row: &str, pool: Option<usize>) -> Result<(), String> {
    let scalar = |key: &str| match numbers_after(row, key)?.as_slice() {
        [one] if one.len() == 1 => Ok(one[0]),
        _ => Err(format!("no {key} field")),
    };
    scalar("undo_ns")?;
    scalar("checkpoint_ns")?;
    let (read, span) = (scalar("log_bytes_read")?, scalar("log_span_bytes")?);
    let walls = numbers_after(row, "wall_ns")?;
    let busy = numbers_after(row, "busy_ns")?;
    let blocked = numbers_after(row, "blocked_ns")?;
    let merges = numbers_after(row, "merge_ns")?;
    if walls.is_empty() || [busy.len(), blocked.len(), merges.len()] != [walls.len(); 3] {
        return Err("missing or unbalanced per-scan stage fields".into());
    }
    if walls.len() != 1 || read > read_once_bound(span) {
        return Err(format!(
            "{} scan(s) read {read} bytes of a {span}-byte log: the second read is back",
            walls.len()
        ));
    }
    for (i, wall) in walls.iter().enumerate() {
        let (wall, threads) = (wall[0], busy[i].len() as u64);
        if threads < 3 || blocked[i].len() as u64 != threads {
            return Err(format!("scan {i}: want reader, router and workers, got {threads} stages"));
        }
        if pool.is_some_and(|pool| threads != 2 + pool as u64) {
            return Err(format!("scan {i}: {threads} stages, the pool was not used"));
        }
        let sum: u64 = busy[i].iter().sum::<u64>() + merges[i][0];
        if sum > wall * threads {
            return Err(format!(
                "scan {i}: busy {sum} ns exceeds wall {wall} ns x {threads} threads"
            ));
        }
    }
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(pos) = args.iter().position(|a| a == "--validate") {
        let Some(path) = args.get(pos + 1) else {
            eprintln!("usage: restart_bench --validate <BENCH_restart.json>");
            std::process::exit(2);
        };
        match validate(path) {
            Ok(()) => {
                println!("{path}: ok ({} results covered)", expected_rows().len());
                return;
            }
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(1);
            }
        }
    }
    let smoke = args.iter().any(|a| a == "--smoke");
    // The smoke log is a few chunks long, so that reading it twice is
    // outside the read-once bound `--validate` checks; the real one is
    // long enough for the engine to pipeline its scan (a shorter scan
    // runs inline and every row of a scheme would time the same thing).
    let (target_log_bytes, iters) = if smoke { (2 << 20, 2) } else { (40 << 20, 5) };
    println!(
        "restart_bench: {} iterations per worker count (build: {}{})",
        iters,
        if cfg!(debug_assertions) { "DEBUG — use --release for real numbers" } else { "release" },
        if smoke { ", SMOKE — numbers not meaningful" } else { "" }
    );

    let mut results: Vec<BenchResult> = Vec::new();
    for cfg in schemes() {
        let name = cfg.name();
        let scfg = server_cfg(&cfg);
        let img = build_crash_image(&cfg, &scfg, target_log_bytes);
        println!(
            "-- {name}: crashed holding {:.1} MB of log after {} committed traversals --",
            img.log_used as f64 / (1 << 20) as f64,
            img.rounds
        );

        let mut baseline_counts: Option<Vec<PhaseCounts>> = None;
        let mut medians: Vec<(usize, f64)> = Vec::new();
        for &workers in WORKER_COUNTS {
            let _ = timed_restart(&img, &scfg, workers); // warmup
            let mut samples: Vec<(f64, RestartWall)> = Vec::with_capacity(iters);
            for _ in 0..iters {
                let (t, counts, stages) = timed_restart(&img, &scfg, workers);
                match &baseline_counts {
                    None => baseline_counts = Some(counts),
                    Some(base) => assert_eq!(
                        &counts, base,
                        "{name}: workers={workers} changed the restart phase counts"
                    ),
                }
                samples.push((t, stages));
            }
            samples.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
            let (min, max) = (samples[0].0, samples[samples.len() - 1].0);
            let (median, stages) = samples.swap_remove(samples.len() / 2);
            let rname = format!("restart/{name}/workers_{workers}");
            println!(
                "{rname:<36} median {:>12}  min {:>12}  max {:>12}",
                ns(median),
                ns(min),
                ns(max)
            );
            print!("{}", stages.render_text());
            medians.push((workers, median));
            results.push(BenchResult {
                name: rname,
                median_ns: median,
                min_ns: min,
                max_ns: max,
                log_span_bytes: log_span_bytes(baseline_counts.as_deref().expect("timed above")),
                stages,
            });
        }
        let curve: Vec<String> =
            medians.iter().map(|&(w, m)| format!("{w}: {:.2}", m / medians[0].1)).collect();
        println!("   median relative to workers_{}: {}", medians[0].0, curve.join("  "));
    }
    let json = render_json(&results, smoke);
    std::fs::write("BENCH_restart.json", &json).expect("write BENCH_restart.json");
    println!("wrote BENCH_restart.json ({} results)", results.len());
}
