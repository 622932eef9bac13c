//! `adaptive_bench`: per-transaction adaptive scheme election (§6g)
//! against every fixed scheme, on three OO7-style workloads.
//!
//! * `sparse` — T2A traversals: a handful of 8-byte updates scattered
//!   over many pages. The cheapest records are REDO-only logical ones.
//! * `dense`  — manual edits: striped rewrites covering ~60% of every
//!   manual-chunk page. Still fragmented enough that logical records
//!   undercut whole-page images.
//! * `mixed`  — a rotation of sparse traversals, dense edits, and bulk
//!   whole-manual rewrites (near-full pages, where a whole-page image is
//!   the compact format). No fixed scheme fits all three shapes; the
//!   elector picks per transaction.
//!
//! Costs are the *modeled* 1995-testbed demands (`HardwareModel`), the
//! same pricing every figure uses: counters from the measured window are
//! converted to seconds, so runs are deterministic and build-independent.
//! Log volume is the device truth — sequential log pages appended.
//!
//! Every run ends with a crash; the media must restart byte-identically
//! across worker counts (1 and 4).
//!
//! Results go to `BENCH_adaptive.json`. Acceptance (checked by
//! `--validate` on non-smoke files): on every workload adaptive is
//! within 1.05x of the best fixed scheme on log bytes and mean commit
//! cost, and on `mixed` the worst fixed scheme is >= 1.3x worse than
//! adaptive on both.
//!
//! Flags:
//!   --smoke            tiny database, few transactions: harness + JSON
//!                      shape only, ratios not meaningful
//!   --validate <path>  parse a previously written BENCH_adaptive.json
//!                      and (non-smoke) enforce the acceptance bars

use qs_bench::{disk_from, image};
use qs_esm::{ClientConn, Server, ServerConfig, StableParts};
use qs_oo7::{gen, params::DbSize, params::Oo7Params, traversal, T2Mode};
use qs_sim::{HardwareModel, JsonWriter, Meter};
use qs_types::{ClientId, Oid, PAGE_SIZE};
use quickstore::{Store, SystemConfig};
use std::sync::Arc;

const FIXED: [&str; 4] = ["PD-ESM", "SD-ESM", "WPL", "PD-RLOG"];
const WORKLOADS: [&str; 3] = ["sparse", "dense", "mixed"];
const MAX_VS_BEST: f64 = 1.05;
const MIN_VS_WORST: f64 = 1.3;

/// Byte written in striped / bulk manual edits for transaction `i` —
/// always different from the previous round so diffs are real.
fn fill(i: usize) -> u8 {
    (i % 251) as u8 + 1
}

/// Dense: rewrite ~30% of every manual chunk in 160-byte stripes every
/// 512 bytes (a fragmented document edit). Fragmented but touching every
/// page, so the interesting fixed schemes all pay per page.
fn dense_txn(store: &mut Store, chunks: &[(Oid, usize)], i: usize) {
    store.begin().unwrap();
    for &(oid, len) in chunks {
        let mut off = 0;
        while off < len {
            let n = 160.min(len - off);
            store.modify(oid, off, &vec![fill(i); n]).unwrap();
            off += 512;
        }
    }
    store.commit().unwrap();
}

/// Bulk: replace the whole manual — every chunk rewritten end to end
/// (near-full pages; the whole-page image is the compact record here).
fn bulk_txn(store: &mut Store, chunks: &[(Oid, usize)], i: usize) {
    store.begin().unwrap();
    for &(oid, len) in chunks {
        store.modify(oid, 0, &vec![fill(i) ^ 0xA5; len]).unwrap();
    }
    store.commit().unwrap();
}

struct RunResult {
    name: String,
    txns: u64,
    log_bytes: u64,
    mean_commit_s: f64,
    elected: [u64; 4], // pd, sd, wpl, rlog (adaptive runs only)
    scheme_switches: u64,
}

fn config_for(scheme: &str) -> SystemConfig {
    let cfg = if scheme == "ADAPT" {
        SystemConfig::adaptive()
    } else {
        SystemConfig::by_name(scheme).expect("fixed scheme name")
    };
    // 16 MB client, 6 MB recovery buffer: T2A's ~500-page write set fits,
    // so no scheme pays overflow records and the comparison is clean.
    cfg.with_memory(16.0, 6.0)
}

fn server_cfg(scheme: &str, smoke: bool) -> ServerConfig {
    let flavor = config_for(scheme).flavor;
    let (pool, volume, log) = if smoke { (8.0, 2048, 32.0) } else { (36.0, 6000, 128.0) };
    ServerConfig::new(flavor).with_pool_mb(pool).with_volume_pages(volume).with_log_mb(log)
}

/// Crash the server, then require the 1-worker and the 4-worker restart
/// to recover byte-identical media.
fn assert_restart_equivalence(server: Server, scheme: &str, smoke: bool, run: &str) {
    let parts = server.crash();
    let (data, log) = (image(&parts.data_media), image(&parts.log_media));
    let mut images = Vec::new();
    for workers in [1usize, 4] {
        let parts =
            StableParts { data_media: disk_from(&data), log_media: disk_from(&log), flight: None };
        let scfg = server_cfg(scheme, smoke).with_redo_workers(workers);
        let restarted = Server::restart(parts, scfg, Meter::new()).expect("restart");
        assert_eq!(restarted.active_txns(), 0, "{run}: transactions leaked through restart");
        restarted.quiesce().unwrap();
        let p = restarted.crash();
        images.push((image(&p.data_media), image(&p.log_media)));
    }
    assert_eq!(images[0], images[1], "{run}: restart diverged across worker counts");
}

/// One (workload, scheme) run: warm up, measure, model the demands,
/// crash, and check restart equivalence.
fn run_one(workload: &str, scheme: &str, smoke: bool) -> RunResult {
    let cfg = config_for(scheme);
    let meter = Meter::new();
    let server = Arc::new(Server::format(server_cfg(scheme, smoke), Arc::clone(&meter)).unwrap());
    let mut params = if smoke { Oo7Params::tiny() } else { Oo7Params::of(DbSize::Small) };
    params.num_modules = 1;
    let db = gen::generate(&server, &params, 1995).unwrap();
    let module = &db.modules[0];
    let client = ClientConn::new(
        ClientId(0),
        Arc::clone(&server),
        cfg.client_pool_pages(),
        Arc::clone(&meter),
    );
    let mut store = Store::new(client, cfg.clone()).unwrap();
    let chunks: Vec<(Oid, usize)> = module
        .manual_chunks
        .iter()
        .map(|&oid| {
            store.begin().unwrap();
            let len = store.object_len(oid).unwrap();
            store.commit().unwrap();
            (oid, len)
        })
        .collect();

    let txn = |store: &mut Store, i: usize| match workload {
        "sparse" => {
            store.begin().unwrap();
            traversal::t2(store, module, T2Mode::A).unwrap();
            store.commit().unwrap();
        }
        "dense" => dense_txn(store, &chunks, i),
        // sparse, dense, sparse, bulk — the rotation no fixed scheme fits.
        "mixed" => match i % 4 {
            3 => bulk_txn(store, &chunks, i),
            1 => dense_txn(store, &chunks, i),
            _ => {
                store.begin().unwrap();
                traversal::t2(store, module, T2Mode::A).unwrap();
                store.commit().unwrap();
            }
        },
        other => panic!("unknown workload {other}"),
    };

    let (warmup, measure) = match (workload, smoke) {
        ("mixed", false) => (4, 8),
        ("mixed", true) => (4, 4),
        (_, false) => (1, 4),
        (_, true) => (1, 2),
    };
    for i in 0..warmup {
        txn(&mut store, i);
    }
    let before = meter.snapshot();
    for i in 0..measure {
        txn(&mut store, warmup + i);
    }
    let window = meter.snapshot().since(&before);
    drop(store);

    let hw = HardwareModel::paper_1995();
    let demand = window.per_txn_demand(&hw, measure as u64);
    let name = format!("{workload}/{scheme}");
    let server = Arc::try_unwrap(server).ok().expect("sole owner");
    assert_restart_equivalence(server, scheme, smoke, &name);
    RunResult {
        name,
        txns: measure as u64,
        log_bytes: window.log_pages_written * PAGE_SIZE as u64,
        mean_commit_s: demand.total(),
        elected: [window.txns_pd, window.txns_sd, window.txns_wpl, window.txns_rlog],
        scheme_switches: window.scheme_switches,
    }
}

/// The acceptance ratios for one workload: adaptive vs the best fixed
/// scheme (both metrics), and — used on `mixed` — the worst fixed scheme
/// vs adaptive.
struct Bars {
    adapt_log: f64,
    adapt_commit: f64,
    worst_log: f64,
    worst_commit: f64,
}

fn bars(fixed: &[&RunResult], adapt: &RunResult) -> Bars {
    let logs: Vec<f64> = fixed.iter().map(|r| r.log_bytes as f64).collect();
    let commits: Vec<f64> = fixed.iter().map(|r| r.mean_commit_s).collect();
    let min = |v: &[f64]| v.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = |v: &[f64]| v.iter().cloned().fold(0.0, f64::max);
    Bars {
        adapt_log: adapt.log_bytes as f64 / min(&logs),
        adapt_commit: adapt.mean_commit_s / min(&commits),
        worst_log: max(&logs) / adapt.log_bytes as f64,
        worst_commit: max(&commits) / adapt.mean_commit_s,
    }
}

fn render_json(results: &[RunResult], all_bars: &[(String, Bars)], smoke: bool) -> String {
    let mut w = JsonWriter::new();
    w.begin_object()
        .field_str("benchmark", "adaptive")
        .field_str("build", if cfg!(debug_assertions) { "debug" } else { "release" })
        .key("smoke")
        .bool(smoke);
    for (wl, b) in all_bars {
        w.field_f64(&format!("{wl}_adapt_vs_best_log"), b.adapt_log)
            .field_f64(&format!("{wl}_adapt_vs_best_commit"), b.adapt_commit)
            .field_f64(&format!("{wl}_worst_vs_adapt_log"), b.worst_log)
            .field_f64(&format!("{wl}_worst_vs_adapt_commit"), b.worst_commit);
    }
    w.key("results").begin_array();
    for r in results {
        w.begin_object()
            .field_str("name", &r.name)
            .field_u64("txns", r.txns)
            .field_u64("log_bytes", r.log_bytes)
            .field_f64("mean_commit_s", r.mean_commit_s)
            .field_u64("txns_pd", r.elected[0])
            .field_u64("txns_sd", r.elected[1])
            .field_u64("txns_wpl", r.elected[2])
            .field_u64("txns_rlog", r.elected[3])
            .field_u64("scheme_switches", r.scheme_switches)
            .end_object();
    }
    w.end_array().end_object();
    w.finish()
}

fn expected_names() -> Vec<String> {
    let mut names = Vec::new();
    for wl in WORKLOADS {
        for s in FIXED.iter().copied().chain(["ADAPT"]) {
            names.push(format!("{wl}/{s}"));
        }
    }
    names
}

fn json_f64(text: &str, key: &str) -> Option<f64> {
    text.split(&format!("\"{key}\":"))
        .nth(1)
        .and_then(|rest| rest.split([',', '}']).next()?.trim().parse::<f64>().ok())
}

fn validate(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    qs_bench::jsoncheck::check_json(&text)
        .map_err(|at| format!("{path}: malformed JSON at byte {at}"))?;
    let missing: Vec<String> = expected_names()
        .into_iter()
        .filter(|name| !text.contains(&format!("\"name\":\"{name}\"")))
        .collect();
    if !missing.is_empty() {
        return Err(format!("{path}: missing benchmark results: {missing:?}"));
    }
    let mut ratios = Vec::new();
    for wl in WORKLOADS {
        for metric in ["log", "commit"] {
            let key = format!("{wl}_adapt_vs_best_{metric}");
            let v = json_f64(&text, &key).ok_or(format!("{path}: no parseable {key}"))?;
            ratios.push((key, v, MAX_VS_BEST, true));
        }
    }
    for metric in ["log", "commit"] {
        let key = format!("mixed_worst_vs_adapt_{metric}");
        let v = json_f64(&text, &key).ok_or(format!("{path}: no parseable {key}"))?;
        ratios.push((key, v, MIN_VS_WORST, false));
    }
    if text.contains("\"smoke\":true") {
        println!("{path}: smoke file, skipping the acceptance bars");
        return Ok(());
    }
    for (key, v, bar, upper) in ratios {
        let ok = if upper { v <= bar } else { v >= bar };
        if !ok {
            return Err(format!(
                "{path}: {key} = {v:.3} misses the bar ({} {bar})",
                if upper { "<=" } else { ">=" }
            ));
        }
    }
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(pos) = args.iter().position(|a| a == "--validate") {
        let Some(path) = args.get(pos + 1) else {
            eprintln!("usage: adaptive_bench --validate <BENCH_adaptive.json>");
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
    println!(
        "qs-adaptive: per-transaction scheme election vs the fixed schemes{}",
        if smoke { " (SMOKE — ratios not meaningful)" } else { "" }
    );

    let mut results: Vec<RunResult> = Vec::new();
    let mut all_bars = Vec::new();
    for wl in WORKLOADS {
        for scheme in FIXED.iter().copied().chain(["ADAPT"]) {
            let r = run_one(wl, scheme, smoke);
            println!(
                "{:<16} {:>4} txns  log {:>10} B  commit {:>9.1} ms  [pd {} sd {} wpl {} rlog {}, {} switches]",
                r.name,
                r.txns,
                r.log_bytes,
                r.mean_commit_s * 1e3,
                r.elected[0],
                r.elected[1],
                r.elected[2],
                r.elected[3],
                r.scheme_switches,
            );
            results.push(r);
        }
        let fixed: Vec<&RunResult> = results.iter().rev().skip(1).take(FIXED.len()).rev().collect();
        let adapt = results.last().expect("just pushed");
        let b = bars(&fixed, adapt);
        println!(
            "   {wl}: adaptive vs best fixed — log {:.3}x commit {:.3}x (bar <= {MAX_VS_BEST}); worst vs adaptive — log {:.2}x commit {:.2}x{}",
            b.adapt_log,
            b.adapt_commit,
            b.worst_log,
            b.worst_commit,
            if wl == "mixed" { " (bar >= 1.3)" } else { "" },
        );
        all_bars.push((wl.to_string(), b));
    }

    if !smoke {
        // The elector must actually mix formats on the mixed workload —
        // otherwise this bench degenerates into a fixed-scheme rerun.
        let adapt_mixed = results.iter().find(|r| r.name == "mixed/ADAPT").expect("present");
        let kinds = adapt_mixed.elected.iter().filter(|&&n| n > 0).count();
        assert!(kinds >= 2, "mixed/ADAPT elected only {kinds} scheme kind(s)");
        assert!(adapt_mixed.scheme_switches > 0, "mixed/ADAPT never switched schemes");
        for (wl, b) in &all_bars {
            if b.adapt_log > MAX_VS_BEST || b.adapt_commit > MAX_VS_BEST {
                eprintln!("WARNING: {wl}: adaptive misses the 1.05x bar vs the best fixed scheme");
            }
        }
    }

    let json = render_json(&results, &all_bars, smoke);
    std::fs::write("BENCH_adaptive.json", &json).expect("write BENCH_adaptive.json");
    println!("wrote BENCH_adaptive.json ({} results)", results.len());
}
