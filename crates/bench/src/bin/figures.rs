//! Regenerates the paper's tables and figures, writing each to stdout and
//! to `results/<name>.txt`. See DESIGN.md §4.
//!
//! `figures [NAME…] [--json] [--jobs N]`
//!
//!   NAME…       which experiments to run (see `JOBS`); none = all
//!   --json      `fig04_05` only: print the machine-readable form instead
//!               (hand-rolled writer — the workspace has no serde)
//!   --jobs N    run up to N jobs concurrently (default 1: the serial
//!               order the committed results/ were produced with)
//!
//! All selected jobs always run: a failure does not abort the remaining
//! figures — failures are collected, reported together at the end, and the
//! process exits non-zero once. Output and `results/` files are emitted in
//! the canonical job order regardless of argument or completion order, so
//! the committed artifacts are byte-identical for any `--jobs` value.

use std::fs;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

type FigureFn = fn() -> qs_types::QsResult<String>;

const JOBS: [(&str, FigureFn); 11] = [
    ("table1_2", qs_bench::figures::table1_2),
    ("table3", qs_bench::figures::table3),
    ("fig04_05", qs_bench::figures::fig04_05),
    ("fig06_07", qs_bench::figures::fig06_07),
    ("fig08", qs_bench::figures::fig08),
    ("fig09", qs_bench::figures::fig09),
    ("fig10_11", qs_bench::figures::fig10_11),
    ("fig12_13", qs_bench::figures::fig12_13),
    ("fig14", qs_bench::figures::fig14),
    ("fig15_16", qs_bench::figures::fig15_16),
    ("fig17_18", qs_bench::figures::fig17_18),
];

fn usage() -> ! {
    let names: Vec<&str> = JOBS.iter().map(|(n, _)| *n).collect();
    eprintln!("usage: figures [NAME…] [--json] [--jobs N]\n  NAME: {}", names.join(" "));
    std::process::exit(2);
}

fn main() {
    let mut names: Vec<String> = Vec::new();
    let mut json = false;
    let mut workers = 1usize;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--json" => json = true,
            "--jobs" => match args.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n >= 1 => workers = n,
                _ => usage(),
            },
            name if JOBS.iter().any(|(n, _)| *n == name) => names.push(a),
            _ => usage(),
        }
    }
    if json {
        if names != ["fig04_05"] {
            usage();
        }
        return match qs_bench::figures::fig04_05_json() {
            Ok(s) => print!("{s}"),
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        };
    }
    let jobs: Vec<(&str, FigureFn)> = JOBS
        .into_iter()
        .filter(|(n, _)| names.is_empty() || names.iter().any(|s| s == n))
        .collect();

    fs::create_dir_all("results").ok();

    // Work-stealing over the job list; each slot collects one job's
    // outcome so results can be emitted in canonical order afterwards.
    type Outcome = (qs_types::QsResult<String>, f64);
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Outcome>>> = jobs.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..workers.min(jobs.len()) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some((_, f)) = jobs.get(i) else { break };
                let t0 = Instant::now();
                let out = f();
                *slots[i].lock().unwrap() = Some((out, t0.elapsed().as_secs_f64()));
            });
        }
    });

    let mut failures: Vec<(&str, String)> = Vec::new();
    for ((name, _), slot) in jobs.iter().zip(&slots) {
        let (out, secs) = slot.lock().unwrap().take().expect("every job ran");
        match out {
            Ok(s) => {
                println!("{s}");
                println!("[{name} done in {secs:.1}s]\n");
                fs::write(format!("results/{name}.txt"), &s).ok();
            }
            Err(e) => {
                eprintln!("{name} failed after {secs:.1}s: {e}");
                failures.push((name, e.to_string()));
            }
        }
    }
    if !failures.is_empty() {
        eprintln!("{} of {} figure jobs failed:", failures.len(), jobs.len());
        for (name, e) in &failures {
            eprintln!("  {name}: {e}");
        }
        std::process::exit(1);
    }
}
