//! The repo benchmark. One run = one workload:
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Set-up (timed, repeated) → fixed-count measured phase → crash →
//! restarts from frozen media → correctness checks. Every metric is
//! printed by name with its unit; the last line of standard output is one
//! JSON object `{correct, attempted, failed, metrics}` — the end-to-end
//! metrics with `--trace 0`, the per-layer ones with `--trace 1`.
//! See `README.md` for what each number means and why it is a floor.

mod harness;
mod metrics;
mod probes;
mod spans;
mod stats;
mod workloads;

use harness::{digest, restart_and_verify, Expected, Media};
use metrics::{MetricDef, Report, END_TO_END, PER_LAYER};
use qs_sim::{HardwareModel, MeterSnapshot};
use qs_types::{QsResult, PAGE_SIZE};
use spans::Recorder;
use stats::{floor, nth_highest, percentile};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;
use workloads::{for_each_client, read_all, setup, spec, Client, Db, Instance, Mix, Spec, Timing};

/// `--seconds` at which the workloads run their documented op counts.
const NOMINAL_SECONDS: f64 = 10.0;
/// Set-ups made before the measured phase; the rest of `Spec::setup_reps`
/// are spread over the restart phase.
const SETUPS_FIRST: usize = 3;
/// Equal wall-time windows a multi-client measured phase is cut into for
/// `txn_per_s_peak`, and which of them (by rate, from the top) is reported.
const PEAK_WINDOWS: usize = 40;
const PEAK_RANK: usize = 3;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    inject_lost_commit: bool,
    list: bool,
    out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: NOMINAL_SECONDS,
        trace: false,
        smoke: false,
        inject_lost_commit: false,
        list: false,
        out_dir: PathBuf::from("benchmark/out"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = value("a number")?.parse().map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--out-dir" => args.out_dir = PathBuf::from(value("a directory")?),
            "--smoke" => args.smoke = true,
            "--inject-lost-commit" => args.inject_lost_commit = true,
            "--list" => args.list = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn list() {
    for name in workloads::NAMES {
        let s = spec(name, 1.0, false).expect("listed workloads exist");
        println!("workload {} {}", s.name, s.why);
    }
    let direction = |d: &MetricDef| if d.higher_is_better { "higher" } else { "lower" };
    for d in END_TO_END {
        println!("end_to_end {} {} {} {}", d.name, d.unit, direction(d), d.bound.expect("bounded"));
    }
    for d in PER_LAYER {
        println!("per_layer {} {} {}", d.name, d.unit, direction(d));
    }
}

/// Per-client samples of one phase, pre-sized so the timed loop never
/// allocates.
struct Samples {
    txn_ns: Vec<u64>,
    commit_ns: Vec<u64>,
    /// Completion time since the phase's epoch.
    end_ns: Vec<u64>,
    kind: Vec<u8>,
    failed: u64,
}

impl Samples {
    fn with_capacity(n: usize) -> Samples {
        Samples {
            txn_ns: Vec::with_capacity(n),
            commit_ns: Vec::with_capacity(n),
            end_ns: Vec::with_capacity(n),
            kind: Vec::with_capacity(n),
            failed: 0,
        }
    }

    fn push(&mut self, t: Timing, epoch: Instant) {
        self.txn_ns.push(t.txn_ns);
        self.commit_ns.push(t.commit_ns);
        self.end_ns.push((t.end - epoch).as_nanos() as u64);
        self.kind.push(t.kind);
    }
}

/// Run `n` committed transactions on every client at once. With `traced`
/// each client records spans into a recorder of its own.
fn run_phase(
    spec: &Spec,
    inst: &mut Instance,
    n: usize,
    traced: bool,
) -> (Vec<Samples>, Recorder, u64) {
    let Instance { clients, db, .. } = inst;
    let (mix, db) = (spec.mix, &*db);
    // Most spans per transaction: the striped edit's modify calls.
    let span_capacity = if traced { n * if mix == Mix::Mixed { 1200 } else { 8 } + 16 } else { 0 };
    let epoch = Instant::now();
    let per_client = for_each_client(clients, |c, me| {
        let mut rec =
            if traced { Recorder::on(epoch, me as u16, span_capacity) } else { Recorder::off() };
        let mut s = Samples::with_capacity(n);
        rec.section(|rec| {
            for _ in 0..n {
                match c.run_one(mix, db, me, rec, true) {
                    Ok(t) => s.push(t, epoch),
                    Err(e) => {
                        eprintln!("client {me}: transaction {} failed: {e}", c.next - 1);
                        s.failed += 1;
                        c.store.abort().ok();
                    }
                }
            }
        });
        (s, rec)
    });
    let wall_ns = epoch.elapsed().as_nanos() as u64;
    let mut merged = Recorder::on(epoch, 0, 0);
    let mut samples = Vec::with_capacity(per_client.len());
    for (s, rec) in per_client {
        samples.push(s);
        merged.absorb(rec);
    }
    (samples, merged, wall_ns)
}

/// The workload's floor of `pick`ed samples: the floor per transaction
/// kind, averaged with the rotation weights. Also returns each kind's
/// floor.
fn weighted_floor(
    spec: &Spec,
    samples: &[Samples],
    pick: fn(&Samples) -> &Vec<u64>,
) -> (f64, Vec<f64>) {
    let floors: Vec<f64> = (0..spec.mix.kinds().len())
        .map(|k| {
            let mut of_kind: Vec<u64> = samples
                .iter()
                .flat_map(|s| pick(s).iter().zip(&s.kind).filter(|(_, &kd)| kd as usize == k))
                .map(|(&ns, _)| ns)
                .collect();
            floor(&mut of_kind) as f64
        })
        .collect();
    let total = spec.mix.kinds().iter().zip(&floors).map(|(k, f)| k.weight * f).sum();
    (total, floors)
}

/// `txn_per_s_peak`. Several clients: the phase cut into
/// [`PEAK_WINDOWS`] windows of equal wall time over all clients'
/// completions, the [`PEAK_RANK`]-th highest window rate. One closed-loop
/// client's throughput is just 1/latency, so there the windows are single
/// rotations of the mix (completion to completion, driver overhead
/// included) and the floor estimator picks the rate: the ⌈n/100⌉-th
/// highest.
fn peak_rate(spec: &Spec, samples: &[Samples], wall_ns: u64) -> f64 {
    if let [only] = samples {
        let per = spec.mix.rotation();
        let mut window_ns: Vec<u64> = (per..=only.end_ns.len())
            .step_by(per)
            .map(|hi| only.end_ns[hi - 1] - if hi == per { 0 } else { only.end_ns[hi - per - 1] })
            .collect();
        return per as f64 / (floor(&mut window_ns) as f64 / 1e9);
    }
    let width = wall_ns.div_ceil(PEAK_WINDOWS as u64).max(1);
    let mut counts = [0u64; PEAK_WINDOWS];
    for &end in samples.iter().flat_map(|s| &s.end_ns) {
        counts[((end / width) as usize).min(PEAK_WINDOWS - 1)] += 1;
    }
    let mut rates: Vec<f64> = counts.iter().map(|&c| c as f64 / (width as f64 / 1e9)).collect();
    nth_highest(&mut rates, PEAK_RANK)
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

struct Outcome {
    attempted: u64,
    failed: u64,
    report: Report,
}

/// Count one pass/fail check.
fn check(outcome: &mut Outcome, ok: bool, what: &str) {
    outcome.attempted += 1;
    if !ok {
        outcome.failed += 1;
        eprintln!("FAILED: {what}");
    }
}

/// Run `n` committed transactions on `client` outside any timed phase,
/// counting them as operations.
fn run_untimed(spec: &Spec, client: &mut Client, db: &Db, n: usize, out: &mut Outcome) {
    for _ in 0..n {
        out.attempted += 1;
        if let Err(e) = client.run_one(spec.mix, db, 0, &mut Recorder::off(), true) {
            eprintln!("transaction {} failed: {e}", client.next - 1);
            out.failed += 1;
            client.store.abort().ok();
        }
    }
}

/// What the untraced measured phase produced.
struct Measured {
    samples: Vec<Samples>,
    wall_ns: u64,
    /// Transactions in the phase, over all clients.
    txns: u64,
    /// Meter counts of the phase alone.
    window: MeterSnapshot,
    checkpoints: u64,
    /// Group-commit force calls and real forces in the phase.
    group: (u64, u64),
}

fn run_workload(spec: &Spec, args: &Args) -> QsResult<Outcome> {
    let mut out = Outcome { attempted: 0, failed: 0, report: Report::default() };
    let run_start = Instant::now();
    let media = Media::new(&spec.server, spec.log_sync);
    let mut rec = if args.trace { Recorder::on(run_start, 0, 1 << 16) } else { Recorder::off() };

    // Set-up, timed each time. `SETUPS_FIRST` happen now: the first
    // instance hosts the traced pass, the last one is measured. The rest
    // are interleaved with the restarts, so the set-ups sample the whole
    // run rather than its first second or two.
    let timed_setup = |setup_ns: &mut Vec<u64>| -> QsResult<Instance> {
        let t0 = Instant::now();
        let inst = setup(spec, &media, args.seed)?;
        setup_ns.push(t0.elapsed().as_nanos() as u64);
        Ok(inst)
    };
    let mut setup_ns = Vec::with_capacity(spec.setup_reps);
    let mut traced_floor_ns = 0.0;
    let mut inst = None;
    for rep in 0..SETUPS_FIRST {
        drop(inst.take());
        let mut fresh = timed_setup(&mut setup_ns)?;
        if rep == 0 && args.trace {
            let n = (spec.measured / 4).max(1);
            let (samples, spans, _) = run_phase(spec, &mut fresh, n, true);
            out.attempted += (n * spec.clients) as u64;
            out.failed += samples.iter().map(|s| s.failed).sum::<u64>();
            traced_floor_ns = weighted_floor(spec, &samples, |s| &s.txn_ns).0;
            rec.absorb(spans);
        }
        inst = Some(fresh);
    }
    let mut inst = inst.expect("at least one set-up");

    // Measured phase: fixed transaction count, tracing off.
    let before = inst.meter.snapshot();
    let checkpoints_before = inst.server.checkpoints_taken();
    let group_before = inst.server.group_commit_stats();
    let (samples, _, wall_ns) = run_phase(spec, &mut inst, spec.measured, false);
    let group = inst.server.group_commit_stats();
    let measured = Measured {
        wall_ns,
        txns: (spec.measured * spec.clients) as u64,
        window: inst.meter.snapshot().since(&before),
        checkpoints: inst.server.checkpoints_taken() - checkpoints_before,
        group: (group.0 - group_before.0, group.1 - group_before.1),
        samples,
    };
    out.attempted += measured.txns;
    out.failed += measured.samples.iter().map(|s| s.failed).sum::<u64>();

    let expected = prepare_crash(spec, &mut inst, args.inject_lost_commit, &mut out)?;

    // Crash: only the media survive.
    let Instance { server, clients, db, .. } = inst;
    drop(clients);
    let server = Arc::try_unwrap(server).ok().expect("clients dropped, the server has one owner");
    drop(server.crash());
    let frozen = media.freeze();

    // Restart K times per engine, a set-up every few rounds (the media
    // are restored from the frozen images before every restart anyway),
    // then checks (a)-(d). `setup_s` is the floor like every other timing:
    // set-up is mostly warm-up transactions, so a contended moment moves
    // its median by tens of percent.
    let later_setups = spec.setup_reps - SETUPS_FIRST;
    let every = (spec.restarts / (later_setups + 1)).max(1);
    let restarts = rec.section(|rec| {
        restart_and_verify(spec, &media, &frozen, &expected, rec, |round, rec| {
            if (round + 1) % every == 0 && setup_ns.len() < spec.setup_reps {
                drop(rec.call("bench.setup", 0, || timed_setup(&mut setup_ns))?);
            }
            Ok(())
        })
    })?;
    println!("set-up times: {setup_ns:?} ns");
    out.report.set("setup_s", floor(&mut setup_ns) as f64 / 1e9);
    check(&mut out, restarts.digest_ok, "(a) recovered state equals the last acknowledged commit");
    check(&mut out, restarts.loser_absent, "(b) the in-flight transaction's writes are absent");
    check(&mut out, restarts.media_equal, "(c) serial and parallel restart leave identical media");
    check(&mut out, restarts.counts_equal, "(d) restart phase counts identical across restarts");

    let (txn_floor_ns, restart_ns) = report_untraced(&mut out.report, spec, &measured, &restarts);

    if args.trace {
        // Probes, span-derived floors, the span file.
        let r = &mut out.report;
        probes::server_direct_calls(r, &mut rec)?;
        probes::kernels(r, &mut rec, args.seed)?;
        media.restore(&frozen);
        let scan_ns = probes::log_scan(r, &mut rec, media.parts().log_media)?;
        r.set("esm.restart.scan_share", scan_ns as f64 / restart_ns);
        let span_floor = |name: &str| {
            let mut ns = rec.durations(name);
            if ns.is_empty() {
                0.0
            } else {
                floor(&mut ns) as f64
            }
        };
        r.set("oo7.t2_floor_ms", span_floor("oo7.t2") / 1e6);
        r.set("core.store.begin_floor_us", span_floor("core.store.begin") / 1e3);
        r.set("core.store.modify_floor_ns", span_floor("core.store.modify"));
        r.set("bench.trace_overhead_pct", (traced_floor_ns / txn_floor_ns - 1.0) * 100.0);
        r.set("bench.peak_rss_mb", peak_rss_mb());
        let path = args.out_dir.join(format!("trace_{}.json", spec.name));
        rec.write_json(&path, spec.name, args.seed)
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
        let (top, wall) = rec.coverage();
        println!(
            "trace: {} (top-level spans {:.3} s of {:.3} s traced wall time)",
            path.display(),
            top as f64 / 1e9,
            wall as f64 / 1e9
        );
        let covered = (top as f64 - wall as f64).abs() <= 0.05 * wall as f64;
        check(&mut out, covered, "top-level spans add up to the traced wall time within 5 %");
    }

    println!(
        "{}: seed {} | {} client(s) | {} warm-up + {} measured txns per client | database {} pages | {} restarts per engine | media {:.0} MB | {:.1} s",
        spec.name,
        args.seed,
        spec.clients,
        spec.warmup,
        spec.measured,
        db.pages(),
        spec.restarts,
        (spec.server.volume_pages * PAGE_SIZE + spec.server.log_bytes) as f64 / (1 << 20) as f64,
        run_start.elapsed().as_secs_f64(),
    );
    Ok(out)
}

/// Everything between the measured phase and the crash. Returns what
/// recovery must bring back.
fn prepare_crash(
    spec: &Spec,
    inst: &mut Instance,
    inject_lost_commit: bool,
    out: &mut Outcome,
) -> QsResult<Expected> {
    let Instance { server, clients, db, .. } = inst;
    // Tail: align the crash point to the checkpoint cycle.
    if let Some(extra) = spec.tail_after_checkpoint {
        let start = server.checkpoints_taken();
        let mut ran = 0;
        while server.checkpoints_taken() == start && ran < 4 * spec.measured {
            run_untimed(spec, &mut clients[0], db, 1, out);
            ran += 1;
        }
        check(out, server.checkpoints_taken() > start, "a checkpoint completes in the tail phase");
        run_untimed(spec, &mut clients[0], db, extra, out);
    }

    // Every updatable object as of the last acknowledged commit.
    let mut oids = Vec::new();
    let mut committed = Vec::new();
    for (me, c) in clients.iter_mut().enumerate() {
        let mine = db.updatable(me);
        committed.extend(read_all(&mut c.store, &mine, true)?);
        oids.extend(mine);
    }
    let acknowledged = digest(&committed);
    // What client 0's objects hold when the loser starts (client 0's
    // images lead `committed`).
    let mine = db.updatable(0);
    let baseline = if inject_lost_commit {
        // Test hook: one more acknowledged commit whose effects the
        // expected digest does not include. Check (a) must catch it.
        run_untimed(spec, &mut clients[0], db, 1, out);
        read_all(&mut clients[0].store, &mine, true)?
    } else {
        committed[..mine.len()].to_vec()
    };

    // One more transaction, left in flight at the crash. A bystander's
    // empty commit forces the log, so whatever the loser shipped early is
    // durable and undo has it to roll back.
    out.attempted += 1;
    let loser = match clients[0].run_one(spec.mix, db, 0, &mut Recorder::off(), false) {
        Ok(_) => {
            let dirty = read_all(&mut clients[0].store, &mine, false)?;
            (0..mine.len())
                .find(|&i| dirty[i] != baseline[i])
                .map(|i| (i, baseline[i].clone(), dirty[i].clone()))
        }
        Err(e) => {
            eprintln!("in-flight transaction failed: {e}");
            out.failed += 1;
            None
        }
    };
    let bystander = server.begin();
    server.commit(bystander)?;
    Ok(Expected { oids, digest: acknowledged, loser })
}

/// The end-to-end metrics and every per-layer metric that needs no
/// tracing. Returns `(txn floor, serial restart floor)` in ns.
fn report_untraced(
    r: &mut Report,
    spec: &Spec,
    m: &Measured,
    restarts: &harness::RestartOutcome,
) -> (f64, f64) {
    let (txn_floor_ns, kind_floors) = weighted_floor(spec, &m.samples, |s| &s.txn_ns);
    let (commit_floor_ns, _) = weighted_floor(spec, &m.samples, |s| &s.commit_ns);
    let demand = m.window.per_txn_demand(&HardwareModel::paper_1995(), m.txns);
    let restart_ns = floor(&mut restarts.serial_ns.clone()) as f64;
    let restart_par_ns = floor(&mut restarts.parallel_ns.clone()) as f64;
    r.set("txn_floor_ms", txn_floor_ns / 1e6);
    r.set("commit_floor_us", commit_floor_ns / 1e3);
    r.set("txn_per_s_peak", peak_rate(spec, &m.samples, m.wall_ns));
    r.set(
        "log_bytes_per_txn",
        (m.window.log_pages_written * PAGE_SIZE as u64) as f64 / m.txns as f64,
    );
    r.set("sim_txn_ms", demand.total() * 1e3);
    r.set("restart_ms", restart_ns / 1e6);
    r.set("restart_par_ms", restart_par_ns / 1e6);

    let mut all_txn: Vec<u64> = m.samples.iter().flat_map(|s| s.txn_ns.iter().copied()).collect();
    let mut all_commit: Vec<u64> =
        m.samples.iter().flat_map(|s| s.commit_ns.iter().copied()).collect();
    all_txn.sort_unstable();
    all_commit.sort_unstable();
    r.set("bench.txn_p50_ms", percentile(&all_txn, 50.0) as f64 / 1e6);
    r.set("bench.txn_p99_ms", percentile(&all_txn, 99.0) as f64 / 1e6);
    r.set("bench.commit_p50_us", percentile(&all_commit, 50.0) as f64 / 1e3);
    r.set("bench.commit_p99_us", percentile(&all_commit, 99.0) as f64 / 1e3);
    r.set("bench.txn_per_s_mean", all_txn.len() as f64 / (m.wall_ns as f64 / 1e9));
    r.set("bench.samples", all_txn.len() as f64);
    for (metric, kind) in [
        ("oo7.t2a_floor_ms", "t2a"),
        ("oo7.dense_floor_ms", "dense"),
        ("oo7.bulk_floor_ms", "bulk"),
    ] {
        let at = spec.mix.kinds().iter().position(|k| k.name == kind);
        r.set(metric, at.map_or(0.0, |k| kind_floors[k] / 1e6));
    }
    window_counts(r, &m.window, m.txns);
    r.set("esm.server.checkpoints", m.checkpoints as f64);
    let (calls, forces) = m.group;
    r.set("wal.group.batch_mean", if forces == 0 { 0.0 } else { calls as f64 / forces as f64 });
    let records =
        |name: &str| restarts.phases.iter().find(|p| p.0 == name).map_or(0.0, |p| p.1 as f64);
    r.set("esm.restart.analysis_records", records("analysis"));
    r.set("esm.restart.redo_records", records("redo"));
    r.set("esm.restart.undo_records", records("undo"));
    r.set("esm.restart.log_pages_read", restarts.phases.iter().map(|p| p.2).sum::<u64>() as f64);
    r.set("esm.restart.data_reads", restarts.phases.iter().map(|p| p.3).sum::<u64>() as f64);
    r.set("esm.restart.data_writes", restarts.phases.iter().map(|p| p.4).sum::<u64>() as f64);
    r.set("esm.restart.sim_s", restarts.sim_s);
    r.set("esm.restart.par_speedup", restart_ns / restart_par_ns);
    r.set("sim.client_cpu_ms", demand.client_cpu_s * 1e3);
    r.set("sim.server_cpu_ms", demand.server_cpu_s * 1e3);
    r.set("sim.network_ms", demand.network_s * 1e3);
    r.set("sim.data_disk_ms", demand.data_disk_s * 1e3);
    r.set("sim.log_disk_ms", demand.log_disk_s * 1e3);
    (txn_floor_ns, restart_ns)
}

/// The meter-derived per-transaction counts of the measured window.
fn window_counts(r: &mut Report, w: &MeterSnapshot, txns: u64) {
    let per = |count: u64| count as f64 / txns as f64;
    r.set("oo7.visits_per_txn", per(w.visits));
    r.set("oo7.updates_per_txn", per(w.updates));
    r.set("core.store.write_faults_per_txn", per(w.write_faults));
    r.set("core.store.read_faults_per_txn", per(w.read_faults));
    r.set("core.store.bytes_copied_per_txn", per(w.bytes_copied));
    r.set("core.store.rbuf_overflows_per_txn", per(w.recovery_buffer_overflows));
    r.set("core.store.records_per_txn", per(w.log_records_generated));
    r.set("core.store.image_bytes_per_txn", per(w.log_image_bytes));
    r.set("core.diff.bytes_diffed_per_txn", per(w.bytes_diffed));
    r.set("core.adaptive.txns_pd", w.txns_pd as f64);
    r.set("core.adaptive.txns_sd", w.txns_sd as f64);
    r.set("core.adaptive.txns_wpl", w.txns_wpl as f64);
    r.set("core.adaptive.txns_rlog", w.txns_rlog as f64);
    r.set("core.adaptive.scheme_switches", w.scheme_switches as f64);
    r.set("esm.client.page_requests_per_txn", per(w.page_requests));
    r.set("esm.client.evictions_per_txn", per(w.client_evictions));
    r.set("esm.client.dirty_pages_shipped_per_txn", per(w.dirty_pages_shipped));
    r.set("esm.client.log_pages_shipped_per_txn", per(w.log_record_pages_shipped));
    r.set("esm.client.net_msgs_per_txn", per(w.net_msgs));
    r.set("esm.client.net_bytes_per_txn", per(w.net_bytes));
    r.set("esm.server.pool_misses_per_txn", per(w.server_pool_misses));
    r.set("esm.server.locks_per_txn", per(w.locks_acquired));
    r.set("esm.server.data_reads_per_txn", per(w.data_reads));
    r.set("esm.server.data_writes_per_txn", per(w.data_writes));
    r.set("esm.server.redo_applies_per_txn", per(w.redo_applies));
    r.set("esm.server.maint_data_writes", w.maint_data_writes as f64);
    r.set("esm.server.maint_log_forces", w.maint_log_forces as f64);
    r.set("wal.log.pages_written_per_txn", per(w.log_pages_written));
    r.set("wal.log.forces_per_txn", per(w.log_forces));
    r.set("wal.log.noop_forces_per_txn", per(w.log_forces_noop));
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            eprintln!(
                "usage: qs-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1] \
                 [--smoke] [--inject-lost-commit] [--out-dir DIR] | --list"
            );
            return ExitCode::from(2);
        }
    };
    if args.list {
        list();
        return ExitCode::SUCCESS;
    }
    let scale = args.seconds / NOMINAL_SECONDS / if args.smoke { 20.0 } else { 1.0 };
    let names: Vec<&str> = match &args.workload {
        Some(name) => vec![name.as_str()],
        None => workloads::NAMES.to_vec(),
    };
    let mut all_correct = true;
    for name in names {
        let Some(spec) = spec(name, scale, args.smoke) else {
            eprintln!("unknown workload {name}; known: {}", workloads::NAMES.join(", "));
            return ExitCode::from(2);
        };
        let outcome = match run_workload(&spec, &args) {
            Ok(outcome) => outcome,
            Err(e) => {
                eprintln!("{name}: run aborted: {e}");
                return ExitCode::FAILURE;
            }
        };
        let correct = outcome.failed == 0;
        all_correct &= correct;
        let failed_share = outcome.failed as f64 / outcome.attempted as f64;
        println!("{:<42} {:>22} count", "ops_attempted", outcome.attempted);
        println!("{:<42} {:>22} count", "ops_failed", outcome.failed);
        println!("{:<42} {:>22} ratio", "failed_share", failed_share);
        let gated = if args.trace { PER_LAYER } else { END_TO_END };
        if !args.trace {
            outcome.report.print_ungated(END_TO_END);
        }
        let metrics = outcome.report.render(gated);
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
            outcome.attempted, outcome.failed
        );
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
