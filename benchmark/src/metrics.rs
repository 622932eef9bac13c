//! The metric registry: every name the benchmark can report, with its
//! unit, direction and (for end-to-end metrics) regression bound. This
//! table is what `--list` prints and what `run_sets.sh` checks against
//! `BENCHMARK.json`; a run must set every metric of its pass exactly once.

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Relative worsening that counts as a regression; end-to-end only.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> MetricDef {
    MetricDef { name, unit, higher_is_better: higher, bound: Some(bound) }
}

const fn layer(name: &'static str, unit: &'static str, higher: bool) -> MetricDef {
    MetricDef { name, unit, higher_is_better: higher, bound: None }
}

/// What a user of the system sees. Measured with tracing off.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", false, 0.25),
    e2e("txn_floor_ms", "ms", false, 0.25),
    e2e("commit_floor_us", "us", false, 0.25),
    e2e("txn_per_s_peak", "1/s", true, 0.25),
    e2e("log_bytes_per_txn", "B", false, 0.15),
    e2e("sim_txn_ms", "ms", false, 0.15),
    e2e("restart_ms", "ms", false, 0.25),
    e2e("restart_par_ms", "ms", false, 0.25),
];

/// One layer each; the prefix is the module the number belongs to.
pub const PER_LAYER: &[MetricDef] = &[
    layer("bench.txn_p50_ms", "ms", false),
    layer("bench.txn_p99_ms", "ms", false),
    layer("bench.commit_p50_us", "us", false),
    layer("bench.commit_p99_us", "us", false),
    layer("bench.txn_per_s_mean", "1/s", true),
    layer("bench.samples", "count", true),
    layer("bench.trace_overhead_pct", "%", false),
    layer("bench.peak_rss_mb", "MB", false),
    layer("oo7.t2_floor_ms", "ms", false),
    layer("oo7.t2a_floor_ms", "ms", false),
    layer("oo7.dense_floor_ms", "ms", false),
    layer("oo7.bulk_floor_ms", "ms", false),
    layer("oo7.visits_per_txn", "count", false),
    layer("oo7.updates_per_txn", "count", false),
    layer("core.store.begin_floor_us", "us", false),
    layer("core.store.modify_floor_ns", "ns", false),
    layer("core.store.write_faults_per_txn", "count", false),
    layer("core.store.read_faults_per_txn", "count", false),
    layer("core.store.bytes_copied_per_txn", "B", false),
    layer("core.store.rbuf_overflows_per_txn", "count", false),
    layer("core.store.records_per_txn", "count", false),
    layer("core.store.image_bytes_per_txn", "B", false),
    layer("core.diff.bytes_diffed_per_txn", "B", false),
    layer("core.diff.clean_page_ns", "ns", false),
    layer("core.diff.sparse_page_ns", "ns", false),
    layer("core.diff.dense_page_ns", "ns", false),
    layer("core.adaptive.txns_pd", "count", false),
    layer("core.adaptive.txns_sd", "count", false),
    layer("core.adaptive.txns_wpl", "count", false),
    layer("core.adaptive.txns_rlog", "count", false),
    layer("core.adaptive.scheme_switches", "count", false),
    layer("esm.client.page_requests_per_txn", "count", false),
    layer("esm.client.evictions_per_txn", "count", false),
    layer("esm.client.dirty_pages_shipped_per_txn", "count", false),
    layer("esm.client.log_pages_shipped_per_txn", "count", false),
    layer("esm.client.net_msgs_per_txn", "count", false),
    layer("esm.client.net_bytes_per_txn", "B", false),
    layer("esm.server.begin_ns", "ns", false),
    layer("esm.server.lock_x_ns", "ns", false),
    layer("esm.server.fetch_hit_ns", "ns", false),
    layer("esm.server.recv_log_ns", "ns", false),
    layer("esm.server.recv_page_ns", "ns", false),
    layer("esm.server.commit_us", "us", false),
    layer("esm.server.pool_misses_per_txn", "count", false),
    layer("esm.server.locks_per_txn", "count", false),
    layer("esm.server.data_reads_per_txn", "count", false),
    layer("esm.server.data_writes_per_txn", "count", false),
    layer("esm.server.redo_applies_per_txn", "count", false),
    layer("esm.server.checkpoints", "count", false),
    layer("esm.server.maint_data_writes", "count", false),
    layer("esm.server.maint_log_forces", "count", false),
    layer("wal.log.pages_written_per_txn", "count", false),
    layer("wal.log.forces_per_txn", "count", false),
    layer("wal.log.noop_forces_per_txn", "count", true),
    layer("wal.group.batch_mean", "count", true),
    layer("wal.writer.update_ns", "ns", false),
    layer("wal.log.append_ns", "ns", false),
    layer("wal.log.force_page_us", "us", false),
    layer("wal.stream.scan_mb_per_s", "MB/s", true),
    layer("esm.restart.analysis_records", "count", false),
    layer("esm.restart.redo_records", "count", false),
    layer("esm.restart.undo_records", "count", false),
    layer("esm.restart.log_pages_read", "count", false),
    layer("esm.restart.data_reads", "count", false),
    layer("esm.restart.data_writes", "count", false),
    layer("esm.restart.sim_s", "s", false),
    layer("esm.restart.par_speedup", "ratio", true),
    layer("esm.restart.scan_share", "ratio", false),
    layer("storage.memdisk.write_page_ns", "ns", false),
    layer("storage.memdisk.read_page_ns", "ns", false),
    layer("sim.client_cpu_ms", "ms", false),
    layer("sim.server_cpu_ms", "ms", false),
    layer("sim.network_ms", "ms", false),
    layer("sim.data_disk_ms", "ms", false),
    layer("sim.log_disk_ms", "ms", false),
];

/// The values one run produced, in reporting order.
#[derive(Default)]
pub struct Report {
    values: Vec<(&'static str, f64)>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(!self.values.iter().any(|(n, _)| *n == name), "metric {name} reported twice");
        assert!(value.is_finite(), "metric {name} is not a finite number: {value}");
        self.values.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }

    /// Print every value set that is not in `gated` — medians, tails and
    /// counts shown for the reader, never compared by a gate.
    pub fn print_ungated(&self, gated: &[MetricDef]) {
        for &(name, v) in &self.values {
            if !gated.iter().any(|d| d.name == name) {
                let unit = PER_LAYER.iter().find(|d| d.name == name).map_or("", |d| d.unit);
                println!("{name:<42} {v:>22} {unit} (not gated)");
            }
        }
    }

    /// Print `defs` by name with units, and return them as the body of
    /// the result line's `metrics` object. Panics on a metric the run
    /// never set: a silent gap would read as "unchanged" downstream.
    pub fn render(&self, defs: &[MetricDef]) -> String {
        let mut json = String::from("{");
        for (i, d) in defs.iter().enumerate() {
            let v = self.get(d.name).unwrap_or_else(|| panic!("metric {} was never set", d.name));
            println!("{:<42} {:>22} {}", d.name, v, d.unit);
            if i > 0 {
                json.push_str(", ");
            }
            json.push_str(&format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                d.name, v, d.unit
            ));
        }
        json.push('}');
        json
    }
}
