//! One driver per table/figure of the paper. Each returns the rendered
//! text (the binaries print it; `figures` also writes to
//! `results/`).
//!
//! Environment:
//! * `QS_QUICK=1` — cut warm-up/measured transactions and client count for
//!   a fast smoke run (shapes still visible, absolute precision reduced).

use crate::experiment::{run_curve, run_point, ExperimentPoint, RunOpts};
use crate::report::{render_curve_tables, render_writes_table};
use qs_esm::{RecoveryFlavor, Server, ServerConfig};
use qs_oo7::params::{DbSize, Oo7Params};
use qs_oo7::{gen, T2Mode};
use qs_sim::Meter;
use qs_types::QsResult;
use quickstore::{LogGeneration, SystemConfig};

fn quick() -> bool {
    std::env::var("QS_QUICK").map(|v| v == "1").unwrap_or(false)
}

fn max_clients() -> usize {
    if quick() {
        3
    } else {
        5
    }
}

fn opts(db: DbSize, mode: T2Mode) -> RunOpts {
    let mut o = RunOpts::new(db, mode);
    if quick() {
        o.warmup = 1;
        o.measure = 1;
    }
    o
}

/// The shared Table 3 list (`SystemConfig::all_schemes`) at one memory
/// split, reordered so WPL leads — the paper's figure legends start with
/// it. `with_memory` zeroes the recovery buffer for WPL automatically.
fn systems_with_memory(total_mb: f64, recovery_mb: f64) -> Vec<SystemConfig> {
    let mut v: Vec<SystemConfig> = SystemConfig::all_schemes()
        .into_iter()
        .map(|(cfg, _)| cfg.with_memory(total_mb, recovery_mb))
        .collect();
    v.sort_by_key(|cfg| cfg.flavor != RecoveryFlavor::Wpl); // stable: WPL first, rest keep order
    v
}

/// §5.1 systems: 12 MB per client; diffing schemes split 8 MB pool + 4 MB
/// recovery buffer.
fn unconstrained_systems() -> Vec<SystemConfig> {
    systems_with_memory(12.0, 4.0)
}

/// §5.2 systems: 8 MB per client; diffing schemes 7.5 + 0.5.
fn constrained_systems() -> Vec<SystemConfig> {
    systems_with_memory(8.0, 0.5)
}

/// §5.3 systems: 12 MB per client; two pool/recovery-buffer splits. This
/// set stays hand-curated (it compares memory splits of one scheme, not
/// the scheme list), with one row per non-ESM flavor for reference.
fn big_systems() -> Vec<SystemConfig> {
    vec![
        SystemConfig::wpl().with_memory(12.0, 0.0),
        SystemConfig::pd_esm().with_memory(12.0, 4.0).with_buffer_suffix(),
        SystemConfig::pd_esm().with_memory(12.0, 0.5).with_buffer_suffix(),
        SystemConfig::sd_esm().with_memory(12.0, 4.0).with_buffer_suffix(),
        SystemConfig::pd_redo().with_memory(12.0, 4.0).with_buffer_suffix(),
        SystemConfig::pd_rlog().with_memory(12.0, 4.0).with_buffer_suffix(),
    ]
}

/// One system per underlying recovery flavor — the page-diffing variant
/// where a choice exists — drawn from the shared list.
fn per_flavor_systems(total_mb: f64, recovery_mb: f64) -> Vec<SystemConfig> {
    SystemConfig::all_schemes()
        .into_iter()
        .map(|(cfg, _)| cfg)
        .filter(|cfg| matches!(cfg.log_gen, LogGeneration::PageDiff | LogGeneration::WholePage))
        .map(|cfg| cfg.with_memory(total_mb, recovery_mb))
        .collect()
}

fn curves_for(systems: &[SystemConfig], o: &RunOpts) -> QsResult<Vec<Vec<ExperimentPoint>>> {
    systems.iter().map(|cfg| run_curve(cfg, o, max_clients())).collect()
}

/// Figures 4 & 5: T2A, small database, unconstrained cache.
pub fn fig04_05() -> QsResult<String> {
    let curves = curves_for(&unconstrained_systems(), &opts(DbSize::Small, T2Mode::A))?;
    Ok(render_curve_tables(
        "Figures 4 & 5: T2A (sparse updates), small database, unconstrained cache",
        &curves,
    ))
}

/// Figures 4 & 5 as a machine-readable JSON document (same experiment;
/// embeds the hardware model alongside every curve point).
pub fn fig04_05_json() -> QsResult<String> {
    let curves = curves_for(&unconstrained_systems(), &opts(DbSize::Small, T2Mode::A))?;
    Ok(crate::report::render_curves_json(
        "Figures 4 & 5: T2A (sparse updates), small database, unconstrained cache",
        &curves,
    ))
}

/// Figures 6 & 7: T2B, small database, unconstrained cache.
pub fn fig06_07() -> QsResult<String> {
    let curves = curves_for(&unconstrained_systems(), &opts(DbSize::Small, T2Mode::B))?;
    Ok(render_curve_tables(
        "Figures 6 & 7: T2B (dense updates), small database, unconstrained cache",
        &curves,
    ))
}

/// Figure 8: T2C, small database, unconstrained cache.
pub fn fig08() -> QsResult<String> {
    let curves = curves_for(&unconstrained_systems(), &opts(DbSize::Small, T2Mode::C))?;
    Ok(render_curve_tables(
        "Figure 8: T2C (repeated updates), small database, unconstrained cache",
        &curves,
    ))
}

/// Figure 9: client page writes per transaction, small database,
/// unconstrained cache, by underlying recovery scheme.
pub fn fig09() -> QsResult<String> {
    writes_figure(
        "Figure 9: client page writes per transaction (small, unconstrained)",
        &per_flavor_systems(12.0, 4.0),
    )
}

/// Figures 10 & 11: T2A, small database, constrained cache.
pub fn fig10_11() -> QsResult<String> {
    let curves = curves_for(&constrained_systems(), &opts(DbSize::Small, T2Mode::A))?;
    Ok(render_curve_tables(
        "Figures 10 & 11: T2A, small database, constrained cache (0.5 MB recovery buffer)",
        &curves,
    ))
}

/// Figures 12 & 13: T2B, small database, constrained cache.
pub fn fig12_13() -> QsResult<String> {
    let curves = curves_for(&constrained_systems(), &opts(DbSize::Small, T2Mode::B))?;
    Ok(render_curve_tables(
        "Figures 12 & 13: T2B, small database, constrained cache (0.5 MB recovery buffer)",
        &curves,
    ))
}

/// Figure 14: client writes per transaction, constrained cache.
pub fn fig14() -> QsResult<String> {
    // Every scheme with distinct write behavior (SL writes like SD).
    let systems: Vec<SystemConfig> = SystemConfig::all_schemes()
        .into_iter()
        .map(|(cfg, _)| cfg)
        .filter(|cfg| !matches!(cfg.log_gen, LogGeneration::SubPageLog { .. }))
        .map(|cfg| cfg.with_memory(8.0, 0.5))
        .collect();
    writes_figure("Figure 14: client page writes per transaction (small, constrained)", &systems)
}

fn writes_figure(title: &str, systems: &[SystemConfig]) -> QsResult<String> {
    let mut rows = Vec::new();
    for mode in [T2Mode::A, T2Mode::B] {
        for cfg in systems {
            let p = run_point(cfg, &opts(DbSize::Small, mode), 1)?;
            rows.push((
                format!("{} ({})", cfg.name(), mode.name()),
                p.total_pages_shipped_per_txn,
                p.log_pages_shipped_per_txn,
            ));
        }
    }
    Ok(render_writes_table(title, &rows))
}

/// Figures 15 & 16: T2A, big database.
pub fn fig15_16() -> QsResult<String> {
    let curves = curves_for(&big_systems(), &opts(DbSize::Big, T2Mode::A))?;
    Ok(render_curve_tables("Figures 15 & 16: T2A, big database", &curves))
}

/// Figures 17 & 18: T2B, big database.
pub fn fig17_18() -> QsResult<String> {
    let curves = curves_for(&big_systems(), &opts(DbSize::Big, T2Mode::B))?;
    Ok(render_curve_tables("Figures 17 & 18: T2B, big database", &curves))
}

/// Tables 1 & 2: database parameters and measured database sizes.
pub fn table1_2() -> QsResult<String> {
    let mut out = String::new();
    out.push_str("== Table 1: OO7 database parameters ==\n");
    out.push_str(&format!("{:<22}{:>10}{:>10}\n", "Parameter", "Small", "Big"));
    let s = Oo7Params::small();
    let b = Oo7Params::big();
    let rows: Vec<(&str, usize, usize)> = vec![
        ("NumAtomicPerComp", s.num_atomic_per_comp, b.num_atomic_per_comp),
        ("NumConnPerAtomic", s.num_conn_per_atomic, b.num_conn_per_atomic),
        ("DocumentSize", s.document_size, b.document_size),
        ("ManualSize", s.manual_size, b.manual_size),
        ("NumCompPerModule", s.num_comp_per_module, b.num_comp_per_module),
        ("NumAssmPerAssm", s.num_assm_per_assm, b.num_assm_per_assm),
        ("NumAssmLevels", s.num_assm_levels, b.num_assm_levels),
        ("NumCompPerAssm", s.num_comp_per_assm, b.num_comp_per_assm),
        ("NumModules", s.num_modules, b.num_modules),
    ];
    for (name, sv, bv) in rows {
        out.push_str(&format!("{name:<22}{sv:>10}{bv:>10}\n"));
    }

    out.push_str("\n== Table 2: database sizes (MB; paper: small 6.6/33.0, big 24.3/121.5) ==\n");
    for (label, params) in [("small", s), ("big", b)] {
        let meter = Meter::new();
        let server = Server::format(
            ServerConfig::new(RecoveryFlavor::EsmAries)
                .with_pool_mb(8.0)
                .with_volume_pages(20_000)
                .with_log_mb(16.0),
            meter,
        )?;
        let db = gen::generate(&server, &params, 1995)?;
        out.push_str(&format!(
            "{label:<8} module {:>6.1} MB   total {:>7.1} MB   ({} modules, {} pages)\n",
            db.module_mb(),
            db.total_mb(),
            params.num_modules,
            db.total_pages,
        ));
    }
    Ok(out)
}

/// Table 3: software-version naming.
pub fn table3() -> QsResult<String> {
    let mut out = String::new();
    out.push_str("== Table 3: software versions ==\n");
    for (cfg, desc) in SystemConfig::all_schemes() {
        out.push_str(&format!("{:<12}{desc}\n", cfg.name()));
    }
    out.push_str("Suffix = recovery-buffer MB when relevant, e.g. PD-ESM-4, PD-ESM-1/2.\n");
    let suffixed = SystemConfig::pd_redo().with_memory(12.0, 4.0).with_buffer_suffix();
    out.push_str(&format!("Example: {}\n", suffixed.name()));
    Ok(out)
}
