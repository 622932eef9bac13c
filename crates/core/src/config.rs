//! Software-version configuration (paper Table 3).
//!
//! A QuickStore "software version" is a pair: how log records are generated
//! at the client (the recovery *scheme*: PD / SD / SL / nothing-under-WPL)
//! and which underlying server strategy processes them (ESM's ARIES scheme,
//! redo-at-server, or whole-page logging). Names follow the paper:
//! `PD-ESM`, `SD-ESM`, `SL-ESM`, `PD-REDO`, `WPL` — with the recovery-buffer
//! size appended when relevant, e.g. `PD-ESM-4` (4 MB) and `PD-ESM-1/2`
//! (0.5 MB).

use qs_esm::RecoveryFlavor;
use qs_types::{QsError, QsResult, PAGE_SIZE};

/// How updates are detected and log records generated at the client (§3.2–3.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LogGeneration {
    /// Page differencing: write-protection faults copy the whole page into
    /// the recovery buffer; log records come from diffing at commit /
    /// eviction / overflow (§3.2).
    PageDiff,
    /// Sub-page differencing: a software update function copies `block`-byte
    /// blocks on first touch; blocks are diffed (§3.3).
    SubPageDiff { block: usize },
    /// Sub-page logging: blocks are copied like SD but logged whole, no
    /// diffing (§3.3.2).
    SubPageLog { block: usize },
    /// Whole-page logging: no client log records at all; dirty pages are
    /// logged in their entirety at the server (§3.4).
    WholePage,
}

impl LogGeneration {
    /// Does this scheme intercept updates in software (function call per
    /// update) rather than via virtual-memory hardware?
    pub fn software_updates(self) -> bool {
        matches!(self, LogGeneration::SubPageDiff { .. } | LogGeneration::SubPageLog { .. })
    }

    pub fn block_size(self) -> Option<usize> {
        match self {
            LogGeneration::SubPageDiff { block } | LogGeneration::SubPageLog { block } => {
                Some(block)
            }
            _ => None,
        }
    }

    fn prefix(self) -> &'static str {
        match self {
            LogGeneration::PageDiff => "PD",
            LogGeneration::SubPageDiff { .. } => "SD",
            LogGeneration::SubPageLog { .. } => "SL",
            LogGeneration::WholePage => "WPL",
        }
    }
}

/// A complete QuickStore software version plus client memory split.
#[derive(Debug, Clone)]
pub struct SystemConfig {
    pub log_gen: LogGeneration,
    pub flavor: RecoveryFlavor,
    /// Total client memory for caching persistent data, MB (12 or 8 in the
    /// paper's experiments).
    pub client_memory_mb: f64,
    /// Portion of client memory set aside for the recovery buffer, MB
    /// (0 under WPL — one of WPL's selling points, §3.4).
    pub recovery_buffer_mb: f64,
    /// Append the recovery-buffer size to the name (the paper does this in
    /// the big-database experiments where the split matters).
    pub name_buffer_suffix: bool,
}

impl SystemConfig {
    /// Paper default block size for the sub-page schemes ("the sub-page
    /// diffing (SD) versions shown in the performance section use a block
    /// size of 64 bytes").
    pub const DEFAULT_BLOCK: usize = 64;

    pub fn pd_esm() -> SystemConfig {
        Self::build(LogGeneration::PageDiff, RecoveryFlavor::EsmAries)
    }

    pub fn sd_esm() -> SystemConfig {
        Self::build(
            LogGeneration::SubPageDiff { block: Self::DEFAULT_BLOCK },
            RecoveryFlavor::EsmAries,
        )
    }

    pub fn sl_esm() -> SystemConfig {
        Self::build(
            LogGeneration::SubPageLog { block: Self::DEFAULT_BLOCK },
            RecoveryFlavor::EsmAries,
        )
    }

    pub fn pd_redo() -> SystemConfig {
        Self::build(LogGeneration::PageDiff, RecoveryFlavor::RedoAtServer)
    }

    /// Page differencing over the REDO-only logical flavor (the
    /// post-paper contender: no-steal, logical records, no undo phase).
    pub fn pd_rlog() -> SystemConfig {
        Self::build(LogGeneration::PageDiff, RecoveryFlavor::RedoLogical)
    }

    pub fn wpl() -> SystemConfig {
        SystemConfig {
            log_gen: LogGeneration::WholePage,
            flavor: RecoveryFlavor::Wpl,
            client_memory_mb: 12.0,
            recovery_buffer_mb: 0.0,
            name_buffer_suffix: false,
        }
    }

    /// Per-transaction adaptive logging (ADAPT): page-diffing update capture
    /// (so full before-images are available and every scheme's records can
    /// be priced exactly) over the adaptive server flavor. Deliberately not
    /// part of [`SystemConfig::all_schemes`]: ADAPT is a meta-scheme whose
    /// figures live in `BENCH_adaptive.json`, not in the Table 3 sweeps.
    pub fn adaptive() -> SystemConfig {
        Self::build(LogGeneration::PageDiff, RecoveryFlavor::Adaptive)
    }

    /// The canonical software-version list: paper Table 3 order with the
    /// post-paper PD-RLOG contender inserted before WPL, each paired with
    /// its one-line description. The figure drivers, the trace/restart
    /// benches, and the cross-scheme equivalence tests all iterate this
    /// one list, so a scheme added here gets figure, bench, and test
    /// coverage automatically.
    pub fn all_schemes() -> Vec<(SystemConfig, &'static str)> {
        vec![
            (Self::pd_esm(), "page diffing, ESM recovery"),
            (Self::sd_esm(), "sub-page diffing, ESM recovery"),
            (Self::sl_esm(), "sub-page logging (no diffing), ESM recovery"),
            (Self::pd_redo(), "page diffing, REDO recovery"),
            (Self::pd_rlog(), "page diffing, REDO-only logical recovery (no-steal)"),
            (Self::wpl(), "whole page logging"),
        ]
    }

    /// Look up a scheme by its Table 3 name (`"PD-ESM"`, …, `"WPL"`).
    pub fn by_name(name: &str) -> Option<SystemConfig> {
        Self::all_schemes().into_iter().map(|(c, _)| c).find(|c| c.name() == name)
    }

    fn build(log_gen: LogGeneration, flavor: RecoveryFlavor) -> SystemConfig {
        SystemConfig {
            log_gen,
            flavor,
            client_memory_mb: 12.0,
            recovery_buffer_mb: 4.0,
            name_buffer_suffix: false,
        }
    }

    /// The unconstrained-cache split of §5.1: 12 MB total, 8 + 4 for the
    /// diffing schemes.
    pub fn with_memory(mut self, total_mb: f64, recovery_mb: f64) -> SystemConfig {
        self.client_memory_mb = total_mb;
        self.recovery_buffer_mb =
            if self.log_gen == LogGeneration::WholePage { 0.0 } else { recovery_mb };
        self
    }

    pub fn with_buffer_suffix(mut self) -> SystemConfig {
        self.name_buffer_suffix = true;
        self
    }

    /// Validate scheme/flavor compatibility.
    pub fn validate(&self) -> QsResult<()> {
        let facts = self.flavor.facts();
        if facts.txn_scheme && self.log_gen != LogGeneration::PageDiff {
            return Err(QsError::Config {
                detail: format!(
                    "adaptive election needs page-diff capture (full before-images \
                     price every candidate scheme); got {:?}",
                    self.log_gen
                ),
            });
        }
        // Whole-page generation produces no log records; every other
        // generation needs a flavor whose clients ship them.
        let whole = self.log_gen == LogGeneration::WholePage;
        if whole == facts.ships_records {
            return Err(QsError::Config {
                detail: format!(
                    "log generation {:?} incompatible with server flavor {:?}",
                    self.log_gen, self.flavor
                ),
            });
        }
        if let Some(b) = self.log_gen.block_size() {
            if !(8..=PAGE_SIZE).contains(&b) || !b.is_power_of_two() {
                return Err(QsError::Config {
                    detail: format!("block size {b} must be a power of two in [8, {PAGE_SIZE}]"),
                });
            }
        }
        if self.recovery_buffer_mb < 0.0
            || self.recovery_buffer_mb >= self.client_memory_mb
            || (!whole && self.recovery_buffer_mb == 0.0)
        {
            return Err(QsError::Config {
                detail: format!(
                    "memory split {} MB total / {} MB recovery buffer is invalid",
                    self.client_memory_mb, self.recovery_buffer_mb
                ),
            });
        }
        Ok(())
    }

    /// Client buffer pool size in pages (total memory minus recovery buffer).
    pub fn client_pool_pages(&self) -> usize {
        qs_types::mb_to_pages(self.client_memory_mb - self.recovery_buffer_mb).max(1)
    }

    /// Recovery buffer capacity in bytes (0 under WPL).
    pub fn recovery_buffer_bytes(&self) -> usize {
        (self.recovery_buffer_mb * 1024.0 * 1024.0) as usize
    }

    /// The paper's Table 3 name for this version.
    pub fn name(&self) -> String {
        if self.log_gen == LogGeneration::WholePage {
            return "WPL".to_string();
        }
        if self.flavor.facts().txn_scheme {
            return "ADAPT".to_string();
        }
        let base = format!("{}-{}", self.log_gen.prefix(), self.flavor.name());
        if !self.name_buffer_suffix {
            return base;
        }
        let rb = self.recovery_buffer_mb;
        if (rb - 0.5).abs() < 1e-9 {
            format!("{base}-1/2")
        } else if (rb.fract()).abs() < 1e-9 {
            format!("{base}-{}", rb as u64)
        } else {
            format!("{base}-{rb}")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_names() {
        assert_eq!(SystemConfig::pd_esm().name(), "PD-ESM");
        assert_eq!(SystemConfig::sd_esm().name(), "SD-ESM");
        assert_eq!(SystemConfig::sl_esm().name(), "SL-ESM");
        assert_eq!(SystemConfig::pd_redo().name(), "PD-REDO");
        assert_eq!(SystemConfig::pd_rlog().name(), "PD-RLOG");
        assert_eq!(SystemConfig::wpl().name(), "WPL");
    }

    #[test]
    fn shared_scheme_list_is_valid_and_named() {
        let schemes = SystemConfig::all_schemes();
        assert_eq!(schemes.len(), 6);
        for (cfg, desc) in &schemes {
            cfg.validate().unwrap();
            assert!(!desc.is_empty());
            let found = SystemConfig::by_name(&cfg.name()).expect("round-trips by name");
            assert_eq!(found.name(), cfg.name());
        }
        assert!(SystemConfig::by_name("PD-NOPE").is_none());
    }

    #[test]
    fn buffer_suffix_names() {
        let c = SystemConfig::pd_redo().with_memory(12.0, 4.0).with_buffer_suffix();
        assert_eq!(c.name(), "PD-REDO-4");
        let c = SystemConfig::pd_esm().with_memory(12.0, 0.5).with_buffer_suffix();
        assert_eq!(c.name(), "PD-ESM-1/2");
    }

    #[test]
    fn memory_split_pages() {
        // §5.1: 12 MB total, 8 MB pool + 4 MB recovery buffer.
        let c = SystemConfig::pd_esm().with_memory(12.0, 4.0);
        assert_eq!(c.client_pool_pages(), 1024);
        assert_eq!(c.recovery_buffer_bytes(), 4 * 1024 * 1024);
        // WPL devotes everything to the pool (§3.4's advantage).
        let w = SystemConfig::wpl().with_memory(12.0, 4.0);
        assert_eq!(w.client_pool_pages(), 1536);
        assert_eq!(w.recovery_buffer_bytes(), 0);
    }

    #[test]
    fn validation_catches_mismatches() {
        let mut c = SystemConfig::pd_esm();
        c.validate().unwrap();
        c.flavor = RecoveryFlavor::Wpl;
        assert!(c.validate().is_err());
        let mut w = SystemConfig::wpl();
        w.validate().unwrap();
        w.flavor = RecoveryFlavor::EsmAries;
        assert!(w.validate().is_err());
        let mut s = SystemConfig::sd_esm();
        s.log_gen = LogGeneration::SubPageDiff { block: 48 };
        assert!(s.validate().is_err(), "non power-of-two block");
        let bad = SystemConfig::pd_esm().with_memory(4.0, 4.0);
        assert!(bad.validate().is_err(), "no room for the pool");
    }

    #[test]
    fn adaptive_config() {
        let a = SystemConfig::adaptive();
        a.validate().unwrap();
        assert_eq!(a.name(), "ADAPT");
        assert_eq!(a.flavor, RecoveryFlavor::Adaptive);
        assert_eq!(a.log_gen, LogGeneration::PageDiff);
        // A meta-scheme: not part of the Table 3 sweep list.
        assert!(SystemConfig::by_name("ADAPT").is_none());

        // Election needs full before-images (page-diff capture).
        let mut bad = SystemConfig::adaptive();
        bad.log_gen = LogGeneration::SubPageDiff { block: 64 };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn software_updates_flag() {
        assert!(!SystemConfig::pd_esm().log_gen.software_updates());
        assert!(SystemConfig::sd_esm().log_gen.software_updates());
        assert!(SystemConfig::sl_esm().log_gen.software_updates());
        assert!(!SystemConfig::wpl().log_gen.software_updates());
        assert_eq!(SystemConfig::sd_esm().log_gen.block_size(), Some(64));
    }
}
