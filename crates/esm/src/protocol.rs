//! The one place a [`RecoveryFlavor`] — and, under `Adaptive`, a
//! transaction's `TxnScheme` mark — is turned into behaviour.
//!
//! A flavor is a *client record format* over one of two-and-a-half
//! server-side protocols (the TC/DC cut of Lomet et al.): a transaction
//! runs one [`Protocol`], resolved at `begin` and again when its mark
//! arrives; everything else the server, the client and restart branch on
//! is a [`FlavorFacts`] field. No other module matches on a flavor
//! (`scripts/verify.sh` greps); DESIGN.md §6b prints the table the test
//! below pins.

use qs_wal::SchemeCode;

/// Which underlying recovery strategy the server runs (paper §3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryFlavor {
    /// ESM's ARIES-style scheme: clients ship log records *and* dirty
    /// pages; only log records are forced at commit (§3.1).
    EsmAries,
    /// Redo-at-server: clients ship log records only; the server applies
    /// the redo information to its copy of each page (§3.5).
    RedoAtServer,
    /// Whole-page logging: clients ship dirty pages only; the server
    /// appends them to the log and tracks them in the WPL table (§3.4).
    Wpl,
    /// REDO-only logical recovery (post-paper contender; Sauer & Härder,
    /// Lomet et al.): clients ship slot-level logical records only, the
    /// server defers applying them until commit (no-steal — uncommitted
    /// data never reaches pool or disk), so restart has no undo phase.
    RedoLogical,
    /// Per-transaction adaptive logging: the client captures PD-style
    /// before-images but elects the cheapest record format per commit,
    /// declaring it in a leading `TxnScheme` record (qs-wal tag 11). The
    /// mark picks the transaction's protocol, so one log legally
    /// interleaves both families and restart is polymorphic per
    /// transaction.
    Adaptive,
}

/// What the server does with one transaction's updates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Protocol {
    /// WAL + steal: updates reach the pool (and, stolen, the volume)
    /// before commit; abort and restart undo them with CLRs.
    Steal,
    /// No-steal deferred apply: updates wait in the pending map until the
    /// commit force, so there is nothing to undo — abort drops them.
    NoSteal,
    /// Whole-page logging: page images are appended to the log on receipt
    /// and tracked in the WPL table; abort forgets them.
    PageLog,
}

/// Which dirty pages a checkpoint writes home before its record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CheckpointRule {
    /// Every dirty page (the log truncates to the checkpoint).
    Sharp,
    /// Only pages dirty since before the *previous* checkpoint: replay is
    /// bounded to about two checkpoint intervals without a write burst;
    /// the rest stay in the DPT the record carries.
    Aged,
    /// None: write-back belongs to WPL reclaim.
    None,
}

/// Which transaction protocols a flavor's log can hold, and so what its
/// restart's one replay does with each frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Holds {
    /// Steal + WAL + CLR undo: the report carries an undo phase.
    pub(crate) physical: bool,
    /// No-steal deferred apply: committed work may precede the checkpoint
    /// (a checkpoint body does not list a transaction whose commit record
    /// is below it), so analysis scans the whole retained log instead of
    /// starting at the checkpoint anchor. The truncation rule `keep =
    /// min(checkpoint, min first-LSN of every transaction still in the
    /// table, min DPT recLSN)` is what guarantees that covers everything
    /// unapplied: a committed transaction stays in the table until its
    /// deferred ops are in the pool and its pages in the DPT.
    pub(crate) logical: bool,
    /// Whole-page logging: its transactions' frames wait for their fate,
    /// like logical ones', and restart restores WPL-table versions — the
    /// newest committed image of each page — instead of pages (§3.4.3).
    pub(crate) page_log: bool,
}

/// The per-flavor facts the code branches on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlavorFacts {
    /// Protocol of a transaction that carries no `TxnScheme` mark.
    pub base: Protocol,
    /// Clients generate and ship log records.
    pub ships_records: bool,
    /// Clients ship the dirty pages of their `Steal` / `PageLog`
    /// transactions (`NoSteal` transactions never do).
    pub ships_pages: bool,
    /// A physical `Update` record (before + after image) is legal.
    pub physical_update: bool,
    /// A `TxnScheme` mark is legal, and picks the transaction's protocol.
    pub txn_scheme: bool,
    /// The server applies each record's after-image to its own copy of
    /// the page on receipt (§3.5).
    pub redo_on_receive: bool,
    pub(crate) checkpoint: CheckpointRule,
    pub(crate) restart: Holds,
}

impl RecoveryFlavor {
    pub fn name(self) -> &'static str {
        match self {
            RecoveryFlavor::EsmAries => "ESM",
            RecoveryFlavor::RedoAtServer => "REDO",
            RecoveryFlavor::Wpl => "WPL",
            RecoveryFlavor::RedoLogical => "RLOG",
            RecoveryFlavor::Adaptive => "ADAPT",
        }
    }

    pub fn facts(self) -> FlavorFacts {
        const PHYSICAL: Holds = Holds { physical: true, logical: false, page_log: false };
        let esm = FlavorFacts {
            base: Protocol::Steal,
            ships_records: true,
            ships_pages: true,
            physical_update: true,
            txn_scheme: false,
            redo_on_receive: false,
            checkpoint: CheckpointRule::Sharp,
            restart: PHYSICAL,
        };
        match self {
            RecoveryFlavor::EsmAries => esm,
            RecoveryFlavor::RedoAtServer => {
                FlavorFacts { ships_pages: false, redo_on_receive: true, ..esm }
            }
            RecoveryFlavor::Wpl => FlavorFacts {
                base: Protocol::PageLog,
                ships_records: false,
                physical_update: false,
                checkpoint: CheckpointRule::None,
                restart: Holds { physical: false, logical: false, page_log: true },
                ..esm
            },
            RecoveryFlavor::RedoLogical => FlavorFacts {
                base: Protocol::NoSteal,
                ships_pages: false,
                physical_update: false,
                checkpoint: CheckpointRule::Aged,
                restart: Holds { physical: false, logical: true, page_log: false },
                ..esm
            },
            RecoveryFlavor::Adaptive => FlavorFacts {
                txn_scheme: true,
                restart: Holds { physical: true, logical: true, page_log: false },
                ..esm
            },
        }
    }
}

impl FlavorFacts {
    /// Dispatch on the mark where marks are legal; elsewhere a mark never
    /// arrives (the server rejects it) and every transaction runs `base`.
    pub fn protocol(&self, mark: Option<SchemeCode>) -> Protocol {
        match mark {
            Some(s) if self.txn_scheme && s.is_logical() => Protocol::NoSteal,
            Some(_) if self.txn_scheme => Protocol::Steal,
            _ => self.base,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use CheckpointRule::{Aged, Sharp};
    use Protocol::{NoSteal, PageLog, Steal};
    use SchemeCode::{Pd, Rlog, Sd, Wpl};

    /// The whole table, written from the pre-`protocol.rs` server's
    /// behaviour: flavor × mark → protocol, and every per-flavor fact.
    #[test]
    fn flavor_by_mark_table_is_pinned() {
        // (flavor, name, [no mark, Pd, Sd, Wpl, Rlog], records, pages,
        //  Update legal, TxnScheme legal, redo on receive, checkpoint,
        //  restart holds (physical, logical, page log))
        type Row = (
            RecoveryFlavor,
            &'static str,
            [Protocol; 5],
            [bool; 5],
            CheckpointRule,
            (bool, bool, bool),
        );
        let table: [Row; 5] = [
            (
                RecoveryFlavor::EsmAries,
                "ESM",
                [Steal; 5],
                [true, true, true, false, false],
                Sharp,
                (true, false, false),
            ),
            (
                RecoveryFlavor::RedoAtServer,
                "REDO",
                [Steal; 5],
                [true, false, true, false, true],
                Sharp,
                (true, false, false),
            ),
            (
                RecoveryFlavor::Wpl,
                "WPL",
                [PageLog; 5],
                [false, true, false, false, false],
                CheckpointRule::None,
                (false, false, true),
            ),
            (
                RecoveryFlavor::RedoLogical,
                "RLOG",
                [NoSteal; 5],
                [true, false, false, false, false],
                Aged,
                (false, true, false),
            ),
            (
                RecoveryFlavor::Adaptive,
                "ADAPT",
                [Steal, Steal, Steal, NoSteal, NoSteal],
                [true, true, true, true, false],
                Sharp,
                (true, true, false),
            ),
        ];
        let marks = [None, Some(Pd), Some(Sd), Some(Wpl), Some(Rlog)];
        for (flavor, name, protocols, bools, checkpoint, holds) in table {
            assert_eq!(flavor.name(), name);
            let f = flavor.facts();
            for (mark, want) in marks.iter().zip(protocols) {
                assert_eq!(f.protocol(*mark), want, "{name} + {mark:?}");
            }
            assert_eq!(f.base, protocols[0], "{name}: base is the unmarked protocol");
            assert_eq!(
                [
                    f.ships_records,
                    f.ships_pages,
                    f.physical_update,
                    f.txn_scheme,
                    f.redo_on_receive
                ],
                bools,
                "{name}: records / pages / Update / TxnScheme / redo-on-receive"
            );
            assert_eq!(f.checkpoint, checkpoint, "{name}");
            let h = f.restart;
            assert_eq!((h.physical, h.logical, h.page_log), holds, "{name}");
        }
    }
}
