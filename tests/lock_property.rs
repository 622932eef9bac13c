//! Seeded property tests for the hierarchical lock manager.
//!
//! The manager grew record granularity (DESIGN.md §6e); these histories
//! check the three load-bearing claims of that refactor:
//!
//! 1. **Page-mode compatibility** — a history that only ever takes page
//!    `S`/`X` locks behaves bit-identically to the old flat page-lock
//!    manager: same grant/deny outcome at every step, no waiting on any
//!    granted request, same lock-table population. The old manager's
//!    semantics are reimplemented here as an in-test oracle and the two
//!    are driven side by side from the same seeded sequence.
//! 2. **Slot independence** — record locks on *distinct* slots of one
//!    page never conflict and never wait, under any interleaving.
//! 3. **Mixed-granularity deadlocks** — a waits-for cycle spanning page
//!    and record resources is detected when the closing request would
//!    block, and the cycle closer is denied with `LockConflict`.
//!
//! No external crates: randomness is a hand-rolled LCG (same constants
//! as `qs-prng`), so every failure reproduces from its printed seed.

use qs_repro::esm::{LockManager, LockMode, Resource};
use qs_repro::types::{PageId, QsError, TxnId};
use std::collections::HashMap;

/// Minimal LCG (Knuth's MMIX constants); deterministic per seed.
struct Lcg(u64);

impl Lcg {
    fn new(seed: u64) -> Lcg {
        Lcg(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0 >> 16
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

// ---------------------------------------------------------------------
// 1. Page-mode histories match the old flat manager
// ---------------------------------------------------------------------

/// In-test oracle: the pre-hierarchy page-lock manager. Flat `S`/`X`
/// modes, re-entrant grants, sole-compatible upgrades, whole-table
/// release — exactly what `LockManager` did before [`Resource`] and the
/// intention modes existed. Single-threaded histories never queue, so
/// holder-set logic is the entire observable behavior.
#[derive(Default)]
struct FlatOracle {
    /// page -> (txn -> mode); an entry disappears with its last holder.
    locks: HashMap<u32, HashMap<u64, LockMode>>,
}

impl FlatOracle {
    /// Would the old manager grant `mode` on `pid` to `txn` right now?
    /// Mutates the table on grant; leaves it untouched on deny.
    fn try_acquire(&mut self, txn: u64, pid: u32, mode: LockMode) -> bool {
        let entry = self.locks.entry(pid).or_default();
        let granted = match entry.get(&txn) {
            Some(&held) => {
                let goal = if held == LockMode::X || held == mode { held } else { LockMode::X };
                let ok = entry
                    .iter()
                    .all(|(&h, &hm)| h == txn || (hm == LockMode::S && goal == LockMode::S));
                if ok {
                    entry.insert(txn, goal);
                }
                ok
            }
            None => {
                let ok = entry.iter().all(|(_, &hm)| hm == LockMode::S && mode == LockMode::S);
                if ok {
                    entry.insert(txn, mode);
                }
                ok
            }
        };
        if entry.is_empty() {
            self.locks.remove(&pid);
        }
        granted
    }

    fn release_all(&mut self, txn: u64) {
        self.locks.retain(|_, holders| {
            holders.remove(&txn);
            !holders.is_empty()
        });
    }

    fn entries(&self) -> usize {
        self.locks.len()
    }
}

#[test]
fn page_mode_histories_match_the_flat_manager() {
    for seed in 0..24u64 {
        let mut rng = Lcg::new(seed);
        let lm = LockManager::new();
        let mut oracle = FlatOracle::default();
        // The full observable history: (txn, page, mode, granted) per
        // request — collected from both managers and compared whole, so
        // a divergence reports the exact step and seed.
        let mut got: Vec<(u64, u32, bool, bool)> = Vec::new();
        let mut want: Vec<(u64, u32, bool, bool)> = Vec::new();

        for step in 0..400 {
            if rng.below(10) == 0 {
                let txn = 1 + rng.below(4);
                oracle.release_all(txn);
                lm.release_all(TxnId(txn));
            } else {
                let txn = 1 + rng.below(4);
                let pid = rng.below(6) as u32;
                let exclusive = rng.below(2) == 0;
                let mode = if exclusive { LockMode::X } else { LockMode::S };
                let res = Resource::Page(PageId(pid));

                let expect = oracle.try_acquire(txn, pid, mode);
                let granted = if expect && rng.below(2) == 0 {
                    // Exercise the blocking entry point too: a request the
                    // flat manager grants must be granted *without waiting*
                    // by the hierarchical one (identical grant order).
                    let waited = lm.lock_observing(TxnId(txn), res, mode).unwrap();
                    assert!(!waited, "seed {seed} step {step}: page-mode grant waited");
                    true
                } else {
                    match lm.try_lock(TxnId(txn), res, mode) {
                        Ok(()) => true,
                        Err(QsError::LockConflict { .. }) => false,
                        Err(e) => panic!("seed {seed} step {step}: unexpected {e:?}"),
                    }
                };
                got.push((txn, pid, exclusive, granted));
                want.push((txn, pid, exclusive, expect));

                // A granted mode is held (and deny leaves prior holds
                // intact) — spot-check through the public probe.
                assert_eq!(
                    lm.holds(TxnId(txn), res, mode),
                    oracle
                        .locks
                        .get(&pid)
                        .and_then(|h| h.get(&txn))
                        .map(|&held| { held == mode || held == LockMode::X })
                        == Some(true),
                    "seed {seed} step {step}: holds() diverged"
                );
            }
            assert_eq!(
                lm.locked_resources(),
                oracle.entries(),
                "seed {seed} step {step}: lock-table population diverged"
            );
        }
        assert_eq!(got, want, "seed {seed}: grant history diverged from the flat manager");
    }
}

// ---------------------------------------------------------------------
// 2. Distinct slots of one page never conflict
// ---------------------------------------------------------------------

#[test]
fn distinct_slot_record_locks_never_conflict() {
    for seed in 0..24u64 {
        let mut rng = Lcg::new(100 + seed);
        let lm = LockManager::new();
        let pid = PageId(7);
        // Four transactions; txn t owns slots ≡ t (mod 4) — distinct by
        // construction no matter the interleaving.
        for step in 0..300 {
            let txn = rng.below(4);
            if rng.below(8) == 0 {
                lm.release_all(TxnId(txn));
                continue;
            }
            let slot = (txn + 4 * rng.below(8)) as u16;
            let mode = if rng.below(2) == 0 { LockMode::X } else { LockMode::S };
            let waited =
                lm.lock_resource(TxnId(txn), Resource::Record(pid, slot), mode).unwrap_or_else(
                    |e| panic!("seed {seed} step {step}: distinct-slot lock denied: {e:?}"),
                );
            assert!(!waited, "seed {seed} step {step}: distinct-slot lock waited");
            let intent = if mode == LockMode::X { LockMode::IX } else { LockMode::IS };
            assert!(lm.holds(TxnId(txn), Resource::Page(pid), intent), "intent missing");
        }
        for txn in 0..4 {
            lm.release_all(TxnId(txn));
        }
        assert_eq!(lm.locked_resources(), 0, "seed {seed}: table did not drain");
    }
}

// ---------------------------------------------------------------------
// 3. Mixed-granularity deadlock cycles are detected
// ---------------------------------------------------------------------

#[test]
fn mixed_granularity_deadlock_closer_is_denied() {
    // Randomize the granularity at both ends of the cycle: each of r1/r2
    // is independently a whole page or one record, so all four page/record
    // combinations (including the mixed ones the flat manager could never
    // see) are covered across seeds.
    for seed in 0..32u64 {
        let mut rng = Lcg::new(200 + seed);
        let lm = LockManager::new();
        let (t1, t2) = (TxnId(1), TxnId(2));
        let res = |pid: u32, record: bool, slot: u16| {
            if record {
                Resource::Record(PageId(pid), slot)
            } else {
                Resource::Page(PageId(pid))
            }
        };
        let r1 = res(10, rng.below(2) == 0, rng.below(16) as u16);
        let r2 = res(20, rng.below(2) == 0, rng.below(16) as u16);

        assert!(!lm.lock_resource(t1, r1, LockMode::X).unwrap());
        assert!(!lm.lock_resource(t2, r2, LockMode::X).unwrap());
        std::thread::scope(|s| {
            // T1 blocks behind T2 on its own thread.
            let survivor = s.spawn(|| lm.lock_resource(t1, r2, LockMode::X));
            while lm.queued_waiters() == 0 {
                std::thread::yield_now();
            }
            // T2 closing the cycle on r1 must be denied, not queued: the
            // waits-for graph is keyed by transaction, so the page/record
            // mix is invisible to the cycle check.
            assert!(
                matches!(lm.lock_resource(t2, r1, LockMode::X), Err(QsError::LockConflict { .. })),
                "seed {seed}: cycle closer was not denied ({r1:?} / {r2:?})"
            );
            // The survivor is granted once T2 releases.
            lm.release_all(t2);
            assert!(
                survivor.join().unwrap().unwrap(),
                "seed {seed}: X vs X must wait ({r1:?} / {r2:?})"
            );
        });
        lm.release_all(t1);
        assert_eq!(lm.locked_resources(), 0, "seed {seed}: table did not drain");
    }
}
