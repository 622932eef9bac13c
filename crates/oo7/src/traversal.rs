//! The OO7 traversals used by the study (§4.2).
//!
//! All T2 variants perform a depth-first traversal of the assembly
//! hierarchy; at each base assembly they visit its three composite parts;
//! each composite-part visit does a depth-first search of the atomic-part
//! graph from the root part, following outgoing connections. They differ
//! only in what they update:
//!
//! * **T2A** — update the root atomic part of each composite part;
//! * **T2B** — update every atomic part;
//! * **T2C** — update every atomic part four times.
//!
//! Updates *increment* the (x, y) attributes rather than swapping them
//! (the paper's footnote 2): repeated updates keep changing the value, so
//! the diffing schemes always find a real difference.
//!
//! T1 is the read-only variant, used for validation and for the claim that
//! hardware-assisted recovery adds zero read-only overhead.

use crate::gen::ModuleHandle;
use crate::schema::{assembly, atomic, composite, connection};
use qs_types::{IdSet, Oid, QsResult};
use quickstore::Store;
use std::cell::RefCell;

/// Which T2 variant to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum T2Mode {
    /// Sparse: root atomic part per composite part.
    A,
    /// Dense: every atomic part.
    B,
    /// Repeated: every atomic part, four times.
    C,
}

impl T2Mode {
    pub fn name(self) -> &'static str {
        match self {
            T2Mode::A => "T2A",
            T2Mode::B => "T2B",
            T2Mode::C => "T2C",
        }
    }
}

/// Read-only traversal. Returns the number of atomic parts visited.
pub fn t1(store: &mut Store, module: &ModuleHandle) -> QsResult<u64> {
    traverse(store, module, None)
}

/// Update traversal. Returns the number of update operations performed.
pub fn t2(store: &mut Store, module: &ModuleHandle, mode: T2Mode) -> QsResult<u64> {
    traverse(store, module, Some(mode))
}

/// The search state of a traversal, kept between traversals on the same
/// thread: once grown to a module's largest atomic-part graph, a traversal
/// allocates nothing.
#[derive(Default)]
struct Scratch {
    seen: IdSet<Oid>,
    stack: Vec<Oid>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::default();
}

fn traverse(store: &mut Store, module: &ModuleHandle, mode: Option<T2Mode>) -> QsResult<u64> {
    let Scratch { seen, stack } = SCRATCH.take();
    let mut walk = Walk { store, mode, count: 0, seen, stack };
    let walked = walk.assembly(module.root_assembly);
    // A traversal's visits reach the meter as one batch, so a caller that
    // reads its own meter handle afterwards sees them.
    walk.store.flush_counts();
    SCRATCH.set(Scratch { seen: walk.seen, stack: walk.stack });
    walked.map(|()| walk.count)
}

/// One traversal in progress. Objects are dereferenced in place
/// ([`Store::visit`]): a visit copies out only the references and fields
/// it follows, and the search state is reused within and across
/// traversals, so a visit that does not fault allocates nothing.
struct Walk<'a> {
    store: &'a mut Store,
    mode: Option<T2Mode>,
    /// Atomic parts visited (T1) or update operations performed (T2).
    count: u64,
    /// Atomic parts reached in the current composite part's graph.
    seen: IdSet<Oid>,
    /// Atomic parts reached but not yet visited.
    stack: Vec<Oid>,
}

impl Walk<'_> {
    fn assembly(&mut self, oid: Oid) -> QsResult<()> {
        let (complex, children) = self.store.visit(oid, |b| {
            let complex = assembly::is_complex(b);
            (complex, if complex { assembly::subs(b) } else { assembly::comps(b) })
        })?;
        for child in children {
            if complex {
                self.assembly(child)?;
            } else {
                self.composite(child)?;
            }
        }
        Ok(())
    }

    fn composite(&mut self, comp: Oid) -> QsResult<()> {
        let root = self.store.visit(comp, composite::root_part)?;
        // Depth-first search of the atomic graph, per composite-part visit.
        self.seen.clear();
        self.stack.clear();
        self.seen.insert(root);
        self.stack.push(root);
        let mut first = true;
        while let Some(part) = self.stack.pop() {
            let (xy, conns) = self.store.visit(part, |b| (atomic::xy(b), atomic::to_conns(b)))?;
            match self.mode {
                Some(T2Mode::A) if first => self.update_xy(part, xy, 1)?,
                Some(T2Mode::B) => self.update_xy(part, xy, 1)?,
                Some(T2Mode::C) => self.update_xy(part, xy, 4)?,
                Some(T2Mode::A) => {}
                None => self.count += 1, // T1 counts visits
            }
            first = false;
            for conn in conns {
                let target = self.store.visit(conn, connection::to_atomic)?;
                if self.seen.insert(target) {
                    self.stack.push(target);
                }
            }
        }
        Ok(())
    }

    /// Increment (x, y) `times` times — each a separate in-place 8-byte
    /// write of the value the previous one left.
    fn update_xy(&mut self, part: Oid, (mut x, mut y): (u32, u32), times: usize) -> QsResult<()> {
        for _ in 0..times {
            x = x.wrapping_add(1);
            y = y.wrapping_add(1);
            self.store.modify(part, atomic::OFF_X, &atomic::xy_image(x, y))?;
            self.count += 1;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::generate;
    use crate::params::Oo7Params;
    use qs_esm::{ClientConn, Server, ServerConfig};
    use qs_sim::Meter;
    use qs_types::ClientId;
    use quickstore::SystemConfig;
    use std::sync::Arc;

    fn tiny_store(cfg: SystemConfig) -> (Store, crate::gen::Oo7Db) {
        let meter = Meter::new();
        let server = Arc::new(
            Server::format(
                ServerConfig::new(cfg.flavor)
                    .with_pool_mb(2.0)
                    .with_volume_pages(2048)
                    .with_log_mb(16.0),
                Arc::clone(&meter),
            )
            .unwrap(),
        );
        let db = generate(&server, &Oo7Params::tiny(), 11).unwrap();
        let client = ClientConn::new(ClientId(0), server, cfg.client_pool_pages(), meter);
        (Store::new(client, cfg).unwrap(), db)
    }

    #[test]
    fn t1_visits_expected_number_of_atomics() {
        let (mut store, db) = tiny_store(SystemConfig::pd_esm().with_memory(2.0, 0.5));
        store.begin().unwrap();
        let visited = t1(&mut store, &db.modules[0]).unwrap();
        store.commit().unwrap();
        let p = Oo7Params::tiny();
        assert_eq!(visited as usize, p.atomic_visits_per_traversal());
        // Read-only: no faults beyond mapping, no log records at all.
        let s = store.meter().snapshot();
        assert_eq!(s.write_faults, 0);
        assert_eq!(s.log_records_generated, 0);
        assert_eq!(s.dirty_pages_shipped, 0);
        assert_eq!(s.updates, 0);
    }

    #[test]
    fn t2_update_counts_match_modes() {
        let p = Oo7Params::tiny();
        let per = p.atomic_visits_per_traversal() as u64;
        let comp_visits = p.comp_visits_per_traversal() as u64;
        for (mode, want) in [(T2Mode::A, comp_visits), (T2Mode::B, per), (T2Mode::C, 4 * per)] {
            let (mut store, db) = tiny_store(SystemConfig::pd_esm().with_memory(2.0, 0.5));
            store.begin().unwrap();
            let updates = t2(&mut store, &db.modules[0], mode).unwrap();
            store.commit().unwrap();
            assert_eq!(updates, want, "{}", mode.name());
            assert_eq!(store.meter().snapshot().updates, want);
        }
    }

    #[test]
    fn t2_increments_survive_across_transactions() {
        let (mut store, db) = tiny_store(SystemConfig::pd_esm().with_memory(2.0, 0.5));
        // Find one root atomic part and watch its x grow by 1 per T2A run.
        store.begin().unwrap();
        let comp0 = db.modules[0].composite_parts[0];
        let root = composite::root_part(&store.read(comp0).unwrap());
        let (x0, y0) = atomic::xy(&store.read(root).unwrap());
        store.commit().unwrap();
        for round in 1..=3u32 {
            store.begin().unwrap();
            t2(&mut store, &db.modules[0], T2Mode::A).unwrap();
            store.commit().unwrap();
            store.begin().unwrap();
            let (x, y) = atomic::xy(&store.read(root).unwrap());
            store.commit().unwrap();
            // Referenced possibly multiple times per traversal (duplicate
            // base-assembly references) — x grows by at least `round`.
            assert!(x >= x0 + round, "round {round}: x {x} vs {x0}");
            assert_eq!(x - x0, y - y0, "x and y increment in lockstep");
        }
    }

    #[test]
    fn t2b_same_updates_under_all_schemes() {
        let mut counts = Vec::new();
        for cfg in [
            SystemConfig::pd_esm().with_memory(2.0, 0.5),
            SystemConfig::sd_esm().with_memory(2.0, 0.5),
            SystemConfig::sl_esm().with_memory(2.0, 0.5),
            SystemConfig::pd_redo().with_memory(2.0, 0.5),
            SystemConfig::wpl().with_memory(2.0, 0.5),
        ] {
            let name = cfg.name();
            let (mut store, db) = tiny_store(cfg);
            store.begin().unwrap();
            let n = t2(&mut store, &db.modules[0], T2Mode::B).unwrap();
            store.commit().unwrap();
            counts.push((name, n));
        }
        let first = counts[0].1;
        for (name, n) in &counts {
            assert_eq!(*n, first, "{name}");
        }
    }

    #[test]
    fn t2c_performs_more_raw_updates_than_t2b() {
        let (mut store, db) = tiny_store(SystemConfig::pd_esm().with_memory(2.0, 0.5));
        store.begin().unwrap();
        let b = t2(&mut store, &db.modules[0], T2Mode::B).unwrap();
        store.commit().unwrap();
        store.begin().unwrap();
        let c = t2(&mut store, &db.modules[0], T2Mode::C).unwrap();
        store.commit().unwrap();
        assert_eq!(c, 4 * b);
        // But the same pages are dirtied, so diffing ships the same volume.
    }
}
