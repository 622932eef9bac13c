//! Fixed-layout persistent objects for OO7.
//!
//! Objects are flat byte records with embedded object references (the
//! unswizzled form of QuickStore's pointers). Sizes are chosen so module
//! footprints match Table 2 of the paper: an atomic part is 80 bytes, a
//! connection 150, a composite part 200, an assembly 120, a document 2000
//! — giving a small module of ≈6.6 MB and a big module of ≈25.0 MB
//! (within 2 % and 5 % of the paper's 6.6 / 24.3 MB). Keeping atomic parts
//! small also keeps a composite part's *atomic region* (20 × 80 = 1.6 KB)
//! inside one page almost always, so T2B's dirty set (~500–600 pages)
//! matches the paper's Figure 9 scale and fits the 4 MB recovery buffer in
//! the unconstrained experiments, as it did for the authors.

use qs_types::{Oid, PageId};

/// Encoded size of an object reference: page (4) + slot (2) + pad (2).
pub const REF_SIZE: usize = 8;

/// Serialize an object reference.
pub fn put_ref(buf: &mut [u8], at: usize, oid: Oid) {
    buf[at..at + 4].copy_from_slice(&oid.page.0.to_le_bytes());
    buf[at + 4..at + 6].copy_from_slice(&oid.slot.to_le_bytes());
    buf[at + 6..at + 8].copy_from_slice(&0u16.to_le_bytes());
}

/// Deserialize an object reference.
pub fn get_ref(buf: &[u8], at: usize) -> Oid {
    let page = PageId(u32::from_le_bytes(buf[at..at + 4].try_into().unwrap()));
    let slot = u16::from_le_bytes(buf[at + 4..at + 6].try_into().unwrap());
    Oid { page, slot }
}

/// Three consecutive object references starting at `at` — the fan-out of
/// every reference array the traversals follow (sub-assemblies, composite
/// parts, outgoing connections). An array, so following them allocates
/// nothing.
pub fn get_refs3(buf: &[u8], at: usize) -> [Oid; 3] {
    [0, 1, 2].map(|i| get_ref(buf, at + i * REF_SIZE))
}

pub fn put_u32(buf: &mut [u8], at: usize, v: u32) {
    buf[at..at + 4].copy_from_slice(&v.to_le_bytes());
}

pub fn get_u32(buf: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(buf[at..at + 4].try_into().unwrap())
}

/// Atomic part: the unit the T2 traversals update.
pub mod atomic {
    use super::*;

    pub const SIZE: usize = 80;
    pub const OFF_ID: usize = 0;
    /// `x` then `y` are adjacent; a T2 update increments both with one
    /// 8-byte in-place write.
    pub const OFF_X: usize = 4;
    pub const OFF_Y: usize = 8;
    pub const OFF_BUILD_DATE: usize = 12;
    pub const OFF_PARTOF: usize = 16;
    /// Outgoing connection references (NumConnPerAtomic = 3).
    pub const OFF_TO: usize = 24;
    /// Incoming connection references.
    pub const OFF_FROM: usize = 48;
    // 72..80: padding.

    pub fn build(id: u32, partof: Oid, to: &[Oid], from: &[Oid]) -> Vec<u8> {
        let mut b = vec![0u8; SIZE];
        put_u32(&mut b, OFF_ID, id);
        put_u32(&mut b, OFF_X, id);
        put_u32(&mut b, OFF_Y, id.wrapping_add(1));
        put_u32(&mut b, OFF_BUILD_DATE, 19_950_522);
        put_ref(&mut b, OFF_PARTOF, partof);
        for (i, &o) in to.iter().enumerate().take(3) {
            put_ref(&mut b, OFF_TO + i * REF_SIZE, o);
        }
        for (i, &o) in from.iter().enumerate().take(3) {
            put_ref(&mut b, OFF_FROM + i * REF_SIZE, o);
        }
        b
    }

    pub fn to_conns(buf: &[u8]) -> [Oid; 3] {
        get_refs3(buf, OFF_TO)
    }

    pub fn xy(buf: &[u8]) -> (u32, u32) {
        (get_u32(buf, OFF_X), get_u32(buf, OFF_Y))
    }

    /// The 8-byte little-endian image of (x, y), as stored at [`OFF_X`].
    pub fn xy_image(x: u32, y: u32) -> [u8; 8] {
        let mut out = [0u8; 8];
        out[0..4].copy_from_slice(&x.to_le_bytes());
        out[4..8].copy_from_slice(&y.to_le_bytes());
        out
    }
}

/// Connection: interposed between each pair of connected atomic parts.
pub mod connection {
    use super::*;

    pub const SIZE: usize = 150;
    pub const OFF_FROM: usize = 0;
    pub const OFF_TO: usize = 8;
    pub const OFF_LENGTH: usize = 16;
    // 20.. : type + padding.

    pub fn build(from: Oid, to: Oid, length: u32) -> Vec<u8> {
        let mut b = vec![0u8; SIZE];
        put_ref(&mut b, OFF_FROM, from);
        put_ref(&mut b, OFF_TO, to);
        put_u32(&mut b, OFF_LENGTH, length);
        b[20..30].copy_from_slice(b"connection");
        b
    }

    pub fn to_atomic(buf: &[u8]) -> Oid {
        get_ref(buf, OFF_TO)
    }
}

/// Composite part: a design primitive owning an atomic-part graph + document.
pub mod composite {
    use super::*;

    pub const SIZE: usize = 200;
    pub const OFF_ID: usize = 0;
    pub const OFF_BUILD_DATE: usize = 4;
    pub const OFF_ROOT: usize = 8;
    pub const OFF_DOC: usize = 16;
    /// Up to 20 atomic-part references.
    pub const OFF_PARTS: usize = 24;

    pub fn build(id: u32, root: Oid, doc: Oid, parts: &[Oid]) -> Vec<u8> {
        assert!(parts.len() <= 20, "composite layout holds 20 part refs");
        let mut b = vec![0u8; SIZE];
        put_u32(&mut b, OFF_ID, id);
        put_u32(&mut b, OFF_BUILD_DATE, 19_950_522);
        put_ref(&mut b, OFF_ROOT, root);
        put_ref(&mut b, OFF_DOC, doc);
        for (i, &o) in parts.iter().enumerate() {
            put_ref(&mut b, OFF_PARTS + i * REF_SIZE, o);
        }
        b
    }

    pub fn root_part(buf: &[u8]) -> Oid {
        get_ref(buf, OFF_ROOT)
    }
}

/// Assembly: a node of the assembly hierarchy.
pub mod assembly {
    use super::*;

    pub const SIZE: usize = 120;
    pub const OFF_ID: usize = 0;
    pub const OFF_KIND: usize = 4; // 0 = base, 1 = complex
    pub const OFF_PARENT: usize = 8;
    /// Complex assemblies: references to 3 sub-assemblies.
    pub const OFF_SUB: usize = 16;
    /// Base assemblies: references to 3 composite parts.
    pub const OFF_COMP: usize = 40;

    pub fn build(id: u32, complex: bool, parent: Oid, subs: &[Oid], comps: &[Oid]) -> Vec<u8> {
        let mut b = vec![0u8; SIZE];
        put_u32(&mut b, OFF_ID, id);
        put_u32(&mut b, OFF_KIND, complex as u32);
        put_ref(&mut b, OFF_PARENT, parent);
        for (i, &o) in subs.iter().enumerate().take(3) {
            put_ref(&mut b, OFF_SUB + i * REF_SIZE, o);
        }
        for (i, &o) in comps.iter().enumerate().take(3) {
            put_ref(&mut b, OFF_COMP + i * REF_SIZE, o);
        }
        b
    }

    pub fn is_complex(buf: &[u8]) -> bool {
        get_u32(buf, OFF_KIND) == 1
    }

    pub fn subs(buf: &[u8]) -> [Oid; 3] {
        get_refs3(buf, OFF_SUB)
    }

    pub fn comps(buf: &[u8]) -> [Oid; 3] {
        get_refs3(buf, OFF_COMP)
    }
}

/// Document: per-composite-part text blob (2000 bytes in both databases).
pub mod document {
    use super::*;

    pub fn build(size: usize, comp: Oid) -> Vec<u8> {
        let mut b = vec![b'.'; size];
        put_ref(&mut b, 0, comp);
        let text = b"document text for composite part ";
        let n = text.len().min(size.saturating_sub(REF_SIZE));
        b[REF_SIZE..REF_SIZE + n].copy_from_slice(&text[..n]);
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ref_round_trip() {
        let mut b = vec![0u8; 16];
        let oid = Oid::new(PageId(123456), 42);
        put_ref(&mut b, 8, oid);
        assert_eq!(get_ref(&b, 8), oid);
    }

    #[test]
    fn atomic_layout() {
        let partof = Oid::new(PageId(1), 0);
        let to = vec![Oid::new(PageId(2), 1), Oid::new(PageId(2), 2), Oid::new(PageId(2), 3)];
        let a = atomic::build(7, partof, &to, &[]);
        assert_eq!(a.len(), atomic::SIZE);
        assert_eq!(get_u32(&a, atomic::OFF_ID), 7);
        assert_eq!(atomic::xy(&a), (7, 8));
        assert_eq!(atomic::to_conns(&a)[..], to[..]);
        let mut b = a.clone();
        b[atomic::OFF_X..atomic::OFF_X + 8].copy_from_slice(&atomic::xy_image(8, 9));
        assert_eq!(atomic::xy(&b), (8, 9));
    }

    #[test]
    fn x_and_y_are_adjacent_words() {
        // The T2 update is one 8-byte write at OFF_X; the diff algorithm
        // then produces a single 16-byte-image log record.
        assert_eq!(atomic::OFF_Y, atomic::OFF_X + 4);
    }

    #[test]
    fn assembly_kinds() {
        let base = assembly::build(1, false, Oid::NULL, &[], &[Oid::new(PageId(5), 0)]);
        assert!(!assembly::is_complex(&base));
        assert_eq!(assembly::comps(&base)[0], Oid::new(PageId(5), 0));
        let complex = assembly::build(2, true, Oid::NULL, &[Oid::new(PageId(9), 3)], &[]);
        assert!(assembly::is_complex(&complex));
        assert_eq!(assembly::subs(&complex)[0], Oid::new(PageId(9), 3));
    }

    #[test]
    fn composite_and_connection_round_trip() {
        let root = Oid::new(PageId(3), 1);
        let c = composite::build(9, root, Oid::NULL, &[root]);
        assert_eq!(composite::root_part(&c), root);
        let conn = connection::build(Oid::new(PageId(1), 1), Oid::new(PageId(2), 2), 55);
        assert_eq!(connection::to_atomic(&conn), Oid::new(PageId(2), 2));
    }

    #[test]
    fn module_size_arithmetic_matches_table2() {
        // Small module ≈ 6.6 MB, big ≈ 24.3 MB (Table 2). Our layouts land
        // within 6 % of both.
        let p = crate::params::Oo7Params::small();
        let per_comp = composite::SIZE
            + p.document_size
            + p.num_atomic_per_comp * atomic::SIZE
            + p.num_atomic_per_comp * p.num_conn_per_atomic * connection::SIZE;
        let small_module =
            p.num_comp_per_module * per_comp + p.assemblies() * assembly::SIZE + p.manual_size;
        let small_mb = small_module as f64 / (1024.0 * 1024.0);
        assert!((small_mb - 6.6).abs() < 0.4, "small module {small_mb:.2} MB");

        let b = crate::params::Oo7Params::big();
        let big_module =
            b.num_comp_per_module * per_comp + b.assemblies() * assembly::SIZE + b.manual_size;
        let big_mb = big_module as f64 / (1024.0 * 1024.0);
        assert!((big_mb - 24.3).abs() < 1.5, "big module {big_mb:.2} MB");
    }
}
