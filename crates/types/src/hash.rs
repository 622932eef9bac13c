//! The workspace's one fast hasher, for maps keyed by identifiers the
//! program assigns itself ([`crate::PageId`], [`crate::Oid`], frame and
//! transaction numbers).
//!
//! `std`'s default SipHash defends against keys an adversary crafts to
//! collide; these keys are small dense integers nobody outside the program
//! chooses, and at memory speed the per-lookup hash is the cost (the client
//! access path looks a page up in two maps per object dereference). Maps
//! keyed by anything that arrives from outside keep the default hasher.
//!
//! Every table a transaction touches from `begin` to the end of `commit`
//! is one of these, and keeps its storage from one transaction to the
//! next: on the server the lock manager's entries, held lists and
//! waits-for graph (`qs_esm::lock`), the transaction table and each
//! transaction's log-before-page set (`qs_esm::txn`), the dirty-page table
//! (`qs_esm::dpt`) and the buffer pool's frames; on the client its pool,
//! the pages it has logged (`qs_esm::client`) and the recovery buffer's
//! copies (`quickstore::recovery_buffer`).
//!
//! Ids restart reads back from the log still count as the program's own
//! (its page and transaction tables hash them once per run of records):
//! this server assigned them, wrote every frame that carries one — a
//! client's frames are verified and re-sealed before they are appended —
//! and seals each frame with a checksum that restart verifies before it
//! uses the frame's result. A damaged id fails that check; it is never a
//! key someone picked to collide. Whoever can write the log disk at will
//! has easier ways to hurt a restart than slow probes.
//!
//! Each integer written is folded into the state with one 64×64→128-bit
//! multiply whose halves are xor-ed together, so *every* input bit reaches
//! both the low bits (hashbrown's bucket index) and the top bits (its
//! control tag). A plain multiplicative hash would leave the low bits of
//! the product a function of the low bits of the key alone, and page ids
//! that share a power-of-two stride would pile into one bucket chain.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// 2⁶⁴ / φ, odd: the usual Fibonacci-hashing multiplier.
const K: u64 = 0x9E37_79B9_7F4A_7C15;

/// Multiply-and-fold hasher (see the module docs for when it is safe).
#[derive(Debug, Default, Clone, Copy)]
pub struct IdHasher(u64);

impl IdHasher {
    #[inline]
    fn fold(&mut self, v: u64) {
        let wide = u128::from(self.0 ^ v) * u128::from(K);
        self.0 = (wide as u64) ^ ((wide >> 64) as u64);
    }
}

impl Hasher for IdHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    /// Byte strings (not the intended key type) are folded a word at a time.
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.fold(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.fold(u64::from(v));
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.fold(u64::from(v));
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.fold(u64::from(v));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.fold(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.fold(v as u64);
    }
}

/// `HashMap` over [`IdHasher`]. Build with `IdMap::default()`.
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// `HashSet` over [`IdHasher`]. Build with `IdSet::default()`.
pub type IdSet<K> = HashSet<K, BuildHasherDefault<IdHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Oid, PageId};
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(key: T) -> u64 {
        BuildHasherDefault::<IdHasher>::default().hash_one(key)
    }

    /// How 4096 keys' hashes spread over a hashbrown-sized table: the
    /// fullest of the 8192 index buckets (low bits) and the number of
    /// distinct 7-bit control tags (top bits).
    fn spread(hashes: impl Iterator<Item = u64>) -> (usize, usize) {
        let mut buckets = vec![0usize; 8192];
        let mut tags = [false; 128];
        for h in hashes {
            buckets[(h & 8191) as usize] += 1;
            tags[(h >> 57) as usize] = true;
        }
        (*buckets.iter().max().unwrap(), tags.iter().filter(|&&t| t).count())
    }

    #[test]
    fn dense_and_strided_page_ids_do_not_cluster() {
        for stride in [1u32, 8, 1024] {
            let (fullest, tags) = spread((0..4096).map(|i| hash_of(PageId(i * stride))));
            // A uniform hash puts ~ln n / ln ln n keys in the fullest
            // bucket; a multiplier that ignores the stride's zero low bits
            // puts hundreds there.
            assert!(fullest <= 8, "stride {stride}: {fullest} keys share one bucket");
            assert!(tags >= 120, "stride {stride}: only {tags} of 128 control tags used");
        }
    }

    #[test]
    fn strided_ids_fill_and_probe_a_map() {
        for stride in [1u32, 8, 1024] {
            let mut m: IdMap<PageId, u32> = IdMap::default();
            for i in 0..4096u32 {
                m.insert(PageId(i * stride), i);
            }
            assert_eq!(m.len(), 4096);
            for i in 0..4096u32 {
                assert_eq!(m.get(&PageId(i * stride)), Some(&i));
                assert!(stride == 1 || !m.contains_key(&PageId(i * stride + 1)));
            }
        }
    }

    #[test]
    fn oid_keys_hash_page_and_slot() {
        let base = hash_of(Oid::new(PageId(7), 3));
        assert_ne!(base, hash_of(Oid::new(PageId(8), 3)), "page must reach the hash");
        assert_ne!(base, hash_of(Oid::new(PageId(7), 4)), "slot must reach the hash");
        // All objects of one page, and one slot across pages, stay distinct.
        let slots: IdSet<u64> = (0..512u16).map(|s| hash_of(Oid::new(PageId(7), s))).collect();
        let pages: IdSet<u64> = (0..512u32).map(|p| hash_of(Oid::new(PageId(p), 3))).collect();
        assert_eq!((slots.len(), pages.len()), (512, 512));
    }

    /// The lock manager's key: the same shape and derived `Hash` as
    /// `qs_esm::lock::Resource` (this crate sits below that one).
    #[derive(Hash)]
    #[allow(dead_code)]
    enum Resource {
        Page(PageId),
        Record(PageId, u16),
    }

    #[test]
    fn page_and_record_resources_on_dense_pages_spread() {
        // 1024 dense pages, each as a whole page and as three of its
        // records: 4096 keys.
        let hashes: Vec<u64> = (0..1024u32)
            .flat_map(|p| {
                let records = (0..3u16).map(move |s| Resource::Record(PageId(p), s));
                std::iter::once(Resource::Page(PageId(p))).chain(records)
            })
            .map(hash_of)
            .collect();
        let distinct: IdSet<u64> = hashes.iter().copied().collect();
        assert_eq!(distinct.len(), 4096, "Page(p) and Record(p, s) must not collide");
        let (fullest, tags) = spread(hashes.into_iter());
        assert!(fullest <= 8, "{fullest} resources share one bucket");
        assert!(tags >= 120, "only {tags} of 128 control tags used");
    }

    #[test]
    fn byte_strings_hash_by_content_and_length_class() {
        assert_ne!(hash_of("abcdefgh"), hash_of("abcdefgi"));
        assert_ne!(hash_of("abcdefghi"), hash_of("abcdefgh"));
    }
}
