//! The sharded server buffer pool: N independently locked [`BufferPool`]
//! shards, keyed by a `PageId` hash.
//!
//! Sharding exists so that clients with disjoint working sets never
//! serialize on one pool mutex. Each shard is a full LRU pool of
//! `total/n` pages; a page lives in exactly one shard, so the dirty-page
//! eviction protocol (force log → write volume) runs entirely under that
//! page's shard lock. With one shard (the default), the pool is a single
//! `BufferPool` behind a single lock — bit-for-bit the pre-decomposition
//! behavior, which is what keeps single-client figures byte-identical.

use crate::buffer::BufferPool;
use qs_storage::Page;
use qs_trace::{TracedGuard, TracedMutex, Tracer};
use qs_types::PageId;

/// Which shard a page belongs to: Fibonacci hash of the page id. With one
/// shard this degenerates to 0 with no multiply in the way of reasoning.
pub(crate) fn shard_index(pid: PageId, n: usize) -> usize {
    if n <= 1 {
        0
    } else {
        ((pid.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize % n
    }
}

/// N independently locked buffer-pool shards.
pub struct ShardedPool {
    shards: Vec<TracedMutex<BufferPool>>,
}

impl ShardedPool {
    /// `total_pages` split evenly across `n` shards (each at least 1 page).
    pub fn new(total_pages: usize, n: usize) -> ShardedPool {
        let n = n.max(1);
        let per_shard = (total_pages / n).max(1);
        ShardedPool {
            shards: (0..n)
                .map(|_| TracedMutex::new("pool_shard", BufferPool::new(per_shard)))
                .collect(),
        }
    }

    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Index of the shard that owns `pid`.
    pub fn shard_of(&self, pid: PageId) -> usize {
        shard_index(pid, self.shards.len())
    }

    /// Lock the shard that owns `pid`.
    pub fn lock<'a>(&'a self, pid: PageId, tracer: &'a Tracer) -> TracedGuard<'a, BufferPool> {
        self.shards[self.shard_of(pid)].lock(tracer)
    }

    /// Lock one shard by index. The background flusher claims its batches
    /// this way — one shard at a time, never the whole pool — so foreground
    /// traffic on other shards proceeds while a claim is in progress.
    pub fn lock_shard<'a>(&'a self, idx: usize, tracer: &'a Tracer) -> TracedGuard<'a, BufferPool> {
        self.shards[idx].lock(tracer)
    }

    /// Lock every shard, in ascending index order (the lock-order rule for
    /// whole-pool operations: reclaim, restart, undo).
    pub fn lock_all<'a>(&'a self, tracer: &'a Tracer) -> Vec<TracedGuard<'a, BufferPool>> {
        self.shards.iter().map(|s| s.lock(tracer)).collect()
    }
}

/// A whole-pool view over all shards at once, held by quiesced operations.
/// Routes a page to its owning shard.
pub(crate) struct PoolView<'a> {
    shards: Vec<&'a mut BufferPool>,
}

impl<'a> PoolView<'a> {
    pub(crate) fn new(shards: Vec<&'a mut BufferPool>) -> PoolView<'a> {
        PoolView { shards }
    }

    /// The shard that owns `pid` — what [`ShardedPool::lock`] hands a hot
    /// path; every per-page mutation goes through it.
    pub(crate) fn shard(&mut self, pid: PageId) -> &mut BufferPool {
        let i = shard_index(pid, self.shards.len());
        self.shards[i]
    }

    pub(crate) fn contains(&self, pid: PageId) -> bool {
        self.shards[shard_index(pid, self.shards.len())].contains(pid)
    }

    pub(crate) fn peek(&self, pid: PageId) -> Option<&Page> {
        self.shards[shard_index(pid, self.shards.len())].peek(pid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_shard_is_identity_routing() {
        for pid in [0u32, 1, 17, u32::MAX] {
            assert_eq!(shard_index(PageId(pid), 1), 0);
        }
    }

    #[test]
    fn multi_shard_routing_is_stable_and_in_range() {
        let n = 8;
        for pid in 0..1000u32 {
            let s = shard_index(PageId(pid), n);
            assert!(s < n);
            assert_eq!(s, shard_index(PageId(pid), n), "deterministic");
        }
        // The hash actually spreads pages across shards.
        let hit: std::collections::HashSet<usize> =
            (0..1000u32).map(|p| shard_index(PageId(p), n)).collect();
        assert_eq!(hit.len(), n, "all shards used by 1000 consecutive pages");
    }

    #[test]
    fn sharded_pool_partitions_capacity() {
        let pool = ShardedPool::new(64, 4);
        assert_eq!(pool.shard_count(), 4);
        let tracer = Tracer::disabled();
        for g in pool.lock_all(&tracer) {
            assert_eq!(g.capacity(), 16);
        }
        // A page's shard is where its lock routes.
        let pid = PageId(123);
        let idx = pool.shard_of(pid);
        assert!(idx < 4);
        let mut g = pool.lock(pid, &tracer);
        g.insert(pid, Page::new(), false).unwrap();
        drop(g);
        let mut all = pool.lock_all(&tracer);
        let shards: Vec<&mut BufferPool> = all.iter_mut().map(|g| &mut **g).collect();
        let view = PoolView::new(shards);
        assert!(view.contains(pid));
    }
}
