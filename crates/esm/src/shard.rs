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

    /// Lock one shard by index. The checkpoint's drain claims its batches
    /// this way, and restart installs redone pages — one shard at a time,
    /// never two — so traffic on other shards proceeds meanwhile.
    pub fn lock_shard<'a>(&'a self, idx: usize, tracer: &'a Tracer) -> TracedGuard<'a, BufferPool> {
        self.shards[idx].lock(tracer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qs_storage::Page;

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
        for idx in 0..4 {
            assert_eq!(pool.lock_shard(idx, &tracer).capacity(), 16);
        }
        // A page's shard is where its lock routes.
        let pid = PageId(123);
        let idx = pool.shard_of(pid);
        assert!(idx < 4);
        let mut g = pool.lock(pid, &tracer);
        g.insert(pid, Page::new(), false).unwrap();
        drop(g);
        assert!(pool.lock_shard(idx, &tracer).contains(pid));
    }
}
