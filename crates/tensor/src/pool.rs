//! Scratch-buffer recycling for the training hot paths.
//!
//! Per-event temporaries (gradient vectors, reduce outputs, pairwise
//! averages) used to be `vec![0.0; dim]` allocations; at thousands of
//! simulated events per run the allocator dominated wall-clock. A
//! [`BufferPool`] keeps returned buffers on a free list so steady state
//! allocates nothing: [`BufferPool::acquire`] hands out a zeroed buffer
//! (recycled when one is available), [`BufferPool::release`] returns it,
//! and [`BufferPool::reclaim`] recycles the allocation behind a
//! [`ParamBlock`] once it is no longer shared.
//!
//! # Who recycles a block
//!
//! The pool that *replaces* a block recycles it. When
//! [`ParamBlock::overwrite_mut`] or a [`ParamStream`](crate::ParamStream)
//! step swaps out a block that readers still hold, the replacing pool
//! keeps the old block on a short retired list and reuses its buffer
//! once the last reader has let go. A reader's [`BufferPool::reclaim`]
//! of such a block therefore only drops a reference: the buffer goes
//! back to the pool that wrote it, not to whichever pool happened to
//! drop it last. On the threaded runtime, where every worker thread
//! owns a pool, that keeps buffers from drifting between workers, and
//! in a process worker it keeps them in each inbound link's pool. A
//! pool then holds about as many buffers as its own blocks have readers
//! in flight, which the iteration-gap bound limits, instead of anywhere
//! between none and the free-list cap.
//!
//! Determinism contract: buffers from [`BufferPool::acquire`] are always
//! zero-filled, so a recycled buffer is indistinguishable from a fresh
//! `vec![0.0; len]` — pooling cannot change any computed value.
//! [`BufferPool::acquire_stale`] skips that fill for destinations a
//! kernel overwrites in full (a Reduce output, a stream's next
//! reference); its contents are unspecified, and debug builds poison it
//! with NaN so a caller that leaves an element unwritten fails a digest
//! instead of silently reading its predecessor's values.

use crate::param_block::ParamBlock;
use std::collections::VecDeque;

/// A free list of reusable `Vec<f32>` scratch buffers.
///
/// # Examples
///
/// ```
/// use hop_tensor::BufferPool;
///
/// let mut pool = BufferPool::new();
/// let buf = pool.acquire(4);
/// assert_eq!(buf, vec![0.0; 4]);
/// pool.release(buf);
/// let again = pool.acquire(4); // recycled, not reallocated
/// assert_eq!(pool.reuses(), 1);
/// # drop(again);
/// ```
#[derive(Debug, Default)]
pub struct BufferPool {
    free: Vec<Vec<f32>>,
    /// Unshared blocks handed back whole, `Arc` and all, so a block
    /// acquire ([`ParamBlock::overwrite_mut`]) allocates nothing. They
    /// count against the same caps as `free`.
    blocks: Vec<ParamBlock>,
    /// The capacity of `free` and `blocks`, in `f32`s.
    free_floats: usize,
    /// Blocks this pool replaced while readers still held them, oldest
    /// first.
    retired: VecDeque<ParamBlock>,
    acquires: u64,
    reuses: u64,
}

/// Free-list length cap; beyond this, released buffers are dropped. A
/// real worker holds only a handful of buffers at once, but the
/// simulator's one pool serves every worker: at 10k workers their
/// readers hand back thousands of small blocks between two acquires, and
/// a cap of 64 dropped blocks the next Reduces then allocated afresh.
/// [`MAX_FREE_FLOATS`] bounds the memory either way.
const MAX_FREE: usize = 4096;

/// Free-list capacity cap in `f32`s (4 MiB): sixteen 64K-parameter
/// blocks. A pool whose readers return every block gets bursts back at
/// once (a straggler's purged updates); beyond what the next acquires
/// take, those are resident memory for nothing, and the allocator holds
/// them as well. Small blocks stay under [`MAX_FREE`] first.
const MAX_FREE_FLOATS: usize = 1 << 20;

/// Retired-list length cap; retiring one more block hands the oldest to
/// [`BufferPool::reclaim`], so a reader that never lets go pins at most
/// this many buffers. Sixteen covers the blocks a Hop worker has in
/// flight under any iteration-gap bound the runtimes use. A pool that
/// serves many workers (the simulator's) evicts blocks that still have
/// readers; each comes back when its last reader reclaims it into the
/// same pool, so its readers must reclaim, never drop.
const MAX_RETIRED: usize = 16;

/// A point-in-time snapshot of a pool's allocation behavior, used by
/// benches to assert a hot path stopped allocating after warmup: if
/// [`PoolStats::fresh`] is unchanged between two snapshots, every
/// acquire in between was served from the free list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// Total [`BufferPool::acquire`] calls so far.
    pub acquires: u64,
    /// Acquires served by recycling a released buffer.
    pub reuses: u64,
    /// Acquires that had to allocate a fresh zeroed buffer.
    pub fresh: u64,
}

impl BufferPool {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Hands out a zero-filled buffer of length `len`, recycling a
    /// released one when available.
    pub fn acquire(&mut self, len: usize) -> Vec<f32> {
        match self.recycle() {
            Some(mut buf) => {
                buf.clear();
                buf.resize(len, 0.0);
                buf
            }
            None => vec![0.0; len],
        }
    }

    /// Hands out a buffer of length `len` with *unspecified* contents
    /// (a recycled buffer keeps whatever its last holder wrote), for
    /// destinations the caller overwrites in full: same-length reuse —
    /// the steady state of every runtime — touches no memory at all.
    pub fn acquire_stale(&mut self, len: usize) -> Vec<f32> {
        match self.recycle() {
            Some(mut buf) => {
                buf.resize(len, 0.0);
                #[cfg(debug_assertions)]
                buf.fill(f32::NAN);
                buf
            }
            None => vec![0.0; len],
        }
    }

    /// A unique block of length `len` with *unspecified* contents, as
    /// [`Self::acquire_stale`] hands out a buffer, drawn in the same
    /// order: a block given back whole, else a free buffer in a new
    /// `Arc`, else a retired block whose readers have all let go. Only a
    /// fresh or a rewrapped buffer allocates.
    pub(crate) fn acquire_block_stale(&mut self, len: usize) -> ParamBlock {
        self.acquires += 1;
        let free = self
            .blocks
            .pop()
            .or_else(|| self.free.pop().map(ParamBlock::from_vec));
        self.free_floats -= free.as_ref().map_or(0, ParamBlock::capacity);
        let Some(mut block) = free.or_else(|| self.take_retired()) else {
            return ParamBlock::zeros(len);
        };
        self.reuses += 1;
        let buf = block.unique_vec_mut().expect("a pooled block is unshared");
        buf.resize(len, 0.0);
        #[cfg(debug_assertions)]
        buf.fill(f32::NAN);
        block
    }

    /// Pops a free buffer, or else unwraps a block given back whole or
    /// any retired block whose readers have all let go, keeping the
    /// acquire/reuse counters.
    fn recycle(&mut self) -> Option<Vec<f32>> {
        self.acquires += 1;
        let free = self.free.pop().or_else(|| {
            let block = self.blocks.pop()?;
            Some(
                block
                    .try_into_unique_vec()
                    .expect("a pooled block is unshared"),
            )
        });
        self.free_floats -= free.as_ref().map_or(0, Vec::capacity);
        let buf = free.or_else(|| self.take_retired()?.try_into_unique_vec().ok());
        self.reuses += u64::from(buf.is_some());
        buf
    }

    /// Removes the first retired block that has become unique. The scan
    /// covers the whole list: a long-lived reader (a run's initial
    /// parameters, say) must not hide the blocks retired after it.
    fn take_retired(&mut self) -> Option<ParamBlock> {
        let i = self.retired.iter().position(|b| b.strong_count() == 1)?;
        self.retired.remove(i)
    }

    /// Whether a buffer of `capacity` floats fits under the free caps;
    /// if so, counts it in.
    fn admit(&mut self, capacity: usize) -> bool {
        let floats = self.free_floats + capacity;
        let fits = self.free.len() + self.blocks.len() < MAX_FREE
            && floats <= MAX_FREE_FLOATS
            && capacity > 0;
        if fits {
            self.free_floats = floats;
        }
        fits
    }

    /// Returns a buffer to the free list (dropped if the list is full).
    pub fn release(&mut self, buf: Vec<f32>) {
        if self.admit(buf.capacity()) {
            self.free.push(buf);
        }
    }

    /// Recycles the allocation behind `block`, whole, if this was its
    /// last holder; shared blocks are simply dropped (their other
    /// holders keep the buffer alive). A block another pool retired is
    /// always shared with that pool, so reclaiming it only drops a
    /// reference.
    pub fn reclaim(&mut self, block: ParamBlock) {
        if block.strong_count() == 1 && self.admit(block.capacity()) {
            self.blocks.push(block);
        }
    }

    /// Takes back `block`, which this pool's caller has just replaced or
    /// handed to its readers: an unshared block is released at once; a
    /// shared one waits on the retired list until its readers let go,
    /// and a later acquire reuses it. When the list is full, its oldest
    /// block is reclaimed instead.
    pub fn retire(&mut self, block: ParamBlock) {
        if block.strong_count() == 1 {
            return self.reclaim(block);
        }
        if self.retired.len() == MAX_RETIRED {
            let oldest = self.retired.pop_front().expect("the list is full");
            self.reclaim(oldest);
        }
        self.retired.push_back(block);
    }

    /// Buffers currently free, whole blocks included.
    pub fn free_buffers(&self) -> usize {
        self.free.len() + self.blocks.len()
    }

    /// Total [`Self::acquire`] calls.
    pub fn acquires(&self) -> u64 {
        self.acquires
    }

    /// Acquires served from the free list instead of the allocator.
    pub fn reuses(&self) -> u64 {
        self.reuses
    }

    /// Snapshot of the allocation counters (see [`PoolStats`]).
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            acquires: self.acquires,
            reuses: self.reuses,
            fresh: self.acquires - self.reuses,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acquire_is_zeroed_even_after_reuse() {
        let mut pool = BufferPool::new();
        let mut buf = pool.acquire(3);
        buf.copy_from_slice(&[1.0, 2.0, 3.0]);
        pool.release(buf);
        assert_eq!(pool.acquire(5), vec![0.0; 5]);
    }

    #[test]
    fn acquire_stale_reuses_without_promising_contents() {
        let mut pool = BufferPool::new();
        pool.release(vec![1.0, 2.0, 3.0]);
        let buf = pool.acquire_stale(2);
        assert_eq!(buf.len(), 2);
        pool.release(buf);
        // Growth is zero-extended like any `Vec::resize`; the counters
        // treat both acquire flavours alike.
        assert_eq!(pool.acquire_stale(5).len(), 5);
        assert_eq!(pool.acquire_stale(4), vec![0.0; 4]);
        let s = pool.stats();
        assert_eq!((s.acquires, s.reuses, s.fresh), (3, 2, 1));
    }

    #[test]
    fn reuse_keeps_the_allocation() {
        let mut pool = BufferPool::new();
        let buf = pool.acquire(8);
        let ptr = buf.as_ptr();
        pool.release(buf);
        let again = pool.acquire(8);
        assert_eq!(again.as_ptr(), ptr);
        assert_eq!(pool.acquires(), 2);
        assert_eq!(pool.reuses(), 1);
    }

    #[test]
    fn reclaim_recycles_only_unique_blocks() {
        let mut pool = BufferPool::new();
        let block = ParamBlock::from_vec(vec![1.0; 4]);
        let snap = block.snapshot();
        pool.reclaim(block); // still shared with `snap`: dropped, not pooled
        assert_eq!(pool.free_buffers(), 0);
        pool.reclaim(snap); // last holder: recycled
        assert_eq!(pool.free_buffers(), 1);
    }

    #[test]
    fn stats_split_fresh_from_reused() {
        let mut pool = BufferPool::new();
        assert_eq!(pool.stats(), PoolStats::default());
        let a = pool.acquire(4);
        let b = pool.acquire(4);
        pool.release(a);
        pool.release(b);
        let _c = pool.acquire(4);
        let s = pool.stats();
        assert_eq!(s.acquires, 3);
        assert_eq!(s.reuses, 1);
        assert_eq!(s.fresh, 2);
    }

    #[test]
    fn the_owner_takes_a_retired_buffer_back_once_the_snapshot_drops() {
        let mut pool = BufferPool::new();
        let mut block = ParamBlock::from_vec(vec![1.0; 4]);
        let snap = block.snapshot();
        let old = snap.as_slice().as_ptr();
        block.overwrite_mut(&mut pool).fill(2.0);
        // The reader still holds the replaced block: it waits, retired.
        assert_eq!((pool.free_buffers(), pool.retired.len()), (0, 1));
        let other = pool.acquire(4);
        assert_ne!(other.as_ptr(), old);
        drop(snap);
        let again = pool.acquire_stale(4);
        assert_eq!(again.as_ptr(), old);
        assert!(pool.retired.is_empty());
        assert_eq!(pool.stats().fresh, 2);
    }

    #[test]
    fn a_readers_reclaim_of_a_retired_block_does_not_pool_it() {
        let (mut owner, mut reader) = (BufferPool::new(), BufferPool::new());
        let mut block = ParamBlock::from_vec(vec![1.0; 4]);
        let snap = block.snapshot();
        let old = snap.as_slice().as_ptr();
        block.overwrite_mut(&mut owner).fill(2.0);
        reader.reclaim(snap);
        assert_eq!(reader.free_buffers(), 0);
        let again = owner.acquire(4);
        assert_eq!(again.as_ptr(), old);
    }

    #[test]
    fn any_unique_retired_block_is_reused_not_just_the_oldest() {
        let mut pool = BufferPool::new();
        let mut block = ParamBlock::from_vec(vec![1.0; 4]);
        let pinned = block.snapshot();
        block.overwrite_mut(&mut pool).fill(2.0);
        let released = block.snapshot();
        let old = released.as_slice().as_ptr();
        block.overwrite_mut(&mut pool).fill(3.0);
        drop(released);
        assert_eq!(pool.retired.len(), 2);
        let again = pool.acquire_stale(4);
        assert_eq!(again.as_ptr(), old);
        drop(pinned);
    }

    #[test]
    fn the_retired_list_stays_bounded_when_a_reader_never_lets_go() {
        let mut pool = BufferPool::new();
        let mut block = ParamBlock::from_vec(vec![0.0; 2]);
        let mut held = Vec::new();
        for i in 0..100 {
            held.push(block.snapshot());
            block.overwrite_mut(&mut pool).fill(i as f32);
            assert!(pool.retired.len() <= MAX_RETIRED);
        }
        assert_eq!(pool.retired.len(), MAX_RETIRED);
        // An evicted block is the reader's again: its reclaim pools it.
        let mut reader = BufferPool::new();
        reader.reclaim(held.swap_remove(0));
        assert_eq!(reader.free_buffers(), 1);
    }

    #[test]
    fn retiring_an_unshared_block_releases_it() {
        let mut pool = BufferPool::new();
        pool.retire(ParamBlock::from_vec(vec![1.0; 4]));
        assert_eq!((pool.free_buffers(), pool.retired.len()), (1, 0));
    }

    #[test]
    fn free_list_is_bounded() {
        let mut pool = BufferPool::new();
        for _ in 0..MAX_FREE + 100 {
            pool.release(vec![0.0; 2]);
        }
        assert_eq!(pool.free_buffers(), MAX_FREE);
        // 64K-float blocks: sixteen fill the list's 4 MiB.
        let mut pool = BufferPool::new();
        for _ in 0..40 {
            pool.release(vec![0.0; 1 << 16]);
        }
        assert_eq!(pool.free_buffers(), 16);
        let _taken = pool.acquire(1 << 16);
        pool.release(vec![0.0; 1 << 16]);
        assert_eq!(pool.free_buffers(), 16);
    }
}
