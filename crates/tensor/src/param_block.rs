//! Shared, copy-on-write flat parameter buffers.
//!
//! Decentralized training is dominated by *reads* of whole parameter
//! vectors: every simulated message, every queue entry and every
//! staleness cache holds "the parameters worker `w` had at iteration
//! `k`". Cloning a `Vec<f32>` for each of those holders made allocator
//! traffic the hot path. A [`ParamBlock`] instead wraps the flat buffer
//! in an [`Arc`]:
//!
//! * [`ParamBlock::snapshot`] is a refcount bump — publishing the current
//!   parameters to a neighbor, a queue, or a staleness cache costs O(1)
//!   and zero bytes.
//! * [`ParamBlock::make_mut`] is copy-on-write: mutation reuses the
//!   allocation when no snapshot is alive, and copies exactly once when
//!   one is — so snapshots are immutable by construction.
//! * [`ParamBlock::overwrite_mut`] is the full-overwrite variant for
//!   `Reduce`-style writes that never read the old contents: when the
//!   block is shared it swaps in a recycled buffer from a
//!   [`BufferPool`] — neither copied nor zeroed, since every element is
//!   about to be overwritten — and retires the old block to that pool,
//!   which reuses it once the last snapshot is dropped.
//!
//! Determinism contract: a `ParamBlock` never changes *values* on its
//! own. All sharing is representation-only, so any computation over
//! blocks is bit-identical to the same computation over owned `Vec<f32>`
//! copies.

use crate::pool::BufferPool;
use std::ops::Deref;
use std::sync::Arc;

/// An immutable-by-default, `Arc`-shared flat `f32` parameter buffer with
/// cheap snapshots and copy-on-write mutation.
///
/// # Examples
///
/// ```
/// use hop_tensor::ParamBlock;
///
/// let mut params = ParamBlock::from_vec(vec![1.0, 2.0]);
/// let sent = params.snapshot();            // refcount bump, no copy
/// assert!(params.ptr_eq(&sent));
/// params.make_mut()[0] = 9.0;              // copy-on-write: detaches
/// assert_eq!(sent.as_slice(), &[1.0, 2.0]); // snapshot is unaffected
/// assert_eq!(params.as_slice(), &[9.0, 2.0]);
/// ```
#[derive(Debug, Clone)]
pub struct ParamBlock {
    data: Arc<Vec<f32>>,
}

impl ParamBlock {
    /// Wraps an owned buffer (no copy).
    pub fn from_vec(data: Vec<f32>) -> Self {
        Self {
            data: Arc::new(data),
        }
    }

    /// A zero-filled block of the given length.
    pub fn zeros(len: usize) -> Self {
        Self::from_vec(vec![0.0; len])
    }

    /// Publishes the current contents: a refcount bump, never a copy.
    ///
    /// The snapshot observes the values at call time forever; later
    /// mutation of either block detaches it from the other first.
    #[must_use]
    pub fn snapshot(&self) -> Self {
        Self {
            data: Arc::clone(&self.data),
        }
    }

    /// Immutable view of the buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the block has zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Copies the contents into an owned `Vec` (terminal reporting paths).
    pub fn to_vec(&self) -> Vec<f32> {
        self.data.as_ref().clone()
    }

    /// Whether two blocks share one allocation.
    pub fn ptr_eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.data, &other.data)
    }

    /// Number of blocks currently sharing this allocation (tests and
    /// diagnostics).
    pub fn strong_count(&self) -> usize {
        Arc::strong_count(&self.data)
    }

    /// Copy-on-write mutable access for read-modify-write updates
    /// (optimizer steps, in-place mixing): reuses the allocation when the
    /// block is unshared, copies exactly once when a snapshot is alive.
    pub fn make_mut(&mut self) -> &mut [f32] {
        Arc::make_mut(&mut self.data).as_mut_slice()
    }

    /// Mutable access for *full overwrites* (`Reduce`-style writes that
    /// never read the old contents): like [`Self::make_mut`], but when
    /// the block is shared the old values are not copied — a same-length
    /// unshared block from `pool` replaces them (one its readers gave
    /// back whole, so neither the buffer nor its `Arc` is allocated),
    /// and the old block is retired to `pool`, which reuses it once its
    /// readers let go.
    ///
    /// The returned slice holds unspecified values in the shared case and
    /// the previous contents in the unshared case; callers must overwrite
    /// every element.
    pub fn overwrite_mut(&mut self, pool: &mut BufferPool) -> &mut [f32] {
        if Arc::get_mut(&mut self.data).is_none() {
            let next = pool.acquire_block_stale(self.data.len());
            pool.retire(std::mem::replace(self, next));
        }
        Arc::get_mut(&mut self.data)
            .expect("block was just made unique")
            .as_mut_slice()
    }

    /// Mutable access in place if no snapshot is alive, else `None`
    /// (where [`Self::make_mut`] would copy).
    pub(crate) fn unique_mut(&mut self) -> Option<&mut [f32]> {
        Arc::get_mut(&mut self.data).map(Vec::as_mut_slice)
    }

    /// The buffer itself, `Vec` and all, if no snapshot is alive.
    pub(crate) fn unique_vec_mut(&mut self) -> Option<&mut Vec<f32>> {
        Arc::get_mut(&mut self.data)
    }

    /// The buffer's capacity, in `f32`s.
    pub(crate) fn capacity(&self) -> usize {
        self.data.capacity()
    }

    /// The buffer itself if this is its last holder, else the block back.
    pub(crate) fn try_into_unique_vec(self) -> Result<Vec<f32>, Self> {
        Arc::try_unwrap(self.data).map_err(|data| Self { data })
    }
}

impl Deref for ParamBlock {
    type Target = [f32];

    fn deref(&self) -> &[f32] {
        self.as_slice()
    }
}

impl PartialEq for ParamBlock {
    fn eq(&self, other: &Self) -> bool {
        self.ptr_eq(other) || self.as_slice() == other.as_slice()
    }
}

impl From<Vec<f32>> for ParamBlock {
    fn from(data: Vec<f32>) -> Self {
        Self::from_vec(data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_shares_instead_of_copying() {
        let block = ParamBlock::from_vec(vec![1.0, 2.0, 3.0]);
        assert_eq!(block.strong_count(), 1);
        let snap = block.snapshot();
        assert_eq!(block.strong_count(), 2);
        assert!(block.ptr_eq(&snap));
        assert_eq!(snap.as_slice().as_ptr(), block.as_slice().as_ptr());
    }

    #[test]
    fn make_mut_is_copy_on_write() {
        let mut block = ParamBlock::from_vec(vec![1.0, 2.0]);
        let before = block.as_slice().as_ptr();
        // Unshared: mutation reuses the allocation.
        block.make_mut()[0] = 5.0;
        assert_eq!(block.as_slice().as_ptr(), before);
        // Shared: mutation detaches; the snapshot keeps the old values.
        let snap = block.snapshot();
        block.make_mut()[1] = 7.0;
        assert!(!block.ptr_eq(&snap));
        assert_eq!(snap.as_slice(), &[5.0, 2.0]);
        assert_eq!(block.as_slice(), &[5.0, 7.0]);
    }

    #[test]
    fn overwrite_mut_skips_the_copy_when_shared() {
        let mut pool = BufferPool::new();
        let mut block = ParamBlock::from_vec(vec![3.0, 4.0]);
        let snap = block.snapshot();
        let out = block.overwrite_mut(&mut pool);
        // Shared case: a detached buffer of the same length (contents
        // unspecified), the old values neither copied nor disturbed.
        assert_eq!(out.len(), 2);
        out.copy_from_slice(&[8.0, 9.0]);
        assert_eq!(snap.as_slice(), &[3.0, 4.0]);
        assert_eq!(block.as_slice(), &[8.0, 9.0]);
        // Unshared case: the allocation is reused and keeps its contents.
        let ptr = block.as_slice().as_ptr();
        assert_eq!(block.overwrite_mut(&mut pool), &[8.0, 9.0]);
        assert_eq!(block.as_slice().as_ptr(), ptr);
    }

    #[test]
    fn overwrite_mut_reuses_blocks_whole() {
        let mut pool = BufferPool::new();
        // A reader's reclaim of the last holder keeps the `Arc` too.
        let given = ParamBlock::from_vec(vec![1.0; 4]);
        let given_arc = Arc::as_ptr(&given.data);
        pool.reclaim(given);
        let mut block = ParamBlock::from_vec(vec![0.0; 4]);
        let reader = block.snapshot();
        block.overwrite_mut(&mut pool).fill(2.0);
        assert_eq!(Arc::as_ptr(&block.data), given_arc);
        // So does the retired block once its reader lets go.
        let retired_arc = Arc::as_ptr(&reader.data);
        drop(reader);
        let reader = block.snapshot();
        block.overwrite_mut(&mut pool).fill(3.0);
        assert_eq!(Arc::as_ptr(&block.data), retired_arc);
        assert_eq!(reader.as_slice(), &[2.0; 4]);
        assert_eq!(pool.stats().fresh, 0);
    }

    #[test]
    fn equality_compares_contents() {
        let a = ParamBlock::from_vec(vec![1.0, 2.0]);
        let b = ParamBlock::from_vec(vec![1.0, 2.0]);
        let c = ParamBlock::from_vec(vec![1.0, 3.0]);
        assert_eq!(a, b);
        assert_eq!(a, a.snapshot());
        assert_ne!(a, c);
    }
}
