//! Flat-slice numeric kernels and the parameter plane for the Hop
//! reproduction.
//!
//! The models in `hop-model` (SVM, tiny CNN) only need a small set of
//! dense operations on row-major `f32` slices: GEMV and elementwise
//! vector arithmetic. Everything is implemented here from scratch; no
//! BLAS or external linear-algebra crate is used.
//!
//! The crate also provides the zero-copy parameter plane used by every
//! runtime in `hop-core`: [`ParamBlock`] (an `Arc`-shared flat buffer with
//! O(1) snapshots and copy-on-write mutation) and [`BufferPool`] (recycled
//! zeroed scratch buffers), plus SIMD elementwise kernels in [`ops`]
//! (each written once over eight lanes, run as AVX2 on capable x86-64
//! and as portable `[f32; 8]` arrays otherwise) that are bit-identical
//! to their scalar references, and the deterministic update-compression
//! codecs in [`compress`] (top-k sparsification, int8 quantization,
//! identity — all with error feedback) that shrink every message path in
//! the runtimes, as fused single-pass stream steps pinned bitwise to the
//! composed sequences in [`compress::reference`].
//!
//! # Examples
//!
//! ```
//! use hop_tensor::{ops, ParamBlock};
//!
//! // A Reduce (Fig. 4 line 15) over two neighbours' parameter snapshots.
//! let a = ParamBlock::from_vec(vec![1.0, 2.0]);
//! let b = ParamBlock::from_vec(vec![3.0, 6.0]);
//! let mut out = [0.0; 2];
//! ops::mean_into(&[a.as_slice(), b.as_slice()], &mut out);
//! assert_eq!(out, [2.0, 4.0]);
//! ```

#![deny(unsafe_op_in_unsafe_fn)]
#![deny(clippy::undocumented_unsafe_blocks)]

pub mod compress;
pub mod ops;
pub mod param_block;
pub mod pool;
pub mod sweep;

pub use compress::{
    Codec, CompressedBlock, CompressionConfig, Compressor, ErrorFeedback, ParamStream,
    SelectionHint,
};
pub use param_block::ParamBlock;
pub use pool::{BufferPool, PoolStats};
