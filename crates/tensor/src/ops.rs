//! Flat-slice numeric kernels.
//!
//! These free functions operate on `&[f32]`/`&mut [f32]` so that model code
//! can apply them directly to slices of a worker's flat parameter vector
//! without copying into tensor objects.
//!
//! The elementwise vector kernels ([`axpy`], [`axpby`], [`scale`],
//! [`fill`], [`abs_into`], [`relu`], [`relu_backward`], and the Reduce
//! kernels [`mean_into`]/[`weighted_mean_into`]) dispatch at runtime
//! to the widest SIMD backend the host supports (see [`simd`]): 256-bit
//! AVX2 intrinsics on capable x86-64, otherwise an 8-lane unrolled
//! portable path. Every element is still computed by exactly the same
//! scalar expression — multiply then add as two separate rounding steps,
//! never fused — in the same order as the naive loop, so results are
//! *bit-identical* to the [`mod@reference`] implementations on every
//! backend: vectorization is a speed, not a semantics, change
//! (property-tested per backend in `tests/chunked_kernels.rs`).
//!
//! The Reduce kernels are one sweep: each output element is accumulated
//! in a register across the inputs — `0.0`, then `+ w_j * x_j[i]` in
//! input order, then `* 1/Σw` — which is the per-element order of the
//! composed `fill` + n × `axpy` + `scale` they replace (still the
//! [`reference::scaled_sum`] oracle), without its n + 2 passes over the
//! destination. The destination is written, never read, so callers hand
//! it a buffer that was not zeroed first.
//!
//! The reductions ([`dot`], [`norm2`], and the per-row dots inside
//! [`gemv`]) deliberately stay scalar-sequential: a vectorized reduction
//! reassociates the floating-point sum, and those results feed the
//! experiment digests. Only a *maximum* may be vectorised as a reduction
//! — it is exact under any association — which is what the int8 codec's
//! `max|v|` scan in [`crate::compress::kernels`] does. [`gemv_t`] and
//! [`gemm`] compose [`axpy`], so they ride the SIMD backends for free
//! without changing any accumulation order.

/// `y += alpha * x` (AXPY), SIMD-dispatched.
///
/// # Panics
///
/// Panics if `x` and `y` have different lengths.
pub fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
    assert_eq!(x.len(), y.len(), "axpy length mismatch");
    #[cfg(target_arch = "x86_64")]
    if simd::avx2_available() {
        simd::avx2::axpy(alpha, x, y);
        return;
    }
    simd::portable::axpy(alpha, x, y);
}

/// `y = alpha * x + beta * y`, SIMD-dispatched.
///
/// # Panics
///
/// Panics if `x` and `y` have different lengths.
pub fn axpby(alpha: f32, x: &[f32], beta: f32, y: &mut [f32]) {
    assert_eq!(x.len(), y.len(), "axpby length mismatch");
    #[cfg(target_arch = "x86_64")]
    if simd::avx2_available() {
        simd::avx2::axpby(alpha, x, beta, y);
        return;
    }
    simd::portable::axpby(alpha, x, beta, y);
}

/// Dot product.
///
/// Deliberately a scalar sequential sum: the accumulation order is part
/// of the workspace's determinism contract (losses and gradients feed
/// experiment digests), and any SIMD reduction would reassociate it.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn dot(x: &[f32], y: &[f32]) -> f32 {
    assert_eq!(x.len(), y.len(), "dot length mismatch");
    x.iter().zip(y).map(|(a, b)| a * b).sum()
}

/// Scales a slice in place: `x *= alpha`, SIMD-dispatched.
pub fn scale(alpha: f32, x: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if simd::avx2_available() {
        simd::avx2::scale(alpha, x);
        return;
    }
    simd::portable::scale(alpha, x);
}

/// Fills a slice with a constant, SIMD-dispatched.
pub fn fill(value: f32, x: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if simd::avx2_available() {
        simd::avx2::fill(value, x);
        return;
    }
    simd::portable::fill(value, x);
}

/// Elementwise magnitude: `out[i] = |x[i]|`, SIMD-dispatched.
///
/// Clearing the sign bit is the same single bit operation on every
/// backend (`f32::abs` scalar, sign-mask AND under AVX2), so the scan is
/// bitwise deterministic — the property the top-k codec's selection
/// order relies on.
///
/// # Panics
///
/// Panics if `x` and `out` have different lengths.
pub fn abs_into(x: &[f32], out: &mut [f32]) {
    assert_eq!(x.len(), out.len(), "abs_into length mismatch");
    #[cfg(target_arch = "x86_64")]
    if simd::avx2_available() {
        simd::avx2::abs_into(x, out);
        return;
    }
    simd::portable::abs_into(x, out);
}

/// Euclidean norm.
pub fn norm2(x: &[f32]) -> f32 {
    dot(x, x).sqrt()
}

/// Elementwise mean of several equally sized slices into `out`.
///
/// This is the Reduce of Fig. 4 line 15: `temp = sum(x_recv) / n`.
/// One SIMD-dispatched sweep ([`scaled_sum`]); the per-element
/// accumulation order over `inputs` matches the naive reference exactly.
/// `out` is only written: its previous contents do not matter.
///
/// # Panics
///
/// Panics if `inputs` is empty or any input length differs from `out`.
pub fn mean_into(inputs: &[&[f32]], out: &mut [f32]) {
    assert!(!inputs.is_empty(), "mean of zero slices");
    scaled_sum(inputs, None, 1.0 / inputs.len() as f32, None, out);
}

/// Weighted elementwise average: `out = sum(w_i * x_i) / sum(w_i)`.
///
/// This is the bounded-staleness Reduce of Eq. (2) in the paper.
///
/// # Panics
///
/// Panics if inputs/weights lengths mismatch, the weight sum is not
/// positive, or any input length differs from `out`.
pub fn weighted_mean_into(inputs: &[&[f32]], weights: &[f32], out: &mut [f32]) {
    assert_eq!(inputs.len(), weights.len(), "inputs/weights mismatch");
    assert!(!inputs.is_empty(), "weighted mean of zero slices");
    let wsum: f32 = weights.iter().sum();
    assert!(wsum > 0.0, "weight sum must be positive, got {wsum}");
    scaled_sum(inputs, Some(weights), 1.0 / wsum, None, out);
}

/// A [`scaled_sum`]'s optional last term: `+ alpha * addend[i]`.
pub type Tail<'a> = Option<(f32, &'a [f32])>;

/// `out[i] = (0.0 + w_0 * x_0[i] + w_1 * x_1[i] + …) * factor` in one
/// sweep, SIMD-dispatched; `weights: None` means every `w_j` is 1 (and
/// the exact `1.0 * x` is skipped). The sum runs left to right per
/// element, each product and each addition rounded on its own. A `tail`
/// then adds `alpha * addend[i]`, product rounded before the sum: bit for
/// bit the `axpy(alpha, addend, out)` pass it saves (Fig. 2b's Apply).
///
/// # Panics
///
/// Panics if any input or the addend differs in length from `out`, or
/// `weights` is given with a length other than `inputs.len()`.
pub fn scaled_sum(
    inputs: &[&[f32]],
    weights: Option<&[f32]>,
    factor: f32,
    tail: Tail<'_>,
    out: &mut [f32],
) {
    #[cfg(target_arch = "x86_64")]
    if simd::avx2_available() {
        simd::avx2::scaled_sum(inputs, weights, factor, tail, out);
        return;
    }
    simd::portable::scaled_sum(inputs, weights, factor, tail, out);
}

/// Row-major GEMV: `y = A x` where `A` is `m x n`.
///
/// # Panics
///
/// Panics on shape mismatch.
pub fn gemv(a: &[f32], m: usize, n: usize, x: &[f32], y: &mut [f32]) {
    assert_eq!(a.len(), m * n, "gemv matrix size mismatch");
    assert_eq!(x.len(), n, "gemv x size mismatch");
    assert_eq!(y.len(), m, "gemv y size mismatch");
    for (i, yi) in y.iter_mut().enumerate() {
        *yi = dot(&a[i * n..(i + 1) * n], x);
    }
}

/// Row-major transposed GEMV: `y = A^T x` where `A` is `m x n`.
///
/// # Panics
///
/// Panics on shape mismatch.
pub fn gemv_t(a: &[f32], m: usize, n: usize, x: &[f32], y: &mut [f32]) {
    assert_eq!(a.len(), m * n, "gemv_t matrix size mismatch");
    assert_eq!(x.len(), m, "gemv_t x size mismatch");
    assert_eq!(y.len(), n, "gemv_t y size mismatch");
    fill(0.0, y);
    for i in 0..m {
        let row = &a[i * n..(i + 1) * n];
        axpy(x[i], row, y);
    }
}

/// Row-major GEMM: `C = A B` where `A` is `m x k`, `B` is `k x n`.
///
/// Uses the ikj loop order for cache friendliness; adequate for the small
/// models in this workspace.
///
/// # Panics
///
/// Panics on shape mismatch.
pub fn gemm(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "gemm A size mismatch");
    assert_eq!(b.len(), k * n, "gemm B size mismatch");
    assert_eq!(c.len(), m * n, "gemm C size mismatch");
    fill(0.0, c);
    for i in 0..m {
        for p in 0..k {
            let aip = a[i * k + p];
            if aip == 0.0 {
                continue;
            }
            let b_row = &b[p * n..(p + 1) * n];
            let c_row = &mut c[i * n..(i + 1) * n];
            axpy(aip, b_row, c_row);
        }
    }
}

/// In-place ReLU, SIMD-dispatched.
///
/// Exactly the scalar `if x < 0 { 0 }` on every backend: `-0.0` and NaN
/// pass through unchanged (which rules out a `max(x, 0)` formulation —
/// `max(-0.0, 0.0)` would flip the sign bit).
pub fn relu(x: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if simd::avx2_available() {
        simd::avx2::relu(x);
        return;
    }
    simd::portable::relu(x);
}

/// Backward of ReLU: zeroes `grad` wherever the forward input was
/// non-positive. SIMD-dispatched, bit-identical to the scalar loop
/// (NaN forward inputs keep their gradient, matching `x <= 0.0` being
/// false for NaN).
///
/// # Panics
///
/// Panics if lengths mismatch.
pub fn relu_backward(forward_input: &[f32], grad: &mut [f32]) {
    assert_eq!(forward_input.len(), grad.len(), "relu_backward mismatch");
    #[cfg(target_arch = "x86_64")]
    if simd::avx2_available() {
        simd::avx2::relu_backward(forward_input, grad);
        return;
    }
    simd::portable::relu_backward(forward_input, grad);
}

/// Numerically stable in-place softmax over a single row.
pub fn softmax(x: &mut [f32]) {
    let max = x.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0;
    for xi in x.iter_mut() {
        *xi = (*xi - max).exp();
        sum += *xi;
    }
    for xi in x.iter_mut() {
        *xi /= sum;
    }
}

/// Index of the maximum element (first occurrence).
///
/// # Panics
///
/// Panics if `x` is empty.
pub fn argmax(x: &[f32]) -> usize {
    assert!(!x.is_empty(), "argmax of empty slice");
    let mut best = 0;
    for (i, &v) in x.iter().enumerate() {
        if v > x[best] {
            best = i;
        }
    }
    best
}

/// SIMD backends for the elementwise kernels.
///
/// Two implementations of each kernel live here:
///
/// * [`simd::portable`] — 8-lane manually unrolled code that compiles on
///   every target and that the autovectorizer can widen to whatever
///   vector ISA the build targets.
/// * [`simd::avx2`] (x86-64 only) — hand-written 256-bit intrinsics,
///   selected by the public dispatchers at runtime via
///   [`simd::avx2_available`].
///
/// Both backends compute every element with exactly the scalar
/// expression of [`mod@reference`]: multiply then add as
/// two separate rounding steps (never FMA, which fuses them and changes
/// the low bits), elements visited in ascending order. The dispatchers
/// are therefore bit-identical no matter which backend runs; the suite
/// in `tests/chunked_kernels.rs` pins each backend against the scalar
/// oracle independently.
pub mod simd {
    /// Lane width of the portable unrolled kernels (also the f32 lane
    /// count of a 256-bit AVX2 register).
    pub const LANES: usize = 8;

    use super::Tail;

    /// Whether the public kernels will take the AVX2 backend on this
    /// host. Always `false` off x86-64.
    #[inline]
    pub fn avx2_available() -> bool {
        #[cfg(target_arch = "x86_64")]
        {
            std::arch::is_x86_feature_detected!("avx2")
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            false
        }
    }

    /// The shape check every [`scaled_sum`](crate::ops::scaled_sum)
    /// backend runs first: all inputs and the addend as long as `out`,
    /// one weight per input. The AVX2 kernel's loads rely on it.
    fn check_scaled_sum(inputs: &[&[f32]], weights: Option<&[f32]>, tail: Tail<'_>, out: &[f32]) {
        for x in inputs.iter().chain(tail.iter().map(|(_, addend)| addend)) {
            assert_eq!(x.len(), out.len(), "scaled_sum length mismatch");
        }
        if let Some(w) = weights {
            assert_eq!(w.len(), inputs.len(), "inputs/weights mismatch");
        }
    }

    /// Input `j`'s contribution to one element of a
    /// [`scaled_sum`](crate::ops::scaled_sum): `w_j * x`, or `x` itself
    /// when unweighted.
    #[inline(always)]
    fn term<const WEIGHTED: bool>(weights: &[f32], j: usize, x: f32) -> f32 {
        if WEIGHTED {
            weights[j] * x
        } else {
            x
        }
    }

    /// The last step of scalar [`scaled_sum`](crate::ops::scaled_sum)
    /// element `i`: scale the sum, then add the tail's product.
    #[inline(always)]
    fn finish(acc: f32, factor: f32, tail: Tail<'_>, i: usize) -> f32 {
        match tail {
            Some((alpha, addend)) => acc * factor + alpha * addend[i],
            None => acc * factor,
        }
    }

    /// Portable 8-lane unrolled kernels — the fallback backend.
    pub mod portable {
        use super::{finish, term, Tail, LANES};

        /// One-sweep `out = (Σ w_j * x_j) * factor [+ tail]`, 8-lane unrolled
        /// (see [`scaled_sum`](crate::ops::scaled_sum)).
        ///
        /// # Panics
        ///
        /// Panics on a length mismatch.
        pub fn scaled_sum(
            inputs: &[&[f32]],
            weights: Option<&[f32]>,
            factor: f32,
            tail: Tail<'_>,
            out: &mut [f32],
        ) {
            super::check_scaled_sum(inputs, weights, tail, out);
            match weights {
                Some(w) => scaled_sum_impl::<true>(inputs, w, factor, tail, out),
                None => scaled_sum_impl::<false>(inputs, &[], factor, tail, out),
            }
        }

        fn scaled_sum_impl<const WEIGHTED: bool>(
            inputs: &[&[f32]],
            weights: &[f32],
            factor: f32,
            tail: Tail<'_>,
            out: &mut [f32],
        ) {
            let mut oc = out.chunks_exact_mut(LANES);
            let mut base = 0;
            for oo in oc.by_ref() {
                let mut acc = [0.0f32; LANES];
                for (j, x) in inputs.iter().enumerate() {
                    let xx = &x[base..base + LANES];
                    for l in 0..LANES {
                        acc[l] += term::<WEIGHTED>(weights, j, xx[l]);
                    }
                }
                for l in 0..LANES {
                    oo[l] = acc[l] * factor;
                }
                if let Some((alpha, addend)) = tail {
                    let aa = &addend[base..base + LANES];
                    for l in 0..LANES {
                        oo[l] += alpha * aa[l];
                    }
                }
                base += LANES;
            }
            for (i, oi) in oc.into_remainder().iter_mut().enumerate() {
                let mut acc = 0.0f32;
                for (j, x) in inputs.iter().enumerate() {
                    acc += term::<WEIGHTED>(weights, j, x[base + i]);
                }
                *oi = finish(acc, factor, tail, base + i);
            }
        }

        /// `y += alpha * x`, 8-lane unrolled.
        ///
        /// # Panics
        ///
        /// Panics if `x` and `y` have different lengths.
        pub fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
            assert_eq!(x.len(), y.len(), "axpy length mismatch");
            let mut yc = y.chunks_exact_mut(LANES);
            let mut xc = x.chunks_exact(LANES);
            for (yy, xx) in yc.by_ref().zip(xc.by_ref()) {
                for l in 0..LANES {
                    yy[l] += alpha * xx[l];
                }
            }
            for (yi, xi) in yc.into_remainder().iter_mut().zip(xc.remainder()) {
                *yi += alpha * xi;
            }
        }

        /// `y = alpha * x + beta * y`, 8-lane unrolled.
        ///
        /// # Panics
        ///
        /// Panics if `x` and `y` have different lengths.
        pub fn axpby(alpha: f32, x: &[f32], beta: f32, y: &mut [f32]) {
            assert_eq!(x.len(), y.len(), "axpby length mismatch");
            let mut yc = y.chunks_exact_mut(LANES);
            let mut xc = x.chunks_exact(LANES);
            for (yy, xx) in yc.by_ref().zip(xc.by_ref()) {
                for l in 0..LANES {
                    yy[l] = alpha * xx[l] + beta * yy[l];
                }
            }
            for (yi, xi) in yc.into_remainder().iter_mut().zip(xc.remainder()) {
                *yi = alpha * xi + beta * *yi;
            }
        }

        /// `x *= alpha`, 8-lane unrolled.
        pub fn scale(alpha: f32, x: &mut [f32]) {
            let mut xc = x.chunks_exact_mut(LANES);
            for xx in xc.by_ref() {
                for l in 0..LANES {
                    xx[l] *= alpha;
                }
            }
            for xi in xc.into_remainder() {
                *xi *= alpha;
            }
        }

        /// `x[i] = value`, 8-lane unrolled.
        pub fn fill(value: f32, x: &mut [f32]) {
            let mut xc = x.chunks_exact_mut(LANES);
            for xx in xc.by_ref() {
                for l in 0..LANES {
                    xx[l] = value;
                }
            }
            for xi in xc.into_remainder() {
                *xi = value;
            }
        }

        /// `out[i] = |x[i]|`, 8-lane unrolled.
        ///
        /// # Panics
        ///
        /// Panics if `x` and `out` have different lengths.
        pub fn abs_into(x: &[f32], out: &mut [f32]) {
            assert_eq!(x.len(), out.len(), "abs_into length mismatch");
            let mut oc = out.chunks_exact_mut(LANES);
            let mut xc = x.chunks_exact(LANES);
            for (oo, xx) in oc.by_ref().zip(xc.by_ref()) {
                for l in 0..LANES {
                    oo[l] = xx[l].abs();
                }
            }
            for (oi, xi) in oc.into_remainder().iter_mut().zip(xc.remainder()) {
                *oi = xi.abs();
            }
        }

        /// In-place ReLU, 8-lane unrolled (`-0.0` and NaN pass through).
        pub fn relu(x: &mut [f32]) {
            let mut xc = x.chunks_exact_mut(LANES);
            for xx in xc.by_ref() {
                for l in 0..LANES {
                    if xx[l] < 0.0 {
                        xx[l] = 0.0;
                    }
                }
            }
            for xi in xc.into_remainder() {
                if *xi < 0.0 {
                    *xi = 0.0;
                }
            }
        }

        /// ReLU backward, 8-lane unrolled.
        ///
        /// # Panics
        ///
        /// Panics if the lengths mismatch.
        pub fn relu_backward(forward_input: &[f32], grad: &mut [f32]) {
            assert_eq!(forward_input.len(), grad.len(), "relu_backward mismatch");
            let mut gc = grad.chunks_exact_mut(LANES);
            let mut xc = forward_input.chunks_exact(LANES);
            for (gg, xx) in gc.by_ref().zip(xc.by_ref()) {
                for l in 0..LANES {
                    if xx[l] <= 0.0 {
                        gg[l] = 0.0;
                    }
                }
            }
            for (gi, xi) in gc.into_remainder().iter_mut().zip(xc.remainder()) {
                if *xi <= 0.0 {
                    *gi = 0.0;
                }
            }
        }
    }

    /// Hand-written AVX2 kernels (256-bit, 8 × f32 per operation).
    ///
    /// Each vector lane evaluates the exact scalar expression — separate
    /// `_mm256_mul_ps` and `_mm256_add_ps`, never an FMA — so the result
    /// is bit-identical to [`portable`] and
    /// [`reference`](crate::ops::reference). The tail (< 8 elements) runs
    /// the scalar expression directly.
    #[cfg(target_arch = "x86_64")]
    pub mod avx2 {
        #![deny(unsafe_op_in_unsafe_fn)]

        use core::arch::x86_64::{
            _mm256_add_ps, _mm256_and_ps, _mm256_andnot_ps, _mm256_castsi256_ps, _mm256_cmp_ps,
            _mm256_loadu_ps, _mm256_mul_ps, _mm256_set1_epi32, _mm256_set1_ps, _mm256_setzero_ps,
            _mm256_storeu_ps, _CMP_LE_OQ, _CMP_LT_OQ,
        };

        use super::{finish, term, Tail, LANES};

        /// One-sweep `out = (Σ w_j * x_j) * factor [+ tail]` via 256-bit lanes
        /// (see [`scaled_sum`](crate::ops::scaled_sum)).
        ///
        /// # Panics
        ///
        /// Panics on a length mismatch or if the host lacks AVX2.
        pub fn scaled_sum(
            inputs: &[&[f32]],
            weights: Option<&[f32]>,
            factor: f32,
            tail: Tail<'_>,
            out: &mut [f32],
        ) {
            super::check_scaled_sum(inputs, weights, tail, out);
            assert!(super::avx2_available(), "host CPU lacks AVX2");
            // SAFETY: AVX2 support was just verified at runtime, and
            // `check_scaled_sum` established the kernels' precondition
            // (inputs and addend as long as `out`, one weight per input).
            unsafe {
                match weights {
                    Some(w) => scaled_sum_impl::<true>(inputs, w, factor, tail, out),
                    None => scaled_sum_impl::<false>(inputs, &[], factor, tail, out),
                }
            }
        }

        /// `y += alpha * x` via 256-bit lanes.
        ///
        /// # Panics
        ///
        /// Panics if the lengths mismatch or the host lacks AVX2.
        pub fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
            assert_eq!(x.len(), y.len(), "axpy length mismatch");
            assert!(super::avx2_available(), "host CPU lacks AVX2");
            // SAFETY: AVX2 support was just verified at runtime.
            unsafe { axpy_impl(alpha, x, y) }
        }

        /// `y = alpha * x + beta * y` via 256-bit lanes.
        ///
        /// # Panics
        ///
        /// Panics if the lengths mismatch or the host lacks AVX2.
        pub fn axpby(alpha: f32, x: &[f32], beta: f32, y: &mut [f32]) {
            assert_eq!(x.len(), y.len(), "axpby length mismatch");
            assert!(super::avx2_available(), "host CPU lacks AVX2");
            // SAFETY: AVX2 support was just verified at runtime.
            unsafe { axpby_impl(alpha, x, beta, y) }
        }

        /// `x *= alpha` via 256-bit lanes.
        ///
        /// # Panics
        ///
        /// Panics if the host lacks AVX2.
        pub fn scale(alpha: f32, x: &mut [f32]) {
            assert!(super::avx2_available(), "host CPU lacks AVX2");
            // SAFETY: AVX2 support was just verified at runtime.
            unsafe { scale_impl(alpha, x) }
        }

        /// `x[i] = value` via 256-bit lanes.
        ///
        /// # Panics
        ///
        /// Panics if the host lacks AVX2.
        pub fn fill(value: f32, x: &mut [f32]) {
            assert!(super::avx2_available(), "host CPU lacks AVX2");
            // SAFETY: AVX2 support was just verified at runtime.
            unsafe { fill_impl(value, x) }
        }

        /// `out[i] = |x[i]|` via 256-bit lanes (sign-bit AND — the exact
        /// bit operation of scalar `f32::abs`, including on NaN).
        ///
        /// # Panics
        ///
        /// Panics if the lengths mismatch or the host lacks AVX2.
        pub fn abs_into(x: &[f32], out: &mut [f32]) {
            assert_eq!(x.len(), out.len(), "abs_into length mismatch");
            assert!(super::avx2_available(), "host CPU lacks AVX2");
            // SAFETY: AVX2 support was just verified at runtime.
            unsafe { abs_into_impl(x, out) }
        }

        /// In-place ReLU via 256-bit lanes.
        ///
        /// # Panics
        ///
        /// Panics if the host lacks AVX2.
        pub fn relu(x: &mut [f32]) {
            assert!(super::avx2_available(), "host CPU lacks AVX2");
            // SAFETY: AVX2 support was just verified at runtime.
            unsafe { relu_impl(x) }
        }

        /// ReLU backward via 256-bit lanes.
        ///
        /// # Panics
        ///
        /// Panics if the lengths mismatch or the host lacks AVX2.
        pub fn relu_backward(forward_input: &[f32], grad: &mut [f32]) {
            assert_eq!(forward_input.len(), grad.len(), "relu_backward mismatch");
            assert!(super::avx2_available(), "host CPU lacks AVX2");
            // SAFETY: AVX2 support was just verified at runtime.
            unsafe { relu_backward_impl(forward_input, grad) }
        }

        /// # Safety
        ///
        /// Requires AVX2, `x.len() == out.len()` for every input `x` and the
        /// tail's addend, and (when `WEIGHTED`) `weights.len() == inputs.len()`.
        #[target_feature(enable = "avx2")]
        unsafe fn scaled_sum_impl<const WEIGHTED: bool>(
            inputs: &[&[f32]],
            weights: &[f32],
            factor: f32,
            tail: Tail<'_>,
            out: &mut [f32],
        ) {
            let n = out.len();
            let vf = _mm256_set1_ps(factor);
            let mut i = 0;
            // Two independent accumulator chains per pass hide the add
            // latency; each lane still sums its inputs left to right.
            while i + 2 * LANES <= n {
                let mut acc0 = _mm256_setzero_ps();
                let mut acc1 = _mm256_setzero_ps();
                for (j, x) in inputs.iter().enumerate() {
                    // SAFETY: `x.len() == n` (precondition) and
                    // `i + 2 * LANES <= n` bound both loads.
                    let (mut v0, mut v1) = unsafe {
                        (
                            _mm256_loadu_ps(x.as_ptr().add(i)),
                            _mm256_loadu_ps(x.as_ptr().add(i + LANES)),
                        )
                    };
                    if WEIGHTED {
                        // mul then add, two rounding steps (never FMA).
                        let vw = _mm256_set1_ps(weights[j]);
                        v0 = _mm256_mul_ps(vw, v0);
                        v1 = _mm256_mul_ps(vw, v1);
                    }
                    acc0 = _mm256_add_ps(acc0, v0);
                    acc1 = _mm256_add_ps(acc1, v1);
                }
                let (mut r0, mut r1) = (_mm256_mul_ps(acc0, vf), _mm256_mul_ps(acc1, vf));
                if let Some((alpha, addend)) = tail {
                    let va = _mm256_set1_ps(alpha);
                    // `r + alpha * a`, the product rounded first: `axpy`'s
                    // expression, operands in its order.
                    // SAFETY: `addend.len() == n` (precondition) and
                    // `i + 2 * LANES <= n` bound both loads.
                    unsafe {
                        let a = addend.as_ptr().add(i);
                        r0 = _mm256_add_ps(r0, _mm256_mul_ps(va, _mm256_loadu_ps(a)));
                        r1 = _mm256_add_ps(r1, _mm256_mul_ps(va, _mm256_loadu_ps(a.add(LANES))));
                    }
                }
                // SAFETY: `i + 2 * LANES <= n == out.len()` bounds both
                // stores.
                unsafe {
                    _mm256_storeu_ps(out.as_mut_ptr().add(i), r0);
                    _mm256_storeu_ps(out.as_mut_ptr().add(i + LANES), r1);
                }
                i += 2 * LANES;
            }
            while i < n {
                let mut acc = 0.0f32;
                for (j, x) in inputs.iter().enumerate() {
                    acc += term::<WEIGHTED>(weights, j, x[i]);
                }
                out[i] = finish(acc, factor, tail, i);
                i += 1;
            }
        }

        #[target_feature(enable = "avx2")]
        unsafe fn axpy_impl(alpha: f32, x: &[f32], y: &mut [f32]) {
            let n = x.len();
            let va = _mm256_set1_ps(alpha);
            let mut i = 0;
            while i + LANES <= n {
                // SAFETY: `i + LANES <= n` bounds both loads and the store.
                unsafe {
                    let vx = _mm256_loadu_ps(x.as_ptr().add(i));
                    let vy = _mm256_loadu_ps(y.as_ptr().add(i));
                    // mul then add, two rounding steps: matches scalar
                    // `y + alpha * x` bitwise (an FMA would not).
                    _mm256_storeu_ps(
                        y.as_mut_ptr().add(i),
                        _mm256_add_ps(vy, _mm256_mul_ps(va, vx)),
                    );
                }
                i += LANES;
            }
            while i < n {
                y[i] += alpha * x[i];
                i += 1;
            }
        }

        #[target_feature(enable = "avx2")]
        unsafe fn axpby_impl(alpha: f32, x: &[f32], beta: f32, y: &mut [f32]) {
            let n = x.len();
            let va = _mm256_set1_ps(alpha);
            let vb = _mm256_set1_ps(beta);
            let mut i = 0;
            while i + LANES <= n {
                // SAFETY: `i + LANES <= n` bounds both loads and the store.
                unsafe {
                    let vx = _mm256_loadu_ps(x.as_ptr().add(i));
                    let vy = _mm256_loadu_ps(y.as_ptr().add(i));
                    // alpha*x and beta*y each round once, then one add:
                    // the exact scalar evaluation order of `axpby`.
                    let r = _mm256_add_ps(_mm256_mul_ps(va, vx), _mm256_mul_ps(vb, vy));
                    _mm256_storeu_ps(y.as_mut_ptr().add(i), r);
                }
                i += LANES;
            }
            while i < n {
                y[i] = alpha * x[i] + beta * y[i];
                i += 1;
            }
        }

        #[target_feature(enable = "avx2")]
        unsafe fn scale_impl(alpha: f32, x: &mut [f32]) {
            let n = x.len();
            let va = _mm256_set1_ps(alpha);
            let mut i = 0;
            while i + LANES <= n {
                // SAFETY: `i + LANES <= n` bounds the load and the store.
                unsafe {
                    let vx = _mm256_loadu_ps(x.as_ptr().add(i));
                    _mm256_storeu_ps(x.as_mut_ptr().add(i), _mm256_mul_ps(vx, va));
                }
                i += LANES;
            }
            while i < n {
                x[i] *= alpha;
                i += 1;
            }
        }

        #[target_feature(enable = "avx2")]
        unsafe fn fill_impl(value: f32, x: &mut [f32]) {
            let n = x.len();
            let vv = _mm256_set1_ps(value);
            let mut i = 0;
            while i + LANES <= n {
                // SAFETY: `i + LANES <= n` bounds the store.
                unsafe {
                    _mm256_storeu_ps(x.as_mut_ptr().add(i), vv);
                }
                i += LANES;
            }
            while i < n {
                x[i] = value;
                i += 1;
            }
        }

        #[target_feature(enable = "avx2")]
        unsafe fn abs_into_impl(x: &[f32], out: &mut [f32]) {
            let n = x.len();
            // Clearing the sign bit is exactly what scalar `f32::abs`
            // does, for every input including NaN payloads.
            let mask = _mm256_castsi256_ps(_mm256_set1_epi32(0x7FFF_FFFF));
            let mut i = 0;
            while i + LANES <= n {
                // SAFETY: `i + LANES <= n` bounds the load and the store.
                unsafe {
                    let vx = _mm256_loadu_ps(x.as_ptr().add(i));
                    _mm256_storeu_ps(out.as_mut_ptr().add(i), _mm256_and_ps(vx, mask));
                }
                i += LANES;
            }
            while i < n {
                out[i] = x[i].abs();
                i += 1;
            }
        }

        #[target_feature(enable = "avx2")]
        unsafe fn relu_impl(x: &mut [f32]) {
            let n = x.len();
            let zero = _mm256_set1_ps(0.0);
            let mut i = 0;
            while i + LANES <= n {
                // SAFETY: `i + LANES <= n` bounds the load and the store.
                unsafe {
                    let vx = _mm256_loadu_ps(x.as_ptr().add(i));
                    // Mask of lanes with x < 0 (ordered: NaN compares
                    // false, so NaN lanes pass through — the scalar
                    // semantics). andnot zeroes exactly those lanes,
                    // leaving -0.0 and NaN untouched where a max() would
                    // not.
                    let neg = _mm256_cmp_ps::<_CMP_LT_OQ>(vx, zero);
                    _mm256_storeu_ps(x.as_mut_ptr().add(i), _mm256_andnot_ps(neg, vx));
                }
                i += LANES;
            }
            while i < n {
                if x[i] < 0.0 {
                    x[i] = 0.0;
                }
                i += 1;
            }
        }

        #[target_feature(enable = "avx2")]
        unsafe fn relu_backward_impl(forward_input: &[f32], grad: &mut [f32]) {
            let n = grad.len();
            let zero = _mm256_set1_ps(0.0);
            let mut i = 0;
            while i + LANES <= n {
                // SAFETY: `i + LANES <= n` bounds both loads and the store.
                unsafe {
                    let vx = _mm256_loadu_ps(forward_input.as_ptr().add(i));
                    let vg = _mm256_loadu_ps(grad.as_ptr().add(i));
                    // x <= 0 (ordered) selects the lanes to zero; NaN
                    // forward inputs compare false and keep their
                    // gradient, matching the scalar loop.
                    let dead = _mm256_cmp_ps::<_CMP_LE_OQ>(vx, zero);
                    _mm256_storeu_ps(grad.as_mut_ptr().add(i), _mm256_andnot_ps(dead, vg));
                }
                i += LANES;
            }
            while i < n {
                if forward_input[i] <= 0.0 {
                    grad[i] = 0.0;
                }
                i += 1;
            }
        }
    }
}

/// Naive scalar implementations of the vectorized kernels.
///
/// These are the bit-exactness oracles: the dispatched [`axpy`],
/// [`axpby`], [`scale`], [`mean_into`] and [`weighted_mean_into`] — and
/// both [`simd`] backends individually — must produce identical bits for
/// every input (see `tests/chunked_kernels.rs`). They are also the
/// "scalar" side of the `hot_path` benchmark.
pub mod reference {
    /// Scalar `y += alpha * x`.
    ///
    /// # Panics
    ///
    /// Panics if `x` and `y` have different lengths.
    pub fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
        assert_eq!(x.len(), y.len(), "axpy length mismatch");
        for (yi, xi) in y.iter_mut().zip(x) {
            *yi += alpha * xi;
        }
    }

    /// Scalar `y = alpha * x + beta * y`.
    ///
    /// # Panics
    ///
    /// Panics if `x` and `y` have different lengths.
    pub fn axpby(alpha: f32, x: &[f32], beta: f32, y: &mut [f32]) {
        assert_eq!(x.len(), y.len(), "axpby length mismatch");
        for (yi, xi) in y.iter_mut().zip(x) {
            *yi = alpha * xi + beta * *yi;
        }
    }

    /// Scalar `x *= alpha`.
    pub fn scale(alpha: f32, x: &mut [f32]) {
        for xi in x {
            *xi *= alpha;
        }
    }

    /// Scalar `x[i] = value`.
    pub fn fill(value: f32, x: &mut [f32]) {
        for xi in x {
            *xi = value;
        }
    }

    /// Scalar `out[i] = |x[i]|`.
    ///
    /// # Panics
    ///
    /// Panics if `x` and `out` have different lengths.
    pub fn abs_into(x: &[f32], out: &mut [f32]) {
        assert_eq!(x.len(), out.len(), "abs_into length mismatch");
        for (oi, xi) in out.iter_mut().zip(x) {
            *oi = xi.abs();
        }
    }

    /// Scalar in-place ReLU (`-0.0` and NaN pass through).
    pub fn relu(x: &mut [f32]) {
        for xi in x {
            if *xi < 0.0 {
                *xi = 0.0;
            }
        }
    }

    /// Scalar ReLU backward.
    ///
    /// # Panics
    ///
    /// Panics if the lengths mismatch.
    pub fn relu_backward(forward_input: &[f32], grad: &mut [f32]) {
        assert_eq!(forward_input.len(), grad.len(), "relu_backward mismatch");
        for (gi, &xi) in grad.iter_mut().zip(forward_input) {
            if xi <= 0.0 {
                *gi = 0.0;
            }
        }
    }

    /// Scalar elementwise mean of several equally sized slices.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` is empty or any input length differs from `out`.
    pub fn mean_into(inputs: &[&[f32]], out: &mut [f32]) {
        assert!(!inputs.is_empty(), "mean of zero slices");
        scaled_sum(inputs, None, 1.0 / inputs.len() as f32, out);
    }

    /// The composed Reduce the one-sweep [`scaled_sum`](super::scaled_sum)
    /// replaced: zero-fill, one scalar `axpy` per input (weight 1 when
    /// `weights` is `None`), one `scale` (and one more `axpy` for a tail).
    ///
    /// # Panics
    ///
    /// Panics on a length mismatch.
    pub fn scaled_sum(inputs: &[&[f32]], weights: Option<&[f32]>, factor: f32, out: &mut [f32]) {
        fill(0.0, out);
        for (j, input) in inputs.iter().enumerate() {
            axpy(weights.map_or(1.0, |w| w[j]), input, out);
        }
        scale(factor, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn axpy_works() {
        let x = [1.0, 2.0];
        let mut y = [10.0, 20.0];
        axpy(2.0, &x, &mut y);
        assert_eq!(y, [12.0, 24.0]);
    }

    #[test]
    fn axpby_works() {
        let x = [1.0, 2.0];
        let mut y = [10.0, 20.0];
        axpby(2.0, &x, 0.5, &mut y);
        assert_eq!(y, [7.0, 14.0]);
    }

    #[test]
    fn dot_and_norm() {
        assert_eq!(dot(&[3.0, 4.0], &[3.0, 4.0]), 25.0);
        assert_eq!(norm2(&[3.0, 4.0]), 5.0);
    }

    #[test]
    fn mean_into_averages() {
        let a = [1.0, 2.0];
        let b = [3.0, 6.0];
        let mut out = [0.0; 2];
        mean_into(&[&a, &b], &mut out);
        assert_eq!(out, [2.0, 4.0]);
    }

    #[test]
    fn weighted_mean_matches_eq2_shape() {
        // Two updates with weights 3 and 1: out = (3a + b)/4.
        let a = [4.0, 0.0];
        let b = [0.0, 4.0];
        let mut out = [0.0; 2];
        weighted_mean_into(&[&a, &b], &[3.0, 1.0], &mut out);
        assert_eq!(out, [3.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "weight sum must be positive")]
    fn weighted_mean_rejects_zero_weights() {
        let a = [1.0];
        let mut out = [0.0];
        weighted_mean_into(&[&a[..]], &[0.0], &mut out);
    }

    #[test]
    fn gemv_identity() {
        let a = [1.0, 0.0, 0.0, 1.0];
        let x = [5.0, 7.0];
        let mut y = [0.0; 2];
        gemv(&a, 2, 2, &x, &mut y);
        assert_eq!(y, x);
    }

    #[test]
    fn gemv_t_matches_manual() {
        // A = [[1,2],[3,4]] (2x2), x = [1,1] => A^T x = [4, 6]
        let a = [1.0, 2.0, 3.0, 4.0];
        let x = [1.0, 1.0];
        let mut y = [0.0; 2];
        gemv_t(&a, 2, 2, &x, &mut y);
        assert_eq!(y, [4.0, 6.0]);
    }

    #[test]
    fn gemm_small() {
        // A = [[1,2],[3,4]], B = [[5,6],[7,8]] => C = [[19,22],[43,50]]
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [5.0, 6.0, 7.0, 8.0];
        let mut c = [0.0; 4];
        gemm(&a, &b, &mut c, 2, 2, 2);
        assert_eq!(c, [19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn gemm_rectangular() {
        // A (1x3) * B (3x2)
        let a = [1.0, 2.0, 3.0];
        let b = [1.0, 0.0, 0.0, 1.0, 1.0, 1.0];
        let mut c = [0.0; 2];
        gemm(&a, &b, &mut c, 1, 3, 2);
        assert_eq!(c, [4.0, 5.0]);
    }

    #[test]
    fn relu_and_backward() {
        let input = [-1.0, 0.0, 2.0];
        let mut x = input;
        relu(&mut x);
        assert_eq!(x, [0.0, 0.0, 2.0]);
        let mut g = [1.0, 1.0, 1.0];
        relu_backward(&input, &mut g);
        assert_eq!(g, [0.0, 0.0, 1.0]);
    }

    #[test]
    fn softmax_sums_to_one_and_is_stable() {
        let mut x = [1000.0, 1001.0, 1002.0];
        softmax(&mut x);
        let sum: f32 = x.iter().sum();
        assert!((sum - 1.0).abs() < 1e-5);
        assert!(x[2] > x[1] && x[1] > x[0]);
    }

    #[test]
    fn argmax_first_max() {
        assert_eq!(argmax(&[1.0, 3.0, 3.0, 2.0]), 1);
    }
}
