//! Fused SIMD kernels of the int8 stream step.
//!
//! An int8 encode is two sweeps over the block, whichever stream it
//! serves:
//!
//! 1. [`max_abs_sum`] — `max_i |x[i] + alpha * r[i]|`, the compensated
//!    value's magnitude, without materialising it. `r` is the stream's
//!    state: the error-feedback residual (`alpha = 1`) or the receivers'
//!    reference copy (`alpha = -1`).
//! 2. [`quantize_feedback`] / [`quantize_advance`] — recompute the
//!    compensated value, quantize it, write the `i8`, and refresh the
//!    stream state in the same pass: the residual keeps the rounding
//!    error in place; a parameter stream's *next* reference (which is
//!    also the reconstruction shipped to every receiver) is written out
//!    of place from the old one.
//!
//! Like [`crate::ops::simd`], every kernel exists twice — [`portable`]
//! (8-lane unrolled, safe, what runs off x86-64) and [`avx2`] (256-bit
//! intrinsics behind the runtime check) — and both evaluate, lane by
//! lane, the scalar expressions of the composed sequence they replaced,
//! which survives as the oracle in [`super::reference`]. Three places
//! where the obvious vector instruction is *not* the scalar semantics:
//!
//! * **The maximum skips NaN.** `fold(0.0, f32::max)` ignores NaN
//!   operands; `_mm256_max_ps(v, acc)` returns its *second* operand when
//!   either is NaN, so the candidate goes first and the (never-NaN)
//!   accumulator second. A maximum is exact under any association, which
//!   is why this one reduction may be vectorised while sums
//!   ([`crate::ops::dot`]) may not.
//! * **NaN quantizes to 0.** `f32::clamp` propagates NaN and
//!   `NaN as i8 == 0`, but `_mm256_cvtps_epi32(NaN)` is `i32::MIN`. The
//!   kernel clamps with NaN-discarding min/max and then clears unordered
//!   lanes to `+0.0` before converting.
//! * **Adding zero is not a no-op.** `-0.0 + 0.0 == +0.0`, so neither
//!   kernel drops an add just because an operand is zero — with one
//!   exception that is argued, not assumed: the composed encode passed a
//!   parameter stream's delta through a zero-residual add, which can
//!   only turn a `-0.0` delta into `+0.0`. Both quantize to `0` and the
//!   delta reaches nothing else in [`quantize_advance`] (the reference
//!   advances by the *dequantized* value), so that add is omitted there.
//!   The top-k step ships the delta itself and keeps it.
//!
//! `_mm256_div_ps` and `_mm256_round_ps` (nearest-even) are exact
//! matches for `/` and `f32::round_ties_even`; multiply-then-add stays
//! two roundings, never an FMA. The composed sequence's `axpy(±1.0, …)`
//! steps appear here as plain `+` / `-`: multiplying by ±1 is exact, and
//! `a - b` is `a + (-b)` bit for bit. NaN *payloads* are outside the
//! contract: Rust does not specify which NaN an arithmetic result
//! carries, and no non-NaN output of a codec depends on one.

use crate::ops::simd::avx2_available;

/// `max_i |x[i] + alpha * r[i]|` over the non-NaN values, at least `0.0`
/// (so `0.0` for an empty or all-NaN block). SIMD-dispatched.
///
/// # Panics
///
/// Panics if `r` and `x` have different lengths.
pub fn max_abs_sum(alpha: f32, r: &[f32], x: &[f32]) -> f32 {
    #[cfg(target_arch = "x86_64")]
    if avx2_available() {
        return avx2::max_abs_sum(alpha, r, x);
    }
    portable::max_abs_sum(alpha, r, x)
}

/// The error-feedback quantize sweep: with `w = x[i] + residual[i]`,
/// writes `q[i] = quantize(w)` and `residual[i] = w - q[i] * scale`.
/// SIMD-dispatched.
///
/// # Panics
///
/// Panics if the three slices have different lengths.
pub fn quantize_feedback(x: &[f32], scale: f32, residual: &mut [f32], q: &mut [i8]) {
    #[cfg(target_arch = "x86_64")]
    if avx2_available() {
        avx2::quantize_feedback(x, scale, residual, q);
        return;
    }
    portable::quantize_feedback(x, scale, residual, q);
}

/// The parameter-stream quantize sweep: with `w = x[i] - old[i]`, writes
/// `q[i] = quantize(w)` and `new[i] = old[i] + q[i] * scale`.
/// SIMD-dispatched.
///
/// # Panics
///
/// Panics if the four slices have different lengths.
pub fn quantize_advance(x: &[f32], scale: f32, old: &[f32], new: &mut [f32], q: &mut [i8]) {
    #[cfg(target_arch = "x86_64")]
    if avx2_available() {
        avx2::quantize_advance(x, scale, old, new, q);
        return;
    }
    portable::quantize_advance(x, scale, old, new, q);
}

/// One entry of the int8 quantizer: `w / scale` rounded half to even and
/// clamped to `±127`; `0` when the block's scale is zero, and for NaN.
#[inline(always)]
fn quantize(w: f32, scale: f32) -> i8 {
    if scale > 0.0 {
        (w / scale).round_ties_even().clamp(-127.0, 127.0) as i8
    } else {
        0
    }
}

/// One entry of [`quantize_feedback`]: `(q, new residual)`.
#[inline(always)]
fn feedback_entry(x: f32, residual: f32, scale: f32) -> (i8, f32) {
    let w = x + residual;
    let q = quantize(w, scale);
    (q, w - q as f32 * scale)
}

/// One entry of [`quantize_advance`]: `(q, new reference)`.
#[inline(always)]
fn advance_entry(x: f32, old: f32, scale: f32) -> (i8, f32) {
    let q = quantize(x - old, scale);
    (q, old + q as f32 * scale)
}

/// Portable 8-lane unrolled kernels — the fallback backend.
pub mod portable {
    use super::{advance_entry, feedback_entry};
    use crate::ops::simd::LANES;

    /// [`max_abs_sum`](super::max_abs_sum), 8 independent lane maxima.
    ///
    /// # Panics
    ///
    /// Panics if `r` and `x` have different lengths.
    pub fn max_abs_sum(alpha: f32, r: &[f32], x: &[f32]) -> f32 {
        assert_eq!(r.len(), x.len(), "max_abs_sum length mismatch");
        let mut lanes = [0.0f32; LANES];
        let mut xc = x.chunks_exact(LANES);
        let mut rc = r.chunks_exact(LANES);
        for (xx, rr) in xc.by_ref().zip(rc.by_ref()) {
            for l in 0..LANES {
                // `f32::max` ignores a NaN argument; the lane itself
                // starts at 0.0 and so never becomes one.
                lanes[l] = lanes[l].max((xx[l] + alpha * rr[l]).abs());
            }
        }
        let mut max = lanes.iter().copied().fold(0.0f32, f32::max);
        for (xi, ri) in xc.remainder().iter().zip(rc.remainder()) {
            max = max.max((xi + alpha * ri).abs());
        }
        max
    }

    /// [`quantize_feedback`](super::quantize_feedback), 8-lane unrolled.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths.
    pub fn quantize_feedback(x: &[f32], scale: f32, residual: &mut [f32], q: &mut [i8]) {
        assert_eq!(x.len(), residual.len(), "quantize_feedback length mismatch");
        assert_eq!(x.len(), q.len(), "quantize_feedback length mismatch");
        let mut xc = x.chunks_exact(LANES);
        let mut rc = residual.chunks_exact_mut(LANES);
        let mut qc = q.chunks_exact_mut(LANES);
        for ((xx, rr), qq) in xc.by_ref().zip(rc.by_ref()).zip(qc.by_ref()) {
            for l in 0..LANES {
                (qq[l], rr[l]) = feedback_entry(xx[l], rr[l], scale);
            }
        }
        let tail = xc.remainder().iter().zip(rc.into_remainder());
        for ((&xi, ri), qi) in tail.zip(qc.into_remainder()) {
            (*qi, *ri) = feedback_entry(xi, *ri, scale);
        }
    }

    /// [`quantize_advance`](super::quantize_advance), 8-lane unrolled.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths.
    pub fn quantize_advance(x: &[f32], scale: f32, old: &[f32], new: &mut [f32], q: &mut [i8]) {
        assert_eq!(x.len(), old.len(), "quantize_advance length mismatch");
        assert_eq!(x.len(), new.len(), "quantize_advance length mismatch");
        assert_eq!(x.len(), q.len(), "quantize_advance length mismatch");
        let mut xc = x.chunks_exact(LANES);
        let mut oc = old.chunks_exact(LANES);
        let mut nc = new.chunks_exact_mut(LANES);
        let mut qc = q.chunks_exact_mut(LANES);
        for (((xx, oo), nn), qq) in xc
            .by_ref()
            .zip(oc.by_ref())
            .zip(nc.by_ref())
            .zip(qc.by_ref())
        {
            for l in 0..LANES {
                (qq[l], nn[l]) = advance_entry(xx[l], oo[l], scale);
            }
        }
        let tail = xc.remainder().iter().zip(oc.remainder());
        for (((&xi, &oi), ni), qi) in tail.zip(nc.into_remainder()).zip(qc.into_remainder()) {
            (*qi, *ni) = advance_entry(xi, oi, scale);
        }
    }
}

/// Hand-written AVX2 kernels (256-bit, 8 × f32 per operation); the tail
/// (< 8 elements) and zero-scale blocks run the scalar expressions.
#[cfg(target_arch = "x86_64")]
pub mod avx2 {
    #![deny(unsafe_op_in_unsafe_fn)]

    use core::arch::x86_64::{
        __m128i, _mm256_add_ps, _mm256_and_ps, _mm256_castsi256_ps, _mm256_castsi256_si128,
        _mm256_cmp_ps, _mm256_cvtepi32_ps, _mm256_cvtps_epi32, _mm256_div_ps,
        _mm256_extracti128_si256, _mm256_loadu_ps, _mm256_max_ps, _mm256_min_ps, _mm256_mul_ps,
        _mm256_round_ps, _mm256_set1_epi32, _mm256_set1_ps, _mm256_setr_epi8, _mm256_setzero_ps,
        _mm256_shuffle_epi8, _mm256_storeu_ps, _mm256_sub_ps, _mm_storel_epi64, _mm_unpacklo_epi32,
        _CMP_ORD_Q, _MM_FROUND_NO_EXC, _MM_FROUND_TO_NEAREST_INT,
    };

    use super::{advance_entry, avx2_available, feedback_entry};
    use crate::ops::simd::LANES;

    /// [`max_abs_sum`](super::max_abs_sum) via 256-bit lanes.
    ///
    /// # Panics
    ///
    /// Panics if the lengths mismatch or the host lacks AVX2.
    pub fn max_abs_sum(alpha: f32, r: &[f32], x: &[f32]) -> f32 {
        assert_eq!(r.len(), x.len(), "max_abs_sum length mismatch");
        assert!(avx2_available(), "host CPU lacks AVX2");
        // SAFETY: AVX2 support was just verified at runtime, and the
        // kernel's precondition `r.len() == x.len()` was just asserted.
        unsafe { max_abs_sum_impl(alpha, r, x) }
    }

    /// [`quantize_feedback`](super::quantize_feedback) via 256-bit lanes.
    ///
    /// # Panics
    ///
    /// Panics if the lengths mismatch or the host lacks AVX2.
    pub fn quantize_feedback(x: &[f32], scale: f32, residual: &mut [f32], q: &mut [i8]) {
        assert_eq!(x.len(), residual.len(), "quantize_feedback length mismatch");
        assert_eq!(x.len(), q.len(), "quantize_feedback length mismatch");
        assert!(avx2_available(), "host CPU lacks AVX2");
        if scale > 0.0 {
            let (state, n) = (residual.as_mut_ptr(), x.len());
            // SAFETY: AVX2 support was just verified at runtime; `x`,
            // `residual` and `q` are live slices of `n` elements each
            // (asserted above), and the state is updated in place:
            // `state_in == state_out`, the aliasing the kernel allows.
            unsafe { quantize_impl::<false>(x.as_ptr(), state, state, q.as_mut_ptr(), n, scale) }
        } else {
            super::portable::quantize_feedback(x, scale, residual, q);
        }
    }

    /// [`quantize_advance`](super::quantize_advance) via 256-bit lanes.
    ///
    /// # Panics
    ///
    /// Panics if the lengths mismatch or the host lacks AVX2.
    pub fn quantize_advance(x: &[f32], scale: f32, old: &[f32], new: &mut [f32], q: &mut [i8]) {
        assert_eq!(x.len(), old.len(), "quantize_advance length mismatch");
        assert_eq!(x.len(), new.len(), "quantize_advance length mismatch");
        assert_eq!(x.len(), q.len(), "quantize_advance length mismatch");
        assert!(avx2_available(), "host CPU lacks AVX2");
        if scale > 0.0 {
            let n = x.len();
            // SAFETY: AVX2 support was just verified at runtime; `x`,
            // `old`, `new` and `q` are live slices of `n` elements each
            // (asserted above), and `new` is a `&mut` borrow, so it is
            // disjoint from `old`.
            unsafe {
                quantize_impl::<true>(
                    x.as_ptr(),
                    old.as_ptr(),
                    new.as_mut_ptr(),
                    q.as_mut_ptr(),
                    n,
                    scale,
                );
            }
        } else {
            super::portable::quantize_advance(x, scale, old, new, q);
        }
    }

    /// # Safety
    ///
    /// Requires AVX2 and `r.len() == x.len()`.
    #[target_feature(enable = "avx2")]
    unsafe fn max_abs_sum_impl(alpha: f32, r: &[f32], x: &[f32]) -> f32 {
        let n = x.len();
        let va = _mm256_set1_ps(alpha);
        let abs_mask = _mm256_castsi256_ps(_mm256_set1_epi32(0x7FFF_FFFF));
        // Four accumulators: the max chain is latency-bound otherwise.
        // Any grouping of a maximum gives the same value.
        let mut acc = [_mm256_setzero_ps(); 4];
        let mut i = 0;
        while i + 4 * LANES <= n {
            for (u, a) in acc.iter_mut().enumerate() {
                // SAFETY: `u < 4` and `i + 4 * LANES <= n` (the length of
                // both slices) bound the two loads.
                let (vx, vr) = unsafe {
                    (
                        _mm256_loadu_ps(x.as_ptr().add(i + u * LANES)),
                        _mm256_loadu_ps(r.as_ptr().add(i + u * LANES)),
                    )
                };
                let w = _mm256_add_ps(vx, _mm256_mul_ps(va, vr));
                // Candidate first: a NaN candidate yields the second
                // operand, i.e. is skipped, as `f32::max` does.
                *a = _mm256_max_ps(_mm256_and_ps(w, abs_mask), *a);
            }
            i += 4 * LANES;
        }
        while i + LANES <= n {
            // SAFETY: `i + LANES <= n` bounds the two loads.
            let (vx, vr) = unsafe {
                (
                    _mm256_loadu_ps(x.as_ptr().add(i)),
                    _mm256_loadu_ps(r.as_ptr().add(i)),
                )
            };
            let w = _mm256_add_ps(vx, _mm256_mul_ps(va, vr));
            acc[0] = _mm256_max_ps(_mm256_and_ps(w, abs_mask), acc[0]);
            i += LANES;
        }
        let mut lanes = [0.0f32; 4 * LANES];
        for (u, a) in acc.iter().enumerate() {
            // SAFETY: `u < 4`, so the 8-float store ends inside `lanes`.
            unsafe { _mm256_storeu_ps(lanes.as_mut_ptr().add(u * LANES), *a) };
        }
        let mut max = lanes.iter().copied().fold(0.0f32, f32::max);
        while i < n {
            max = max.max((x[i] + alpha * r[i]).abs());
            i += 1;
        }
        max
    }

    /// The quantize sweep for `scale > 0`. `ADVANCE` selects the stream
    /// flavour: `false` is [`feedback_entry`] (state = residual), `true`
    /// is [`advance_entry`] (state = reference).
    ///
    /// # Safety
    ///
    /// Requires AVX2. `x` and `state_in` must be valid for reads of `n`
    /// floats, `state_out` for writes of `n` floats and `q` for writes of
    /// `n` bytes. `state_out` may equal `state_in` (element `i` is read
    /// before it is written) and must otherwise not overlap any input.
    #[target_feature(enable = "avx2")]
    unsafe fn quantize_impl<const ADVANCE: bool>(
        x: *const f32,
        state_in: *const f32,
        state_out: *mut f32,
        q: *mut i8,
        n: usize,
        scale: f32,
    ) {
        let vscale = _mm256_set1_ps(scale);
        let vmax = _mm256_set1_ps(127.0);
        let vmin = _mm256_set1_ps(-127.0);
        // Per 128-bit half: the low byte of each of its four i32s.
        #[rustfmt::skip]
        let low_bytes = _mm256_setr_epi8(
            0, 4, 8, 12, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
            0, 4, 8, 12, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
        );
        let mut i = 0;
        while i + LANES <= n {
            // SAFETY: `i + LANES <= n` bounds the two 8-float loads, the
            // 8-float store and the 8-byte store below; when the state is
            // updated in place its lanes were loaded before the store.
            unsafe {
                let vx = _mm256_loadu_ps(x.add(i));
                let vs = _mm256_loadu_ps(state_in.add(i));
                let w = if ADVANCE {
                    _mm256_sub_ps(vx, vs)
                } else {
                    _mm256_add_ps(vx, vs)
                };
                let rounded = _mm256_round_ps::<{ _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC }>(
                    _mm256_div_ps(w, vscale),
                );
                // min/max drop a NaN first operand, so the clamp itself
                // cannot propagate it; unordered lanes are then cleared
                // to +0.0, the `NaN as i8 == 0` of the scalar cast.
                let clamped = _mm256_min_ps(_mm256_max_ps(rounded, vmin), vmax);
                let ordered = _mm256_cmp_ps::<_CMP_ORD_Q>(rounded, rounded);
                let qi = _mm256_cvtps_epi32(_mm256_and_ps(clamped, ordered));
                let dequantized = _mm256_mul_ps(_mm256_cvtepi32_ps(qi), vscale);
                let state = if ADVANCE {
                    _mm256_add_ps(vs, dequantized)
                } else {
                    _mm256_sub_ps(w, dequantized)
                };
                _mm256_storeu_ps(state_out.add(i), state);
                // |q| <= 127, so the low byte of each i32 is the i8.
                let bytes = _mm256_shuffle_epi8(qi, low_bytes);
                let packed = _mm_unpacklo_epi32(
                    _mm256_castsi256_si128(bytes),
                    _mm256_extracti128_si256::<1>(bytes),
                );
                _mm_storel_epi64(q.add(i).cast::<__m128i>(), packed);
            }
            i += LANES;
        }
        while i < n {
            // SAFETY: `i < n` bounds the two reads and the two writes.
            unsafe {
                let (qv, state) = if ADVANCE {
                    advance_entry(*x.add(i), *state_in.add(i), scale)
                } else {
                    feedback_entry(*x.add(i), *state_in.add(i), scale)
                };
                *q.add(i) = qv;
                *state_out.add(i) = state;
            }
            i += 1;
        }
    }
}
