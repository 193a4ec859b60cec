//! Flat-slice numeric kernels.
//!
//! These free functions operate on `&[f32]`/`&mut [f32]` so that model code
//! can apply them directly to slices of a worker's flat parameter vector
//! without copying into tensor objects.
//!
//! The elementwise vector kernels ([`axpy`], [`axpby`], [`scale`],
//! [`fill`], [`relu`], [`relu_backward`]) and the Reduce sweep
//! [`scaled_sum`] behind [`mean_into`] are each written once, over eight
//! lanes (see [`simd`]), and run on the widest [`Backend`] the host has:
//! `__m256` under AVX2 on capable x86-64, `[f32; 8]` elsewhere. Every
//! element is still computed by exactly the scalar expression of the
//! [`mod@reference`] oracle — multiply then add as two separate rounding
//! steps, never fused — in the same order as the naive loop, so results
//! are *bit-identical* to it on every backend: vectorization is a speed,
//! not a semantics, change (tested per backend in
//! `tests/chunked_kernels.rs`).
//!
//! The Reduce kernels are one sweep: each output element is accumulated
//! in a register across the inputs — `0.0`, then `+ w_j * x_j[i]` in
//! input order, then `* 1/Σw` — which is the per-element order of the
//! composed `fill` + n × `axpy` + `scale` they replace (still the
//! [`reference::scaled_sum`] oracle), without its n + 2 passes over the
//! destination. The destination is written, never read, so callers hand
//! it a buffer that was not zeroed first. A parallel-order Reduce ends
//! with the SGD step in the same sweep ([`SgdStep`]): the velocity's
//! advance and the Apply, each element's expressions those of the
//! separate velocity pass and `axpy(-lr, v)` it replaces, so an
//! iteration makes one full-length pass over its vectors, not three.
//!
//! The reductions ([`dot`] and the per-row dots inside [`gemv`])
//! deliberately stay scalar-sequential: a vectorized reduction
//! reassociates the floating-point sum, and those results feed the
//! experiment digests. Only a *maximum* may be vectorised as a reduction
//! — it is exact under any association — which is what the int8 codec's
//! `max|v|` scan in [`crate::compress::kernels`] does, and what a
//! [`scaled_sum`] given a reference measures on the way: the int8 scale
//! of the parameter-stream step that follows the Reduce. [`gemv_t`]
//! composes [`axpy`], so it rides the SIMD backends for free without
//! changing any accumulation order.

pub mod simd;

use crate::sweep::MaxBits;
use simd::{on_backend, Backend, Lanes, LANES};

/// `y += alpha * x` (AXPY), SIMD-dispatched.
///
/// # Panics
///
/// Panics if `x` and `y` have different lengths.
pub fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
    Backend::host().axpy(alpha, x, y);
}

/// `y = alpha * x + beta * y`, SIMD-dispatched.
///
/// # Panics
///
/// Panics if `x` and `y` have different lengths.
pub fn axpby(alpha: f32, x: &[f32], beta: f32, y: &mut [f32]) {
    Backend::host().axpby(alpha, x, beta, y);
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
    Backend::host().scale(alpha, x);
}

/// Fills a slice with a constant, SIMD-dispatched.
pub fn fill(value: f32, x: &mut [f32]) {
    Backend::host().fill(value, x);
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
    scaled_sum(inputs, None, 1.0 / inputs.len() as f32, None, None, out);
}

/// The SGD-with-momentum step a [`scaled_sum`] ends with: Fig. 2(b)'s
/// Apply, where the step taken at `params` lands on the reduced
/// parameters. Per element, the velocity advances,
/// `v = (momentum * v + grad) + weight_decay * params`, and the sweep's
/// output becomes `out + (-lr) * v`; each product and each sum is
/// rounded on its own, in that order, as the scalar optimizer step
/// rounds them.
#[derive(Debug)]
pub struct SgdStep<'a> {
    /// Learning rate.
    pub lr: f32,
    /// Momentum factor.
    pub momentum: f32,
    /// L2 weight decay.
    pub weight_decay: f32,
    /// The gradient.
    pub grad: &'a [f32],
    /// The parameters the gradient was taken at.
    pub params: &'a [f32],
    /// The momentum velocity, advanced in place.
    pub velocity: &'a mut [f32],
}

/// An [`SgdStep`]'s read-only half: what every chunk of a split sweep
/// shares (the velocity is cut with the output).
#[derive(Clone, Copy)]
struct StepTerms<'a> {
    neg_lr: f32,
    momentum: f32,
    weight_decay: f32,
    grad: &'a [f32],
    params: &'a [f32],
}

impl<'a> SgdStep<'a> {
    fn into_parts(self) -> (StepTerms<'a>, &'a mut [f32]) {
        let terms = StepTerms {
            neg_lr: -self.lr,
            momentum: self.momentum,
            weight_decay: self.weight_decay,
            grad: self.grad,
            params: self.params,
        };
        (terms, self.velocity)
    }
}

/// `out[i] = (0.0 + w_0 * x_0[i] + w_1 * x_1[i] + …) * factor` in one
/// sweep, SIMD-dispatched; `weights: None` means every `w_j` is 1 (and
/// the exact `1.0 * x` is skipped). The sum runs left to right per
/// element, each product and each addition rounded on its own. A `step`
/// then advances its velocity and adds `(-lr) * v[i]` ([`SgdStep`]), bit
/// for bit the velocity pass and the `axpy(-lr, v, out)` pass it saves.
/// With `weights` and `factor = 1 / Σw` this is the bounded-staleness
/// Reduce of Eq. (2).
///
/// Given a `reference`, the sweep also returns the int8 scale input of
/// the parameter-stream step that will encode `out` against it:
/// `max_i |out[i] + (-1) * reference[i]|` over the non-NaN values, at
/// least `0.0` — the bits [`crate::compress::kernels::max_abs_sum`]`(-1.0,
/// reference, out)` returns, measured while `out` is in registers
/// instead of in a second sweep. Without one it returns `None`.
///
/// A long sweep is shared in chunks with a helper thread when a
/// [`crate::sweep::Board`] is installed on this thread; each element is
/// computed by the same expressions either way, and the chunks' maxima
/// combine exactly.
///
/// # Panics
///
/// Panics if any input, any of the step's vectors or the reference
/// differs in length from `out`, or `weights` is given with a length
/// other than `inputs.len()`.
pub fn scaled_sum(
    inputs: &[&[f32]],
    weights: Option<&[f32]>,
    factor: f32,
    step: Option<SgdStep<'_>>,
    reference: Option<&[f32]>,
    out: &mut [f32],
) -> Option<f32> {
    check_scaled_sum(inputs, weights, step.as_ref(), reference, out.len());
    let (backend, max) = (Backend::host(), MaxBits::new());
    let (terms, velocity) = step.map(SgdStep::into_parts).unzip();
    crate::sweep::split(out.len(), (out, velocity), |range, (out, velocity)| {
        let step = terms.zip(velocity);
        max.fold(on_backend!(
            backend,
            scaled_sum_body(inputs, weights, factor, step, reference, range.start, out)
        ));
    });
    reference.map(|_| max.get())
}

/// [`scaled_sum`]'s shape checks, for an output of `len` elements.
fn check_scaled_sum(
    inputs: &[&[f32]],
    weights: Option<&[f32]>,
    step: Option<&SgdStep<'_>>,
    reference: Option<&[f32]>,
    len: usize,
) {
    let step = step
        .into_iter()
        .flat_map(|s| [s.grad, s.params, &*s.velocity]);
    for x in inputs.iter().copied().chain(step).chain(reference) {
        assert_eq!(x.len(), len, "scaled_sum length mismatch");
    }
    if let Some(w) = weights {
        assert_eq!(w.len(), inputs.len(), "inputs/weights mismatch");
    }
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

/// In-place ReLU, SIMD-dispatched.
///
/// Exactly the scalar `if x < 0 { 0 }` on every backend: `-0.0` and NaN
/// pass through unchanged (which rules out a `max(x, 0)` formulation —
/// `max(-0.0, 0.0)` would flip the sign bit).
pub fn relu(x: &mut [f32]) {
    Backend::host().relu(x);
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
    Backend::host().relu_backward(forward_input, grad);
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

/// The dispatched kernels on an explicit backend: the shape checks, then
/// the kernel's one body on this backend's lanes. Each panics as its free
/// function does.
impl Backend {
    /// [`scaled_sum`] on this backend.
    pub fn scaled_sum(
        self,
        inputs: &[&[f32]],
        weights: Option<&[f32]>,
        factor: f32,
        step: Option<SgdStep<'_>>,
        reference: Option<&[f32]>,
        out: &mut [f32],
    ) -> Option<f32> {
        check_scaled_sum(inputs, weights, step.as_ref(), reference, out.len());
        let step = step.map(SgdStep::into_parts);
        let max = on_backend!(
            self,
            scaled_sum_body(inputs, weights, factor, step, reference, 0, out)
        );
        reference.map(|_| max)
    }

    /// [`axpy`] on this backend.
    pub fn axpy(self, alpha: f32, x: &[f32], y: &mut [f32]) {
        assert_eq!(x.len(), y.len(), "axpy length mismatch");
        on_backend!(self, axpy_body(alpha, x, y));
    }

    /// [`axpby`] on this backend.
    pub fn axpby(self, alpha: f32, x: &[f32], beta: f32, y: &mut [f32]) {
        assert_eq!(x.len(), y.len(), "axpby length mismatch");
        on_backend!(self, axpby_body(alpha, x, beta, y));
    }

    /// [`scale`] on this backend.
    pub fn scale(self, alpha: f32, x: &mut [f32]) {
        on_backend!(self, scale_body(alpha, x));
    }

    /// [`fill`] on this backend.
    pub fn fill(self, value: f32, x: &mut [f32]) {
        on_backend!(self, fill_body(value, x));
    }

    /// [`relu`] on this backend.
    pub fn relu(self, x: &mut [f32]) {
        on_backend!(self, relu_body(x));
    }

    /// [`relu_backward`] on this backend.
    pub fn relu_backward(self, forward_input: &[f32], grad: &mut [f32]) {
        assert_eq!(forward_input.len(), grad.len(), "relu_backward mismatch");
        on_backend!(self, relu_backward_body(forward_input, grad));
    }
}

/// [`scaled_sum`] on `V`, writing `out[i]` (and a step's `velocity[i]`)
/// from element `base + i` of the inputs, the gradient, the parameters
/// and the reference (`base` is where a split sweep's chunk starts).
/// Each lane starts at `0.0` and adds its inputs left to right (`w_j *
/// x_j` rounded before the add), then `* factor`; a step then computes
/// `(momentum * v + grad) + weight_decay * params` into the velocity and
/// adds `(-lr) * v`, every product rounded first: the scalar tail's
/// expressions, which are the composed reference's per-element order.
/// Four accumulator chains per group hide the add latency without
/// reordering any lane's sum, and cost one bounds check per input per 32
/// elements.
///
/// With a reference, returns the maximum of `|out - reference|` — bit
/// for bit `max_abs_sum_body`'s `|out + (-1) * reference|`, as negation
/// is exact — formed as that body forms it (the candidate the first
/// operand of every `max`, so NaN is skipped, and four accumulators from
/// `0.0`), on every output, with a step or without; else `0.0`.
#[inline(always)]
fn scaled_sum_body<V: Lanes>(
    inputs: &[&[f32]],
    weights: Option<&[f32]>,
    factor: f32,
    mut step: Option<(StepTerms<'_>, &mut [f32])>,
    reference: Option<&[f32]>,
    base: usize,
    out: &mut [f32],
) -> f32 {
    const CHAINS: usize = 4;
    const GROUP: usize = CHAINS * LANES;
    let mut max = [V::splat(0.0); CHAINS];
    let (groups, rest) = out.as_chunks_mut::<GROUP>();
    let done = groups.len() * GROUP;
    for (g, o) in groups.iter_mut().enumerate() {
        let i = base + g * GROUP;
        let mut acc = [V::splat(0.0); CHAINS];
        for (j, x) in inputs.iter().enumerate() {
            let x = x[i..i + GROUP].as_chunks::<LANES>().0;
            for (a, xx) in acc.iter_mut().zip(x) {
                let v = V::load(xx);
                *a = a.add(weights.map_or(v, |w| V::splat(w[j]).mul(v)));
            }
        }
        let mut r = acc.map(|a| a.mul(V::splat(factor)));
        if let Some((t, velocity)) = &mut step {
            let grad = t.grad[i..i + GROUP].as_chunks::<LANES>().0;
            let params = t.params[i..i + GROUP].as_chunks::<LANES>().0;
            let vel = velocity[g * GROUP..(g + 1) * GROUP]
                .as_chunks_mut::<LANES>()
                .0;
            let (m, wd, neg_lr) = (
                V::splat(t.momentum),
                V::splat(t.weight_decay),
                V::splat(t.neg_lr),
            );
            for (k, r) in r.iter_mut().enumerate() {
                let v = m.mul(V::load(&vel[k])).add(V::load(&grad[k]));
                let v = v.add(wd.mul(V::load(&params[k])));
                v.store(&mut vel[k]);
                *r = r.add(neg_lr.mul(v));
            }
        }
        for (r, oo) in r.iter().zip(o.as_chunks_mut::<LANES>().0) {
            r.store(oo);
        }
        if let Some(reference) = reference {
            let refs = reference[i..i + GROUP].as_chunks::<LANES>().0;
            for ((m, r), rr) in max.iter_mut().zip(r).zip(refs) {
                *m = r.sub(V::load(rr)).abs().max(*m);
            }
        }
    }
    let mut lanes = [0.0; LANES];
    max[0].max(max[1]).max(max[2].max(max[3])).store(&mut lanes);
    let mut max = lanes.into_iter().fold(0.0f32, f32::max);
    for (k, oi) in rest.iter_mut().enumerate() {
        let i = base + done + k;
        let mut acc = 0.0f32;
        for (j, x) in inputs.iter().enumerate() {
            acc += weights.map_or(x[i], |w| w[j] * x[i]);
        }
        *oi = match &mut step {
            Some((t, velocity)) => {
                let v = &mut velocity[done + k];
                *v = t.momentum * *v + t.grad[i] + t.weight_decay * t.params[i];
                acc * factor + t.neg_lr * *v
            }
            None => acc * factor,
        };
        if let Some(reference) = reference {
            max = max.max((*oi - reference[i]).abs());
        }
    }
    max
}

/// The loop of the elementwise kernels that rewrite `y` from `x` and
/// itself: `lanes` on every full group of eight, then `scalar`, the same
/// expression per element, on the tail.
#[inline(always)]
fn zip_update<V: Lanes>(
    x: &[f32],
    y: &mut [f32],
    lanes: impl Fn(V, V) -> V,
    scalar: impl Fn(f32, f32) -> f32,
) {
    let (xs, x_tail) = x.as_chunks::<LANES>();
    let (ys, y_tail) = y.as_chunks_mut::<LANES>();
    for (yy, xx) in ys.iter_mut().zip(xs) {
        lanes(V::load(xx), V::load(yy)).store(yy);
    }
    for (yi, &xi) in y_tail.iter_mut().zip(x_tail) {
        *yi = scalar(xi, *yi);
    }
}

/// [`zip_update`] for the kernels that rewrite `x` from itself alone.
#[inline(always)]
fn update<V: Lanes>(x: &mut [f32], lanes: impl Fn(V) -> V, scalar: impl Fn(f32) -> f32) {
    let (xs, tail) = x.as_chunks_mut::<LANES>();
    for xx in xs {
        lanes(V::load(xx)).store(xx);
    }
    for xi in tail {
        *xi = scalar(*xi);
    }
}

/// [`axpy`] on `V`: `y + alpha * x`, the product rounded before the add.
#[inline(always)]
fn axpy_body<V: Lanes>(alpha: f32, x: &[f32], y: &mut [f32]) {
    let va = V::splat(alpha);
    zip_update(x, y, |x: V, y| y.add(va.mul(x)), |x, y| y + alpha * x);
}

/// [`axpby`] on `V`: `alpha * x` and `beta * y` each rounded, then added.
#[inline(always)]
fn axpby_body<V: Lanes>(alpha: f32, x: &[f32], beta: f32, y: &mut [f32]) {
    let (va, vb) = (V::splat(alpha), V::splat(beta));
    let lanes = |x: V, y: V| va.mul(x).add(vb.mul(y));
    zip_update(x, y, lanes, |x, y| alpha * x + beta * y);
}

/// [`scale`] on `V`: `x * alpha`.
#[inline(always)]
fn scale_body<V: Lanes>(alpha: f32, x: &mut [f32]) {
    let va = V::splat(alpha);
    update(x, |x: V| x.mul(va), |x| x * alpha);
}

/// [`fill`] on `V`.
#[inline(always)]
fn fill_body<V: Lanes>(value: f32, x: &mut [f32]) {
    let vv = V::splat(value);
    update(x, |_: V| vv, |_| value);
}

/// [`relu`] on `V`: a select, not a `max(x, 0)`, so `-0.0` and NaN keep
/// their bits.
#[inline(always)]
fn relu_body<V: Lanes>(x: &mut [f32]) {
    let scalar = |x: f32| if x < 0.0 { 0.0 } else { x };
    update(x, |x: V| x.zero_where_negative(x), scalar);
}

/// [`relu_backward`] on `V`: `grad` zeroed where `forward_input <= 0.0`,
/// which is false for NaN.
#[inline(always)]
fn relu_backward_body<V: Lanes>(forward_input: &[f32], grad: &mut [f32]) {
    let lanes = |x: V, g: V| g.zero_where_nonpositive(x);
    let scalar = |x: f32, g: f32| if x <= 0.0 { 0.0 } else { g };
    zip_update(forward_input, grad, lanes, scalar);
}

/// Naive scalar implementations of the vectorized kernels.
///
/// These are the bit-exactness oracles: the dispatched [`axpy`],
/// [`axpby`], [`scale`], [`mean_into`] and [`scaled_sum`] — on every
/// [`Backend`] — must produce identical bits for every input (see
/// `tests/chunked_kernels.rs`).
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
    /// `weights` is `None`), one `scale` (a step's velocity advance and
    /// its `axpy(-lr, v)` follow it).
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
    fn dot_works() {
        assert_eq!(dot(&[3.0, 4.0], &[3.0, 4.0]), 25.0);
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
        scaled_sum(
            &[&a, &b],
            Some(&[3.0, 1.0]),
            1.0 / 4.0,
            None,
            None,
            &mut out,
        );
        assert_eq!(out, [3.0, 1.0]);
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
    fn argmax_first_max() {
        assert_eq!(argmax(&[1.0, 3.0, 3.0, 2.0]), 1);
    }
}
