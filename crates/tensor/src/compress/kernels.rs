//! Fused SIMD kernels of the int8 stream step and of top-k's candidate
//! scan, [`Backend::topk_candidates`]: one sweep that computes a
//! parameter stream's delta as it reads ([`ScanSource`]), left-packs the
//! entries at or above the floor (only the groups of eight that hold
//! one; see `candidates_body`) and can copy the stream's reference on
//! the way.
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
//! A parameter stream's step can be one sweep. Its first sweep's maximum
//! is `max|params - reference|`, and the Reduce that wrote `params` can
//! measure it as it writes them ([`crate::ops::scaled_sum`] given the
//! reference: the same candidates, NaN skip and exact chunk fold). And a
//! sender that ships the reconstruction, not the block, has no reader
//! for the `i8`s: [`quantize_advance`] without a `q` advances the
//! reference and writes nothing else.
//!
//! The receiving half is one sweep per block too: [`Backend::dequantize`]
//! decodes a block, [`Backend::advance_dequantized`] adds it to a mirrored
//! reference, both the scalar `q as f32 * scale` (then `old + …`) of
//! [`super::reference`] in lanes.
//!
//! Like the kernels of [`crate::ops`], each is one body over eight lanes
//! (see [`crate::ops::simd`]), run on either [`Backend`], and evaluates
//! lane by lane the scalar expressions of the composed sequence it
//! replaced, which survives as the oracle in [`super::reference`]. Three
//! places where the obvious vector instruction is *not* the scalar
//! semantics:
//!
//! * **The maximum skips NaN.** `fold(0.0, f32::max)` ignores NaN
//!   operands; the lanes' `max(a, b)` returns `b` when either is NaN, so
//!   the candidate goes first and the (never-NaN) accumulator second. A
//!   maximum is exact under any association, which is why this one
//!   reduction may be vectorised while sums ([`crate::ops::dot`]) may not.
//! * **NaN quantizes to 0.** `f32::clamp` propagates NaN and
//!   `NaN as i8 == 0`, but the x86 float-to-int convert of NaN is
//!   `i32::MIN`. The kernel clears unordered lanes to `+0.0` before the
//!   clamp and the convert.
//! * **Adding zero is not a no-op.** `-0.0 + 0.0 == +0.0`, so neither
//!   kernel drops an add just because an operand is zero — with one
//!   exception that is argued, not assumed: the composed encode passed a
//!   parameter stream's delta through a zero-residual add, which can
//!   only turn a `-0.0` delta into `+0.0`. Both quantize to `0` and the
//!   delta reaches nothing else in [`quantize_advance`] (the reference
//!   advances by the *dequantized* value), so that add is omitted there.
//!   The top-k step ships the delta itself and keeps it. Conversely, the
//!   quantize sweep *adds* `+ 0.0` once: rounding a small negative gives
//!   `-0.0`, and the `i8` it stores dequantizes as `0i8 as f32 == +0.0`.
//!
//! Division and `round_ties_even` on lanes are exact matches for `/` and
//! `f32::round_ties_even`; multiply-then-add stays two roundings, never an
//! FMA. The composed sequence's `axpy(±1.0, …)` steps appear here as
//! plain `+` / `-`: multiplying by ±1 is exact, and `a - b` is `a + (-b)`
//! bit for bit. NaN *payloads* are outside the contract: Rust does not
//! specify which NaN an arithmetic result carries, and no non-NaN output
//! of a codec depends on one.

use crate::ops::simd::{on_backend, Backend, Lanes, LANES};
use crate::sweep::{self, MaxBits};

/// `max_i |x[i] + alpha * r[i]|` over the non-NaN values, at least `0.0`
/// (so `0.0` for an empty or all-NaN block). SIMD-dispatched, and split
/// on an installed [`sweep::Board`]: the chunks' maxima combine exactly.
///
/// # Panics
///
/// Panics if `r` and `x` have different lengths.
pub fn max_abs_sum(alpha: f32, r: &[f32], x: &[f32]) -> f32 {
    assert_eq!(r.len(), x.len(), "max_abs_sum length mismatch");
    let (backend, max) = (Backend::host(), MaxBits::new());
    sweep::split(x.len(), (), |range, ()| {
        max.fold(backend.max_abs_sum(alpha, &r[range.clone()], &x[range]));
    });
    max.get()
}

/// The error-feedback quantize sweep: with `w = x[i] + residual[i]`,
/// writes `q[i] = quantize(w)` and `residual[i] = w - q[i] * scale`.
/// SIMD-dispatched, and split on an installed [`sweep::Board`].
///
/// # Panics
///
/// Panics if the three slices have different lengths.
pub fn quantize_feedback(x: &[f32], scale: f32, residual: &mut [f32], q: &mut [i8]) {
    assert_eq!(x.len(), residual.len(), "quantize_feedback length mismatch");
    assert_eq!(x.len(), q.len(), "quantize_feedback length mismatch");
    let backend = Backend::host();
    sweep::split(x.len(), (residual, q), |range, (residual, q)| {
        backend.quantize_feedback(&x[range], scale, residual, q);
    });
}

/// The parameter-stream quantize sweep: with `w = x[i] - old[i]`, writes
/// `new[i] = old[i] + quantize(w) * scale`, and `q[i] = quantize(w)` if
/// given a `q` (a sender that ships `new` has no reader for the block).
/// SIMD-dispatched, and split on an installed [`sweep::Board`].
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn quantize_advance(x: &[f32], scale: f32, old: &[f32], new: &mut [f32], q: Option<&mut [i8]>) {
    check_advance(x, old, new, q.as_deref());
    let backend = Backend::host();
    sweep::split(x.len(), (new, q), |range, (new, q)| {
        backend.quantize_advance(&x[range.clone()], scale, &old[range], new, q);
    });
}

/// [`quantize_advance`]'s shape checks.
fn check_advance(x: &[f32], old: &[f32], new: &[f32], q: Option<&[i8]>) {
    assert_eq!(x.len(), old.len(), "quantize_advance length mismatch");
    assert_eq!(x.len(), new.len(), "quantize_advance length mismatch");
    if let Some(q) = q {
        assert_eq!(x.len(), q.len(), "quantize_advance length mismatch");
    }
}

/// The int8 kernels on an explicit backend: the shape checks, then the
/// kernel's one body on this backend's lanes. Each panics as its free
/// function does.
impl Backend {
    /// [`max_abs_sum`] on this backend.
    pub fn max_abs_sum(self, alpha: f32, r: &[f32], x: &[f32]) -> f32 {
        assert_eq!(r.len(), x.len(), "max_abs_sum length mismatch");
        on_backend!(self, max_abs_sum_body(alpha, r, x))
    }

    /// [`quantize_feedback`] on this backend.
    pub fn quantize_feedback(self, x: &[f32], scale: f32, residual: &mut [f32], q: &mut [i8]) {
        assert_eq!(x.len(), residual.len(), "quantize_feedback length mismatch");
        assert_eq!(x.len(), q.len(), "quantize_feedback length mismatch");
        on_backend!(self, feedback_body(x, scale, residual, q));
    }

    /// [`quantize_advance`] on this backend.
    pub fn quantize_advance(
        self,
        x: &[f32],
        scale: f32,
        old: &[f32],
        new: &mut [f32],
        q: Option<&mut [i8]>,
    ) {
        check_advance(x, old, new, q.as_deref());
        on_backend!(self, advance_body(x, scale, old, new, q));
    }

    /// The int8 decode: `out[i] = q[i] as f32 * scale`.
    ///
    /// # Panics
    ///
    /// Panics if `q` and `out` have different lengths.
    pub fn dequantize(self, q: &[i8], scale: f32, out: &mut [f32]) {
        assert_eq!(q.len(), out.len(), "dequantize length mismatch");
        on_backend!(self, dequantize_body(q, scale, out));
    }

    /// A receiver's int8 stream step: `new[i] = old[i] + q[i] as f32 *
    /// scale`, where `old` is `new` itself when not given (in place).
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths.
    pub fn advance_dequantized(self, q: &[i8], scale: f32, old: Option<&[f32]>, new: &mut [f32]) {
        assert_eq!(q.len(), new.len(), "advance_dequantized length mismatch");
        if let Some(old) = old {
            assert_eq!(old.len(), new.len(), "advance_dequantized length mismatch");
        }
        on_backend!(self, advance_dequantized_body(q, scale, old, new));
    }

    /// Top-k's candidate scan: writes to the front of `keys` /
    /// `positions`, in index order, the magnitude key (`to_bits() &
    /// 0x7FFF_FFFF`) and the index of every entry of `source` whose key is
    /// at least `floor`, and returns how many (later entries get
    /// unspecified values). With `copy`, a delta's scan also stores every
    /// reference entry it reads there, so `copy` ends up equal to the
    /// reference bit for bit: the next reference of a parameter stream,
    /// made in the same pass.
    ///
    /// # Panics
    ///
    /// Panics if `keys` or `positions` is shorter than the block, if a
    /// delta's two slices differ in length, or if `copy` is given with a
    /// [`ScanSource::Values`] source (which has no reference) or is not
    /// as long as the block.
    pub fn topk_candidates(
        self,
        source: ScanSource<'_>,
        floor: u32,
        keys: &mut [u32],
        positions: &mut [u32],
        copy: Option<&mut [f32]>,
    ) -> usize {
        let len = source.len();
        assert!(keys.len().min(positions.len()) >= len, "short scan buffers");
        if let Some(copy) = &copy {
            assert!(
                matches!(source, ScanSource::Delta { .. }),
                "only a delta has a reference to copy"
            );
            assert_eq!(copy.len(), len, "copy sized for another block");
        }
        on_backend!(self, candidates_body(source, floor, keys, positions, copy))
    }
}

/// Where a top-k scan reads entry `i`'s value.
#[derive(Clone, Copy, Debug)]
pub enum ScanSource<'a> {
    /// The values as stored: an error-feedback stream's compensated block.
    Values(&'a [f32]),
    /// A parameter stream's delta to its reference, `(params[i] -
    /// reference[i]) + 0.0`: the zero-residual add of the composed encode,
    /// which turns a `-0.0` difference into `+0.0`.
    Delta {
        /// The sender's parameters.
        params: &'a [f32],
        /// What the stream's receivers hold.
        reference: &'a [f32],
    },
}

impl ScanSource<'_> {
    /// Entries in the block. Panics if a delta's two slices differ in
    /// length.
    pub(crate) fn len(&self) -> usize {
        match self {
            ScanSource::Values(x) => x.len(),
            ScanSource::Delta { params, reference } => {
                assert_eq!(params.len(), reference.len(), "delta length mismatch");
                params.len()
            }
        }
    }

    /// Entry `i`'s value. Panics if `i` is out of range.
    #[inline(always)]
    pub fn value(&self, i: usize) -> f32 {
        match *self {
            ScanSource::Values(x) => x[i],
            ScanSource::Delta { params, reference } => (params[i] - reference[i]) + 0.0,
        }
    }
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

/// [`max_abs_sum`] on `V`. The candidate `|x + alpha * r|` (product
/// rounded before the add) is the first operand of every `max`, so a NaN
/// candidate yields the accumulator, which starts at `0.0` and so is never
/// NaN: the NaN skip of `f32::max`. Four accumulators, since the max chain
/// is latency-bound otherwise; any grouping of a maximum gives the same
/// value.
#[inline(always)]
fn max_abs_sum_body<V: Lanes>(alpha: f32, r: &[f32], x: &[f32]) -> f32 {
    let va = V::splat(alpha);
    let candidate = |x: &[f32], r: &[f32]| V::load(x).add(va.mul(V::load(r))).abs();
    let (xs, x_tail) = x.as_chunks::<LANES>();
    let (rs, r_tail) = r.as_chunks::<LANES>();
    let (mut x4, mut r4) = (xs.chunks_exact(4), rs.chunks_exact(4));
    let mut acc = [V::splat(0.0); 4];
    for (xx, rr) in x4.by_ref().zip(r4.by_ref()) {
        for u in 0..4 {
            acc[u] = candidate(&xx[u], &rr[u]).max(acc[u]);
        }
    }
    for (xx, rr) in x4.remainder().iter().zip(r4.remainder()) {
        acc[0] = candidate(xx, rr).max(acc[0]);
    }
    let mut lanes = [0.0; LANES];
    acc[0].max(acc[1]).max(acc[2].max(acc[3])).store(&mut lanes);
    let mut max = lanes.into_iter().fold(0.0f32, f32::max);
    for (xi, ri) in x_tail.iter().zip(r_tail) {
        max = max.max((xi + alpha * ri).abs());
    }
    max
}

/// [`quantize`] on lanes, as floats: `q as f32`. A scale that is not
/// positive divides by `+inf` instead, which sends every `w` to `±0.0` or
/// NaN: `0` once unordered lanes are cleared to `+0.0` — the scalar
/// `NaN as i8 == 0` — before the clamp. A lane may hold `-0.0`, which
/// [`Lanes::store_i8`] stores as `0` and [`dequantize_lanes`] decodes as
/// `+0.0`.
#[inline(always)]
fn quantize_lanes<V: Lanes>(w: V, scale: f32) -> V {
    let divisor = V::splat(if scale > 0.0 { scale } else { f32::INFINITY });
    let rounded = w.div(divisor).round_ties_even().zero_nan();
    rounded.max(V::splat(-127.0)).min(V::splat(127.0))
}

/// `q as f32 * scale` from [`quantize_lanes`]' floats: the `+ 0.0` turns
/// the `-0.0` that a small negative rounds to into the `+0.0` of `0i8 as
/// f32`.
#[inline(always)]
fn dequantize_lanes<V: Lanes>(q: V, scale: f32) -> V {
    q.add(V::splat(0.0)).mul(V::splat(scale))
}

/// [`quantize_feedback`] on `V`: per lane `w = x + r`, then
/// [`quantize_lanes`], then `w - q * scale`: the scalar tail's order.
#[inline(always)]
fn feedback_body<V: Lanes>(x: &[f32], scale: f32, residual: &mut [f32], q: &mut [i8]) {
    let (xs, x_tail) = x.as_chunks::<LANES>();
    let (rs, r_tail) = residual.as_chunks_mut::<LANES>();
    let (qs, q_tail) = q.as_chunks_mut::<LANES>();
    for ((xx, rr), qq) in xs.iter().zip(rs.iter_mut()).zip(qs) {
        let w = V::load(xx).add(V::load(rr));
        let quantized = quantize_lanes(w, scale);
        quantized.store_i8(qq);
        w.sub(dequantize_lanes(quantized, scale)).store(rr);
    }
    for ((&xi, ri), qi) in x_tail.iter().zip(r_tail).zip(q_tail) {
        let w = xi + *ri;
        *qi = quantize(w, scale);
        *ri = w - *qi as f32 * scale;
    }
}

/// [`quantize_advance`] on `V`: per lane `x - old`, then
/// [`quantize_lanes`] (stored to `q` if given), then `old + q * scale`:
/// the scalar tail's order.
#[inline(always)]
fn advance_body<V: Lanes>(
    x: &[f32],
    scale: f32,
    old: &[f32],
    new: &mut [f32],
    q: Option<&mut [i8]>,
) {
    let (xs, x_tail) = x.as_chunks::<LANES>();
    let (os, o_tail) = old.as_chunks::<LANES>();
    let (ns, n_tail) = new.as_chunks_mut::<LANES>();
    let (mut qs, mut q_tail) = q.map(|q| q.as_chunks_mut::<LANES>()).unzip();
    for (g, ((xx, oo), nn)) in xs.iter().zip(os).zip(ns).enumerate() {
        let vo = V::load(oo);
        let quantized = quantize_lanes(V::load(xx).sub(vo), scale);
        if let Some(qs) = &mut qs {
            quantized.store_i8(&mut qs[g]);
        }
        vo.add(dequantize_lanes(quantized, scale)).store(nn);
    }
    let tail = x_tail.iter().zip(o_tail).zip(n_tail);
    for (k, ((&xi, &oi), ni)) in tail.enumerate() {
        let qi = quantize(xi - oi, scale);
        if let Some(q_tail) = &mut q_tail {
            q_tail[k] = qi;
        }
        *ni = oi + qi as f32 * scale;
    }
}

/// [`Backend::dequantize`] on `V`.
#[inline(always)]
fn dequantize_body<V: Lanes>(q: &[i8], scale: f32, out: &mut [f32]) {
    let (qs, q_tail) = q.as_chunks::<LANES>();
    let (os, o_tail) = out.as_chunks_mut::<LANES>();
    let vs = V::splat(scale);
    for (qq, oo) in qs.iter().zip(os) {
        V::load_i8(qq).mul(vs).store(oo);
    }
    for (&qi, oi) in q_tail.iter().zip(o_tail) {
        *oi = qi as f32 * scale;
    }
}

/// [`Backend::advance_dequantized`] on `V`: `old + q * scale`, the
/// product rounded first.
#[inline(always)]
fn advance_dequantized_body<V: Lanes>(q: &[i8], scale: f32, old: Option<&[f32]>, new: &mut [f32]) {
    let (qs, q_tail) = q.as_chunks::<LANES>();
    let (ns, n_tail) = new.as_chunks_mut::<LANES>();
    let (os, o_tail) = old.map(|old| old.as_chunks::<LANES>()).unzip();
    let vs = V::splat(scale);
    for (g, (qq, nn)) in qs.iter().zip(ns).enumerate() {
        let vo = V::load(os.map_or(&*nn, |os| &os[g]));
        vo.add(V::load_i8(qq).mul(vs)).store(nn);
    }
    for (k, (&qi, ni)) in q_tail.iter().zip(n_tail).enumerate() {
        *ni = o_tail.map_or(*ni, |o| o[k]) + qi as f32 * scale;
    }
}

/// [`Backend::topk_candidates`] on `V`, in chunks of [`SCAN_CHUNK`]
/// groups of eight lanes, small enough to stay in L1 between their two
/// passes:
///
/// 1. every group is read as lanes (a delta as `(p - r) + 0.0`,
///    [`ScanSource::value`]'s expression), and one bit per group notes
///    whether any lane reaches the floor: no branch, and no store but
///    `copy`'s, which receives each reference lane as it is read;
/// 2. each noted group is read again and left-packed.
///
/// A parameter stream's candidates are scattered: at top-1 % about one
/// group in seven has one. A branch per group would mispredict about as
/// often as it skips a pack, and a pack per group (its table load,
/// permute and two stores) costs more than the whole first pass. The
/// scalar tail writes every entry and advances past the candidates. No
/// write goes past the entry read, so buffers as long as the block
/// suffice.
#[inline(always)]
fn candidates_body<V: Lanes>(
    source: ScanSource<'_>,
    floor: u32,
    keys: &mut [u32],
    positions: &mut [u32],
    mut copy: Option<&mut [f32]>,
) -> usize {
    let groups = Groups::of(source);
    let mut count = 0;
    for start in (0..groups.len()).step_by(SCAN_CHUNK) {
        let chunk = groups.slice(start..groups.len().min(start + SCAN_CHUNK));
        let mut noted = 0u64;
        if let (Some(copy), Groups::Delta(params, reference)) = (&mut copy, chunk) {
            let to = copy[start * LANES..].as_chunks_mut::<LANES>().0;
            for (g, ((p, r), to)) in params.iter().zip(reference).zip(to).enumerate() {
                let r = V::load(r);
                r.store(to);
                noted |= u64::from(delta(p, r).key_mask(floor) != 0) << g;
            }
        } else {
            for g in 0..chunk.len() {
                noted |= u64::from(chunk.lanes::<V>(g).key_mask(floor) != 0) << g;
            }
        }
        while noted != 0 {
            let g = noted.trailing_zeros() as usize;
            noted &= noted - 1;
            let v = chunk.lanes::<V>(g);
            let (k, p) = (&mut keys[count..], &mut positions[count..]);
            count += v.pack_keys(v.key_mask(floor), ((start + g) * LANES) as u32, k, p);
        }
    }
    let done = groups.len() * LANES;
    if let (Some(copy), ScanSource::Delta { reference, .. }) = (copy, source) {
        for (to, &from) in copy[done..].iter_mut().zip(&reference[done..]) {
            *to = from;
        }
    }
    for i in done..source.len() {
        let key = super::magnitude_key(source.value(i));
        keys[count] = key;
        positions[count] = i as u32;
        count += usize::from(key >= floor);
    }
    count
}

/// Groups of eight lanes per chunk of [`candidates_body`], one bit each:
/// 512 entries, 2 KB per input.
const SCAN_CHUNK: usize = u64::BITS as usize;

/// A [`ScanSource`]'s full groups of eight entries.
#[derive(Clone, Copy)]
enum Groups<'a> {
    Values(&'a [[f32; LANES]]),
    /// Parameters, reference.
    Delta(&'a [[f32; LANES]], &'a [[f32; LANES]]),
}

impl<'a> Groups<'a> {
    fn of(source: ScanSource<'a>) -> Self {
        match source {
            ScanSource::Values(x) => Groups::Values(x.as_chunks().0),
            ScanSource::Delta { params, reference } => {
                let groups = params.len() / LANES;
                Groups::Delta(params.as_chunks().0, &reference.as_chunks().0[..groups])
            }
        }
    }

    fn len(self) -> usize {
        match self {
            Groups::Values(x) | Groups::Delta(x, _) => x.len(),
        }
    }

    fn slice(self, range: std::ops::Range<usize>) -> Self {
        match self {
            Groups::Values(x) => Groups::Values(&x[range]),
            Groups::Delta(p, r) => Groups::Delta(&p[range.clone()], &r[range]),
        }
    }

    /// Group `g` as lanes.
    #[inline(always)]
    fn lanes<V: Lanes>(self, g: usize) -> V {
        match self {
            Groups::Values(x) => V::load(&x[g]),
            Groups::Delta(p, r) => delta(&p[g], V::load(&r[g])),
        }
    }
}

/// A parameter stream's delta on lanes, `(p - r) + 0.0`:
/// [`ScanSource::value`]'s expression.
#[inline(always)]
fn delta<V: Lanes>(p: &[f32], r: V) -> V {
    V::load(p).sub(r).add(V::splat(0.0))
}
