//! The eight-lane vector type every SIMD kernel is written against.
//!
//! Each kernel of [`crate::ops`] and [`crate::compress::kernels`] is one
//! `#[inline(always)]` body generic over the crate-private `Lanes` trait,
//! scalar tail included, run on a [`Backend`]: with `[f32; 8]` lanes
//! (plain Rust, every target) or with `__m256` lanes inside a
//! `#[target_feature(enable = "avx2")]` function, where each `Lanes` op
//! inlines to one 256-bit instruction. Every op is defined by the scalar
//! expression it computes per lane, which the `[f32; 8]` impl writes
//! literally and this module's tests pin the `__m256` impl to, bit for
//! bit: a body gives the same bits on both backends.

/// Lanes per vector: the width of both lane types.
pub const LANES: usize = 8;

/// Whether this CPU runs the AVX2 backend. Always `false` off x86-64.
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

/// Which lane type a kernel runs on. Every kernel gives the same bits on
/// both.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// `[f32; 8]` lanes: runs everywhere.
    Portable,
    /// `__m256` lanes: a kernel run on it panics unless
    /// [`avx2_available`].
    Avx2,
}

impl Backend {
    /// The widest backend this CPU runs, which the free-function kernels
    /// use.
    #[inline]
    pub fn host() -> Self {
        if avx2_available() {
            Self::Avx2
        } else {
            Self::Portable
        }
    }
}

/// Runs a kernel body on a [`Backend`]: `body::<[f32; 8]>(args)`, or
/// `body::<__m256>(args)` compiled with AVX2 enabled.
macro_rules! on_backend {
    ($backend:expr, $body:ident($($arg:expr),* $(,)?)) => {
        match $backend {
            $crate::ops::simd::Backend::Portable => {
                $body::<[f32; $crate::ops::simd::LANES]>($($arg),*)
            }
            #[cfg(target_arch = "x86_64")]
            $crate::ops::simd::Backend::Avx2 => {
                assert!($crate::ops::simd::avx2_available(), "host CPU lacks AVX2");
                // SAFETY: the CPU has AVX2, as just asserted.
                unsafe {
                    $crate::ops::simd::with_avx2(|| {
                        $body::<core::arch::x86_64::__m256>($($arg),*)
                    })
                }
            }
            #[cfg(not(target_arch = "x86_64"))]
            $crate::ops::simd::Backend::Avx2 => panic!("host CPU lacks AVX2"),
        }
    };
}
pub(crate) use on_backend;

/// Calls `kernel` in a function compiled with AVX2, so the `__m256`
/// `Lanes` ops it reaches inline into 256-bit instructions.
///
/// # Safety
///
/// The CPU must have AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn with_avx2<R>(kernel: impl FnOnce() -> R) -> R {
    kernel()
}

/// Asks the CPU to bring every cache line of `value` into L1, without
/// waiting for it: a hint that changes no value and cannot fault. A
/// loop calls it on state its next step will touch (the simulator's
/// pump on the next event's worker) while the current step runs. Only
/// the lines `value` itself spans are fetched, not what it points to.
/// A no-op off x86-64.
#[inline]
pub fn prefetch<T: ?Sized>(value: &T) {
    #[cfg(target_arch = "x86_64")]
    {
        use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        const LINE: usize = 64;
        let start = value as *const T as *const u8;
        let end = start.wrapping_add(std::mem::size_of_val(value));
        let mut line = start.wrapping_sub(start as usize % LINE);
        while line < end {
            // SAFETY: SSE is part of the x86-64 baseline, and a prefetch
            // only hints: it reads nothing into the program and does not
            // fault, and every address here lies within `value`'s lines.
            unsafe { _mm_prefetch::<_MM_HINT_T0>(line.cast::<i8>()) };
            line = line.wrapping_add(LINE);
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = value;
}

/// Eight `f32` lanes. Each op is documented by the scalar expression it
/// computes in every lane (`a` is `self`'s lane, `b` the argument's), and
/// rounds once, on its own: no two ops fuse (no FMA).
///
/// The `__m256` impl assumes AVX2: a body reaches it only through
/// [`on_backend`], which checks.
pub(crate) trait Lanes: Copy {
    /// `v` in every lane.
    fn splat(v: f32) -> Self;
    /// `x[l]`. Panics if `x` has fewer than 8 elements.
    fn load(x: &[f32]) -> Self;
    /// `out[l] = a`. Panics if `out` has fewer than 8 elements.
    fn store(self, out: &mut [f32]);
    /// `a + b` (so `-0.0 + 0.0` is `+0.0`: adding zero is not a no-op).
    fn add(self, b: Self) -> Self;
    /// `a - b`.
    fn sub(self, b: Self) -> Self;
    /// `a * b`.
    fn mul(self, b: Self) -> Self;
    /// `a / b`.
    fn div(self, b: Self) -> Self;
    /// `a.abs()`: the sign bit cleared, also on NaN.
    fn abs(self) -> Self;
    /// `if a > b { a } else { b }`: `b` when either is NaN, and `b` for
    /// `(+0.0, -0.0)` in either order — x86 `maxps`, not `f32::max`.
    fn max(self, b: Self) -> Self;
    /// `if a < b { a } else { b }`: `b` when either is NaN or both are
    /// zeros — x86 `minps`, not `f32::min`.
    fn min(self, b: Self) -> Self;
    /// `if b < 0.0 { 0.0 } else { a }`: NaN and `-0.0` in `b` keep `a`.
    fn zero_where_negative(self, b: Self) -> Self;
    /// `if b <= 0.0 { 0.0 } else { a }`: NaN in `b` keeps `a`.
    fn zero_where_nonpositive(self, b: Self) -> Self;
    /// `if a.is_nan() { 0.0 } else { a }`.
    fn zero_nan(self) -> Self;
    /// `a.round_ties_even()`.
    fn round_ties_even(self) -> Self;
    /// `out[l] = a as i8`, for lanes holding integers in `-128..=127`
    /// (other lanes store unspecified bytes). Panics if `out` has fewer
    /// than 8 elements.
    fn store_i8(self, out: &mut [i8]);
    /// `q[l] as f32` in every lane (exact: every `i8` is an `f32`).
    /// Panics if `q` has fewer than 8 elements.
    fn load_i8(q: &[i8]) -> Self;
    /// Bit `l` set iff `a.to_bits() & 0x7FFF_FFFF >= floor`: an integer
    /// compare of magnitude bits, so NaN ranks above `+inf`, and a floor
    /// above `0x7FFF_FFFF` admits no lane.
    fn key_mask(self, floor: u32) -> u32;
    /// The left-pack store: for each lane `l` set in `mask` (`< 256`), in
    /// lane order, `keys[n] = a.to_bits() & 0x7FFF_FFFF` and
    /// `positions[n] = base + l`, `n` counting from 0; returns that count.
    /// Entries `n..8` of both get unspecified values. Panics if either
    /// slice has fewer than 8 elements.
    fn pack_keys(self, mask: u32, base: u32, keys: &mut [u32], positions: &mut [u32]) -> usize;
}

/// `[f(a[l], b[l]); 8]`.
fn zip(a: [f32; LANES], b: [f32; LANES], f: impl Fn(f32, f32) -> f32) -> [f32; LANES] {
    std::array::from_fn(|l| f(a[l], b[l]))
}

impl Lanes for [f32; LANES] {
    fn splat(v: f32) -> Self {
        [v; LANES]
    }
    fn load(x: &[f32]) -> Self {
        let mut v = [0.0; LANES];
        v.copy_from_slice(&x[..LANES]);
        v
    }
    fn store(self, out: &mut [f32]) {
        out[..LANES].copy_from_slice(&self);
    }
    fn add(self, b: Self) -> Self {
        zip(self, b, |a, b| a + b)
    }
    fn sub(self, b: Self) -> Self {
        zip(self, b, |a, b| a - b)
    }
    fn mul(self, b: Self) -> Self {
        zip(self, b, |a, b| a * b)
    }
    fn div(self, b: Self) -> Self {
        zip(self, b, |a, b| a / b)
    }
    fn abs(self) -> Self {
        self.map(f32::abs)
    }
    fn max(self, b: Self) -> Self {
        zip(self, b, |a, b| if a > b { a } else { b })
    }
    fn min(self, b: Self) -> Self {
        zip(self, b, |a, b| if a < b { a } else { b })
    }
    fn zero_where_negative(self, b: Self) -> Self {
        zip(self, b, |a, b| if b < 0.0 { 0.0 } else { a })
    }
    fn zero_where_nonpositive(self, b: Self) -> Self {
        zip(self, b, |a, b| if b <= 0.0 { 0.0 } else { a })
    }
    fn zero_nan(self) -> Self {
        self.map(|a| if a.is_nan() { 0.0 } else { a })
    }
    fn round_ties_even(self) -> Self {
        self.map(f32::round_ties_even)
    }
    fn store_i8(self, out: &mut [i8]) {
        for (o, a) in out[..LANES].iter_mut().zip(self) {
            *o = a as i8;
        }
    }
    fn load_i8(q: &[i8]) -> Self {
        std::array::from_fn(|l| f32::from(q[..LANES][l]))
    }
    fn key_mask(self, floor: u32) -> u32 {
        (0..LANES).fold(0, |mask, l| {
            mask | u32::from(self[l].to_bits() & 0x7FFF_FFFF >= floor) << l
        })
    }
    fn pack_keys(self, mask: u32, base: u32, keys: &mut [u32], positions: &mut [u32]) -> usize {
        let (keys, positions) = (&mut keys[..LANES], &mut positions[..LANES]);
        let set = (0..LANES).filter(|l| mask >> l & 1 != 0);
        for (n, l) in set.enumerate() {
            (keys[n], positions[n]) = (self[l].to_bits() & 0x7FFF_FFFF, base + l as u32);
        }
        mask.count_ones() as usize
    }
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use core::arch::x86_64::*;

    use super::{Lanes, LANES};

    // Every SAFETY comment below leans on the trait's contract: a `__m256`
    // op runs only on a CPU with AVX2.
    impl Lanes for __m256 {
        #[inline(always)]
        fn splat(v: f32) -> Self {
            // SAFETY: AVX2 is present.
            unsafe { _mm256_set1_ps(v) }
        }
        #[inline(always)]
        fn load(x: &[f32]) -> Self {
            let x = &x[..LANES];
            // SAFETY: AVX2 is present; `x` holds the 8 floats read.
            unsafe { _mm256_loadu_ps(x.as_ptr()) }
        }
        #[inline(always)]
        fn store(self, out: &mut [f32]) {
            let out = &mut out[..LANES];
            // SAFETY: AVX2 is present; `out` holds the 8 floats written.
            unsafe { _mm256_storeu_ps(out.as_mut_ptr(), self) }
        }
        #[inline(always)]
        fn add(self, b: Self) -> Self {
            // SAFETY: AVX2 is present.
            unsafe { _mm256_add_ps(self, b) }
        }
        #[inline(always)]
        fn sub(self, b: Self) -> Self {
            // SAFETY: AVX2 is present.
            unsafe { _mm256_sub_ps(self, b) }
        }
        #[inline(always)]
        fn mul(self, b: Self) -> Self {
            // SAFETY: AVX2 is present.
            unsafe { _mm256_mul_ps(self, b) }
        }
        #[inline(always)]
        fn div(self, b: Self) -> Self {
            // SAFETY: AVX2 is present.
            unsafe { _mm256_div_ps(self, b) }
        }
        #[inline(always)]
        fn abs(self) -> Self {
            // SAFETY: AVX2 is present.
            unsafe { _mm256_and_ps(self, _mm256_castsi256_ps(_mm256_set1_epi32(0x7FFF_FFFF))) }
        }
        #[inline(always)]
        fn max(self, b: Self) -> Self {
            // SAFETY: AVX2 is present.
            unsafe { _mm256_max_ps(self, b) }
        }
        #[inline(always)]
        fn min(self, b: Self) -> Self {
            // SAFETY: AVX2 is present.
            unsafe { _mm256_min_ps(self, b) }
        }
        #[inline(always)]
        fn zero_where_negative(self, b: Self) -> Self {
            // SAFETY: AVX2 is present.
            unsafe { _mm256_andnot_ps(_mm256_cmp_ps::<_CMP_LT_OQ>(b, _mm256_setzero_ps()), self) }
        }
        #[inline(always)]
        fn zero_where_nonpositive(self, b: Self) -> Self {
            // SAFETY: AVX2 is present.
            unsafe { _mm256_andnot_ps(_mm256_cmp_ps::<_CMP_LE_OQ>(b, _mm256_setzero_ps()), self) }
        }
        #[inline(always)]
        fn zero_nan(self) -> Self {
            // SAFETY: AVX2 is present.
            unsafe { _mm256_and_ps(self, _mm256_cmp_ps::<_CMP_ORD_Q>(self, self)) }
        }
        #[inline(always)]
        fn round_ties_even(self) -> Self {
            const NEAREST: i32 = _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC;
            // SAFETY: AVX2 is present.
            unsafe { _mm256_round_ps::<NEAREST>(self) }
        }
        #[inline(always)]
        fn store_i8(self, out: &mut [i8]) {
            let out = &mut out[..LANES];
            // SAFETY: AVX2 is present; `out` holds the 8 bytes written.
            unsafe {
                // Per 128-bit half: the low byte of each of its four i32s.
                #[rustfmt::skip]
                let low_bytes = _mm256_setr_epi8(
                    0, 4, 8, 12, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
                    0, 4, 8, 12, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
                );
                // A lane holding an integer in -128..=127 converts exactly,
                // and the i8 is its low byte.
                let bytes = _mm256_shuffle_epi8(_mm256_cvtps_epi32(self), low_bytes);
                let packed = _mm_unpacklo_epi32(
                    _mm256_castsi256_si128(bytes),
                    _mm256_extracti128_si256::<1>(bytes),
                );
                _mm_storel_epi64(out.as_mut_ptr().cast::<__m128i>(), packed);
            }
        }
        #[inline(always)]
        fn load_i8(q: &[i8]) -> Self {
            let q = &q[..LANES];
            // SAFETY: AVX2 is present; `q` holds the 8 bytes read.
            unsafe {
                let bytes = _mm_loadl_epi64(q.as_ptr().cast::<__m128i>());
                _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(bytes))
            }
        }
        #[inline(always)]
        fn key_mask(self, floor: u32) -> u32 {
            // Keys are below 2^31, so the signed `key > floor - 1` is the
            // unsigned `key >= floor`; a floor past 2^31 compares as 2^31,
            // whose `floor - 1` no key exceeds.
            let below = floor.min(1 << 31).wrapping_sub(1) as i32;
            // SAFETY: AVX2 is present.
            unsafe {
                let keys = _mm256_and_si256(_mm256_castps_si256(self), _mm256_set1_epi32(i32::MAX));
                let admitted = _mm256_cmpgt_epi32(keys, _mm256_set1_epi32(below));
                _mm256_movemask_ps(_mm256_castsi256_ps(admitted)) as u32
            }
        }
        #[inline(always)]
        fn pack_keys(self, mask: u32, base: u32, keys: &mut [u32], positions: &mut [u32]) -> usize {
            let (keys, positions) = (&mut keys[..LANES], &mut positions[..LANES]);
            let row = &PACK[mask as usize];
            // SAFETY: AVX2 is present; `row` holds the 8 bytes read, and
            // `keys` / `positions` the 8 words written to each.
            unsafe {
                let order = _mm256_cvtepu8_epi32(_mm_loadl_epi64(row.as_ptr().cast::<__m128i>()));
                let key = _mm256_and_si256(_mm256_castps_si256(self), _mm256_set1_epi32(i32::MAX));
                let key = _mm256_permutevar8x32_epi32(key, order);
                _mm256_storeu_si256(keys.as_mut_ptr().cast::<__m256i>(), key);
                // Packing the indices `base + 0..8` is adding `base` to the order.
                let position = _mm256_add_epi32(_mm256_set1_epi32(base as i32), order);
                _mm256_storeu_si256(positions.as_mut_ptr().cast::<__m256i>(), position);
            }
            usize::from(row[LANES])
        }
    }

    /// `PACK[mask]`: the lanes set in `mask`, ascending (then lanes that do
    /// not matter) — the `permutevar8x32` order that left-packs them — and
    /// last their count: without `popcnt`, which `with_avx2` does not
    /// enable, `count_ones` is a bit trick that made a 64K scan ~15 %
    /// slower than this load.
    const PACK: [[u8; LANES + 1]; 256] = {
        let mut table = [[0; LANES + 1]; 256];
        let mut i = 0;
        while i < 256 * LANES {
            let (mask, l) = (i / LANES, i % LANES);
            let row = &mut table[mask];
            row[row[LANES] as usize] = l as u8;
            row[LANES] += (mask >> l & 1) as u8;
            i += 1;
        }
        table
    };
}

#[cfg(all(test, target_arch = "x86_64"))]
mod tests {
    use core::arch::x86_64::__m256;

    use super::{avx2_available, Lanes, LANES};

    /// Lane values where x86 and the obvious scalar code can part ways:
    /// NaN, both zeros, x.5 ties, the ±127 clamp and its neighbours,
    /// infinities and subnormals. Every ordered pair of them fills
    /// 28 × 28 / 8 whole vectors.
    #[rustfmt::skip]
    const EDGES: [f32; 28] = [
        f32::NAN, 0.0, -0.0, 0.5, -0.5, 1.5, -1.5, 2.5, -2.5, 4.5,
        126.5, -126.5, 127.0, -127.0, 127.5, -127.5, 128.0, -128.0,
        f32::INFINITY, f32::NEG_INFINITY, 1e-45, -1e-45, 3.0, -7.25, 1e38,
        -1e38, 0.1, -0.75,
    ];

    /// `v`'s lanes as bits, every NaN folded to one pattern if `fold_nan`.
    fn bits(v: impl Lanes, fold_nan: bool) -> [u32; LANES] {
        let mut out = [0.0; LANES];
        v.store(&mut out);
        out.map(|x| if x.is_nan() && fold_nan { f32::NAN } else { x }.to_bits())
    }

    /// Eight distinct keys: the largest NaN (key `0x7FFF_FFFF`), `-0.0`,
    /// the smallest subnormal, `+inf`, the default NaN and three others.
    #[rustfmt::skip]
    const KEYED: [f32; LANES] = [
        f32::from_bits(u32::MAX), -0.0, 1e-45, -2.5, f32::INFINITY, 0.1, f32::NAN, -127.0,
    ];

    /// Every op, `[f32; 8]` against `__m256`, on every ordered pair of
    /// [`EDGES`]: NaN in either operand of `max` / `min`, `(+0.0, -0.0)`
    /// both ways, NaN and `-0.0` through `abs` and the zeroing selects;
    /// `key_mask` (also on [`KEYED`]) at floor 0, at a lane's own key, at
    /// the largest key and at the floors past it (`u32::MAX` is the scan's
    /// "no floor").
    #[test]
    fn every_op_gives_the_same_bits_on_both_lane_types() {
        if !avx2_available() {
            return;
        }
        let pairs: Vec<(f32, f32)> = EDGES.iter().flat_map(|&a| EDGES.map(|b| (a, b))).collect();
        for group in pairs.chunks(LANES) {
            let a: [f32; LANES] = std::array::from_fn(|l| group[l].0);
            let b: [f32; LANES] = std::array::from_fn(|l| group[l].1);
            let (va, vb) = (__m256::load(&a), __m256::load(&b));
            // Arithmetic may return any NaN (Rust leaves the payload
            // open); the selects and bit ops must match exactly.
            let check = |op: &str, p: [f32; LANES], v: __m256, fold_nan: bool| {
                assert_eq!(bits(p, fold_nan), bits(v, fold_nan), "{op} on {a:?}, {b:?}");
            };
            check("splat", Lanes::splat(b[0]), Lanes::splat(b[0]), false);
            check("load/store", a, va, false);
            check("add", a.add(b), va.add(vb), true);
            check("sub", a.sub(b), va.sub(vb), true);
            check("mul", a.mul(b), va.mul(vb), true);
            check("div", a.div(b), va.div(vb), true);
            check("abs", a.abs(), va.abs(), false);
            check("max", a.max(b), va.max(vb), false);
            check("min", a.min(b), va.min(vb), false);
            let (p, v) = (a.zero_where_negative(b), va.zero_where_negative(vb));
            check("< 0 select", p, v, false);
            let (p, v) = (a.zero_where_nonpositive(b), va.zero_where_nonpositive(vb));
            check("<= 0 select", p, v, false);
            check("zero_nan", a.zero_nan(), va.zero_nan(), false);
            check(
                "round_ties_even",
                a.round_ties_even(),
                va.round_ties_even(),
                true,
            );
            key_masks_agree(a);
            key_masks_agree(b);
        }
        key_masks_agree(KEYED);
        assert_eq!(KEYED.key_mask(0x7FFF_FFFF), 1);
        for ints in [
            [127.0, -127.0, 0.0, -0.0, -128.0, 1.0, -1.0, 64.0],
            [126.0, -126.0, 100.0, -100.0, 5.0, -5.0, 2.0, -3.0],
        ] {
            let (mut p, mut v) = ([0i8; LANES], [0i8; LANES]);
            ints.store_i8(&mut p);
            __m256::load(&ints).store_i8(&mut v);
            assert_eq!(p, v, "store_i8 on {ints:?}");
        }
        for q in [
            [i8::MIN, -127, -1, 0, 1, 64, 126, i8::MAX],
            [5, -5, 100, -100, 2, -3, 0, -128],
        ] {
            let (p, v) = (<[f32; LANES]>::load_i8(&q), __m256::load_i8(&q));
            assert_eq!(bits(p, false), bits(v, false), "load_i8 on {q:?}");
            assert_eq!(p, q.map(f32::from), "load_i8 on {q:?}");
        }
    }

    /// `key_mask` on both lane types at floor 0, at a lane's own key, at
    /// the largest key and at the floors past it.
    fn key_masks_agree(a: [f32; LANES]) {
        let own = a[2].to_bits() & 0x7FFF_FFFF;
        for floor in [0, own, 0x7FFF_FFFF, 1 << 31, u32::MAX] {
            let (p, v) = (a.key_mask(floor), __m256::load(&a).key_mask(floor));
            assert_eq!(p, v, "key_mask({floor:#x}) on {a:?}");
        }
    }

    /// The left-pack store for every mask, on both lane types, against a
    /// scalar left-pack: the set lanes' keys and `base + l`, in lane order.
    #[test]
    fn pack_keys_left_packs_every_mask_on_both_lane_types() {
        if !avx2_available() {
            return;
        }
        let base = 1000;
        for mask in 0..256u32 {
            let expect: Vec<(u32, u32)> = (0..LANES)
                .filter(|l| mask >> l & 1 != 0)
                .map(|l| (KEYED[l].to_bits() & 0x7FFF_FFFF, base + l as u32))
                .collect();
            let (mut keys, mut positions) = ([[0; LANES]; 2], [[0; LANES]; 2]);
            let counts = [
                KEYED.pack_keys(mask, base, &mut keys[0], &mut positions[0]),
                __m256::load(&KEYED).pack_keys(mask, base, &mut keys[1], &mut positions[1]),
            ];
            for (side, n) in counts.into_iter().enumerate() {
                assert_eq!(n, expect.len(), "lane type {side}, mask {mask:#b}");
                let packed = keys[side].into_iter().zip(positions[side]).take(n);
                assert_eq!(
                    packed.collect::<Vec<_>>(),
                    expect,
                    "lane type {side}, mask {mask:#b}"
                );
            }
        }
    }
}
