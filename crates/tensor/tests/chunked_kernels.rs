//! Bit-exactness properties of the SIMD-dispatched vector kernels and
//! the sharing guarantees of [`ParamBlock`].
//!
//! The dispatched `axpy`/`axpby`/`scale`/`mean_into` — and each
//! `ops::simd::Backend` (portable `[f32; 8]`, AVX2 where the host supports
//! it) individually — must produce the *same bits* as the naive scalar
//! references in `ops::reference` for every length, in particular
//! across the remainder boundary (lengths that are not lane multiples).
//! Lengths 0–67 cover empty, sub-lane, exact-multiple and remainder
//! cases. The same holds for the fused kernels — the one-sweep
//! `scaled_sum` behind both Reduce flavours, with and without the SGD
//! step it ends a parallel-order Reduce with, and the int8 stream-step
//! kernels in `compress::kernels` — against the composed sequences they
//! replaced (`ops::reference::scaled_sum` and the scalar velocity pass,
//! `compress::reference`), on inputs that include NaN, ±inf, ±0.0 and
//! subnormals.

use hop_tensor::compress::reference as composed;
use hop_tensor::ops::simd::Backend;
use hop_tensor::{ops, ParamBlock};
use proptest::prelude::*;

/// Every kernel backend this host can run, by name: the free functions'
/// pick, then each one explicitly (AVX2 only where the CPU has it).
fn backends() -> Vec<(&'static str, Backend)> {
    let mut all = vec![
        ("dispatch", Backend::host()),
        ("portable", Backend::Portable),
    ];
    if ops::simd::avx2_available() {
        all.push(("avx2", Backend::Avx2));
    }
    all
}

/// Deterministic pseudo-random values in roughly [-4, 4].
fn values(mut seed: u64, len: usize) -> Vec<f32> {
    (0..len)
        .map(|_| {
            seed ^= seed >> 12;
            seed ^= seed << 25;
            seed ^= seed >> 27;
            let raw = seed.wrapping_mul(0x2545_F491_4F6C_DD1D);
            ((raw >> 40) as f32 / (1u64 << 24) as f32) * 8.0 - 4.0
        })
        .collect()
}

fn bits(x: &[f32]) -> Vec<u32> {
    x.iter().map(|v| v.to_bits()).collect()
}

/// [`values`] with every class of awkward float sprinkled in: NaN, both
/// infinities, both zeros, subnormals and near-overflow magnitudes.
fn hostile(seed: u64, len: usize) -> Vec<f32> {
    let mut out = values(seed, len);
    for (i, v) in out.iter_mut().enumerate() {
        match (seed as usize + i * 7) % 23 {
            0 => *v = f32::NAN,
            2 => *v = f32::INFINITY,
            4 => *v = f32::NEG_INFINITY,
            6 => *v = -0.0,
            8 => *v = 0.0,
            10 => *v = f32::from_bits(1 + (seed as u32 ^ i as u32) % 0x7F_FFFF),
            12 => *v = -f32::from_bits(1 + (i as u32 * 977) % 0x7F_FFFF),
            14 => *v *= 1e38,
            _ => {}
        }
    }
    out
}

/// Bit patterns with all NaNs folded into one: Rust leaves the sign and
/// payload of an arithmetic NaN unspecified (the compiler may commute or
/// fold the operation that produced it), and no non-NaN result of these
/// kernels depends on them. Everything else — signed zeros, subnormals,
/// infinities — compares exactly.
fn bits_nan_folded(x: &[f32]) -> Vec<u32> {
    let fold = |v: &f32| if v.is_nan() { u32::MAX } else { v.to_bits() };
    x.iter().map(fold).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn axpy_matches_reference_bitwise(len in 0usize..68, seed in 0u64..1_000_000_000) {
        let alpha = values(seed ^ 0xA1, 1).first().copied().unwrap_or(0.0);
        let x = values(seed, len);
        let y0 = values(seed ^ 0xB2, len);
        let mut chunked = y0.clone();
        let mut scalar = y0;
        ops::axpy(alpha, &x, &mut chunked);
        ops::reference::axpy(alpha, &x, &mut scalar);
        prop_assert_eq!(bits(&chunked), bits(&scalar));
    }

    #[test]
    fn axpby_matches_reference_bitwise(len in 0usize..68, seed in 0u64..1_000_000_000) {
        let coeffs = values(seed ^ 0xC3, 2);
        let (alpha, beta) = (coeffs.first().copied().unwrap_or(0.5), coeffs[1]);
        let x = values(seed, len);
        let y0 = values(seed ^ 0xD4, len);
        let mut chunked = y0.clone();
        let mut scalar = y0;
        ops::axpby(alpha, &x, beta, &mut chunked);
        ops::reference::axpby(alpha, &x, beta, &mut scalar);
        prop_assert_eq!(bits(&chunked), bits(&scalar));
    }

    #[test]
    fn scale_matches_reference_bitwise(len in 0usize..68, seed in 0u64..1_000_000_000) {
        let alpha = values(seed ^ 0xE5, 1).first().copied().unwrap_or(0.0);
        let x0 = values(seed, len);
        let mut chunked = x0.clone();
        let mut scalar = x0;
        ops::scale(alpha, &mut chunked);
        ops::reference::scale(alpha, &mut scalar);
        prop_assert_eq!(bits(&chunked), bits(&scalar));
    }

    #[test]
    fn mean_into_matches_reference_bitwise(
        len in 0usize..68,
        n_inputs in 1usize..5,
        seed in 0u64..1_000_000_000,
    ) {
        let inputs: Vec<Vec<f32>> = (0..n_inputs)
            .map(|i| values(seed ^ (i as u64 + 1), len))
            .collect();
        let views: Vec<&[f32]> = inputs.iter().map(Vec::as_slice).collect();
        let mut chunked = vec![1.0f32; len];
        let mut scalar = vec![1.0f32; len];
        ops::mean_into(&views, &mut chunked);
        ops::reference::mean_into(&views, &mut scalar);
        prop_assert_eq!(bits(&chunked), bits(&scalar));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn portable_backend_matches_reference_bitwise(len in 0usize..68, seed in 0u64..1_000_000_000) {
        let coeffs = values(seed ^ 0xF6, 2);
        let (alpha, beta) = (coeffs.first().copied().unwrap_or(0.5), coeffs.get(1).copied().unwrap_or(-0.5));
        let x = values(seed, len);
        let y0 = values(seed ^ 0x17, len);

        let mut simd = y0.clone();
        let mut scalar = y0.clone();
        Backend::Portable.axpy(alpha, &x, &mut simd);
        ops::reference::axpy(alpha, &x, &mut scalar);
        prop_assert_eq!(bits(&simd), bits(&scalar));

        let mut simd = y0.clone();
        let mut scalar = y0.clone();
        Backend::Portable.axpby(alpha, &x, beta, &mut simd);
        ops::reference::axpby(alpha, &x, beta, &mut scalar);
        prop_assert_eq!(bits(&simd), bits(&scalar));

        let mut simd = y0.clone();
        let mut scalar = y0;
        Backend::Portable.scale(alpha, &mut simd);
        ops::reference::scale(alpha, &mut scalar);
        prop_assert_eq!(bits(&simd), bits(&scalar));
    }

    #[test]
    fn avx2_backend_matches_reference_bitwise(len in 0usize..68, seed in 0u64..1_000_000_000) {
        if ops::simd::avx2_available() {
            let coeffs = values(seed ^ 0x28, 2);
            let (alpha, beta) = (coeffs.first().copied().unwrap_or(0.5), coeffs.get(1).copied().unwrap_or(-0.5));
            let x = values(seed, len);
            let y0 = values(seed ^ 0x39, len);

            let mut simd = y0.clone();
            let mut scalar = y0.clone();
            Backend::Avx2.axpy(alpha, &x, &mut simd);
            ops::reference::axpy(alpha, &x, &mut scalar);
            prop_assert_eq!(bits(&simd), bits(&scalar));

            let mut simd = y0.clone();
            let mut scalar = y0.clone();
            Backend::Avx2.axpby(alpha, &x, beta, &mut simd);
            ops::reference::axpby(alpha, &x, beta, &mut scalar);
            prop_assert_eq!(bits(&simd), bits(&scalar));

            let mut simd = y0.clone();
            let mut scalar = y0;
            Backend::Avx2.scale(alpha, &mut simd);
            ops::reference::scale(alpha, &mut scalar);
            prop_assert_eq!(bits(&simd), bits(&scalar));
        }
    }
}

/// The two explicit backends must agree with each other bitwise on an
/// AVX2 host (skipped, trivially, elsewhere) — including values where an
/// FMA-contracted kernel would diverge from mul-then-add.
#[test]
fn avx2_and_portable_backends_agree_bitwise() {
    if !ops::simd::avx2_available() {
        return;
    }
    for len in 0..=67usize {
        let x = values(len as u64 + 201, len);
        let y0 = values(len as u64 + 307, len);
        // 1/3 is inexact in binary: alpha * x rounds, so a fused
        // multiply-add would produce different low bits than mul + add.
        let alpha = 1.0f32 / 3.0;
        let beta = -2.0f32 / 3.0;

        let mut a = y0.clone();
        let mut b = y0.clone();
        Backend::Avx2.axpy(alpha, &x, &mut a);
        Backend::Portable.axpy(alpha, &x, &mut b);
        assert_eq!(bits(&a), bits(&b), "axpy len {len}");

        let mut a = y0.clone();
        let mut b = y0.clone();
        Backend::Avx2.axpby(alpha, &x, beta, &mut a);
        Backend::Portable.axpby(alpha, &x, beta, &mut b);
        assert_eq!(bits(&a), bits(&b), "axpby len {len}");

        let mut a = y0.clone();
        let mut b = y0;
        Backend::Avx2.scale(alpha, &mut a);
        Backend::Portable.scale(alpha, &mut b);
        assert_eq!(bits(&a), bits(&b), "scale len {len}");
    }
}

/// Exhaustive sweep over every length in 0..=67 (the property tests
/// sample; this pins the full remainder-boundary range).
#[test]
fn every_length_up_to_67_is_bit_identical() {
    for len in 0..=67usize {
        let x = values(len as u64 + 11, len);
        let y0 = values(len as u64 + 97, len);

        let mut chunked = y0.clone();
        let mut scalar = y0.clone();
        ops::axpy(1.5, &x, &mut chunked);
        ops::reference::axpy(1.5, &x, &mut scalar);
        assert_eq!(bits(&chunked), bits(&scalar), "axpy len {len}");

        let mut chunked = y0.clone();
        let mut scalar = y0.clone();
        ops::axpby(-0.25, &x, 0.75, &mut chunked);
        ops::reference::axpby(-0.25, &x, 0.75, &mut scalar);
        assert_eq!(bits(&chunked), bits(&scalar), "axpby len {len}");

        let mut chunked = y0.clone();
        let mut scalar = y0;
        ops::scale(std::f32::consts::PI, &mut chunked);
        ops::reference::scale(std::f32::consts::PI, &mut scalar);
        assert_eq!(bits(&chunked), bits(&scalar), "scale len {len}");
    }
}

/// Exhaustive 0..=67 sweep for the elementwise kernels added to the
/// dispatch layer (`fill`, `relu`, `relu_backward`): the dispatched pick
/// and every explicit backend must match the scalar reference bit for
/// bit, including at remainder lengths and on negative zeros (where a
/// naive `max(0, x)` and a sign-mask select can legally disagree).
#[test]
fn elementwise_kernels_are_bit_identical_up_to_67() {
    for len in 0..=67usize {
        // Mix in exact zeros and negative zeros alongside random values.
        let mut x = values(len as u64 + 53, len);
        for (i, v) in x.iter_mut().enumerate() {
            match i % 7 {
                3 => *v = 0.0,
                5 => *v = -0.0,
                _ => {}
            }
        }
        let g0 = values(len as u64 + 131, len);

        for (name, backend) in backends() {
            let mut out = g0.clone();
            let mut expect = g0.clone();
            backend.fill(-1.25, &mut out);
            ops::reference::fill(-1.25, &mut expect);
            assert_eq!(bits(&out), bits(&expect), "fill/{name} len {len}");

            let mut out = x.clone();
            let mut expect = x.clone();
            backend.relu(&mut out);
            ops::reference::relu(&mut expect);
            assert_eq!(bits(&out), bits(&expect), "relu/{name} len {len}");

            let mut out = g0.clone();
            let mut expect = g0.clone();
            backend.relu_backward(&x, &mut out);
            ops::reference::relu_backward(&x, &mut expect);
            assert_eq!(bits(&out), bits(&expect), "relu_backward/{name} len {len}");
        }
    }
}

/// The parallel-order SGD step as it ran before it was folded into the
/// Reduce sweep, kept alive as this file's oracle: the optimizer's
/// velocity advance, `v = momentum * v + g + weight_decay * p`, over the
/// whole vector, then `axpy(-lr, v, reduced)`.
fn composed_step(step: &Step, velocity: &mut [f32], reduced: &mut [f32]) {
    for ((v, g), p) in velocity.iter_mut().zip(&step.grad).zip(&step.params) {
        *v = step.momentum * *v + g + step.weight_decay * p;
    }
    ops::reference::axpy(-step.lr, velocity, reduced);
}

/// An [`ops::SgdStep`]'s inputs, owned.
struct Step {
    lr: f32,
    momentum: f32,
    weight_decay: f32,
    grad: Vec<f32>,
    params: Vec<f32>,
    velocity: Vec<f32>,
}

impl Step {
    /// The step's vectors at `len`, ordinary or hostile by `seed`, with
    /// inexact scalars: a fused multiply-add, or two of them swapped,
    /// would show.
    fn new(seed: u64, len: usize) -> Self {
        let draw = |k: u64| match (seed + k) % 3 {
            0 => hostile(seed * 13 + k, len),
            _ => values(seed * 11 + k, len),
        };
        Step {
            lr: 0.1,
            momentum: 0.9,
            weight_decay: 1e-7,
            grad: draw(1),
            params: draw(2),
            velocity: draw(3),
        }
    }

    /// The kernel's view, advancing `velocity`.
    fn view<'a>(&'a self, velocity: &'a mut [f32]) -> ops::SgdStep<'a> {
        ops::SgdStep {
            lr: self.lr,
            momentum: self.momentum,
            weight_decay: self.weight_decay,
            grad: &self.grad,
            params: &self.params,
            velocity,
        }
    }
}

/// Exhaustive 0..=67 sweep for the one-sweep Reduce kernel: dispatch and
/// every backend against the composed `fill` + `axpy`… + `scale` (the
/// scalar `mean_into`, and Eq. 2's weighted Reduce), with and without weights,
/// on hostile inputs, into a destination holding junk (the kernel must
/// not read it) — and, with the fused SGD step, against that followed by
/// [`composed_step`], on ordinary and hostile gradients, parameters and
/// velocities: the same output and the same advanced velocity. Given a
/// reference (ordinary or hostile), each also returns the composed
/// `max_abs_sum(-1, reference, out)` bit for bit, with or without the
/// step (the §5 renew's Reduce has none).
#[test]
fn scaled_sum_backends_match_the_composed_reduce_up_to_67() {
    for len in 0..=67usize {
        for n_inputs in 1..=5usize {
            let inputs: Vec<Vec<f32>> = (0..n_inputs)
                .map(|j| match (len + j) % 3 {
                    0 => hostile((len * 31 + j) as u64 + 5, len),
                    _ => values((len * 17 + j) as u64 + 9, len),
                })
                .collect();
            let views: Vec<&[f32]> = inputs.iter().map(Vec::as_slice).collect();
            // 1/3 is inexact: a fused multiply-add would show.
            let mut weights = values(len as u64 + 77, n_inputs);
            weights[0] = 1.0 / 3.0;
            let factor = 1.0 / weights.iter().sum::<f32>();
            let step = Step::new((len * 7 + n_inputs) as u64, len);
            let reference = match n_inputs % 2 {
                0 => hostile(len as u64 * 3 + 1, len),
                _ => values(len as u64 * 5 + 2, len),
            };
            for (w, stepped) in [None, Some(weights.as_slice())]
                .into_iter()
                .flat_map(|w| [(w, false), (w, true)])
            {
                let mut expect = vec![f32::NAN; len];
                let mut v_expect = step.velocity.clone();
                ops::reference::scaled_sum(&views, w, factor, &mut expect);
                if stepped {
                    composed_step(&step, &mut v_expect, &mut expect);
                }
                let max_expect = composed::max_abs_sum(-1.0, &reference, &expect);
                for ((name, backend), r) in backends()
                    .into_iter()
                    .flat_map(|b| [(b, None), (b, Some(reference.as_slice()))])
                {
                    let mut out = vec![-7.5f32; len];
                    let mut velocity = step.velocity.clone();
                    let s = stepped.then(|| step.view(&mut velocity));
                    let max = backend.scaled_sum(&views, w, factor, s, r, &mut out);
                    let at = format!(
                        "{name} len {len} inputs {n_inputs} weighted {} step {stepped} \
                         reference {}",
                        w.is_some(),
                        r.is_some()
                    );
                    assert_eq!(
                        max.map(f32::to_bits),
                        r.map(|_| max_expect.to_bits()),
                        "max/{at}"
                    );
                    assert_eq!(
                        bits_nan_folded(&out),
                        bits_nan_folded(&expect),
                        "scaled_sum/{at}"
                    );
                    assert_eq!(
                        bits_nan_folded(&velocity),
                        bits_nan_folded(&v_expect),
                        "velocity/{at}"
                    );
                }
            }
        }
    }
}

/// Exhaustive 0..=67 sweep for the int8 stream-step kernels: dispatch,
/// portable and AVX2 against the composed scalar sequence, on ordinary,
/// hostile and all-zero blocks, at the block's own scale and at the
/// degenerate ones (zero, infinite, subnormal).
#[test]
fn int8_stream_kernels_match_the_composed_reference_up_to_67() {
    for len in 0..=67usize {
        let blocks = [
            (values(len as u64 + 3, len), values(len as u64 + 41, len)),
            (hostile(len as u64 + 5, len), hostile(len as u64 + 43, len)),
            (hostile(len as u64 + 7, len), values(len as u64 + 47, len)),
            (vec![0.0; len], vec![-0.0; len]),
            (vec![-0.0; len], vec![-0.0; len]),
        ];
        for (case, (x, state)) in blocks.iter().enumerate() {
            for (name, backend) in backends() {
                let at = format!("{name} len {len} case {case}");
                let mut scales = vec![0.0f32, f32::INFINITY, f32::from_bits(3), 0.013];
                for alpha in [1.0f32, -1.0] {
                    let got = backend.max_abs_sum(alpha, state, x);
                    let expect = composed::max_abs_sum(alpha, state, x);
                    assert_eq!(got.to_bits(), expect.to_bits(), "max_abs_sum({alpha}) {at}");
                    scales.push(if expect > 0.0 { expect / 127.0 } else { 0.0 });
                }
                for scale in scales {
                    let (mut r, mut r_expect) = (state.clone(), state.clone());
                    let (mut q, mut q_expect) = (vec![99i8; len], vec![-99i8; len]);
                    backend.quantize_feedback(x, scale, &mut r, &mut q);
                    composed::quantize_feedback(x, scale, &mut r_expect, &mut q_expect);
                    assert_eq!(q, q_expect, "feedback q, scale {scale:e} {at}");
                    assert_eq!(
                        bits_nan_folded(&r),
                        bits_nan_folded(&r_expect),
                        "feedback residual, scale {scale:e} {at}"
                    );

                    let (mut new, mut new_expect) = (vec![5.5f32; len], vec![-5.5f32; len]);
                    backend.quantize_advance(x, scale, state, &mut new, Some(&mut q));
                    composed::quantize_advance(x, scale, state, &mut new_expect, &mut q_expect);
                    assert_eq!(q, q_expect, "advance q, scale {scale:e} {at}");
                    assert_eq!(
                        bits_nan_folded(&new),
                        bits_nan_folded(&new_expect),
                        "advance reference, scale {scale:e} {at}"
                    );
                    // Without a block: the same reference.
                    let mut quiet = vec![3.25f32; len];
                    backend.quantize_advance(x, scale, state, &mut quiet, None);
                    assert_eq!(
                        bits_nan_folded(&quiet),
                        bits_nan_folded(&new_expect),
                        "advance without a block, scale {scale:e} {at}"
                    );
                }
            }
        }
    }
}

/// `max_abs_sum` must skip a NaN wherever it falls relative to the
/// maximum: 72 elements put two passes of the 4-accumulator loop and one
/// 8-wide pass behind every lane, and every (maximum, NaN) placement is
/// tried — a vector max with its operands the wrong way round forgets
/// the running maximum of the lane a NaN lands in. So must the maximum
/// a `scaled_sum` measures against a reference, where 72 elements are
/// two 32-wide groups and an 8-element scalar tail: one input at factor
/// 1 writes `x` itself.
#[test]
fn max_abs_sum_skips_nan_at_every_position() {
    let len = 72;
    let state = vec![0.25f32; len];
    let mut out = vec![0.0f32; len];
    for max_at in 0..len {
        for nan_at in (0..len).filter(|&i| i != max_at) {
            let mut x = values(max_at as u64 + 19, len);
            x[max_at] = -1e6;
            x[nan_at] = f32::NAN;
            for (name, backend) in backends() {
                let got = backend.max_abs_sum(1.0, &state, &x);
                assert_eq!(got, 1e6 - 0.25, "{name}: max at {max_at}, NaN at {nan_at}");
                let measured = backend.scaled_sum(&[&x], None, 1.0, None, Some(&state), &mut out);
                assert_eq!(
                    measured,
                    Some(1e6 + 0.25),
                    "{name} scaled_sum: max at {max_at}, NaN at {nan_at}"
                );
            }
        }
    }
}

/// The int8 receiver kernels on every backend against their scalar
/// loops (`compress::reference`), 0..=67 entries: a block's decode, and
/// a mirrored reference's advance in place and out of place, over every
/// `i8` (−128 included, which no encoder writes but a wire may carry),
/// ordinary and hostile references, at ordinary and degenerate scales.
#[test]
fn int8_receiver_kernels_match_their_loops_up_to_67() {
    for len in 0..=67usize {
        let q: Vec<i8> = (0..len).map(|i| (i as i32 * 37 - 128) as i8).collect();
        for (case, old) in [values(len as u64 + 11, len), hostile(len as u64 + 13, len)]
            .iter()
            .enumerate()
        {
            for scale in [0.013f32, 0.0, f32::INFINITY, f32::from_bits(3), -2.5] {
                let at = format!("len {len} case {case} scale {scale:e}");
                let mut decoded = vec![f32::NAN; len];
                composed::dequantize(&q, scale, &mut decoded);
                let mut advanced = vec![f32::NAN; len];
                composed::advance_dequantized(&q, scale, Some(old), &mut advanced);
                for (name, backend) in backends() {
                    let mut out = vec![7.0f32; len];
                    backend.dequantize(&q, scale, &mut out);
                    assert_eq!(
                        bits_nan_folded(&out),
                        bits_nan_folded(&decoded),
                        "{name} {at}"
                    );
                    let mut out = vec![7.0f32; len];
                    backend.advance_dequantized(&q, scale, Some(old), &mut out);
                    let expect = bits_nan_folded(&advanced);
                    assert_eq!(bits_nan_folded(&out), expect, "{name} out of place, {at}");
                    let mut in_place = old.clone();
                    backend.advance_dequantized(&q, scale, None, &mut in_place);
                    assert_eq!(bits_nan_folded(&in_place), expect, "{name} in place, {at}");
                }
            }
        }
    }
}

/// The acceptance check for the zero-copy plane: a snapshot is a
/// refcount bump on the same allocation, not a copy.
#[test]
fn snapshot_shares_the_allocation() {
    let block = ParamBlock::from_vec(values(3, 256));
    assert_eq!(block.strong_count(), 1);
    let sent_to_neighbor = block.snapshot();
    let queued = block.snapshot();
    assert_eq!(block.strong_count(), 3);
    assert!(sent_to_neighbor.ptr_eq(&block) && queued.ptr_eq(&block));
    assert_eq!(
        sent_to_neighbor.as_slice().as_ptr(),
        block.as_slice().as_ptr()
    );
    drop(queued);
    assert_eq!(block.strong_count(), 2);
}
