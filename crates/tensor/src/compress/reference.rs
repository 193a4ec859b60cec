//! The composed, scalar codec paths the fused kernels replaced — the
//! bit-exactness oracles of `tests/compress_props.rs` and
//! `tests/chunked_kernels.rs`, like [`crate::ops::reference`] for the
//! vector kernels. Nothing outside tests calls these: they allocate
//! freely and make one full sweep per arithmetic step, exactly as the
//! production path did before it was fused.

use super::{CompressedBlock, CompressionConfig, Compressor, ErrorFeedback};
use crate::ops::reference::{abs_into, axpy};

/// `max_i |x[i] + alpha * r[i]|`: materialise, `abs_into`, then the
/// sequential NaN-skipping fold from `0.0`.
///
/// # Panics
///
/// Panics if `r` and `x` have different lengths.
pub fn max_abs_sum(alpha: f32, r: &[f32], x: &[f32]) -> f32 {
    let mut work = x.to_vec();
    axpy(alpha, r, &mut work);
    let mut abs = vec![0.0f32; work.len()];
    abs_into(&work, &mut abs);
    abs.iter().copied().fold(0.0f32, f32::max)
}

/// The int8 quantizer loop over already-compensated values: the `i8`s
/// and what the decoder will reconstruct from them.
fn quantize(work: &[f32], scale: f32, q: &mut [i8]) -> Vec<f32> {
    for (qi, &w) in q.iter_mut().zip(work) {
        *qi = if scale > 0.0 {
            (w / scale).round_ties_even().clamp(-127.0, 127.0) as i8
        } else {
            0
        };
    }
    q.iter().map(|&qi| qi as f32 * scale).collect()
}

/// The error-feedback quantize step at a given `scale`: compensate,
/// quantize, keep the rounding error.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn quantize_feedback(x: &[f32], scale: f32, residual: &mut [f32], q: &mut [i8]) {
    assert_eq!(x.len(), q.len(), "quantize_feedback length mismatch");
    let mut work = x.to_vec();
    axpy(1.0, residual, &mut work);
    let decoded = quantize(&work, scale, q);
    for ((r, &w), &d) in residual.iter_mut().zip(&work).zip(&decoded) {
        *r = w - d;
    }
}

/// The parameter-stream quantize step at a given `scale`: the delta to
/// the reference, the zero-residual compensation the composed encode
/// applied to it, quantize, dense decode, dense reference advance.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn quantize_advance(x: &[f32], scale: f32, old: &[f32], new: &mut [f32], q: &mut [i8]) {
    assert_eq!(x.len(), q.len(), "quantize_advance length mismatch");
    let mut work = x.to_vec();
    axpy(-1.0, old, &mut work);
    axpy(1.0, &vec![0.0f32; x.len()], &mut work);
    let decoded = quantize(&work, scale, q);
    new.copy_from_slice(old);
    axpy(1.0, &decoded, new);
}

/// The int8 decode loop: `out[i] = q[i] as f32 * scale`.
///
/// # Panics
///
/// Panics if `q` and `out` have different lengths.
pub fn dequantize(q: &[i8], scale: f32, out: &mut [f32]) {
    assert_eq!(q.len(), out.len(), "dequantize length mismatch");
    for (o, &qi) in out.iter_mut().zip(q) {
        *o = qi as f32 * scale;
    }
}

/// A receiver's int8 stream step as a loop: `new[i] = old[i] + q[i] as
/// f32 * scale`, in place (`old` is `new` itself) when `old` is `None`.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn advance_dequantized(q: &[i8], scale: f32, old: Option<&[f32]>, new: &mut [f32]) {
    assert_eq!(q.len(), new.len(), "advance_dequantized length mismatch");
    if let Some(old) = old {
        new.copy_from_slice(old);
    }
    for (n, &qi) in new.iter_mut().zip(q) {
        *n += qi as f32 * scale;
    }
}

fn int8_scale(max_abs: f32) -> f32 {
    if max_abs > 0.0 {
        max_abs / 127.0
    } else {
        0.0
    }
}

/// The composed error-feedback encode of `cfg`'s codec: what
/// [`Compressor::encode_into`] must reproduce bit for bit.
///
/// # Panics
///
/// Panics if `ef` already holds a residual of another length.
pub fn encode_into(
    cfg: CompressionConfig,
    input: &[f32],
    ef: &mut ErrorFeedback,
    out: &mut CompressedBlock,
) {
    let len = input.len();
    match cfg {
        CompressionConfig::Identity => {
            *out = CompressedBlock::Dense {
                values: input.to_vec(),
            };
        }
        CompressionConfig::TopK { .. } => {
            ef.ensure(len);
            let mut work = input.to_vec();
            axpy(1.0, &ef.residual, &mut work);
            let mut abs = vec![0.0f32; len];
            abs_into(&work, &mut abs);
            let k = cfg.k_for(len);
            let mut order: Vec<u32> = (0..len as u32).collect();
            if k < len {
                // Total order: larger magnitude first, lower index on
                // ties — the kept set is unique.
                order.select_nth_unstable_by(k, |&i, &j| {
                    abs[j as usize]
                        .total_cmp(&abs[i as usize])
                        .then_with(|| i.cmp(&j))
                });
                order.truncate(k);
            }
            order.sort_unstable();
            // Kept entries decode exactly, so their residual is zero;
            // every dropped entry carries its full compensated value.
            ef.residual.copy_from_slice(&work);
            for &i in &order {
                ef.residual[i as usize] = 0.0;
            }
            *out = CompressedBlock::Sparse {
                len: len as u32,
                values: order.iter().map(|&i| work[i as usize]).collect(),
                indices: order,
            };
        }
        CompressionConfig::Int8Uniform => {
            ef.ensure(len);
            let scale = int8_scale(max_abs_sum(1.0, &ef.residual, input));
            let mut values = vec![0i8; len];
            quantize_feedback(input, scale, &mut ef.residual, &mut values);
            *out = CompressedBlock::Quantized { scale, values };
        }
    }
}

/// The composed parameter-stream step: encode `params - reference` with
/// a zero residual, decode the block densely, add it to the reference.
/// [`super::Codec::encode_step`] must leave the same block and the same
/// reference.
///
/// # Panics
///
/// Panics if `params` and `reference` have different lengths.
pub fn param_step(
    cfg: CompressionConfig,
    params: &[f32],
    reference: &mut [f32],
    out: &mut CompressedBlock,
) {
    let mut delta = params.to_vec();
    axpy(-1.0, reference, &mut delta);
    encode_into(cfg, &delta, &mut ErrorFeedback::new(), out);
    let mut decoded = vec![0.0f32; params.len()];
    match out {
        CompressedBlock::Quantized { scale, values } => dequantize(values, *scale, &mut decoded),
        block => cfg.codec().decode_into(block, &mut decoded),
    }
    axpy(1.0, &decoded, reference);
}
