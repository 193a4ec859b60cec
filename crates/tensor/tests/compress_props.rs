//! Property tests for the deterministic message codecs in
//! [`hop_tensor::compress`].
//!
//! The invariants pinned here are the ones the communication plane is
//! built on: the identity codec round-trips bitwise, top-k keeps exactly
//! `k_for(len)` entries with canonical ascending indices, error feedback
//! conserves mass (`decoded + new_residual == input + old_residual`),
//! int8 reconstruction stays within half a quantization step, and ties
//! break deterministically by index. Lengths 0..=67 exercise empty,
//! sub-lane, lane-multiple and remainder blocks.
//!
//! The second half pins the fused production paths to the composed
//! sequences they replaced (`compress::reference`): over several rounds
//! of either stream step, the wire block, the residual, the sender's
//! reference (= the reconstruction shipped) and a receiver's mirror are
//! the same bits, on blocks that include NaN, ±inf, −0.0, subnormals,
//! all-zero and all-equal-magnitude inputs.

use hop_tensor::compress::kernels::ScanSource;
use hop_tensor::compress::reference as composed;
use hop_tensor::ops::simd::{avx2_available, Backend};
use hop_tensor::{
    BufferPool, Codec, CompressedBlock, CompressionConfig, Compressor, ErrorFeedback, ParamStream,
};
use proptest::prelude::*;

/// Deterministic pseudo-random values in roughly [-4, 4], with exact
/// zeros mixed in.
fn values(mut seed: u64, len: usize) -> Vec<f32> {
    (0..len)
        .map(|i| {
            seed ^= seed >> 12;
            seed ^= seed << 25;
            seed ^= seed >> 27;
            let raw = seed.wrapping_mul(0x2545_F491_4F6C_DD1D);
            if i % 11 == 7 {
                0.0
            } else {
                ((raw >> 40) as f32 / (1u64 << 24) as f32) * 8.0 - 4.0
            }
        })
        .collect()
}

fn encode(codec: &mut Codec, input: &[f32], ef: &mut ErrorFeedback) -> (CompressedBlock, Vec<f32>) {
    let mut pool = BufferPool::new();
    let mut block = CompressedBlock::default();
    codec.encode_into(input, ef, &mut pool, &mut block);
    let mut decoded = vec![0.0f32; block.decoded_len()];
    codec.decode_into(&block, &mut decoded);
    (block, decoded)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn identity_round_trips_bitwise(len in 0usize..68, seed in 0u64..1_000_000_000) {
        let input = values(seed, len);
        let mut codec = Codec::new(CompressionConfig::Identity);
        let mut ef = ErrorFeedback::new();
        let (block, decoded) = encode(&mut codec, &input, &mut ef);
        prop_assert_eq!(block.encoded_bytes(), 4 * len as u64);
        let in_bits: Vec<u32> = input.iter().map(|v| v.to_bits()).collect();
        let out_bits: Vec<u32> = decoded.iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(in_bits, out_bits);
        prop_assert!(ef.residual().iter().all(|&r| r == 0.0), "identity must not leave residue");
    }

    #[test]
    fn topk_keeps_exactly_k_canonical_entries(
        len in 1usize..68,
        seed in 0u64..1_000_000_000,
        ratio_pct in 1u32..101,
    ) {
        let cfg = CompressionConfig::TopK { ratio: ratio_pct as f32 / 100.0 };
        let input = values(seed, len);
        let mut codec = Codec::new(cfg);
        let mut ef = ErrorFeedback::new();
        let (block, _) = encode(&mut codec, &input, &mut ef);
        let CompressedBlock::Sparse { len: blen, indices, values } = &block else {
            panic!("top-k must produce a sparse block");
        };
        prop_assert_eq!(*blen as usize, len);
        prop_assert_eq!(indices.len(), cfg.k_for(len));
        prop_assert_eq!(values.len(), indices.len());
        prop_assert!(
            indices.windows(2).all(|w| w[0] < w[1]),
            "indices must be strictly ascending"
        );
        // Exactness of the selection: every dropped magnitude is <= every
        // kept magnitude (the kept set is a true top-k by |value|).
        let kept: Vec<bool> = {
            let mut k = vec![false; len];
            for &i in indices {
                k[i as usize] = true;
            }
            k
        };
        let min_kept = indices
            .iter()
            .map(|&i| input[i as usize].abs())
            .fold(f32::INFINITY, f32::min);
        for (i, v) in input.iter().enumerate() {
            if !kept[i] {
                prop_assert!(v.abs() <= min_kept, "dropped |{v}| above kept minimum {min_kept}");
            }
        }
    }

    #[test]
    fn error_feedback_conserves_mass_for_topk(
        len in 1usize..68,
        seed in 0u64..1_000_000_000,
    ) {
        // decoded + new_residual == input + old_residual, exactly: top-k
        // either ships a compensated value verbatim (residual 0) or
        // drops it whole into the residual.
        let mut codec = Codec::new(CompressionConfig::TopK { ratio: 0.25 });
        let mut ef = ErrorFeedback::new();
        let input = values(seed, len);
        for round in 0..4u64 {
            let old: Vec<f32> = if ef.residual().is_empty() {
                vec![0.0; len]
            } else {
                ef.residual().to_vec()
            };
            let (_, decoded) = encode(&mut codec, &input, &mut ef);
            for i in 0..len {
                let conserved = decoded[i] + ef.residual()[i];
                let compensated = input[i] + old[i];
                prop_assert!(
                    conserved == compensated,
                    "round {round}: index {i} leaked mass ({conserved} vs {compensated})"
                );
            }
        }
    }

    #[test]
    fn int8_error_stays_within_half_a_step(len in 1usize..68, seed in 0u64..1_000_000_000) {
        let input = values(seed, len);
        let mut codec = Codec::new(CompressionConfig::Int8Uniform);
        let mut ef = ErrorFeedback::new();
        let (block, decoded) = encode(&mut codec, &input, &mut ef);
        prop_assert_eq!(block.encoded_bytes(), 4 + 4 + len as u64);
        let max = input.iter().fold(0.0f32, |m, v| m.max(v.abs()));
        let step = max / 127.0;
        for (i, (&x, &d)) in input.iter().zip(&decoded).enumerate() {
            prop_assert!(
                (x - d).abs() <= step * 0.500_001,
                "index {i}: |{x} - {d}| exceeds half step {step}"
            );
            // And the residual records exactly the rounding error.
            prop_assert!(ef.residual()[i] == x - d, "index {i} residual mismatch");
        }
    }

    #[test]
    fn encoding_is_deterministic(len in 0usize..68, seed in 0u64..1_000_000_000) {
        // Same input, fresh state: bit-identical wire blocks for every
        // codec (the property the pinned digest tables rest on).
        for cfg in [
            CompressionConfig::Identity,
            CompressionConfig::TopK { ratio: 0.1 },
            CompressionConfig::Int8Uniform,
        ] {
            let input = values(seed, len);
            let (a, _) = encode(&mut Codec::new(cfg), &input, &mut ErrorFeedback::new());
            let (b, _) = encode(&mut Codec::new(cfg), &input, &mut ErrorFeedback::new());
            prop_assert_eq!(a, b);
        }
    }
}

/// The adversarial tie case: every entry has the same magnitude, so the
/// stable `(|value|, index)` order must fall back to index and keep the
/// lowest `k` positions — on every run, regardless of the selection
/// algorithm's internal pivoting.
#[test]
fn all_equal_input_breaks_ties_by_index() {
    for len in 1..=67usize {
        for sign in [1.0f32, -1.0] {
            let cfg = CompressionConfig::TopK { ratio: 0.25 };
            let input = vec![sign * 1.5; len];
            let (block, decoded) = encode(&mut Codec::new(cfg), &input, &mut ErrorFeedback::new());
            let CompressedBlock::Sparse {
                indices, values, ..
            } = &block
            else {
                panic!("top-k must produce a sparse block");
            };
            let k = cfg.k_for(len);
            let expect: Vec<u32> = (0..k as u32).collect();
            assert_eq!(indices, &expect, "len {len} sign {sign}");
            assert!(values.iter().all(|&v| v == sign * 1.5));
            assert!(decoded[..k].iter().all(|&v| v == sign * 1.5));
            assert!(decoded[k..].iter().all(|&v| v == 0.0));
        }
    }
}

/// An empty block must encode and decode without panicking for every
/// codec (the engine never sends one, but the codecs are public API).
#[test]
fn empty_blocks_are_harmless() {
    for cfg in [
        CompressionConfig::Identity,
        CompressionConfig::TopK { ratio: 0.5 },
        CompressionConfig::Int8Uniform,
    ] {
        let (block, decoded) = encode(&mut Codec::new(cfg), &[], &mut ErrorFeedback::new());
        assert_eq!(block.decoded_len(), 0);
        assert!(decoded.is_empty());
    }
}

/// A block of one of six kinds: ordinary values, values laced with every
/// awkward float class, all `+0.0`, all `-0.0`, one magnitude with mixed
/// signs, or subnormals only.
fn block(kind: u32, seed: u64, len: usize) -> Vec<f32> {
    let base = values(seed, len);
    let pick = |i: usize| (seed as usize).wrapping_add(i * 7) % 19;
    match kind % 6 {
        0 => base,
        1 => base
            .iter()
            .enumerate()
            .map(|(i, &v)| match pick(i) {
                0 => f32::NAN,
                2 => f32::INFINITY,
                4 => f32::NEG_INFINITY,
                6 => -0.0,
                8 => f32::from_bits(1 + (i as u32 * 7919) % 0x7F_FFFF),
                10 => v * 1e38,
                12 => v * 1e-38,
                _ => v,
            })
            .collect(),
        2 => vec![0.0; len],
        3 => vec![-0.0; len],
        4 => base.iter().map(|v| 1.5f32.copysign(*v)).collect(),
        _ => base
            .iter()
            .map(|v| f32::from_bits(v.to_bits() & 0x807F_FFFF))
            .collect(),
    }
}

/// A float's bits with all NaNs folded into one pattern: Rust leaves an
/// arithmetic NaN's sign and payload unspecified, and nothing non-NaN in
/// a codec depends on them. Signed zeros, subnormals and infinities
/// compare exactly.
fn word(v: f32) -> u32 {
    if v.is_nan() {
        u32::MAX
    } else {
        v.to_bits()
    }
}

fn words(x: &[f32]) -> Vec<u32> {
    x.iter().copied().map(word).collect()
}

/// The wire content of a block as words (kind, header, payload).
fn block_words(block: &CompressedBlock) -> Vec<u32> {
    match block {
        CompressedBlock::Dense { values } => [vec![0], words(values)].concat(),
        CompressedBlock::Sparse {
            len,
            indices,
            values,
        } => [vec![1, *len], indices.clone(), words(values)].concat(),
        CompressedBlock::Quantized { scale, values } => {
            let q = values.iter().map(|&q| q as u32);
            [1u32 << 31, word(*scale)].into_iter().chain(q).collect()
        }
    }
}

const LOSSY: [CompressionConfig; 4] = [
    CompressionConfig::Int8Uniform,
    CompressionConfig::TopK { ratio: 0.01 },
    CompressionConfig::TopK { ratio: 0.3 },
    CompressionConfig::TopK { ratio: 1.0 },
];

/// `rounds` error-feedback steps of the fused codec and of the composed
/// reference on the same inputs: same block, same residual, each round.
fn check_feedback_rounds(cfg: CompressionConfig, kind: u32, seed: u64, len: usize, rounds: u64) {
    let mut codec = Codec::new(cfg);
    let (mut ef, mut ef_composed) = (ErrorFeedback::new(), ErrorFeedback::new());
    let (mut out, mut out_composed) = (CompressedBlock::default(), CompressedBlock::default());
    let mut pool = BufferPool::new();
    for round in 0..rounds {
        // Alternate the block kind so residuals meet fresh specials.
        let input = block(kind + round as u32 % 2, seed ^ (round * 0x9E37), len);
        codec.encode_into(&input, &mut ef, &mut pool, &mut out);
        composed::encode_into(cfg, &input, &mut ef_composed, &mut out_composed);
        let at = format!("{} kind {kind} len {len} round {round}", cfg.label());
        assert_eq!(block_words(&out), block_words(&out_composed), "block, {at}");
        assert_eq!(
            words(ef.residual()),
            words(ef_composed.residual()),
            "residual, {at}"
        );
    }
}

/// `rounds` parameter-stream steps: the fused sender, a receiver mirror
/// fed the sender's blocks, and the composed reference stay bit-equal in
/// block, reference and reconstruction; so does a second sender that
/// ships its reconstruction (`advance_step`, no int8 block written) and
/// is handed the step's maximum every other round, as a Reduce that
/// measured it would.
fn check_stream_rounds(cfg: CompressionConfig, kind: u32, seed: u64, len: usize, rounds: u64) {
    let init = block(kind + 1, seed ^ 0xABCD, len);
    let mut codec = Codec::new(cfg);
    let (mut sender, mut receiver) = (ParamStream::new(&init), ParamStream::new(&init));
    let mut quiet = ParamStream::new(&init);
    let mut reference = init;
    let (mut out, mut out_composed) = (CompressedBlock::default(), CompressedBlock::default());
    let mut scratch = CompressedBlock::default();
    let mut pool = BufferPool::new();
    for round in 0..rounds {
        let params = block(kind + round as u32 % 3, seed ^ (round * 0x51ED), len);
        codec.encode_step(&params, &mut sender, None, &mut pool, &mut out);
        let shipped = sender.reference().snapshot();
        receiver.apply(&out, &mut pool);
        composed::param_step(cfg, &params, &mut reference, &mut out_composed);
        let hint =
            (round % 2 == 0).then(|| composed::max_abs_sum(-1.0, quiet.reference(), &params));
        let bytes = codec.advance_step(&params, &mut quiet, hint, &mut pool, &mut scratch);
        let at = format!("{} kind {kind} len {len} round {round}", cfg.label());
        assert_eq!(block_words(&out), block_words(&out_composed), "block, {at}");
        assert_eq!(words(&shipped), words(&reference), "reference, {at}");
        assert_eq!(
            words(quiet.reference()),
            words(&reference),
            "unread block, {at}"
        );
        assert_eq!(bytes, out.encoded_bytes(), "unread block's bytes, {at}");
        assert_eq!(
            words(receiver.reference()),
            words(&reference),
            "mirror, {at}"
        );
        // The invariant the sparse advance rests on.
        assert!(
            shipped.iter().all(|v| v.to_bits() != (-0.0f32).to_bits()),
            "reference holds -0.0, {at}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn fused_feedback_step_equals_the_composed_reference(
        len in 0usize..68,
        seed in 0u64..1_000_000_000,
        kind in 0u32..6,
    ) {
        for cfg in LOSSY {
            check_feedback_rounds(cfg, kind, seed, len, 5);
        }
    }

    #[test]
    fn fused_stream_step_equals_the_composed_reference(
        len in 0usize..68,
        seed in 0u64..1_000_000_000,
        kind in 0u32..6,
    ) {
        for cfg in LOSSY {
            check_stream_rounds(cfg, kind, seed, len, 5);
        }
    }
}

/// The same two equalities on blocks long enough for the top-k histogram
/// to spread over many buckets and for every kernel to run its main
/// loop, its 8-wide loop and its scalar tail.
#[test]
fn fused_steps_equal_the_composed_reference_on_long_blocks() {
    for (len, seed) in [(1000usize, 11u64), (4099, 12), (8192 + 37, 13)] {
        for kind in 0..6 {
            for cfg in LOSSY {
                check_feedback_rounds(cfg, kind, seed, len, 3);
                check_stream_rounds(cfg, kind, seed, len, 3);
            }
        }
    }
}

// --- The top-k selection floor ------------------------------------------
//
// A stream carries a `SelectionHint` from one encode to the next. The
// suites below pin the one property that makes that safe — the hint
// decides what an encode costs, never what it produces — and the policy
// that makes it worthwhile (few histogram passes, streams that share a
// codec do not share a floor).

/// `block`'s six kinds plus a seventh with a handful of distinct
/// magnitudes, so that the k-th largest is tied with its neighbours on
/// both sides.
fn hint_block(kind: u32, seed: u64, len: usize) -> Vec<f32> {
    match kind {
        6 => values(seed, len)
            .iter()
            .map(|v| (v * 2.0).round() / 2.0)
            .collect(),
        _ => block(kind, seed, len),
    }
}

fn key(v: f32) -> u32 {
    v.to_bits() & 0x7FFF_FFFF
}

/// The selection rule stated directly: positions by key descending, then
/// index ascending; the first `k`, reported in ascending order.
fn oracle_kept(w: &[f32], k: usize) -> Vec<u32> {
    let mut order: Vec<u32> = (0..w.len() as u32).collect();
    order.sort_by_key(|&i| (std::cmp::Reverse(key(w[i as usize])), i));
    order.truncate(k);
    order.sort_unstable();
    order
}

fn sparse_words(len: usize, kept: &[u32], w: &[f32]) -> Vec<u32> {
    let values: Vec<f32> = kept.iter().map(|&i| w[i as usize]).collect();
    [vec![1, len as u32], kept.to_vec(), words(&values)].concat()
}

/// The floor a stream of the same shape but a thousandth of the scale
/// leaves behind.
fn unrelated_floor(cfg: CompressionConfig, seed: u64, len: usize) -> Option<u32> {
    let tiny: Vec<f32> = values(seed ^ 0xF00, len).iter().map(|v| v * 1e-3).collect();
    let mut ef = ErrorFeedback::new();
    encode(&mut Codec::new(cfg), &tiny, &mut ef);
    ef.selection().floor()
}

/// One error-feedback encode and one parameter-stream step of `input`
/// from a warmed-up state, once per planted hint: every hint must give
/// the oracle's block, residual and next reference.
fn check_hint_independence(cfg: CompressionConfig, kind: u32, seed: u64, len: usize) {
    let k = cfg.k_for(len);
    let warmup = hint_block(kind + 1, seed ^ 0x77, len);
    let input = hint_block(kind, seed, len);
    let mut pool = BufferPool::new();
    let mut out = CompressedBlock::default();

    let mut codec = Codec::new(cfg);
    let mut ef = ErrorFeedback::new();
    codec.encode_into(&warmup, &mut ef, &mut pool, &mut out);
    let mut stream = ParamStream::new(&hint_block(kind + 2, seed ^ 0x99, len));
    codec.encode_step(&warmup, &mut stream, None, &mut pool, &mut out);

    // Error feedback: w = input + residual; kept entries ship verbatim
    // and leave a zero residual, the rest stay whole.
    let w: Vec<f32> = input
        .iter()
        .zip(ef.residual())
        .map(|(x, r)| x + r)
        .collect();
    let kept = oracle_kept(&w, k);
    let mut residual = w.clone();
    for &i in &kept {
        residual[i as usize] = 0.0;
    }
    // Parameter stream: the delta through its zero-residual add; the
    // reference advances by the kept entries only.
    let old = stream.reference().as_slice().to_vec();
    let delta: Vec<f32> = input.iter().zip(&old).map(|(p, r)| (p - r) + 0.0).collect();
    let kept_delta = oracle_kept(&delta, k);
    let mut next = old;
    for &i in &kept_delta {
        next[i as usize] += delta[i as usize];
    }

    let hints = [
        None,
        Some(0x8000_0000),
        Some(0),
        unrelated_floor(cfg, seed, len),
        ef.selection().floor(),
    ];
    for hint in hints {
        let at = format!("{} kind {kind} len {len} hint {hint:?}", cfg.label());
        let mut ef = ef.clone();
        ef.selection_mut().set_floor(hint);
        codec.encode_into(&input, &mut ef, &mut pool, &mut out);
        assert_eq!(
            block_words(&out),
            sparse_words(len, &kept, &w),
            "block, {at}"
        );
        assert_eq!(words(ef.residual()), words(&residual), "residual, {at}");

        let mut stream = stream.clone();
        stream.selection_mut().set_floor(hint);
        codec.encode_step(&input, &mut stream, None, &mut pool, &mut out);
        assert_eq!(
            block_words(&out),
            sparse_words(len, &kept_delta, &delta),
            "step block, {at}"
        );
        assert_eq!(words(stream.reference()), words(&next), "reference, {at}");
    }
}

/// No floor, a floor above every key, a floor of zero, another stream's
/// floor, the stream's own: same bits, equal to the sort oracle — on
/// ordinary blocks, NaN / ±inf / ±0.0 / subnormal ones, all-zero,
/// all-equal and heavily tied ones.
#[test]
fn topk_output_does_not_depend_on_the_selection_hint() {
    for ratio in [0.001f32, 0.01, 0.1, 0.5, 1.0] {
        let cfg = CompressionConfig::TopK { ratio };
        for len in 1..=67usize {
            for kind in 0..7 {
                check_hint_independence(cfg, kind, 1000 * len as u64 + kind as u64, len);
            }
        }
        // At the ledger's block length: ordinary, special and tied.
        for kind in [0, 1, 6] {
            check_hint_independence(cfg, kind, 64 + kind as u64, 64 * 1024);
        }
    }
}

/// `SelectionHint::candidates` counts what the floor admitted: a floor of
/// zero admits the whole block, the stream's own a few times `k`, and the
/// block is the same bits either way.
#[test]
fn a_planted_floor_changes_the_candidates_but_not_the_block() {
    let cfg = CompressionConfig::TopK { ratio: 0.01 };
    let len = 4099;
    let mut pool = BufferPool::new();
    let mut codec = Codec::new(cfg);
    let mut stream = ParamStream::new(&vec![0.0; len]);
    let mut out = CompressedBlock::default();
    codec.encode_step(&values(1, len), &mut stream, None, &mut pool, &mut out);
    let params = values(2, len);
    let mut step = |floor: Option<u32>| {
        let mut stream = stream.clone();
        stream.selection_mut().set_floor(floor);
        codec.encode_step(&params, &mut stream, None, &mut pool, &mut out);
        let hint = stream.selection();
        (
            block_words(&out),
            hint.candidates(),
            hint.histogram_passes(),
        )
    };
    let (own_block, own, own_passes) = step(stream.selection().floor());
    let (zero_block, zero, zero_passes) = step(Some(0));
    let before = stream.selection().candidates();
    assert_eq!(own_block, zero_block);
    assert_eq!((own_passes, zero_passes), (1, 1), "neither floor missed");
    assert_eq!(zero - before, len as u64);
    let k = cfg.k_for(len) as u64;
    assert!(
        (k..len as u64 / 4).contains(&(own - before)),
        "{}",
        own - before
    );
}

// --- The candidate scan ---------------------------------------------------

/// Every kernel backend this host can run.
fn backends() -> Vec<Backend> {
    let mut all = vec![Backend::host(), Backend::Portable];
    if avx2_available() {
        all.push(Backend::Avx2);
    }
    all
}

/// A parameter stream's inputs whose delta holds `-0.0` (`-0.0 - 0.0`),
/// subnormals and NaN every sixth entry each, among `block`'s specials;
/// the reference holds NaN, `-0.0`, both infinities and negative
/// subnormals.
fn delta_inputs(seed: u64, len: usize) -> (Vec<f32>, Vec<f32>) {
    let (mut params, mut reference) = (block(1, seed, len), values(seed ^ 0x5A, len));
    let specials = [-0.0, f32::INFINITY, f32::NEG_INFINITY, -1e-45];
    for i in 0..len {
        match i % 6 {
            0 => (params[i], reference[i]) = (-0.0, 0.0),
            1 => (params[i], reference[i]) = (f32::from_bits(1 + i as u32), 0.0),
            2 => reference[i] = f32::NAN,
            3 => reference[i] = specials[i / 6 % specials.len()],
            _ => {}
        }
    }
    (params, reference)
}

/// The scan stated directly: `(key, index)` of every entry whose key is
/// at least `floor`, ascending by index.
fn scan_oracle(w: &[f32], floor: u32) -> Vec<(u32, u32)> {
    let keyed = w.iter().enumerate().map(|(i, &v)| (key(v), i as u32));
    keyed.filter(|&(key, _)| key >= floor).collect()
}

/// Both value sources on every backend, at no floor, floor 0, a key in
/// the block and a floor above every key: the scalar gather's candidates,
/// from buffers exactly as long as the block. The delta source reads
/// `(p - r) + 0.0`, so a `-0.0` difference is `+0.0`. With a copy output
/// the delta scan admits the same candidates and leaves the reference's
/// exact bits (NaN payloads included) in a buffer poisoned beforehand.
#[test]
fn the_candidate_scan_equals_a_scalar_gather_on_every_backend() {
    for len in (0..=67usize).chain([4099, 64 * 1024]) {
        let stored = block(1, len as u64, len);
        let (params, reference) = delta_inputs(len as u64, len);
        let delta: Vec<f32> = params
            .iter()
            .zip(&reference)
            .map(|(p, r)| (p - r) + 0.0)
            .collect();
        let sources = [
            ("values", ScanSource::Values(&stored), &stored),
            (
                "delta",
                ScanSource::Delta {
                    params: &params,
                    reference: &reference,
                },
                &delta,
            ),
        ];
        for (name, source, w) in sources {
            for (i, &v) in w.iter().enumerate() {
                assert_eq!(word(source.value(i)), word(v), "{name} value {i}");
            }
            let mut sorted: Vec<u32> = w.iter().map(|&v| key(v)).collect();
            sorted.sort_unstable();
            let present = sorted.get(len / 3).copied();
            let above = sorted.last().map(|&max| max + 1);
            for floor in [Some(u32::MAX), Some(0), present, above]
                .into_iter()
                .flatten()
            {
                for backend in backends() {
                    let (mut keys, mut positions) = (vec![0; len], vec![0; len]);
                    let n = backend.topk_candidates(source, floor, &mut keys, &mut positions, None);
                    let got: Vec<(u32, u32)> = keys.into_iter().zip(positions).take(n).collect();
                    let at = format!("{backend:?} {name} len {len} floor {floor:#x}");
                    assert_eq!(got, scan_oracle(w, floor), "{at}");
                    if let ScanSource::Delta { reference, .. } = source {
                        let (mut keys, mut positions) = (vec![0; len], vec![0; len]);
                        let mut copy = vec![f32::from_bits(0x7FC0_DEAD); len];
                        let copy_out = Some(&mut copy[..]);
                        let n = backend.topk_candidates(
                            source,
                            floor,
                            &mut keys,
                            &mut positions,
                            copy_out,
                        );
                        let copied: Vec<(u32, u32)> =
                            keys.into_iter().zip(positions).take(n).collect();
                        assert_eq!(copied, got, "copying scan, {at}");
                        let bits = |x: &[f32]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                        assert_eq!(bits(&copy), bits(reference), "copy, {at}");
                    }
                }
            }
        }
    }
}

/// Only a delta has a reference to copy.
#[test]
#[should_panic(expected = "only a delta has a reference to copy")]
fn a_values_scan_refuses_a_copy_output() {
    let (x, mut keys, mut positions, mut copy) = ([1.0f32; 8], [0; 8], [0; 8], [0.0; 8]);
    let source = ScanSource::Values(&x);
    Backend::host().topk_candidates(source, 0, &mut keys, &mut positions, Some(&mut copy));
}

/// A stream step whose floor misses (the first one, which has none, and
/// one planted above every key) copies the reference during its first
/// scan, then takes the histogram and scans again: the next reference is
/// still the old one advanced by the kept entries, the old one is
/// untouched for the receiver holding it, and an unshared stream, which
/// advances in place, ends with the same bits.
#[test]
fn a_missed_floor_leaves_the_copied_reference_intact() {
    let cfg = CompressionConfig::TopK { ratio: 0.01 };
    for (len, kind) in [(67usize, 1u32), (4099, 0), (64 * 1024, 1)] {
        let k = cfg.k_for(len);
        let init = block(kind + 1, len as u64, len);
        let params = block(kind, len as u64 ^ 0x3C, len);
        for floor in [None, Some(0x7FFF_FFFF)] {
            let at = format!("len {len} floor {floor:?}");
            let mut pool = BufferPool::new();
            let mut out = CompressedBlock::default();
            let (mut copied, mut in_place) = (ParamStream::new(&init), ParamStream::new(&init));
            copied.selection_mut().set_floor(floor);
            in_place.selection_mut().set_floor(floor);
            let held = copied.reference().snapshot();
            let old = words(&held);
            Codec::new(cfg).encode_step(&params, &mut copied, None, &mut pool, &mut out);
            assert_eq!(copied.selection().histogram_passes(), 1, "{at}");
            assert!(!copied.reference().ptr_eq(&held), "{at}");
            assert_eq!(words(&held), old, "the receiver's reference, {at}");

            let delta: Vec<f32> = params
                .iter()
                .zip(held.iter())
                .map(|(p, r)| (p - r) + 0.0)
                .collect();
            let mut next = held.to_vec();
            for i in oracle_kept(&delta, k) {
                next[i as usize] += delta[i as usize];
            }
            assert_eq!(
                words(copied.reference()),
                words(&next),
                "next reference, {at}"
            );

            drop(held);
            let before = in_place.reference().as_slice().as_ptr();
            let mut in_place_out = CompressedBlock::default();
            Codec::new(cfg).encode_step(&params, &mut in_place, None, &mut pool, &mut in_place_out);
            assert_eq!(in_place.reference().as_slice().as_ptr(), before, "{at}");
            assert_eq!(block_words(&in_place_out), block_words(&out), "{at}");
            assert_eq!(words(in_place.reference()), words(&next), "in place, {at}");
        }
    }
}

/// A receiver mirror whose reference nobody else holds applies each block
/// in place; one whose every reference is held by a reader applies it
/// into a pool buffer. Over rounds of both lossy codecs, with NaN, ±inf,
/// −0.0 and subnormal parameters, the two stay bit-identical to the
/// sender.
#[test]
fn apply_in_place_gives_the_out_of_place_bits() {
    for cfg in LOSSY {
        for (len, kind) in [(67usize, 1u32), (4099, 1), (64 * 1024, 0)] {
            let init = block(kind + 1, 0xA11 ^ len as u64, len);
            let mut codec = Codec::new(cfg);
            let mut sender = ParamStream::new(&init);
            let (mut alone, mut watched) = (ParamStream::new(&init), ParamStream::new(&init));
            let (mut pool, mut out) = (BufferPool::new(), CompressedBlock::default());
            let mut reader = None;
            for round in 0..6u64 {
                let at = format!("{} len {len} round {round}", cfg.label());
                let params = block(kind + round as u32 % 2, round ^ len as u64, len);
                codec.encode_step(&params, &mut sender, None, &mut pool, &mut out);
                let before = alone.reference().as_slice().as_ptr();
                alone.apply(&out, &mut pool);
                assert_eq!(
                    alone.reference().as_slice().as_ptr(),
                    before,
                    "in place, {at}"
                );
                let held = watched.reference().snapshot();
                watched.apply(&out, &mut pool);
                assert!(!watched.reference().ptr_eq(&held), "out of place, {at}");
                reader = Some(held);
                assert_eq!(words(alone.reference()), words(sender.reference()), "{at}");
                assert_eq!(
                    words(watched.reference()),
                    words(sender.reference()),
                    "{at}"
                );
            }
            drop(reader);
        }
    }
}

/// The mutation trap for the one comparison exactness rests on: a floor
/// that admits some entries but fewer than `k` must be discarded for the
/// histogram, not selected from. (Accepting it makes `select_nth` index
/// past the candidates, or ships a short block.)
#[test]
fn a_warm_scan_short_of_k_falls_back_to_the_histogram() {
    let cfg = CompressionConfig::TopK { ratio: 0.1 };
    for len in [30usize, 67, 1000, 4099] {
        let k = cfg.k_for(len);
        let input = values(len as u64, len);
        let mut sorted: Vec<u32> = input.iter().map(|&v| key(v)).collect();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        // Admits the two largest magnitudes (and their ties) only.
        let short = sorted[1];
        assert!(sorted.iter().filter(|&&key| key >= short).count() < k);

        let mut stream = ParamStream::new(&vec![0.0; len]);
        stream.selection_mut().set_floor(Some(short));
        let mut pool = BufferPool::new();
        let mut out = CompressedBlock::default();
        Codec::new(cfg).encode_step(&input, &mut stream, None, &mut pool, &mut out);
        let kept = oracle_kept(&input, k);
        assert_eq!(block_words(&out), sparse_words(len, &kept, &input));
        assert_eq!(stream.selection().histogram_passes(), 1, "len {len}");
    }
}

/// A stream whose deltas change scale abruptly: ×0.25 a third of the way
/// in (every key falls under the floor — a miss) and ×4 two thirds in
/// (every key clears it — a re-centre). Each step is checked against the
/// composed reference; the floor costs one histogram pass at the start
/// and fewer than two after each jump.
#[test]
fn the_floor_stays_exact_and_recovers_across_scale_jumps() {
    let cfg = CompressionConfig::TopK { ratio: 0.01 };
    let len = 8192;
    let mut codec = Codec::new(cfg);
    let mut stream = ParamStream::new(&vec![0.0; len]);
    let mut reference = vec![0.0f32; len];
    let (mut out, mut out_composed) = (CompressedBlock::default(), CompressedBlock::default());
    let mut pool = BufferPool::new();
    let mut passes_at = Vec::new();
    for step in 0..200u64 {
        let scale = match step {
            0..=69 => 1.0,
            70..=139 => 0.25,
            _ => 1.0,
        };
        // The delta to the receivers' copy is exactly this step's noise.
        let params: Vec<f32> = values(step + 1, len)
            .iter()
            .zip(&reference)
            .map(|(v, r)| r + scale * v)
            .collect();
        codec.encode_step(&params, &mut stream, None, &mut pool, &mut out);
        composed::param_step(cfg, &params, &mut reference, &mut out_composed);
        assert_eq!(block_words(&out), block_words(&out_composed), "step {step}");
        assert_eq!(words(stream.reference()), words(&reference), "step {step}");
        passes_at.push(stream.selection().histogram_passes());
    }
    assert_eq!(stream.selection().encodes(), 200);
    assert_eq!(passes_at[69], 1, "steady state: the cold encode only");
    assert!(passes_at[139] - passes_at[69] < 2, "after the x0.25 jump");
    assert!(passes_at[199] - passes_at[139] < 2, "after the x4 jump");
}

/// Two streams a thousandfold apart in scale, interleaved through one
/// `Codec` as a simulated plane drives them: each ends with the blocks,
/// the reference and the hint — floor and pass count — it has when
/// encoded alone, and neither pays a histogram pass after its first.
#[test]
fn streams_sharing_a_codec_keep_their_own_floor() {
    let cfg = CompressionConfig::TopK { ratio: 0.01 };
    let len = 4096;
    let scales = [1.0f32, 1e-3];
    let mut shared = Codec::new(cfg);
    let mut alone = [Codec::new(cfg), Codec::new(cfg)];
    let init = vec![0.0f32; len];
    let mut together = [ParamStream::new(&init), ParamStream::new(&init)];
    let mut apart = together.clone();
    let (mut out, mut out_alone) = (CompressedBlock::default(), CompressedBlock::default());
    let mut pool = BufferPool::new();
    for step in 0..50u64 {
        for s in 0..2 {
            let params: Vec<f32> = values(2 * step + s as u64 + 1, len)
                .iter()
                .zip(together[s].reference().as_slice())
                .map(|(v, r)| r + scales[s] * v)
                .collect();
            shared.encode_step(&params, &mut together[s], None, &mut pool, &mut out);
            alone[s].encode_step(&params, &mut apart[s], None, &mut pool, &mut out_alone);
            assert_eq!(block_words(&out), block_words(&out_alone), "step {step}");
            assert_eq!(together[s].selection(), apart[s].selection(), "step {step}");
        }
    }
    for stream in &together {
        assert_eq!(stream.selection().encodes(), 50);
        assert_eq!(stream.selection().histogram_passes(), 1);
    }
}
