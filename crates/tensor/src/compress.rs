//! Deterministic update compression: top-k sparsification, int8
//! quantization and the identity codec, with error feedback.
//!
//! Every message path in the workspace ships flat `f32` blocks; this
//! module makes those blocks *small* without giving up the workspace's
//! determinism contract. Three codecs implement [`Compressor`]:
//!
//! * [`Identity`] — bit-exact round trip, the default. Call sites guard
//!   on [`CompressionConfig::is_identity`] and skip the codec entirely,
//!   so the identity configuration cannot perturb a single bit of an
//!   uncompressed run.
//! * [`TopK`] — keeps exactly `k = ceil(ratio * len)` entries of largest
//!   magnitude under the *total* order `(|v|, index)` — magnitudes
//!   compared as `f32::total_cmp` does, ties broken by the lower index —
//!   so the kept set is a pure function of the input. The order is
//!   realised on the magnitude *bits* (`to_bits() & 0x7FFF_FFFF`, which
//!   sorts exactly like `total_cmp` on `|v|`): one SIMD scan left-packs
//!   the candidates at or above a *floor* key (computing a parameter
//!   stream's delta as it reads, and packing only the groups of eight
//!   that hold a candidate, [`kernels`]); a histogram of the candidates'
//!   keys finds the bucket holding the k-th largest and a `select_nth`
//!   among that bucket's keys alone the threshold; and one ascending,
//!   branch-free pass emits the entries above it (plus the lowest-index
//!   ties) already in canonical wire order — no index permutation, no
//!   indirect comparator, no sort. The floor is the stream's own, kept
//!   from its previous encode ([`SelectionHint`]); only when it admits
//!   fewer than `k` entries does a histogram over the keys' top 12 bits
//!   find the bucket holding the k-th largest and the scan run again
//!   from that bucket's floor. Either way the kept set is the same. A
//!   block with fewer than `k` nonzero entries keeps all of them and
//!   its lowest-index zeros, and selects nothing.
//! * [`Int8Uniform`] — per-block uniform quantization to `i8` at
//!   `scale = max|v| / 127`, rounding half to even
//!   (`f32::round_ties_even`). The reconstruction error of each entry is
//!   at most half a quantization step. Two fused SIMD sweeps
//!   ([`kernels`]): the magnitude scan, then quantize + state refresh. A
//!   parameter stream's step can skip the first, given the maximum by
//!   the Reduce that wrote its parameters, and the second's `i8` stores,
//!   when its caller ships the reconstruction ([`Codec::advance_step`]).
//!
//! Two kinds of stream use the codecs, one step function each:
//!
//! * [`Compressor::encode_into`] is the **error-feedback** step (EF-SGD
//!   style): it compresses `input + residual` and stores what the
//!   decoder will *not* reconstruct back into the [`ErrorFeedback`], so
//!   dropped mass re-enters the next message instead of biasing
//!   convergence. The invariant, tested property-style in
//!   `tests/compress_props.rs`: after `encode_into`,
//!   `decoded + residual == input + old_residual` for every element.
//! * [`Codec::encode_step`] is the **parameter-stream** step (CHOCO-SGD
//!   style): the sender keeps in a [`ParamStream`] the reconstruction
//!   its receivers hold, encodes `params - reference`, and advances the
//!   reference by exactly what the block decodes to;
//!   [`ParamStream::apply`] is the receiving half. The reference *is*
//!   the error feedback here, so no residual is involved. A top-k step
//!   touches only its `k` kept entries of the reference, in place while
//!   no receiver holds it; a held one is first copied into a buffer from
//!   the caller's [`BufferPool`] by the candidate scan, which reads
//!   every entry of it anyway.
//!
//! Both are single fused passes per arithmetic stage, bit-identical to
//! the composed sweep-per-step sequences in [`mod@reference`] (pinned by
//! `tests/compress_props.rs` over many rounds, NaN, ±inf, −0.0 and
//! subnormals included, and by the golden digests in
//! `tests/engine_smoke.rs`). Nothing on the hot path allocates after
//! warm-up: the output [`CompressedBlock`], the residual and the top-k
//! scratch keep their capacity, and a stream's next reference is its
//! current one or comes from the caller's [`BufferPool`].

use crate::ops;
use crate::ops::simd::Backend;
use crate::param_block::ParamBlock;
use crate::pool::BufferPool;

pub mod kernels;
pub mod reference;

use kernels::ScanSource;

/// Which codec a runtime should apply to its parameter/update messages.
///
/// Carried by the protocol configurations in `hop-core`; the default is
/// [`CompressionConfig::Identity`], under which every runtime takes its
/// pre-compression code path unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum CompressionConfig {
    /// Ship dense `f32` blocks unchanged (the default).
    #[default]
    Identity,
    /// Keep the `ceil(ratio * len)` largest-magnitude entries
    /// (`0 < ratio <= 1`), error feedback on the rest.
    TopK {
        /// Fraction of entries kept, in `(0, 1]`.
        ratio: f32,
    },
    /// Uniform per-block quantization to `i8`, error feedback on the
    /// rounding error.
    Int8Uniform,
}

impl CompressionConfig {
    /// Whether this is the identity configuration (no codec on the
    /// message path).
    pub fn is_identity(&self) -> bool {
        matches!(self, CompressionConfig::Identity)
    }

    /// Entries a [`TopK`] encoder keeps for a block of `len` elements:
    /// `ceil(ratio * len)` clamped to `1..=len` (0 for an empty block).
    /// Identity and int8 keep all `len`.
    pub fn k_for(&self, len: usize) -> usize {
        match *self {
            CompressionConfig::TopK { ratio } => {
                if len == 0 {
                    0
                } else {
                    ((len as f64 * ratio as f64).ceil() as usize).clamp(1, len)
                }
            }
            _ => len,
        }
    }

    /// Short human/machine label (`identity`, `topk_0.01`, `int8`), used
    /// by sweep axes and bench summary lines.
    pub fn label(&self) -> String {
        match *self {
            CompressionConfig::Identity => "identity".to_string(),
            CompressionConfig::TopK { ratio } => format!("topk_{ratio}"),
            CompressionConfig::Int8Uniform => "int8".to_string(),
        }
    }

    /// Validates the knobs (finite `ratio` in `(0, 1]`).
    ///
    /// # Errors
    ///
    /// Returns a static description of the offending knob.
    pub fn validate(&self) -> Result<(), &'static str> {
        match *self {
            CompressionConfig::TopK { ratio } => {
                if !ratio.is_finite() || ratio <= 0.0 || ratio > 1.0 {
                    Err("top-k ratio must be finite and in (0, 1]")
                } else {
                    Ok(())
                }
            }
            _ => Ok(()),
        }
    }

    /// Builds the codec this configuration names.
    pub fn codec(&self) -> Codec {
        match *self {
            CompressionConfig::Identity => Codec::Identity(Identity),
            CompressionConfig::TopK { ratio } => Codec::TopK(TopK::new(ratio)),
            CompressionConfig::Int8Uniform => Codec::Int8(Int8Uniform),
        }
    }
}

/// One encoded message: the wire representation a codec produces.
///
/// The enum is reused across `encode_into` calls (each codec always
/// produces its own variant, so the inner buffers keep their capacity).
/// [`CompressedBlock::encoded_bytes`] is the size the virtual network
/// charges for shipping it.
#[derive(Debug, Clone, PartialEq)]
pub enum CompressedBlock {
    /// Dense `f32` values, 4 bytes each (the [`Identity`] wire format).
    Dense {
        /// The values, verbatim.
        values: Vec<f32>,
    },
    /// Sparse `(index, value)` pairs from [`TopK`]: a 4-byte length
    /// header plus 8 bytes per kept entry.
    Sparse {
        /// Decoded block length.
        len: u32,
        /// Kept positions, strictly ascending (the canonical order).
        indices: Vec<u32>,
        /// Kept values, parallel to `indices`.
        values: Vec<f32>,
    },
    /// [`Int8Uniform`] output: a 4-byte length word, the 4-byte f32
    /// scale, then one byte per entry.
    Quantized {
        /// Dequantization step: `value = q as f32 * scale`.
        scale: f32,
        /// The quantized entries.
        values: Vec<i8>,
    },
}

impl Default for CompressedBlock {
    fn default() -> Self {
        CompressedBlock::Dense { values: Vec::new() }
    }
}

impl CompressedBlock {
    /// Bytes this block occupies on the wire — virtual (the simulated
    /// network's transfer charge) and real (`hop_wire` frames a block in
    /// exactly this many payload bytes): dense `4·len`, sparse
    /// `4 + 8·k` (length word + `(index, value)` pairs), int8
    /// `4 + 4 + len` (length word + the f32 scale + one byte per entry).
    pub fn encoded_bytes(&self) -> u64 {
        match self {
            CompressedBlock::Dense { values } => 4 * values.len() as u64,
            CompressedBlock::Sparse { indices, .. } => 4 + 8 * indices.len() as u64,
            CompressedBlock::Quantized { values, .. } => 4 + 4 + values.len() as u64,
        }
    }

    /// Length of the dense block this decodes to.
    pub fn decoded_len(&self) -> usize {
        match self {
            CompressedBlock::Dense { values } => values.len(),
            CompressedBlock::Sparse { len, .. } => *len as usize,
            CompressedBlock::Quantized { values, .. } => values.len(),
        }
    }

    /// Reuses (or installs) the dense variant, returning its buffer: a
    /// decoder refilling one block keeps its capacity.
    pub fn make_dense(&mut self) -> &mut Vec<f32> {
        if !matches!(self, CompressedBlock::Dense { .. }) {
            *self = CompressedBlock::Dense { values: Vec::new() };
        }
        match self {
            CompressedBlock::Dense { values } => values,
            _ => unreachable!(),
        }
    }

    /// Reuses (or installs) the sparse variant with decoded length
    /// `new_len`, returning its index and value buffers.
    pub fn make_sparse(&mut self, new_len: u32) -> (&mut Vec<u32>, &mut Vec<f32>) {
        if !matches!(self, CompressedBlock::Sparse { .. }) {
            *self = CompressedBlock::Sparse {
                len: 0,
                indices: Vec::new(),
                values: Vec::new(),
            };
        }
        match self {
            CompressedBlock::Sparse {
                len,
                indices,
                values,
            } => {
                *len = new_len;
                (indices, values)
            }
            _ => unreachable!(),
        }
    }

    /// Reuses (or installs) the quantized variant with step `new_scale`,
    /// returning its buffer.
    pub fn make_quantized(&mut self, new_scale: f32) -> &mut Vec<i8> {
        if !matches!(self, CompressedBlock::Quantized { .. }) {
            *self = CompressedBlock::Quantized {
                scale: 0.0,
                values: Vec::new(),
            };
        }
        match self {
            CompressedBlock::Quantized { scale, values } => {
                *scale = new_scale;
                values
            }
            _ => unreachable!(),
        }
    }
}

/// Per-sender error-feedback residual: the mass the last lossy encode
/// dropped, re-injected into the next message.
#[derive(Debug, Clone, Default)]
pub struct ErrorFeedback {
    residual: Vec<f32>,
    selection: SelectionHint,
}

impl ErrorFeedback {
    /// A fresh zero residual (sized lazily on first encode).
    pub fn new() -> Self {
        Self::default()
    }

    /// The current residual (empty before the first encode).
    pub fn residual(&self) -> &[f32] {
        &self.residual
    }

    /// This stream's top-k selection hint and its counters.
    pub fn selection(&self) -> &SelectionHint {
        &self.selection
    }

    /// Mutable access to the hint, for tests that plant or clear a floor.
    pub fn selection_mut(&mut self) -> &mut SelectionHint {
        &mut self.selection
    }

    fn ensure(&mut self, len: usize) {
        if self.residual.len() != len {
            self.residual.clear();
            self.residual.resize(len, 0.0);
        }
    }
}

/// One parameter stream's reference copy `x̂`: the reconstruction every
/// receiver of the stream currently holds. The sender advances it with
/// [`Codec::encode_step`], each receiver mirrors that with
/// [`ParamStream::apply`]; fed the same blocks in the same order the two
/// stay bit-identical.
///
/// The reference is a [`ParamBlock`], so [`Self::reference`]`.snapshot()`
/// is the message to ship. A step never writes a block a receiver still
/// holds: it updates the reference in place when no snapshot of it is
/// alive, and otherwise writes the next reference into a recycled buffer
/// from the caller's [`BufferPool`].
///
/// Invariant: the reference never holds `-0.0`. [`Self::new`]
/// establishes it and every advance preserves it (`a + b` is `-0.0`
/// only when both are, and no decoded value is `-0.0`). That is what
/// lets a sparse block advance only its `k` kept entries: the dense
/// advance it replaces added `+0.0` everywhere else, which changes
/// `-0.0` and nothing but `-0.0`.
#[derive(Debug, Clone)]
pub struct ParamStream {
    reference: ParamBlock,
    selection: SelectionHint,
}

impl ParamStream {
    /// A stream whose receivers start out holding `init`. A `-0.0` in
    /// `init` is stored as `+0.0`; the first step yields the same block
    /// and the same next reference either way.
    pub fn new(init: &[f32]) -> Self {
        Self {
            reference: ParamBlock::from_vec(init.iter().map(|&v| v + 0.0).collect()),
            selection: SelectionHint::default(),
        }
    }

    /// What every receiver holds after the last step.
    pub fn reference(&self) -> &ParamBlock {
        &self.reference
    }

    /// This stream's top-k selection hint and its counters (sender side;
    /// [`Self::apply`] never touches it).
    pub fn selection(&self) -> &SelectionHint {
        &self.selection
    }

    /// Mutable access to the hint, for tests that plant or clear a floor.
    pub fn selection_mut(&mut self) -> &mut SelectionHint {
        &mut self.selection
    }

    /// The receiving half of [`Codec::encode_step`]: advances the
    /// reference by what `block` decodes to, straight from the block.
    /// A sparse block's indices must be strictly ascending (as
    /// `hop_wire` enforces on decode): each is applied once.
    ///
    /// # Panics
    ///
    /// Panics if the block's decoded length differs from the stream's,
    /// or on a dense block (identity messages need no stream).
    pub fn apply(&mut self, block: &CompressedBlock, pool: &mut BufferPool) {
        let len = self.reference.len();
        assert_eq!(block.decoded_len(), len, "block sized for another stream");
        // Each arm writes in place when no snapshot of the reference is
        // alive, else into another buffer; an entry gets the same
        // expression either way.
        match block {
            CompressedBlock::Dense { .. } => panic!("a dense block is not a stream step"),
            CompressedBlock::Sparse {
                indices, values, ..
            } => {
                let mut next = self.next_sparse(pool);
                if let Some(next) = &mut next {
                    next.copy_from_slice(&self.reference);
                }
                self.advance_sparse(next, indices, values, pool);
            }
            CompressedBlock::Quantized { scale, values } => {
                let backend = Backend::host();
                match self.reference.unique_mut() {
                    Some(reference) => backend.advance_dequantized(values, *scale, None, reference),
                    None => {
                        let mut next = pool.acquire_stale(len);
                        backend.advance_dequantized(
                            values,
                            *scale,
                            Some(&self.reference),
                            &mut next,
                        );
                        self.replace(next, pool);
                    }
                }
            }
        }
    }

    /// Where the next sparse step writes: `None` for in place, when no
    /// snapshot of the reference is alive; else a buffer from `pool`
    /// that the caller fills with the reference.
    fn next_sparse(&self, pool: &mut BufferPool) -> Option<Vec<f32>> {
        let shared = self.reference.strong_count() > 1;
        shared.then(|| pool.acquire_stale(self.reference.len()))
    }

    /// Advances the reference by a sparse step, in place or in `next`,
    /// a copy of it from [`Self::next_sparse`].
    fn advance_sparse(
        &mut self,
        next: Option<Vec<f32>>,
        indices: &[u32],
        values: &[f32],
        pool: &mut BufferPool,
    ) {
        match next {
            None => {
                let reference = self.reference.unique_mut();
                add_kept(
                    reference.expect("no holder appears meanwhile"),
                    indices,
                    values,
                );
            }
            Some(mut next) => {
                add_kept(&mut next, indices, values);
                self.replace(next, pool);
            }
        }
    }

    /// Installs `next` as the reference and retires the previous one to
    /// `pool` ([`BufferPool::retire`]): released at once if no receiver
    /// holds it, else reused by `pool` once the last receiver lets go. A
    /// receiver's own `reclaim` of it only drops a reference, so the
    /// buffer returns to the pool that wrote it.
    fn replace(&mut self, next: Vec<f32>, pool: &mut BufferPool) {
        pool.retire(std::mem::replace(
            &mut self.reference,
            ParamBlock::from_vec(next),
        ));
    }
}

/// Advances a reference by a sparse block: each kept `(i, v)` moves entry
/// `i` by `v`, the rest stay put (exact because of [`ParamStream`]'s
/// invariant).
fn add_kept(reference: &mut [f32], indices: &[u32], values: &[f32]) {
    for (&i, &v) in indices.iter().zip(values) {
        reference[i as usize] += v;
    }
}

/// A deterministic message codec with error feedback.
///
/// `encode_into` compresses `input + ef.residual` into `out` and updates
/// `ef` with what `decode_into` will not reconstruct; `pool` is there for
/// codecs that need scratch (none of the built-in ones draws from it).
/// `decode_into` writes the reconstruction of `block` over `out` (which
/// must have [`CompressedBlock::decoded_len`] elements).
pub trait Compressor {
    /// Encodes one block, consuming and refreshing the error feedback.
    fn encode_into(
        &mut self,
        input: &[f32],
        ef: &mut ErrorFeedback,
        pool: &mut BufferPool,
        out: &mut CompressedBlock,
    );

    /// Reconstructs a block into `out`.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != block.decoded_len()`.
    fn decode_into(&self, block: &CompressedBlock, out: &mut [f32]);
}

/// The no-op codec: dense values, bitwise round trip, residual untouched.
#[derive(Debug, Clone, Copy, Default)]
pub struct Identity;

impl Compressor for Identity {
    fn encode_into(
        &mut self,
        input: &[f32],
        _ef: &mut ErrorFeedback,
        _pool: &mut BufferPool,
        out: &mut CompressedBlock,
    ) {
        let values = out.make_dense();
        values.clear();
        values.extend_from_slice(input);
    }

    fn decode_into(&self, block: &CompressedBlock, out: &mut [f32]) {
        match block {
            CompressedBlock::Dense { values } => {
                assert_eq!(values.len(), out.len(), "identity decode length mismatch");
                out.copy_from_slice(values);
            }
            _ => panic!("identity codec fed a non-dense block"),
        }
    }
}

/// Exact top-`k` magnitude sparsification with a stable `(|v|, index)`
/// tie-break and error feedback.
///
/// Holds only scratch. What carries over from one encode to the next —
/// the [`SelectionHint`] — belongs to the stream being encoded, because
/// one codec serves every stream of a plane.
#[derive(Debug, Clone)]
pub struct TopK {
    ratio: f32,
    /// Scratch reused across encodes: the magnitude histograms, the
    /// candidates' keys and positions (in index order), and the keys of
    /// the histogram bucket `select_nth` permutes.
    histogram: Vec<u32>,
    keys: Vec<u32>,
    positions: Vec<u32>,
    ranked: Vec<u32>,
}

/// The selection key of a value: its magnitude bits. Unsigned order on
/// keys is `f32::total_cmp` order on `|v|` (NaN above infinity).
#[inline(always)]
fn magnitude_key(v: f32) -> u32 {
    v.to_bits() & 0x7FFF_FFFF
}

/// Histogram resolution: the top 12 of a key's 31 bits — the exponent
/// and four mantissa bits, 4096 buckets.
const BUCKET_SHIFT: u32 = 19;
const BUCKETS: usize = 1 << (31 - BUCKET_SHIFT);

/// Buckets of the histogram that ranks a selection's candidates.
const RANK_BUCKETS: usize = 1024;

/// Counters per bucket, one per input position modulo 4. A block's keys
/// crowd into a few buckets, and consecutive `+= 1` on one counter wait
/// on each other's store; four counters side by side do not.
const SUB_HISTOGRAMS: usize = 4;

/// What one stream remembers of its last top-k selection: the candidate
/// **floor**, a magnitude key its next block's `k` largest will very
/// likely sit at or above, because a stream's deltas change scale slowly.
///
/// [`TopK`] gathers the entries at or above the floor in one vectorised
/// scan and selects among those; a stream without a usable floor pays a
/// full-length histogram pass to find one. The floor is a hint and never
/// an input to the result: every entry it excludes is smaller than every
/// entry it admits, so whenever it admits at least `k` the `k` first in
/// `(|v|, index)` order are among them and the kept set is the one any
/// other such floor gives; when it admits fewer the encode discards the
/// attempt and takes the histogram. Blocks, residuals, references and
/// wire bytes are therefore the same bits whatever the hint holds —
/// cleared, stale, or left by another stream (`tests/compress_props.rs`).
///
/// It lives beside the stream's state ([`ParamStream`],
/// [`ErrorFeedback`]) rather than in the [`Codec`]: a plane drives all
/// its streams through one codec, and the floor one worker's deltas
/// leave is wrong for the next worker's about one time in four.
///
/// The counters make "how often was the hint useless" and "how much did
/// it admit" numbers that repeat exactly; no report or digest includes
/// them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SelectionHint {
    floor: u32,
    encodes: u64,
    histogram_passes: u64,
    candidates: u64,
}

impl SelectionHint {
    /// Above every key (they have 31 bits): the scan admits nothing and
    /// the encode derives a floor from the histogram.
    const NO_FLOOR: u32 = u32::MAX;

    /// The floor the next encode will try, `None` when there is none.
    pub fn floor(&self) -> Option<u32> {
        (self.floor != Self::NO_FLOOR).then_some(self.floor)
    }

    /// Plants a floor (any `u32`: magnitude keys stop at `0x7FFF_FFFF`)
    /// or, with `None`, forgets it. Cannot change what an encode
    /// produces, only what it costs.
    pub fn set_floor(&mut self, floor: Option<u32>) {
        self.floor = floor.unwrap_or(Self::NO_FLOOR);
    }

    /// Top-k selections made on this stream.
    pub fn encodes(&self) -> u64 {
        self.encodes
    }

    /// Selections the floor did not serve — the stream's first, and
    /// every one whose floor admitted fewer than `k` entries — each of
    /// which swept the whole block into the histogram.
    pub fn histogram_passes(&self) -> u64 {
        self.histogram_passes
    }

    /// Entries the selections' floors admitted, summed: what the
    /// threshold search ran on (an encode that keeps the whole block
    /// scans nothing; a floor of zero admits the whole block). A floor
    /// decides it; the block never depends on it.
    pub fn candidates(&self) -> u64 {
        self.candidates
    }
}

impl Default for SelectionHint {
    fn default() -> Self {
        Self {
            floor: Self::NO_FLOOR,
            encodes: 0,
            histogram_passes: 0,
            candidates: 0,
        }
    }
}

impl TopK {
    /// A top-k encoder keeping `ceil(ratio * len)` entries per block.
    pub fn new(ratio: f32) -> Self {
        debug_assert!(
            ratio.is_finite() && ratio > 0.0 && ratio <= 1.0,
            "top-k ratio must be in (0, 1], got {ratio}"
        );
        Self {
            ratio,
            histogram: Vec::new(),
            keys: Vec::new(),
            positions: Vec::new(),
            ranked: Vec::new(),
        }
    }

    fn k_for(&self, len: usize) -> usize {
        CompressionConfig::TopK { ratio: self.ratio }.k_for(len)
    }

    /// Gathers into `self.keys` / `self.positions`, in index order, the
    /// entries of `source` whose key is at least `floor`; returns how
    /// many. One pass ([`Backend::topk_candidates`]) that computes a
    /// parameter stream's delta as it reads, so no delta is written, and
    /// copies the delta's reference into `copy` if given.
    fn scan(&mut self, source: ScanSource<'_>, floor: u32, copy: Option<&mut [f32]>) -> usize {
        if self.keys.len() < source.len() {
            self.keys.resize(source.len(), 0);
            self.positions.resize(source.len(), 0);
        }
        let (keys, positions) = (&mut self.keys, &mut self.positions);
        Backend::host().topk_candidates(source, floor, keys, positions, copy)
    }

    /// The floor of the histogram bucket that holds `source`'s `k`-th
    /// largest key: at least `k` entries are at or above it and nothing
    /// below it can be kept. One full-length scalar pass.
    fn histogram_floor(&mut self, source: ScanSource<'_>, k: usize) -> u32 {
        self.histogram.clear();
        self.histogram.resize(SUB_HISTOGRAMS * BUCKETS, 0);
        for i in 0..source.len() {
            let bucket = (magnitude_key(source.value(i)) >> BUCKET_SHIFT) as usize;
            self.histogram[SUB_HISTOGRAMS * bucket + i % SUB_HISTOGRAMS] += 1;
        }
        // Walk down from the largest magnitudes.
        let (mut bucket, mut seen) = (BUCKETS, 0);
        while seen < k {
            bucket -= 1;
            let counters = &self.histogram[SUB_HISTOGRAMS * bucket..][..SUB_HISTOGRAMS];
            seen += counters.iter().sum::<u32>() as usize;
        }
        (bucket as u32) << BUCKET_SHIFT
    }

    /// Writes into `indices`, ascending, the `k` positions of `source`
    /// that come first in the total order (larger magnitude, then lower
    /// index). `k <= source.len()`. `hint` is the encoded stream's: it
    /// decides which passes run, never which positions come out. `copy`
    /// (a delta's only) receives the delta's reference.
    fn select(
        &mut self,
        source: ScanSource<'_>,
        k: usize,
        hint: &mut SelectionHint,
        indices: &mut Vec<u32>,
        copy: Option<&mut [f32]>,
    ) {
        indices.clear();
        hint.encodes += 1;
        let len = source.len();
        if k == len {
            if let (Some(copy), ScanSource::Delta { reference, .. }) = (copy, source) {
                copy.copy_from_slice(reference);
            }
            indices.extend(0..k as u32);
            return;
        }
        // Candidates at or above the stream's last floor. Fewer than `k`
        // (always, without a floor) is a miss, and only then is the
        // histogram worth a sweep: accepting a short scan would drop
        // entries that belong in the block. The first scan has made the
        // copy; the second reads the same reference. A floor of zero
        // admits the whole block, so its scan collects only the nonzero
        // entries (from `admit`, key 1): when there are fewer than `k`,
        // the block is all of them and the lowest-index zeros.
        let mut floor = hint.floor;
        let mut count = self.scan(source, floor.max(1), copy);
        if count < k && floor != 0 {
            floor = self.histogram_floor(source, k);
            hint.histogram_passes += 1;
            count = self.scan(source, floor.max(1), None);
        }
        hint.candidates += if floor == 0 { len } else { count } as u64;
        if count < k {
            self.keep_zeros(count, k, indices);
            hint.floor = 0;
            return;
        }
        let admit = floor.max(1);

        // The threshold is the k-th largest key; every key above it is
        // kept, and so are the lowest-index `k - greater` entries equal
        // to it.
        let shift = self.rank_histogram(count, admit);
        let (threshold, greater, equal) = self.kth_largest(count, admit, shift, k);
        let kept = self.emit(count, threshold, k - greater, equal);
        debug_assert_eq!(kept, k);
        indices.extend_from_slice(&self.positions[..k]);

        // Next encode's floor, with hysteresis so that it rarely moves
        // and more rarely misses: hold it while it admits between 1.5k
        // and 6k entries; above that re-centre it on the 3k-th largest
        // key, below that lower it one bucket (4 % in magnitude). The
        // band is in multiples of `k` because a fixed margin under the
        // threshold admits a block's worth where keys are dense. At
        // large ratios the band is wider than the block: `count` cannot
        // exceed `len`, and a floor that admits all of it is low enough.
        hint.floor = if count > 6 * k {
            self.kth_largest(count, admit, shift, 3 * k).0
        } else if count < (k + k / 2).min(len) {
            floor.saturating_sub(1 << BUCKET_SHIFT)
        } else {
            floor
        };
    }

    /// Counts the `count` candidates' keys, all at least `floor`, into
    /// equal-width buckets from `floor` up to the largest, at most
    /// [`RANK_BUCKETS`] of them: `self.histogram[(key - floor) >> shift]`.
    /// Returns `shift`. A stream's candidates span a few octaves, so a
    /// bucket holds a handful of keys.
    fn rank_histogram(&mut self, count: usize, floor: u32) -> u32 {
        let keys = &self.keys[..count];
        let span = keys.iter().fold(0, |max, &key| max.max(key - floor));
        let shift = (u32::BITS - span.leading_zeros()).saturating_sub(RANK_BUCKETS.ilog2());
        self.histogram.clear();
        self.histogram.resize((span >> shift) as usize + 1, 0);
        for &key in keys {
            self.histogram[((key - floor) >> shift) as usize] += 1;
        }
        shift
    }

    /// The `rank`-th largest of the `count` candidates' keys (`1 <= rank
    /// <= count`), how many keys exceed it and how many equal it, from
    /// the histogram [`Self::rank_histogram`] left with `floor` and
    /// `shift`: the buckets above the one that holds it are counted
    /// whole, and only that bucket's keys are selected among.
    fn kth_largest(
        &mut self,
        count: usize,
        floor: u32,
        shift: u32,
        rank: usize,
    ) -> (u32, usize, usize) {
        let (mut bucket, mut above) = (self.histogram.len(), 0);
        loop {
            bucket -= 1;
            let here = self.histogram[bucket] as usize;
            if above + here >= rank {
                break;
            }
            above += here;
        }
        let keys = &self.keys[..count];
        self.ranked.clear();
        let in_bucket = keys
            .iter()
            .filter(|&&key| ((key - floor) >> shift) as usize == bucket);
        self.ranked.extend(in_bucket);
        let (_, &mut kth, _) = self
            .ranked
            .select_nth_unstable_by(rank - above - 1, |a, b| b.cmp(a));
        let (greater, equal) = self
            .ranked
            .iter()
            .fold((above, 0), |(greater, equal), &key| {
                (
                    greater + usize::from(key > kth),
                    equal + usize::from(key == kth),
                )
            });
        (kth, greater, equal)
    }

    /// Writes the block's `k` positions into `indices` when only `count <
    /// k` entries are nonzero (the candidates of a scan from key 1): all
    /// of those and the lowest-index zeros. Every position below the
    /// `(k - count)`-th zero is kept, and every candidate after it.
    fn keep_zeros(&self, count: usize, k: usize, indices: &mut Vec<u32>) {
        let (zeros, positions) = (k - count, &self.positions[..count]);
        // Candidate `c` has `p - c` zeros before it.
        let after = positions
            .iter()
            .enumerate()
            .position(|(c, &p)| p as usize - c >= zeros);
        let after = after.unwrap_or(count);
        indices.extend(0..(zeros + after) as u32);
        indices.extend_from_slice(&positions[after..]);
    }

    /// Left-packs, in place and in index order, the positions of the
    /// `count` candidates that are kept: every key above `threshold`,
    /// and the first `ties` of the `equal` keys equal to it. Returns how
    /// many. Two loops without a branch: `>=` up to the last tie kept,
    /// `>` after it.
    fn emit(&mut self, count: usize, threshold: u32, ties: usize, equal: usize) -> usize {
        let (keys, positions) = (&self.keys[..count], &mut self.positions[..count]);
        let last_tie = if ties == equal {
            count
        } else {
            let mut tied = keys
                .iter()
                .enumerate()
                .filter(|&(_, &key)| key == threshold);
            let (j, _) = tied.nth(ties - 1).expect("at most `equal` ties");
            j + 1
        };
        let mut kept = 0;
        for j in 0..last_tie {
            positions[kept] = positions[j];
            kept += usize::from(keys[j] >= threshold);
        }
        for j in last_tie..count {
            positions[kept] = positions[j];
            kept += usize::from(keys[j] > threshold);
        }
        kept
    }

    /// The parameter-stream step (see [`Codec::encode_step`]).
    fn encode_step(
        &mut self,
        params: &[f32],
        stream: &mut ParamStream,
        pool: &mut BufferPool,
        out: &mut CompressedBlock,
    ) {
        // The delta is never written out: the scan computes it in lanes
        // and the gather recomputes it at the `k` kept indices, each time
        // through the zero-residual add of the composed encode (which is
        // what turns a -0.0 difference into +0.0). A pool buffer gets its
        // copy of the reference from the scan, which reads every entry
        // of it anyway.
        let len = params.len();
        let mut next = stream.next_sparse(pool);
        let delta = ScanSource::Delta {
            params,
            reference: stream.reference.as_slice(),
        };
        let (indices, values) = out.make_sparse(len as u32);
        let k = self.k_for(len);
        self.select(
            delta,
            k,
            &mut stream.selection,
            indices,
            next.as_deref_mut(),
        );
        values.clear();
        values.extend(indices.iter().map(|&i| delta.value(i as usize)));
        stream.advance_sparse(next, indices, values, pool);
    }
}

impl Compressor for TopK {
    fn encode_into(
        &mut self,
        input: &[f32],
        ef: &mut ErrorFeedback,
        _pool: &mut BufferPool,
        out: &mut CompressedBlock,
    ) {
        let len = input.len();
        ef.ensure(len);
        // Compensate in place: a dropped entry's new residual is its
        // compensated value, so only the kept ones need another write.
        ops::axpby(1.0, input, 1.0, &mut ef.residual);
        let (indices, values) = out.make_sparse(len as u32);
        let k = self.k_for(len);
        let compensated = ScanSource::Values(&ef.residual);
        self.select(compensated, k, &mut ef.selection, indices, None);
        values.clear();
        for &i in indices.iter() {
            // Kept entries decode exactly: their residual is zero.
            values.push(std::mem::replace(&mut ef.residual[i as usize], 0.0));
        }
    }

    fn decode_into(&self, block: &CompressedBlock, out: &mut [f32]) {
        match block {
            CompressedBlock::Sparse {
                len,
                indices,
                values,
            } => {
                assert_eq!(*len as usize, out.len(), "top-k decode length mismatch");
                ops::fill(0.0, out);
                for (&i, &v) in indices.iter().zip(values) {
                    out[i as usize] = v;
                }
            }
            _ => panic!("top-k codec fed a non-sparse block"),
        }
    }
}

/// Uniform int8 quantization at `scale = max|v| / 127`, round half to
/// even, with error feedback on the rounding error.
#[derive(Debug, Clone, Copy, Default)]
pub struct Int8Uniform;

impl Int8Uniform {
    /// The block's dequantization step for a given `max|v|`.
    fn scale_for(max_abs: f32) -> f32 {
        if max_abs > 0.0 {
            max_abs / 127.0
        } else {
            0.0
        }
    }

    /// The parameter-stream step (see [`Codec::encode_step`]), which
    /// writes the block's entries only if `read`; returns its wire bytes.
    fn encode_step(
        params: &[f32],
        stream: &mut ParamStream,
        max_delta: Option<f32>,
        pool: &mut BufferPool,
        out: &mut CompressedBlock,
        read: bool,
    ) -> u64 {
        let old = stream.reference.as_slice();
        let sweep = || kernels::max_abs_sum(-1.0, old, params);
        debug_assert!(
            max_delta.is_none_or(|max| max.to_bits() == sweep().to_bits()),
            "a measured maximum of another delta"
        );
        let scale = Self::scale_for(max_delta.unwrap_or_else(sweep));
        let values = out.make_quantized(scale);
        values.resize(if read { params.len() } else { 0 }, 0);
        let q = read.then_some(values.as_mut_slice());
        let mut next = pool.acquire_stale(old.len());
        kernels::quantize_advance(params, scale, old, &mut next, q);
        stream.replace(next, pool);
        4 + 4 + params.len() as u64
    }
}

impl Compressor for Int8Uniform {
    fn encode_into(
        &mut self,
        input: &[f32],
        ef: &mut ErrorFeedback,
        _pool: &mut BufferPool,
        out: &mut CompressedBlock,
    ) {
        ef.ensure(input.len());
        let scale = Self::scale_for(kernels::max_abs_sum(1.0, &ef.residual, input));
        let values = out.make_quantized(scale);
        values.resize(input.len(), 0);
        kernels::quantize_feedback(input, scale, &mut ef.residual, values);
    }

    fn decode_into(&self, block: &CompressedBlock, out: &mut [f32]) {
        match block {
            CompressedBlock::Quantized { scale, values } => {
                assert_eq!(values.len(), out.len(), "int8 decode length mismatch");
                Backend::host().dequantize(values, *scale, out);
            }
            _ => panic!("int8 codec fed a non-quantized block"),
        }
    }
}

/// Enum dispatch over the three codecs — one concrete type a runtime can
/// hold without boxing a trait object.
#[derive(Debug, Clone)]
pub enum Codec {
    /// [`Identity`].
    Identity(Identity),
    /// [`TopK`].
    TopK(TopK),
    /// [`Int8Uniform`].
    Int8(Int8Uniform),
}

impl Codec {
    /// The codec for `cfg` (alias of [`CompressionConfig::codec`]).
    pub fn new(cfg: CompressionConfig) -> Self {
        cfg.codec()
    }

    /// The sender's parameter-stream step: encodes `params -
    /// stream.reference()` into `out` and advances the reference by
    /// exactly what `out` decodes to, so afterwards
    /// [`ParamStream::reference`] is the reconstruction to ship. No
    /// residual takes part — what a block fails to move is still in the
    /// next step's delta. The next reference is written into a buffer
    /// from `pool`; the previous one is retired to it and reused once
    /// unshared.
    ///
    /// `max_delta`, if given, must be `max_i |params[i] + (-1) *
    /// reference[i]|` as [`kernels::max_abs_sum`] computes it — what a
    /// Reduce that wrote `params` measured ([`crate::ops::scaled_sum`]
    /// given the reference) — and an int8 step takes it for its scale
    /// instead of sweeping for it (debug builds sweep anyway and assert
    /// the two are the same bits). Other codecs ignore it.
    ///
    /// # Panics
    ///
    /// Panics if `params` and the stream have different lengths, or on
    /// the identity codec (whose messages need no stream).
    pub fn encode_step(
        &mut self,
        params: &[f32],
        stream: &mut ParamStream,
        max_delta: Option<f32>,
        pool: &mut BufferPool,
        out: &mut CompressedBlock,
    ) {
        self.step(params, stream, max_delta, pool, out, true);
    }

    /// [`Self::encode_step`] for a sender that ships the reconstruction
    /// ([`ParamStream::reference`]) instead of the block: the reference
    /// advances to the same bits, and the block's wire bytes are
    /// returned, but an int8 step writes no `i8` (`scratch` is left a
    /// quantized block with the step's scale and no entries). A top-k
    /// step needs its block to advance and writes it to `scratch` in
    /// full.
    ///
    /// # Panics
    ///
    /// As [`Self::encode_step`].
    pub fn advance_step(
        &mut self,
        params: &[f32],
        stream: &mut ParamStream,
        max_delta: Option<f32>,
        pool: &mut BufferPool,
        scratch: &mut CompressedBlock,
    ) -> u64 {
        self.step(params, stream, max_delta, pool, scratch, false)
    }

    /// [`Self::encode_step`], writing an int8 block's entries only if
    /// `read`; returns the block's wire bytes.
    fn step(
        &mut self,
        params: &[f32],
        stream: &mut ParamStream,
        max_delta: Option<f32>,
        pool: &mut BufferPool,
        out: &mut CompressedBlock,
        read: bool,
    ) -> u64 {
        assert_eq!(
            stream.reference.len(),
            params.len(),
            "parameter stream sized for {} elements, got {}",
            stream.reference.len(),
            params.len()
        );
        match self {
            Codec::Identity(_) => panic!("identity messages are the parameters themselves"),
            Codec::TopK(c) => {
                c.encode_step(params, stream, pool, out);
                out.encoded_bytes()
            }
            Codec::Int8(_) => Int8Uniform::encode_step(params, stream, max_delta, pool, out, read),
        }
    }
}

impl Compressor for Codec {
    fn encode_into(
        &mut self,
        input: &[f32],
        ef: &mut ErrorFeedback,
        pool: &mut BufferPool,
        out: &mut CompressedBlock,
    ) {
        match self {
            Codec::Identity(c) => c.encode_into(input, ef, pool, out),
            Codec::TopK(c) => c.encode_into(input, ef, pool, out),
            Codec::Int8(c) => c.encode_into(input, ef, pool, out),
        }
    }

    fn decode_into(&self, block: &CompressedBlock, out: &mut [f32]) {
        match self {
            Codec::Identity(c) => c.decode_into(block, out),
            Codec::TopK(c) => c.decode_into(block, out),
            Codec::Int8(c) => c.decode_into(block, out),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(cfg: CompressionConfig, input: &[f32]) -> (CompressedBlock, Vec<f32>, Vec<f32>) {
        let mut codec = cfg.codec();
        let mut ef = ErrorFeedback::new();
        let mut pool = BufferPool::new();
        let mut block = CompressedBlock::default();
        codec.encode_into(input, &mut ef, &mut pool, &mut block);
        let mut out = vec![0.0; block.decoded_len()];
        codec.decode_into(&block, &mut out);
        (block, out, ef.residual().to_vec())
    }

    #[test]
    fn identity_roundtrips_bitwise() {
        let input = [1.5f32, -0.0, 3.25, f32::MIN_POSITIVE];
        let (block, out, residual) = roundtrip(CompressionConfig::Identity, &input);
        assert_eq!(block.encoded_bytes(), 16);
        for (a, b) in input.iter().zip(&out) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert!(residual.is_empty(), "identity must not touch the residual");
    }

    #[test]
    fn topk_keeps_exactly_k_largest() {
        let input = [0.1f32, -5.0, 0.2, 4.0, -0.3, 3.0, 0.4, -2.0];
        let cfg = CompressionConfig::TopK { ratio: 0.5 };
        let (block, out, residual) = roundtrip(cfg, &input);
        match &block {
            CompressedBlock::Sparse {
                indices, values, ..
            } => {
                assert_eq!(indices, &[1, 3, 5, 7]);
                assert_eq!(values, &[-5.0, 4.0, 3.0, -2.0]);
            }
            other => panic!("expected sparse, got {other:?}"),
        }
        assert_eq!(block.encoded_bytes(), 4 + 8 * 4);
        // decoded + residual reconstructs the input exactly (fresh EF).
        for ((&x, &d), &r) in input.iter().zip(&out).zip(&residual) {
            assert_eq!(x, d + r);
        }
    }

    #[test]
    fn topk_tie_break_is_lowest_index() {
        let input = [2.0f32, -2.0, 2.0, 1.0];
        let (block, ..) = roundtrip(CompressionConfig::TopK { ratio: 0.5 }, &input);
        match block {
            CompressedBlock::Sparse { indices, .. } => assert_eq!(indices, &[0, 1]),
            other => panic!("expected sparse, got {other:?}"),
        }
    }

    #[test]
    fn int8_error_within_half_step() {
        let input = [1.0f32, -0.5, 0.30, 0.127, -1.27];
        let (block, out, _) = roundtrip(CompressionConfig::Int8Uniform, &input);
        let scale = match block {
            CompressedBlock::Quantized { scale, .. } => scale,
            other => panic!("expected quantized, got {other:?}"),
        };
        assert!(scale > 0.0);
        for (x, d) in input.iter().zip(&out) {
            assert!((x - d).abs() <= scale * 0.5000001, "{x} vs {d} at {scale}");
        }
    }

    #[test]
    fn int8_all_zero_block() {
        let input = [0.0f32; 5];
        let (block, out, residual) = roundtrip(CompressionConfig::Int8Uniform, &input);
        // Length word + f32 scale + one byte per entry: the scale must be
        // accounted even when zero — a real frame still carries it.
        assert_eq!(block.encoded_bytes(), 4 + 4 + 5);
        assert_eq!(out, vec![0.0; 5]);
        assert_eq!(residual, vec![0.0; 5]);
    }

    #[test]
    fn error_feedback_reinjects_dropped_mass() {
        // A value too small to ever win top-1 still accumulates in the
        // residual until... it keeps being carried (never silently lost).
        let mut codec = CompressionConfig::TopK { ratio: 0.01 }.codec();
        let mut ef = ErrorFeedback::new();
        let mut pool = BufferPool::new();
        let mut block = CompressedBlock::default();
        let input = [10.0f32, 0.25];
        codec.encode_into(&input, &mut ef, &mut pool, &mut block);
        assert_eq!(ef.residual(), &[0.0, 0.25]);
        codec.encode_into(&input, &mut ef, &mut pool, &mut block);
        assert_eq!(ef.residual(), &[0.0, 0.5]);
    }

    #[test]
    fn k_for_clamps() {
        let cfg = CompressionConfig::TopK { ratio: 0.01 };
        assert_eq!(cfg.k_for(0), 0);
        assert_eq!(cfg.k_for(1), 1);
        assert_eq!(cfg.k_for(50), 1);
        assert_eq!(cfg.k_for(64 * 1024), 656);
        assert_eq!(CompressionConfig::Identity.k_for(7), 7);
    }

    #[test]
    fn labels_and_validation() {
        assert_eq!(CompressionConfig::Identity.label(), "identity");
        assert_eq!(CompressionConfig::TopK { ratio: 0.1 }.label(), "topk_0.1");
        assert_eq!(CompressionConfig::Int8Uniform.label(), "int8");
        assert!(CompressionConfig::default().is_identity());
        assert!(CompressionConfig::TopK { ratio: 0.5 }.validate().is_ok());
        assert!(CompressionConfig::TopK { ratio: 0.0 }.validate().is_err());
        assert!(CompressionConfig::TopK { ratio: 1.5 }.validate().is_err());
        assert!(CompressionConfig::TopK { ratio: f32::NAN }
            .validate()
            .is_err());
    }

    #[test]
    fn a_stream_step_retires_the_reference_it_replaces() {
        let (mut owner, mut reader) = (BufferPool::new(), BufferPool::new());
        let mut codec = CompressionConfig::Int8Uniform.codec();
        let mut stream = ParamStream::new(&[0.0; 8]);
        let mut block = CompressedBlock::default();
        let params: Vec<f32> = (0..8).map(|i| i as f32).collect();
        codec.encode_step(&params, &mut stream, None, &mut owner, &mut block);
        let shipped = stream.reference().snapshot();
        let old = shipped.as_slice().as_ptr();
        codec.encode_step(&params, &mut stream, None, &mut owner, &mut block);
        // The receiver's reclaim only drops its reference: the buffer
        // belongs to the pool whose step replaced it.
        reader.reclaim(shipped);
        assert_eq!(reader.free_buffers(), 0);
        codec.encode_step(&params, &mut stream, None, &mut owner, &mut block);
        assert_eq!(stream.reference().as_slice().as_ptr(), old);
    }

    #[test]
    fn encode_is_allocation_free_after_warmup() {
        for cfg in [
            CompressionConfig::TopK { ratio: 0.1 },
            CompressionConfig::Int8Uniform,
        ] {
            stream_steps_allocate_nothing(cfg, true);
            stream_steps_allocate_nothing(cfg, false);
        }
        for cfg in [
            CompressionConfig::Identity,
            CompressionConfig::TopK { ratio: 0.1 },
            CompressionConfig::Int8Uniform,
        ] {
            let mut codec = cfg.codec();
            let mut ef = ErrorFeedback::new();
            let mut pool = BufferPool::new();
            let mut block = CompressedBlock::default();
            let input: Vec<f32> = (0..257).map(|i| (i as f32).sin()).collect();
            let mut out = vec![0.0; input.len()];
            codec.encode_into(&input, &mut ef, &mut pool, &mut block);
            codec.decode_into(&block, &mut out);
            let warm = pool.stats();
            for _ in 0..10 {
                codec.encode_into(&input, &mut ef, &mut pool, &mut block);
                codec.decode_into(&block, &mut out);
            }
            let after = pool.stats();
            assert_eq!(
                after.fresh,
                warm.fresh,
                "{} hot path allocated after warmup",
                cfg.label()
            );
        }
    }

    /// Parameter-stream steps of `cfg`, sender and receiver, with a
    /// reader that holds each shipped reference for one step (`hold`: so
    /// every step writes a buffer from the pool) or without one (so every
    /// step writes in place): after warm-up neither the pool nor the
    /// block allocates.
    fn stream_steps_allocate_nothing(cfg: CompressionConfig, hold: bool) {
        let len = 257;
        let mut codec = cfg.codec();
        let (mut sender, mut receiver) =
            (ParamStream::new(&[0.0; 257]), ParamStream::new(&[0.0; 257]));
        let (mut pool, mut block, mut held) = (BufferPool::new(), CompressedBlock::default(), None);
        let mut warm = None;
        for round in 0..14 {
            let params: Vec<f32> = (0..len).map(|i| ((i * round) as f32).sin()).collect();
            codec.encode_step(&params, &mut sender, None, &mut pool, &mut block);
            receiver.apply(&block, &mut pool);
            held = hold.then(|| sender.reference().snapshot());
            let buffer = match &block {
                CompressedBlock::Sparse { indices, .. } => indices.as_ptr() as usize,
                CompressedBlock::Quantized { values, .. } => values.as_ptr() as usize,
                CompressedBlock::Dense { .. } => unreachable!("a lossy step"),
            };
            let now = (pool.stats().fresh, buffer);
            match warm {
                None if round == 3 => warm = Some(now),
                None => {}
                Some(warm) => assert_eq!(now, warm, "{} hold {hold} round {round}", cfg.label()),
            }
        }
        drop(held);
    }
}
