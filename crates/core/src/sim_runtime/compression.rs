//! The communication-compression plane shared by the simulated runtimes.
//!
//! A [`CompressionPlane`] adapts the stateless-per-message codecs of
//! [`hop_tensor::compress`] to the *stream* semantics a training protocol
//! needs. Two kinds of stream exist:
//!
//! * **Parameter streams** (gossip protocols, server broadcasts) follow
//!   the CHOCO-SGD construction: the sender keeps a *reference* copy
//!   `x̂` of what its receivers currently believe, encodes the delta
//!   `x − x̂`, advances `x̂` by the decoded delta, and ships the
//!   reconstruction `x̂` itself. The delta carries every bit the
//!   previous messages failed to move, so the reference *is* the error
//!   feedback and no residual takes part. The step is
//!   [`Codec::advance_step`] on a [`ParamStream`] — for int8 the
//!   quantize sweep alone when the Reduce that wrote the parameters
//!   measured the step's maximum (else a magnitude sweep first), and no
//!   `i8` written, since no one reads the block; for top-k one candidate
//!   scan that computes the delta as it reads, a threshold select and a
//!   k-entry advance — and the reference it leaves behind is shared with
//!   the message, not copied into it. (The process transport ships the
//!   block itself: [`CompressionPlane::encode_params_block`] runs
//!   [`Codec::encode_step`], which writes it.) Every receiver of the stream sees the identical
//!   reconstruction, so a top-k message still moves *all* replicas — it
//!   just moves them by a sparse, quantized step — and the Reduce
//!   semantics of each protocol are untouched.
//! * **Gradient streams** (worker → server pushes) are plain EF-SGD: the
//!   gradient plus residual is encoded, the decoded value replaces the
//!   gradient in place, and the residual keeps what was dropped.
//!
//! Wire accounting: each encode reports the encoded byte size for the
//! caller to charge to the virtual network. Because one encode can fan
//! out to many receivers (gossip, broadcast) or feed an analytic
//! pipeline (Prague), the *saving* is credited explicitly: the protocol
//! calls [`CompressionPlane::charge`] with the receiver count it
//! actually billed, and the plane accumulates `receivers × (dense −
//! encoded)` into [`CompressionPlane::bytes_saved`] (reported via the
//! digest-excluded [`crate::report::TrainingReport::bytes_saved`]). The
//! invariant the accounting tests pin: `bytes_sent + bytes_saved` of a
//! compressed run equals `bytes_sent` of the identity run.
//!
//! Identity discipline: when the configured codec is the identity, call
//! sites must skip the plane entirely ([`CompressionPlane::is_active`]
//! is false) and take their pre-compression path — the plane asserts it
//! is never driven in identity mode, which is what keeps every pinned
//! digest byte-identical under the default configuration.

use hop_tensor::{
    BufferPool, Codec, CompressedBlock, CompressionConfig, Compressor, ErrorFeedback, ParamBlock,
    ParamStream,
};

#[cfg(test)]
thread_local! {
    /// Tests set this to make every parameter-stream step on this thread
    /// start without a selection floor: a run's digest must not notice.
    pub(crate) static FORGET_FLOORS: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };

    /// Tests set this to make every parameter-stream step on this thread
    /// sweep for its int8 maximum, dropping the one its Reduce measured:
    /// a run's digest must not notice either.
    pub(crate) static DROP_MAX_HINTS: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Per-stream codec state.
#[derive(Debug)]
enum Stream {
    /// A parameter stream: the reconstruction every receiver holds.
    Params(ParamStream),
    /// A gradient stream: the error-feedback residual.
    Grads(ErrorFeedback),
}

/// Parameter stream `slot` of an active plane.
fn param_stream(cfg: CompressionConfig, streams: &mut [Stream], slot: usize) -> &mut ParamStream {
    assert!(!cfg.is_identity(), "identity plane must not be driven");
    match &mut streams[slot] {
        Stream::Params(stream) => stream,
        Stream::Grads(_) => panic!("stream {slot} is a gradient stream"),
    }
}

/// Stream-compression state for one protocol run: a codec, per-stream
/// reference/residual state, and the reusable wire-format block.
#[derive(Debug)]
pub struct CompressionPlane {
    cfg: CompressionConfig,
    codec: Codec,
    streams: Vec<Stream>,
    /// Wire-format scratch, reused across encodes.
    block: CompressedBlock,
    bytes_saved: u64,
}

impl CompressionPlane {
    /// A plane for `cfg` with no streams yet (see
    /// [`Self::add_param_streams`] / [`Self::add_grad_streams`]).
    pub fn new(cfg: CompressionConfig) -> Self {
        Self {
            cfg,
            codec: Codec::new(cfg),
            streams: Vec::new(),
            block: CompressedBlock::default(),
            bytes_saved: 0,
        }
    }

    /// Whether a lossy codec is configured. When false the protocol must
    /// bypass the plane entirely (the identity contract above).
    pub fn is_active(&self) -> bool {
        !self.cfg.is_identity()
    }

    /// The configuration this plane runs.
    pub fn config(&self) -> CompressionConfig {
        self.cfg
    }

    /// Appends `n` parameter streams whose receivers start out holding
    /// `init` (every runtime initializes all replicas identically, so the
    /// reference starts in sync by construction). No-op when inactive.
    pub fn add_param_streams(&mut self, n: usize, init: &[f32]) {
        if self.is_active() {
            let streams = (0..n).map(|_| Stream::Params(ParamStream::new(init)));
            self.streams.extend(streams);
        }
    }

    /// Appends `n` gradient streams (error feedback only, no reference).
    /// No-op when inactive.
    pub fn add_grad_streams(&mut self, n: usize) {
        if self.is_active() {
            let streams = (0..n).map(|_| Stream::Grads(ErrorFeedback::new()));
            self.streams.extend(streams);
        }
    }

    /// Parameter stream `slot`'s reference when the next step's int8
    /// scale is `max|params - reference|`: what a Reduce writing the
    /// parameters that stream sends next can measure on the way
    /// ([`hop_tensor::ops::scaled_sum`]), for [`Self::encode_params`] to
    /// take instead of a sweep. `None` under any other codec, and for a
    /// gradient stream.
    pub fn int8_reference(&self, slot: usize) -> Option<&[f32]> {
        match (self.cfg, self.streams.get(slot)) {
            (CompressionConfig::Int8Uniform, Some(Stream::Params(stream))) => {
                Some(stream.reference().as_slice())
            }
            _ => None,
        }
    }

    /// One sender step of parameter stream `slot`, writing the block to
    /// `self.block` if `read` ([`Codec::encode_step`]) or only what the
    /// step needs ([`Codec::advance_step`]); returns the wire bytes. The
    /// stream's reference is then the reconstruction to ship.
    fn step(
        &mut self,
        slot: usize,
        params: &[f32],
        max_delta: Option<f32>,
        pool: &mut BufferPool,
        read: bool,
    ) -> u64 {
        let stream = param_stream(self.cfg, &mut self.streams, slot);
        #[cfg(test)]
        if FORGET_FLOORS.get() {
            stream.selection_mut().set_floor(None);
        }
        #[cfg(test)]
        let max_delta = max_delta.filter(|_| !DROP_MAX_HINTS.get());
        if read {
            self.codec
                .encode_step(params, stream, max_delta, pool, &mut self.block);
            self.block.encoded_bytes()
        } else {
            self.codec
                .advance_step(params, stream, max_delta, pool, &mut self.block)
        }
    }

    /// Encodes parameter stream `slot`'s step from its reference to
    /// `params`, advancing the reference by the decoded delta. Returns
    /// the reconstruction to ship (pool-backed, reclaimable) and the
    /// encoded wire bytes to charge the network. `max_delta` is the
    /// step's int8 maximum if the caller measured it (see
    /// [`Self::int8_reference`]; [`Codec::encode_step`] says what it must
    /// be). No one reads the block, so an int8 step writes none.
    ///
    /// # Panics
    ///
    /// Panics if the plane is inactive or `slot` is not a parameter
    /// stream of `params.len()` elements.
    pub fn encode_params(
        &mut self,
        slot: usize,
        params: &[f32],
        max_delta: Option<f32>,
        pool: &mut BufferPool,
    ) -> (ParamBlock, u64) {
        let bytes = self.step(slot, params, max_delta, pool, false);
        let stream = param_stream(self.cfg, &mut self.streams, slot);
        (stream.reference().snapshot(), bytes)
    }

    /// Like [`Self::encode_params`], but returns the encoded wire block
    /// itself instead of the reconstruction. This is the transport-facing
    /// variant: the process runtime ships the *block* over the socket and
    /// lets each receiver advance its own mirrored reference, so the
    /// bytes charged here are exactly the bytes that cross the wire.
    ///
    /// # Panics
    ///
    /// Panics if the plane is inactive or `slot` is not a parameter
    /// stream of `params.len()` elements.
    pub fn encode_params_block(
        &mut self,
        slot: usize,
        params: &[f32],
        max_delta: Option<f32>,
        pool: &mut BufferPool,
    ) -> (&CompressedBlock, u64) {
        let bytes = self.step(slot, params, max_delta, pool, true);
        (&self.block, bytes)
    }

    /// Applies a received parameter-stream block to the local mirror of
    /// the sender's reference, returning the updated reconstruction. The
    /// receiving side of [`Self::encode_params_block`]: as long as blocks
    /// arrive in order (a stream socket guarantees this), the mirror here
    /// equals the sender's reference bit-for-bit.
    ///
    /// # Panics
    ///
    /// Panics if the plane is inactive, `slot` is not a parameter
    /// stream, or the block's decoded length does not match the stream.
    pub fn apply_params_block(
        &mut self,
        slot: usize,
        block: &CompressedBlock,
        pool: &mut BufferPool,
    ) -> ParamBlock {
        let stream = param_stream(self.cfg, &mut self.streams, slot);
        stream.apply(block, pool);
        stream.reference().snapshot()
    }

    /// Encodes gradient stream `slot`'s message, replacing `grad` with
    /// its lossy reconstruction (EF-SGD) and returning the encoded wire
    /// bytes.
    ///
    /// # Panics
    ///
    /// Panics if the plane is inactive or `slot` is not a gradient stream.
    pub fn encode_grad(&mut self, slot: usize, grad: &mut [f32], pool: &mut BufferPool) -> u64 {
        assert!(self.is_active(), "identity plane must not be driven");
        let Stream::Grads(ef) = &mut self.streams[slot] else {
            panic!("stream {slot} is a parameter stream");
        };
        self.codec.encode_into(grad, ef, pool, &mut self.block);
        self.codec.decode_into(&self.block, grad);
        self.block.encoded_bytes()
    }

    /// Stream `slot`'s top-k selection hint: how many selections it
    /// made, how many of them needed a histogram pass and how many
    /// candidates their scans admitted (all zero under int8). Not part
    /// of any report or digest; only tests read it.
    #[cfg(test)]
    pub(crate) fn selection(&self, slot: usize) -> &hop_tensor::SelectionHint {
        match &self.streams[slot] {
            Stream::Params(stream) => stream.selection(),
            Stream::Grads(ef) => ef.selection(),
        }
    }

    /// Credits the saving for `receivers` network messages that were
    /// billed at `wire_bytes` instead of `dense_bytes` each. Protocols
    /// call this alongside the network charge so `bytes_saved` mirrors
    /// exactly what the virtual network was (not) asked to move.
    pub fn charge(&mut self, receivers: u64, dense_bytes: u64, wire_bytes: u64) {
        // Sparse blocks can exceed dense size at high keep ratios; a
        // saving never goes negative.
        self.bytes_saved += receivers * dense_bytes.saturating_sub(wire_bytes);
    }

    /// Total bytes the codec avoided sending so far (dense − encoded,
    /// summed over every encode).
    pub fn bytes_saved(&self) -> u64 {
        self.bytes_saved
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_plane_is_inert() {
        let mut plane = CompressionPlane::new(CompressionConfig::Identity);
        assert!(!plane.is_active());
        plane.add_param_streams(4, &[1.0, 2.0]);
        plane.add_grad_streams(4);
        assert_eq!(plane.bytes_saved(), 0);
    }

    #[test]
    fn param_stream_reference_tracks_reconstructions() {
        let cfg = CompressionConfig::TopK { ratio: 0.5 };
        let mut plane = CompressionPlane::new(cfg);
        let mut pool = BufferPool::new();
        let init = [0.0f32; 4];
        plane.add_param_streams(1, &init);
        // Step to [4, 0.1, 0, 0]: top-2 of the delta keeps 4 and 0.1.
        let (recon, wire) = plane.encode_params(0, &[4.0, 0.1, 0.0, 0.0], None, &mut pool);
        assert_eq!(wire, 4 + 8 * 2);
        assert_eq!(recon.as_slice(), &[4.0, 0.1, 0.0, 0.0]);
        // Next step from the updated reference: only the change moves.
        let (recon, _) = plane.encode_params(0, &[4.0, 0.1, 3.0, 0.2], None, &mut pool);
        assert_eq!(recon.as_slice(), &[4.0, 0.1, 3.0, 0.2]);
        // At ratio 0.5 on 4 elements the sparse format (20 B) exceeds the
        // dense one (16 B): the saving saturates at zero, never negative.
        plane.charge(3, 16, wire);
        assert_eq!(plane.bytes_saved(), 0);
    }

    #[test]
    fn charge_scales_the_saving_by_receiver_count() {
        let mut plane = CompressionPlane::new(CompressionConfig::Int8Uniform);
        plane.charge(5, 400, 104);
        assert_eq!(plane.bytes_saved(), 5 * (400 - 104));
    }

    #[test]
    fn dropped_delta_mass_arrives_via_error_feedback() {
        let cfg = CompressionConfig::TopK { ratio: 0.25 };
        let mut plane = CompressionPlane::new(cfg);
        let mut pool = BufferPool::new();
        plane.add_param_streams(1, &[0.0; 4]);
        // Only the largest of the four moves per message...
        let target = [1.0f32, 0.5, 0.25, 0.125];
        let (recon, _) = plane.encode_params(0, &target, None, &mut pool);
        assert_eq!(recon.as_slice(), &[1.0, 0.0, 0.0, 0.0]);
        // ...but with a stationary sender the residual drains: after a
        // few messages the reconstruction converges to the target.
        let mut last = recon;
        for _ in 0..3 {
            let (r, _) = plane.encode_params(0, &target, None, &mut pool);
            last = r;
        }
        assert_eq!(last.as_slice(), &target);
    }

    #[test]
    fn grad_stream_is_plain_error_feedback() {
        let mut plane = CompressionPlane::new(CompressionConfig::Int8Uniform);
        let mut pool = BufferPool::new();
        plane.add_grad_streams(1);
        let mut grad = [0.5f32, -0.25, 0.1];
        let wire = plane.encode_grad(0, &mut grad, &mut pool);
        assert_eq!(wire, 4 + 4 + 3);
        // Reconstruction error stays within half a quantization step.
        let scale = 0.5 / 127.0;
        assert!((grad[0] - 0.5).abs() <= scale * 0.5000001);
        plane.charge(1, 12, wire);
        assert_eq!(plane.bytes_saved(), 12 - 11);
    }

    #[test]
    #[should_panic(expected = "identity plane must not be driven")]
    fn identity_plane_refuses_to_encode() {
        let mut plane = CompressionPlane::new(CompressionConfig::Identity);
        let mut pool = BufferPool::new();
        plane.encode_grad(0, &mut [1.0], &mut pool);
    }
}
