//! Length-prefixed wire format for the multi-process runtime.
//!
//! Every socket in the process runtime carries a stream of *frames*:
//! a little-endian `u32` payload length followed by exactly that many
//! payload bytes. The first payload byte is a [`Message`] discriminant;
//! the rest is the fixed per-variant body described on each variant. A
//! blocking reader takes one frame at a time with [`read_message`]; a
//! reader that buffers whatever a non-blocking socket had parses frames
//! off the front of its buffer with [`next_frame`], which decodes an
//! update's block into a [`CompressedBlock`] the reader keeps, so a
//! steady stream of updates allocates nothing.
//!
//! The format exists to make the simulated byte accounting *true on a
//! real wire*: an [`Message::Update`] frame embeds a
//! [`CompressedBlock`] in exactly
//! [`CompressedBlock::encoded_bytes`] payload bytes — dense `4·len`,
//! sparse `4 + 8·k`, int8 `4 + 4 + len` — so a process-runtime worker
//! that sums its update block bytes reports the same number the
//! discrete-event simulator charges its virtual network. (Frame and
//! header bytes are transport overhead on both sides and counted by
//! neither.)
//!
//! Decoding fails *closed*: a peer death mid-frame surfaces as
//! [`WireError::Closed`] or [`WireError::Truncated`], an oversized
//! length prefix as [`WireError::FrameTooLarge`] (nothing is
//! allocated), unknown discriminants as
//! [`WireError::UnknownDiscriminant`] /
//! [`WireError::UnknownBlockKind`], and structurally invalid bodies as
//! [`WireError::Malformed`]. No input byte sequence panics, and a
//! socket read timeout surfaces as [`WireError::Timeout`] instead of a
//! hang — a timeout mid-frame poisons the stream (the remaining bytes
//! of the half-read frame are unrecoverable), so callers either read
//! without a timeout and rely on peer-close, or treat `Timeout` as
//! fatal for that connection.

use std::fmt;
use std::io::{ErrorKind, Read, Write};

use hop_queue::Tag;
use hop_tensor::CompressedBlock;

/// Largest payload a frame may declare (64 MiB). A prefix beyond this
/// is rejected before any allocation — a corrupt or adversarial length
/// word cannot balloon memory.
pub const MAX_FRAME_LEN: u32 = 64 * 1024 * 1024;

/// Everything that can go wrong reading or writing a frame.
#[derive(Debug)]
pub enum WireError {
    /// The peer closed the connection cleanly between frames.
    Closed,
    /// The stream ended mid-frame: `got` of `expected` bytes arrived
    /// before EOF. The classic killed-peer signature.
    Truncated {
        /// Bytes the frame (or its length prefix) still owed.
        expected: usize,
        /// Bytes that actually arrived.
        got: usize,
    },
    /// The length prefix exceeds [`MAX_FRAME_LEN`].
    FrameTooLarge {
        /// The declared payload length.
        len: u32,
    },
    /// The payload's first byte names no known [`Message`] variant.
    UnknownDiscriminant {
        /// The offending discriminant byte.
        tag: u8,
    },
    /// An update frame's block-kind byte names no known
    /// [`CompressedBlock`] variant.
    UnknownBlockKind {
        /// The offending kind byte.
        kind: u8,
    },
    /// The payload parsed but its structure is inconsistent (short
    /// body, misaligned array region, out-of-range or non-ascending
    /// sparse index, ...).
    Malformed(&'static str),
    /// A socket read timeout elapsed. Between frames this is retryable;
    /// mid-frame it poisons the stream.
    Timeout,
    /// Any other I/O failure.
    Io(std::io::Error),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Closed => write!(f, "connection closed by peer"),
            WireError::Truncated { expected, got } => {
                write!(f, "stream truncated mid-frame ({got} of {expected} bytes)")
            }
            WireError::FrameTooLarge { len } => {
                write!(f, "frame length {len} exceeds the {MAX_FRAME_LEN}-byte cap")
            }
            WireError::UnknownDiscriminant { tag } => {
                write!(f, "unknown message discriminant {tag:#04x}")
            }
            WireError::UnknownBlockKind { kind } => {
                write!(f, "unknown compressed-block kind {kind:#04x}")
            }
            WireError::Malformed(what) => write!(f, "malformed frame: {what}"),
            WireError::Timeout => write!(f, "socket read timed out"),
            WireError::Io(e) => write!(f, "socket i/o error: {e}"),
        }
    }
}

impl std::error::Error for WireError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WireError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

/// One framed message of the process-runtime protocol.
///
/// Wire bodies are little-endian throughout. Strings are UTF-8; where a
/// string is the final field its length is implied by the frame length.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// First frame on every connection, identifying the dialer. Body:
    /// `u32 worker`.
    Hello {
        /// The sending worker's id.
        worker: u32,
    },
    /// Coordinator → worker: everything the worker runs, in the
    /// runtime's own little-endian layout (read back with a [`Body`]).
    /// Body: the spec bytes to frame end.
    Spec {
        /// The encoded worker spec.
        body: Vec<u8>,
    },
    /// A tagged parameter update. Body: `u64 iter`, `u32 w_id`,
    /// `u64 clock` (sender's Lamport stamp), `u8 block kind`, then the
    /// block in exactly [`CompressedBlock::encoded_bytes`] bytes.
    Update {
        /// The update's `(iter, w_id)` tag.
        tag: Tag,
        /// Sender's Lamport clock at send time.
        clock: u64,
        /// The (possibly compressed) parameter block.
        block: CompressedBlock,
    },
    /// Token grant(s) from a queue owner. Body: `u64 count`,
    /// `u64 clock`.
    Token {
        /// Number of tokens granted.
        count: u64,
        /// Sender's Lamport clock at grant time.
        clock: u64,
    },
    /// Graceful end-of-stream: the sender finished its last iteration
    /// and will close the connection. EOF *without* a preceding
    /// `Finished` means the peer died. Body: `u32 worker`.
    Finished {
        /// The finishing worker.
        worker: u32,
    },
    /// Worker → coordinator final report. Body: `u32 worker`, `u8 ok`,
    /// `u64 update_wire_bytes`, `u32 error len` + error text,
    /// `u32 n` + `n` f32 final params, `u32 m` + `m` f32 losses, then
    /// the stamped event text (`<stamp> <event>` lines) to frame end.
    Summary {
        /// The reporting worker.
        worker: u32,
        /// Whether the worker completed all iterations.
        ok: bool,
        /// Error description when `ok` is false (empty otherwise).
        error: String,
        /// Total update-block payload bytes this worker wrote — the
        /// number that must equal the simulator's per-worker
        /// `bytes_sent`.
        update_wire_bytes: u64,
        /// Final parameter vector.
        final_params: Vec<f32>,
        /// Per-iteration training losses.
        losses: Vec<f32>,
        /// Lamport-stamped protocol events, one `<stamp> <event>` per
        /// line, mergeable into a global `ProtocolTrace`.
        events_text: String,
    },
}

// 3, 6 and 7 belonged to retired messages and stay unassigned.
const TAG_HELLO: u8 = 1;
const TAG_SPEC: u8 = 2;
const TAG_UPDATE: u8 = 4;
const TAG_TOKEN: u8 = 5;
const TAG_FINISHED: u8 = 8;
const TAG_SUMMARY: u8 = 9;

const KIND_DENSE: u8 = 0;
const KIND_SPARSE: u8 = 1;
const KIND_QUANTIZED: u8 = 2;

/// Serializes `msg` into `out` as one complete frame (length prefix
/// included), returning the update-block payload bytes the frame
/// carries (0 for every non-`Update` message). The returned count is
/// exactly [`CompressedBlock::encoded_bytes`] — the wire-accounting
/// contract the conformance tests pin.
pub fn encode_frame(msg: &Message, out: &mut Vec<u8>) -> u64 {
    framed(out, |out| encode_payload(msg, out))
}

/// Serializes one complete [`Message::Update`] frame from borrowed
/// parts, returning the block payload bytes (see [`encode_frame`]).
/// The fan-out path: a sender encodes its block once and writes the
/// same buffer to every outgoing connection without cloning the block
/// into an owned [`Message`].
pub fn encode_update_frame(
    tag: Tag,
    clock: u64,
    block: &CompressedBlock,
    out: &mut Vec<u8>,
) -> u64 {
    framed(out, |out| encode_update(tag, clock, block, out))
}

/// Replaces `out` with one frame: the length prefix, then what `payload`
/// writes. Returns what `payload` returns.
fn framed(out: &mut Vec<u8>, payload: impl FnOnce(&mut Vec<u8>) -> u64) -> u64 {
    out.clear();
    out.extend_from_slice(&[0; 4]); // patched with the length below
    let block_bytes = payload(out);
    let len = (out.len() - 4) as u32;
    out[..4].copy_from_slice(&len.to_le_bytes());
    block_bytes
}

/// Appends an `Update` payload (discriminant, tag, clock, block) and
/// returns the block payload bytes, exactly
/// [`CompressedBlock::encoded_bytes`].
fn encode_update(tag: Tag, clock: u64, block: &CompressedBlock, out: &mut Vec<u8>) -> u64 {
    out.push(TAG_UPDATE);
    out.extend_from_slice(&tag.iter.to_le_bytes());
    out.extend_from_slice(&(tag.w_id as u32).to_le_bytes());
    out.extend_from_slice(&clock.to_le_bytes());
    let before = out.len();
    encode_block(block, out);
    let written = (out.len() - before - 1) as u64;
    debug_assert_eq!(
        written,
        block.encoded_bytes(),
        "block serializer out of sync with encoded_bytes()"
    );
    written
}

fn encode_payload(msg: &Message, out: &mut Vec<u8>) -> u64 {
    match msg {
        Message::Hello { worker } => {
            out.push(TAG_HELLO);
            out.extend_from_slice(&worker.to_le_bytes());
            0
        }
        Message::Spec { body } => {
            out.push(TAG_SPEC);
            out.extend_from_slice(body);
            0
        }
        Message::Update { tag, clock, block } => encode_update(*tag, *clock, block, out),
        Message::Token { count, clock } => {
            out.push(TAG_TOKEN);
            out.extend_from_slice(&count.to_le_bytes());
            out.extend_from_slice(&clock.to_le_bytes());
            0
        }
        Message::Finished { worker } => {
            out.push(TAG_FINISHED);
            out.extend_from_slice(&worker.to_le_bytes());
            0
        }
        Message::Summary {
            worker,
            ok,
            error,
            update_wire_bytes,
            final_params,
            losses,
            events_text,
        } => {
            out.push(TAG_SUMMARY);
            out.extend_from_slice(&worker.to_le_bytes());
            out.push(u8::from(*ok));
            out.extend_from_slice(&update_wire_bytes.to_le_bytes());
            out.extend_from_slice(&(error.len() as u32).to_le_bytes());
            out.extend_from_slice(error.as_bytes());
            out.extend_from_slice(&(final_params.len() as u32).to_le_bytes());
            extend_le(out, final_params, f32::to_le_bytes);
            out.extend_from_slice(&(losses.len() as u32).to_le_bytes());
            extend_le(out, losses, f32::to_le_bytes);
            out.extend_from_slice(events_text.as_bytes());
            0
        }
    }
}

/// Appends `words` as little-endian 4-byte groups: one exact-size grow,
/// then a fill the compiler turns into a block copy (appending word by
/// word re-checks the capacity 64K times per dense block).
fn extend_le<T: Copy>(out: &mut Vec<u8>, words: &[T], le_bytes: impl Fn(T) -> [u8; 4]) {
    let start = out.len();
    out.resize(start + 4 * words.len(), 0);
    for (dst, &word) in out[start..].chunks_exact_mut(4).zip(words) {
        dst.copy_from_slice(&le_bytes(word));
    }
}

/// Writes the block-kind byte plus the block in exactly
/// [`CompressedBlock::encoded_bytes`] payload bytes.
fn encode_block(block: &CompressedBlock, out: &mut Vec<u8>) {
    match block {
        CompressedBlock::Dense { values } => {
            out.push(KIND_DENSE);
            extend_le(out, values, f32::to_le_bytes);
        }
        CompressedBlock::Sparse {
            len,
            indices,
            values,
        } => {
            out.push(KIND_SPARSE);
            out.extend_from_slice(&len.to_le_bytes());
            extend_le(out, indices, u32::to_le_bytes);
            extend_le(out, values, f32::to_le_bytes);
        }
        CompressedBlock::Quantized { scale, values } => {
            out.push(KIND_QUANTIZED);
            out.extend_from_slice(&(values.len() as u32).to_le_bytes());
            out.extend_from_slice(&scale.to_le_bytes());
            // A slice iterator reports its exact length: one reserve.
            out.extend(values.iter().map(|&q| q as u8));
        }
    }
}

/// Frames and writes `msg` to `w` (`write_all` + flush), returning the
/// update-block payload bytes written (see [`encode_frame`]).
///
/// # Errors
///
/// [`WireError::Io`] when the underlying write or flush fails.
pub fn write_message<W: Write>(w: &mut W, msg: &Message) -> Result<u64, WireError> {
    let mut buf = Vec::new();
    let block_bytes = encode_frame(msg, &mut buf);
    w.write_all(&buf)?;
    w.flush()?;
    Ok(block_bytes)
}

/// Reads one complete frame from `r` and decodes it.
///
/// # Errors
///
/// Fails closed on every malformed input: [`WireError::Closed`] on EOF
/// at a frame boundary, [`WireError::Truncated`] on EOF mid-frame,
/// [`WireError::FrameTooLarge`] before allocating an oversized payload,
/// [`WireError::Timeout`] when the stream has a read timeout and it
/// elapses, and the decode errors documented on [`WireError`].
pub fn read_message<R: Read>(r: &mut R) -> Result<Message, WireError> {
    let mut prefix = [0u8; 4];
    read_full(r, &mut prefix, true)?;
    let mut payload = vec![0u8; payload_len(prefix)?];
    read_full(r, &mut payload, false)?;
    decode_payload(&payload)
}

/// A frame [`next_frame`] decoded: an update, whose block went into the
/// caller's [`CompressedBlock`], or any other message.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// A [`Message::Update`] without its block.
    Update {
        /// The update's `(iter, w_id)` tag.
        tag: Tag,
        /// Sender's Lamport clock at send time.
        clock: u64,
    },
    /// Every other message.
    Other(Message),
}

/// Parses the frame at the front of `buf`, a byte stream read so far:
/// `Ok(None)` while `buf` holds only a proper prefix of a frame, else
/// the frame and the bytes it used (length prefix included). An update's
/// block is decoded into `block`, reusing its buffers when it already
/// holds the same kind.
///
/// # Errors
///
/// Fails closed exactly like [`read_message`]:
/// [`WireError::FrameTooLarge`] as soon as the 4 prefix bytes are in
/// (nothing is sized from them), then the decode errors documented on
/// [`WireError`] once the whole frame is. After an error `block` holds
/// unspecified values.
pub fn next_frame(
    buf: &[u8],
    block: &mut CompressedBlock,
) -> Result<Option<(Frame, usize)>, WireError> {
    let Some(&prefix) = buf.first_chunk::<4>() else {
        return Ok(None);
    };
    let end = 4 + payload_len(prefix)?;
    match buf.get(4..end) {
        Some(payload) => Ok(Some((decode_payload_into(payload, block)?, end))),
        None => Ok(None),
    }
}

/// The payload length a frame's prefix declares, capped at
/// [`MAX_FRAME_LEN`].
fn payload_len(prefix: [u8; 4]) -> Result<usize, WireError> {
    match u32::from_le_bytes(prefix) {
        len if len > MAX_FRAME_LEN => Err(WireError::FrameTooLarge { len }),
        len => Ok(len as usize),
    }
}

/// `read_exact` with typed boundary semantics: EOF before the first
/// byte of a frame is [`WireError::Closed`]; EOF or a read timeout
/// anywhere else is [`WireError::Truncated`] / [`WireError::Timeout`].
fn read_full<R: Read>(r: &mut R, buf: &mut [u8], frame_start: bool) -> Result<(), WireError> {
    let mut got = 0;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) => {
                return if frame_start && got == 0 {
                    Err(WireError::Closed)
                } else {
                    Err(WireError::Truncated {
                        expected: buf.len(),
                        got,
                    })
                };
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                return Err(WireError::Timeout);
            }
            Err(e) => return Err(WireError::Io(e)),
        }
    }
    Ok(())
}

/// Bounds-checked little-endian reader over one frame payload (or any
/// body laid out the same way): a read past the end is
/// [`WireError::Malformed`], never a panic.
pub struct Body<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Body<'a> {
    /// A reader at the start of `bytes`.
    #[must_use]
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.bytes.len() - self.pos < n {
            return Err(WireError::Malformed("body shorter than its fields"));
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// The next byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// The next little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// The next little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// The next little-endian `f32`.
    pub fn f32(&mut self) -> Result<f32, WireError> {
        Ok(f32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// A `u32`-counted f32 array (count validated against the body).
    fn f32_array(&mut self) -> Result<Vec<f32>, WireError> {
        let n = self.u32()? as usize;
        let raw = self.take(
            n.checked_mul(4)
                .ok_or(WireError::Malformed("f32 array count overflows the frame"))?,
        )?;
        Ok(le_f32s(raw).collect())
    }

    /// The remaining bytes as UTF-8 text.
    fn rest_utf8(&mut self) -> Result<String, WireError> {
        let raw = &self.bytes[self.pos..];
        self.pos = self.bytes.len();
        String::from_utf8(raw.to_vec()).map_err(|_| WireError::Malformed("text is not UTF-8"))
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Ends the read: bytes left over are [`WireError::Malformed`].
    pub fn finish(self) -> Result<(), WireError> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(WireError::Malformed("trailing bytes after the body"))
        }
    }
}

/// Decodes one frame payload (discriminant byte + body).
///
/// # Errors
///
/// The decode errors documented on [`WireError`]; an empty payload is
/// [`WireError::Malformed`].
pub fn decode_payload(payload: &[u8]) -> Result<Message, WireError> {
    let mut block = CompressedBlock::default();
    Ok(match decode_payload_into(payload, &mut block)? {
        Frame::Update { tag, clock } => Message::Update { tag, clock, block },
        Frame::Other(msg) => msg,
    })
}

/// [`decode_payload`], with an update's block decoded into `block`.
fn decode_payload_into(payload: &[u8], block: &mut CompressedBlock) -> Result<Frame, WireError> {
    let Some((&tag, rest)) = payload.split_first() else {
        return Err(WireError::Malformed("empty payload"));
    };
    let mut b = Body::new(rest);
    let msg = match tag {
        TAG_HELLO => Message::Hello { worker: b.u32()? },
        TAG_SPEC => Message::Spec {
            body: b.take(b.remaining())?.to_vec(),
        },
        TAG_UPDATE => {
            let iter = b.u64()?;
            let w_id = b.u32()? as usize;
            let clock = b.u64()?;
            decode_block(&mut b, block)?;
            b.finish()?;
            return Ok(Frame::Update {
                tag: Tag { iter, w_id },
                clock,
            });
        }
        TAG_TOKEN => Message::Token {
            count: b.u64()?,
            clock: b.u64()?,
        },
        TAG_FINISHED => Message::Finished { worker: b.u32()? },
        TAG_SUMMARY => Message::Summary {
            worker: b.u32()?,
            ok: b.u8()? != 0,
            update_wire_bytes: b.u64()?,
            error: {
                let n = b.u32()? as usize;
                String::from_utf8(b.take(n)?.to_vec())
                    .map_err(|_| WireError::Malformed("text is not UTF-8"))?
            },
            final_params: b.f32_array()?,
            losses: b.f32_array()?,
            events_text: b.rest_utf8()?,
        },
        other => return Err(WireError::UnknownDiscriminant { tag: other }),
    };
    b.finish()?;
    Ok(Frame::Other(msg))
}

/// `raw` read as little-endian `f32`s (a trailing partial word is
/// ignored).
fn le_f32s(raw: &[u8]) -> impl Iterator<Item = f32> + '_ {
    let word = |c: &[u8]| c.try_into().expect("chunks_exact(4) yields 4 bytes");
    raw.chunks_exact(4)
        .map(move |c| f32::from_le_bytes(word(c)))
}

/// Decodes a block (kind byte + [`CompressedBlock::encoded_bytes`]
/// payload bytes) from the remainder of an update body into `block`.
fn decode_block(b: &mut Body<'_>, block: &mut CompressedBlock) -> Result<(), WireError> {
    let kind = b.u8()?;
    match kind {
        KIND_DENSE => {
            // Dense blocks are raw f32s to frame end; the length word
            // the simulator charges for is the frame's own prefix.
            if !b.remaining().is_multiple_of(4) {
                return Err(WireError::Malformed("dense block not f32-aligned"));
            }
            let raw = b.take(b.remaining())?;
            let values = block.make_dense();
            values.clear();
            values.extend(le_f32s(raw));
        }
        KIND_SPARSE => {
            let len = b.u32()?;
            if !b.remaining().is_multiple_of(8) {
                return Err(WireError::Malformed("sparse block pairs misaligned"));
            }
            let k = b.remaining() / 8;
            let (indices, values) = block.make_sparse(len);
            // Canonical order is strictly ascending: a receiver advances
            // its reference by each entry once, so a repeated index must
            // not get through.
            indices.clear();
            for _ in 0..k {
                let i = b.u32()?;
                if i >= len {
                    return Err(WireError::Malformed("sparse index out of range"));
                }
                if indices.last().is_some_and(|&prev| prev >= i) {
                    return Err(WireError::Malformed("sparse indices not ascending"));
                }
                indices.push(i);
            }
            let raw = b.take(4 * k)?;
            values.clear();
            values.extend(le_f32s(raw));
        }
        KIND_QUANTIZED => {
            let len = b.u32()? as usize;
            let scale = b.f32()?;
            if b.remaining() != len {
                return Err(WireError::Malformed("quantized length word disagrees"));
            }
            let raw = b.take(len)?;
            let values = block.make_quantized(scale);
            values.clear();
            values.extend(raw.iter().map(|&x| x as i8));
        }
        other => return Err(WireError::UnknownBlockKind { kind: other }),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(msg: Message) -> Message {
        let mut frame = Vec::new();
        encode_frame(&msg, &mut frame);
        let decoded = read_message(&mut frame.as_slice()).expect("roundtrip");
        assert_eq!(decoded, msg);
        decoded
    }

    #[test]
    fn every_variant_roundtrips() {
        roundtrip(Message::Hello { worker: 3 });
        roundtrip(Message::Spec {
            body: vec![4, 0, 0, 0, 0x88, 0x13],
        });
        roundtrip(Message::Token { count: 2, clock: 9 });
        roundtrip(Message::Finished { worker: 7 });
        roundtrip(Message::Summary {
            worker: 2,
            ok: false,
            error: "worker 2 stalled".into(),
            update_wire_bytes: 12345,
            final_params: vec![1.5, -2.25],
            losses: vec![0.7, 0.6, 0.55],
            events_text: "4 advance w=2 iter=0\n9 send from=2 to=0 iter=0\n".into(),
        });
    }

    #[test]
    fn all_block_kinds_roundtrip_at_their_encoded_size() {
        let blocks = [
            CompressedBlock::Dense {
                values: vec![1.0, -2.5, 0.0, f32::MIN_POSITIVE],
            },
            CompressedBlock::Sparse {
                len: 10,
                indices: vec![1, 4, 9],
                values: vec![0.5, -0.25, 8.0],
            },
            CompressedBlock::Quantized {
                scale: 0.01,
                values: vec![-127, 0, 3, 127],
            },
        ];
        for block in blocks {
            let msg = Message::Update {
                tag: Tag { iter: 6, w_id: 1 },
                clock: 42,
                block: block.clone(),
            };
            let mut frame = Vec::new();
            let counted = encode_frame(&msg, &mut frame);
            // The wire-accounting contract: the serializer spends
            // exactly encoded_bytes() on the block. Frame layout is
            // 4 (prefix) + 1 (discriminant) + 20 (tag+clock) + 1
            // (kind) + block payload.
            assert_eq!(counted, block.encoded_bytes());
            assert_eq!(frame.len() as u64, 4 + 1 + 20 + 1 + block.encoded_bytes());
            assert_eq!(roundtrip(msg), roundtrip_frame(&frame));
        }
    }

    fn roundtrip_frame(frame: &[u8]) -> Message {
        read_message(&mut &frame[..]).expect("frame decodes")
    }

    /// [`next_frame`] with a fresh block, as a [`Message`].
    fn next_message(buf: &[u8]) -> Result<Option<(Message, usize)>, WireError> {
        let mut block = CompressedBlock::default();
        Ok(next_frame(buf, &mut block)?.map(|(frame, used)| {
            let msg = match frame {
                Frame::Update { tag, clock } => Message::Update { tag, clock, block },
                Frame::Other(msg) => msg,
            };
            (msg, used)
        }))
    }

    #[test]
    fn empty_stream_is_closed_and_partial_prefix_is_truncated() {
        assert!(matches!(read_message(&mut &[][..]), Err(WireError::Closed)));
        assert!(matches!(
            read_message(&mut &[7u8, 0][..]),
            Err(WireError::Truncated {
                expected: 4,
                got: 2
            })
        ));
    }

    #[test]
    fn eof_mid_payload_is_truncated_not_a_hang() {
        // A frame claiming 10 payload bytes, killed after 3.
        let mut bytes = 10u32.to_le_bytes().to_vec();
        bytes.extend_from_slice(&[TAG_SPEC, b'a', b'b']);
        assert!(matches!(
            read_message(&mut bytes.as_slice()),
            Err(WireError::Truncated {
                expected: 10,
                got: 3
            })
        ));
    }

    #[test]
    fn every_proper_prefix_is_incomplete_never_an_error() {
        // A stream cut at any offset inside a frame: the buffer parser
        // waits for more, the stream reader reports the truncation, and
        // neither panics. Two frames back to back parse one at a time.
        let messages = [
            Message::Token { count: 3, clock: 8 },
            Message::Finished { worker: 2 },
            Message::Update {
                tag: Tag { iter: 4, w_id: 1 },
                clock: 11,
                block: CompressedBlock::Quantized {
                    scale: 0.5,
                    values: vec![-3, 0, 7],
                },
            },
        ];
        for msg in messages {
            let mut frame = Vec::new();
            encode_frame(&msg, &mut frame);
            for cut in 0..frame.len() {
                let prefix = &frame[..cut];
                assert!(
                    matches!(next_message(prefix), Ok(None)),
                    "{msg:?} cut at {cut}"
                );
                let expected_closed = cut == 0;
                match read_message(&mut &prefix[..]) {
                    Err(WireError::Closed) => assert!(expected_closed, "cut at {cut}"),
                    Err(WireError::Truncated { .. }) => assert!(!expected_closed, "cut at {cut}"),
                    other => panic!("{msg:?} cut at {cut}: {other:?}"),
                }
            }
            let mut two = frame.clone();
            two.extend_from_slice(&frame);
            let (first, used) = next_message(&two).unwrap().expect("a whole frame");
            assert_eq!((first, used), (msg.clone(), frame.len()));
            assert_eq!(
                next_message(&two[used..]).unwrap(),
                Some((msg, frame.len()))
            );
        }
    }

    #[test]
    fn oversized_prefix_is_rejected_before_allocation() {
        let bytes = (MAX_FRAME_LEN + 1).to_le_bytes();
        assert!(matches!(
            read_message(&mut &bytes[..]),
            Err(WireError::FrameTooLarge { .. })
        ));
        // The buffer parser rejects it at its 4th byte, not when (never)
        // 64 MiB more have arrived; shorter than that it cannot tell.
        for cut in 0..4 {
            assert!(matches!(next_message(&bytes[..cut]), Ok(None)));
        }
        assert!(matches!(
            next_message(&bytes),
            Err(WireError::FrameTooLarge { len }) if len == MAX_FRAME_LEN + 1
        ));
        // A complete frame with a bad body is a typed decode error.
        let mut frame = Vec::new();
        encode_frame(&Message::Token { count: 1, clock: 0 }, &mut frame);
        frame[4] = 0xEE;
        assert!(matches!(
            next_message(&frame),
            Err(WireError::UnknownDiscriminant { tag: 0xEE })
        ));
    }

    #[test]
    fn unknown_discriminant_and_block_kind_are_typed_errors() {
        let mut frame = Vec::new();
        encode_frame(&Message::Token { count: 1, clock: 0 }, &mut frame);
        frame[4] = 0xEE; // clobber the discriminant
        assert!(matches!(
            read_message(&mut frame.as_slice()),
            Err(WireError::UnknownDiscriminant { tag: 0xEE })
        ));

        let msg = Message::Update {
            tag: Tag { iter: 0, w_id: 0 },
            clock: 0,
            block: CompressedBlock::Dense { values: vec![1.0] },
        };
        let mut frame = Vec::new();
        encode_frame(&msg, &mut frame);
        frame[4 + 1 + 20] = 0x7F; // clobber the block kind
        assert!(matches!(
            read_message(&mut frame.as_slice()),
            Err(WireError::UnknownBlockKind { kind: 0x7F })
        ));
    }

    #[test]
    fn corrupt_bodies_are_malformed_not_panics() {
        // Sparse pair region misaligned: 4-byte len word + 5 stray bytes.
        let mut payload = vec![TAG_UPDATE];
        payload.extend_from_slice(&[0; 20]); // tag + clock
        payload.push(KIND_SPARSE);
        payload.extend_from_slice(&3u32.to_le_bytes());
        payload.extend_from_slice(&[1, 2, 3, 4, 5]);
        assert!(matches!(
            decode_payload(&payload),
            Err(WireError::Malformed(_))
        ));

        // Sparse index >= decoded length.
        let block = CompressedBlock::Sparse {
            len: 2,
            indices: vec![5],
            values: vec![1.0],
        };
        let msg = Message::Update {
            tag: Tag { iter: 0, w_id: 0 },
            clock: 0,
            block,
        };
        let mut frame = Vec::new();
        encode_frame(&msg, &mut frame);
        assert!(matches!(
            read_message(&mut frame.as_slice()),
            Err(WireError::Malformed("sparse index out of range"))
        ));

        // Sparse indices repeated or out of canonical ascending order.
        for indices in [vec![1, 1], vec![2, 1]] {
            let msg = Message::Update {
                tag: Tag { iter: 0, w_id: 0 },
                clock: 0,
                block: CompressedBlock::Sparse {
                    len: 4,
                    indices,
                    values: vec![1.0, 2.0],
                },
            };
            encode_frame(&msg, &mut frame);
            assert!(matches!(
                read_message(&mut frame.as_slice()),
                Err(WireError::Malformed("sparse indices not ascending"))
            ));
        }

        // Quantized length word disagreeing with the frame remainder.
        let mut payload = vec![TAG_UPDATE];
        payload.extend_from_slice(&[0; 20]);
        payload.push(KIND_QUANTIZED);
        payload.extend_from_slice(&9u32.to_le_bytes()); // claims 9 entries
        payload.extend_from_slice(&0.5f32.to_le_bytes());
        payload.extend_from_slice(&[1, 2, 3]); // only 3 present
        assert!(matches!(
            decode_payload(&payload),
            Err(WireError::Malformed("quantized length word disagrees"))
        ));

        // Dense region not f32-aligned.
        let mut payload = vec![TAG_UPDATE];
        payload.extend_from_slice(&[0; 20]);
        payload.push(KIND_DENSE);
        payload.extend_from_slice(&[1, 2, 3]);
        assert!(matches!(
            decode_payload(&payload),
            Err(WireError::Malformed("dense block not f32-aligned"))
        ));

        // Empty payload and a body shorter than its fixed fields.
        assert!(matches!(
            decode_payload(&[]),
            Err(WireError::Malformed("empty payload"))
        ));
        assert!(matches!(
            decode_payload(&[TAG_HELLO, 1, 2]),
            Err(WireError::Malformed(_))
        ));

        // Trailing garbage after a fixed-size body.
        let mut frame = Vec::new();
        encode_frame(&Message::Finished { worker: 1 }, &mut frame);
        let mut payload = frame[4..].to_vec();
        payload.push(0xAB);
        assert!(matches!(
            decode_payload(&payload),
            Err(WireError::Malformed("trailing bytes after the body"))
        ));
    }

    #[test]
    fn summary_array_count_cannot_balloon_allocation() {
        // A summary whose f32 count claims ~1 billion entries must fail
        // on the body bound, not allocate.
        let mut payload = vec![TAG_SUMMARY];
        payload.extend_from_slice(&0u32.to_le_bytes()); // worker
        payload.push(1); // ok
        payload.extend_from_slice(&0u64.to_le_bytes()); // wire bytes
        payload.extend_from_slice(&0u32.to_le_bytes()); // error len
        payload.extend_from_slice(&u32::MAX.to_le_bytes()); // params count
        assert!(matches!(
            decode_payload(&payload),
            Err(WireError::Malformed(_))
        ));
    }

    /// One kept block decodes a stream of updates of every kind: each
    /// frame gives the block [`decode_payload`] gives, and a frame of the
    /// kind the block already holds refills its buffers in place.
    #[test]
    fn a_kept_block_is_refilled_in_place() {
        let blocks = [
            CompressedBlock::Sparse {
                len: 9,
                indices: vec![0, 4, 8],
                values: vec![1.0, -0.0, f32::NAN],
            },
            CompressedBlock::Sparse {
                len: 9,
                indices: vec![3, 7],
                values: vec![2.5, -1.0],
            },
            CompressedBlock::Quantized {
                scale: 0.25,
                values: vec![-127, 0, 5],
            },
            CompressedBlock::Quantized {
                scale: 0.5,
                values: vec![1, 2],
            },
            CompressedBlock::Dense {
                values: vec![1.5, -2.0],
            },
            CompressedBlock::Dense { values: vec![3.0] },
        ];
        let mut kept = CompressedBlock::default();
        let mut frame = Vec::new();
        let mut buffer: *const u8 = std::ptr::null();
        for (n, block) in blocks.into_iter().enumerate() {
            let tag = Tag {
                iter: n as u64,
                w_id: 1,
            };
            encode_update_frame(tag, 5, &block, &mut frame);
            let (decoded, used) = next_frame(&frame, &mut kept).unwrap().expect("whole");
            assert_eq!(
                (decoded, used),
                (Frame::Update { tag, clock: 5 }, frame.len())
            );
            let owned = decode_payload(&frame[4..]).unwrap();
            let Message::Update { block: owned, .. } = owned else {
                panic!("an update decodes as one");
            };
            assert_eq!(format!("{kept:?}"), format!("{owned:?}"), "frame {n}");
            let here = match &kept {
                CompressedBlock::Dense { values } => values.as_ptr().cast(),
                CompressedBlock::Sparse { indices, .. } => indices.as_ptr().cast(),
                CompressedBlock::Quantized { values, .. } => values.as_ptr().cast(),
            };
            if n % 2 == 1 {
                assert_eq!(here, buffer, "frame {n} reallocated");
            }
            buffer = here;
        }
    }

    #[test]
    fn borrowed_update_frame_matches_the_owned_encoding() {
        let tag = Tag { iter: 3, w_id: 2 };
        let block = CompressedBlock::Sparse {
            len: 6,
            indices: vec![0, 5],
            values: vec![1.0, -4.0],
        };
        let mut borrowed = Vec::new();
        let counted = encode_update_frame(tag, 77, &block, &mut borrowed);
        assert_eq!(counted, block.encoded_bytes());
        let mut owned = Vec::new();
        encode_frame(
            &Message::Update {
                tag,
                clock: 77,
                block,
            },
            &mut owned,
        );
        assert_eq!(borrowed, owned);
    }

    #[test]
    fn write_message_reports_update_block_bytes() {
        let mut sink = Vec::new();
        let n = write_message(
            &mut sink,
            &Message::Update {
                tag: Tag { iter: 1, w_id: 0 },
                clock: 3,
                block: CompressedBlock::Dense {
                    values: vec![0.0; 8],
                },
            },
        )
        .unwrap();
        assert_eq!(n, 32);
        let n = write_message(&mut sink, &Message::Token { count: 1, clock: 4 }).unwrap();
        assert_eq!(n, 0);
        // Both frames decode back-to-back from the same stream.
        let mut stream = sink.as_slice();
        assert!(matches!(
            read_message(&mut stream).unwrap(),
            Message::Update { .. }
        ));
        assert!(matches!(
            read_message(&mut stream).unwrap(),
            Message::Token { count: 1, clock: 4 }
        ));
        assert!(matches!(read_message(&mut stream), Err(WireError::Closed)));
    }
}
