//! Sharing one long elementwise sweep between the thread that runs it and
//! an idle helper thread.
//!
//! A [`Board`] is a one-slot notice board for sweeps. The thread that
//! runs a sweep *posts* it, cut into chunks of whole ranges of
//! elements, and claims chunks from the front; any thread calling
//! [`Board::help`] meanwhile claims chunks from the back, runs them and
//! reports them done. The poster returns only once every chunk is done,
//! so a helper that never calls — or is busy — costs nothing but the
//! post: the poster then runs every chunk itself.
//!
//! The free dispatch functions [`crate::ops::scaled_sum`] (and so
//! [`crate::ops::mean_into`]), [`crate::compress::kernels::max_abs_sum`],
//! [`crate::compress::kernels::quantize_advance`] and
//! [`crate::compress::kernels::quantize_feedback`] split through
//! [`split`]: when a board is [`install`]ed on the calling thread and
//! the sweep is at least two of its chunks long (with the default
//! [`CHUNK`], [`SPLIT_MIN`] elements). Every other caller pays one
//! thread-local check. The explicit `Backend::*` methods never split.
//!
//! Splitting cannot change a bit: each output element of those kernels
//! is a function of the same-index input elements and the sweep's
//! scalars alone, so it does not matter which thread computes it or
//! where a chunk ends; and the one reduction, `max_abs_sum`'s maximum
//! over non-negative values, is exact under any grouping, so the
//! chunks' partial maxima combine with `fetch_max` on their bits.
//!
//! # The claim protocol
//!
//! One atomic word, `state`, holds the sweep's sequence number and its
//! two claim edges: `front`, the next chunk the poster claims, and
//! `back`, one past the next chunk a helper claims. A chunk is claimed
//! by one compare-and-swap of the whole word, which moves `front` up or
//! `back` down, and only while `front < back` and the sequence number is
//! the claimer's: so every chunk is claimed exactly once, and a claim
//! on a sweep that has since ended fails. To post, the poster writes
//! the sweep's kernel, length and chunk size, with the next sequence
//! number, into the `posted` slot, then publishes `(seq, 0, chunks)`
//! with a `Release` store. A helper that sees open chunks copies the
//! slot under its lock, then claims (`AcqRel`, which pairs with that
//! store and with the claims before it) against the *copied* sequence
//! number, runs the chunk, and increments `done` with `Release`. When
//! its own claims fail, the poster closes the sweep — `front` jumps to
//! `back`, so no claim can succeed any more — waits (`Acquire`) until
//! `done` counts every chunk a helper claimed, which makes the helpers'
//! writes visible, and empties the slot.
//!
//! A helper's chunk runs under `catch_unwind`: its payload is kept, the
//! helper stops claiming from that sweep, and the poster re-raises the
//! payload once every other chunk is done. A panic on the poster's side
//! closes the sweep the same way before it unwinds past the post.
//!
//! An occupied slot means a sweep is open: a second thread that tries
//! to post on the same board meanwhile runs its sweep alone.
//!
//! Which thread claims a chunk depends on the schedule, so a test that
//! must see a helper run one uses [`Board::awaiting_help`]: the first
//! sweep's poster claims nothing until a helper has claimed a chunk. The
//! sequence number has 48 bits: a helper would have to sleep through
//! 2^48 sweeps between copying a post and claiming from it to see its
//! number come round again.

use std::any::Any;
use std::cell::RefCell;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Elements in one chunk of a board's sweep, unless
/// [`Board::with_chunk`] says otherwise.
pub const CHUNK: usize = 8192;

/// The shortest sweep a [`Board::new`] board splits: two chunks.
pub const SPLIT_MIN: usize = 2 * CHUNK;

/// Most chunks one sweep is cut into: a longer sweep gets longer chunks.
/// The pieces of the outputs sit in an array of this many slots on the
/// poster's stack, and each claim edge is one byte of `state`.
const MAX_CHUNKS: usize = 32;

/// Every chunk is a multiple of this many elements, the widest group a
/// kernel body runs as vectors: so each element is computed by the same
/// code, vector or scalar tail, as in the unsplit sweep.
const ALIGN: usize = 32;

/// Bits of `state` below the sequence number: `front` above `back`, a
/// byte each.
const SEQ_SHIFT: u32 = 16;
const FRONT_ONE: u64 = 1 << 8;
const EDGE: u64 = 0xFF;

/// A panic's payload, as `catch_unwind` hands it over.
type Payload = Box<dyn Any + Send>;

/// The kernel of a split sweep, over one range of its elements.
type Kernel = dyn Fn(Range<usize>) + Sync;

/// What a helper needs to run a posted sweep's chunks.
#[derive(Clone, Copy)]
struct Posted {
    seq: u64,
    /// Valid while `seq` is open: see [`Board::post`].
    kernel: &'static Kernel,
    len: usize,
    chunk: usize,
}

impl Posted {
    fn range(&self, i: usize) -> Range<usize> {
        i * self.chunk..self.len.min((i + 1) * self.chunk)
    }
}

/// Which end of the open chunks a claim takes.
#[derive(Clone, Copy)]
enum End {
    Front,
    Back,
}

/// A one-slot board on which a thread posts a long sweep for helper
/// threads to share (module docs).
pub struct Board {
    chunk: usize,
    /// `seq << 16 | front << 8 | back`.
    state: AtomicU64,
    /// The open sweep, if any.
    posted: Mutex<Option<Posted>>,
    /// Chunks of the open sweep that helpers finished.
    done: AtomicUsize,
    /// The first payload of a helper's chunk that panicked.
    panic: Mutex<Option<Payload>>,
    /// [`Board::chunks_helped`].
    helped: AtomicU64,
    /// Until a helper's first claim: [`Board::awaiting_help`].
    awaiting: AtomicBool,
}

impl Default for Board {
    fn default() -> Self {
        Self::new()
    }
}

impl Board {
    /// A board that splits sweeps into chunks of [`CHUNK`] elements.
    pub fn new() -> Self {
        Self::with_chunk(CHUNK)
    }

    /// A board that splits every sweep of at least `2 * chunk` elements
    /// into chunks of `chunk` (tests force small chunks with it).
    ///
    /// # Panics
    ///
    /// Unless `chunk` is a positive multiple of 32.
    pub fn with_chunk(chunk: usize) -> Self {
        assert!(
            chunk > 0 && chunk.is_multiple_of(ALIGN),
            "a chunk is a positive multiple of {ALIGN} elements"
        );
        Self {
            chunk,
            state: AtomicU64::new(0),
            posted: Mutex::new(None),
            done: AtomicUsize::new(0),
            panic: Mutex::new(None),
            helped: AtomicU64::new(0),
            awaiting: AtomicBool::new(false),
        }
    }

    /// A [`Board::new`] board whose first posted sweep waits, before its
    /// poster claims any chunk, until a helper has claimed one: a test
    /// that must see a helped chunk gets one whatever the schedule. Its
    /// helpers must keep calling [`Board::help`] meanwhile, also between
    /// other work, for as long as [`Board::wants_help`] says so.
    pub fn awaiting_help() -> Self {
        let board = Self::new();
        board.awaiting.store(true, Ordering::Relaxed);
        board
    }

    /// Whether the board still waits for a helper's first claim
    /// ([`Board::awaiting_help`]).
    pub fn wants_help(&self) -> bool {
        self.awaiting.load(Ordering::Relaxed)
    }

    /// Chunks that [`Board::help`] calls ran, over the board's life.
    /// Which thread claims a chunk depends on the schedule, so this is
    /// a report, never a result.
    pub fn chunks_helped(&self) -> u64 {
        self.helped.load(Ordering::Relaxed)
    }

    /// Runs chunks of the open sweep, from the back, until none is left
    /// to claim; returns whether it ran any. With nothing open this is
    /// one atomic load, so an idle thread may poll it. A chunk that
    /// panics ends the call; the poster re-raises its payload.
    pub fn help(&self) -> bool {
        let s = self.state.load(Ordering::Relaxed);
        if ((s >> 8) & EDGE) >= (s & EDGE) {
            return false;
        }
        // Possibly a later sweep than `s` showed: the claims below are
        // made against the copy's own sequence number.
        let Some(posted) = *lock(&self.posted) else {
            return false;
        };
        let mut ran = false;
        while let Some(i) = self.claim(posted.seq, End::Back) {
            let outcome = catch_unwind(AssertUnwindSafe(|| (posted.kernel)(posted.range(i))));
            let failed = outcome.is_err();
            if let Err(payload) = outcome {
                lock(&self.panic).get_or_insert(payload);
            }
            self.helped.fetch_add(1, Ordering::Relaxed);
            // Pairs with the poster's `Acquire` wait: the chunk's writes
            // (and the payload) are visible to it once it counts this.
            self.done.fetch_add(1, Ordering::Release);
            ran = true;
            if failed {
                break;
            }
        }
        ran
    }

    /// Claims the next chunk at `end` of sweep `seq`, if it is still open
    /// and has a chunk left.
    fn claim(&self, seq: u64, end: End) -> Option<usize> {
        let mut s = self.state.load(Ordering::Relaxed);
        loop {
            let (front, back) = ((s >> 8) & EDGE, s & EDGE);
            if s >> SEQ_SHIFT != seq || front >= back {
                return None;
            }
            let (next, i) = match end {
                End::Front => (s + FRONT_ONE, front),
                End::Back => (s - 1, back - 1),
            };
            // `Acquire` pairs with the post's `Release` store (the claims
            // in between continue its release sequence): the sweep's
            // inputs are visible to whoever wins the chunk.
            match self
                .state
                .compare_exchange_weak(s, next, Ordering::AcqRel, Ordering::Relaxed)
            {
                Ok(_) => return Some(i as usize),
                Err(now) => s = now,
            }
        }
    }

    /// Runs `kernel` over `0..len` in chunks of `chunk`: posted for
    /// helpers, or every chunk here if a sweep is already open. Returns
    /// once every chunk is done; re-raises a helper's chunk's panic.
    fn post<'k>(&self, len: usize, chunk: usize, kernel: &'k (dyn Fn(Range<usize>) + Sync + 'k)) {
        let chunks = len.div_ceil(chunk);
        // Each claim edge is one byte of `state`.
        assert!(chunks <= MAX_CHUNKS, "{chunks} chunks");
        let mut slot = lock(&self.posted);
        if slot.is_some() {
            drop(slot);
            for i in 0..chunks {
                kernel(i * chunk..len.min((i + 1) * chunk));
            }
            return;
        }
        // Only the holder of the slot writes `state`, and the slot's lock
        // orders this read after the last holder's writes.
        let seq = (self.state.load(Ordering::Relaxed) >> SEQ_SHIFT) + 1;
        // SAFETY: this erases the lifetime of `kernel` so it can sit in
        // the board. It is called only by a thread that won a claim on
        // sweep `seq`, and it outlives every such call:
        // - the sequence number and both claim edges share `state`, so a
        //   claim against `seq` succeeds only while `seq` is posted and
        //   has open chunks: a helper holding a copy of an older post
        //   fails every claim once the next sweep is published;
        // - a helper calls the kernel only after a successful claim, and
        //   before it counts that chunk in `done`;
        // - this function neither returns nor unwinds before `Close`
        //   has stopped further claims and waited until `done` counts
        //   every chunk a helper claimed; a helper's panic is caught on
        //   its own thread and re-raised here, after that wait.
        // The copy in `posted` is removed before that wait ends.
        let kernel = unsafe {
            std::mem::transmute::<&'k (dyn Fn(Range<usize>) + Sync + 'k), &'static Kernel>(kernel)
        };
        *slot = Some(Posted {
            seq,
            kernel,
            len,
            chunk,
        });
        drop(slot);
        self.done.store(0, Ordering::Relaxed);
        self.state
            .store((seq << SEQ_SHIFT) | chunks as u64, Ordering::Release);
        let close = Close {
            board: self,
            chunks,
        };
        if self.wants_help() {
            // Until a helper's claim moves `back` down. `Relaxed` here and
            // on `awaiting`: neither publishes data, and the helper's
            // chunk is ordered by `done`, as every helped chunk is.
            while self.state.load(Ordering::Relaxed) & EDGE == chunks as u64 {
                std::thread::yield_now();
            }
            self.awaiting.store(false, Ordering::Relaxed);
        }
        while let Some(i) = self.claim(seq, End::Front) {
            kernel(i * chunk..len.min((i + 1) * chunk));
        }
        if let Some(payload) = close.end() {
            resume_unwind(payload);
        }
    }
}

/// Ends a post, on return ([`Close::end`]) or unwind (its drop): no claim
/// succeeds after it starts, and it returns once every chunk a helper
/// claimed is done.
struct Close<'a> {
    board: &'a Board,
    chunks: usize,
}

impl Close<'_> {
    /// Ends the post; returns the payload of a helper's chunk that
    /// panicked.
    fn end(self) -> Option<Payload> {
        let payload = self.wait();
        std::mem::forget(self);
        payload
    }

    /// Stops claims, waits for the helpers' chunks, and empties the slot,
    /// taking the panic slot's payload first: the next post may fill it.
    fn wait(&self) -> Option<Payload> {
        let board = self.board;
        // `front` meets `back`: every later claim fails.
        let mut s = board.state.load(Ordering::Relaxed);
        let back = loop {
            let back = s & EDGE;
            let closed = (s & !(EDGE << 8)) | (back << 8);
            match board
                .state
                .compare_exchange_weak(s, closed, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => break back as usize,
                Err(now) => s = now,
            }
        };
        let helped = self.chunks - back;
        let mut spins = 0u32;
        while board.done.load(Ordering::Acquire) < helped {
            if spins < 1 << 12 {
                spins += 1;
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
        let payload = lock(&board.panic).take();
        *lock(&board.posted) = None;
        payload
    }
}

impl Drop for Close<'_> {
    fn drop(&mut self) {
        // Unwinding: the poster's own panic wins over a helper's.
        self.wait();
    }
}

/// Locks `m`. Every write under these locks is one assignment, so the
/// data is valid even if a thread panicked while holding one.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The mutable outputs of a split sweep: what can be cut at an element
/// index into the part before it and the part from it on.
pub trait Cut: Send + Sized {
    /// The elements before `mid`, and those from `mid` on.
    fn cut(self, mid: usize) -> (Self, Self);
}

impl<T: Send> Cut for &mut [T] {
    fn cut(self, mid: usize) -> (Self, Self) {
        self.split_at_mut(mid)
    }
}

impl Cut for () {
    fn cut(self, _mid: usize) -> (Self, Self) {
        ((), ())
    }
}

impl<A: Cut> Cut for Option<A> {
    fn cut(self, mid: usize) -> (Self, Self) {
        self.map(|a| a.cut(mid)).unzip()
    }
}

impl<A: Cut, B: Cut> Cut for (A, B) {
    fn cut(self, mid: usize) -> (Self, Self) {
        let ((a0, a1), (b0, b1)) = (self.0.cut(mid), self.1.cut(mid));
        ((a0, b0), (a1, b1))
    }
}

thread_local! {
    /// The board this thread's sweeps are split on.
    static INSTALLED: RefCell<Option<Arc<Board>>> = const { RefCell::new(None) };
}

/// Splits this thread's long sweeps on `board` until the returned guard
/// drops — also when a panic unwinds past it — which puts back the
/// board installed before.
pub fn install(board: Arc<Board>) -> Installed {
    Installed {
        previous: INSTALLED.replace(Some(board)),
        _not_send: std::marker::PhantomData,
    }
}

/// The guard of [`install`].
#[must_use = "the board is uninstalled when this drops"]
pub struct Installed {
    previous: Option<Arc<Board>>,
    /// Uninstalls on the thread it installed on.
    _not_send: std::marker::PhantomData<*const ()>,
}

impl Drop for Installed {
    fn drop(&mut self) {
        INSTALLED.set(self.previous.take());
    }
}

/// Runs `kernel(range, outputs cut to range)` over elements `0..len`: on
/// the board [`install`]ed on this thread, in chunks that helpers may
/// share, when the sweep is at least two of its chunks long; else once,
/// here, over the whole sweep. `kernel` must compute each output
/// element from the same-index inputs alone, or combine partial results
/// in a way that does not depend on the grouping (module docs).
///
/// # Panics
///
/// Re-raises a panic of any chunk, on this thread, once no chunk runs
/// any more.
pub fn split<M: Cut>(len: usize, outputs: M, kernel: impl Fn(Range<usize>, M) + Sync) {
    INSTALLED.with_borrow(|board| match board {
        Some(board) if len >= 2 * board.chunk => {
            let chunk = board
                .chunk
                .max(len.div_ceil(MAX_CHUNKS).next_multiple_of(ALIGN));
            let pieces: [Mutex<Option<M>>; MAX_CHUNKS] = std::array::from_fn(|_| Mutex::new(None));
            let mut rest = outputs;
            for (i, piece) in pieces.iter().enumerate().take(len.div_ceil(chunk)) {
                let (head, tail) = rest.cut(chunk.min(len - i * chunk));
                *lock(piece) = Some(head);
                rest = tail;
            }
            board.post(len, chunk, &|range: Range<usize>| {
                let piece = lock(&pieces[range.start / chunk]).take();
                kernel(range, piece.expect("each chunk is claimed once"));
            });
        }
        _ => kernel(0..len, outputs),
    });
}

/// A maximum over non-negative `f32`s that chunks combine into in any
/// order: for those, the order of the bits is the order of the values.
pub(crate) struct MaxBits(AtomicU32);

impl MaxBits {
    pub(crate) fn new() -> Self {
        Self(AtomicU32::new(0))
    }

    /// Folds in `v`, which must be `+0.0` or greater.
    pub(crate) fn fold(&self, v: f32) {
        debug_assert!(v.is_sign_positive() && !v.is_nan());
        self.0.fetch_max(v.to_bits(), Ordering::Relaxed);
    }

    /// The maximum folded in, `0.0` if none.
    pub(crate) fn get(self) -> f32 {
        f32::from_bits(self.0.into_inner())
    }
}
