//! Shared-memory byte rings: a peer link's frames, with no system call on
//! their path.
//!
//! One link's two directions are two single-producer/single-consumer byte
//! rings in one shared file mapping. The dialing end creates the file
//! ([`RingPair::create`]) and writes ring 0; the accepting end maps it,
//! unlinks it ([`RingPair::open`]) and writes ring 1. Each ring has a
//! header of four words, each on its own cache line so the two ends'
//! stores never share one, followed by `cap` data bytes (a power of two):
//!
//! * `tail` — bytes ever written, stored by the producer only;
//! * `head` — bytes ever read, stored by the consumer only;
//! * `data_wanted` — the consumer is parked until bytes arrive;
//! * `space_wanted` — the producer is parked until room frees up.
//!
//! Each end keeps its own position (its ring's `tail`, its peer's
//! ring's `head`) in private memory and only publishes it, so the one
//! shared word it reads — the other end's position — is checked before
//! use: `tail − head` must lie in `0..=cap`. Anything else is a
//! [`Corrupt`] header, and nothing is read or written for it. Bytes are
//! published with a Release store of the position after they are
//! copied and taken with an Acquire load before they are copied.
//!
//! # Parking
//!
//! An end that runs out of work parks in `poll(2)` on the link's socket,
//! and the other end rings it there with a one-byte doorbell, but only
//! when the parked flag says so. Both sides store before they look, with
//! a `SeqCst` fence between ([`RingPair::park`] stores its flag, then
//! re-reads the position; [`RingPair::reader_parked`] and
//! [`RingPair::writer_parked`] follow a position store and read the
//! flag), so either the parker sees the new position and does not sleep,
//! or the other end sees the flag and rings: no wake-up is lost. The
//! ringer clears the flag as it reads it, so one park costs at most one
//! doorbell.

use std::ffi::{c_int, c_long, c_void};
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io;
use std::os::fd::AsRawFd as _;
use std::os::unix::fs::OpenOptionsExt as _;
use std::path::Path;
use std::ptr::{self, NonNull};
use std::sync::atomic::{fence, AtomicU32, AtomicU64, Ordering};

/// Bytes of one ring's header: its four words, a cache line each.
const HEADER: usize = 256;
const TAIL: usize = 0;
const HEAD: usize = 64;
const DATA_WANTED: usize = 128;
const SPACE_WANTED: usize = 192;

/// A ring's shared positions do not fit its capacity: `tail − head` is
/// negative or more than `cap`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct Corrupt {
    head: u64,
    tail: u64,
    cap: usize,
}

impl fmt::Display for Corrupt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let Corrupt { head, tail, cap } = self;
        write!(
            f,
            "corrupt shared ring header: tail {tail} is not within {cap} bytes ahead of head {head}"
        )
    }
}

/// One end of a link's pair of rings.
pub(super) struct RingPair {
    map: Mapping,
    cap: usize,
    /// Offsets of the ring this end writes and of the one it reads.
    tx: usize,
    rx: usize,
    /// This end's own positions: bytes written to `tx`, read from `rx`.
    tail: u64,
    head: u64,
}

impl RingPair {
    /// Bytes of the mapping that holds two rings of `cap` bytes each.
    fn mapping_len(cap: usize) -> usize {
        2 * (HEADER + cap)
    }

    fn new(map: Mapping, cap: usize, writes: usize) -> RingPair {
        let ring = HEADER + cap;
        RingPair {
            map,
            cap,
            tx: writes * ring,
            rx: (1 - writes) * ring,
            tail: 0,
            head: 0,
        }
    }

    /// Creates the file at `path` (which must not exist) holding two
    /// empty rings of `cap` bytes and maps it as the dialing end.
    ///
    /// # Panics
    ///
    /// If `cap` is not a power of two.
    pub(super) fn create(path: &Path, cap: usize) -> io::Result<RingPair> {
        assert!(cap.is_power_of_two(), "ring capacity {cap}");
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create_new(true)
            .mode(0o600)
            .open(path)?;
        let len = Self::mapping_len(cap);
        file.set_len(len as u64)?;
        Ok(RingPair::new(Mapping::new(&file, len)?, cap, 0))
    }

    /// Maps the file [`Self::create`] made at `path` as the accepting end
    /// and unlinks it; fails if its size is not that of two `cap`-byte
    /// rings.
    pub(super) fn open(path: &Path, cap: usize) -> io::Result<RingPair> {
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        let len = Self::mapping_len(cap);
        let size = file.metadata()?.len();
        if size != len as u64 {
            let why = format!("ring file is {size} bytes, expected {len}");
            return Err(io::Error::new(io::ErrorKind::InvalidData, why));
        }
        let map = Mapping::new(&file, len)?;
        std::fs::remove_file(path)?;
        Ok(RingPair::new(map, cap, 1))
    }

    fn word(&self, ring: usize, at: usize) -> &AtomicU64 {
        debug_assert!(ring + at + 8 <= self.map.len);
        // SAFETY: `ring + at` is a header word's offset inside the mapping
        // (`ring` is 0 or `HEADER + cap`, `at` < `HEADER`), and a multiple of
        // 8 from a page-aligned base, so the `AtomicU64` is in bounds and
        // aligned. Both ends access these words only atomically, every bit
        // pattern is a valid `u64`, and the mapping outlives `&self`.
        unsafe { &*self.map.ptr.as_ptr().add(ring + at).cast::<AtomicU64>() }
    }

    fn flag(&self, ring: usize, at: usize) -> &AtomicU32 {
        debug_assert!(ring + at + 4 <= self.map.len);
        // SAFETY: as in `word`: in bounds, 4-aligned, only ever accessed
        // atomically, and every bit pattern is a valid `u32`.
        unsafe { &*self.map.ptr.as_ptr().add(ring + at).cast::<AtomicU32>() }
    }

    /// Bytes in a ring whose positions are `head` and `tail`, checked
    /// against the capacity.
    fn used(&self, head: u64, tail: u64) -> Result<usize, Corrupt> {
        let cap = self.cap;
        usize::try_from(tail.wrapping_sub(head))
            .ok()
            .filter(|&used| used <= cap)
            .ok_or(Corrupt { head, tail, cap })
    }

    /// The `(offset, len)` pieces of `n` ring bytes from position `at`,
    /// split where the data area wraps.
    fn pieces(&self, at: u64, n: usize) -> [(usize, usize); 2] {
        let start = (at % self.cap as u64) as usize;
        let first = n.min(self.cap - start);
        [(start, first), (0, n - first)]
    }

    /// Copies as much of `bytes` as fits into the sending ring and
    /// publishes it; says how much.
    pub(super) fn write(&mut self, bytes: &[u8]) -> Result<usize, Corrupt> {
        let head = self.word(self.tx, HEAD).load(Ordering::Acquire);
        let used = self.used(head, self.tail)?;
        let n = bytes.len().min(self.cap - used);
        if n == 0 {
            return Ok(0);
        }
        let data = self.tx + HEADER;
        let mut from = 0;
        for (at, len) in self.pieces(self.tail, n) {
            // SAFETY: `at + len <= cap` (see `pieces`), so the destination
            // lies in this ring's data area inside the mapping, and
            // `bytes[from..from + len]` is in bounds because the pieces sum
            // to `n <= bytes.len()`. The checked positions say the consumer
            // reads none of these `cap - used` free bytes until the store
            // below publishes them; a peer that broke that rule can only
            // garble bytes, which are plain `u8`s.
            unsafe {
                let to = self.map.ptr.as_ptr().add(data + at);
                ptr::copy_nonoverlapping(bytes.as_ptr().add(from), to, len);
            }
            from += len;
        }
        self.tail += n as u64;
        self.word(self.tx, TAIL).store(self.tail, Ordering::Release);
        Ok(n)
    }

    /// Copies as many published bytes as `out` holds out of the receiving
    /// ring and frees their room; says how many.
    pub(super) fn read(&mut self, out: &mut [u8]) -> Result<usize, Corrupt> {
        let tail = self.word(self.rx, TAIL).load(Ordering::Acquire);
        let n = out.len().min(self.used(self.head, tail)?);
        if n == 0 {
            return Ok(0);
        }
        let data = self.rx + HEADER;
        let mut to = 0;
        for (at, len) in self.pieces(self.head, n) {
            // SAFETY: as in `write`, mirrored: the source lies in this
            // ring's data area, `out[to..to + len]` is in bounds, and these
            // bytes were published by the Release store the Acquire load
            // above read; the producer does not touch them until the store
            // below frees them.
            unsafe {
                let from = self.map.ptr.as_ptr().add(data + at);
                ptr::copy_nonoverlapping(from, out.as_mut_ptr().add(to), len);
            }
            to += len;
        }
        self.head += n as u64;
        self.word(self.rx, HEAD).store(self.head, Ordering::Release);
        Ok(n)
    }

    /// After a write: whether the consumer is parked for bytes and must
    /// be rung. Clears its flag, so a park is rung once.
    pub(super) fn reader_parked(&self) -> bool {
        fence(Ordering::SeqCst);
        let flag = self.flag(self.tx, DATA_WANTED);
        flag.load(Ordering::Relaxed) != 0 && flag.swap(0, Ordering::Relaxed) != 0
    }

    /// After a read: whether the producer is parked for room and must be
    /// rung. Clears its flag, so a park is rung once.
    pub(super) fn writer_parked(&self) -> bool {
        fence(Ordering::SeqCst);
        let flag = self.flag(self.rx, SPACE_WANTED);
        flag.load(Ordering::Relaxed) != 0 && flag.swap(0, Ordering::Relaxed) != 0
    }

    /// Flags this end parked — for bytes in the receiving ring if `data`,
    /// for room in the sending ring if `space` — and says whether that
    /// wait is already over, in which case the caller must not sleep. A
    /// corrupt position counts as over: the next read or write says why.
    pub(super) fn park(&self, data: bool, space: bool) -> bool {
        if data {
            self.flag(self.rx, DATA_WANTED).store(1, Ordering::Relaxed);
        }
        if space {
            self.flag(self.tx, SPACE_WANTED).store(1, Ordering::Relaxed);
        }
        fence(Ordering::SeqCst);
        let arrived = || self.word(self.rx, TAIL).load(Ordering::Relaxed) != self.head;
        let freed = || {
            let head = self.word(self.tx, HEAD).load(Ordering::Relaxed);
            self.used(head, self.tail) != Ok(self.cap)
        };
        (data && arrived()) || (space && freed())
    }

    /// Clears this end's parked flags.
    pub(super) fn unpark(&self) {
        self.flag(self.rx, DATA_WANTED).store(0, Ordering::Relaxed);
        self.flag(self.tx, SPACE_WANTED).store(0, Ordering::Relaxed);
    }

    /// Overwrites the sending ring's shared `tail`, as a corrupt peer
    /// would.
    #[cfg(test)]
    pub(super) fn corrupt_tail(&self, tail: u64) {
        self.word(self.tx, TAIL).store(tail, Ordering::Release);
    }

    /// Overwrites the receiving ring's shared `head`, as a corrupt peer
    /// would.
    #[cfg(test)]
    pub(super) fn corrupt_head(&self, head: u64) {
        self.word(self.rx, HEAD).store(head, Ordering::Release);
    }
}

/// A shared read-write mapping of a whole file, unmapped on drop.
struct Mapping {
    ptr: NonNull<u8>,
    len: usize,
}

// SAFETY: the mapping is plain memory owned by this value; moving it to
// another thread moves that ownership, and every access through it is
// either atomic or bounded by the ring protocol above.
unsafe impl Send for Mapping {}

const PROT_READ: c_int = 0x1;
const PROT_WRITE: c_int = 0x2;
const MAP_SHARED: c_int = 0x1;

extern "C" {
    fn mmap(
        addr: *mut c_void,
        len: usize,
        prot: c_int,
        flags: c_int,
        fd: c_int,
        offset: c_long,
    ) -> *mut c_void;
    fn munmap(addr: *mut c_void, len: usize) -> c_int;
}

impl Mapping {
    /// Maps the first `len` bytes of `file` (which must be that long)
    /// shared, for reading and writing.
    fn new(file: &File, len: usize) -> io::Result<Mapping> {
        // SAFETY: a fresh mapping at an address the kernel picks aliases no
        // Rust object; `file` is open for reading and writing, and the
        // result is checked for MAP_FAILED before use. The file may be
        // closed afterwards: the mapping keeps it alive. It stays `len`
        // bytes long: the dialing end sized it and no one truncates it
        // (its directory is private to the fleet's user, and the accepting
        // end unlinks it as soon as it is mapped).
        let ptr = unsafe {
            mmap(
                ptr::null_mut(),
                len,
                PROT_READ | PROT_WRITE,
                MAP_SHARED,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr as isize == -1 {
            return Err(io::Error::last_os_error());
        }
        let ptr = NonNull::new(ptr.cast()).ok_or(io::ErrorKind::AddrNotAvailable)?;
        Ok(Mapping { ptr, len })
    }
}

impl Drop for Mapping {
    fn drop(&mut self) {
        // SAFETY: `ptr` and `len` are exactly what mmap returned and was
        // asked for, and no reference into the mapping outlives `self`
        // (every accessor borrows the `RingPair` that owns it).
        unsafe { munmap(self.ptr.as_ptr().cast(), self.len) };
    }
}

#[cfg(test)]
mod tests {
    use super::super::{sys, RunDir};
    use super::*;
    use proptest::prelude::*;
    use std::collections::VecDeque;
    use std::io::{Read as _, Write as _};
    use std::os::unix::net::UnixStream;
    use std::sync::atomic::AtomicU64;
    use std::time::{Duration, Instant};

    /// The dialing and the accepting end of one mapping of two `cap`-byte
    /// rings in `run`.
    fn ends(run: &RunDir, cap: usize) -> (RingPair, RingPair) {
        let path = run.0.join("0-1.ring");
        let dialer = RingPair::create(&path, cap).expect("creates");
        (dialer, RingPair::open(&path, cap).expect("maps"))
    }

    /// Writes `len` bytes continuing the byte sequence `model` ends with
    /// to `ring` and checks what it takes against the model.
    fn write_checked(
        ring: &mut RingPair,
        model: &mut VecDeque<u8>,
        next: &mut u8,
        len: usize,
        cap: usize,
    ) -> Result<(), TestCaseError> {
        let bytes: Vec<u8> = (0..len).map(|i| next.wrapping_add(i as u8)).collect();
        let took = ring
            .write(&bytes)
            .map_err(|e| TestCaseError::new(e.to_string()))?;
        prop_assert_eq!(took, len.min(cap - model.len()));
        model.extend(&bytes[..took]);
        *next = next.wrapping_add(took as u8);
        Ok(())
    }

    /// Reads up to `len` bytes from `ring` and checks them against the
    /// model.
    fn read_checked(
        ring: &mut RingPair,
        model: &mut VecDeque<u8>,
        len: usize,
    ) -> Result<(), TestCaseError> {
        let mut out = vec![0; len];
        let got = ring
            .read(&mut out)
            .map_err(|e| TestCaseError::new(e.to_string()))?;
        prop_assert_eq!(got, len.min(model.len()));
        let expected: Vec<u8> = model.drain(..got).collect();
        prop_assert_eq!(&out[..got], &expected[..]);
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn partial_writes_and_reads_match_a_deque_model(
            skew in 0usize..32,
            ops in proptest::collection::vec((proptest::bool::ANY, 0usize..48), 1..160),
        ) {
            // A 32-byte ring, first advanced by `skew` bytes so the wrap
            // point falls anywhere, then driven by random partial writes
            // and reads; between every step both ends' view of "bytes
            // waiting" and "room free" must match the model.
            const CAP: usize = 32;
            let run = RunDir::create(&std::env::temp_dir()).expect("run dir");
            let (mut writer, mut reader) = ends(&run, CAP);
            let (mut model, mut next) = (VecDeque::new(), 0u8);
            write_checked(&mut writer, &mut model, &mut next, skew, CAP)?;
            read_checked(&mut reader, &mut model, skew)?;
            for (write, len) in ops {
                if write {
                    write_checked(&mut writer, &mut model, &mut next, len, CAP)?;
                } else {
                    read_checked(&mut reader, &mut model, len)?;
                }
                prop_assert_eq!(reader.park(true, false), !model.is_empty());
                prop_assert_eq!(writer.park(false, true), model.len() < CAP);
                reader.unpark();
                writer.unpark();
            }
            // Empty, exactly full and one byte short of full, from
            // wherever the random steps left the wrap point.
            read_checked(&mut reader, &mut model, CAP)?;
            read_checked(&mut reader, &mut model, 1)?;
            write_checked(&mut writer, &mut model, &mut next, CAP - 1, CAP)?;
            prop_assert!(writer.park(false, true), "one byte short of full has room");
            write_checked(&mut writer, &mut model, &mut next, 2, CAP)?;
            prop_assert_eq!(model.len(), CAP);
            prop_assert!(!writer.park(false, true), "a full ring has no room");
            writer.unpark();
            write_checked(&mut writer, &mut model, &mut next, 1, CAP)?;
            read_checked(&mut reader, &mut model, CAP + 1)?;
            prop_assert!(!reader.park(true, false), "an empty ring has no bytes");
        }
    }

    /// The stress test's byte sequence, `i as u8` at byte `i`, from any
    /// offset below 256.
    const SEQUENCE: [u8; 512] = {
        let mut bytes = [0; 512];
        let mut i = 0;
        while i < bytes.len() {
            bytes[i] = i as u8;
            i += 1;
        }
        bytes
    };

    /// Steps a xorshift64 generator and returns its new state.
    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    /// How far one side of the stress test has published bytes — written
    /// to its sending ring, read from its receiving one — and then looked
    /// for the other side's parked flag.
    #[derive(Default)]
    struct Progress {
        written: AtomicU64,
        read: AtomicU64,
    }

    /// The retries a stalled side spends before it parks when it means to
    /// stay awake: more than a sleeping side takes to wake.
    const GENEROUS: u64 = 1 << 14;

    /// One side of the stress test: one end of the mapping and its
    /// doorbell socket.
    struct Side<'a> {
        ring: RingPair,
        bell: UnixStream,
        me: &'a Progress,
        peer: &'a Progress,
        sent: u64,
        got: u64,
        rng: u64,
        /// Retries the last wait for room and for bytes that did not park
        /// spent.
        aim: [u64; 2],
    }

    impl Side<'_> {
        const TIMEOUT: Duration = Duration::from_millis(50);

        fn next(&mut self, below: u64) -> u64 {
            xorshift(&mut self.rng) % below
        }

        /// A stall's spin budget. Half the time a generous one, which
        /// keeps both sides awake through each other's turns; otherwise a
        /// random share of up to twice what the last wait that did not
        /// park needed, so the park lands around the moment the other
        /// side's bytes do.
        fn budget(&mut self, data: bool) -> u64 {
            if self.next(2) == 0 {
                GENEROUS
            } else {
                self.next(2 * self.aim[usize::from(data)] + 2)
            }
        }

        /// One retry of a stalled write or read (a pump's spin round),
        /// or, once `budget` retries are spent, a park.
        fn stalled(&mut self, spun: &mut u64, budget: u64, data: bool) -> Result<(), String> {
            if *spun < budget {
                *spun += 1;
                std::hint::spin_loop();
                return Ok(());
            }
            *spun = u64::MAX;
            self.park_and_wait(data)
        }

        /// Aims the next budget at what this wait took, if it did not
        /// park.
        fn learn(&mut self, spun: u64, data: bool) {
            if spun != u64::MAX {
                self.aim[usize::from(data)] = spun;
            }
        }

        /// Parks (for bytes if `data`, else for room) and sleeps on the
        /// doorbell up to the timeout, then takes the doorbells. Fails if
        /// the wait ran out, no doorbell is in the socket, and yet the
        /// other side had published what was waited for and looked for the
        /// flag afterwards: a lost wake-up.
        fn park_and_wait(&mut self, data: bool) -> Result<(), String> {
            if !self.ring.park(data, !data) {
                let mut fds = [sys::poll_fd(&self.bell, sys::POLLIN)];
                sys::wait(&mut fds, Self::TIMEOUT).map_err(|e| e.to_string())?;
                if fds[0].revents == 0 {
                    let (passed, waited_past) = if data {
                        (self.peer.written.load(Ordering::SeqCst), self.got)
                    } else {
                        let cap = self.ring.cap as u64;
                        (self.peer.read.load(Ordering::SeqCst), self.sent - cap)
                    };
                    sys::wait(&mut fds, Duration::ZERO).map_err(|e| e.to_string())?;
                    if passed > waited_past && fds[0].revents == 0 {
                        let what = if data { "bytes" } else { "room" };
                        return Err(format!(
                            "lost wake-up: slept {:?} for {what} past byte {waited_past}, \
                             published up to {passed} and never rung",
                            Self::TIMEOUT
                        ));
                    }
                }
            }
            self.ring.unpark();
            let mut bells = [0; 64];
            loop {
                match (&self.bell).read(&mut bells) {
                    Ok(0) => return Err("the other side stopped".into()),
                    Ok(_) => {}
                    Err(_) => return Ok(()),
                }
            }
        }

        /// Sends `len` bytes of the running byte sequence.
        fn send(&mut self, len: u64) -> Result<(), String> {
            let end = self.sent + len;
            let (budget, mut spun) = (self.budget(false), 0);
            while self.sent < end {
                let at = (self.sent % 256) as usize;
                let left = usize::try_from(end - self.sent).map_or(256, |left| left.min(256));
                let n = self
                    .ring
                    .write(&SEQUENCE[at..at + left])
                    .map_err(|e| e.to_string())?;
                self.sent += n as u64;
                if n > 0 && self.ring.reader_parked() {
                    let _ = (&self.bell).write(&[1]);
                }
                self.me.written.store(self.sent, Ordering::SeqCst);
                if self.sent < end && n == 0 {
                    self.stalled(&mut spun, budget, false)?;
                }
            }
            self.learn(spun, false);
            Ok(())
        }

        /// Receives `len` bytes and checks they continue the sequence.
        fn recv(&mut self, len: u64) -> Result<(), String> {
            let end = self.got + len;
            let (budget, mut spun) = (self.budget(true), 0);
            let mut buf = [0u8; 256];
            while self.got < end {
                let want = usize::try_from(end - self.got).map_or(buf.len(), |w| w.min(buf.len()));
                let n = self
                    .ring
                    .read(&mut buf[..want])
                    .map_err(|e| e.to_string())?;
                if n > 0 && self.ring.writer_parked() {
                    let _ = (&self.bell).write(&[1]);
                }
                let at = self.got;
                self.got += n as u64;
                self.me.read.store(self.got, Ordering::SeqCst);
                if buf[..n] != SEQUENCE[(at % 256) as usize..][..n] {
                    return Err(format!("bytes from {at} do not continue the sequence"));
                }
                if n == 0 {
                    self.stalled(&mut spun, budget, true)?;
                }
            }
            self.learn(spun, true);
            Ok(())
        }
    }

    #[test]
    fn no_wake_up_is_lost_between_two_parking_threads() {
        // Two threads play ping-pong over the two 64-byte rings of one
        // mapping: each round one side sends 1 to 160 bytes and the other
        // echoes as many back, so a message can be larger than the ring.
        // A side that cannot move retries for a random number of rounds,
        // then parks — the receiver on an empty ring, the sender on a full
        // one — and whoever moves bytes rings the other's doorbell when
        // its flag says it parked. Each round waits on the other side, so
        // one missed doorbell leaves both asleep until the timeout, and
        // the published progress then shows the doorbell was owed.
        const CAP: usize = 64;
        const ROUNDS: u32 = 40_000;
        let run = RunDir::create(&std::env::temp_dir()).expect("run dir");
        let (dialer, acceptor) = ends(&run, CAP);
        let (one, other) = UnixStream::pair().expect("socket pair");
        let progress = [Progress::default(), Progress::default()];
        let started = Instant::now();
        std::thread::scope(|scope| {
            let sides = [(dialer, one), (acceptor, other)];
            let players: Vec<_> = sides
                .into_iter()
                .enumerate()
                .map(|(me, (ring, bell))| {
                    let (me_progress, peer) = (&progress[me], &progress[1 - me]);
                    scope.spawn(move || -> Result<(), String> {
                        bell.set_nonblocking(true).map_err(|e| e.to_string())?;
                        let mut side = Side {
                            ring,
                            bell,
                            me: me_progress,
                            peer,
                            sent: 0,
                            got: 0,
                            rng: 0x9E37_79B9_7F4A_7C15 + me as u64,
                            aim: [0; 2],
                        };
                        // Both sides draw the round's length from one
                        // shared sequence.
                        let mut lengths = 0x2545_F491_4F6C_DD1Du64;
                        for _ in 0..ROUNDS {
                            let len = 1 + xorshift(&mut lengths) % 160;
                            if me == 0 {
                                side.send(len)?;
                                side.recv(len)?;
                            } else {
                                side.recv(len)?;
                                side.send(len)?;
                            }
                        }
                        Ok(())
                    })
                })
                .collect();
            let failures: Vec<String> = players
                .into_iter()
                .enumerate()
                .filter_map(|(me, player)| {
                    let played = player.join().expect("a side does not panic");
                    played.err().map(|e| format!("side {me}: {e}"))
                })
                .collect();
            assert!(failures.is_empty(), "{failures:?}");
        });
        let elapsed = started.elapsed();
        assert!(elapsed < Duration::from_secs(60), "{elapsed:?}");
    }
}
