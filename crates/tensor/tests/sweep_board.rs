//! The sweep board (`hop_tensor::sweep`) against the serial kernels.
//!
//! Each kernel that splits on an installed board — `ops::scaled_sum`
//! (with its SGD step's second output, the velocity, the maximum it
//! measures against a reference, and `mean_into`),
//! `compress::kernels::max_abs_sum`,
//! `quantize_feedback` and `quantize_advance` (with and without its
//! block) — must give the bits of
//! the explicit `Backend::host()` method, which never splits, whichever
//! thread ran which chunk: with a helper thread polling the board, with
//! none, and over many tiny sweeps in a row, where a claim on a sweep
//! that already ended would run the wrong kernel. A helper's panic must
//! reach the poster, and only once no chunk runs any more.

use hop_tensor::compress::kernels;
use hop_tensor::ops::{self, simd::Backend};
use hop_tensor::sweep::{self, Board, SPLIT_MIN};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;

/// A xorshift stream: the tests' lengths and values.
struct Stream(u64);

impl Stream {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// Values in roughly [-4, 4], with NaN, both infinities, both zeros,
    /// subnormals and near-overflow magnitudes sprinkled in.
    fn hostile(&mut self, len: usize) -> Vec<f32> {
        (0..len)
            .map(|_| {
                let raw = self.next();
                let v = ((raw >> 40) as f32 / (1u64 << 24) as f32) * 8.0 - 4.0;
                match raw % 29 {
                    0 => f32::NAN,
                    1 => f32::INFINITY,
                    2 => f32::NEG_INFINITY,
                    3 => -0.0,
                    4 => 0.0,
                    5 => f32::from_bits(1 + (raw >> 20) as u32 % 0x7F_FFFF),
                    6 => -f32::from_bits(1 + (raw >> 30) as u32 % 0x7F_FFFF),
                    7 => v * 1e38,
                    _ => v,
                }
            })
            .collect()
    }
}

/// Bit patterns with all NaNs folded into one: Rust leaves an arithmetic
/// NaN's sign and payload unspecified, and no non-NaN result depends on
/// them.
fn bits(x: &[f32]) -> Vec<u32> {
    x.iter()
        .map(|v| if v.is_nan() { u32::MAX } else { v.to_bits() })
        .collect()
}

/// Raises its flag when dropped, also by a failed assertion unwinding:
/// the threads waiting for it end, so their scope can end too.
struct RaiseOnDrop<'a>(&'a AtomicBool);

impl Drop for RaiseOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Release);
    }
}

/// Polls `board` until `stop` is raised.
fn help_until(board: &Board, stop: &AtomicBool) {
    while !stop.load(Ordering::Acquire) {
        if !board.help() {
            std::hint::spin_loop();
        }
    }
}

/// Runs `f` with `board` installed on this thread and `helpers` more
/// threads polling it until `f` returns.
fn on_board<R>(board: &Arc<Board>, helpers: usize, f: impl FnOnce() -> R) -> R {
    let stop = AtomicBool::new(false);
    thread::scope(|scope| {
        let _stop = RaiseOnDrop(&stop);
        for _ in 0..helpers {
            scope.spawn(|| help_until(board, &stop));
        }
        let _installed = sweep::install(Arc::clone(board));
        f()
    })
}

/// The SGD step over `(grad, params, velocity)`, advancing `velocity`
/// (which starts as a copy of the third).
fn sgd<'a>(step: Option<[&'a [f32]; 3]>, velocity: &'a mut [f32]) -> Option<ops::SgdStep<'a>> {
    step.map(|[grad, params, _]| ops::SgdStep {
        lr: 0.1,
        momentum: 0.9,
        weight_decay: 1e-7,
        grad,
        params,
        velocity,
    })
}

/// One `scaled_sum` of `views` into `len` elements, through the free
/// function (split if a board is installed here) and through
/// `Backend::host()`, which never splits, with the SGD step over `step`'s
/// `(grad, params, velocity)` if given: the split sweep cuts the output
/// and the velocity at the same points, and both must carry the serial
/// bits. Given a reference, both return the maximum `max_abs_sum(-1,
/// reference, out)` gives, bit for bit: the chunks' maxima combine
/// exactly.
fn check_scaled_sum(
    len: usize,
    views: &[&[f32]],
    weights: Option<&[f32]>,
    factor: f32,
    step: Option<[&[f32]; 3]>,
    reference: Option<&[f32]>,
    label: &str,
) {
    let host = Backend::host();
    let (mut split, mut serial) = (vec![7.0; len], vec![-7.0; len]);
    let velocity = step.map_or(&[][..], |[_, _, v]| v);
    let (mut v_split, mut v_serial) = (velocity.to_vec(), velocity.to_vec());
    let max_split = ops::scaled_sum(
        views,
        weights,
        factor,
        sgd(step, &mut v_split),
        reference,
        &mut split,
    );
    let max_serial = host.scaled_sum(
        views,
        weights,
        factor,
        sgd(step, &mut v_serial),
        reference,
        &mut serial,
    );
    assert_eq!(bits(&split), bits(&serial), "scaled_sum, {label}");
    assert_eq!(bits(&v_split), bits(&v_serial), "velocity, {label}");
    let max = reference.map(|r| host.max_abs_sum(-1.0, r, &serial).to_bits());
    assert_eq!(max_split.map(f32::to_bits), max, "measured max, {label}");
    assert_eq!(max_serial.map(f32::to_bits), max, "serial max, {label}");
}

/// Every split kernel at `len` on hostile inputs drawn from `rng`,
/// through the free functions (split if a board is installed here)
/// against `Backend::host()`; `inputs` is `scaled_sum`'s input count.
fn check_kernels(rng: &mut Stream, len: usize, inputs: usize) {
    let host = Backend::host();
    let label = format!("len {len}, {inputs} inputs");
    let xs: Vec<Vec<f32>> = (0..inputs).map(|_| rng.hostile(len)).collect();
    let views: Vec<&[f32]> = xs.iter().map(Vec::as_slice).collect();
    let weights: Vec<f32> = rng.hostile(inputs);
    let addend = rng.hostile(len);
    let (params, velocity) = (rng.hostile(len), rng.hostile(len));
    let sgd = [addend.as_slice(), &params, &velocity];
    for weighted in [false, true] {
        for step in [None, Some(sgd)] {
            let w = weighted.then_some(weights.as_slice());
            // The measured maximum with a step and without, weighted once.
            let reference = (weighted != step.is_some()).then_some(params.as_slice());
            check_scaled_sum(len, &views, w, 0.3, step, reference, &label);
        }
    }
    let (mut split, mut serial) = (vec![0.0; len], vec![1.0; len]);
    ops::mean_into(&views, &mut split);
    host.scaled_sum(&views, None, 1.0 / inputs as f32, None, None, &mut serial);
    assert_eq!(bits(&split), bits(&serial), "mean_into, {label}");

    let (x, r) = (&xs[0], &addend);
    for alpha in [1.0, -1.0] {
        let (split, serial) = (
            kernels::max_abs_sum(alpha, r, x),
            host.max_abs_sum(alpha, r, x),
        );
        assert_eq!(split.to_bits(), serial.to_bits(), "max_abs_sum, {label}");
    }
    // A scale of 0 sends every entry to 0; a finite one rounds.
    for scale in [0.0, 0.037] {
        let (mut r_split, mut q_split) = (r.clone(), vec![9i8; len]);
        let (mut r_serial, mut q_serial) = (r.clone(), vec![-9i8; len]);
        kernels::quantize_feedback(x, scale, &mut r_split, &mut q_split);
        host.quantize_feedback(x, scale, &mut r_serial, &mut q_serial);
        assert_eq!(q_split, q_serial, "quantize_feedback q, {label}");
        assert_eq!(
            bits(&r_split),
            bits(&r_serial),
            "quantize_feedback, {label}"
        );

        let (mut n_split, mut q_split) = (vec![5.0; len], vec![9i8; len]);
        let (mut n_serial, mut q_serial) = (vec![-5.0; len], vec![-9i8; len]);
        kernels::quantize_advance(x, scale, r, &mut n_split, Some(&mut q_split));
        host.quantize_advance(x, scale, r, &mut n_serial, Some(&mut q_serial));
        assert_eq!(q_split, q_serial, "quantize_advance q, {label}");
        assert_eq!(bits(&n_split), bits(&n_serial), "quantize_advance, {label}");
        kernels::quantize_advance(x, scale, r, &mut n_split, None);
        assert_eq!(bits(&n_split), bits(&n_serial), "unread block, {label}");
    }
}

/// Lengths from 1 to 200 000: both sides of the split threshold and of
/// chunk boundaries, lengths that are no multiple of 8, and random ones.
fn lengths(rng: &mut Stream) -> Vec<usize> {
    let mut all = vec![
        1,
        7,
        SPLIT_MIN - 1,
        SPLIT_MIN,
        SPLIT_MIN + 1,
        SPLIT_MIN + 13,
        3 * 8192 - 1,
        65_537,
        199_999,
        200_000,
    ];
    all.extend((0..24).map(|_| 1 + rng.below(200_000)));
    all
}

#[test]
fn split_kernels_give_the_serial_bits_beside_a_helper() {
    let board = Arc::new(Board::new());
    let mut rng = Stream(0x5EED_0001);
    on_board(&board, 1, || {
        for (i, len) in lengths(&mut rng).into_iter().enumerate() {
            check_kernels(&mut rng, len, 1 + i % 16);
        }
    });
}

#[test]
fn without_a_helper_the_poster_runs_every_chunk() {
    let board = Arc::new(Board::new());
    let mut rng = Stream(0x5EED_0002);
    on_board(&board, 0, || {
        for (i, len) in lengths(&mut rng).into_iter().enumerate() {
            check_kernels(&mut rng, len, 1 + i % 16);
        }
    });
    assert_eq!(board.chunks_helped(), 0);
}

#[test]
fn a_board_awaiting_help_runs_a_late_helpers_chunk_first() {
    // The helper starts polling only after the poster is about to post,
    // and later still: a poster that did not wait would run every chunk
    // itself. The sleep only makes that failure likely; a waiting poster
    // passes however the threads are scheduled.
    let board = Arc::new(Board::awaiting_help());
    assert!(board.wants_help());
    let mut rng = Stream(0x5EED_0004);
    let len = 4 * SPLIT_MIN;
    let (x, r) = (rng.hostile(len), rng.hostile(len));
    let late = AtomicBool::new(false);
    let stop = AtomicBool::new(false);
    thread::scope(|scope| {
        let _stop = RaiseOnDrop(&stop);
        scope.spawn(|| {
            while !late.load(Ordering::Acquire) {
                std::hint::spin_loop();
            }
            thread::sleep(std::time::Duration::from_millis(20));
            help_until(&board, &stop);
        });
        let _installed = sweep::install(Arc::clone(&board));
        let (mut split, mut serial) = (vec![0.0; len], vec![1.0; len]);
        late.store(true, Ordering::Release);
        kernels::quantize_advance(&x, 0.01, &r, &mut split, None);
        Backend::host().quantize_advance(&x, 0.01, &r, &mut serial, None);
        assert_eq!(bits(&split), bits(&serial));
    });
    assert!(board.chunks_helped() > 0, "the poster did not wait");
    assert!(!board.wants_help());
}

#[test]
fn a_hundred_thousand_tiny_sweeps_never_run_a_stale_claim() {
    // Chunks of 64: a sweep of 128 to 2 048 elements is 2 to 32 chunks,
    // over in about a microsecond. Three helpers, more threads than two
    // cores run at once, so a helper is often preempted between copying
    // a post and claiming from it, and wakes to find the next sweep
    // posted. The kernel changes from sweep to sweep: a claim on the
    // wrong sweep runs the wrong kernel and leaves a chunk unwritten.
    const SWEEPS: usize = 100_000;
    let board = Arc::new(Board::with_chunk(64));
    let mut rng = Stream(0x5EED_0003);
    let (x, y, z) = (rng.hostile(2048), rng.hostile(2048), rng.hostile(2048));
    let host = Backend::host();
    on_board(&board, 3, || {
        let (mut split, mut serial) = (vec![0.0; 2048], vec![0.0; 2048]);
        let (mut q_split, mut q_serial) = (vec![0i8; 2048], vec![0i8; 2048]);
        for sweep in 0..SWEEPS {
            let len = 128 + rng.below(2048 - 128 + 1);
            let at = rng.below(2048 - len + 1);
            let (x, y, z) = (&x[at..at + len], &y[at..at + len], &z[at..at + len]);
            let factor = 1.0 + sweep as f32 / SWEEPS as f32;
            let (out, expected) = (&mut split[..len], &mut serial[..len]);
            let (q, q_expected) = (&mut q_split[..len], &mut q_serial[..len]);
            // A chunk no kernel wrote keeps these.
            out.fill(-1.5);
            expected.fill(-1.5);
            q.fill(99);
            q_expected.fill(99);
            match sweep % 4 {
                0 => {
                    ops::scaled_sum(&[x, y], None, factor, None, None, out);
                    host.scaled_sum(&[x, y], None, factor, None, None, expected);
                }
                1 => {
                    let (a, b) = (
                        kernels::max_abs_sum(factor, y, x),
                        host.max_abs_sum(factor, y, x),
                    );
                    assert_eq!(a.to_bits(), b.to_bits(), "sweep {sweep}");
                }
                2 => {
                    kernels::quantize_advance(x, factor, y, out, Some(q));
                    host.quantize_advance(x, factor, y, expected, Some(q_expected));
                }
                _ => {
                    let label = format!("sweep {sweep}, len {len}");
                    let step = Some([x, y, z]);
                    check_scaled_sum(len, &[y], Some(&[factor]), 0.5, step, Some(z), &label);
                    continue;
                }
            }
            assert_eq!(bits(out), bits(expected), "sweep {sweep}, len {len}");
            assert_eq!(q, q_expected, "sweep {sweep}, len {len}");
        }
    });
    assert!(board.chunks_helped() > 0, "the helper never ran a chunk");
}

#[test]
fn the_fused_step_splits_its_output_and_velocity_beside_a_helper() {
    // Chunks of 64: a sweep of 128 to 2 048 elements cuts both of its
    // outputs into 2 to 32 pieces, which either thread may run; a piece
    // of the velocity cut off from its piece of the output would leave
    // one of them unwritten or advance the velocity twice.
    let board = Arc::new(Board::with_chunk(64));
    let mut rng = Stream(0x5EED_0005);
    on_board(&board, 1, || {
        for sweep in 0..2_000 {
            let len = 1 + rng.below(2048);
            let inputs = 1 + sweep % 5;
            let xs: Vec<Vec<f32>> = (0..inputs).map(|_| rng.hostile(len)).collect();
            let views: Vec<&[f32]> = xs.iter().map(Vec::as_slice).collect();
            let weights = rng.hostile(inputs);
            let w = (sweep % 2 == 1).then_some(weights.as_slice());
            let (grad, params, velocity) = (rng.hostile(len), rng.hostile(len), rng.hostile(len));
            let step = Some([grad.as_slice(), &params, &velocity]);
            let label = format!("sweep {sweep}, len {len}, {inputs} inputs");
            let reference = (sweep % 3 == 0).then_some(params.as_slice());
            check_scaled_sum(len, &views, w, 1.0 / 3.0, step, reference, &label);
        }
    });
}

#[test]
fn a_helper_chunk_panic_reraises_on_the_poster_once_every_chunk_is_done() {
    const CHUNKS: usize = 8;
    let board = Arc::new(Board::with_chunk(64));
    // Which chunks the poster ran, and the helper's chunk.
    let ran: [AtomicBool; CHUNKS] = Default::default();
    let helper_chunk = AtomicUsize::new(usize::MAX);
    let (release, returned) = (AtomicBool::new(false), AtomicBool::new(false));
    let stop = AtomicBool::new(false);
    let payload = thread::scope(|scope| {
        let (_stop, _release) = (RaiseOnDrop(&stop), RaiseOnDrop(&release));
        scope.spawn(|| help_until(&board, &stop));
        let poster = scope.spawn(|| {
            let _installed = sweep::install(Arc::clone(&board));
            let me = thread::current().id();
            let outcome = std::panic::catch_unwind(|| {
                sweep::split(64 * CHUNKS, (), |range, ()| {
                    let i = range.start / 64;
                    if thread::current().id() == me {
                        // The first chunk waits for the helper to hold one.
                        while helper_chunk.load(Ordering::Acquire) == usize::MAX {
                            std::hint::spin_loop();
                        }
                        ran[i].store(true, Ordering::Release);
                    } else {
                        helper_chunk.store(i, Ordering::Release);
                        while !release.load(Ordering::Acquire) {
                            std::hint::spin_loop();
                        }
                        panic!("helper chunk {i}");
                    }
                });
            });
            returned.store(true, Ordering::Release);
            outcome.expect_err("the helper's panic reaches the poster")
        });
        // The poster runs every chunk but the helper's, then must wait.
        let held = loop {
            let held = helper_chunk.load(Ordering::Acquire);
            let others = (0..CHUNKS).filter(|&i| i != held);
            if held != usize::MAX && others.clone().all(|i| ran[i].load(Ordering::Acquire)) {
                break held;
            }
            std::hint::spin_loop();
        };
        assert_eq!(held, CHUNKS - 1, "helpers claim from the back");
        assert!(!returned.load(Ordering::Acquire), "returned mid-chunk");
        release.store(true, Ordering::Release);
        poster.join().expect("the poster catches the panic")
    });
    let message = payload
        .downcast_ref::<String>()
        .expect("a formatted message");
    assert_eq!(message, &format!("helper chunk {}", CHUNKS - 1));
    // The board is clean for the next sweep: no stale payload.
    let mut rng = Stream(0x5EED_0004);
    on_board(&board, 1, || check_kernels(&mut rng, 64 * 40 + 3, 3));
}
