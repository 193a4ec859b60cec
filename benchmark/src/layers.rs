//! Per-layer unit costs, measured from outside: the harness times calls
//! into each layer's `pub` functions with `Instant` + `black_box`, on
//! inputs at the sizes the workloads use. Layer = crate or module.
//!
//! The `*_costs` functions return seconds per call at a given size; the
//! attribution calls them at the workload's own size, and [`measure`]
//! turns them into the named metrics at the ledger's fixed sizes.
//! Throughputs in GB/s count operand bytes read plus written for the
//! kernels (`tensor.ops.*`, `model.sgd.*`), dense input bytes for the
//! codecs, and frame bytes for the wire.

use crate::spans::Spans;
use crate::workloads::{sim_expander, Prepared, DIM_1K, DIM_64K};
use hop::core::config::{AdPsgdConfig, HopConfig, PragueConfig, PsConfig, PsMode, QgmConfig};
use hop::core::process::ProcessExperiment;
use hop::core::threaded::ThreadedExperiment;
use hop::core::{CompressionConfig, Hyper, Protocol, ProtocolTrace, SweepGrid, SweepRunner};
use hop::data::webspam::{SyntheticWebspam, WebspamConfig};
use hop::data::{BatchSampler, Dataset, InMemoryDataset};
use hop::graph::Topology;
use hop::model::svm::Svm;
use hop::model::{GradScratch, Model, Sgd};
use hop::queue::blocking::{SharedTaggedQueue, SharedTokenQueue};
use hop::queue::tagged::TagFilter;
use hop::queue::{RotatingQueues, Tag, TaggedQueue, TokenQueue};
use hop::sim::{ClusterSpec, EventQueue, FaultPlan, LinkModel, Network, SlowdownModel};
use hop::tensor::{ops, BufferPool, Codec, CompressedBlock, Compressor, ErrorFeedback, ParamBlock};
use hop::util::{Summary, Xoshiro256};
use hop::wire::{self, Message};
use std::hint::black_box;
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// A list of measurements in emission order.
#[derive(Debug, Clone, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }
}

/// Times batches of calls, one span per batch. `scale` shrinks every
/// budget for the package's own tests.
pub struct Timer<'a> {
    pub spans: &'a mut Spans,
    pub scale: f64,
}

impl Timer<'_> {
    /// Median seconds per call of `f`: the batch size is doubled until a
    /// batch lasts 10 ms, then five batches are timed.
    pub fn per_call(&mut self, name: &str, mut f: impl FnMut()) -> f64 {
        let budget = Duration::from_secs_f64(0.010 * self.scale.min(1.0));
        let mut calls = 1u64;
        loop {
            let start = Instant::now();
            for _ in 0..calls {
                f();
            }
            if start.elapsed() >= budget || calls >= 1 << 24 {
                break;
            }
            calls *= 2;
        }
        self.median_of(name, 5, || {
            for _ in 0..calls {
                f();
            }
        }) / calls as f64
    }

    /// Median seconds of `reps` single calls of `f`.
    pub fn median_of(&mut self, name: &str, reps: usize, mut f: impl FnMut()) -> f64 {
        let samples: Vec<f64> = (0..reps)
            .map(|_| {
                self.spans.record(name, |_| {
                    let start = Instant::now();
                    f();
                    start.elapsed().as_secs_f64()
                })
            })
            .collect();
        Summary::from_slice(&samples).median()
    }

    /// A fixed call count, shrunk by `scale` but never below `floor`.
    fn count(&self, full: usize, floor: usize) -> usize {
        ((full as f64 * self.scale.min(1.0)) as usize).max(floor)
    }
}

/// Deterministic gradient-like values in `[-1, 1)`.
fn values(len: usize, seed: u64) -> Vec<f32> {
    let mut rng = Xoshiro256::seed_from_u64(seed);
    (0..len).map(|_| rng.next_f32() * 2.0 - 1.0).collect()
}

fn gbps(bytes: usize, seconds_per_call: f64) -> f64 {
    bytes as f64 / seconds_per_call / 1e9
}

/// Seconds per call of the `hop_tensor` kernels and the `ParamBlock`
/// operations on `dim`-element vectors.
#[derive(Debug, Clone, Copy)]
pub struct KernelCosts {
    pub axpy: f64,
    pub axpby: f64,
    pub scale: f64,
    /// `mean_into` of four inputs: five vectors move.
    pub mean_into4: f64,
    pub memcpy: f64,
    pub snapshot: f64,
    pub overwrite_mut: f64,
}

pub fn kernel_costs(t: &mut Timer<'_>, dim: usize) -> KernelCosts {
    let x = values(dim, 1);
    let mut y = values(dim, 2);
    let inputs: Vec<Vec<f32>> = (0..4).map(|i| values(dim, 10 + i)).collect();
    let views: Vec<&[f32]> = inputs.iter().map(Vec::as_slice).collect();
    let mut block = ParamBlock::zeros(dim);
    let mut pool = BufferPool::new();
    // Coefficients that leave `y` numerically where it started, so long
    // batches neither overflow nor decay into denormals.
    KernelCosts {
        axpy: t.per_call("tensor.ops.axpy", || {
            ops::axpy(black_box(1e-9), black_box(&x), black_box(&mut y));
        }),
        axpby: t.per_call("tensor.ops.axpby", || {
            ops::axpby(
                black_box(1e-9),
                black_box(&x),
                black_box(1.0),
                black_box(&mut y),
            );
        }),
        scale: t.per_call("tensor.ops.scale", || {
            ops::scale(black_box(1.0), black_box(&mut y));
        }),
        mean_into4: t.per_call("tensor.ops.mean_into", || {
            ops::mean_into(black_box(&views), black_box(&mut y));
        }),
        // The roofline the kernels are read against.
        memcpy: t.per_call("tensor.ops.memcpy", || {
            black_box(&mut y).copy_from_slice(black_box(&x));
        }),
        snapshot: t.per_call("tensor.param_block.snapshot", || {
            black_box(block.snapshot());
        }),
        // The Reduce-side write: a published block is overwritten, so it
        // detaches onto a pooled buffer while the old one is recycled.
        overwrite_mut: t.per_call("tensor.param_block.overwrite_mut", || {
            let published = block.snapshot();
            black_box(block.overwrite_mut(&mut pool));
            pool.reclaim(published);
        }),
    }
}

/// Seconds per `encode_into` / `decode_into` of one `dim`-element block,
/// and how many pool acquires allocated after the warm-up call (the
/// codec contract says none).
#[derive(Debug, Clone, Copy)]
pub struct CodecCosts {
    pub encode: f64,
    pub decode: f64,
    pub fresh_after_warmup: u64,
}

pub fn codec_costs(t: &mut Timer<'_>, cfg: CompressionConfig, dim: usize) -> CodecCosts {
    let input = values(dim, 3);
    let mut codec = Codec::new(cfg);
    let mut ef = ErrorFeedback::new();
    let mut pool = BufferPool::new();
    let mut block = CompressedBlock::default();
    let mut decoded = vec![0.0f32; dim];
    codec.encode_into(&input, &mut ef, &mut pool, &mut block);
    codec.decode_into(&block, &mut decoded);
    let warm = pool.stats().fresh;
    let encode = t.per_call("tensor.compress.encode", || {
        codec.encode_into(black_box(&input), &mut ef, &mut pool, &mut block);
    });
    let decode = t.per_call("tensor.compress.decode", || {
        codec.decode_into(black_box(&block), black_box(&mut decoded));
    });
    CodecCosts {
        encode,
        decode,
        fresh_after_warmup: pool.stats().fresh - warm,
    }
}

/// Seconds per call of one worker's compute steps on `model`/`dataset`.
#[derive(Debug, Clone, Copy)]
pub struct ModelCosts {
    pub loss_grad: f64,
    pub sgd_step: f64,
    pub batch_sample: f64,
    /// Sampler → gradient → step with nothing else.
    pub single_iter: f64,
}

pub fn model_costs(t: &mut Timer<'_>, model: &Svm, dataset: &InMemoryDataset) -> ModelCosts {
    let hyper = Hyper::svm();
    let dim = model.param_len();
    let mut sampler = BatchSampler::new(dataset.len(), hyper.batch_size, 7);
    let mut params = ParamBlock::from_vec(model.init_params(&mut Xoshiro256::seed_from_u64(7)));
    let mut grad = vec![0.0f32; dim];
    let mut scratch = GradScratch::new();
    let mut opt = Sgd::new(hyper.lr, hyper.momentum, hyper.weight_decay, dim);
    let batch = sampler.next_batch(dataset);
    ModelCosts {
        loss_grad: t.per_call("model.svm.loss_grad", || {
            black_box(model.loss_grad_with(
                black_box(params.as_slice()),
                &batch,
                &mut grad,
                &mut scratch,
            ));
        }),
        sgd_step: t.per_call("model.sgd.step", || {
            opt.step_block(&mut params, black_box(&grad));
        }),
        batch_sample: t.per_call("data.batch_sample", || {
            black_box(sampler.next_batch(dataset));
        }),
        single_iter: t.per_call("model.single_worker_iter", || {
            let batch = sampler.next_batch(dataset);
            black_box(model.loss_grad_with(params.as_slice(), &batch, &mut grad, &mut scratch));
            opt.step_block(&mut params, &grad);
        }),
    }
}

/// Seconds per enqueue+dequeue pair (insert+remove for tokens) on the
/// single-threaded queues, and per hand-off between two threads on the
/// shared ones (half a ping-pong round trip, wake-up included).
#[derive(Debug, Clone, Copy)]
pub struct QueueCosts {
    pub tagged: f64,
    pub rotating: f64,
    pub token: f64,
    pub shared_tagged_handoff: f64,
    pub shared_token_handoff: f64,
}

pub fn queue_costs(t: &mut Timer<'_>) -> QueueCosts {
    let mut k = 0u64;
    let mut tagged = TaggedQueue::unbounded();
    let mut rotating = RotatingQueues::new(5);
    let mut tokens = TokenQueue::new(4);
    let rounds = t.count(20_000, 200);
    let timeout = Duration::from_secs(20);
    let tag = Tag { iter: 0, w_id: 0 };
    QueueCosts {
        tagged: t.per_call("queue.tagged", || {
            tagged
                .enqueue(black_box(k), Tag { iter: k, w_id: 0 })
                .expect("unbounded");
            black_box(tagged.try_dequeue(1, TagFilter::iter(k)));
            k += 1;
        }),
        rotating: t.per_call("queue.rotating", || {
            rotating
                .enqueue(black_box(k), Tag { iter: k, w_id: 0 })
                .expect("unbounded");
            black_box(rotating.try_dequeue(1, k));
            k += 1;
        }),
        token: t.per_call("queue.token", || {
            tokens.insert(black_box(1));
            black_box(tokens.try_remove(1));
        }),
        shared_tagged_handoff: {
            let (ping, pong) = (SharedTaggedQueue::new(), SharedTaggedQueue::new());
            let round_trips = t.spans.record("queue.shared_tagged_handoff", |_| {
                std::thread::scope(|scope| {
                    scope.spawn(|| {
                        for _ in 0..rounds {
                            let got = ping.dequeue(1, TagFilter::any(), timeout).expect("ping");
                            pong.enqueue(got[0].value, tag);
                        }
                    });
                    let start = Instant::now();
                    for i in 0..rounds {
                        ping.enqueue(i, tag);
                        black_box(pong.dequeue(1, TagFilter::any(), timeout).expect("pong"));
                    }
                    start.elapsed().as_secs_f64()
                })
            });
            round_trips / (2 * rounds) as f64
        },
        shared_token_handoff: {
            let (ping, pong) = (SharedTokenQueue::new(1), SharedTokenQueue::new(1));
            // Both start with their one pre-loaded token removed, so
            // every remove below waits for the other side's insert.
            assert!(ping.try_remove(1) && pong.try_remove(1));
            let round_trips = t.spans.record("queue.shared_token_handoff", |_| {
                std::thread::scope(|scope| {
                    scope.spawn(|| {
                        for _ in 0..rounds {
                            ping.remove(1, timeout).expect("ping");
                            pong.insert(1);
                        }
                    });
                    let start = Instant::now();
                    for _ in 0..rounds {
                        ping.insert(1);
                        pong.remove(1, timeout).expect("pong");
                    }
                    start.elapsed().as_secs_f64()
                })
            });
            round_trips / (2 * rounds) as f64
        },
    }
}

/// Events per second of the pump's pattern — pop the earliest event,
/// schedule a successor a short virtual delay later — at a steady
/// pending `population`.
pub fn event_churn_per_s(t: &mut Timer<'_>, population: usize, seed: u64) -> f64 {
    let churn = t.count(1_000_000, 20_000);
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let mut delay = move || 0.001 + rng.next_f64() * 0.1;
    let mut queue = EventQueue::with_capacity(population);
    for i in 0..population {
        queue.push(delay(), i);
    }
    let seconds = t.spans.record("sim.events.churn", |_| {
        let start = Instant::now();
        for _ in 0..churn {
            let (now, ev) = queue.pop().expect("population stays constant");
            queue.push(now + delay(), black_box(ev));
        }
        start.elapsed().as_secs_f64()
    });
    churn as f64 / seconds
}

/// Seconds per `Network::transfer` on the paper's 16-worker cluster.
pub fn transfer_cost(t: &mut Timer<'_>) -> f64 {
    let spec = ClusterSpec::uniform(16, 4, 0.05, LinkModel::ethernet_1gbps());
    let mut net = Network::new(spec);
    let (mut now, mut a) = (0.0f64, 0usize);
    t.per_call("sim.cluster.transfer", || {
        now += 0.01;
        a = (a + 1) % 16;
        black_box(net.transfer(now, a, (a + 5) % 16, 4 * DIM_64K as u64));
    })
}

/// Unit costs of the `hop_wire` layer at the process runtime's frame
/// size (int8 block of 1024 parameters).
#[derive(Debug, Clone, Copy)]
pub struct WireCosts {
    /// Bytes of one int8 update frame, length prefix included.
    pub frame_bytes: usize,
    pub update_encode: f64,
    pub update_decode: f64,
    pub token_roundtrip: f64,
    /// Update frames per second through one loopback TCP connection,
    /// `write_message` on one thread and `read_message` on another.
    pub loopback_frames_per_s: f64,
}

/// # Errors
///
/// A socket or framing error on the loopback connection.
pub fn wire_costs(t: &mut Timer<'_>) -> Result<WireCosts, String> {
    let tag = Tag { iter: 7, w_id: 3 };
    let int8 = CompressedBlock::Quantized {
        scale: 0.01,
        values: (0..DIM_1K).map(|i| (i % 251) as i8).collect(),
    };
    let mut frame = Vec::new();
    let update_encode = t.per_call("wire.update_encode", || {
        black_box(wire::encode_update_frame(
            tag,
            9,
            black_box(&int8),
            &mut frame,
        ));
    });
    let update_decode = t.per_call("wire.update_decode", || {
        black_box(wire::decode_payload(black_box(&frame[4..])).expect("own frame decodes"));
    });
    let token = Message::Token { count: 1, clock: 9 };
    let mut buf = Vec::new();
    let token_roundtrip = t.per_call("wire.token_roundtrip", || {
        wire::encode_frame(black_box(&token), &mut buf);
        black_box(wire::decode_payload(&buf[4..]).expect("own frame decodes"));
    });
    let frames = t.count(50_000, 500);
    let update = Message::Update {
        tag,
        clock: 9,
        block: int8,
    };
    let io = |e: std::io::Error| format!("loopback socket: {e}");
    let listener = TcpListener::bind(("127.0.0.1", 0)).map_err(io)?;
    let addr = listener.local_addr().map_err(io)?;
    let seconds = t.spans.record("wire.loopback", |_| {
        std::thread::scope(|scope| -> Result<f64, String> {
            let reader = scope.spawn(move || -> Result<(), String> {
                let (mut stream, _) = listener.accept().map_err(io)?;
                for _ in 0..frames {
                    black_box(wire::read_message(&mut stream).map_err(|e| e.to_string())?);
                }
                Ok(())
            });
            let mut stream = TcpStream::connect(addr).map_err(io)?;
            stream.set_nodelay(true).map_err(io)?;
            let start = Instant::now();
            for _ in 0..frames {
                wire::write_message(&mut stream, &update).map_err(|e| e.to_string())?;
            }
            reader.join().expect("reader thread does not panic")?;
            Ok(start.elapsed().as_secs_f64())
        })
    })?;
    Ok(WireCosts {
        frame_bytes: frame.len(),
        update_encode,
        update_decode,
        token_roundtrip,
        loopback_frames_per_s: frames as f64 / seconds,
    })
}

fn svm_fixture(dim: usize) -> (InMemoryDataset, Svm) {
    let config = WebspamConfig {
        dim,
        nnz_per_example: 32,
        label_noise: 0.05,
    };
    (
        SyntheticWebspam::generate_with(1024, 1, config),
        Svm::log_loss(dim),
    )
}

/// Measures every workload-independent layer metric. `ref16` is a traced
/// `sim_ref16_int8` run (the oracle and the trace text format are timed
/// on its trace).
///
/// # Errors
///
/// A runtime error from the fixed-cost runs, a socket error, an oracle
/// violation in one of the replayed traces, or a codec that allocates
/// after its warm-up call.
pub fn measure(
    t: &mut Timer<'_>,
    seed: u64,
    ref16: (&Prepared, &ProtocolTrace),
) -> Result<Metrics, String> {
    let mut m = Metrics::default();
    let n = DIM_64K;

    let k = kernel_costs(t, n);
    m.push("tensor.ops.axpy_gbps_64k", gbps(12 * n, k.axpy), "GB/s");
    m.push("tensor.ops.axpby_gbps_64k", gbps(12 * n, k.axpby), "GB/s");
    m.push("tensor.ops.scale_gbps_64k", gbps(8 * n, k.scale), "GB/s");
    m.push(
        "tensor.ops.mean_into_gbps_4x64k",
        gbps(20 * n, k.mean_into4),
        "GB/s",
    );
    m.push("tensor.ops.memcpy_gbps_64k", gbps(8 * n, k.memcpy), "GB/s");
    m.push(
        "tensor.ops.avx2",
        f64::from(u8::from(ops::simd::avx2_available())),
        "bool",
    );
    m.push("tensor.param_block.snapshot_ns", k.snapshot * 1e9, "ns");
    m.push(
        "tensor.param_block.overwrite_mut_ns_64k",
        k.overwrite_mut * 1e9,
        "ns",
    );

    let int8 = codec_costs(t, CompressionConfig::Int8Uniform, n);
    let topk = codec_costs(t, CompressionConfig::TopK { ratio: 0.01 }, n);
    let int8_1k = codec_costs(t, CompressionConfig::Int8Uniform, DIM_1K);
    for (label, c) in [("int8", int8), ("topk1", topk)] {
        m.push(
            &format!("tensor.compress.{label}_encode_gbps_64k"),
            gbps(4 * n, c.encode),
            "GB/s",
        );
        m.push(
            &format!("tensor.compress.{label}_decode_gbps_64k"),
            gbps(4 * n, c.decode),
            "GB/s",
        );
    }
    m.push(
        "tensor.compress.int8_encode_gbps_1k",
        gbps(4 * DIM_1K, int8_1k.encode),
        "GB/s",
    );
    let fresh = int8.fresh_after_warmup + topk.fresh_after_warmup + int8_1k.fresh_after_warmup;
    if fresh != 0 {
        return Err(format!(
            "the codec hot path allocated {fresh} buffers after warm-up"
        ));
    }
    m.push("tensor.compress.pool_fresh_after_warmup", 0.0, "count");

    for (dim, size) in [(n, "64k"), (DIM_1K, "1k")] {
        let (dataset, model) = svm_fixture(dim);
        let c = model_costs(t, &model, &dataset);
        m.push(
            &format!("model.svm.loss_grad_us_b32_{size}"),
            c.loss_grad * 1e6,
            "us",
        );
        // The compute-only ceiling for `worker_iters_per_s` per core.
        m.push(
            &format!("model.single_worker_iters_per_s_{size}"),
            1.0 / c.single_iter,
            "1/s",
        );
        if dim == n {
            m.push("model.sgd.step_gbps_64k", gbps(20 * n, c.sgd_step), "GB/s");
            m.push("data.batch_sample_ns_b32", c.batch_sample * 1e9, "ns");
        }
    }

    let q = queue_costs(t);
    m.push("queue.tagged_enq_deq_ns", q.tagged * 1e9, "ns");
    m.push("queue.rotating_enq_deq_ns", q.rotating * 1e9, "ns");
    m.push("queue.token_insert_remove_ns", q.token * 1e9, "ns");
    m.push(
        "queue.shared_tagged_handoff_us",
        q.shared_tagged_handoff * 1e6,
        "us",
    );
    m.push(
        "queue.shared_token_handoff_us",
        q.shared_token_handoff * 1e6,
        "us",
    );

    m.push(
        "sim.events.churn_per_s_1k",
        event_churn_per_s(t, 1024, seed),
        "1/s",
    );
    m.push(
        "sim.events.churn_per_s_10k",
        event_churn_per_s(t, 10_000, seed),
        "1/s",
    );
    m.push("sim.cluster.transfer_ns", transfer_cost(t) * 1e9, "ns");
    let workers = t.count(10_000, 64);
    let s = t.median_of("graph.expander_build", 3, || {
        black_box(Topology::expander(workers, 4, seed));
    });
    m.push("graph.expander10k_build_ms", s * 1e3, "ms");
    let s = t.per_call("graph.ring_based_build", || {
        black_box(Topology::ring_based(black_box(16)));
    });
    m.push("graph.ring_based16_build_us", s * 1e6, "us");

    let w = wire_costs(t)?;
    m.push(
        "wire.update_encode_gbps_int8_1k",
        gbps(w.frame_bytes, w.update_encode),
        "GB/s",
    );
    m.push(
        "wire.update_decode_gbps_int8_1k",
        gbps(w.frame_bytes, w.update_decode),
        "GB/s",
    );
    let dense = CompressedBlock::Dense {
        values: values(n, 5),
    };
    let mut frame = Vec::new();
    let s = t.per_call("wire.update_encode", || {
        let tag = Tag { iter: 7, w_id: 3 };
        black_box(wire::encode_update_frame(
            tag,
            9,
            black_box(&dense),
            &mut frame,
        ));
    });
    m.push(
        "wire.update_encode_gbps_dense_64k",
        gbps(frame.len(), s),
        "GB/s",
    );
    m.push("wire.token_roundtrip_ns", w.token_roundtrip * 1e9, "ns");
    m.push(
        "wire.loopback_frames_per_s_1k",
        w.loopback_frames_per_s,
        "1/s",
    );

    runtime_fixed_costs(t, &mut m)?;
    conformance(t, &mut m, seed, ref16)?;
    sweep(t, &mut m)?;
    Ok(m)
}

/// What a run costs before its first iteration: a `max_iters = 1` run on
/// each real runtime (thread spawn + join; fleet spawn + handshake +
/// teardown).
fn runtime_fixed_costs(t: &mut Timer<'_>, m: &mut Metrics) -> Result<(), String> {
    let cfg = HopConfig::backup(1, 5);
    let dataset = Arc::new(SyntheticWebspam::generate(64, 1));
    let model: Arc<dyn Model> = Arc::new(Svm::log_loss(dataset.feature_dim()));
    let threaded = ThreadedExperiment {
        config: cfg.clone(),
        topology: Topology::ring_based(4),
        max_iters: 1,
        seed: 1,
        hyper: Hyper::svm(),
        compute_sleep: Duration::ZERO,
        slow_worker: None,
        stall_timeout: Duration::from_secs(20),
        faults: FaultPlan::default(),
    };
    let mut failure = None;
    let s = t.median_of("core.threaded.run", 5, || {
        if let Err(e) = threaded.run(Arc::clone(&model), Arc::clone(&dataset)) {
            failure = Some(e.to_string());
        }
    });
    m.push("core.threaded.fixed_ms", s * 1e3, "ms");
    let worker_bin = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut fleet = ProcessExperiment::new(cfg, Topology::ring_based(4), 1, worker_bin);
    fleet.examples = 64;
    let s = t.median_of("core.process.run", 3, || {
        if let Err(e) = fleet.run() {
            failure = Some(e.to_string());
        }
    });
    m.push("core.process.fleet_fixed_ms", s * 1e3, "ms");
    failure.map_or(Ok(()), Err)
}

fn conformance(
    t: &mut Timer<'_>,
    m: &mut Metrics,
    seed: u64,
    (ref16, ref16_trace): (&Prepared, &ProtocolTrace),
) -> Result<(), String> {
    let mut verdict = Ok(());
    let s = t.median_of("core.conformance.oracle_check", 3, || {
        verdict = ref16.oracle_check(ref16_trace);
    });
    verdict?;
    m.push(
        "core.conformance.oracle_events_per_s_ref16",
        ref16_trace.len() as f64 / s,
        "1/s",
    );
    // Not the 10k trace: replay is super-linear in workers (see README).
    let exp1k = sim_expander(t.count(1024, 64), 30, seed);
    let trace = t
        .spans
        .record("core.sim.run_conformance", |_| exp1k.run(true))?
        .trace
        .expect("a traced run returns its trace");
    let mut verdict = Ok(());
    let s = t.median_of("core.conformance.oracle_check", 3, || {
        verdict = exp1k.oracle_check(&trace);
    });
    verdict?;
    m.push(
        "core.conformance.oracle_events_per_s_exp1k",
        trace.len() as f64 / s,
        "1/s",
    );
    let mut text = String::new();
    let s = t.median_of("core.conformance.trace_to_text", 3, || {
        text = ref16_trace.to_text();
    });
    m.push(
        "core.conformance.trace_to_text_mb_per_s",
        text.len() as f64 / s / 1e6,
        "MB/s",
    );
    let mut parsed = Ok(());
    let s = t.median_of("core.conformance.trace_from_text", 3, || {
        parsed = ProtocolTrace::from_text(&text).map(|_| ());
    });
    parsed.map_err(|e| e.to_string())?;
    m.push(
        "core.conformance.trace_from_text_mb_per_s",
        text.len() as f64 / s / 1e6,
        "MB/s",
    );
    Ok(())
}

/// One small grid over all six `Protocol` families, so the PS / ring /
/// AD-PSGD / Prague / QGM plug-ins are exercised too, at one and two
/// sweep threads; the digests must agree.
fn sweep(t: &mut Timer<'_>, m: &mut Metrics) -> Result<(), String> {
    let dataset = SyntheticWebspam::generate(256, 1);
    let model = Svm::log_loss(dataset.feature_dim());
    let n = 8;
    let grid = SweepGrid::new(Hyper::svm(), t.count(40, 4) as u64)
        .protocol("hop", Protocol::Hop(HopConfig::backup(1, 4)))
        .protocol("ps", Protocol::Ps(PsConfig::new(PsMode::Bsp)))
        .protocol("ring", Protocol::RingAllReduce)
        .protocol("adpsgd", Protocol::AdPsgd(AdPsgdConfig::default()))
        .protocol("prague", Protocol::Prague(PragueConfig::default()))
        .protocol("qgm", Protocol::Qgm(QgmConfig::default()))
        .cluster(
            "uniform",
            Topology::ring(n),
            ClusterSpec::uniform(n, 4, 0.05, LinkModel::ethernet_1gbps()),
        )
        .slowdown("random", SlowdownModel::paper_random(n))
        .seeds([1, 2]);
    let mut digests = Vec::new();
    for threads in [1usize, 2] {
        let mut outcome = Ok(Vec::new());
        let s = t.median_of("core.sweep.run", 3, || {
            outcome = SweepRunner::new(threads).run(&grid, &model, &dataset);
        });
        let results = outcome.map_err(|e| e.to_string())?;
        m.push(
            &format!("core.sweep.runs_per_s_t{threads}"),
            grid.len() as f64 / s,
            "1/s",
        );
        digests.push(results.iter().map(|r| r.digest()).collect::<Vec<u64>>());
    }
    m.push(
        "core.sweep.digest_match",
        f64::from(u8::from(digests[0] == digests[1])),
        "bool",
    );
    Ok(())
}

/// Non-blank lines under each crate's `src/` (ROADMAP aim 2's number).
pub fn lines_of_code(repo_root: &Path, m: &mut Metrics) {
    for krate in [
        "core", "sim", "wire", "queue", "tensor", "model", "data", "graph", "metrics", "util",
        "bench",
    ] {
        let mut lines = 0usize;
        let mut dirs = vec![repo_root.join("crates").join(krate).join("src")];
        while let Some(dir) = dirs.pop() {
            for entry in std::fs::read_dir(&dir).into_iter().flatten().flatten() {
                let path = entry.path();
                if path.is_dir() {
                    dirs.push(path);
                } else if path.extension().is_some_and(|e| e == "rs") {
                    let text = std::fs::read_to_string(&path).unwrap_or_default();
                    lines += text.lines().filter(|l| !l.trim().is_empty()).count();
                }
            }
        }
        m.push(&format!("loc.hop_{krate}"), lines as f64, "lines");
    }
}
