//! The communication-compression plane: codec throughput and end-to-end
//! traffic/convergence under a straggler.
//!
//! Two halves:
//!
//! * **Codec microbenchmarks** — encode/decode throughput (GB/s) of
//!   top-1%, top-10% and int8 on a 64K-element block, with a
//!   [`hop_tensor::PoolStats`]-backed assertion that the hot path stops
//!   allocating after warmup (the `encode_into`/`decode_into` contract).
//! * **End-to-end decentralized runs** — the 64K-parameter SVM workload
//!   under a 6x straggler at equal iteration counts for identity /
//!   top-1% / top-10% / int8: wire bytes per iteration, the dense bytes
//!   the codec avoided, and the final evaluation loss. The acceptance
//!   claims asserted here: top-1% cuts `bytes_sent` at least 8x, int8
//!   about 4x, and error-feedback top-10% lands within 5% of the
//!   uncompressed loss.
//!
//! The machine-readable trajectory line
//!
//! ```text
//! COMPRESS_SUMMARY {"throughput":[…],"convergence":[…]}
//! ```
//!
//! lands in CI logs (smoke mode) and is extracted into the
//! `BENCH_compress.json` artifact next to `BENCH_sweep.json` /
//! `BENCH_scale.json`.

use criterion::{criterion_group, criterion_main, Criterion};
use hop_bench::{emit_summary_line, paper_cluster, sized, smoke, SEED};
use hop_core::trainer::{Hyper, SimExperiment};
use hop_core::{CompressionConfig, HopConfig, Protocol, TrainingReport};
use hop_data::webspam::{SyntheticWebspam, WebspamConfig};
use hop_data::{Dataset, InMemoryDataset};
use hop_graph::Topology;
use hop_model::svm::Svm;
use hop_sim::SlowdownModel;
use hop_tensor::{ops, BufferPool, Codec, CompressedBlock, Compressor, ErrorFeedback, ParamStream};
use std::time::Instant;

/// Block size for the codec microbenchmarks and the model dimension of
/// the end-to-end workload (the 64K-parameter acceptance target).
const DIM: usize = 65_536;

/// Deterministic gradient-like values for the microbenchmarks.
fn block_values(len: usize) -> Vec<f32> {
    let mut seed = SEED;
    (0..len)
        .map(|_| {
            seed ^= seed >> 12;
            seed ^= seed << 25;
            seed ^= seed >> 27;
            let raw = seed.wrapping_mul(0x2545_F491_4F6C_DD1D);
            ((raw >> 40) as f32 / (1u64 << 24) as f32) * 2.0 - 1.0
        })
        .collect()
}

fn lossy_codecs() -> Vec<CompressionConfig> {
    vec![
        CompressionConfig::TopK { ratio: 0.01 },
        CompressionConfig::TopK { ratio: 0.1 },
        CompressionConfig::Int8Uniform,
    ]
}

/// Encode/decode throughput of one codec over the 64K block, plus the
/// allocation-free check: after one warmup round the buffer pool must
/// serve every acquire from its free list.
fn throughput_cell(cfg: CompressionConfig) -> String {
    let input = block_values(DIM);
    let mut codec = Codec::new(cfg);
    let mut ef = ErrorFeedback::new();
    let mut pool = BufferPool::new();
    let mut block = CompressedBlock::default();
    let mut decoded = vec![0.0f32; DIM];
    // Warmup: allocate every scratch buffer once.
    codec.encode_into(&input, &mut ef, &mut pool, &mut block);
    codec.decode_into(&block, &mut decoded);
    let fresh_after_warmup = pool.stats().fresh;
    let iters = sized(400, 40);
    let start = Instant::now();
    for _ in 0..iters {
        codec.encode_into(&input, &mut ef, &mut pool, &mut block);
    }
    let encode_s = start.elapsed().as_secs_f64();
    let start = Instant::now();
    for _ in 0..iters {
        codec.decode_into(&block, &mut decoded);
    }
    let decode_s = start.elapsed().as_secs_f64();
    assert_eq!(
        pool.stats().fresh,
        fresh_after_warmup,
        "{}: encode hot path allocated after warmup",
        cfg.label()
    );
    let dense_gb = (4 * DIM * iters) as f64 / 1e9;
    let encode_gbps = dense_gb / encode_s;
    let decode_gbps = dense_gb / decode_s;
    println!(
        "codec {:>10}  encode {encode_gbps:>7.2} GB/s  decode {decode_gbps:>7.2} GB/s  \
         wire {} B/block",
        cfg.label(),
        block.encoded_bytes(),
    );
    format!(
        "{{\"codec\":\"{}\",\"encode_gbps\":{encode_gbps:.3},\"decode_gbps\":{decode_gbps:.3},\
         \"wire_bytes\":{}}}",
        cfg.label(),
        block.encoded_bytes(),
    )
}

fn workload() -> (Svm, InMemoryDataset) {
    let dataset = SyntheticWebspam::generate_with(
        sized(1024, 192),
        SEED,
        WebspamConfig {
            dim: DIM,
            nnz_per_example: 32,
            label_noise: 0.05,
        },
    );
    (Svm::log_loss(dataset.feature_dim()), dataset)
}

/// One decentralized run at `codec` under the 6x straggler.
fn run_codec(codec: CompressionConfig, model: &Svm, dataset: &InMemoryDataset) -> TrainingReport {
    let n = 8;
    SimExperiment {
        topology: Topology::ring(n),
        cluster: paper_cluster(n),
        slowdown: SlowdownModel::paper_straggler(n, 0, 6.0),
        protocol: Protocol::Hop(HopConfig::standard().with_compression(codec)),
        hyper: Hyper::svm(),
        max_iters: sized(30, 8),
        seed: SEED,
        eval_every: sized(10, 4),
        eval_examples: sized(256, 64),
    }
    .run(model, dataset)
    .expect("compression bench experiment must be valid")
}

fn final_loss(report: &TrainingReport) -> f64 {
    report.eval_time.last().expect("eval curve is non-empty").1
}

fn emit_summary() {
    hop_bench::banner(
        "compress",
        "deterministic top-k/int8 with error feedback cuts gossip traffic 4-100x \
         without breaking convergence",
    );
    let throughput: Vec<String> = lossy_codecs().into_iter().map(throughput_cell).collect();
    let (model, dataset) = workload();
    let dense = run_codec(CompressionConfig::Identity, &model, &dataset);
    let dense_loss = final_loss(&dense);
    let iters = dense.trace.records().len().max(1) as u64;
    let mut cells = vec![format!(
        "{{\"codec\":\"identity\",\"bytes_sent\":{},\"bytes_saved\":0,\
         \"bytes_per_iter\":{:.1},\"final_loss\":{dense_loss:.6},\"loss_ratio\":1.0}}",
        dense.bytes_sent,
        dense.bytes_sent as f64 / iters as f64,
    )];
    for codec in lossy_codecs() {
        let report = run_codec(codec, &model, &dataset);
        let loss = final_loss(&report);
        let ratio = loss / dense_loss;
        let reduction = dense.bytes_sent as f64 / report.bytes_sent as f64;
        assert_eq!(
            report.bytes_sent + report.bytes_saved,
            dense.bytes_sent,
            "{}: accounting does not reassemble the dense total",
            codec.label()
        );
        println!(
            "codec {:>10}  bytes {:>12}  ({reduction:>6.2}x less)  final loss {loss:.4}  \
             ({ratio:.3}x dense)",
            codec.label(),
            report.bytes_sent,
        );
        match codec {
            CompressionConfig::TopK { ratio: r } if r <= 0.011 => assert!(
                reduction >= 8.0,
                "top-1% reduced traffic only {reduction:.2}x (acceptance: >= 8x)"
            ),
            CompressionConfig::TopK { .. } => assert!(
                ratio <= 1.05,
                "top-10% final loss {loss:.4} drifted beyond 5% of dense {dense_loss:.4}"
            ),
            CompressionConfig::Int8Uniform => assert!(
                (3.8..=4.2).contains(&reduction),
                "int8 reduced traffic {reduction:.2}x (expected ~4x)"
            ),
            CompressionConfig::Identity => unreachable!("lossy_codecs() is lossy"),
        }
        cells.push(format!(
            "{{\"codec\":\"{}\",\"bytes_sent\":{},\"bytes_saved\":{},\
             \"bytes_per_iter\":{:.1},\"final_loss\":{loss:.6},\"loss_ratio\":{ratio:.4}}}",
            codec.label(),
            report.bytes_sent,
            report.bytes_saved,
            report.bytes_sent as f64 / iters as f64,
        ));
    }
    emit_summary_line(
        "COMPRESS",
        &format!(
            "{{\"smoke\":{},\"dim\":{DIM},\"throughput\":[{}],\"convergence\":[{}]}}",
            smoke(),
            throughput.join(","),
            cells.join(","),
        ),
    );
}

fn bench_encode_topk(c: &mut Criterion) {
    let input = block_values(DIM);
    let mut codec = Codec::new(CompressionConfig::TopK { ratio: 0.01 });
    let mut ef = ErrorFeedback::new();
    let mut pool = BufferPool::new();
    let mut block = CompressedBlock::default();
    c.bench_function("compress/encode_topk_1pct_64k", |b| {
        b.iter(|| codec.encode_into(&input, &mut ef, &mut pool, &mut block))
    });
}

/// The path the threaded runtime takes under top-k: a parameter-stream
/// step on a drifting block. Each call first moves the block by 1e-3
/// times one of eight rotations of itself (one `axpy`, timed with the
/// step), so the delta to the reference is drift the stream has not yet
/// shipped, as a training worker's is.
fn bench_encode_step_topk(c: &mut Criterion) {
    let mut params = block_values(DIM);
    let noise: Vec<Vec<f32>> = (0..8)
        .map(|s| {
            let mut v = params.clone();
            v.rotate_left(s * 4099);
            v
        })
        .collect();
    let mut stream = ParamStream::new(&params);
    let mut codec = Codec::new(CompressionConfig::TopK { ratio: 0.01 });
    let mut pool = BufferPool::new();
    let mut block = CompressedBlock::default();
    let mut step = 0;
    c.bench_function("compress/encode_step_topk_1pct_64k", |b| {
        b.iter(|| {
            step += 1;
            ops::axpy(1e-3, &noise[step % noise.len()], &mut params);
            codec.encode_step(&params, &mut stream, &mut pool, &mut block)
        })
    });
}

fn bench_encode_int8(c: &mut Criterion) {
    let input = block_values(DIM);
    let mut codec = Codec::new(CompressionConfig::Int8Uniform);
    let mut ef = ErrorFeedback::new();
    let mut pool = BufferPool::new();
    let mut block = CompressedBlock::default();
    c.bench_function("compress/encode_int8_64k", |b| {
        b.iter(|| codec.encode_into(&input, &mut ef, &mut pool, &mut block))
    });
}

fn bench_summary(_c: &mut Criterion) {
    emit_summary();
}

criterion_group!(
    compress,
    bench_encode_topk,
    bench_encode_step_topk,
    bench_encode_int8,
    bench_summary
);
criterion_main!(compress);
