//! Literal digests of small compressed runs: six workers on
//! `Topology::ring_based(6)` over two machines, 20 iterations, seed 29.
//! They were pinned before the codec kernels were fused and vectorised:
//! the parameter-stream step (`encode_params`: Hop backup + skip, QGM)
//! and the gradient-stream step (`encode_grad`: PS async pushes) under
//! both lossy codecs. A kernel change that moves one bit of one
//! parameter, one wire byte or one virtual timestamp moves these. The two
//! identity-codec rows pin the control messages: token grants and
//! NOTIFY-ACK acks, both same-machine and cross-machine.
//!
//! One table, two readers, each including this file with `#[path]`:
//! `tests/engine_smoke.rs` runs the rows through the public
//! `SimExperiment`, and `compute_offload.rs` runs them with every
//! gradient job on the pump, shipped alone and shipped three at a time.
//! The includer has the protocol and codec types in scope.

use super::{CompressionConfig, HopConfig, Protocol, PsConfig, PsMode, QgmConfig, SkipConfig};

/// `(label, protocol, digest)` for each pinned run.
pub fn golden_digests() -> [(&'static str, Protocol, u64); 8] {
    let int8 = CompressionConfig::Int8Uniform;
    let topk = CompressionConfig::TopK { ratio: 0.01 };
    let hop = |codec| {
        Protocol::Hop(
            HopConfig::backup(1, 5)
                .with_skip(SkipConfig::with_max_jump(6))
                .with_compression(codec),
        )
    };
    let ps_async = |compression| {
        Protocol::Ps(PsConfig {
            compression,
            ..PsConfig::new(PsMode::Async)
        })
    };
    let qgm = |compression| {
        Protocol::Qgm(QgmConfig {
            compression,
            ..QgmConfig::default()
        })
    };
    [
        (
            "hop_tokens/identity",
            Protocol::Hop(HopConfig::standard_with_tokens(4)),
            0x4131_0f1a_8d57_9604,
        ),
        (
            "hop_notify_ack/identity",
            Protocol::Hop(HopConfig::notify_ack()),
            0x146a_3492_8e9e_17bf,
        ),
        ("hop_skip/int8", hop(int8), 0x03c4_3c1f_ab68_273c),
        ("hop_skip/topk", hop(topk), 0xeedf_86d1_b6dc_d68b),
        ("ps_async/int8", ps_async(int8), 0xb822_fa8d_fab5_4488),
        ("ps_async/topk", ps_async(topk), 0x23cb_7805_bc44_e31f),
        ("qgm/int8", qgm(int8), 0x5c4d_6746_acb3_8ac1),
        ("qgm/topk", qgm(topk), 0x95e5_21ff_1628_66bf),
    ]
}
