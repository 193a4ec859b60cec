//! Shared setup for the performance benchmark harnesses.
//!
//! The bench targets in `benches/` time the hot layers: kernels and
//! codecs (`hot_path`, `compress_bench`), the event pump (`scale_pump`,
//! `micro_sim`), the sweep runner (`sweep_scaling`) and the queues
//! (`micro_queue`). This library holds what they share: the SVM workload,
//! the paper's cluster shape, the smoke-mode switch and the summary line.
//! The paper's claims themselves are pinned in `tests/paper_claims.rs`.

use hop_core::trainer::Hyper;
use hop_data::webspam::SyntheticWebspam;
use hop_data::{Dataset, InMemoryDataset};
use hop_model::svm::Svm;
use hop_model::Model;
use hop_sim::{ClusterSpec, LinkModel};

/// Master seed shared by all harnesses so workloads are identical across
/// them.
pub const SEED: u64 = 0xB10C;

/// The benches' workload of §7.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// SVM with log loss on synthetic sparse data (the webspam stand-in).
    Svm,
}

impl Workload {
    /// Builds the model + dataset pair.
    pub fn build(self) -> (Box<dyn Model>, InMemoryDataset) {
        let data = SyntheticWebspam::generate(4096, SEED);
        (Box::new(Svm::log_loss(data.feature_dim())), data)
    }

    /// Paper-style hyperparameters for the workload.
    pub fn hyper(self) -> Hyper {
        Hyper::svm()
    }
}

/// The paper's cluster shape: 16 workers on 4 machines (§7.2), with a
/// 50 ms per-iteration base compute time.
pub fn paper_cluster(n: usize) -> ClusterSpec {
    ClusterSpec::uniform(n, 4, 0.05, LinkModel::ethernet_1gbps())
}

/// Prints a standard harness banner.
pub fn banner(figure: &str, claim: &str) {
    println!("\n=== {figure} ===");
    println!("paper claim: {claim}");
}

/// Smoke mode for bench targets (set `HOP_BENCH_SMOKE=1`): CI-sized
/// workloads, just enough to exercise every path. Previously copy-pasted
/// into each bench target; hoisted here so every harness reads the same
/// switch.
pub fn smoke() -> bool {
    std::env::var("HOP_BENCH_SMOKE").is_ok_and(|v| v != "0")
}

/// Picks the full-scale or smoke-scale value for the current mode.
pub fn sized<T>(full: T, smoke_value: T) -> T {
    if smoke() {
        smoke_value
    } else {
        full
    }
}

/// Prints the machine-readable `{TAG}_SUMMARY {json}` trajectory line a
/// bench target ends with (`HOT_PATH_SUMMARY`, `SWEEP_SUMMARY`, …).
/// Centralized so the `TAG_SUMMARY {json}` shape CI greps for cannot
/// drift between harnesses.
pub fn emit_summary_line(tag: &str, json: &str) {
    println!("{tag}_SUMMARY {json}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_build() {
        let (model, data) = Workload::Svm.build();
        assert!(model.param_len() > 0);
        assert!(data.len() > 0);
    }

    #[test]
    fn sized_follows_smoke_mode() {
        // `smoke()` reads the environment, so only the consistent branch
        // can be asserted without racing other tests on env state.
        if smoke() {
            assert_eq!(sized(100, 5), 5);
        } else {
            assert_eq!(sized(100, 5), 100);
        }
    }
}
