//! Models and optimizer for the Hop reproduction.
//!
//! The paper evaluates two tasks: a CNN (VGG11 on CIFAR-10) and an SVM
//! with log loss (webspam). This crate implements laptop-scale versions of
//! both, operating on a *flat* `f32` parameter vector — the representation
//! exchanged between workers by the decentralized protocols:
//!
//! * [`svm::Svm`] — linear model with log loss (as §7.2 specifies),
//!   supporting sparse features.
//! * [`cnn::TinyCnn`] — conv3×3 → ReLU → 2×2 avg-pool → FC softmax; the
//!   "CNN" workload.
//! * [`optimizer::Sgd`] — SGD with momentum and weight decay (momentum
//!   0.9, as the paper's hyperparameter setup); its
//!   [`step_onto`](optimizer::Sgd::step_onto) hands the step to the
//!   Reduce sweep of Fig. 2(b)'s parallel order.
//! * [`model::Gradient`] — a gradient buffer that records its support
//!   when the gradient is sparse, which [`Model::loss_grad_into`] writes:
//!   the SVM's 32-row batches touch ~1 000 of 64K weights, and re-zero and
//!   scale only those.
//! * [`optimizer::QgmState`] — Quasi-Global Momentum (Lin et al.): a
//!   momentum buffer tracking the locally-estimated global parameter
//!   difference, applied around each gossip Reduce.
//!
//! All gradients are verified against finite differences in the test
//! suites.
//!
//! # Examples
//!
//! ```
//! use hop_data::{BatchSampler, Dataset};
//! use hop_data::webspam::SyntheticWebspam;
//! use hop_model::{GradScratch, Model, svm::Svm, optimizer::Sgd};
//! use hop_util::Xoshiro256;
//!
//! let data = SyntheticWebspam::generate(512, 0);
//! let model = Svm::log_loss(data.feature_dim());
//! let mut rng = Xoshiro256::seed_from_u64(1);
//! let mut params = model.init_params(&mut rng);
//! let mut grad = vec![0.0; params.len()];
//! let mut scratch = GradScratch::new();
//! let mut opt = Sgd::new(0.5, 0.9, 1e-7, params.len());
//! let mut sampler = BatchSampler::new(data.len(), 32, 2);
//!
//! let batch = sampler.next_batch(&data);
//! let first = model.loss_grad_with(&params, &batch, &mut grad, &mut scratch);
//! for _ in 0..50 {
//!     let b = sampler.next_batch(&data);
//!     model.loss_grad_with(&params, &b, &mut grad, &mut scratch);
//!     opt.step(&mut params, &grad);
//! }
//! let last = model.loss(&params, &sampler.next_batch(&data));
//! assert!(last < first);
//! ```

pub mod cnn;
pub mod loss;
pub mod model;
pub mod optimizer;
pub mod svm;

pub use model::{GradScratch, Gradient, Model};
pub use optimizer::{QgmState, Sgd};
