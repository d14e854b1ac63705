//! # sarn-tensor
//!
//! A small, dependency-light deep-learning stack built for the Rust
//! reproduction of *SARN: Spatial Structure-Aware Road Network Embedding via
//! Graph Contrastive Learning* (EDBT 2023). The paper trains its models with
//! PyTorch on a GPU; this crate provides the equivalent substrate on the CPU:
//!
//! - [`Tensor`]: dense row-major `f32` matrices with the handful of BLAS-like
//!   kernels the models need;
//! - [`Graph`] / [`Var`]: a reverse-mode autograd tape with sparse
//!   graph-attention primitives (`gat_scores`, `segment_softmax`,
//!   `segment_weighted_sum`),
//!   embedding lookups, and fused losses (cross-entropy, MSE, InfoNCE);
//! - [`ParamStore`]: out-of-tape parameter storage supporting the MoCo
//!   momentum-encoder pattern ([`ParamStore::momentum_update_from`], Eq. 12);
//! - [`layers`]: `Linear`, `Ffn`, sparse multi-head `GatLayer`/`GatEncoder`,
//!   and `Gru`;
//! - [`optim`]: Adam, cosine-annealing schedule, and early stopping;
//! - [`grad_check`]: finite-difference validation used across the test suite.
//!
//! ## Example
//!
//! ```
//! use sarn_tensor::{Graph, ParamStore, Tensor};
//! use sarn_tensor::layers::{Activation, Ffn};
//! use sarn_tensor::optim::Adam;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut store = ParamStore::new();
//! let mut rng = StdRng::seed_from_u64(0);
//! let net = Ffn::new(&mut store, &mut rng, "net", &[2, 8, 1], Activation::Relu);
//! let mut opt = Adam::new(0.01);
//! let x = Tensor::from_vec(4, 2, vec![0., 0., 0., 1., 1., 0., 1., 1.]);
//! let y = Tensor::col(&[0., 1., 1., 0.]);
//! for _ in 0..10 {
//!     store.zero_grads();
//!     let g = Graph::new();
//!     let input = g.input(x.clone());
//!     let pred = net.forward(&g, &store, input);
//!     let loss = g.mse(pred, &y);
//!     g.backward(loss);
//!     g.accumulate_grads(&mut store);
//!     opt.step(&mut store);
//! }
//! ```

#![warn(missing_docs)]

mod autograd;
pub mod grad_check;
pub mod init;
pub mod io;
pub mod kernels;
pub mod layers;
pub mod optim;
mod params;
mod tensor;

pub use autograd::{Graph, Var};
pub use io::{IoError, TensorExpectation};
pub use params::{ParamId, ParamStore};
pub use tensor::Tensor;
