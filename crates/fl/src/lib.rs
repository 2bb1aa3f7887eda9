//! Federated-learning substrate for Dordis.
//!
//! The paper evaluates Dordis on CIFAR-10/100, FEMNIST, and Reddit with
//! PyTorch models. This crate provides the equivalent machinery from
//! scratch so the reproduction is self-contained:
//!
//! - [`tensor`]: dense vector math used by models and aggregation,
//! - [`model`]: linear and MLP classifiers with manual backprop,
//! - [`optim`]: mini-batch SGD with momentum and AdamW,
//! - [`data`]: synthetic classification/LM datasets with Dirichlet
//!   (LDA-style) non-IID partitioning, standing in for the real datasets,
//! - [`fedavg`]: local training, update clipping, and FedAvg aggregation,
//! - [`eval`]: accuracy and perplexity.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod data;
pub mod eval;
pub mod fedavg;
pub mod model;
pub mod optim;
pub mod tensor;
