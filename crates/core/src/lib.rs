//! Dordis: efficient federated learning with dropout-resilient
//! distributed differential privacy.
//!
//! This is the top-level crate of the Dordis reproduction (EuroSys '24).
//! It wires the substrates together into the workflow of the paper's
//! Figure 7:
//!
//! 1. client sampling and local training ([`dordis_fl`]),
//! 2. DP encoding ([`dordis_dp::encoding`]) and XNoise perturbation
//!    ([`dordis_xnoise`]),
//! 3. secure aggregation ([`dordis_secagg`]), cut into the chunks of a
//!    [`dordis_secagg::ChunkPlan`],
//! 4. server-side unmasking, excessive-noise removal, decoding, and
//!    FedAvg model refinement, with privacy accounted by
//!    [`dordis_dp::ledger`].
//!
//! Multi-round training has one round loop, in [`session`], driven over
//! three engines. The one in-memory single round is
//! [`dordis_secagg::driver::run_round`], the reference the networked
//! engine is pinned bit-equal to.
//!
//! - [`trainer`]: [`trainer::train`], the loop over the *plain* engine
//!   used for utility/privacy experiments (Figures 1, 8, 9, Table 2) —
//!   the exact DP-relevant vector math (encode, perturb, modular-sum,
//!   remove, decode) without paying for masking crypto, which cancels
//!   out anyway.
//! - [`session`]: the same loop over the full protocol, in memory or
//!   over `dordis-net` with per-round VRF cohort sampling.
//! - [`dropout`]: the per-round dropout models a task config names.
//!
//! The paper's cost model and chunk-count planner (Figures 2 and 10,
//! Appendix C) are `dordis_pipeline`; the CLI reads its
//! `planned_chunk_count` for the default `--chunks`.
//!
//! # Examples
//!
//! ```
//! use dordis_core::config::{TaskSpec, Variant};
//! use dordis_core::trainer::train;
//!
//! let mut spec = TaskSpec::tiny_for_tests(42);
//! spec.variant = Variant::XNoise {
//!     tolerance_frac: 0.5,
//!     collusion_frac: 0.0,
//! };
//! let report = train(&spec).unwrap();
//! assert!(report.epsilon_consumed <= spec.privacy.epsilon + 1e-6);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod dropout;
pub mod sampling;
pub mod session;
pub mod trainer;

/// Errors surfaced by the end-to-end framework.
#[derive(Debug)]
pub enum DordisError {
    /// Privacy planning failed.
    Dp(dordis_dp::DpError),
    /// XNoise enforcement failed.
    XNoise(dordis_xnoise::XNoiseError),
    /// Secure aggregation failed.
    SecAgg(dordis_secagg::SecAggError),
    /// A networked session failed: transport, protocol abort, or an
    /// injected coordinator kill (`FaultPlan::is_injected`).
    Net(dordis_net::NetError),
    /// Bad experiment configuration.
    Config(String),
}

impl core::fmt::Display for DordisError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            DordisError::Dp(e) => write!(f, "dp: {e}"),
            DordisError::XNoise(e) => write!(f, "xnoise: {e}"),
            DordisError::SecAgg(e) => write!(f, "secagg: {e}"),
            DordisError::Net(e) => write!(f, "net: {e}"),
            DordisError::Config(why) => write!(f, "config: {why}"),
        }
    }
}

impl std::error::Error for DordisError {}

impl From<dordis_dp::DpError> for DordisError {
    fn from(e: dordis_dp::DpError) -> Self {
        DordisError::Dp(e)
    }
}

impl From<dordis_xnoise::XNoiseError> for DordisError {
    fn from(e: dordis_xnoise::XNoiseError) -> Self {
        DordisError::XNoise(e)
    }
}

impl From<dordis_secagg::SecAggError> for DordisError {
    fn from(e: dordis_secagg::SecAggError) -> Self {
        DordisError::SecAgg(e)
    }
}
