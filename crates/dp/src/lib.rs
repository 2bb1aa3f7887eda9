//! Differential-privacy machinery for Dordis.
//!
//! Distributed DP in Dordis (paper §2.2) works in two phases:
//!
//! 1. **Offline noise planning** ([`planner`]): given a global privacy
//!    budget `(ε_G, δ_G)`, a round count, and per-round client sampling,
//!    compute the *minimum* central noise variance `σ²∗` each round's
//!    aggregate must carry so that the whole training run exactly exhausts
//!    the budget.
//! 2. **Online noise enforcement** ([`ledger`]): during training, account
//!    for the noise that each aggregate *actually* carried. With the
//!    baseline `Orig` scheme, client dropout removes noise shares and the
//!    realized ε exceeds the budget (Figures 1 and 8 of the paper); with
//!    XNoise the ledger stays exactly on budget.
//!
//! Accounting is done in Rényi-DP space ([`rdp`]) and converted to
//! `(ε, δ)`. The mechanism layer provides the Skellam sampler and the
//! full DSkellam client encoding pipeline ([`encoding`]): L2 clipping,
//! randomized Hadamard flattening, conditional randomized rounding, and
//! modular arithmetic in `Z_{2^b}` compatible with secure aggregation.
//!
//! The sampler's table draws are XNoise's runtime cost (every client
//! draws `T + 1` components, the server redraws the removable ones).
//! `skellam_avx512` (x86-64 only) draws them eight lanes at a time with
//! AVX-512F gathers where the CPU has it, bit-equal to the scalar draw
//! it falls back to and is tested against ([`mechanism`]). `unsafe` is
//! denied crate-wide and allowed on that one kernel module.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod accountant;
pub mod encoding;
pub mod ledger;
mod math;
pub mod mechanism;
pub mod planner;
pub mod rdp;
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod skellam_avx512;

/// Errors produced by DP planning and encoding.
#[derive(Debug, Clone, PartialEq)]
pub enum DpError {
    /// The requested privacy budget cannot be met with any finite noise.
    InfeasibleBudget(String),
    /// A parameter was outside its valid domain.
    BadParameter(&'static str),
    /// Encoding failed (e.g. vector norm overflowed the modular range).
    Encoding(&'static str),
}

impl core::fmt::Display for DpError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            DpError::InfeasibleBudget(why) => write!(f, "infeasible privacy budget: {why}"),
            DpError::BadParameter(what) => write!(f, "bad parameter: {what}"),
            DpError::Encoding(what) => write!(f, "encoding error: {what}"),
        }
    }
}

impl std::error::Error for DpError {}
