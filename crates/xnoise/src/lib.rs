//! XNoise: dropout-resilient 'add-then-remove' noise enforcement (§3 of
//! the Dordis paper).
//!
//! The problem: with `Orig`-style distributed DP, each of the `|U|`
//! sampled clients adds a `1/|U|` share of the target noise `σ²∗`; clients
//! that drop take their shares with them and the released aggregate is
//! under-noised, silently over-spending the privacy budget (paper §2.3.1).
//!
//! XNoise inverts the failure mode:
//!
//! 1. **Add**: every client adds an *excessive* noise of level
//!    `σ²∗ / (|U| - T)`, decomposed into `T + 1` additive components
//!    ([`decomposition`]), each generated from its own seed.
//! 2. **Remove**: after aggregation, the server learns the actual dropout
//!    `|D| ≤ T` and removes the components with index `k > |D|` from every
//!    surviving client — by regenerating them from seeds revealed directly
//!    or reconstructed from Shamir shares ([`enforcement`]).
//!
//! The residual noise is exactly `σ²∗` for *any* dropout outcome within
//! tolerance (Theorem 1; tested here both algebraically and
//! statistically).
//!
//! The 'rebasing' alternative of Baek et al. (§3.1) — each survivor
//! ships a whole model-sized noise adjustment — appears only in the
//! network-footprint model that compares it with XNoise ([`footprint`],
//! Table 3).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod decomposition;
pub mod enforcement;
pub mod footprint;

/// Errors from noise enforcement.
#[derive(Debug, Clone, PartialEq)]
pub enum XNoiseError {
    /// More clients dropped than the configured tolerance.
    ToleranceExceeded {
        /// Observed dropouts.
        dropped: usize,
        /// Configured tolerance `T`.
        tolerance: usize,
    },
    /// A parameter was outside its valid domain.
    BadParameter(String),
    /// A required removal seed is missing (protocol violated).
    MissingSeed {
        /// Seed owner.
        client: u32,
        /// Component index.
        component: usize,
    },
}

impl core::fmt::Display for XNoiseError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            XNoiseError::ToleranceExceeded { dropped, tolerance } => {
                write!(f, "{dropped} dropouts exceed tolerance T={tolerance}")
            }
            XNoiseError::BadParameter(why) => write!(f, "bad parameter: {why}"),
            XNoiseError::MissingSeed { client, component } => {
                write!(
                    f,
                    "missing removal seed: client {client} component {component}"
                )
            }
        }
    }
}

impl std::error::Error for XNoiseError {}
