//! RDP composition accountant.
//!
//! Accumulates per-round RDP at a fixed grid of orders and converts to
//! `(ε, δ)` on demand. Supports the two mechanisms Dordis deploys:
//! subsampled Gaussian and subsampled Skellam (DSkellam).

use serde::{Deserialize, Serialize};

use crate::rdp::{self, DEFAULT_ORDERS};

/// Which distributed-DP mechanism is being accounted for.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum Mechanism {
    /// Continuous Gaussian noise (used by DDGauss-style deployments).
    Gaussian,
    /// Symmetric Skellam noise on the discretized update (DSkellam).
    ///
    /// `l1_per_l2` bounds Δ₁/Δ₂ for the encoded updates (after Hadamard
    /// flattening, coordinates are balanced so Δ₁ ≈ √d·Δ₂ in the worst
    /// case; the encoder reports the value it guarantees).
    Skellam {
        /// Ratio of L1 to L2 sensitivity of the encoded update.
        l1_per_l2: f64,
    },
}

/// Composes per-round RDP costs across a training run.
///
/// Serializable so a coordinator checkpoint can carry the exact
/// accountant state across a failover: the restored accountant composes
/// bit-identically to the original (the RDP accumulator is a plain
/// `Vec<f64>` and JSON floats round-trip exactly through the shortest
/// round-trip `Display` form).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RdpAccountant {
    orders: Vec<f64>,
    accum: Vec<f64>,
    steps: u32,
}

impl Default for RdpAccountant {
    fn default() -> Self {
        Self::new()
    }
}

impl RdpAccountant {
    /// Creates an accountant over the default order grid.
    #[must_use]
    pub fn new() -> Self {
        Self::with_orders(DEFAULT_ORDERS.to_vec())
    }

    /// Creates an accountant over a custom order grid (all orders > 1).
    #[must_use]
    fn with_orders(orders: Vec<f64>) -> Self {
        assert!(orders.iter().all(|&a| a > 1.0));
        let n = orders.len();
        RdpAccountant {
            orders,
            accum: vec![0.0; n],
            steps: 0,
        }
    }

    /// Records one round of the given mechanism.
    ///
    /// `q` is the client-sampling probability, `noise_multiplier` the
    /// *central* noise multiplier actually achieved this round
    /// (`σ_central / Δ₂`). For Skellam, the discreteness penalty uses the
    /// scaled sensitivities implied by the multiplier.
    pub fn record_round(&mut self, mechanism: Mechanism, q: f64, noise_multiplier: f64) {
        for (i, &alpha) in self.orders.iter().enumerate() {
            let base = rdp::subsampled_gaussian_rdp(alpha.round() as u64, q, noise_multiplier);
            let cost = match mechanism {
                Mechanism::Gaussian => base,
                Mechanism::Skellam { l1_per_l2 } => {
                    // Gaussian part via subsampling; discreteness penalty
                    // (Agarwal et al.) added un-amplified — conservative.
                    // With Δ₂ normalized to 1, μ = z²/2 and Δ₁ = l1_per_l2.
                    let mu = noise_multiplier * noise_multiplier / 2.0;
                    let penalty = if mu > 0.0 {
                        let c1 = (2.0 * alpha - 1.0) + 6.0 * l1_per_l2;
                        let c2 = 3.0 * l1_per_l2;
                        c1.min(c2) / (4.0 * mu * mu)
                    } else {
                        f64::INFINITY
                    };
                    base + penalty
                }
            };
            self.accum[i] += cost;
        }
        self.steps += 1;
    }

    /// Current `(ε, δ)` guarantee for a given `δ`.
    #[must_use]
    pub fn epsilon(&self, delta: f64) -> f64 {
        if self.steps == 0 {
            return 0.0;
        }
        rdp::rdp_to_epsilon(&self.orders, &self.accum, delta)
    }

    /// The hypothetical ε after composing `rounds` identical rounds of the
    /// given mechanism (without mutating the accountant).
    #[must_use]
    pub fn project(
        mechanism: Mechanism,
        q: f64,
        noise_multiplier: f64,
        rounds: u32,
        delta: f64,
    ) -> f64 {
        let mut acct = RdpAccountant::new();
        acct.record_round(mechanism, q, noise_multiplier);
        let curve: Vec<f64> = acct.accum.iter().map(|e| e * rounds as f64).collect();
        rdp::rdp_to_epsilon(&acct.orders, &curve, delta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_accountant_spends_nothing() {
        let acct = RdpAccountant::new();
        assert_eq!(acct.epsilon(1e-5), 0.0);
    }

    #[test]
    fn epsilon_grows_with_rounds() {
        let mut acct = RdpAccountant::new();
        let mut prev = 0.0;
        for _ in 0..5 {
            acct.record_round(Mechanism::Gaussian, 0.1, 1.0);
            let eps = acct.epsilon(1e-5);
            assert!(eps > prev);
            prev = eps;
        }
    }

    #[test]
    fn project_matches_loop() {
        let mut acct = RdpAccountant::new();
        for _ in 0..20 {
            acct.record_round(Mechanism::Gaussian, 0.16, 0.8);
        }
        let looped = acct.epsilon(1e-2);
        let projected = RdpAccountant::project(Mechanism::Gaussian, 0.16, 0.8, 20, 1e-2);
        assert!((looped - projected).abs() < 1e-9);
    }

    #[test]
    fn lower_noise_costs_more() {
        let hi = RdpAccountant::project(Mechanism::Gaussian, 0.1, 2.0, 100, 1e-5);
        let lo = RdpAccountant::project(Mechanism::Gaussian, 0.1, 1.0, 100, 1e-5);
        assert!(lo > hi);
    }

    #[test]
    fn skellam_costs_at_least_gaussian() {
        let g = RdpAccountant::project(Mechanism::Gaussian, 0.1, 1.0, 50, 1e-5);
        let s = RdpAccountant::project(Mechanism::Skellam { l1_per_l2: 30.0 }, 0.1, 1.0, 50, 1e-5);
        assert!(s >= g);
        // ...but the gap shrinks with larger noise.
        let g_big = RdpAccountant::project(Mechanism::Gaussian, 0.1, 40.0, 50, 1e-5);
        let s_big =
            RdpAccountant::project(Mechanism::Skellam { l1_per_l2: 30.0 }, 0.1, 40.0, 50, 1e-5);
        assert!((s_big - g_big) < (s - g));
    }

    #[test]
    fn steps_counted() {
        let mut acct = RdpAccountant::new();
        acct.record_round(Mechanism::Gaussian, 0.5, 1.0);
        acct.record_round(Mechanism::Gaussian, 0.5, 1.0);
        assert_eq!(acct.steps, 2);
    }
}
