//! Noise decomposition (§3.2): how a client's excessive noise splits into
//! `T + 1` additive components whose partial sums realize every possible
//! removal requirement.
//!
//! With `n = |U|` sampled clients, dropout tolerance `T`, and target
//! central level `σ²∗`, a client adds components with variances
//!
//! - `k = 0`:       `σ²∗ / n`
//! - `k = 1..=T`:   `σ²∗ / ((n - k + 1)(n - k))`
//!
//! (each multiplied by the collusion inflation factor `t / (t - T_C)` when
//! a nonzero collusion tolerance is configured, §3.3). The telescoping
//! identity `Σ_k σ²_k = σ²∗ / (n - T)` and the removal identity of
//! Theorem 1 are verified in the tests.

use crate::XNoiseError;

/// Static parameters of the XNoise scheme for one round.
///
/// # Examples
///
/// The paper's Figure 4: 4 clients, tolerance 2, target variance 1 —
/// components 1/4, 1/12, 1/6, and the residual is exactly 1 for every
/// dropout outcome within tolerance.
///
/// ```
/// use dordis_xnoise::decomposition::XNoisePlan;
///
/// let plan = XNoisePlan::new(1.0, 4, 2, 0, 3).unwrap();
/// assert!((plan.component_variance(0) - 1.0 / 4.0).abs() < 1e-12);
/// assert!((plan.component_variance(1) - 1.0 / 12.0).abs() < 1e-12);
/// assert!((plan.component_variance(2) - 1.0 / 6.0).abs() < 1e-12);
/// for dropped in 0..=2 {
///     assert!((plan.residual_variance(dropped).unwrap() - 1.0).abs() < 1e-9);
/// }
/// ```
#[derive(Clone, Copy, Debug)]
pub struct XNoisePlan {
    /// Target central noise variance `σ²∗` (in the units of the encoded
    /// update domain — integer units for DSkellam).
    pub target_variance: f64,
    /// Number of sampled clients `|U|`.
    pub clients: usize,
    /// Dropout tolerance `T` (`0 ≤ T < |U|`).
    pub dropout_tolerance: usize,
    /// Collusion tolerance `T_C` (`0` disables inflation).
    pub collusion_tolerance: usize,
    /// SecAgg threshold `t` (used only in the inflation factor).
    pub threshold: usize,
}

impl XNoisePlan {
    /// Creates and validates a plan.
    ///
    /// # Errors
    ///
    /// Rejects `T ≥ |U|`, `T_C ≥ t`, and non-positive variances.
    pub fn new(
        target_variance: f64,
        clients: usize,
        dropout_tolerance: usize,
        collusion_tolerance: usize,
        threshold: usize,
    ) -> Result<Self, XNoiseError> {
        if !(target_variance > 0.0) {
            return Err(XNoiseError::BadParameter(
                "target variance must be positive".into(),
            ));
        }
        if clients == 0 {
            return Err(XNoiseError::BadParameter("need at least one client".into()));
        }
        if dropout_tolerance >= clients {
            return Err(XNoiseError::BadParameter(format!(
                "dropout tolerance {dropout_tolerance} must be < clients {clients}"
            )));
        }
        if threshold == 0 || threshold > clients {
            return Err(XNoiseError::BadParameter("threshold out of range".into()));
        }
        if collusion_tolerance >= threshold {
            return Err(XNoiseError::BadParameter(format!(
                "collusion tolerance {collusion_tolerance} must be < threshold {threshold}"
            )));
        }
        Ok(XNoisePlan {
            target_variance,
            clients,
            dropout_tolerance,
            collusion_tolerance,
            threshold,
        })
    }

    /// The collusion inflation factor `t / (t - T_C)` (§3.3); 1 when no
    /// collusion is tolerated.
    #[must_use]
    pub fn inflation(&self) -> f64 {
        self.threshold as f64 / (self.threshold - self.collusion_tolerance) as f64
    }

    /// Variance of noise component `k ∈ 0..=T` for one client.
    ///
    /// # Panics
    ///
    /// Panics if `k > T`.
    #[must_use]
    pub fn component_variance(&self, k: usize) -> f64 {
        assert!(k <= self.dropout_tolerance, "component index out of range");
        let n = self.clients as f64;
        let base = if k == 0 {
            self.target_variance / n
        } else {
            let kf = k as f64;
            self.target_variance / ((n - kf + 1.0) * (n - kf))
        };
        base * self.inflation()
    }

    /// Total per-client noise level `σ²∗ / (n - T)` (times inflation).
    #[must_use]
    pub fn per_client_variance(&self) -> f64 {
        self.target_variance / (self.clients - self.dropout_tolerance) as f64 * self.inflation()
    }

    /// Component indices each *survivor* must have removed when `dropped`
    /// clients dropped: `k ∈ |D|+1 ..= T` (may be empty).
    ///
    /// # Errors
    ///
    /// Fails when `dropped > T`.
    pub fn removal_components(
        &self,
        dropped: usize,
    ) -> Result<std::ops::RangeInclusive<usize>, XNoiseError> {
        if dropped > self.dropout_tolerance {
            return Err(XNoiseError::ToleranceExceeded {
                dropped,
                tolerance: self.dropout_tolerance,
            });
        }
        Ok((dropped + 1)..=self.dropout_tolerance)
    }

    /// The residual aggregate variance after faithful removal with
    /// `dropped` dropouts — Theorem 1 says this is exactly `σ²∗` (times
    /// inflation) for every `dropped ≤ T`.
    ///
    /// # Errors
    ///
    /// Fails when `dropped > T`.
    pub fn residual_variance(&self, dropped: usize) -> Result<f64, XNoiseError> {
        let survivors = self.clients - dropped;
        let added = survivors as f64 * self.per_client_variance();
        let removed_per_survivor: f64 = self
            .removal_components(dropped)?
            .map(|k| self.component_variance(k))
            .sum();
        Ok(added - survivors as f64 * removed_per_survivor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn plan(n: usize, t_drop: usize) -> XNoisePlan {
        XNoisePlan::new(1.0, n, t_drop, 0, n.div_ceil(2) + 1).unwrap()
    }

    #[test]
    fn paper_example_figure4() {
        // |U| = 4, T = 2, σ²∗ = 1: components 1/4, 1/12, 1/6, per-client
        // total 1/2 (Figure 4a).
        let p = plan(4, 2);
        assert!((p.component_variance(0) - 1.0 / 4.0).abs() < 1e-12);
        assert!((p.component_variance(1) - 1.0 / 12.0).abs() < 1e-12);
        assert!((p.component_variance(2) - 1.0 / 6.0).abs() < 1e-12);
        assert!((p.per_client_variance() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn components_sum_to_per_client_level() {
        for (n, t) in [(4, 2), (10, 3), (16, 8), (100, 40), (7, 0)] {
            let p = plan(n, t);
            let sum: f64 = (0..=t).map(|k| p.component_variance(k)).sum();
            assert!(
                (sum - p.per_client_variance()).abs() < 1e-9,
                "n={n} t={t}: {sum} vs {}",
                p.per_client_variance()
            );
        }
    }

    #[test]
    fn theorem1_residual_is_exact_target() {
        // For every dropout count within tolerance, the residual variance
        // equals σ²∗.
        for (n, t) in [(4usize, 2usize), (16, 5), (100, 30)] {
            let p = plan(n, t);
            for d in 0..=t {
                let residual = p.residual_variance(d).unwrap();
                assert!(
                    (residual - 1.0).abs() < 1e-9,
                    "n={n} T={t} |D|={d}: residual {residual}"
                );
            }
        }
    }

    #[test]
    fn excess_matches_equation_1() {
        // What the server removes, components |D|+1..=T of every one of
        // the n - |D| survivors, is Equation 1's excess level
        // (T - |D|) / (n - T) · σ²∗.
        let p = plan(16, 5);
        for d in 0..=5usize {
            let per_survivor: f64 = p
                .removal_components(d)
                .unwrap()
                .map(|k| p.component_variance(k))
                .sum();
            let removed = (16 - d) as f64 * per_survivor;
            let expect = (5 - d) as f64 / (16.0 - 5.0);
            assert!((removed - expect).abs() < 1e-12, "d={d}");
        }
        // Zero excess at full-tolerance dropout.
        assert!(p.removal_components(5).unwrap().is_empty());
    }

    #[test]
    fn removal_range_shrinks_with_dropout() {
        let p = plan(8, 3);
        assert_eq!(p.removal_components(0).unwrap(), 1..=3);
        assert_eq!(p.removal_components(2).unwrap(), 3..=3);
        assert!(p.removal_components(3).unwrap().is_empty());
        assert!(matches!(
            p.removal_components(4),
            Err(XNoiseError::ToleranceExceeded { .. })
        ));
    }

    #[test]
    fn collusion_inflation() {
        // t = 10, T_C = 2 => inflation 10/8 = 1.25.
        let p = XNoisePlan::new(1.0, 16, 4, 2, 10).unwrap();
        assert!((p.inflation() - 1.25).abs() < 1e-12);
        // Residual after removal is σ²∗ times inflation (the paper's
        // "noise inflation factor" — privacy never drops below target).
        let residual = p.residual_variance(1).unwrap();
        assert!((residual - 1.25).abs() < 1e-9);
    }

    #[test]
    fn zero_tolerance_means_orig_behaviour() {
        let p = plan(10, 0);
        assert!((p.component_variance(0) - p.per_client_variance()).abs() < 1e-12);
        assert!((p.per_client_variance() - 0.1).abs() < 1e-12);
        assert!(p.removal_components(0).unwrap().is_empty());
    }

    #[test]
    fn invalid_plans_rejected() {
        assert!(XNoisePlan::new(0.0, 4, 2, 0, 3).is_err());
        assert!(XNoisePlan::new(1.0, 0, 0, 0, 1).is_err());
        assert!(XNoisePlan::new(1.0, 4, 4, 0, 3).is_err());
        assert!(XNoisePlan::new(1.0, 4, 2, 3, 3).is_err()); // T_C >= t.
        assert!(XNoisePlan::new(1.0, 4, 2, 0, 5).is_err()); // t > n.
    }

    proptest! {
        #[test]
        fn prop_theorem1_holds(
            n in 2usize..60,
            t_frac in 0.0f64..0.9,
            d_frac in 0.0f64..1.0,
            sigma in 0.1f64..100.0,
        ) {
            let t = ((n as f64 - 1.0) * t_frac) as usize;
            let d = (t as f64 * d_frac) as usize;
            let p = XNoisePlan::new(sigma, n, t, 0, n.div_ceil(2) + 1).unwrap();
            let residual = p.residual_variance(d).unwrap();
            prop_assert!((residual - sigma).abs() < 1e-6 * sigma.max(1.0));
        }

        #[test]
        fn prop_component_variances_positive(n in 2usize..100, t_frac in 0.0f64..0.95) {
            let t = ((n as f64 - 1.0) * t_frac) as usize;
            let p = XNoisePlan::new(2.5, n, t, 0, n.div_ceil(2) + 1).unwrap();
            for k in 0..=t {
                prop_assert!(p.component_variance(k) > 0.0);
            }
        }
    }
}
