//! The per-stage latency model `τ_s(m) = β₁ · d/m + β₂ · m + β₃` (§4.2)
//! and its least-squares profiler.
//!
//! `β₁` weighs partition size (work proportional to chunk length), `β₂`
//! the inter-task intervention (FL clients are not isolated: deeper
//! pipelines steal cycles from each other), and `β₃` the constant cost
//! (RTTs, key setup). The profiler fits the three coefficients from
//! `(m, observed τ)` samples by solving the 3×3 normal equations.

/// A fitted per-stage model.
#[derive(Clone, Copy, Debug)]
pub struct StageModel {
    /// Work coefficient (seconds per element · elements-of-d).
    pub beta1: f64,
    /// Intervention coefficient (seconds per chunk of depth).
    pub beta2: f64,
    /// Constant cost (seconds).
    pub beta3: f64,
    /// Total data size `d` the model was fitted at.
    pub d: f64,
}

impl StageModel {
    /// Predicted stage latency at chunk count `m`.
    #[must_use]
    pub(crate) fn predict(&self, m: usize) -> f64 {
        self.beta1 * self.d / m as f64 + self.beta2 * m as f64 + self.beta3
    }
}

/// One profiling observation: chunk count and measured latency.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Sample {
    /// Chunk count `m` of the observation.
    pub m: usize,
    /// Measured per-chunk stage latency in seconds.
    pub tau: f64,
}

/// Fits `τ(m) = β₁ d/m + β₂ m + β₃` by ordinary least squares.
///
/// Needs at least three samples at distinct `m`; coefficients are
/// clamped at zero (negative work/intervention is unphysical and only
/// arises from noise).
///
/// # Panics
///
/// Panics if fewer than 3 samples or fewer than 3 distinct `m` values
/// are supplied.
#[must_use]
pub(crate) fn fit(samples: &[Sample], d: f64) -> StageModel {
    assert!(samples.len() >= 3, "need at least 3 profiling samples");
    {
        let mut ms: Vec<usize> = samples.iter().map(|s| s.m).collect();
        ms.sort_unstable();
        ms.dedup();
        assert!(ms.len() >= 3, "need 3 distinct chunk counts");
    }
    // Features x = [d/m, m, 1]; solve (XᵀX) β = Xᵀy.
    let mut xtx = [[0.0f64; 3]; 3];
    let mut xty = [0.0f64; 3];
    for s in samples {
        let x = [d / s.m as f64, s.m as f64, 1.0];
        for i in 0..3 {
            for j in 0..3 {
                xtx[i][j] += x[i] * x[j];
            }
            xty[i] += x[i] * s.tau;
        }
    }
    let beta = solve3(xtx, xty);
    StageModel {
        beta1: beta[0].max(0.0),
        beta2: beta[1].max(0.0),
        beta3: beta[2].max(0.0),
        d,
    }
}

/// Solves a 3×3 linear system by Gaussian elimination with partial
/// pivoting.
fn solve3(mut a: [[f64; 3]; 3], mut b: [f64; 3]) -> [f64; 3] {
    for col in 0..3 {
        // Pivot.
        let mut pivot = col;
        for row in (col + 1)..3 {
            if a[row][col].abs() > a[pivot][col].abs() {
                pivot = row;
            }
        }
        a.swap(col, pivot);
        b.swap(col, pivot);
        let diag = a[col][col];
        if diag.abs() < 1e-30 {
            continue; // Degenerate; leave as-is (caller clamps).
        }
        for row in 0..3 {
            if row == col {
                continue;
            }
            let factor = a[row][col] / diag;
            for k in 0..3 {
                a[row][k] -= factor * a[col][k];
            }
            b[row] -= factor * b[col];
        }
    }
    let mut x = [0.0f64; 3];
    for i in 0..3 {
        x[i] = if a[i][i].abs() < 1e-30 {
            0.0
        } else {
            b[i] / a[i][i]
        };
    }
    x
}

/// Generates profiling samples for a stage from a ground-truth latency
/// function (e.g. the simulator's cost model) over a chunk-count sweep,
/// optionally with multiplicative noise — the paper's "offline
/// micro-benchmarking with small-scale proxy data".
#[must_use]
pub(crate) fn profile<F>(tau_at: F, ms: &[usize], noise: f64, seed: u64) -> Vec<Sample>
where
    F: Fn(usize) -> f64,
{
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    ms.iter()
        .map(|&m| {
            let factor = 1.0 + noise * (rng.gen::<f64>() * 2.0 - 1.0);
            Sample {
                m,
                tau: tau_at(m) * factor.max(0.0),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_recovery_without_noise() {
        let d = 1e6;
        let truth = StageModel {
            beta1: 3e-6,
            beta2: 0.4,
            beta3: 1.5,
            d,
        };
        let samples: Vec<Sample> = (1..=10)
            .map(|m| Sample {
                m,
                tau: truth.predict(m),
            })
            .collect();
        let fitted = fit(&samples, d);
        assert!((fitted.beta1 - truth.beta1).abs() / truth.beta1 < 1e-6);
        assert!((fitted.beta2 - truth.beta2).abs() / truth.beta2 < 1e-6);
        assert!((fitted.beta3 - truth.beta3).abs() / truth.beta3 < 1e-6);
    }

    #[test]
    fn noisy_recovery_is_close() {
        let d = 1e7;
        let truth = StageModel {
            beta1: 1e-6,
            beta2: 0.8,
            beta3: 2.0,
            d,
        };
        let samples = profile(|m| truth.predict(m), &(1..=20).collect::<Vec<_>>(), 0.05, 7);
        let fitted = fit(&samples, d);
        for m in [1usize, 4, 8, 16] {
            let rel = (fitted.predict(m) - truth.predict(m)).abs() / truth.predict(m);
            assert!(rel < 0.15, "m={m} rel err {rel}");
        }
    }

    #[test]
    fn predict_shape() {
        let model = StageModel {
            beta1: 1e-6,
            beta2: 0.5,
            beta3: 1.0,
            d: 1e7,
        };
        // Work term dominates at m=1; intervention dominates at large m —
        // so τ(m) is U-shaped.
        let t1 = model.predict(1);
        let t4 = model.predict(4);
        let t40 = model.predict(40);
        assert!(t4 < t1);
        assert!(t40 > t4);
    }

    #[test]
    fn negative_coefficients_clamped() {
        // Strongly decreasing samples would fit β₂ < 0; we clamp to 0.
        let samples = vec![
            Sample { m: 1, tau: 10.0 },
            Sample { m: 2, tau: 5.0 },
            Sample { m: 4, tau: 2.4 },
            Sample { m: 8, tau: 1.1 },
        ];
        let fitted = fit(&samples, 1e6);
        assert!(fitted.beta2 >= 0.0);
        assert!(fitted.beta1 >= 0.0);
    }

    #[test]
    #[should_panic(expected = "3 distinct")]
    fn duplicate_m_rejected() {
        let samples = vec![
            Sample { m: 2, tau: 1.0 },
            Sample { m: 2, tau: 1.1 },
            Sample { m: 2, tau: 0.9 },
        ];
        let _ = fit(&samples, 1e6);
    }

    #[test]
    fn solve3_known_system() {
        // x + y + z = 6; 2y + 5z = -4; 2x + 5y - z = 27 → (5, 3, -2).
        let a = [[1.0, 1.0, 1.0], [0.0, 2.0, 5.0], [2.0, 5.0, -1.0]];
        let b = [6.0, -4.0, 27.0];
        let x = solve3(a, b);
        assert!((x[0] - 5.0).abs() < 1e-9);
        assert!((x[1] - 3.0).abs() < 1e-9);
        assert!((x[2] + 2.0).abs() < 1e-9);
    }
}
