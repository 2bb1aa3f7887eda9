//! Rényi differential privacy (RDP) bounds for the mechanisms Dordis uses.
//!
//! All accounting happens at a fixed grid of Rényi orders and is converted
//! to `(ε, δ)` at the end. Three bounds are provided:
//!
//! - the Gaussian mechanism,
//! - the Poisson-subsampled Gaussian mechanism (Mironov–Talwar–Zhang '19,
//!   integer orders via the binomial expansion),
//! - the symmetric Skellam mechanism (Agarwal–Kairouz–Liu, NeurIPS '21),
//!   whose bound approaches the Gaussian one as the variance grows.

use crate::math::{ln_binomial, log_sum_exp};

/// The default grid of Rényi orders used by the accountant.
///
/// Integer orders (needed by the subsampled-Gaussian expansion) spanning
/// the range useful for ε in roughly [0.1, 20].
pub(crate) const DEFAULT_ORDERS: [f64; 20] = [
    2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 10.0, 12.0, 14.0, 16.0, 20.0, 24.0, 28.0, 32.0, 48.0, 64.0,
    96.0, 128.0, 256.0,
];

/// RDP of the Gaussian mechanism with noise multiplier `z = σ/Δ₂` at
/// order `α`: `ε(α) = α / (2 z²)`.
#[must_use]
fn gaussian_rdp(alpha: f64, noise_multiplier: f64) -> f64 {
    assert!(noise_multiplier > 0.0);
    alpha / (2.0 * noise_multiplier * noise_multiplier)
}

/// RDP of the Poisson-subsampled Gaussian mechanism at integer order `α`.
///
/// Implements the exact integer-order expansion of Mironov, Talwar and
/// Zhang, "Rényi Differential Privacy of the Sampled Gaussian Mechanism"
/// (2019), Sec. 3.3:
///
/// `ε(α) = (α-1)⁻¹ · ln Σ_{k=0}^{α} C(α,k) (1-q)^{α-k} q^k e^{k(k-1)/(2z²)}`
///
/// where `q` is the per-round sampling probability and `z` the noise
/// multiplier. For `q = 1` this reduces to the plain Gaussian bound (up to
/// the integer-order restriction).
#[must_use]
pub(crate) fn subsampled_gaussian_rdp(alpha: u64, q: f64, noise_multiplier: f64) -> f64 {
    assert!(alpha >= 2, "subsampled RDP needs α ≥ 2");
    assert!((0.0..=1.0).contains(&q), "q must be a probability");
    assert!(noise_multiplier > 0.0);
    if q == 0.0 {
        return 0.0;
    }
    if (q - 1.0).abs() < 1e-12 {
        return gaussian_rdp(alpha as f64, noise_multiplier);
    }
    let z2 = noise_multiplier * noise_multiplier;
    let log_q = q.ln();
    let log_1q = (1.0 - q).ln();
    let mut terms = Vec::with_capacity(alpha as usize + 1);
    for k in 0..=alpha {
        let kf = k as f64;
        let t = ln_binomial(alpha, k)
            + (alpha - k) as f64 * log_1q
            + kf * log_q
            + kf * (kf - 1.0) / (2.0 * z2);
        terms.push(t);
    }
    log_sum_exp(&terms) / (alpha as f64 - 1.0)
}

/// RDP of the symmetric Skellam mechanism at order `α`.
///
/// For per-coordinate noise `Skellam(μ, μ)` (variance `2μ`) applied to a
/// query with L2 sensitivity `Δ₂` and L1 sensitivity `Δ₁`, Agarwal,
/// Kairouz and Liu ("The Skellam Mechanism for Differentially Private
/// Federated Learning", NeurIPS 2021) bound
///
/// `ε(α) ≤ α Δ₂² / (4μ) + min( (2α-1) Δ₂² + 6 Δ₁, 3 Δ₁ ) / (4 μ²)`.
///
/// The first term matches the Gaussian mechanism with `σ² = 2μ`; the
/// second is the discreteness penalty, vanishing as `μ → ∞`.
#[must_use]
pub fn skellam_rdp(alpha: f64, delta2: f64, delta1: f64, mu: f64) -> f64 {
    assert!(mu > 0.0 && delta2 > 0.0 && delta1 > 0.0);
    let base = alpha * delta2 * delta2 / (4.0 * mu);
    base + skellam_penalty(alpha, delta2, delta1, mu)
}

/// The discreteness penalty of the Skellam bound at order `α`:
/// `min( (2α-1) Δ₂² + 6 Δ₁, 3 Δ₁ ) / (4 μ²)` (see [`skellam_rdp`]).
#[must_use]
pub(crate) fn skellam_penalty(alpha: f64, delta2: f64, delta1: f64, mu: f64) -> f64 {
    let c1 = (2.0 * alpha - 1.0) * delta2 * delta2 + 6.0 * delta1;
    let c2 = 3.0 * delta1;
    c1.min(c2) / (4.0 * mu * mu)
}

/// Converts an RDP curve to `(ε, δ)` using the improved conversion of
/// Balle, Barthe, Gaboardi, Hsu and Sato (2020):
///
/// `ε(δ) = min_α [ ε_RDP(α) + ln((α-1)/α) - (ln δ + ln α) / (α-1) ]`.
///
/// `curve` supplies `ε_RDP` at each order in `orders`.
#[must_use]
pub(crate) fn rdp_to_epsilon(orders: &[f64], curve: &[f64], delta: f64) -> f64 {
    assert_eq!(orders.len(), curve.len());
    assert!(delta > 0.0 && delta < 1.0);
    let mut best = f64::INFINITY;
    for (&alpha, &eps_rdp) in orders.iter().zip(curve.iter()) {
        if alpha <= 1.0 || !eps_rdp.is_finite() {
            continue;
        }
        let eps =
            eps_rdp + ((alpha - 1.0) / alpha).ln() - (delta.ln() + alpha.ln()) / (alpha - 1.0);
        if eps >= 0.0 && eps < best {
            best = eps;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gaussian_rdp_scales_linearly_in_alpha() {
        let z = 2.0;
        assert!((gaussian_rdp(4.0, z) - 2.0 * gaussian_rdp(2.0, z)).abs() < 1e-12);
    }

    #[test]
    fn gaussian_rdp_decreases_in_noise() {
        assert!(gaussian_rdp(2.0, 1.0) > gaussian_rdp(2.0, 2.0));
        assert!(gaussian_rdp(2.0, 2.0) > gaussian_rdp(2.0, 8.0));
    }

    #[test]
    fn subsampling_amplifies_privacy() {
        // q < 1 must give strictly better (smaller) RDP than q = 1.
        let full = subsampled_gaussian_rdp(8, 1.0, 1.5);
        let sampled = subsampled_gaussian_rdp(8, 0.1, 1.5);
        assert!(sampled < full, "sampled {sampled} vs full {full}");
        // And roughly quadratic in q for small q.
        let q1 = subsampled_gaussian_rdp(2, 0.01, 2.0);
        let q2 = subsampled_gaussian_rdp(2, 0.02, 2.0);
        let ratio = q2 / q1;
        assert!(
            (3.0..5.0).contains(&ratio),
            "expected ~4x growth, got {ratio}"
        );
    }

    #[test]
    fn subsampled_matches_gaussian_at_q1() {
        let a = subsampled_gaussian_rdp(16, 1.0, 1.2);
        let b = gaussian_rdp(16.0, 1.2);
        assert!((a - b).abs() < 1e-9);
    }

    #[test]
    fn subsampled_zero_rate_is_free() {
        assert_eq!(subsampled_gaussian_rdp(4, 0.0, 1.0), 0.0);
    }

    #[test]
    fn skellam_approaches_gaussian_for_large_mu() {
        // With variance 2μ, Gaussian RDP would be α Δ² / (2 · 2μ).
        let (alpha, d2, d1) = (8.0, 1.0, 10.0);
        let mu = 1e8;
        let skellam = skellam_rdp(alpha, d2, d1, mu);
        let gaussian_equiv = alpha * d2 * d2 / (4.0 * mu);
        let rel = (skellam - gaussian_equiv) / gaussian_equiv;
        assert!(rel < 1e-4, "relative excess {rel}");
    }

    #[test]
    fn skellam_penalty_shrinks_with_mu() {
        let a = skellam_rdp(4.0, 1.0, 5.0, 10.0);
        let b = skellam_rdp(4.0, 1.0, 5.0, 100.0);
        assert!(a > b);
    }

    #[test]
    fn conversion_monotone_in_delta() {
        let orders: Vec<f64> = DEFAULT_ORDERS.to_vec();
        let curve: Vec<f64> = orders.iter().map(|&a| gaussian_rdp(a, 1.0)).collect();
        let tight = rdp_to_epsilon(&orders, &curve, 1e-5);
        let loose = rdp_to_epsilon(&orders, &curve, 1e-3);
        assert!(tight > loose);
    }

    #[test]
    fn conversion_sanity_gaussian() {
        // σ = 1, single shot, δ=1e-5: ε should be a few units (classic
        // Gaussian-mechanism ballpark).
        let orders: Vec<f64> = DEFAULT_ORDERS.to_vec();
        let curve: Vec<f64> = orders.iter().map(|&a| gaussian_rdp(a, 1.0)).collect();
        let eps = rdp_to_epsilon(&orders, &curve, 1e-5);
        assert!((2.0..8.0).contains(&eps), "eps = {eps}");
    }

    #[test]
    fn composition_increases_epsilon() {
        let orders: Vec<f64> = DEFAULT_ORDERS.to_vec();
        let one: Vec<f64> = orders
            .iter()
            .map(|&a| subsampled_gaussian_rdp(a as u64, 0.1, 1.0))
            .collect();
        let ten: Vec<f64> = one.iter().map(|e| 10.0 * e).collect();
        let e1 = rdp_to_epsilon(&orders, &one, 1e-5);
        let e10 = rdp_to_epsilon(&orders, &ten, 1e-5);
        assert!(e10 > e1);
        // Sub-linear growth thanks to RDP composition.
        assert!(e10 < 10.0 * e1);
    }
}
