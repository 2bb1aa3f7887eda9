//! Numeric helpers: log-gamma, log-binomial, log-sum-exp.
//!
//! Used by the RDP accountant (binomial expansions of the subsampled
//! Gaussian) and by the Poisson sampler (Stirling-type bounds).

/// Natural log of the gamma function, via the Lanczos approximation
/// (g = 7, n = 9 coefficients). Accurate to ~1e-13 over the positive reals,
/// which is far below the accountant's needs.
///
/// # Panics
///
/// Panics if `x <= 0` (the reflection branch is not needed here).
#[must_use]
fn ln_gamma(x: f64) -> f64 {
    assert!(x > 0.0, "ln_gamma domain: x > 0");
    const G: f64 = 7.0;
    const COEF: [f64; 9] = [
        0.999_999_999_999_809_93,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_13,
        -176.615_029_162_140_59,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_571_6e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection: Γ(x)Γ(1-x) = π / sin(πx).
        return std::f64::consts::PI.ln()
            - (std::f64::consts::PI * x).sin().ln()
            - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut acc = COEF[0];
    for (i, &c) in COEF.iter().enumerate().skip(1) {
        acc += c / (x + i as f64);
    }
    let t = x + G + 0.5;
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + acc.ln()
}

/// `ln n!`.
#[must_use]
pub(crate) fn ln_factorial(n: u64) -> f64 {
    ln_gamma(n as f64 + 1.0)
}

/// `ln C(n, k)`.
#[must_use]
pub(crate) fn ln_binomial(n: u64, k: u64) -> f64 {
    if k > n {
        return f64::NEG_INFINITY;
    }
    ln_factorial(n) - ln_factorial(k) - ln_factorial(n - k)
}

/// Numerically stable `ln Σ exp(x_i)`.
#[must_use]
pub(crate) fn log_sum_exp(xs: &[f64]) -> f64 {
    let m = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    if m == f64::NEG_INFINITY {
        return f64::NEG_INFINITY;
    }
    let sum: f64 = xs.iter().map(|&x| (x - m).exp()).sum();
    m + sum.ln()
}

/// Next power of two at or above `n` (with `next_pow2(0) == 1`).
#[must_use]
pub(crate) fn next_pow2(n: usize) -> usize {
    n.max(1).next_power_of_two()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ln_gamma_integers() {
        // Γ(n) = (n-1)!.
        assert!((ln_gamma(1.0)).abs() < 1e-12);
        assert!((ln_gamma(2.0)).abs() < 1e-12);
        assert!((ln_gamma(5.0) - 24f64.ln()).abs() < 1e-10);
        assert!((ln_gamma(11.0) - 3_628_800f64.ln()).abs() < 1e-9);
    }

    #[test]
    fn ln_gamma_half() {
        // Γ(1/2) = √π.
        let want = std::f64::consts::PI.sqrt().ln();
        assert!((ln_gamma(0.5) - want).abs() < 1e-10);
    }

    #[test]
    fn ln_gamma_recurrence() {
        // Γ(x+1) = x Γ(x).
        for &x in &[0.7, 1.3, 2.9, 10.4, 55.0] {
            let lhs = ln_gamma(x + 1.0);
            let rhs = x.ln() + ln_gamma(x);
            assert!((lhs - rhs).abs() < 1e-9, "x={x}");
        }
    }

    #[test]
    fn ln_factorial_small() {
        assert!((ln_factorial(0)).abs() < 1e-12);
        assert!((ln_factorial(4) - 24f64.ln()).abs() < 1e-10);
    }

    #[test]
    fn binomial_symmetry_and_values() {
        assert!((ln_binomial(10, 3) - 120f64.ln()).abs() < 1e-9);
        assert!((ln_binomial(10, 3) - ln_binomial(10, 7)).abs() < 1e-9);
        assert_eq!(ln_binomial(3, 5), f64::NEG_INFINITY);
    }

    #[test]
    fn log_sum_exp_stability() {
        // Huge exponents must not overflow.
        let v = log_sum_exp(&[1000.0, 1000.0]);
        assert!((v - (1000.0 + 2f64.ln())).abs() < 1e-9);
        assert_eq!(log_sum_exp(&[]), f64::NEG_INFINITY);
        let single = log_sum_exp(&[-3.5]);
        assert!((single + 3.5).abs() < 1e-12);
    }

    #[test]
    fn pow2() {
        assert_eq!(next_pow2(0), 1);
        assert_eq!(next_pow2(1), 1);
        assert_eq!(next_pow2(3), 4);
        assert_eq!(next_pow2(1024), 1024);
        assert_eq!(next_pow2(1025), 2048);
    }
}
