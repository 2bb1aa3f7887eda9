//! Network-footprint model: XNoise vs rebasing (Table 3 of the paper).
//!
//! Computes the *additional* per-round network bytes a surviving client
//! pays compared to `Orig`, under the wire sizes the paper specifies
//! (§6.3): model weight 2.5 B, noise seed 32 B, Shamir share of a seed
//! 16 B, ciphertext of a share 120 B.
//!
//! XNoise's extra traffic is seeds and shares only — independent of the
//! model size; rebasing ships a whole model-sized adjustment vector.

/// Wire sizes used by the model (defaults match the paper's §6.3).
#[derive(Clone, Copy, Debug)]
pub struct WireSizes {
    /// Bytes per model weight on the wire.
    pub weight: f64,
    /// Bytes per noise seed.
    pub seed: f64,
    /// Bytes per Shamir share of a seed.
    pub share: f64,
    /// Bytes per encrypted share (ciphertext).
    pub share_ciphertext: f64,
}

impl Default for WireSizes {
    fn default() -> Self {
        WireSizes {
            weight: 2.5,
            seed: 32.0,
            share: 16.0,
            share_ciphertext: 120.0,
        }
    }
}

/// Scenario parameters for the footprint comparison.
#[derive(Clone, Copy, Debug)]
pub struct FootprintScenario {
    /// Model parameter count `d`.
    pub model_params: u64,
    /// Sampled clients `n` per round.
    pub sampled: usize,
    /// Per-round dropout rate in `[0, 1)`.
    pub dropout_rate: f64,
    /// XNoise dropout tolerance `T` (the paper sizes it as the worst-case
    /// dropout the round must absorb; we default to `ceil(0.5 n)` like
    /// the artifact's configuration when unspecified).
    pub tolerance: usize,
}

impl FootprintScenario {
    /// Number of dropped clients this scenario assumes.
    #[must_use]
    pub fn dropped(&self) -> usize {
        ((self.sampled as f64) * self.dropout_rate).round() as usize
    }
}

/// Additional per-round bytes for a surviving client under **XNoise**,
/// relative to `Orig`.
///
/// A surviving client pays for:
/// - `T` encrypted shares of its own seeds to each of the `n-1` peers at
///   `ShareKeys` time — amortized here as `T·(n-1)` ciphertexts *sent*
///   (downlink of others' shares is symmetric and counted once, matching
///   the paper's single-client accounting),
/// - its own revealed seeds `(T - |D|)` at unmasking,
/// - shares of `U3 \ U5` clients' seeds at stage 5 (zero in the common
///   path, bounded by `T` per dropped-late client; we take the paper's
///   common-path accounting of zero).
#[must_use]
pub fn xnoise_extra_bytes(s: &FootprintScenario, w: &WireSizes) -> f64 {
    let t = s.tolerance as f64;
    let n = s.sampled as f64;
    // Figure 5 generates shares for the full roster (n per component).
    let shares_out = t * n * w.share_ciphertext;
    let seeds_revealed = (t - s.dropped() as f64).max(0.0) * w.seed;
    shares_out + seeds_revealed
}

/// Additional per-round bytes for a surviving client under **rebasing**.
///
/// The client ships a model-sized adjustment vector whenever removal is
/// needed (i.e. whenever fewer than `T` clients dropped).
#[must_use]
pub fn rebasing_extra_bytes(s: &FootprintScenario, w: &WireSizes) -> f64 {
    if s.dropped() >= s.tolerance {
        return 0.0;
    }
    s.model_params as f64 * w.weight
}

/// One Table 3 row: `(rebasing MB, XNoise MB)` for the scenario
/// (mebibytes; the paper's 11.9 MB for a 5M-weight adjustment vector at
/// 2.5 B/weight pins the unit to 2^20).
#[must_use]
pub fn table3_row(s: &FootprintScenario, w: &WireSizes) -> (f64, f64) {
    let mb = 1024.0 * 1024.0;
    (
        rebasing_extra_bytes(s, w) / mb,
        xnoise_extra_bytes(s, w) / mb,
    )
}

/// The paper's default tolerance for a Table 3 scenario: 50% of sampled.
#[must_use]
pub fn default_tolerance(sampled: usize) -> usize {
    sampled / 2
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scenario(params_m: u64, n: usize, rate: f64) -> FootprintScenario {
        FootprintScenario {
            model_params: params_m * 1_000_000,
            sampled: n,
            dropout_rate: rate,
            tolerance: default_tolerance(n),
        }
    }

    #[test]
    fn xnoise_is_invariant_to_model_size() {
        let w = WireSizes::default();
        let a = xnoise_extra_bytes(&scenario(5, 100, 0.0), &w);
        let b = xnoise_extra_bytes(&scenario(500, 100, 0.0), &w);
        assert_eq!(a, b);
    }

    #[test]
    fn rebasing_scales_linearly_with_model_size() {
        let w = WireSizes::default();
        let a = rebasing_extra_bytes(&scenario(5, 100, 0.0), &w);
        let b = rebasing_extra_bytes(&scenario(50, 100, 0.0), &w);
        let c = rebasing_extra_bytes(&scenario(500, 100, 0.0), &w);
        assert!((b / a - 10.0).abs() < 1e-9);
        assert!((c / a - 100.0).abs() < 1e-9);
    }

    #[test]
    fn paper_magnitudes_5m_100_clients() {
        // Table 3, first row: rebasing ≈ 11.9 MB, XNoise ≈ 0.6 MB.
        let w = WireSizes::default();
        let (rebase, xnoise) = table3_row(&scenario(5, 100, 0.0), &w);
        assert!((rebase - 11.9).abs() < 0.1, "rebasing {rebase} MB");
        assert!((xnoise - 0.6).abs() < 0.1, "xnoise {xnoise} MB");
    }

    #[test]
    fn paper_magnitudes_growth_with_clients() {
        // Table 3: 200 clients ≈ 2.4 MB, 300 clients ≈ 5.5 MB for XNoise.
        let w = WireSizes::default();
        let (_, x200) = table3_row(&scenario(5, 200, 0.0), &w);
        let (_, x300) = table3_row(&scenario(5, 300, 0.0), &w);
        assert!((x200 - 2.4).abs() < 0.2, "200 clients: {x200} MB");
        assert!((x300 - 5.5).abs() < 0.4, "300 clients: {x300} MB");
    }

    #[test]
    fn xnoise_cost_slightly_decreases_with_dropout() {
        // Fewer seeds are revealed when more clients drop (Table 3 shows
        // 5.5 -> 5.2 MB for 300 clients as dropout goes 0 -> 30%).
        let w = WireSizes::default();
        let x0 = xnoise_extra_bytes(&scenario(5, 300, 0.0), &w);
        let x30 = xnoise_extra_bytes(&scenario(5, 300, 0.3), &w);
        assert!(x30 < x0);
        assert!((x0 - x30) / x0 < 0.1, "decrease should be mild");
    }

    #[test]
    fn rebasing_free_only_at_full_tolerance_dropout() {
        let w = WireSizes::default();
        let mut s = scenario(5, 100, 0.5);
        assert_eq!(rebasing_extra_bytes(&s, &w), 0.0);
        s.dropout_rate = 0.49;
        assert!(rebasing_extra_bytes(&s, &w) > 0.0);
    }
}
