//! The DSkellam client-side encoding pipeline (paper §5).
//!
//! Secure aggregation sums vectors in `Z_{2^b}`, so real-valued model
//! updates must be discretized first. Following Agarwal et al. (DSkellam),
//! each client:
//!
//! 1. clips the update to L2 norm `clip`,
//! 2. flattens it with a randomized Hadamard rotation `H·D` (shared
//!    per-round seed, so aggregation commutes with the rotation),
//! 3. scales by `gamma` and applies *conditional randomized rounding*
//!    (retry until the rounded vector's norm is within the analytic bound,
//!    keeping the sensitivity used for accounting valid),
//! 4. maps signed integers into `Z_{2^b}` by wraparound.
//!
//! The server sums modulo `2^b`, lifts back to signed integers, divides by
//! `gamma`, and inverts the rotation. Modular wraparound is harmless as
//! long as the true sum stays within `±2^(b-1)`, which the parameters are
//! sized for (`bit_width = 20` in the paper's configuration).

use dordis_crypto::prg::{Prg, Seed};
use serde::{Deserialize, Serialize};

use crate::math::next_pow2;
use crate::DpError;

/// Parameters of the DSkellam encoding.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct EncodingConfig {
    /// Modular bit width `b`; coordinates live in `Z_{2^b}`.
    pub bit_width: u32,
    /// Scale factor `γ` applied before rounding.
    pub gamma: f64,
    /// L2 clipping bound `c` on raw updates.
    pub clip: f64,
    /// Failure probability `β` of the randomized-rounding norm bound
    /// (the paper fixes `β = e^{-0.5}`).
    pub beta: f64,
}

impl Default for EncodingConfig {
    fn default() -> Self {
        EncodingConfig {
            bit_width: 20,
            gamma: 64.0,
            clip: 1.0,
            beta: (-0.5f64).exp(),
        }
    }
}

impl EncodingConfig {
    /// Modulus `2^b`.
    #[must_use]
    pub fn modulus(&self) -> u64 {
        1u64 << self.bit_width
    }

    /// The post-rounding L2 norm bound on encoded vectors of (padded)
    /// dimension `dim` — the conditional randomized-rounding bound of the
    /// DSkellam paper:
    ///
    /// `‖z‖₂ ≤ γc + √d/2 · slack`, concretely
    /// `√(γ²c² + d/4 + √(2 ln(1/β)) · (γc + √d/2))`.
    #[must_use]
    fn norm_bound(&self, dim: usize) -> f64 {
        let d = dim as f64;
        let gc = self.gamma * self.clip;
        let slack = (2.0 * (1.0 / self.beta).ln()).sqrt();
        (gc * gc + d / 4.0 + slack * (gc + 0.5 * d.sqrt())).sqrt()
    }

    /// L2 sensitivity of the encoded update (used by the accountant):
    /// the norm bound itself, since one client's whole encoded vector is
    /// what changes between neighbouring datasets.
    #[must_use]
    pub fn l2_sensitivity(&self, dim: usize) -> f64 {
        self.norm_bound(next_pow2(dim))
    }

    /// Bound on Δ₁/Δ₂ for the encoded update (√d for a d-dimensional
    /// vector, by Cauchy–Schwarz).
    #[must_use]
    pub fn l1_per_l2(&self, dim: usize) -> f64 {
        (next_pow2(dim) as f64).sqrt()
    }
}

/// Fast in-place Walsh–Hadamard transform, orthonormalized
/// (`H` is its own inverse).
///
/// # Panics
///
/// Panics if the length is not a power of two.
fn wht_inplace(v: &mut [f64]) {
    let n = v.len();
    assert!(n.is_power_of_two(), "WHT length must be a power of two");
    let mut h = 1;
    while h < n {
        for i in (0..n).step_by(h * 2) {
            for j in i..i + h {
                let x = v[j];
                let y = v[j + h];
                v[j] = x + y;
                v[j + h] = x - y;
            }
        }
        h *= 2;
    }
    let scale = 1.0 / (n as f64).sqrt();
    for x in v.iter_mut() {
        *x *= scale;
    }
}

/// Applies the random sign flips `D` derived from `seed`.
fn apply_signs(seed: &Seed, v: &mut [f64]) {
    let mut prg = Prg::new(seed, b"dskellam.signs");
    let mut word = 0u64;
    let mut bits_left = 0u32;
    for x in v.iter_mut() {
        if bits_left == 0 {
            word = prg.next_u64();
            bits_left = 64;
        }
        if word & 1 == 1 {
            *x = -*x;
        }
        word >>= 1;
        bits_left -= 1;
    }
}

/// Forward rotation `y = H D x` (after padding to a power of two).
fn rotate(seed: &Seed, v: &mut [f64]) {
    apply_signs(seed, v);
    wht_inplace(v);
}

/// Inverse rotation `x = D Hᵀ y = D H y` (H symmetric orthonormal).
fn unrotate(seed: &Seed, v: &mut [f64]) {
    wht_inplace(v);
    apply_signs(seed, v);
}

/// A client-side encoder bound to a per-round rotation seed.
///
/// # Examples
///
/// ```
/// use dordis_dp::encoding::{Encoder, EncodingConfig};
///
/// let cfg = EncodingConfig::default();
/// let enc = Encoder::new(&cfg, [7u8; 32]);
/// let update = vec![0.01, -0.02, 0.03];
/// let encoded = enc.encode(&update, &[1u8; 32]).unwrap();
/// let decoded = enc.decode(&encoded, update.len());
/// for (d, u) in decoded.iter().zip(update.iter()) {
///     assert!((d - u).abs() < 0.05);
/// }
/// ```
pub struct Encoder<'a> {
    config: &'a EncodingConfig,
    rotation_seed: Seed,
}

impl<'a> Encoder<'a> {
    /// Creates an encoder; all clients of a round must share
    /// `rotation_seed` (the server broadcasts it with the round config).
    #[must_use]
    pub fn new(config: &'a EncodingConfig, rotation_seed: Seed) -> Self {
        Encoder {
            config,
            rotation_seed,
        }
    }

    /// Encodes a raw update into `Z_{2^b}` integers of padded length.
    ///
    /// `round_seed` supplies the client's private rounding randomness.
    ///
    /// # Errors
    ///
    /// Fails if conditional rounding cannot meet the norm bound after many
    /// retries (ill-sized `gamma`/`bit_width`).
    pub fn encode(&self, update: &[f64], round_seed: &Seed) -> Result<Vec<u64>, DpError> {
        let padded = next_pow2(update.len());
        let mut v = vec![0.0f64; padded];
        v[..update.len()].copy_from_slice(update);

        // 1. Clip.
        let norm = l2_norm(&v);
        if norm > self.config.clip {
            let s = self.config.clip / norm;
            for x in v.iter_mut() {
                *x *= s;
            }
        }
        // 2. Flatten.
        rotate(&self.rotation_seed, &mut v);
        // 3. Scale.
        for x in v.iter_mut() {
            *x *= self.config.gamma;
        }
        // 4. Conditional randomized rounding.
        let bound = self.config.norm_bound(padded);
        let mut prg = Prg::new(round_seed, b"dskellam.round");
        let modulus = self.config.modulus();
        let half = (modulus / 2) as i64;
        for attempt in 0..100 {
            let mut z = Vec::with_capacity(padded);
            let mut norm_sq = 0.0f64;
            for &x in v.iter() {
                let floor = x.floor();
                let frac = x - floor;
                let up = prg.next_f64() < frac;
                let r = floor as i64 + i64::from(up);
                norm_sq += (r as f64) * (r as f64);
                z.push(r);
            }
            if norm_sq.sqrt() <= bound {
                // 5. Wrap into Z_2^b.
                if z.iter().any(|&r| r >= half || r < -half) {
                    return Err(DpError::Encoding("coordinate exceeds modulus range"));
                }
                let out = z
                    .into_iter()
                    .map(|r| (r.rem_euclid(modulus as i64)) as u64)
                    .collect();
                return Ok(out);
            }
            let _ = attempt;
        }
        Err(DpError::Encoding("conditional rounding failed to converge"))
    }

    /// Decodes an aggregate in `Z_{2^b}` back to real values.
    ///
    /// `original_len` strips the power-of-two padding.
    #[must_use]
    pub fn decode(&self, aggregate: &[u64], original_len: usize) -> Vec<f64> {
        let modulus = self.config.modulus();
        let half = modulus / 2;
        let mut v: Vec<f64> = aggregate
            .iter()
            .map(|&x| {
                debug_assert!(x < modulus);
                if x >= half {
                    (x as i64 - modulus as i64) as f64
                } else {
                    x as f64
                }
            })
            .collect();
        for x in v.iter_mut() {
            *x /= self.config.gamma;
        }
        unrotate(&self.rotation_seed, &mut v);
        v.truncate(original_len);
        v
    }

    /// Padded length for a raw update of length `len`.
    #[must_use]
    pub fn padded_len(len: usize) -> usize {
        next_pow2(len)
    }
}

fn l2_norm(v: &[f64]) -> f64 {
    v.iter().map(|x| x * x).sum::<f64>().sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Adds two vectors in `Z_{2^b}` (coordinate-wise, wrapping): the
    /// server's aggregation, as the tests model it.
    fn add_mod(a: &[u64], b: &[u64], bit_width: u32) -> Vec<u64> {
        let mask = if bit_width == 64 {
            u64::MAX
        } else {
            (1u64 << bit_width) - 1
        };
        a.iter()
            .zip(b.iter())
            .map(|(&x, &y)| x.wrapping_add(y) & mask)
            .collect()
    }

    fn cfg() -> EncodingConfig {
        EncodingConfig::default()
    }

    #[test]
    fn wht_is_self_inverse() {
        let mut v: Vec<f64> = (0..64).map(|i| (i as f64) * 0.37 - 3.0).collect();
        let orig = v.clone();
        wht_inplace(&mut v);
        wht_inplace(&mut v);
        for (a, b) in v.iter().zip(orig.iter()) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn wht_preserves_norm() {
        let mut v: Vec<f64> = (0..128).map(|i| ((i * 7) % 13) as f64 - 6.0).collect();
        let before = l2_norm(&v);
        wht_inplace(&mut v);
        assert!((l2_norm(&v) - before).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn wht_rejects_non_pow2() {
        let mut v = vec![0.0; 3];
        wht_inplace(&mut v);
    }

    #[test]
    fn rotation_roundtrip() {
        let seed = [3u8; 32];
        let mut v: Vec<f64> = (0..32).map(|i| (i as f64).sin()).collect();
        let orig = v.clone();
        rotate(&seed, &mut v);
        unrotate(&seed, &mut v);
        for (a, b) in v.iter().zip(orig.iter()) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn encode_decode_single_client() {
        let config = cfg();
        let enc = Encoder::new(&config, [1u8; 32]);
        let update: Vec<f64> = (0..50).map(|i| ((i as f64) * 0.11).sin() * 0.1).collect();
        let encoded = enc.encode(&update, &[2u8; 32]).unwrap();
        assert_eq!(encoded.len(), 64);
        let decoded = enc.decode(&encoded, update.len());
        for (d, u) in decoded.iter().zip(update.iter()) {
            assert!((d - u).abs() < 0.05, "decoded {d} vs {u}");
        }
    }

    #[test]
    fn aggregation_commutes_with_encoding() {
        // sum(decode) == decode(modular sum of encodings): the property
        // secure aggregation relies on.
        let config = cfg();
        let enc = Encoder::new(&config, [7u8; 32]);
        let n = 8;
        let dim = 30;
        let mut encodings = Vec::new();
        let mut true_sum = vec![0.0f64; dim];
        for c in 0..n {
            let update: Vec<f64> = (0..dim)
                .map(|i| (((c * dim + i) as f64) * 0.13).sin() * 0.05)
                .collect();
            for (s, u) in true_sum.iter_mut().zip(update.iter()) {
                *s += u;
            }
            let seed = [c as u8 + 10; 32];
            encodings.push(enc.encode(&update, &seed).unwrap());
        }
        let mut agg = encodings[0].clone();
        for e in &encodings[1..] {
            agg = add_mod(&agg, e, config.bit_width);
        }
        let decoded = enc.decode(&agg, dim);
        for (d, s) in decoded.iter().zip(true_sum.iter()) {
            assert!((d - s).abs() < 0.2, "decoded {d} vs true {s}");
        }
    }

    #[test]
    fn clipping_enforced() {
        let config = EncodingConfig { clip: 0.5, ..cfg() };
        let enc = Encoder::new(&config, [9u8; 32]);
        // A vector with huge norm gets clipped to 0.5.
        let update = vec![10.0f64; 16];
        let encoded = enc.encode(&update, &[1u8; 32]).unwrap();
        let decoded = enc.decode(&encoded, 16);
        let norm = l2_norm(&decoded);
        assert!((norm - 0.5).abs() < 0.05, "norm {norm}");
    }

    #[test]
    fn norm_bound_holds_post_encoding() {
        let config = cfg();
        let enc = Encoder::new(&config, [4u8; 32]);
        let update: Vec<f64> = (0..100).map(|i| ((i as f64) * 0.7).cos() * 0.09).collect();
        let encoded = enc.encode(&update, &[5u8; 32]).unwrap();
        let modulus = config.modulus();
        let half = modulus / 2;
        let norm_sq: f64 = encoded
            .iter()
            .map(|&x| {
                let s = if x >= half {
                    x as i64 - modulus as i64
                } else {
                    x as i64
                };
                (s as f64) * (s as f64)
            })
            .sum();
        assert!(norm_sq.sqrt() <= config.norm_bound(128) + 1e-9);
    }

    #[test]
    fn sensitivity_monotone_in_gamma_and_clip() {
        let a = EncodingConfig {
            gamma: 32.0,
            ..cfg()
        }
        .l2_sensitivity(1000);
        let b = EncodingConfig {
            gamma: 128.0,
            ..cfg()
        }
        .l2_sensitivity(1000);
        assert!(b > a);
        let c = EncodingConfig { clip: 2.0, ..cfg() }.l2_sensitivity(1000);
        assert!(c > cfg().l2_sensitivity(1000));
    }

    #[test]
    fn mod_arithmetic_roundtrip() {
        let a = vec![5u64, (1 << 20) - 1, 7];
        let b = vec![3u64, 2, (1 << 20) - 1];
        assert_eq!(add_mod(&a, &b, 20), vec![8, 1, 6]);
    }

    proptest! {
        #[test]
        fn prop_encode_decode_close(
            vals in proptest::collection::vec(-0.05f64..0.05, 1..40),
            seed_byte in any::<u8>(),
        ) {
            let config = cfg();
            let enc = Encoder::new(&config, [seed_byte; 32]);
            let encoded = enc.encode(&vals, &[seed_byte.wrapping_add(1); 32]).unwrap();
            let decoded = enc.decode(&encoded, vals.len());
            for (d, v) in decoded.iter().zip(vals.iter()) {
                prop_assert!((d - v).abs() < 0.1);
            }
        }

        #[test]
        fn prop_mod_add_commutes(
            a in proptest::collection::vec(0u64..(1<<20), 8),
            b in proptest::collection::vec(0u64..(1<<20), 8),
        ) {
            prop_assert_eq!(add_mod(&a, &b, 20), add_mod(&b, &a, 20));
        }
    }
}
