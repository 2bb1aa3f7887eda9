//! The 'rebasing' alternative (§3.1, adopted by Baek et al.), implemented
//! as a comparison baseline.
//!
//! Each client adds a single whole noise vector `n_o ~ χ(σ²∗/(n-T))`. When
//! fewer than `T` clients drop, each survivor must *rebase*: compute the
//! newly-required noise `n_u ~ χ(σ²∗/(n-|D|))` and ship the full-length
//! difference `n_u - n_o` to the server, which adds it to the aggregate.
//! Two structural flaws motivate XNoise's decomposition design:
//!
//! 1. the difference vector cannot be compressed to a seed (it couples two
//!    secret vectors), so network cost scales with the model size
//!    (Table 3), and
//! 2. a survivor dropping *during* removal leaves the aggregate
//!    permanently over-noised — the adjustment cannot be reconstructed
//!    from shares because it did not exist before aggregation.

use dordis_crypto::prg::{Prg, Seed};
use dordis_dp::mechanism::{skellam_vector, SkellamSampler};
use dordis_secagg::mask::{add_signed_ring, ring_mask};

use crate::enforcement::add_noise_stream;
use crate::XNoiseError;

/// Stream domain of the original noise `n_o`.
const ORIGINAL_DOMAIN: &[u8] = b"rebase.original";

/// Per-round rebasing state for one client.
pub struct RebasingClient {
    round_seed: Seed,
    per_client_variance: f64,
    len: usize,
}

impl RebasingClient {
    /// Creates the client state; `per_client_variance = σ²∗ / (n - T)`.
    #[must_use]
    pub fn new(round_seed: Seed, per_client_variance: f64, len: usize) -> Self {
        RebasingClient {
            round_seed,
            per_client_variance,
            len,
        }
    }

    /// The original noise `n_o` added before aggregation.
    #[must_use]
    pub fn original_noise(&self) -> Vec<i64> {
        skellam_vector(
            &self.round_seed,
            ORIGINAL_DOMAIN,
            self.len,
            self.per_client_variance,
        )
    }

    /// Adds `n_o` to an encoded update in `Z_{2^b}`.
    pub fn perturb(&self, update: &mut [u64], bit_width: u32) {
        let sampler = SkellamSampler::new(self.per_client_variance);
        let len = self.len.min(update.len());
        add_noise_stream(
            &mut update[..len],
            &sampler,
            &self.round_seed,
            ORIGINAL_DOMAIN,
            true,
            bit_width,
        );
    }
}

/// Orchestrates rebasing for a round: knows `n`, `T`, and `σ²∗`, hands
/// out per-client states, and applies adjustments server-side.
pub struct RebasingRound {
    /// Target central variance `σ²∗`.
    pub target_variance: f64,
    /// Sampled clients `n`.
    pub clients: usize,
    /// Dropout tolerance `T`.
    pub tolerance: usize,
    /// Vector length.
    pub len: usize,
}

impl RebasingRound {
    /// Per-client original noise variance `σ²∗ / (n - T)`.
    #[must_use]
    pub fn per_client_variance(&self) -> f64 {
        self.target_variance / (self.clients - self.tolerance) as f64
    }

    /// Builds client `c`'s state.
    #[must_use]
    pub fn client(&self, round_seed: Seed) -> RebasingClient {
        RebasingClient::new(round_seed, self.per_client_variance(), self.len)
    }

    /// The *exact* adjustment each survivor must transmit so the residual
    /// lands on `σ²∗`: `n_u - n_o` with
    /// `n_u ~ χ(σ²∗ / survivors)`.
    ///
    /// # Errors
    ///
    /// Fails when more clients dropped than `T` (noise already
    /// insufficient; rebasing cannot help) or no survivors remain.
    pub fn adjustment_for(
        &self,
        client: &RebasingClient,
        survivors: usize,
    ) -> Result<Vec<i64>, XNoiseError> {
        let dropped = self.clients.saturating_sub(survivors);
        if dropped > self.tolerance {
            return Err(XNoiseError::ToleranceExceeded {
                dropped,
                tolerance: self.tolerance,
            });
        }
        if survivors == 0 {
            return Err(XNoiseError::BadParameter("no survivors".into()));
        }
        let new_variance = self.target_variance / survivors as f64;
        let n_u = skellam_vector(
            &Prg::fork(&client.round_seed, b"rebase.new", survivors as u64),
            b"rebase.updated",
            self.len,
            new_variance,
        );
        Ok(n_u
            .iter()
            .zip(client.original_noise())
            .map(|(nu, no)| nu - no)
            .collect())
    }

    /// Server-side: applies survivors' adjustment vectors to the
    /// aggregate.
    pub fn apply_adjustments(
        &self,
        aggregate: &mut [u64],
        adjustments: &[Vec<i64>],
        bit_width: u32,
    ) {
        let ring = ring_mask(bit_width);
        for adj in adjustments {
            for (a, &z) in aggregate.iter_mut().zip(adj.iter()) {
                *a = add_signed_ring(*a, z, ring);
            }
        }
    }

    /// Bytes a survivor transmits during removal: the full vector (this is
    /// the Table 3 scaling flaw).
    #[must_use]
    pub fn removal_bytes(&self, bytes_per_weight: f64) -> u64 {
        (self.len as f64 * bytes_per_weight).ceil() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dordis_secagg::mask::ring_mask;

    const BITS: u32 = 24;

    fn variance(xs: &[i64]) -> f64 {
        let n = xs.len() as f64;
        let mean = xs.iter().map(|&x| x as f64).sum::<f64>() / n;
        xs.iter().map(|&x| (x as f64 - mean).powi(2)).sum::<f64>() / (n - 1.0)
    }

    fn center(v: u64) -> i64 {
        crate::enforcement::center(v, BITS)
    }

    /// Rebasing end-to-end: residual noise after adjustments ≈ σ²∗.
    fn run(n: usize, t: usize, drop: usize, sigma_sq: f64, len: usize) -> Vec<i64> {
        let round = RebasingRound {
            target_variance: sigma_sq,
            clients: n,
            tolerance: t,
            len,
        };
        let survivors = n - drop;
        let ring = ring_mask(BITS);
        let clients: Vec<RebasingClient> = (0..survivors)
            .map(|c| round.client([c as u8 + 1; 32]))
            .collect();
        let mut aggregate = vec![0u64; len];
        for c in &clients {
            let mut update = vec![0u64; len];
            c.perturb(&mut update, BITS);
            for (a, u) in aggregate.iter_mut().zip(update.iter()) {
                *a = (*a + *u) & ring;
            }
        }
        let adjustments: Vec<Vec<i64>> = clients
            .iter()
            .map(|c| round.adjustment_for(c, survivors).unwrap())
            .collect();
        round.apply_adjustments(&mut aggregate, &adjustments, BITS);
        aggregate.iter().map(|&v| center(v)).collect()
    }

    #[test]
    fn rebasing_hits_target_no_dropout() {
        let v = variance(&run(8, 3, 0, 100.0, 30_000));
        assert!((v - 100.0).abs() < 6.0, "residual {v}");
    }

    #[test]
    fn rebasing_hits_target_with_dropout() {
        let v = variance(&run(8, 3, 2, 100.0, 30_000));
        assert!((v - 100.0).abs() < 6.0, "residual {v}");
    }

    #[test]
    fn rebasing_fails_beyond_tolerance() {
        let round = RebasingRound {
            target_variance: 10.0,
            clients: 8,
            tolerance: 2,
            len: 4,
        };
        let c = round.client([1u8; 32]);
        assert!(matches!(
            round.adjustment_for(&c, 5),
            Err(XNoiseError::ToleranceExceeded { .. })
        ));
    }

    #[test]
    fn adjustment_is_full_vector_length() {
        // The structural cost: the adjustment has model length, unlike
        // XNoise's constant-size seeds.
        let round = RebasingRound {
            target_variance: 10.0,
            clients: 4,
            tolerance: 1,
            len: 1000,
        };
        let c = round.client([2u8; 32]);
        assert_eq!(round.adjustment_for(&c, 4).unwrap().len(), 1000);
        assert_eq!(round.removal_bytes(2.5), 2500);
    }

    #[test]
    fn mid_removal_dropout_breaks_rebasing() {
        // If one survivor's adjustment never arrives, the residual
        // variance stays at the (excessive) pre-adjustment level — the
        // robustness flaw §3.1 calls out. Verify the residual is
        // significantly over target.
        let n = 8;
        let t = 3;
        let sigma_sq = 100.0;
        let len = 30_000;
        let round = RebasingRound {
            target_variance: sigma_sq,
            clients: n,
            tolerance: t,
            len,
        };
        let ring = ring_mask(BITS);
        let clients: Vec<RebasingClient> =
            (0..n).map(|c| round.client([c as u8 + 1; 32])).collect();
        let mut aggregate = vec![0u64; len];
        for c in &clients {
            let mut update = vec![0u64; len];
            c.perturb(&mut update, BITS);
            for (a, u) in aggregate.iter_mut().zip(update.iter()) {
                *a = (*a + *u) & ring;
            }
        }
        // Only 7 of 8 adjustments arrive.
        let adjustments: Vec<Vec<i64>> = clients
            .iter()
            .take(n - 1)
            .map(|c| round.adjustment_for(c, n).unwrap())
            .collect();
        round.apply_adjustments(&mut aggregate, &adjustments, BITS);
        let residual: Vec<i64> = aggregate.iter().map(|&v| center(v)).collect();
        let v = variance(&residual);
        // Missing adjustment leaves var = σ²∗ + (per-client excess):
        // 7 clients at σ²/8 + 1 client at σ²/(n-T) = σ²(7/8 + 1/5).
        let expect = sigma_sq * (7.0 / 8.0 + 1.0 / 5.0);
        assert!(
            (v - expect).abs() < 8.0,
            "residual {v}, expected ≈ {expect}"
        );
        assert!(v > sigma_sq + 5.0, "must be visibly over-noised");
    }
}
