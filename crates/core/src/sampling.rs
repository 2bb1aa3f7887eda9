//! VRF-based verifiable client sampling (paper §7).
//!
//! With a plain server-chosen sample, a malicious server can cherry-pick
//! colluding clients until they exceed the collusion tolerance `T_C`. The
//! paper's proposed fix: each client evaluates a VRF on the round index
//! with its own key and *self-selects* when the output falls below a
//! public threshold. The server (and every other participant) verifies
//! the VRF proofs, so:
//!
//! - the server cannot include a client whose VRF said no (proof check
//!   fails),
//! - the server cannot exclude honest low-output clients without honest
//!   clients noticing their own exclusion,
//! - since dishonest clients are a small fraction of the population, the
//!   sampled set contains at most a proportional (small) number of them
//!   with overwhelming probability — preserving the mild-collusion
//!   assumption Theorem 2 relies on.
//!
//! Over-selection then trimming by VRF output (the paper's "discard
//! excessive clients based on indiscriminate criteria on their
//! randomness") yields a fixed sample size.

use dordis_crypto::vrf::{VrfProof, VrfPublicKey, VrfSecretKey};
use serde::{Deserialize, Serialize};

use crate::DordisError;

/// Public sampling parameters for a round.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct SamplingConfig {
    /// Target number of participants.
    pub target_sample: usize,
    /// Total population size.
    pub population: usize,
    /// Over-selection factor (the threshold admits roughly
    /// `target_sample * over_selection` clients; trimming brings the
    /// sample back to the target).
    pub over_selection: f64,
}

impl SamplingConfig {
    /// The self-selection threshold as a 64-bit cutoff on the first 8
    /// bytes of the VRF output.
    #[must_use]
    pub fn threshold(&self) -> u64 {
        let p = ((self.target_sample as f64 * self.over_selection) / self.population as f64)
            .clamp(0.0, 1.0);
        (p * u64::MAX as f64) as u64
    }
}

/// A client's claim to participate in a round.
#[derive(Clone, Debug)]
pub struct ParticipationClaim {
    /// Claimant id.
    pub client: u32,
    /// Its VRF output for this round.
    pub output: [u8; 32],
    /// The proof.
    pub proof: VrfProof,
}

/// Round input to the VRF: a domain-separated round index.
fn round_input(round: u64) -> Vec<u8> {
    let mut v = b"dordis.sampling.round".to_vec();
    v.extend_from_slice(&round.to_le_bytes());
    v
}

/// First 8 bytes of a VRF output as the selection value.
fn selection_value(output: &[u8; 32]) -> u64 {
    u64::from_le_bytes(output[..8].try_into().expect("8 bytes"))
}

/// Client side: decide participation and produce the claim if selected.
#[must_use]
pub fn self_select(
    sk: &VrfSecretKey,
    client: u32,
    round: u64,
    cfg: &SamplingConfig,
) -> Option<ParticipationClaim> {
    let (output, proof) = sk.evaluate(&round_input(round));
    if selection_value(&output) <= cfg.threshold() {
        Some(ParticipationClaim {
            client,
            output,
            proof,
        })
    } else {
        None
    }
}

/// Verifies one claim and returns its selection value.
///
/// # Errors
///
/// A human-readable reason: unregistered key, non-verifying proof,
/// output/proof mismatch, or a value above the threshold (an invalid
/// self-selection the server should never have accepted).
pub fn verify_claim(
    claim: &ParticipationClaim,
    keys: &dyn Fn(u32) -> Option<VrfPublicKey>,
    round: u64,
    cfg: &SamplingConfig,
) -> Result<u64, String> {
    let input = round_input(round);
    let pk = keys(claim.client)
        .ok_or_else(|| format!("no VRF key registered for client {}", claim.client))?;
    let output = pk
        .verify(&input, &claim.proof)
        .map_err(|e| format!("client {}: bad VRF proof: {e}", claim.client))?;
    if output != claim.output {
        return Err(format!(
            "client {}: output does not match proof",
            claim.client
        ));
    }
    let value = selection_value(&output);
    if value > cfg.threshold() {
        return Err(format!("client {}: not actually selected", claim.client));
    }
    Ok(value)
}

/// Verifier side (server or peer): validate claims, reject invalid ones,
/// and trim to the target size by ascending selection value.
///
/// # Errors
///
/// Fails if any claim's proof does not verify, if a claimed output does
/// not match the proof, or if a claimant's value exceeds the threshold
/// (an invalid self-selection the server should never have accepted).
pub fn verify_and_trim(
    claims: &[ParticipationClaim],
    keys: &dyn Fn(u32) -> Option<VrfPublicKey>,
    round: u64,
    cfg: &SamplingConfig,
) -> Result<Vec<u32>, DordisError> {
    let mut valid: Vec<(u64, u32)> = Vec::with_capacity(claims.len());
    for claim in claims {
        let value = verify_claim(claim, keys, round, cfg).map_err(DordisError::Config)?;
        valid.push((value, claim.client));
    }
    // Indiscriminate trimming: smallest selection values win.
    valid.sort_unstable();
    valid.truncate(cfg.target_sample);
    Ok(valid.into_iter().map(|(_, c)| c).collect())
}

/// A round's seating decision over a batch of claims.
#[derive(Clone, Debug, Default)]
pub struct SeatedCohort {
    /// The seated cohort, by ascending selection value (the order
    /// becomes the round's client list on both execution paths).
    pub seated: Vec<u32>,
    /// Claims that failed verification, with reasons. Valid claimants
    /// that merely lost the trim are in neither list.
    pub rejected: Vec<(u32, String)>,
}

/// The session-coordinator seating rule: verify every claim
/// individually — a forged claim costs only its sender a seat, unlike
/// [`verify_and_trim`]'s all-or-nothing contract — then trim the valid
/// ones to the target size by ascending selection value.
#[must_use]
pub fn seat_claims(
    claims: &[ParticipationClaim],
    keys: &dyn Fn(u32) -> Option<VrfPublicKey>,
    round: u64,
    cfg: &SamplingConfig,
) -> SeatedCohort {
    let mut valid: Vec<(u64, u32)> = Vec::with_capacity(claims.len());
    let mut rejected = Vec::new();
    for claim in claims {
        match verify_claim(claim, keys, round, cfg) {
            Ok(value) => valid.push((value, claim.client)),
            Err(why) => rejected.push((claim.client, why)),
        }
    }
    valid.sort_unstable();
    valid.truncate(cfg.target_sample);
    SeatedCohort {
        seated: valid.into_iter().map(|(_, c)| c).collect(),
        rejected,
    }
}

/// Wire encoding of a [`ParticipationClaim`] (132 bytes: client id,
/// VRF output, proof `(Γ, c, s)`) — the claim bytes a session client
/// sends inside its per-round Join frame.
#[must_use]
pub fn encode_claim(claim: &ParticipationClaim) -> Vec<u8> {
    let mut out = Vec::with_capacity(132);
    out.extend_from_slice(&claim.client.to_le_bytes());
    out.extend_from_slice(&claim.output);
    out.extend_from_slice(&claim.proof.gamma);
    out.extend_from_slice(&claim.proof.c);
    out.extend_from_slice(&claim.proof.s);
    out
}

/// Decodes a claim produced by [`encode_claim`].
///
/// # Errors
///
/// Rejects bodies that are not exactly 132 bytes.
pub fn decode_claim(body: &[u8]) -> Result<ParticipationClaim, String> {
    if body.len() != 132 {
        return Err(format!("claim must be 132 bytes, got {}", body.len()));
    }
    let take32 = |at: usize| -> [u8; 32] { body[at..at + 32].try_into().expect("32 bytes") };
    Ok(ParticipationClaim {
        client: u32::from_le_bytes(body[..4].try_into().expect("4 bytes")),
        output: take32(4),
        proof: VrfProof {
            gamma: take32(36),
            c: take32(68),
            s: take32(100),
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key_for(id: u32) -> VrfSecretKey {
        let mut seed = [0u8; 32];
        seed[..4].copy_from_slice(&id.to_le_bytes());
        seed[31] = 0xfe;
        VrfSecretKey::from_seed(&seed)
    }

    fn cfg() -> SamplingConfig {
        SamplingConfig {
            target_sample: 16,
            population: 100,
            over_selection: 1.5,
        }
    }

    fn registry(id: u32) -> Option<VrfPublicKey> {
        (id < 100).then(|| key_for(id).public_key())
    }

    fn claims_for_round(round: u64) -> Vec<ParticipationClaim> {
        (0..100u32)
            .filter_map(|id| self_select(&key_for(id), id, round, &cfg()))
            .collect()
    }

    #[test]
    fn selection_rate_matches_threshold() {
        // Expect ~24 self-selected per round (16 * 1.5) over many rounds.
        let total: usize = (0..20u64).map(|r| claims_for_round(r).len()).sum();
        let mean = total as f64 / 20.0;
        assert!((19.0..29.0).contains(&mean), "mean selected {mean}");
    }

    #[test]
    fn verification_accepts_honest_claims_and_trims() {
        let claims = claims_for_round(7);
        let sampled = verify_and_trim(&claims, &registry, 7, &cfg()).unwrap();
        assert!(sampled.len() <= 16);
        // The sampled set must be a subset of claimants.
        for id in &sampled {
            assert!(claims.iter().any(|c| c.client == *id));
        }
        // Deterministic.
        let again = verify_and_trim(&claims, &registry, 7, &cfg()).unwrap();
        assert_eq!(sampled, again);
    }

    #[test]
    fn samples_vary_across_rounds() {
        let s1 = verify_and_trim(&claims_for_round(1), &registry, 1, &cfg()).unwrap();
        let s2 = verify_and_trim(&claims_for_round(2), &registry, 2, &cfg()).unwrap();
        assert_ne!(s1, s2);
    }

    #[test]
    fn forged_claim_rejected() {
        // A server trying to insert an unselected client must forge a
        // proof, which fails verification.
        let mut claims = claims_for_round(3);
        let outsider = (0..100u32)
            .find(|&id| self_select(&key_for(id), id, 3, &cfg()).is_none())
            .expect("someone is unselected");
        // Reuse another claimant's proof under the outsider's id.
        let mut forged = claims[0].clone();
        forged.client = outsider;
        claims.push(forged);
        assert!(verify_and_trim(&claims, &registry, 3, &cfg()).is_err());
    }

    #[test]
    fn replayed_round_rejected() {
        // A claim from round 3 cannot be replayed in round 4.
        let claims3 = claims_for_round(3);
        let err = verify_and_trim(&claims3, &registry, 4, &cfg());
        assert!(err.is_err());
    }

    #[test]
    fn tampered_output_rejected() {
        let mut claims = claims_for_round(5);
        claims[0].output[0] ^= 1;
        assert!(verify_and_trim(&claims, &registry, 5, &cfg()).is_err());
    }

    #[test]
    fn unknown_client_rejected() {
        let mut claims = claims_for_round(6);
        claims[0].client = 1000;
        assert!(verify_and_trim(&claims, &registry, 6, &cfg()).is_err());
    }

    #[test]
    fn claim_wire_roundtrip() {
        let claim = self_select(&key_for(3), 3, 11, &cfg())
            .or_else(|| (0..100u32).find_map(|id| self_select(&key_for(id), id, 11, &cfg())))
            .expect("someone self-selects");
        let bytes = encode_claim(&claim);
        assert_eq!(bytes.len(), 132);
        let back = decode_claim(&bytes).unwrap();
        assert_eq!(back.client, claim.client);
        assert_eq!(back.output, claim.output);
        assert_eq!(back.proof, claim.proof);
        assert!(decode_claim(&bytes[..131]).is_err());
    }

    /// The 132 claim bytes a client puts on the wire, recorded at commit
    /// cf51982: client 1 is the first to self-select in round 11.
    #[test]
    fn encode_claim_golden() {
        let claim = self_select(&key_for(1), 1, 11, &cfg()).expect("client 1 self-selects");
        let hex: String = encode_claim(&claim)
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect();
        assert_eq!(
            hex,
            "010000001c322bba6463111ab20577073cefdecf838e53a6fee75276b91f74aaa51605a7\
             1316a1424e4427a844d8a0693fab01116fad473572ab2b13e74c17fe3ae8f731\
             70e7e08b7fae0b300be1ffa4b38d7fea5c1c8ccb6fcd8f9d7fea6a3b2f0a0d88\
             d6d9f103e25d68fb80b4b92a7286f2a031c44c9e9cacdb723d78fc1c31f04c02"
        );
        assert!(self_select(&key_for(0), 0, 11, &cfg()).is_none());
        assert_eq!(seat_claims(&[claim], &registry, 11, &cfg()).seated, [1]);
    }

    #[test]
    fn seat_claims_rejects_forgeries_without_discarding_honest_claims() {
        // verify_and_trim is all-or-nothing: one forged claim aborts the
        // whole batch. seat_claims must instead seat the honest cohort
        // and name the forger.
        let mut claims = claims_for_round(9);
        let honest = claims.len();
        let outsider = (0..100u32)
            .find(|&id| self_select(&key_for(id), id, 9, &cfg()).is_none())
            .expect("someone is unselected");
        let mut forged = claims[0].clone();
        forged.client = outsider;
        claims.push(forged);

        assert!(verify_and_trim(&claims, &registry, 9, &cfg()).is_err());
        let cohort = seat_claims(&claims, &registry, 9, &cfg());
        assert_eq!(cohort.rejected.len(), 1);
        assert_eq!(cohort.rejected[0].0, outsider);
        assert_eq!(cohort.seated.len(), honest.min(16));
        assert!(!cohort.seated.contains(&outsider));
        // Where both accept, they agree (same trim rule).
        let honest_claims = claims_for_round(9);
        let trimmed = verify_and_trim(&honest_claims, &registry, 9, &cfg()).unwrap();
        assert_eq!(cohort.seated, trimmed);
    }

    #[test]
    fn seat_claims_rejects_stale_round_claims() {
        // A claim evaluated for round 3 cannot seat its sender in
        // round 4 — the per-round resampling the session relies on.
        let claims3 = claims_for_round(3);
        let cohort = seat_claims(&claims3, &registry, 4, &cfg());
        // Round 4's VRF input differs, so every round-3 proof fails
        // verification against it: all rejected, none seated.
        assert_eq!(cohort.seated.len(), 0, "no round-3 claim seats in round 4");
        assert_eq!(cohort.rejected.len(), claims3.len());
    }

    #[test]
    fn dishonest_minority_stays_minority() {
        // 5% dishonest population: across many rounds, the dishonest
        // fraction of the sample stays near 5% — they cannot boost their
        // odds because VRF outputs are fixed by their keys.
        let dishonest: Vec<u32> = (0..5).collect();
        let mut dishonest_sampled = 0usize;
        let mut total_sampled = 0usize;
        for round in 0..15u64 {
            let sampled =
                verify_and_trim(&claims_for_round(round), &registry, round, &cfg()).unwrap();
            total_sampled += sampled.len();
            dishonest_sampled += sampled.iter().filter(|c| dishonest.contains(c)).count();
        }
        let frac = dishonest_sampled as f64 / total_sampled as f64;
        assert!(frac < 0.15, "dishonest fraction {frac}");
    }
}
