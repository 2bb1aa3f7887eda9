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

use dordis_crypto::vrf::{CheckedProof, VrfInput, VrfProof, VrfPublicKey, VrfSecretKey};
use dordis_crypto::CryptoError;
use dordis_net::session::SeatingOutcome;

/// Public sampling parameters for a round.
#[derive(Clone, Copy, Debug)]
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
    pub(crate) fn threshold(&self) -> u64 {
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
pub(crate) fn round_input(round: u64) -> Vec<u8> {
    let mut v = b"dordis.sampling.round".to_vec();
    v.extend_from_slice(&round.to_le_bytes());
    v
}

/// A round's VRF input hashed to the curve: every key that evaluates it
/// and every claim that answers it shares the hash.
fn round_vrf_input(round: u64) -> VrfInput {
    VrfInput::new(&round_input(round))
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
    self_select_at(sk, client, &round_vrf_input(round), cfg)
}

/// [`self_select`] against a round input hashed already.
pub(crate) fn self_select_at(
    sk: &VrfSecretKey,
    client: u32,
    input: &VrfInput,
    cfg: &SamplingConfig,
) -> Option<ParticipationClaim> {
    let (output, proof) = sk.evaluate(input);
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

/// Verifies one claim, whose proof `checked` holds already parsed and
/// subgroup-checked, against its round's input and returns its selection
/// value.
///
/// # Errors
///
/// A human-readable reason: unregistered key, non-verifying proof,
/// output/proof mismatch, or a value above the threshold (an invalid
/// self-selection the server should never have accepted).
fn verify_claim(
    claim: &ParticipationClaim,
    checked: &Result<CheckedProof, CryptoError>,
    keys: &dyn Fn(u32) -> Option<VrfPublicKey>,
    input: &VrfInput,
    cfg: &SamplingConfig,
) -> Result<u64, String> {
    let pk = keys(claim.client)
        .ok_or_else(|| format!("no VRF key registered for client {}", claim.client))?;
    let output = checked
        .as_ref()
        .map_err(Clone::clone)
        .and_then(|proof| pk.verify(input, proof))
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

/// Verifier side (server or any peer): verify every claim individually —
/// a forged, replayed or tampered claim, or a repeat of an already-valid
/// claimant, costs only its sender a seat and lands in
/// [`SeatingOutcome::rejected`] — then trim the valid ones to the target
/// size by ascending selection value (indiscriminate trimming on the
/// claimants' own randomness). The seated cohort is in that order, which
/// becomes the round's client list on both execution paths.
#[must_use]
pub fn seat_claims(
    claims: &[ParticipationClaim],
    keys: &dyn Fn(u32) -> Option<VrfPublicKey>,
    round: u64,
    cfg: &SamplingConfig,
) -> SeatingOutcome {
    seat_claims_at(claims, keys, &round_vrf_input(round), cfg)
}

/// [`seat_claims`] against a round input hashed already. The claims'
/// `Γ`s are subgroup-checked two a pass first; each claim is then
/// verified in order, with the checks in the order a lone verification
/// makes them, so every rejection reads as it would alone.
pub(crate) fn seat_claims_at(
    claims: &[ParticipationClaim],
    keys: &dyn Fn(u32) -> Option<VrfPublicKey>,
    input: &VrfInput,
    cfg: &SamplingConfig,
) -> SeatingOutcome {
    let checked = VrfProof::check_all(claims.iter().map(|c| &c.proof));
    let mut valid: Vec<(u64, u32)> = Vec::with_capacity(claims.len());
    let mut rejected = Vec::new();
    for (claim, checked) in claims.iter().zip(&checked) {
        match verify_claim(claim, checked, keys, input, cfg) {
            // One seat per claimant: a resubmitted valid claim is a
            // duplicate, not a second lottery ticket.
            Ok(_) if valid.iter().any(|&(_, c)| c == claim.client) => {
                rejected.push((
                    claim.client,
                    format!("client {}: duplicate claim", claim.client),
                ));
            }
            Ok(value) => valid.push((value, claim.client)),
            Err(why) => rejected.push((claim.client, why)),
        }
    }
    valid.sort_unstable();
    valid.truncate(cfg.target_sample);
    SeatingOutcome {
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

    /// Seats `claims` for `round` and returns the cohort.
    fn seat(claims: &[ParticipationClaim], round: u64) -> SeatingOutcome {
        seat_claims(claims, &registry, round, &cfg())
    }

    /// `claims` seats all but its first claimant, which lands alone in
    /// `rejected`.
    fn assert_only_first_rejected(claims: &[ParticipationClaim], round: u64) {
        let cohort = seat(claims, round);
        let rejected: Vec<u32> = cohort.rejected.iter().map(|(id, _)| *id).collect();
        assert_eq!(rejected, [claims[0].client]);
        assert_eq!(cohort.seated.len(), (claims.len() - 1).min(16));
        assert!(!cohort.seated.contains(&claims[0].client));
    }

    #[test]
    fn verification_accepts_honest_claims_and_trims() {
        let claims = claims_for_round(7);
        let cohort = seat(&claims, 7);
        assert!(cohort.rejected.is_empty(), "{:?}", cohort.rejected);
        assert_eq!(cohort.seated.len(), claims.len().min(16));
        // The sampled set must be a subset of claimants.
        for id in &cohort.seated {
            assert!(claims.iter().any(|c| c.client == *id));
        }
        // Deterministic.
        assert_eq!(cohort.seated, seat(&claims, 7).seated);
    }

    #[test]
    fn samples_vary_across_rounds() {
        let s1 = seat(&claims_for_round(1), 1).seated;
        let s2 = seat(&claims_for_round(2), 2).seated;
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
        claims.insert(0, forged);
        assert_only_first_rejected(&claims, 3);
    }

    #[test]
    fn replayed_round_rejected() {
        // A claim from round 3 cannot be replayed in round 4.
        let mut claims = claims_for_round(4);
        let stale = claims_for_round(3)
            .into_iter()
            .find(|old| claims.iter().all(|c| c.client != old.client))
            .expect("a round-3 claimant sits out round 4");
        claims.insert(0, stale);
        assert_only_first_rejected(&claims, 4);
    }

    #[test]
    fn tampered_output_rejected() {
        let mut claims = claims_for_round(5);
        claims[0].output[0] ^= 1;
        assert_only_first_rejected(&claims, 5);
    }

    #[test]
    fn unknown_client_rejected() {
        let mut claims = claims_for_round(6);
        claims[0].client = 1000;
        assert_only_first_rejected(&claims, 6);
    }

    #[test]
    fn duplicate_claim_rejected() {
        // A claim seats its sender once: a resubmitted copy (same
        // client, same proof) must not take a second seat.
        let mut claims = claims_for_round(8);
        let dup = seat(&claims, 8).seated[0];
        let copy = claims.iter().find(|c| c.client == dup).cloned();
        claims.extend(copy);
        let cohort = seat(&claims, 8);
        assert_eq!(cohort.seated.iter().filter(|&&id| id == dup).count(), 1);
        assert_eq!(cohort.rejected.len(), 1);
        assert_eq!(cohort.rejected[0].0, dup);
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
        // One forged claim must not abort the whole batch: seat_claims
        // seats the honest cohort and names the forger.
        let mut claims = claims_for_round(9);
        let honest = claims.len();
        let outsider = (0..100u32)
            .find(|&id| self_select(&key_for(id), id, 9, &cfg()).is_none())
            .expect("someone is unselected");
        let mut forged = claims[0].clone();
        forged.client = outsider;
        claims.push(forged);

        let cohort = seat_claims(&claims, &registry, 9, &cfg());
        assert_eq!(cohort.rejected.len(), 1);
        assert_eq!(cohort.rejected[0].0, outsider);
        assert_eq!(cohort.seated.len(), honest.min(16));
        assert!(!cohort.seated.contains(&outsider));
        // The forgery costs nobody else anything: the honest batch
        // alone seats the identical cohort.
        let honest_claims = claims_for_round(9);
        let trimmed = seat_claims(&honest_claims, &registry, 9, &cfg()).seated;
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

    /// What an unselected client can build with its own key and the
    /// public construction: `Γ + T` for a `T` of the given order (2 or 8)
    /// whose output falls under the threshold, and a proof for it —
    /// honest commitments, nonces retried until `c·T = O`, so that `s·H −
    /// c·(Γ + T) = k·H` holds.
    fn shifted_claim(round: u64, order: u32) -> ParticipationClaim {
        use dordis_crypto::ed25519::{Point, Scalar};
        use dordis_crypto::hmac::hkdf;
        use dordis_crypto::sha256::{sha256, sha256_concat};
        let input = round_input(round);
        let h = (0u32..)
            .filter_map(|ctr| {
                let digest = sha256_concat(&[b"dordis.vrf.h2c", &ctr.to_le_bytes(), &input]);
                Point::decompress(&digest).ok()
            })
            .map(|p| p.double().double().double())
            .find(|p| !p.is_identity())
            .expect("a counter hashes to the curve");
        // Order 8 from l·P of a hashed-to point, then its multiples.
        let l_minus_one = Scalar::ZERO.sub(Scalar::ONE);
        let order8 = (0u8..)
            .filter_map(|i| Point::decompress(&sha256(&[i])).ok())
            .map(|p| p.mul_scalar(&l_minus_one).add(&p))
            .find(|t| !t.double().double().is_identity())
            .expect("some hashed point has a torsion component of order 8");
        let shifts: Vec<Point> = match order {
            2 => vec![order8.double().double()],
            8 => [1, 3, 5, 7]
                .map(|k| order8.mul_scalar(&Scalar::from_u64(k)))
                .to_vec(),
            _ => unreachable!("orders 2 and 8 only"),
        };
        for id in (0..100u32).filter(|&id| self_select(&key_for(id), id, round, &cfg()).is_none()) {
            let mut seed = [0u8; 32];
            seed[..4].copy_from_slice(&id.to_le_bytes());
            seed[31] = 0xfe;
            let x = Scalar::from_wide_bytes(&hkdf(b"dordis.vrf.keygen", &seed, b"scalar"));
            let pk = key_for(id).public_key().to_bytes();
            for t in &shifts {
                let gamma = h.mul_scalar(&x).add(t).compress();
                let output = sha256_concat(&[b"dordis.vrf.out", &gamma]);
                if selection_value(&output) > cfg().threshold() {
                    continue;
                }
                for attempt in 1u64.. {
                    let k = Scalar::from_u64(attempt);
                    let [kb, kh] = [Point::mul_base(&k), h.mul_scalar(&k)].map(|p| p.compress());
                    let parts: [&[u8]; 6] =
                        [b"dordis.vrf.chal", &pk, &h.compress(), &gamma, &kb, &kh];
                    let c_bytes = sha256_concat(&parts);
                    let c = Scalar::from_bytes_mod_l(&c_bytes);
                    if t.mul_scalar(&c).is_identity() {
                        let s = k.add(c.mul(x)).to_bytes();
                        let proof = VrfProof {
                            gamma,
                            c: c_bytes,
                            s,
                        };
                        return ParticipationClaim {
                            client: id,
                            output,
                            proof,
                        };
                    }
                }
            }
        }
        unreachable!("some unselected client's shifted output self-selects")
    }

    #[test]
    fn small_order_shifted_claims_rejected() {
        // A VRF output must be unique: a Γ shifted by a small-order point
        // would give an unselected client a second draw (up to eight with
        // order 8), and its claim must cost it the seat, not the round.
        for order in [2, 8] {
            let mut claims = claims_for_round(10);
            claims.insert(0, shifted_claim(10, order));
            assert_only_first_rejected(&claims, 10);
            let cohort = seat(&claims, 10);
            assert!(
                cohort.rejected[0].1.contains("bad VRF proof"),
                "{:?}",
                cohort.rejected
            );
            assert_eq!(cohort.seated, seat(&claims[1..], 10).seated);
        }
    }

    /// The seating oracle: each claim verified alone from its bytes, on
    /// its own hash of the round input, in order — what `seat_claims`
    /// did before it checked the claims' `Γ`s two a pass.
    fn seat_one_by_one(claims: &[ParticipationClaim], round: u64) -> SeatingOutcome {
        let mut valid: Vec<(u64, u32)> = Vec::new();
        let mut rejected = Vec::new();
        for claim in claims {
            let verdict = registry(claim.client)
                .ok_or_else(|| format!("no VRF key registered for client {}", claim.client))
                .and_then(|pk| {
                    pk.verify(&round_input(round), &claim.proof)
                        .map_err(|e| format!("client {}: bad VRF proof: {e}", claim.client))
                })
                .and_then(|output| {
                    if output != claim.output {
                        Err(format!(
                            "client {}: output does not match proof",
                            claim.client
                        ))
                    } else if selection_value(&output) > cfg().threshold() {
                        Err(format!("client {}: not actually selected", claim.client))
                    } else {
                        Ok(selection_value(&output))
                    }
                });
            match verdict {
                Ok(_) if valid.iter().any(|&(_, c)| c == claim.client) => rejected.push((
                    claim.client,
                    format!("client {}: duplicate claim", claim.client),
                )),
                Ok(value) => valid.push((value, claim.client)),
                Err(why) => rejected.push((claim.client, why)),
            }
        }
        valid.sort_unstable();
        valid.truncate(cfg().target_sample);
        SeatingOutcome {
            seated: valid.into_iter().map(|(_, c)| c).collect(),
            rejected,
        }
    }

    /// `seat_claims` seats exactly what the one-by-one oracle seats, in
    /// the same order and with the same rejections, on odd and even claim
    /// counts with a forged, an order-2 and an order-8 shifted, an
    /// unregistered (with an honest and with a shifted proof) and a
    /// duplicate claim in either slot of a pair or last — so checking
    /// `Γ`s two a pass changes no outcome.
    #[test]
    fn seat_claims_matches_the_one_by_one_oracle() {
        let round = 10;
        let honest = claims_for_round(round);
        let outsider = (0..100u32)
            .find(|&id| self_select(&key_for(id), id, round, &cfg()).is_none())
            .expect("someone is unselected");
        let mut forged = honest[0].clone();
        forged.client = outsider;
        let mut unregistered = honest[1].clone();
        unregistered.client = 1000;
        // Unregistered and shifted: the key lookup must still come first.
        let mut unregistered_shifted = shifted_claim(round, 2);
        unregistered_shifted.client = 1001;
        let bad = [
            forged,
            shifted_claim(round, 2),
            shifted_claim(round, 8),
            unregistered,
            unregistered_shifted,
            honest[2].clone(),
        ];
        for len in [honest.len() - 1, honest.len()] {
            for claim in &bad {
                for at in [0, 1, 2, 3, len] {
                    let mut claims = honest[..len].to_vec();
                    claims.insert(at, claim.clone());
                    let (got, want) = (seat(&claims, round), seat_one_by_one(&claims, round));
                    assert_eq!(got.seated, want.seated, "{len} claims, bad one at {at}");
                    assert_eq!(got.rejected, want.rejected, "{len} claims, bad one at {at}");
                    assert!(!got.rejected.is_empty());
                }
            }
            let mut all = honest[..len].to_vec();
            all.splice(1..1, bad.iter().cloned());
            let (got, want) = (seat(&all, round), seat_one_by_one(&all, round));
            assert_eq!(got.seated, want.seated, "{len} claims and every bad one");
            assert_eq!(
                got.rejected, want.rejected,
                "{len} claims and every bad one"
            );
        }
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
            let sampled = seat_claims(&claims_for_round(round), &registry, round, &cfg()).seated;
            total_sampled += sampled.len();
            dishonest_sampled += sampled.iter().filter(|c| dishonest.contains(c)).count();
        }
        let frac = dishonest_sampled as f64 / total_sampled as f64;
        assert!(frac < 0.15, "dishonest fraction {frac}");
    }
}
