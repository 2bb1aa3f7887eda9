//! Full-protocol aggregation: the semantic pipeline backed by the real
//! SecAgg / SecAgg+ state machines.
//!
//! Used by integration tests and examples to demonstrate end-to-end
//! equivalence: masking cancels exactly, so the protocol-path aggregate
//! equals the semantic modular sum, and XNoise removal over the
//! protocol-delivered seeds equals semantic removal.

use std::collections::BTreeMap;

use dordis_crypto::prg::Seed;
use dordis_secagg::client::ClientInput;
use dordis_secagg::driver::{
    round_rng_seed, run_round, DropStage, DropoutSchedule, RoundSpec, RoundStats,
};
use dordis_secagg::graph::MaskingGraph;
use dordis_secagg::{ClientId, RoundParams, ThreatModel};
use dordis_xnoise::decomposition::XNoisePlan;
use dordis_xnoise::enforcement::{derive_component_seeds, perturb, remove_excess};

use crate::DordisError;

/// Configuration for one protocol-backed aggregation round.
#[derive(Clone, Debug)]
pub struct ProtocolRoundConfig {
    /// Round number.
    pub round: u64,
    /// SecAgg threshold `t`.
    pub threshold: usize,
    /// Ring bit width.
    pub bit_width: u32,
    /// Masking graph (complete = SecAgg, Harary = SecAgg+).
    pub graph: MaskingGraph,
    /// Threat model.
    pub threat_model: ThreatModel,
    /// XNoise plan (None = aggregate without noise enforcement).
    pub xnoise: Option<XNoisePlan>,
    /// Deterministic seed.
    pub seed: u64,
}

/// Result of a protocol-backed round.
#[derive(Clone, Debug)]
pub struct ProtocolRoundOutcome {
    /// The aggregate over survivors, after XNoise removal (if enabled).
    pub sum: Vec<u64>,
    /// Surviving client ids.
    pub survivors: Vec<ClientId>,
    /// Dropped client ids.
    pub dropped: Vec<ClientId>,
    /// Traffic statistics from the protocol run.
    pub stats: RoundStats,
}

/// Runs one aggregation round through the full protocol stack.
///
/// `updates` maps client id to its encoded (un-noised) update; noise is
/// added here per the XNoise plan before masking, exactly as the client
/// stack would. `drop_before_masking` lists clients that vanish after key
/// sharing (the paper's dropout model).
///
/// # Errors
///
/// Rejects empty update sets; propagates protocol aborts and
/// noise-enforcement failures.
pub fn run_protocol_round(
    cfg: &ProtocolRoundConfig,
    updates: &BTreeMap<ClientId, Vec<u64>>,
    drop_before_masking: &[ClientId],
) -> Result<ProtocolRoundOutcome, DordisError> {
    let clients: Vec<ClientId> = updates.keys().copied().collect();
    let vector_len = updates
        .values()
        .next()
        .map(Vec::len)
        .ok_or_else(|| DordisError::Config("no updates".into()))?;

    let noise_components = cfg.xnoise.as_ref().map_or(0, |p| p.dropout_tolerance);
    let params = RoundParams {
        round: cfg.round,
        clients,
        threshold: cfg.threshold,
        bit_width: cfg.bit_width,
        vector_len,
        noise_components,
        threat_model: cfg.threat_model,
        graph: cfg.graph,
    };
    let n = params.clients.len();

    // Build per-client inputs: perturb with decomposed noise, attach the
    // component seeds for Shamir backup.
    let mut inputs: BTreeMap<ClientId, ClientInput> = BTreeMap::new();
    for (&id, update) in updates {
        let mut vector = update.clone();
        let noise_seeds: Vec<Seed> = if let Some(plan) = &cfg.xnoise {
            let round_seed = client_round_seed(cfg.seed, cfg.round, id);
            let seeds = derive_component_seeds(&round_seed, plan.dropout_tolerance);
            perturb(&mut vector, &seeds, plan, cfg.bit_width)?;
            seeds
        } else {
            Vec::new()
        };
        inputs.insert(
            id,
            ClientInput {
                vector,
                noise_seeds,
            },
        );
    }

    let mut dropout = DropoutSchedule::none();
    for &id in drop_before_masking {
        dropout.drop_at(id, DropStage::BeforeMaskedInput);
    }
    let (outcome, stats) = run_round(RoundSpec {
        params,
        inputs,
        dropout,
        // The networked client's per-round derivation, so a session
        // round with the same seed is bit-equal to this one.
        rng_seed: round_rng_seed(cfg.seed, cfg.round),
    })?;

    let mut sum = outcome.sum;
    if let Some(plan) = &cfg.xnoise {
        let dropped = n - outcome.survivors.len();
        if dropped <= plan.dropout_tolerance {
            remove_excess(
                &mut sum,
                &outcome.removal_seeds,
                &outcome.survivors,
                plan,
                cfg.bit_width,
            )?;
        }
    }
    Ok(ProtocolRoundOutcome {
        sum,
        survivors: outcome.survivors,
        dropped: outcome.dropped,
        stats,
    })
}

/// The deterministic demo update used by the `dordis serve`/`join` TCP
/// demo: both sides derive it from the client id alone, so the server
/// can verify the survivor aggregate without ever seeing an individual
/// update.
#[must_use]
pub fn demo_update(client: ClientId, dim: usize, bit_width: u32) -> Vec<u64> {
    let ring = (1u64 << bit_width) - 1;
    (0..dim).map(|i| demo_element(client, i, ring)).collect()
}

/// Element `i` of [`demo_update`] in the ring `Z_{ring + 1}` — for a
/// verifier that folds the survivors' updates without building them.
#[must_use]
pub fn demo_element(client: ClientId, i: usize, ring: u64) -> u64 {
    (u64::from(client) * 1009 + i as u64 * 31 + 7) & ring
}

/// The deterministic per-(run, round, client) seed used for noise
/// derivation — shared with every engine of the FL round loop
/// ([`crate::session`]) so they can be compared bit for bit.
#[must_use]
pub fn client_round_seed(run_seed: u64, round: u64, client: ClientId) -> Seed {
    let mut s = [0u8; 32];
    s[..8].copy_from_slice(&run_seed.to_le_bytes());
    s[8..16].copy_from_slice(&round.to_le_bytes());
    s[16..20].copy_from_slice(&client.to_le_bytes());
    s[31] = 0xc5;
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use dordis_secagg::mask::ring_mask;

    const BITS: u32 = 16;
    const DIM: usize = 12;

    fn updates(n: u32) -> BTreeMap<ClientId, Vec<u64>> {
        (0..n)
            .map(|id| {
                (
                    id,
                    (0..DIM)
                        .map(|i| (u64::from(id) * 97 + i as u64 * 13) & ring_mask(BITS))
                        .collect(),
                )
            })
            .collect()
    }

    fn expected_sum(updates: &BTreeMap<ClientId, Vec<u64>>, survivors: &[ClientId]) -> Vec<u64> {
        let mut sum = vec![0u64; DIM];
        for id in survivors {
            for (s, v) in sum.iter_mut().zip(updates[id].iter()) {
                *s = (*s + *v) & ring_mask(BITS);
            }
        }
        sum
    }

    fn config(xnoise: Option<XNoisePlan>) -> ProtocolRoundConfig {
        ProtocolRoundConfig {
            round: 5,
            threshold: 5,
            bit_width: BITS,
            graph: MaskingGraph::Complete,
            threat_model: ThreatModel::SemiHonest,
            xnoise,
            seed: 99,
        }
    }

    #[test]
    fn no_noise_protocol_round_equals_plain_sum() {
        let ups = updates(8);
        let out = run_protocol_round(&config(None), &ups, &[]).unwrap();
        assert_eq!(out.sum, expected_sum(&ups, &out.survivors));
        assert_eq!(out.survivors.len(), 8);
    }

    #[test]
    fn xnoise_protocol_round_residual_noise_only() {
        // With XNoise, the protocol aggregate equals plain sum + residual
        // noise of variance σ²∗ (small here so the check is loose but
        // nontrivial: every coordinate must be within a few σ of truth).
        let ups = updates(8);
        let plan = XNoisePlan::new(9.0, 8, 3, 0, 5).unwrap();
        let out = run_protocol_round(&config(Some(plan)), &ups, &[]).unwrap();
        let truth = expected_sum(&ups, &out.survivors);
        let half = 1i64 << (BITS - 1);
        let modulus = 1i64 << BITS;
        for (got, want) in out.sum.iter().zip(truth.iter()) {
            let mut diff = *got as i64 - *want as i64;
            if diff > half {
                diff -= modulus;
            }
            if diff < -half {
                diff += modulus;
            }
            assert!(diff.abs() < 30, "residual {diff} too large");
        }
    }

    #[test]
    fn xnoise_protocol_round_with_dropout() {
        let ups = updates(8);
        let plan = XNoisePlan::new(9.0, 8, 3, 0, 5).unwrap();
        let out = run_protocol_round(&config(Some(plan)), &ups, &[2, 6]).unwrap();
        assert_eq!(out.dropped, vec![2, 6]);
        let truth = expected_sum(&ups, &out.survivors);
        let half = 1i64 << (BITS - 1);
        let modulus = 1i64 << BITS;
        for (got, want) in out.sum.iter().zip(truth.iter()) {
            let mut diff = *got as i64 - *want as i64;
            if diff > half {
                diff -= modulus;
            }
            if diff < -half {
                diff += modulus;
            }
            assert!(diff.abs() < 30, "residual {diff} too large");
        }
    }

    #[test]
    fn secagg_plus_path_works() {
        let ups = updates(12);
        let mut cfg = config(None);
        cfg.graph = MaskingGraph::harary_for(12);
        cfg.threshold = 6;
        let out = run_protocol_round(&cfg, &ups, &[]).unwrap();
        assert_eq!(out.sum, expected_sum(&ups, &out.survivors));
    }

    #[test]
    fn malicious_path_works() {
        let ups = updates(8);
        let mut cfg = config(Some(XNoisePlan::new(4.0, 8, 2, 0, 5).unwrap()));
        cfg.threat_model = ThreatModel::Malicious;
        let out = run_protocol_round(&cfg, &ups, &[1]).unwrap();
        assert_eq!(out.dropped, vec![1]);
        assert!(out.stats.stage("ConsistencyCheck").is_some());
    }

    #[test]
    fn empty_updates_rejected() {
        let err = run_protocol_round(&config(None), &BTreeMap::new(), &[]);
        assert!(matches!(err, Err(DordisError::Config(_))));
    }
}
