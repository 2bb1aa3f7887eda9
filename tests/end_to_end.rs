//! Cross-crate integration: the full Dordis stack from model deltas to a
//! noised, decoded aggregate — semantic path vs protocol path, bit for
//! bit.

use std::collections::BTreeMap;

use dordis_core::protocol::{client_round_seed, run_protocol_round, ProtocolRoundConfig};
use dordis_dp::encoding::{add_mod, Encoder, EncodingConfig};
use dordis_secagg::graph::MaskingGraph;
use dordis_secagg::ThreatModel;
use dordis_xnoise::decomposition::XNoisePlan;
use dordis_xnoise::enforcement::{derive_component_seeds, perturb, remove_excess};

const BITS: u32 = 20;

fn encoding() -> EncodingConfig {
    EncodingConfig::default()
}

/// Builds encoded updates for `n` clients from synthetic float deltas.
fn encoded_updates(n: u32, dim: usize, rotation: [u8; 32]) -> BTreeMap<u32, Vec<u64>> {
    let cfg = encoding();
    let enc = Encoder::new(&cfg, rotation);
    (0..n)
        .map(|id| {
            let delta: Vec<f64> = (0..dim)
                .map(|i| ((id as f64 + 1.0) * 0.01 * ((i as f64) * 0.3).sin()) * 0.1)
                .collect();
            let seed = [id as u8 + 50; 32];
            (id, enc.encode(&delta, &seed).unwrap())
        })
        .collect()
}

/// The semantic reference: perturb each survivor, modular-sum, remove.
fn semantic_aggregate(
    updates: &BTreeMap<u32, Vec<u64>>,
    survivors: &[u32],
    plan: &XNoisePlan,
    run_seed: u64,
    round: u64,
) -> Vec<u64> {
    let mut sum: Option<Vec<u64>> = None;
    let mut removal = Vec::new();
    let dropped = plan.clients - survivors.len();
    for &id in survivors {
        let mut v = updates[&id].clone();
        let seeds = derive_component_seeds(
            &client_round_seed(run_seed, round, id),
            plan.dropout_tolerance,
        );
        perturb(&mut v, &seeds, plan, BITS).unwrap();
        for k in (dropped + 1)..=plan.dropout_tolerance {
            removal.push((id, k, seeds[k]));
        }
        sum = Some(match sum {
            None => v,
            Some(acc) => add_mod(&acc, &v, BITS),
        });
    }
    let mut sum = sum.unwrap();
    remove_excess(&mut sum, &removal, survivors, plan, BITS).unwrap();
    sum
}

#[test]
fn protocol_path_matches_semantic_path_bit_for_bit() {
    let n = 8u32;
    let dim = 40usize;
    let updates = encoded_updates(n, dim, [9u8; 32]);
    let plan = XNoisePlan::new(400.0, n as usize, 3, 0, 5).unwrap();
    let cfg = ProtocolRoundConfig {
        round: 4,
        threshold: 5,
        bit_width: BITS,
        graph: MaskingGraph::Complete,
        threat_model: ThreatModel::SemiHonest,
        xnoise: Some(plan),
        seed: 777,
    };
    let outcome = run_protocol_round(&cfg, &updates, &[1, 6]).unwrap();
    let semantic = semantic_aggregate(&updates, &outcome.survivors, &plan, 777, 4);
    assert_eq!(outcome.sum, semantic, "masking must cancel exactly");
}

#[test]
fn protocol_path_matches_semantic_under_secagg_plus() {
    let n = 12u32;
    let dim = 24usize;
    let updates = encoded_updates(n, dim, [4u8; 32]);
    let plan = XNoisePlan::new(100.0, n as usize, 2, 0, 7).unwrap();
    let cfg = ProtocolRoundConfig {
        round: 9,
        threshold: 7,
        bit_width: BITS,
        graph: MaskingGraph::harary_for(12),
        threat_model: ThreatModel::SemiHonest,
        xnoise: Some(plan),
        seed: 31,
    };
    let outcome = run_protocol_round(&cfg, &updates, &[0]).unwrap();
    let semantic = semantic_aggregate(&updates, &outcome.survivors, &plan, 31, 9);
    assert_eq!(outcome.sum, semantic);
}

#[test]
fn decoded_aggregate_approximates_true_mean() {
    // Whole pipeline including decode: the noised mean should be close to
    // the true mean of the client deltas (noise is scaled to be small
    // relative to the signal here).
    let n = 8u32;
    let dim = 40usize;
    let cfg_enc = encoding();
    let rotation = [6u8; 32];
    let enc = Encoder::new(&cfg_enc, rotation);
    let deltas: Vec<Vec<f64>> = (0..n)
        .map(|id| {
            (0..dim)
                .map(|i| 0.05 * ((id as f64 + 1.0) * (i as f64 + 1.0) * 0.07).cos())
                .collect()
        })
        .collect();
    let updates: BTreeMap<u32, Vec<u64>> = deltas
        .iter()
        .enumerate()
        .map(|(id, d)| (id as u32, enc.encode(d, &[id as u8 + 80; 32]).unwrap()))
        .collect();
    let plan = XNoisePlan::new(16.0, n as usize, 3, 0, 5).unwrap();
    let cfg = ProtocolRoundConfig {
        round: 2,
        threshold: 5,
        bit_width: BITS,
        graph: MaskingGraph::Complete,
        threat_model: ThreatModel::SemiHonest,
        xnoise: Some(plan),
        seed: 55,
    };
    let outcome = run_protocol_round(&cfg, &updates, &[]).unwrap();
    let decoded = enc.decode(&outcome.sum, dim);
    for (i, d) in decoded.iter().enumerate() {
        let truth: f64 = deltas.iter().map(|v| v[i]).sum();
        // Noise std is 4 in the integer domain, /gamma in the real domain.
        assert!(
            (d - truth).abs() < 6.0 * 4.0 / cfg_enc.gamma + 0.1,
            "coord {i}: {d} vs {truth}"
        );
    }
}

#[test]
fn malicious_protocol_with_xnoise_and_dropout_end_to_end() {
    let n = 9u32;
    let dim = 16usize;
    let updates = encoded_updates(n, dim, [2u8; 32]);
    let plan = XNoisePlan::new(64.0, n as usize, 3, 1, 6).unwrap();
    let cfg = ProtocolRoundConfig {
        round: 12,
        threshold: 6,
        bit_width: BITS,
        graph: MaskingGraph::Complete,
        threat_model: ThreatModel::Malicious,
        xnoise: Some(plan),
        seed: 1234,
    };
    let outcome = run_protocol_round(&cfg, &updates, &[4, 8]).unwrap();
    assert_eq!(outcome.dropped, vec![4, 8]);
    // With T_C = 1 the residual noise is inflated by t/(t-T_C) = 1.2 —
    // never *below* target, per Theorem 2.
    assert!(plan.inflation() > 1.19 && plan.inflation() < 1.21);
    assert!(outcome.stats.stage("ConsistencyCheck").is_some());
}
