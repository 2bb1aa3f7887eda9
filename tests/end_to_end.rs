//! Cross-crate integration: the full Dordis stack from model deltas to a
//! noised, decoded aggregate — a `secagg::driver` round vs the plain
//! semantic sum, bit for bit, and Theorem 1 on a released round.

use std::collections::BTreeMap;

use dordis_dp::encoding::{Encoder, EncodingConfig};
use dordis_secagg::client::ClientInput;
use dordis_secagg::driver::{round_rng_seed, run_round, DropStage, DropoutSchedule, RoundSpec};
use dordis_secagg::graph::MaskingGraph;
use dordis_secagg::server::RoundOutcome;
use dordis_secagg::{plain, ClientId, RoundParams, ThreatModel};
use dordis_xnoise::decomposition::XNoisePlan;
use dordis_xnoise::enforcement::{center, derive_component_seeds, perturb, remove_excess};

const BITS: u32 = 20;
const SEED: u64 = 777;

/// Builds encoded updates for `n` clients from synthetic float deltas.
fn encoded_updates(n: u32, dim: usize, rotation: [u8; 32]) -> BTreeMap<ClientId, Vec<u64>> {
    let cfg = EncodingConfig::default();
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

/// Each client's round input: its update perturbed with the plan's
/// `T + 1` noise components, and the component seeds it backs up.
fn perturbed_inputs(
    updates: &BTreeMap<ClientId, Vec<u64>>,
    plan: &XNoisePlan,
) -> BTreeMap<ClientId, ClientInput> {
    updates
        .iter()
        .map(|(&id, update)| {
            let noise_seeds = derive_component_seeds(&[id as u8 + 1; 32], plan.dropout_tolerance);
            let mut vector = update.clone();
            perturb(&mut vector, &noise_seeds, plan, BITS).unwrap();
            (
                id,
                ClientInput {
                    vector,
                    noise_seeds,
                },
            )
        })
        .collect()
}

/// A semi-honest SecAgg round over every client of `plan`, sized to
/// their (encoded, so padded) inputs.
fn params(plan: &XNoisePlan, round: u64, inputs: &BTreeMap<ClientId, ClientInput>) -> RoundParams {
    RoundParams {
        round,
        clients: (0..plan.clients as ClientId).collect(),
        threshold: plan.threshold,
        bit_width: BITS,
        vector_len: inputs[&0].vector.len(),
        noise_components: plan.dropout_tolerance,
        threat_model: ThreatModel::SemiHonest,
        graph: MaskingGraph::Complete,
    }
}

/// The protocol side: one `secagg::driver` round in which `drop` vanish
/// after key sharing, then excess removal over the seeds the protocol
/// recovered through Shamir.
fn protocol_release(
    params: RoundParams,
    inputs: &BTreeMap<ClientId, ClientInput>,
    plan: &XNoisePlan,
    drop: &[ClientId],
) -> (RoundOutcome, Vec<ClientId>) {
    let mut dropout = DropoutSchedule::none();
    for &id in drop {
        dropout.drop_at(id, DropStage::BeforeMaskedInput);
    }
    let rng_seed = round_rng_seed(SEED, params.round);
    let (mut outcome, aborted) = run_round(RoundSpec {
        params,
        inputs: inputs.clone(),
        dropout,
        rng_seed,
    })
    .unwrap();
    let (seeds, survivors) = (&outcome.removal_seeds, &outcome.survivors);
    remove_excess(&mut outcome.sum, seeds, survivors, plan, BITS).unwrap();
    (outcome, aborted)
}

/// The semantic side: the plain modular sum of the survivors' perturbed
/// inputs, then excess removal over the hand-derived seed set
/// (components `|D| + 1 ..= T` of every survivor).
fn semantic_release(
    inputs: &BTreeMap<ClientId, ClientInput>,
    survivors: &[ClientId],
    plan: &XNoisePlan,
) -> Vec<u64> {
    let vectors = survivors
        .iter()
        .map(|&id| (id, inputs[&id].vector.clone()))
        .collect();
    let mut sum = plain::aggregate(&vectors, BITS).unwrap();
    let dropped = plan.clients - survivors.len();
    let removal: Vec<_> = survivors
        .iter()
        .flat_map(|&id| {
            ((dropped + 1)..=plan.dropout_tolerance)
                .map(move |k| (id, k, inputs[&id].noise_seeds[k]))
        })
        .collect();
    remove_excess(&mut sum, &removal, survivors, plan, BITS).unwrap();
    sum
}

#[test]
fn protocol_path_matches_semantic_path_bit_for_bit() {
    let dim = 40usize;
    let plan = XNoisePlan::new(400.0, 8, 3, 0, 5).unwrap();
    let inputs = perturbed_inputs(&encoded_updates(8, dim, [9u8; 32]), &plan);
    let (outcome, _) = protocol_release(params(&plan, 4, &inputs), &inputs, &plan, &[1, 6]);
    let semantic = semantic_release(&inputs, &outcome.survivors, &plan);
    assert_eq!(outcome.sum, semantic, "masking must cancel exactly");
}

#[test]
fn protocol_path_matches_semantic_under_secagg_plus() {
    let dim = 24usize;
    let plan = XNoisePlan::new(100.0, 12, 2, 0, 7).unwrap();
    let inputs = perturbed_inputs(&encoded_updates(12, dim, [4u8; 32]), &plan);
    let params = RoundParams {
        graph: MaskingGraph::harary_for(12),
        ..params(&plan, 9, &inputs)
    };
    let (outcome, _) = protocol_release(params, &inputs, &plan, &[0]);
    let semantic = semantic_release(&inputs, &outcome.survivors, &plan);
    assert_eq!(outcome.sum, semantic);
}

#[test]
fn decoded_aggregate_approximates_true_mean() {
    // Whole pipeline including decode: the noised mean should be close to
    // the true mean of the client deltas (noise is scaled to be small
    // relative to the signal here).
    let n = 8u32;
    let dim = 40usize;
    let cfg_enc = EncodingConfig::default();
    let enc = Encoder::new(&cfg_enc, [6u8; 32]);
    let deltas: Vec<Vec<f64>> = (0..n)
        .map(|id| {
            (0..dim)
                .map(|i| 0.05 * ((id as f64 + 1.0) * (i as f64 + 1.0) * 0.07).cos())
                .collect()
        })
        .collect();
    let updates: BTreeMap<ClientId, Vec<u64>> = deltas
        .iter()
        .enumerate()
        .map(|(id, d)| (id as u32, enc.encode(d, &[id as u8 + 80; 32]).unwrap()))
        .collect();
    let plan = XNoisePlan::new(16.0, n as usize, 3, 0, 5).unwrap();
    let inputs = perturbed_inputs(&updates, &plan);
    let (outcome, _) = protocol_release(params(&plan, 2, &inputs), &inputs, &plan, &[]);
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
    let dim = 16usize;
    let plan = XNoisePlan::new(64.0, 9, 3, 1, 6).unwrap();
    let inputs = perturbed_inputs(&encoded_updates(9, dim, [2u8; 32]), &plan);
    let params = RoundParams {
        threat_model: ThreatModel::Malicious,
        ..params(&plan, 12, &inputs)
    };
    let (outcome, aborted) = protocol_release(params, &inputs, &plan, &[4, 8]);
    assert_eq!(outcome.dropped, vec![4, 8]);
    assert_eq!(
        outcome.sum,
        semantic_release(&inputs, &outcome.survivors, &plan)
    );
    // With T_C = 1 the residual noise is inflated by t/(t-T_C) = 1.2 —
    // never *below* target, per Theorem 2.
    assert!(plan.inflation() > 1.19 && plan.inflation() < 1.21);
    assert!(aborted.is_empty());
}

#[test]
fn released_round_keeps_exactly_the_target_variance() {
    // Theorem 1 on the protocol's own output: zero inputs, so the
    // released aggregate IS the residual noise, and removal runs over the
    // seeds the round recovered through Shamir — not a hand-built set.
    let dim = 30_000usize;
    let plan = XNoisePlan::new(100.0, 8, 3, 0, 5).unwrap();
    let zeros = (0..8).map(|id| (id, vec![0u64; dim])).collect();
    let inputs = perturbed_inputs(&zeros, &plan);
    for drop in [0usize, 2, 3] {
        let dropped = &[1, 4, 6][..drop];
        let (outcome, _) = protocol_release(params(&plan, 3, &inputs), &inputs, &plan, dropped);
        assert_eq!(outcome.dropped, dropped);
        let xs: Vec<f64> = outcome
            .sum
            .iter()
            .map(|&v| center(v, BITS) as f64)
            .collect();
        let mean = xs.iter().sum::<f64>() / dim as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (dim as f64 - 1.0);
        assert!(
            (var - plan.target_variance).abs() < 6.0,
            "{drop} dropped: released variance {var}"
        );
    }
}
