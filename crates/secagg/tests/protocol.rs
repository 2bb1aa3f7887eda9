//! End-to-end protocol tests: correctness of the masked sum under every
//! dropout pattern, for SecAgg, SecAgg+, and both threat models.

use std::collections::BTreeMap;

use dordis_secagg::client::ClientInput;
use dordis_secagg::driver::{run_round, DropStage, DropoutSchedule, RoundSpec};
use dordis_secagg::graph::MaskingGraph;
use dordis_secagg::{ClientId, RoundParams, SecAggError, ThreatModel};

const BITS: u32 = 16;
const DIM: usize = 8;

fn params(n: u32, t: usize, graph: MaskingGraph, threat: ThreatModel) -> RoundParams {
    RoundParams {
        round: 7,
        clients: (0..n).collect(),
        threshold: t,
        bit_width: BITS,
        vector_len: DIM,
        noise_components: 0,
        threat_model: threat,
        graph,
    }
}

/// Deterministic test vector for a client.
fn vector_for(id: ClientId) -> Vec<u64> {
    (0..DIM)
        .map(|i| ((u64::from(id) + 1) * 131 + i as u64 * 17) % (1 << BITS))
        .collect()
}

fn inputs(n: u32, seeds: usize) -> BTreeMap<ClientId, ClientInput> {
    (0..n)
        .map(|id| {
            (
                id,
                ClientInput {
                    vector: vector_for(id),
                    noise_seeds: (0..seeds).map(|k| [id as u8 + k as u8 + 1; 32]).collect(),
                },
            )
        })
        .collect()
}

fn expected_sum(survivors: &[ClientId]) -> Vec<u64> {
    let mut sum = vec![0u64; DIM];
    for &id in survivors {
        for (s, v) in sum.iter_mut().zip(vector_for(id)) {
            *s = (*s + v) & ((1 << BITS) - 1);
        }
    }
    sum
}

#[test]
fn full_round_no_dropout() {
    let spec = RoundSpec {
        params: params(8, 5, MaskingGraph::Complete, ThreatModel::SemiHonest),
        inputs: inputs(8, 0),
        dropout: DropoutSchedule::none(),
        rng_seed: 1,
    };
    let (outcome, aborted) = run_round(spec).unwrap();
    assert_eq!(outcome.survivors.len(), 8);
    assert!(outcome.dropped.is_empty());
    assert_eq!(outcome.sum, expected_sum(&(0..8).collect::<Vec<_>>()));
    assert!(aborted.is_empty());
}

#[test]
fn dropout_before_masked_input_excludes_client() {
    // The paper's dropout model: sampled, shared keys, then vanished.
    let mut dropout = DropoutSchedule::none();
    dropout.drop_at(2, DropStage::BeforeMaskedInput);
    dropout.drop_at(5, DropStage::BeforeMaskedInput);
    let spec = RoundSpec {
        params: params(8, 5, MaskingGraph::Complete, ThreatModel::SemiHonest),
        inputs: inputs(8, 0),
        dropout,
        rng_seed: 2,
    };
    let (outcome, _) = run_round(spec).unwrap();
    assert_eq!(outcome.dropped, vec![2, 5]);
    assert_eq!(outcome.sum, expected_sum(&[0, 1, 3, 4, 6, 7]));
}

#[test]
fn dropout_before_share_keys() {
    let mut dropout = DropoutSchedule::none();
    dropout.drop_at(0, DropStage::BeforeShareKeys);
    let spec = RoundSpec {
        params: params(7, 4, MaskingGraph::Complete, ThreatModel::SemiHonest),
        inputs: inputs(7, 0),
        dropout,
        rng_seed: 3,
    };
    let (outcome, _) = run_round(spec).unwrap();
    assert_eq!(outcome.dropped, vec![0]);
    assert_eq!(outcome.sum, expected_sum(&[1, 2, 3, 4, 5, 6]));
}

#[test]
fn dropout_before_advertise() {
    let mut dropout = DropoutSchedule::none();
    dropout.drop_at(3, DropStage::BeforeAdvertise);
    let spec = RoundSpec {
        params: params(6, 4, MaskingGraph::Complete, ThreatModel::SemiHonest),
        inputs: inputs(6, 0),
        dropout,
        rng_seed: 4,
    };
    let (outcome, _) = run_round(spec).unwrap();
    assert_eq!(outcome.sum, expected_sum(&[0, 1, 2, 4, 5]));
}

#[test]
fn dropout_between_masking_and_unmasking_still_recovers() {
    // Client 1 submits its masked input then vanishes: its self-mask must
    // be reconstructed from shares and its input stays in the sum.
    let mut dropout = DropoutSchedule::none();
    dropout.drop_at(1, DropStage::BeforeUnmasking);
    let spec = RoundSpec {
        params: params(8, 5, MaskingGraph::Complete, ThreatModel::SemiHonest),
        inputs: inputs(8, 0),
        dropout,
        rng_seed: 5,
    };
    let (outcome, _) = run_round(spec).unwrap();
    // Client 1 IS a survivor — its vector is included.
    assert!(outcome.survivors.contains(&1));
    assert_eq!(outcome.sum, expected_sum(&(0..8).collect::<Vec<_>>()));
}

#[test]
fn secagg_plus_full_round() {
    let spec = RoundSpec {
        params: params(12, 7, MaskingGraph::harary_for(12), ThreatModel::SemiHonest),
        inputs: inputs(12, 0),
        dropout: DropoutSchedule::none(),
        rng_seed: 6,
    };
    let (outcome, _) = run_round(spec).unwrap();
    assert_eq!(outcome.sum, expected_sum(&(0..12).collect::<Vec<_>>()));
}

#[test]
fn secagg_plus_with_dropout() {
    let mut dropout = DropoutSchedule::none();
    dropout.drop_at(4, DropStage::BeforeMaskedInput);
    dropout.drop_at(9, DropStage::BeforeUnmasking);
    let spec = RoundSpec {
        params: params(12, 6, MaskingGraph::harary_for(12), ThreatModel::SemiHonest),
        inputs: inputs(12, 0),
        dropout,
        rng_seed: 7,
    };
    let (outcome, _) = run_round(spec).unwrap();
    let survivors: Vec<ClientId> = (0..12).filter(|&c| c != 4).collect();
    assert_eq!(outcome.sum, expected_sum(&survivors));
}

#[test]
fn malicious_model_full_round() {
    let spec = RoundSpec {
        params: params(8, 5, MaskingGraph::Complete, ThreatModel::Malicious),
        inputs: inputs(8, 0),
        dropout: DropoutSchedule::none(),
        rng_seed: 9,
    };
    let (outcome, aborted) = run_round(spec).unwrap();
    assert_eq!(outcome.sum, expected_sum(&(0..8).collect::<Vec<_>>()));
    assert!(aborted.is_empty());
}

#[test]
fn malicious_model_with_dropout() {
    let mut dropout = DropoutSchedule::none();
    dropout.drop_at(6, DropStage::BeforeMaskedInput);
    let spec = RoundSpec {
        params: params(8, 5, MaskingGraph::Complete, ThreatModel::Malicious),
        inputs: inputs(8, 0),
        dropout,
        rng_seed: 10,
    };
    let (outcome, _) = run_round(spec).unwrap();
    assert_eq!(outcome.dropped, vec![6]);
    assert_eq!(outcome.sum, expected_sum(&[0, 1, 2, 3, 4, 5, 7]));
}

#[test]
fn xnoise_seeds_revealed_match_dropout() {
    // T = 3 components, 1 dropout => survivors reveal k in {2, 3}.
    let n = 8u32;
    let t_noise = 3;
    let mut p = params(n, 5, MaskingGraph::Complete, ThreatModel::SemiHonest);
    p.noise_components = t_noise;
    let mut dropout = DropoutSchedule::none();
    dropout.drop_at(3, DropStage::BeforeMaskedInput);
    let spec = RoundSpec {
        params: p,
        inputs: inputs(n, t_noise + 1),
        dropout,
        rng_seed: 11,
    };
    let (outcome, _) = run_round(spec).unwrap();
    let survivors: Vec<ClientId> = (0..n).filter(|&c| c != 3).collect();
    // Each survivor reveals exactly components 2 and 3 (1-based), never 0
    // or 1, and the dropped client reveals nothing.
    for &u in &survivors {
        let ks: Vec<usize> = outcome
            .removal_seeds
            .iter()
            .filter(|(c, _, _)| *c == u)
            .map(|(_, k, _)| *k)
            .collect();
        assert_eq!(ks, vec![2, 3], "client {u}");
    }
    assert!(!outcome.removal_seeds.iter().any(|(c, _, _)| *c == 3));
    // Revealed seeds match the inputs we handed in.
    for (c, k, seed) in &outcome.removal_seeds {
        assert_eq!(seed, &[*c as u8 + *k as u8 + 1; 32]);
    }
}

#[test]
fn xnoise_seed_recovery_via_stage5() {
    // Client 2 delivers its masked input but drops before unmasking: its
    // seeds must be reconstructed from Shamir shares in stage 5.
    let n = 8u32;
    let t_noise = 2;
    let mut p = params(n, 5, MaskingGraph::Complete, ThreatModel::SemiHonest);
    p.noise_components = t_noise;
    let mut dropout = DropoutSchedule::none();
    dropout.drop_at(2, DropStage::BeforeUnmasking);
    let spec = RoundSpec {
        params: p,
        inputs: inputs(n, t_noise + 1),
        dropout,
        rng_seed: 12,
    };
    let (outcome, _) = run_round(spec).unwrap();
    // No client officially dropped (|D| = 0), so removal range is 1..=2,
    // including client 2's seeds recovered from shares.
    let ks: Vec<usize> = outcome
        .removal_seeds
        .iter()
        .filter(|(c, _, _)| *c == 2)
        .map(|(_, k, _)| *k)
        .collect();
    assert_eq!(ks, vec![1, 2]);
    for (c, k, seed) in outcome.removal_seeds.iter().filter(|(c, _, _)| *c == 2) {
        assert_eq!(seed, &[*c as u8 + *k as u8 + 1; 32], "component {k}");
    }
}

#[test]
fn no_seeds_revealed_when_dropout_hits_tolerance() {
    // T = 2 and exactly 2 dropouts: nothing should be removed.
    let n = 8u32;
    let mut p = params(n, 5, MaskingGraph::Complete, ThreatModel::SemiHonest);
    p.noise_components = 2;
    let mut dropout = DropoutSchedule::none();
    dropout.drop_at(0, DropStage::BeforeMaskedInput);
    dropout.drop_at(1, DropStage::BeforeMaskedInput);
    let spec = RoundSpec {
        params: p,
        inputs: inputs(n, 3),
        dropout,
        rng_seed: 13,
    };
    let (outcome, _) = run_round(spec).unwrap();
    assert!(outcome.removal_seeds.is_empty());
}

#[test]
fn below_threshold_aborts() {
    let mut dropout = DropoutSchedule::none();
    for id in 0..5 {
        dropout.drop_at(id, DropStage::BeforeMaskedInput);
    }
    let spec = RoundSpec {
        params: params(8, 5, MaskingGraph::Complete, ThreatModel::SemiHonest),
        inputs: inputs(8, 0),
        dropout,
        rng_seed: 14,
    };
    match run_round(spec) {
        Err(SecAggError::BelowThreshold { stage, live, .. }) => {
            assert_eq!(stage, "MaskedInputCollection");
            assert_eq!(live, 3);
        }
        other => panic!("expected threshold abort, got {other:?}"),
    }
}

#[test]
fn missing_input_is_config_error() {
    let mut ins = inputs(4, 0);
    ins.remove(&2);
    let spec = RoundSpec {
        params: params(4, 3, MaskingGraph::Complete, ThreatModel::SemiHonest),
        inputs: ins,
        dropout: DropoutSchedule::none(),
        rng_seed: 15,
    };
    assert!(matches!(run_round(spec), Err(SecAggError::Config(_))));
}

#[test]
fn deterministic_given_seed() {
    let make = || RoundSpec {
        params: params(6, 4, MaskingGraph::Complete, ThreatModel::SemiHonest),
        inputs: inputs(6, 0),
        dropout: DropoutSchedule::none(),
        rng_seed: 16,
    };
    let (a, _) = run_round(make()).unwrap();
    let (b, _) = run_round(make()).unwrap();
    assert_eq!(a.sum, b.sum);
}
