//! Transport equivalence: the same round (same seed, same inputs, same
//! dropout pattern) executed through the in-memory driver and through a
//! `dordis-net` deployment on 127.0.0.1 must produce the identical aggregate
//! sum, survivor set, and recovered XNoise removal seeds.
//!
//! The client runtime derives its per-client RNGs exactly as the driver
//! does, so the equivalence is bit-for-bit, not just distributional.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use dordis_net::coordinator::{DropKind, NetRoundReport};
use dordis_net::local;
use dordis_net::runtime::{round_rng_seed, FailAction, FailPoint, FailStage};
use dordis_net::session::SessionConfig;
use dordis_secagg::client::{ClientInput, Identity};
use dordis_secagg::driver::{run_round, signing_key_for, DropStage, DropoutSchedule, RoundSpec};
use dordis_secagg::graph::MaskingGraph;
use dordis_secagg::server::RoundOutcome;
use dordis_secagg::{ClientId, RoundParams, ThreatModel};

const BITS: u32 = 16;
const DIM: usize = 12;
const SEED: u64 = 424_242;
const JOIN: Duration = Duration::from_secs(10);

fn params(n: u32, threshold: usize, graph: MaskingGraph, threat: ThreatModel) -> RoundParams {
    RoundParams {
        round: 7,
        clients: (0..n).collect(),
        threshold,
        bit_width: BITS,
        vector_len: DIM,
        noise_components: 2,
        threat_model: threat,
        graph,
    }
}

fn inputs(n: u32) -> BTreeMap<ClientId, ClientInput> {
    (0..n)
        .map(|id| {
            (
                id,
                ClientInput {
                    vector: (0..DIM)
                        .map(|i| (u64::from(id) * 131 + i as u64 * 17) & ((1 << BITS) - 1))
                        .collect(),
                    noise_seeds: vec![[id as u8 + 1; 32]; 3],
                },
            )
        })
        .collect()
}

/// Runs the identical round through the driver.
fn driver_round(
    params: &RoundParams,
    inputs: &BTreeMap<ClientId, ClientInput>,
    drops: &[(ClientId, DropStage)],
) -> RoundOutcome {
    let mut dropout = DropoutSchedule::none();
    for &(id, stage) in drops {
        dropout.drop_at(id, stage);
    }
    let (outcome, _) = run_round(RoundSpec {
        params: params.clone(),
        inputs: inputs.clone(),
        dropout,
        rng_seed: round_rng_seed(SEED, params.round),
    })
    .expect("driver round");
    outcome
}

/// Runs the identical round through dordis-net on 127.0.0.1: a one-round
/// session joined by every id in `inputs` (a sampled id without an
/// input never connects).
fn net_round(
    params: &RoundParams,
    inputs: &BTreeMap<ClientId, ClientInput>,
    fails: &BTreeMap<ClientId, FailPoint>,
    join_timeout: Duration,
    stage_timeout: Duration,
) -> NetRoundReport {
    net_round_chunked(params, inputs, fails, join_timeout, stage_timeout, 1)
}

/// [`net_round`] with the masked input streamed in `chunks` frames.
fn net_round_chunked(
    params: &RoundParams,
    inputs: &BTreeMap<ClientId, ClientInput>,
    fails: &BTreeMap<ClientId, FailPoint>,
    join_timeout: Duration,
    stage_timeout: Duration,
    chunks: usize,
) -> NetRoundReport {
    let (mut acceptor, addr) = local::listen();
    let registry: Option<Arc<BTreeMap<ClientId, _>>> =
        if params.threat_model == ThreatModel::Malicious {
            Some(Arc::new(
                params
                    .clients
                    .iter()
                    .map(|&id| (id, signing_key_for(SEED, id).verifying_key()))
                    .collect(),
            ))
        } else {
            None
        };
    let cfg = SessionConfig {
        join_timeout,
        stage_timeout,
        chunks,
        ..local::one_round(params.clone())
    };
    let (inputs, fails) = (inputs.clone(), fails.clone());
    let ids: Vec<ClientId> = inputs.keys().copied().collect();
    let (mut reports, clients) = local::run_session(&mut acceptor, cfg, ids, move |id| {
        let mut chan = local::dial(&addr);
        let identity = registry.clone().map(|reg| Identity {
            signing: signing_key_for(SEED, id),
            registry: reg,
        });
        local::roster_client(
            &mut chan,
            id,
            SEED,
            |_| fails.get(&id).copied(),
            |_| inputs[&id].clone(),
            identity,
        )
    });
    for (id, run) in clients {
        run.unwrap_or_else(|e| panic!("client {id}: {e}"));
    }
    reports.pop().expect("one round")
}

fn sorted_seeds(outcome: &RoundOutcome) -> Vec<(ClientId, usize, [u8; 32])> {
    let mut seeds = outcome.removal_seeds.clone();
    seeds.sort();
    seeds
}

fn assert_equivalent(driver: &RoundOutcome, net: &NetRoundReport) {
    assert_eq!(driver.sum, net.outcome.sum, "aggregate sums differ");
    assert_eq!(
        driver.survivors, net.outcome.survivors,
        "survivor sets differ"
    );
    assert_eq!(driver.dropped, net.outcome.dropped, "dropped sets differ");
    assert_eq!(
        sorted_seeds(driver),
        sorted_seeds(&net.outcome),
        "removal seeds differ"
    );
}

fn expected_sum(inputs: &BTreeMap<ClientId, ClientInput>, survivors: &[ClientId]) -> Vec<u64> {
    let mut sum = vec![0u64; DIM];
    for id in survivors {
        for (s, v) in sum.iter_mut().zip(inputs[id].vector.iter()) {
            *s = (*s + *v) & ((1 << BITS) - 1);
        }
    }
    sum
}

#[test]
fn equivalent_no_dropout_xnoise_round() {
    // XNoise-enabled at the protocol layer: every client carries T=2
    // shared noise-seed components that the server must hand back.
    let p = params(8, 5, MaskingGraph::Complete, ThreatModel::SemiHonest);
    let ins = inputs(8);
    let d = driver_round(&p, &ins, &[]);
    let n = net_round(&p, &ins, &BTreeMap::new(), JOIN, Duration::from_secs(5));
    assert_equivalent(&d, &n);
    assert_eq!(d.sum, expected_sum(&ins, &d.survivors));
    assert_eq!(n.outcome.survivors.len(), 8);
    assert!(n.dropouts.is_empty(), "{:?}", n.dropouts);
    // Every survivor's seeds for components 1..=2 were recovered.
    assert_eq!(sorted_seeds(&n.outcome).len(), 16);
}

#[test]
fn equivalent_with_disconnect_dropouts() {
    let p = params(8, 5, MaskingGraph::Complete, ThreatModel::SemiHonest);
    let ins = inputs(8);
    let drops = [
        (2, DropStage::BeforeMaskedInput),
        (6, DropStage::BeforeMaskedInput),
    ];
    let fails: BTreeMap<ClientId, FailPoint> = [2u32, 6]
        .into_iter()
        .map(|id| {
            (
                id,
                FailPoint {
                    stage: FailStage::MaskedInput,
                    action: FailAction::Disconnect,
                },
            )
        })
        .collect();
    let d = driver_round(&p, &ins, &drops);
    let n = net_round(&p, &ins, &fails, JOIN, Duration::from_secs(5));
    assert_equivalent(&d, &n);
    assert_eq!(n.outcome.dropped, vec![2, 6]);
    assert!(n
        .dropouts
        .iter()
        .any(|x| x.client == 2 && x.kind == DropKind::Disconnected));
}

#[test]
fn equivalent_secagg_plus_sparse_graph() {
    let p = params(12, 6, MaskingGraph::harary_for(12), ThreatModel::SemiHonest);
    let ins = inputs(12);
    let drops = [(4, DropStage::BeforeMaskedInput)];
    let fails: BTreeMap<ClientId, FailPoint> = [(
        4u32,
        FailPoint {
            stage: FailStage::MaskedInput,
            action: FailAction::Disconnect,
        },
    )]
    .into_iter()
    .collect();
    let d = driver_round(&p, &ins, &drops);
    let n = net_round(&p, &ins, &fails, JOIN, Duration::from_secs(5));
    assert_equivalent(&d, &n);
}

#[test]
fn equivalent_sparse_round_with_holder_only_u1() {
    // Each client's holder set is itself and 6 neighbours out of 40, so
    // U1 holds 7 of the roster's 40 entries. XNoise on and the input
    // streamed in chunks: client 10 dies after its first chunk frame,
    // client 12 (a neighbour of 10) after a complete stream, before
    // unmasking, so its self-mask seed and noise seeds come back
    // through the holders.
    let graph = MaskingGraph::Harary { half_degree: 3 };
    let p = params(40, 4, graph, ThreatModel::SemiHonest);
    let ins = inputs(40);
    let drops = [
        (10, DropStage::BeforeMaskedInput),
        (12, DropStage::BeforeUnmasking),
    ];
    let fails: BTreeMap<ClientId, FailPoint> = [
        (10u32, FailStage::MaskedInputAfterChunks(1)),
        (12, FailStage::Unmasking),
    ]
    .into_iter()
    .map(|(id, stage)| {
        (
            id,
            FailPoint {
                stage,
                action: FailAction::Disconnect,
            },
        )
    })
    .collect();
    let d = driver_round(&p, &ins, &drops);
    let n = net_round_chunked(&p, &ins, &fails, JOIN, Duration::from_secs(5), 3);
    assert_equivalent(&d, &n);
    assert_eq!(n.outcome.dropped, vec![10]);
    let survivors: Vec<ClientId> = (0..40).filter(|&id| id != 10).collect();
    assert_eq!(n.outcome.survivors, survivors);
    assert_eq!(n.outcome.sum, expected_sum(&ins, &survivors));
    let mid_stream = n
        .dropouts
        .iter()
        .find(|x| x.client == 10)
        .expect("client 10 detected");
    assert_eq!(mid_stream.stage, "MaskedInputCollection");
    assert_eq!(
        mid_stream.chunk,
        Some(1),
        "died after its first chunk frame"
    );
    assert!(n.dropouts.iter().any(|x| x.client == 12));
}

#[test]
fn equivalent_malicious_model_round() {
    let p = params(8, 5, MaskingGraph::Complete, ThreatModel::Malicious);
    let ins = inputs(8);
    let drops = [(1, DropStage::BeforeMaskedInput)];
    let fails: BTreeMap<ClientId, FailPoint> = [(
        1u32,
        FailPoint {
            stage: FailStage::MaskedInput,
            action: FailAction::Disconnect,
        },
    )]
    .into_iter()
    .collect();
    let d = driver_round(&p, &ins, &drops);
    let n = net_round(&p, &ins, &fails, JOIN, Duration::from_secs(5));
    assert_equivalent(&d, &n);
    assert!(n.stats.stage("ConsistencyCheck").is_some());
}

#[test]
fn silent_client_detected_by_stage_deadline() {
    // The client stays connected but never sends its masked input; only
    // the per-stage deadline can catch this one.
    let p = params(6, 4, MaskingGraph::Complete, ThreatModel::SemiHonest);
    let ins = inputs(6);
    let fails: BTreeMap<ClientId, FailPoint> = [(
        3u32,
        FailPoint {
            stage: FailStage::MaskedInput,
            action: FailAction::Silent,
        },
    )]
    .into_iter()
    .collect();
    let d = driver_round(&p, &ins, &[(3, DropStage::BeforeMaskedInput)]);
    let n = net_round(&p, &ins, &fails, JOIN, Duration::from_millis(900));
    assert_equivalent(&d, &n);
    let detection = n
        .dropouts
        .iter()
        .find(|x| x.client == 3)
        .expect("client 3 detected");
    assert_eq!(detection.kind, DropKind::DeadlineMissed);
    assert_eq!(detection.stage, "MaskedInputCollection");
}

#[test]
fn never_joining_client_is_an_advertise_dropout() {
    // Client 5 never connects at all; the round proceeds without it.
    let p = params(6, 4, MaskingGraph::Complete, ThreatModel::SemiHonest);
    let ins = inputs(6);

    let mut joining = ins.clone();
    joining.remove(&5);
    let report = net_round(
        &p,
        &joining,
        &BTreeMap::new(),
        Duration::from_millis(800),
        Duration::from_secs(5),
    );
    assert_eq!(report.outcome.dropped, vec![5]);
    assert!(report
        .dropouts
        .iter()
        .any(|d| d.client == 5 && d.kind == DropKind::NeverJoined));

    // And it matches the driver with a BeforeAdvertise drop.
    let d = driver_round(&p, &ins, &[(5, DropStage::BeforeAdvertise)]);
    assert_eq!(d.sum, report.outcome.sum);
    assert_eq!(d.survivors, report.outcome.survivors);
}
