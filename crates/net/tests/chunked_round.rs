//! Chunked data-plane equivalence: a networked round that streams the
//! masked input as `m` chunk frames (collected, aggregated, and unmasked
//! per chunk) must stay bit-equal to the *unchunked* in-memory driver —
//! chunking is a transport/pipelining concern, never a semantic one.
//! Partial chunk streams are the new dropout mode: a client that stops
//! mid-stream never reaches U3, exactly like a missed single-frame
//! masked input.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use dordis_net::coordinator::{run_coordinator, CoordinatorConfig, DropKind, NetRoundReport};
use dordis_net::runtime::{run_client, ClientOptions, FailAction, FailPoint, FailStage};
use dordis_net::transport::LoopbackHub;
use dordis_secagg::client::{ClientInput, Identity};
use dordis_secagg::driver::{run_round, signing_key_for, DropStage, DropoutSchedule, RoundSpec};
use dordis_secagg::graph::MaskingGraph;
use dordis_secagg::server::RoundOutcome;
use dordis_secagg::{ClientId, RoundParams, ThreatModel};

const BITS: u32 = 16;
const DIM: usize = 48;
const SEED: u64 = 31_337;

fn params(n: u32, threshold: usize, noise_components: usize) -> RoundParams {
    RoundParams {
        round: 9,
        clients: (0..n).collect(),
        threshold,
        bit_width: BITS,
        vector_len: DIM,
        noise_components,
        threat_model: ThreatModel::SemiHonest,
        graph: MaskingGraph::Complete,
    }
}

fn inputs(n: u32, noise_components: usize) -> BTreeMap<ClientId, ClientInput> {
    let seeds = if noise_components == 0 {
        0
    } else {
        noise_components + 1
    };
    (0..n)
        .map(|id| {
            (
                id,
                ClientInput {
                    vector: (0..DIM)
                        .map(|i| (u64::from(id) * 211 + i as u64 * 13) & ((1 << BITS) - 1))
                        .collect(),
                    noise_seeds: vec![[id as u8 + 1; 32]; seeds],
                },
            )
        })
        .collect()
}

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
        rng_seed: SEED,
    })
    .expect("driver round");
    outcome
}

fn net_round(
    params: &RoundParams,
    inputs: &BTreeMap<ClientId, ClientInput>,
    fails: &BTreeMap<ClientId, FailPoint>,
    chunks: usize,
    stage_timeout: Duration,
) -> NetRoundReport {
    let (hub, mut acceptor) = LoopbackHub::new();
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
    let mut handles = Vec::new();
    for &id in &params.clients {
        let hub = hub.clone();
        let input = inputs[&id].clone();
        let fail = fails.get(&id).copied();
        let registry = registry.clone();
        handles.push(std::thread::spawn(move || {
            let mut chan = hub.connect(&format!("c{id}")).expect("connect");
            let opts = ClientOptions {
                id,
                rng_seed: SEED,
                fail,
                recv_timeout: Duration::from_secs(20),
                silent_linger: Duration::from_secs(2),
            };
            run_client(
                &mut chan,
                &opts,
                move |_| Ok(input),
                move |_| {
                    registry.map(|reg| Identity {
                        signing: signing_key_for(SEED, id),
                        registry: reg,
                    })
                },
            )
        }));
    }
    let report = run_coordinator(
        &mut acceptor,
        &CoordinatorConfig::new(
            params.clone(),
            Duration::from_secs(10),
            stage_timeout,
            chunks,
            None,
        ),
    )
    .expect("coordinator");
    for h in handles {
        h.join().expect("client thread").expect("client run");
    }
    report
}

fn assert_equivalent(driver: &RoundOutcome, net: &NetRoundReport) {
    assert_eq!(driver.sum, net.outcome.sum, "aggregate sums differ");
    assert_eq!(
        driver.survivors, net.outcome.survivors,
        "survivor sets differ"
    );
    assert_eq!(driver.dropped, net.outcome.dropped, "dropped sets differ");
    let sort = |o: &RoundOutcome| {
        let mut s = o.removal_seeds.clone();
        s.sort();
        s
    };
    assert_eq!(sort(driver), sort(&net.outcome), "removal seeds differ");
}

#[test]
fn chunked_rounds_match_unchunked_driver_across_m() {
    // m ∈ {1, 4, 8}: the realized per-chunk wire/aggregation path must
    // reproduce the unchunked driver bit for bit (XNoise bookkeeping
    // included — every client carries noise seeds here).
    let p = params(8, 5, 2);
    let ins = inputs(8, 2);
    let d = driver_round(&p, &ins, &[]);
    for m in [1usize, 4, 8] {
        let n = net_round(&p, &ins, &BTreeMap::new(), m, Duration::from_secs(5));
        assert_equivalent(&d, &n);
        assert!(
            n.chunks >= 1 && n.chunks <= m,
            "realized {} of {m}",
            n.chunks
        );
        assert!(n.dropouts.is_empty(), "m={m}: {:?}", n.dropouts);
    }
}

#[test]
fn midstream_disconnect_is_a_detected_chunk_dropout() {
    // Client 2 sends 2 of 4 chunk frames and disconnects: the partial
    // stream must be detected as a dropout at the chunk it stopped at,
    // and the aggregate must equal the driver's BeforeMaskedInput drop.
    let p = params(8, 5, 2);
    let ins = inputs(8, 2);
    let fails: BTreeMap<ClientId, FailPoint> = [(
        2u32,
        FailPoint {
            stage: FailStage::MaskedInputAfterChunks(2),
            action: FailAction::Disconnect,
        },
    )]
    .into_iter()
    .collect();
    let d = driver_round(&p, &ins, &[(2, DropStage::BeforeMaskedInput)]);
    let n = net_round(&p, &ins, &fails, 4, Duration::from_secs(5));
    assert_equivalent(&d, &n);
    assert_eq!(n.outcome.dropped, vec![2]);
    let det = n
        .dropouts
        .iter()
        .find(|x| x.client == 2)
        .expect("client 2 detected");
    assert_eq!(det.kind, DropKind::Disconnected);
    assert_eq!(det.stage, "MaskedInputCollection");
    assert_eq!(det.chunk, Some(2), "detected at the chunk the stream died");
}

#[test]
fn midstream_silence_hits_the_per_chunk_deadline() {
    // Same partial stream, but the client stays connected and silent:
    // only the *per-chunk* stage deadline can catch it.
    let p = params(6, 4, 0);
    let ins = inputs(6, 0);
    let fails: BTreeMap<ClientId, FailPoint> = [(
        3u32,
        FailPoint {
            stage: FailStage::MaskedInputAfterChunks(1),
            action: FailAction::Silent,
        },
    )]
    .into_iter()
    .collect();
    let d = driver_round(&p, &ins, &[(3, DropStage::BeforeMaskedInput)]);
    let n = net_round(&p, &ins, &fails, 4, Duration::from_millis(700));
    assert_equivalent(&d, &n);
    let det = n
        .dropouts
        .iter()
        .find(|x| x.client == 3)
        .expect("client 3 detected");
    assert_eq!(det.kind, DropKind::DeadlineMissed);
    assert_eq!(det.stage, "MaskedInputCollection");
    assert_eq!(det.chunk, Some(1));
}

#[test]
fn chunked_xnoise_recovery_with_unmasking_dropout() {
    // A client that vanishes *after* its full chunk stream but before
    // unmasking exercises stage 5 (noise-seed recovery) — whose
    // collection the coordinator interleaves with per-chunk unmasking.
    let p = params(8, 5, 3);
    let ins = inputs(8, 3);
    let fails: BTreeMap<ClientId, FailPoint> = [(
        4u32,
        FailPoint {
            stage: FailStage::Unmasking,
            action: FailAction::Disconnect,
        },
    )]
    .into_iter()
    .collect();
    let d = driver_round(&p, &ins, &[(4, DropStage::BeforeUnmasking)]);
    let n = net_round(&p, &ins, &fails, 4, Duration::from_secs(5));
    assert_equivalent(&d, &n);
    // Client 4 is in U3 (its chunks all arrived) but not in U5.
    assert!(n.outcome.survivors.contains(&4));
    assert!(n.stats.stage("ExcessiveNoiseRemoval").is_some());
}
