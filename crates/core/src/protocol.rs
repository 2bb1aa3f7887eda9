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
    /// Requested chunk count `m` for the networked data plane
    /// (`None` = planner-chosen via the §4.2 cost-model sweep). The
    /// in-memory driver path is the unchunked reference the chunked
    /// networked path is pinned bit-equal against.
    pub chunks: Option<usize>,
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

/// Builds the round parameters and perturbed per-client inputs shared by
/// the in-memory and networked execution paths.
///
/// # Errors
///
/// Rejects empty update sets; propagates noise-enforcement failures.
fn build_round(
    cfg: &ProtocolRoundConfig,
    updates: &BTreeMap<ClientId, Vec<u64>>,
) -> Result<(RoundParams, BTreeMap<ClientId, ClientInput>), DordisError> {
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
    Ok((params, inputs))
}

/// Applies post-round XNoise removal and assembles the outcome.
fn finish_round(
    cfg: &ProtocolRoundConfig,
    n: usize,
    outcome: dordis_secagg::server::RoundOutcome,
    stats: RoundStats,
) -> Result<ProtocolRoundOutcome, DordisError> {
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

/// Runs one aggregation round through the full protocol stack.
///
/// `updates` maps client id to its encoded (un-noised) update; noise is
/// added here per the XNoise plan before masking, exactly as the client
/// stack would. `drop_before_masking` lists clients that vanish after key
/// sharing (the paper's dropout model).
///
/// # Errors
///
/// Propagates protocol aborts and noise-enforcement failures.
pub fn run_protocol_round(
    cfg: &ProtocolRoundConfig,
    updates: &BTreeMap<ClientId, Vec<u64>>,
    drop_before_masking: &[ClientId],
) -> Result<ProtocolRoundOutcome, DordisError> {
    let (params, inputs) = build_round(cfg, updates)?;
    let n = params.clients.len();
    let mut dropout = DropoutSchedule::none();
    for &id in drop_before_masking {
        dropout.drop_at(id, DropStage::BeforeMaskedInput);
    }
    let (outcome, stats) = run_round(RoundSpec {
        params,
        inputs,
        dropout,
        // The networked path's per-round derivation, so the two paths
        // stay bit-equal.
        rng_seed: round_rng_seed(cfg.seed, cfg.round),
    })?;
    finish_round(cfg, n, outcome, stats)
}

/// Runs the same aggregation round through `dordis-net`: a one-round
/// loopback session with a real coordinator, client runtimes on
/// threads, a wire codec in between, and dropout *detected* by the
/// coordinator rather than scripted. Produces the same
/// [`ProtocolRoundOutcome`] as [`run_protocol_round`] — the equivalence
/// tests pin the two paths to identical sums and survivor sets.
///
/// `drop_before_masking` clients disconnect just before sending their
/// masked input (the networked analogue of the paper's dropout model).
///
/// # Errors
///
/// Propagates protocol aborts, transport failures, and
/// noise-enforcement failures.
pub fn run_protocol_round_networked(
    cfg: &ProtocolRoundConfig,
    updates: &BTreeMap<ClientId, Vec<u64>>,
    drop_before_masking: &[ClientId],
) -> Result<ProtocolRoundOutcome, DordisError> {
    use dordis_net::runtime::{
        run_session_client, FailAction, FailPoint, FailStage, SessionClientOptions,
    };
    use dordis_net::session::{Seating, Session, SessionConfig};
    use dordis_net::transport::LoopbackHub;
    use std::sync::Arc;
    use std::time::Duration;

    let (params, inputs) = build_round(cfg, updates)?;
    let n = params.clients.len();
    // Planner-chosen chunk count unless pinned by the caller (§4.2).
    let chunks = cfg.chunks.unwrap_or_else(|| {
        dordis_pipeline::planned_chunk_count(params.vector_len, n, params.bit_width)
    });

    // PKI stand-in for the malicious model, identical to the driver's.
    let registry = (cfg.threat_model == ThreatModel::Malicious).then(|| {
        Arc::new(
            params
                .clients
                .iter()
                .map(|&id| {
                    (
                        id,
                        dordis_secagg::driver::signing_key_for(cfg.seed, id).verifying_key(),
                    )
                })
                .collect::<BTreeMap<_, _>>(),
        )
    });

    let (hub, mut acceptor) = LoopbackHub::new();
    let mut handles = Vec::new();
    for (&id, input) in &inputs {
        let hub = hub.clone();
        let input = input.clone();
        let fail = drop_before_masking.contains(&id).then_some(FailPoint {
            stage: FailStage::MaskedInput,
            action: FailAction::Disconnect,
        });
        let registry = registry.clone();
        let seed = cfg.seed;
        handles.push(std::thread::spawn(move || {
            let mut chan = hub
                .connect(&format!("client-{id}"))
                .map_err(|e| format!("connect: {e}"))?;
            let opts = SessionClientOptions {
                id,
                rng_seed: seed,
                recv_timeout: Duration::from_secs(60),
                silent_linger: Duration::from_secs(1),
            };
            run_session_client(
                &mut chan,
                &opts,
                |_| None,
                |_| fail,
                |_, _, _, _| Ok(input.clone()),
                |_| {
                    registry.clone().map(|reg| dordis_secagg::client::Identity {
                        signing: dordis_secagg::driver::signing_key_for(seed, id),
                        registry: reg,
                    })
                },
            )
            .map_err(|e| format!("client {id}: {e}"))
        }));
    }

    let session_cfg = SessionConfig {
        first_round: params.round,
        join_timeout: Duration::from_secs(30),
        stage_timeout: Duration::from_secs(30),
        chunks,
        ..SessionConfig::new(1, Seating::Roster, Box::new(move |_, _| params.clone()))
    };
    let mut session = Session::new(&mut acceptor, session_cfg)
        .map_err(|e| DordisError::Config(format!("networked round: {e}")))?;
    let report = session.run_round(&[]);
    session.finish();
    let report = report.map_err(|e| DordisError::Config(format!("networked round: {e}")))?;
    for h in handles {
        h.join()
            .map_err(|_| DordisError::Config("client thread panicked".into()))?
            .map_err(DordisError::Config)?;
    }
    finish_round(cfg, n, report.outcome, report.stats)
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
/// derivation — shared with the semantic path so the two can be compared
/// bit for bit.
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
            chunks: Some(1),
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

    #[test]
    fn networked_round_matches_driver_round() {
        let ups = updates(8);
        let cfg = config(None);
        let mem = run_protocol_round(&cfg, &ups, &[3]).unwrap();
        let net = run_protocol_round_networked(&cfg, &ups, &[3]).unwrap();
        assert_eq!(net.sum, mem.sum);
        assert_eq!(net.survivors, mem.survivors);
        assert_eq!(net.dropped, mem.dropped);
    }

    #[test]
    fn networked_xnoise_round_matches_driver_round() {
        // Full XNoise: perturb before masking, recover seeds over the
        // wire, remove excess after unmasking — both paths bit-equal.
        let ups = updates(8);
        let plan = XNoisePlan::new(9.0, 8, 3, 0, 5).unwrap();
        let cfg = config(Some(plan));
        let mem = run_protocol_round(&cfg, &ups, &[2, 6]).unwrap();
        let net = run_protocol_round_networked(&cfg, &ups, &[2, 6]).unwrap();
        assert_eq!(net.sum, mem.sum);
        assert_eq!(net.survivors, mem.survivors);
        assert_eq!(net.dropped, vec![2, 6]);
    }

    #[test]
    fn chunked_networked_rounds_match_unchunked_driver() {
        // The acceptance pin: with the chunked data plane at m ∈ {1, 4, 8}
        // the networked round is bit-equal to the *unchunked* in-process
        // driver, including an XNoise round with dropout — chunking is a
        // transport/pipelining concern, never a semantic one.
        let ups = updates(8);
        for m in [1usize, 4, 8] {
            let plain = config(None);
            let mem = run_protocol_round(&plain, &ups, &[3]).unwrap();
            let mut chunked = plain.clone();
            chunked.chunks = Some(m);
            let net = run_protocol_round_networked(&chunked, &ups, &[3]).unwrap();
            assert_eq!(net.sum, mem.sum, "m={m}");
            assert_eq!(net.survivors, mem.survivors, "m={m}");
            assert_eq!(net.dropped, mem.dropped, "m={m}");

            let plan = XNoisePlan::new(9.0, 8, 3, 0, 5).unwrap();
            let xn = config(Some(plan));
            let mem = run_protocol_round(&xn, &ups, &[2, 6]).unwrap();
            let mut chunked = xn.clone();
            chunked.chunks = Some(m);
            let net = run_protocol_round_networked(&chunked, &ups, &[2, 6]).unwrap();
            assert_eq!(net.sum, mem.sum, "xnoise m={m}");
            assert_eq!(net.survivors, mem.survivors, "xnoise m={m}");
            assert_eq!(net.dropped, vec![2, 6], "xnoise m={m}");
        }
    }

    #[test]
    fn planner_chosen_chunks_also_match_driver() {
        // chunks: None lets the §4.2 planner pick m; whatever it picks
        // must stay bit-equal to the unchunked reference.
        let ups = updates(8);
        let mut cfg = config(None);
        cfg.chunks = None;
        let mem = run_protocol_round(&config(None), &ups, &[]).unwrap();
        let net = run_protocol_round_networked(&cfg, &ups, &[]).unwrap();
        assert_eq!(net.sum, mem.sum);
        assert_eq!(net.survivors, mem.survivors);
    }

    #[test]
    fn networked_malicious_round_matches_driver_round() {
        let ups = updates(8);
        let mut cfg = config(Some(XNoisePlan::new(4.0, 8, 2, 0, 5).unwrap()));
        cfg.threat_model = ThreatModel::Malicious;
        let mem = run_protocol_round(&cfg, &ups, &[1]).unwrap();
        let net = run_protocol_round_networked(&cfg, &ups, &[1]).unwrap();
        assert_eq!(net.sum, mem.sum);
        assert_eq!(net.survivors, mem.survivors);
        assert!(net.stats.stage("ConsistencyCheck").is_some());
    }
}
