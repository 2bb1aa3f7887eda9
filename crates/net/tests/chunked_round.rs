//! Chunked data-plane equivalence: a networked round that streams the
//! masked input as `m` chunk frames (collected, aggregated, and unmasked
//! per chunk) must stay bit-equal to the *unchunked* in-memory driver —
//! chunking is a transport/pipelining concern, never a semantic one.
//! Partial chunk streams are the new dropout mode: a client that stops
//! mid-stream never reaches U3, exactly like a missed single-frame
//! masked input.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use dordis_net::codec::{self, encode_list, Encode, Envelope, StageTag};
use dordis_net::coordinator::{DropKind, NetRoundReport};
use dordis_net::local;
use dordis_net::runtime::{round_rng_seed, FailAction, FailPoint, FailStage};
use dordis_net::session::SessionConfig;
use dordis_net::transport::{recv_env, send_env, Channel, ThrottledChannel};
use dordis_net::NetError;
use dordis_secagg::client::{Client, ClientInput};
use dordis_secagg::driver::{client_rng, run_round, DropStage, DropoutSchedule, RoundSpec};
use dordis_secagg::graph::MaskingGraph;
use dordis_secagg::messages::{EncryptedShares, MaskedInput};
use dordis_secagg::server::RoundOutcome;
use dordis_secagg::{pack, ChunkPlan, ClientId, RoundParams, ThreatModel};

const BITS: u32 = 16;
const DIM: usize = 48;
const SEED: u64 = 31_337;

fn params(n: u32, threshold: usize, noise_components: usize) -> RoundParams {
    params_at(n, threshold, noise_components, BITS, DIM)
}

fn params_at(
    n: u32,
    threshold: usize,
    noise_components: usize,
    bit_width: u32,
    vector_len: usize,
) -> RoundParams {
    RoundParams {
        round: 9,
        clients: (0..n).collect(),
        threshold,
        bit_width,
        vector_len,
        noise_components,
        threat_model: ThreatModel::SemiHonest,
        graph: MaskingGraph::Complete,
    }
}

fn inputs(n: u32, noise_components: usize) -> BTreeMap<ClientId, ClientInput> {
    inputs_at(n, noise_components, BITS, DIM)
}

fn inputs_at(
    n: u32,
    noise_components: usize,
    bits: u32,
    dim: usize,
) -> BTreeMap<ClientId, ClientInput> {
    let seeds = if noise_components == 0 {
        0
    } else {
        noise_components + 1
    };
    let ring = (1u64 << bits) - 1;
    (0..n)
        .map(|id| {
            (
                id,
                ClientInput {
                    vector: (0..dim)
                        .map(|i| (u64::from(id) * 211 + i as u64 * 13) & ring)
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
        rng_seed: round_rng_seed(SEED, params.round),
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
    let (mut acceptor, addr) = local::listen();
    let cfg = SessionConfig {
        stage_timeout,
        chunks,
        ..local::one_round(params.clone())
    };
    let (inputs, fails) = (inputs.clone(), fails.clone());
    let ids = params.clients.clone();
    let (mut reports, clients) = local::run_session(&mut acceptor, cfg, ids, move |id| {
        let mut chan = local::dial(&addr);
        local::roster_client(
            &mut chan,
            id,
            SEED,
            |_| fails.get(&id).copied(),
            |_| inputs[&id].clone(),
            None,
        )
    });
    for (id, run) in clients {
        run.unwrap_or_else(|e| panic!("client {id}: {e}"));
    }
    reports.pop().expect("one round")
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
    // unmasking exercises stage 5 (noise-seed recovery), after which
    // the coordinator unmasks the round chunk by chunk.
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

/// A connected client that shares no keys (an *empty* `ShareKeys` list
/// keeps it a peer but outside U2) and then streams a well-formed
/// masked-input chunk anyway. That frame is its own protocol violation
/// and must cost the round exactly one dropout — it used to reach the
/// secagg server, whose "outside U2" rejection aborted the round for
/// every honest client.
fn run_keyless_streamer(mut chan: impl Channel, id: ClientId) {
    let far = || Instant::now() + Duration::from_secs(30);
    let setup = loop {
        let env = recv_env(&mut chan, far()).expect("announce or setup");
        match env.stage {
            StageTag::RoundAnnounce => {
                let join =
                    Envelope::new(StageTag::Join, env.round, codec::encode_join_claim(id, &[]));
                send_env(&mut chan, &join).expect("join");
            }
            StageTag::Setup => break env,
            other => panic!("unexpected {other:?} before Setup"),
        }
    };
    let round = setup.round;
    let (params, _chunks, _cohort, _payload) = codec::decode_setup(&setup.body).expect("setup");
    let input = ClientInput {
        vector: vec![0; params.vector_len],
        noise_seeds: vec![[9; 32]; params.noise_components + 1],
    };
    let mut rng = client_rng(round_rng_seed(SEED, round), id);
    let mut client = Client::new(params.clone(), id, input, None, &mut rng).expect("client");
    let adv = client.advertise_keys().expect("advertise");
    let adv = Envelope::new(StageTag::AdvertiseKeys, round, adv.encoded());
    send_env(&mut chan, &adv).expect("advertise");

    assert_eq!(
        recv_env(&mut chan, far()).expect("roster").stage,
        StageTag::Roster
    );
    let no_shares = encode_list::<EncryptedShares>(&[]);
    send_env(
        &mut chan,
        &Envelope::new(StageTag::ShareKeys, round, no_shares),
    )
    .expect("share keys");

    assert_eq!(
        recv_env(&mut chan, far()).expect("inbox").stage,
        StageTag::Inbox
    );
    let masked = MaskedInput {
        client: id,
        vector: vec![1; params.vector_len],
        bit_width: params.bit_width,
    };
    let frame = Envelope::chunked(StageTag::MaskedInput, round, 0, masked.encoded());
    send_env(&mut chan, &frame).expect("masked input");
    // The coordinator hangs up on the violation.
    while recv_env(&mut chan, far()).is_ok() {}
}

/// How the hostile peer of a hostile round breaks its masked-input
/// stream.
#[derive(Clone, Copy, Debug)]
enum Hostile {
    /// Shares no keys, so it sits outside U2, then streams a chunk.
    OutsideU2,
    /// Sends its first chunk frame twice.
    RepeatChunk,
    /// Labels its first chunk frame with this chunk id, past the plan.
    ChunkPastEnd(u16),
    /// Sends its first chunk frame's body one byte short.
    Short,
    /// Sends its first chunk frame's body one byte long.
    Long,
    /// Names this client as the sender of its first chunk frame.
    WrongSender(ClientId),
    /// Sets `bits` (the padding) in the final byte of chunk `chunk`'s
    /// payload — no violation: the bits lie past the last element.
    Padding { chunk: u16, bits: u8 },
}

/// An honest client's channel that breaks one masked-input chunk frame
/// it sends, as its [`Hostile`] says.
struct Tamper {
    inner: Box<dyn Channel>,
    hostile: Hostile,
    tampered: bool,
}

impl Channel for Tamper {
    fn send(&mut self, frame: &[u8]) -> Result<(), NetError> {
        let mut env = Envelope::decode(frame).expect("own frame");
        if self.tampered || env.stage != StageTag::MaskedInput {
            return self.inner.send(frame);
        }
        match self.hostile {
            Hostile::OutsideU2 => unreachable!("never masks an input"),
            Hostile::RepeatChunk => self.inner.send(frame)?,
            Hostile::ChunkPastEnd(chunk) => env.chunk = chunk,
            Hostile::Short => {
                env.body.pop();
            }
            Hostile::Long => env.body.push(0),
            Hostile::WrongSender(other) => env.body[..4].copy_from_slice(&other.to_le_bytes()),
            Hostile::Padding { chunk, bits } => {
                if env.chunk != chunk {
                    return self.inner.send(frame);
                }
                *env.body.last_mut().expect("a payload") |= bits;
            }
        }
        self.tampered = true;
        self.inner.send(&env.encode())
    }

    fn recv_deadline(&mut self, deadline: Instant) -> Result<Vec<u8>, NetError> {
        self.inner.recv_deadline(deadline)
    }

    fn peer(&self) -> String {
        self.inner.peer()
    }
}

/// The client that breaks its masked-input stream in a hostile round.
const HOSTILE: ClientId = 4;

/// Runs one networked round at `chunks` chunks in which [`HOSTILE`]
/// breaks its masked-input stream as `hostile` says and every other
/// client is honest, its uplink paying `throttle` a frame. Every honest
/// client must finish the round.
fn hostile_round(
    p: &RoundParams,
    ins: &BTreeMap<ClientId, ClientInput>,
    hostile: Hostile,
    chunks: usize,
    throttle: Duration,
) -> NetRoundReport {
    let (mut acceptor, addr) = local::listen();
    let inputs = ins.clone();
    let cfg = SessionConfig {
        chunks,
        ..local::one_round(p.clone())
    };
    let ids = p.clients.clone();
    let (mut reports, clients) = local::run_session(&mut acceptor, cfg, ids, move |id| {
        let raw = local::dial(&addr);
        if id == HOSTILE {
            if let Hostile::OutsideU2 = hostile {
                run_keyless_streamer(raw, id);
                return None;
            }
            let mut chan = Tamper {
                inner: Box::new(raw),
                hostile,
                tampered: false,
            };
            // A violator's run ends on a closed channel.
            let input = |_| inputs[&id].clone();
            let _ = local::roster_client(&mut chan, id, SEED, |_| None, input, None);
            return None;
        }
        let mut chan = ThrottledChannel::new(Box::new(raw), u64::MAX, throttle);
        let run =
            local::roster_client(&mut chan, id, SEED, |_| None, |_| inputs[&id].clone(), None);
        Some(run.unwrap_or_else(|e| panic!("client {id}: {e}")))
    });
    for (id, run) in clients {
        let Some(run) = run else { continue };
        // A finished round is an entry in `rounds`.
        assert_eq!(
            run.rounds.len(),
            1,
            "{hostile:?}: honest client {id}: {:?}",
            run.end
        );
    }
    reports.pop().expect("one round")
}

/// The round dropped [`HOSTILE`], for a protocol violation, and no one
/// else.
fn assert_only_hostile_dropped(n: &NetRoundReport, hostile: Hostile) {
    assert_eq!(n.outcome.dropped, vec![HOSTILE], "{hostile:?}");
    assert_eq!(n.dropouts.len(), 1, "{hostile:?}: {:?}", n.dropouts);
    assert_eq!(n.dropouts[0].client, HOSTILE);
    assert_eq!(n.dropouts[0].kind, DropKind::ProtocolViolation);
}

#[test]
fn masked_chunk_from_outside_u2_drops_that_peer_only() {
    // Each hostile stream, the chunk count it runs at, and the driver
    // drop it is equivalent to. A repeated chunk must land before the
    // stream's last one, so that row runs at m = 4; a peer that never
    // completes its stream never folds, so it drops before its masked
    // input.
    let table = [
        (Hostile::OutsideU2, 1, DropStage::BeforeShareKeys),
        (Hostile::RepeatChunk, 4, DropStage::BeforeMaskedInput),
        (Hostile::ChunkPastEnd(4), 4, DropStage::BeforeMaskedInput),
    ];
    let p = params(5, 3, 2);
    let ins = inputs(5, 2);
    for (hostile, chunks, drop) in table {
        let d = driver_round(&p, &ins, &[(HOSTILE, drop)]);
        // Honest uplinks pay 100 ms a frame, so the hostile chunk is on
        // the coordinator's desk while it still collects theirs.
        let n = hostile_round(&p, &ins, hostile, chunks, Duration::from_millis(100));
        assert_equivalent(&d, &n);
        assert_only_hostile_dropped(&n, hostile);
    }
}

#[test]
fn hostile_masked_bodies_drop_only_their_sender_at_every_width() {
    // A body one byte short or long, or naming another client as its
    // sender, or a chunk past the plan, is its sender's violation and
    // nothing else's at every width, on both sides of the server's
    // 32-bit sum word: the server's packed entry refuses it before it
    // reads an element. 45 elements end mid-byte at all but 8 and 32
    // bits; there a stream whose last chunk has its padding bits set is
    // honest, and the bits must not reach the sum.
    const VECTOR_LEN: usize = 45;
    const CHUNKS: usize = 2;
    for bits in [1u32, 8, 20, 32, 33, 62] {
        let p = params_at(5, 3, 0, bits, VECTOR_LEN);
        let ins = inputs_at(5, 0, bits, VECTOR_LEN);
        let plan = ChunkPlan::aligned(VECTOR_LEN, CHUNKS, bits).unwrap();
        let last = plan.chunks() - 1;
        let pad =
            pack::packed_len(plan.chunk_len(last), bits) * 8 - plan.chunk_len(last) * bits as usize;
        let clean = driver_round(&p, &ins, &[]);
        let dropped = driver_round(&p, &ins, &[(HOSTILE, DropStage::BeforeMaskedInput)]);
        let mut table = vec![
            Hostile::Short,
            Hostile::Long,
            Hostile::WrongSender(0),
            Hostile::ChunkPastEnd(plan.chunks() as u16),
        ];
        if pad > 0 {
            table.push(Hostile::Padding {
                chunk: last as u16,
                bits: 0xffu8 << (8 - pad),
            });
        }
        for hostile in table {
            let n = hostile_round(&p, &ins, hostile, CHUNKS, Duration::from_millis(5));
            if let Hostile::Padding { .. } = hostile {
                assert_equivalent(&clean, &n);
                assert!(n.dropouts.is_empty(), "{bits} bits: {:?}", n.dropouts);
            } else {
                assert_equivalent(&dropped, &n);
                assert_only_hostile_dropped(&n, hostile);
            }
        }
    }
}
