//! Single-threaded in-memory replay of one SecAgg round, one span per
//! call into a layer.
//!
//! The stepper calls the public stage functions of `dordis-secagg` in
//! protocol order, exactly as the networked runtime and coordinator do,
//! and passes every message through `net::codec` encode → decode and
//! the masked input through `ChunkPlan` split → reassemble. There is no
//! transport, no reactor and no scheduler, so each span is the compute
//! cost of that call and nothing else. Its [`RoundOutcome`] is bit-equal
//! to `secagg::driver::run_round` on the same round (pinned in
//! `tests/stepper_equivalence.rs`).

use std::collections::{BTreeMap, BTreeSet};

use dordis_net::codec::{self, decode_list, encode_list, Encode, Envelope, StageTag};
use dordis_pipeline::ChunkPlan;
use dordis_secagg::client::{Client, ClientInput};
use dordis_secagg::driver::{client_rng, share_keys_rng};
use dordis_secagg::messages::IdList;
use dordis_secagg::server::{RoundOutcome, Server};
use dordis_secagg::{ClientId, RoundParams};

use crate::trace::Recorder;
use crate::Res;

/// Everything that fixes one replayed round besides the clients' inputs.
#[derive(Clone, Debug)]
pub struct RoundScript {
    /// Protocol parameters (cohort, threshold, ring, graph, XNoise `T`).
    pub params: RoundParams,
    /// Chunk count requested of `ChunkPlan::aligned`, as the coordinator
    /// announces it in Setup.
    pub requested_chunks: usize,
    /// The round's protocol seed (what `run_round` takes as `rng_seed`).
    pub rng_seed: u64,
    /// Application payload of the Setup frame (the global model in an FL
    /// session, empty in the demo rounds).
    pub setup_payload: Vec<u8>,
    /// Clients that deliver only this many masked chunk frames and then
    /// disconnect; they never reach U3.
    pub mid_stream: BTreeMap<ClientId, u16>,
    /// Clients whose masked input is in the sum but which disconnect
    /// before answering the survivor set (`U3 \ U5`).
    pub before_unmasking: BTreeSet<ClientId>,
}

/// Bytes the transport puts before every frame.
const LENGTH_PREFIX: u64 = 4;

/// Sender side of one message: body + envelope encoding under a
/// `net.codec.encode` span. `deliveries` is how many peers the frame
/// goes to (a broadcast is encoded once). Two byte counts are kept:
/// `net.codec.bytes`, everything the codec produced as it crosses the
/// wire, and `traffic`, the frames of the SecAgg stages alone — what
/// the coordinator's `traffic:` line adds up.
pub(crate) fn encode(
    rec: &mut Recorder,
    stage: StageTag,
    round: u64,
    chunk: u16,
    deliveries: usize,
    body: impl FnOnce() -> Vec<u8>,
) -> Vec<u8> {
    let frame = rec.span("net.codec.encode", |_| {
        Envelope::chunked(stage, round, chunk, body()).encode()
    });
    let frames = frame.len() as u64 * deliveries as u64;
    rec.count(
        "net.codec.bytes",
        frames + LENGTH_PREFIX * deliveries as u64,
    );
    if !matches!(stage, StageTag::Join | StageTag::Setup | StageTag::Finished) {
        rec.count("traffic", frames);
    }
    frame
}

/// Receiver side of one message: envelope + body decoding under a
/// `net.codec.decode` span.
pub(crate) fn decode<T>(
    rec: &mut Recorder,
    frame: &[u8],
    round: u64,
    body: impl FnOnce(&Envelope) -> Result<T, dordis_net::NetError>,
) -> Res<T> {
    rec.span("net.codec.decode", |_| {
        let env = Envelope::decode(frame)?;
        env.check_round(round)?;
        body(&env)
    })
    .map_err(|e| e.to_string())
}

/// Replays one round. As in the networked runtime, each seated client
/// decodes the Setup frame and `input_for(id, payload, rec)` builds its
/// input from the payload before its state machine is created.
///
/// # Errors
///
/// Any stage failure, as text.
pub fn step_round(
    script: &RoundScript,
    mut input_for: impl FnMut(ClientId, &[u8], &mut Recorder) -> Res<ClientInput>,
    rec: &mut Recorder,
) -> Res<RoundOutcome> {
    let params = &script.params;
    let round = params.round;
    let bits = params.bit_width;
    let plan = ChunkPlan::aligned(params.vector_len, script.requested_chunks.max(1), bits)
        .map_err(|e| e.to_string())?;
    rec.count("pipeline.planner.chunks", plan.chunks() as u64);

    let n = params.clients.len();
    let setup_frame = encode(rec, StageTag::Setup, round, 0, n, || {
        codec::encode_setup(
            params,
            script.requested_chunks as u16,
            n as u16,
            &script.setup_payload,
        )
    });
    let mut clients: BTreeMap<ClientId, Client> = BTreeMap::new();
    for &id in &params.clients {
        let (params, _, _, payload) = decode(rec, &setup_frame, round, |env| {
            codec::decode_setup(&env.body)
        })?;
        let input = input_for(id, &payload, rec)?;
        let client = rec
            .span("secagg.client.new", |_| {
                Client::new(
                    params,
                    id,
                    input,
                    None,
                    &mut client_rng(script.rng_seed, id),
                )
            })
            .map_err(|e| e.to_string())?;
        clients.insert(id, client);
    }
    let mut server =
        Server::with_chunks(params.clone(), plan.clone()).map_err(|e| e.to_string())?;

    // ---- Stage 0: AdvertiseKeys. ----
    let mut advs = Vec::new();
    for c in clients.values_mut() {
        let adv = rec
            .span("secagg.client.advertise_keys", |_| c.advertise_keys())
            .map_err(|e| e.to_string())?;
        let frame = encode(rec, StageTag::AdvertiseKeys, round, 0, 1, || adv.encoded());
        advs.push(decode(rec, &frame, round, |env| {
            codec::decode_advertised_keys(&env.body)
        })?);
    }
    let roster = rec
        .span("secagg.server.collect_advertisements", |_| {
            server.collect_advertisements(advs)
        })
        .map_err(|e| e.to_string())?;
    let roster_frame = encode(rec, StageTag::Roster, round, 0, clients.len(), || {
        encode_list(&roster)
    });

    // ---- Stage 1: ShareKeys. ----
    let mut all_cts = Vec::new();
    for (&id, c) in clients.iter_mut() {
        let roster = decode(rec, &roster_frame, round, |env| {
            decode_list(&env.body, codec::decode_advertised_keys)
        })?;
        let cts = rec
            .span("secagg.client.share_keys", |_| {
                c.share_keys(&roster, &mut share_keys_rng(script.rng_seed, id))
            })
            .map_err(|e| e.to_string())?;
        let frame = encode(rec, StageTag::ShareKeys, round, 0, 1, || encode_list(&cts));
        all_cts.extend(decode(rec, &frame, round, |env| {
            decode_list(&env.body, codec::decode_encrypted_shares)
        })?);
    }
    let mut inboxes = rec
        .span("secagg.server.route_shares", |_| {
            server.route_shares(all_cts)
        })
        .map_err(|e| e.to_string())?;

    // ---- Stage 2: MaskedInputCollection, one frame per chunk. ----
    for (&id, c) in clients.iter_mut() {
        let cts = inboxes.remove(&id).unwrap_or_default();
        let frame = encode(rec, StageTag::Inbox, round, 0, 1, || encode_list(&cts));
        let inbox = decode(rec, &frame, round, |env| {
            decode_list(&env.body, codec::decode_encrypted_shares)
        })?;
        let masked = rec
            .span("secagg.client.masked_input", |_| c.masked_input(inbox))
            .map_err(|e| e.to_string())?;
        let parts = rec
            .span("pipeline.chunkplan.split", |_| {
                codec::split_masked_input(&masked, &plan)
            })
            .map_err(|e| e.to_string())?;
        let sent = match script.mid_stream.get(&id) {
            Some(&k) if usize::from(k) >= parts.len() => {
                return Err(format!(
                    "client {id} cannot stop after {k} of {} chunk(s)",
                    parts.len()
                ))
            }
            Some(&k) => usize::from(k),
            None => parts.len(),
        };
        let mut received = Vec::with_capacity(sent);
        for (ci, part) in parts.iter().enumerate().take(sent) {
            let frame = encode(rec, StageTag::MaskedInput, round, ci as u16, 1, || {
                part.encoded()
            });
            received.push(decode(rec, &frame, round, |env| {
                codec::decode_masked_input(&env.body, bits, plan.chunk_len(ci), env.context())
            })?);
        }
        if sent == parts.len() {
            // What left the client is what the server is about to hold.
            let whole = rec
                .span("pipeline.chunkplan.reassemble", |_| {
                    codec::reassemble_masked_input(&received, &plan)
                })
                .map_err(|e| e.to_string())?;
            if whole.vector != masked.vector {
                return Err(format!(
                    "client {id}: split → reassemble changed the vector"
                ));
            }
        }
        for (ci, part) in received.into_iter().enumerate() {
            rec.span("secagg.server.collect_masked_chunk", |_| {
                server.collect_masked_chunk(ci, vec![part])
            })
            .map_err(|e| e.to_string())?;
        }
    }
    let u3 = rec
        .span("secagg.server.finalize_masked", |_| {
            server.finalize_masked()
        })
        .map_err(|e| e.to_string())?;
    let u3_frame = encode(rec, StageTag::SurvivorSet, round, 0, u3.len(), || {
        IdList(u3.clone()).encoded()
    });

    // ---- Stage 4: Unmasking. ----
    let mut responses = Vec::new();
    for &id in &u3 {
        let IdList(seen) = decode(rec, &u3_frame, round, |env| {
            codec::decode_id_list(&env.body)
        })?;
        if script.before_unmasking.contains(&id) {
            continue;
        }
        let c = clients.get_mut(&id).expect("U3 is a subset of the cohort");
        let resp = rec
            .span("secagg.client.unmask", |_| c.unmask(&seen, None))
            .map_err(|e| e.to_string())?;
        let frame = encode(rec, StageTag::Unmasking, round, 0, 1, || resp.encoded());
        responses.push(decode(rec, &frame, round, |env| {
            codec::decode_unmasking_response(&env.body)
        })?);
    }
    let u5: Vec<ClientId> = responses.iter().map(|r| r.client).collect();
    rec.span("secagg.server.reconstruct_unmasking", |_| {
        server.reconstruct_unmasking(responses)
    })
    .map_err(|e| e.to_string())?;
    for ci in 0..plan.chunks() {
        rec.span("secagg.server.unmask_chunk", |_| server.unmask_chunk(ci))
            .map_err(|e| e.to_string())?;
    }

    // ---- Stage 5: ExcessiveNoiseRemoval (only if needed). ----
    if !server.pending_seed_owners().is_empty() {
        let u5_frame = encode(rec, StageTag::ReadySet, round, 0, u5.len(), || {
            IdList(u5.clone()).encoded()
        });
        let mut responses = Vec::new();
        for &id in &u5 {
            let IdList(seen) = decode(rec, &u5_frame, round, |env| {
                codec::decode_id_list(&env.body)
            })?;
            let c = clients.get_mut(&id).expect("U5 is a subset of the cohort");
            let resp = rec
                .span("secagg.client.noise_shares", |_| c.noise_shares(&seen))
                .map_err(|e| e.to_string())?;
            let frame = encode(rec, StageTag::NoiseShares, round, 0, 1, || resp.encoded());
            responses.push(decode(rec, &frame, round, |env| {
                codec::decode_noise_share_response(&env.body)
            })?);
        }
        rec.span("secagg.server.collect_noise_shares", |_| {
            server.collect_noise_shares(responses)
        })
        .map_err(|e| e.to_string())?;
    }

    let fin_frame = encode(rec, StageTag::Finished, round, 0, u5.len(), || {
        IdList(u3.clone()).encoded()
    });
    for _ in &u5 {
        decode(rec, &fin_frame, round, |env| {
            codec::decode_id_list(&env.body)
        })?;
    }
    Ok(rec.span("secagg.server.finish", |_| server.finish()))
}
