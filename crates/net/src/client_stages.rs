//! One seated round of the session client, as the server's stages come:
//! the protocol decisions, and nothing else.
//!
//! Order: `Advertise → Roster/ShareKeys → Inbox/masked chunks →
//! SurvivorSet → [ConsistencySig → SignatureList] → Unmasking →
//! [ReadySet → NoiseShares] → Finished`. The bracketed steps run in the
//! malicious model and when U3∖U5 left noise seeds to recover. The
//! sequence is straight-line, so each step answers exactly one server
//! frame, once: a replayed or out-of-order tag ends the run as a
//! protocol error before anything is sent for it, and a server `Abort`
//! ends it anywhere. Every receive, send, fail point and `Abort` goes
//! through the one I/O context, [`ClientIo`].

use dordis_secagg::client::{Client, ClientInput, Identity};
use dordis_secagg::messages::IdList;
use dordis_secagg::{ChunkPlan, ClientId, RoundParams, ThreatModel};

use crate::codec::{self, decode_list, Encode, Envelope, StageTag};
use crate::runtime::{
    client_rng, round_rng_seed, share_keys_rng, ClientIo, FailStage, SessionClientOptions, Stop,
};
use crate::NetError;

/// Runs the round that `setup` seats this client in, from its key
/// advertisement to the server's `Finished`, and returns the survivor
/// set (U3) that `Finished` carries.
///
/// # Errors
///
/// [`Stop::End`] for a scripted failure, a state-machine abort or a
/// server abort; [`Stop::Error`] for transport and codec failures, a
/// stale frame and server protocol violations.
pub(crate) fn round(
    io: &mut ClientIo<'_>,
    opts: &SessionClientOptions,
    setup: &Envelope,
    input_for: impl FnOnce(&RoundParams, u16, &[u8]) -> Result<ClientInput, NetError>,
    identity_for: impl FnOnce(&RoundParams) -> Option<Identity>,
) -> Result<Vec<ClientId>, Stop> {
    let (params, requested_chunks, cohort, payload) = codec::decode_setup(&setup.body)?;
    // The server is untrusted: reject malformed round parameters (a
    // hostile bit_width/vector_len could otherwise panic or OOM us)
    // before building anything from them.
    params.validate().map_err(NetError::SecAgg)?;
    // The cohort size XNoise plans from can never be smaller than the
    // round's own client set.
    if usize::from(cohort) < params.clients.len() {
        return Err(NetError::Protocol(format!(
            "Setup cohort {cohort} smaller than its own client set ({})",
            params.clients.len()
        ))
        .into());
    }
    if params.round != setup.round {
        return Err(NetError::Protocol(format!(
            "Setup round {} disagrees with its envelope ({})",
            params.round, setup.round
        ))
        .into());
    }
    // Re-derive the round's chunk plan from the requested count — the
    // same deterministic alignment the coordinator ran, so both sides
    // agree on every chunk boundary without the bounds traveling.
    let plan = ChunkPlan::aligned(
        params.vector_len,
        usize::from(requested_chunks.max(1)),
        params.bit_width,
    )
    .map_err(|e| NetError::Protocol(format!("chunk plan: {e}")))?;
    if !params.clients.contains(&opts.id) {
        return Err(NetError::Protocol("not in the sampled set".into()).into());
    }

    let input = input_for(&params, cohort, &payload)?;
    let identity = identity_for(&params);
    let malicious = params.threat_model == ThreatModel::Malicious;
    if malicious && identity.is_none() {
        return Err(NetError::Protocol("malicious round requires a PKI identity".into()).into());
    }
    let rng_seed = round_rng_seed(opts.rng_seed, params.round);
    let mut rng = client_rng(rng_seed, opts.id);
    let mut client =
        Client::new(params, opts.id, input, identity, &mut rng).map_err(NetError::SecAgg)?;

    // Advertise. Each step below is a block, so its frames and decoded
    // messages are freed before the next stage allocates: in-process
    // cohorts run every client on the coordinator's heap.
    io.fail(FailStage::Advertise)?;
    let adv = client.advertise_keys().map_err(|e| io.abort(&e))?;
    io.send(StageTag::AdvertiseKeys, adv.encoded())?;

    // Roster → ShareKeys.
    {
        let env = io.recv(&[StageTag::Roster])?;
        let roster = decode_list(&env.body, codec::decode_advertised_keys)?;
        io.fail(FailStage::ShareKeys)?;
        let mut rng = share_keys_rng(rng_seed, opts.id);
        let cts = client
            .share_keys(&roster, &mut rng)
            .map_err(|e| io.abort(&e))?;
        io.send(StageTag::ShareKeys, codec::encode_list(&cts))?;
    }

    // Inbox → the masked input, one chunk frame at a time: mask a
    // chunk, put it on the wire, mask the next while the kernel and the
    // coordinator work on the first.
    {
        let env = io.recv(&[StageTag::Inbox])?;
        io.fail(FailStage::MaskedInput)?;
        let inbox = decode_list(&env.body, codec::decode_encrypted_shares)?;
        let cursor = client.begin_masked_input(inbox).map_err(|e| io.abort(&e))?;
        io.check_fail_fires(plan.chunks())?;
        for c in 0..plan.chunks() {
            // A mid-stream failure leaves `c` chunks out and never masks
            // the rest.
            io.fail(FailStage::MaskedInputAfterChunks(c as u16))?;
            let part = cursor.chunk(plan.range(c)).encoded();
            io.send_chunk(StageTag::MaskedInput, c as u16, part)?;
        }
    }

    // SurvivorSet → [ConsistencySig → SignatureList] → Unmasking. In the
    // malicious model U3 is fixed by the one consistency signature.
    let IdList(u3) = codec::decode_id_list(&io.recv(&[StageTag::SurvivorSet])?.body)?;
    let sigs = if malicious {
        io.fail(FailStage::Consistency)?;
        let sig = client.consistency_check(&u3).map_err(|e| io.abort(&e))?;
        io.send(StageTag::ConsistencySig, sig.encoded())?;
        let env = io.recv(&[StageTag::SignatureList])?;
        Some(codec::decode_signature_list(&env.body)?)
    } else {
        None
    };
    io.fail(FailStage::Unmasking)?;
    let unmasking = client
        .unmask(&u3, sigs.as_deref())
        .map_err(|e| io.abort(&e))?;
    io.send(StageTag::Unmasking, unmasking.encoded())?;

    // [ReadySet → NoiseShares] → Finished.
    let mut env = io.recv(&[StageTag::ReadySet, StageTag::Finished])?;
    if env.stage == StageTag::ReadySet {
        let IdList(u5) = codec::decode_id_list(&env.body)?;
        io.fail(FailStage::NoiseShares)?;
        let shares = client.noise_shares(&u5).map_err(|e| io.abort(&e))?;
        io.send(StageTag::NoiseShares, shares.encoded())?;
        env = io.recv(&[StageTag::Finished])?;
    }
    let IdList(survivors) = codec::decode_id_list(&env.body)?;
    Ok(survivors)
}
