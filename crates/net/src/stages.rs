//! The coordinator's round as stage transitions: the protocol decisions,
//! and nothing else.
//!
//! Each stage is a type holding what the stages before it decided, and
//! its transition consumes it and returns the next stage — so a stage
//! can be neither skipped nor run twice. A transition decides whom its
//! stage collects from, which uplink tag, what the [`Server`] does with
//! the filed messages, what goes back ([`Reply`]) and which stage comes
//! next. Every poll, send, clock read, span, traffic count, dropout and
//! fault hook happens in the one I/O context, [`RoundIo`], mostly in its
//! [`stage`](RoundIo::stage) step.
//!
//! Order: `Setup → Advertising → Sharing → Masking → Checking →
//! Unmasking → Removing → Finishing`. Checking collects consistency
//! signatures in the malicious model only; Removing collects noise
//! shares only when U3∖U5 left noise seeds to recover.

use dordis_secagg::messages::IdList;
use dordis_secagg::server::{RoundOutcome, Server};
use dordis_secagg::{ChunkPlan, ClientId, RoundParams, ThreatModel};

use crate::codec::{
    self, decode_advertised_keys, decode_consistency_signature, decode_encrypted_shares,
    decode_list, decode_noise_share_response, decode_unmasking_response, encode_list, Encode,
    EnvelopeView, StageTag,
};
use crate::coordinator::{Reply, RoundIo};
use crate::faults::KillPoint;
use crate::NetError;

/// What every stage of one round shares: the seated parameters, the
/// chunk plan and the secagg server.
pub(crate) struct Round {
    pub(crate) params: RoundParams,
    pub(crate) plan: ChunkPlan,
    requested_chunks: u16,
    server: Server,
}

/// Broadcast the parameters (Setup), with the application payload.
struct Setup<'p>(&'p [u8]);
/// Collect key advertisements; broadcast the roster.
struct Advertising;
/// Collect encrypted shares from the roster; route them to inboxes.
struct Sharing(Vec<ClientId>);
/// Collect every chunk of U2's masked inputs; broadcast U3.
struct Masking;
/// Collect U3's consistency signatures and broadcast them (malicious).
struct Checking(Vec<ClientId>);
/// Collect U3's unmasking shares; ReadySet to U5 if seeds are missing.
struct Unmasking(Vec<ClientId>);
/// Collect U5's noise shares, if there is a U5 to ask; U3 rides along.
struct Removing(Vec<ClientId>, Option<Vec<ClientId>>);
/// Unmask chunk by chunk; broadcast Finished to U3.
struct Finishing(Vec<ClientId>);

impl Round {
    /// The round of the seated `params`: validates them, derives the
    /// chunk plan from the requested count and resets the server.
    ///
    /// # Errors
    ///
    /// Invalid round parameters or an unrealizable chunk plan.
    pub(crate) fn new(params: RoundParams, chunks: usize) -> Result<Round, NetError> {
        params.validate().map_err(NetError::SecAgg)?;
        let chunks = chunks.clamp(1, usize::from(u16::MAX));
        let plan = ChunkPlan::aligned(params.vector_len, chunks, params.bit_width)
            .map_err(|e| NetError::Protocol(format!("chunk plan: {e}")))?;
        let server = Server::with_chunks(params.clone(), plan.clone()).map_err(NetError::SecAgg)?;
        Ok(Round {
            params,
            plan,
            requested_chunks: chunks as u16,
            server,
        })
    }

    /// Runs every stage, in order, over `io`; `payload` rides the Setup
    /// broadcast.
    ///
    /// # Errors
    ///
    /// Those of the stages: an abort, an injected kill, a poller failure.
    pub(crate) fn run(
        mut self,
        io: &mut RoundIo<'_>,
        payload: &[u8],
    ) -> Result<RoundOutcome, NetError> {
        let r = &mut self;
        Setup(payload)
            .setup(r, io)?
            .advertise(r, io)?
            .share(r, io)?
            .mask(r, io)?
            .check(r, io)?
            .unmask(r, io)?
            .remove(r, io)?
            .finish(r, io)?;
        debug_assert!(self.server.privacy_invariant_holds());
        Ok(self.server.finish())
    }
}

impl Setup<'_> {
    fn setup(self, r: &mut Round, io: &mut RoundIo<'_>) -> Result<Advertising, NetError> {
        let _span = io.span("Setup");
        let cohort = r.params.clients.len().min(usize::from(u16::MAX)) as u16;
        let body = codec::encode_setup(&r.params, r.requested_chunks, cohort, self.0);
        io.send("Setup", Reply::All(StageTag::Setup, body));
        // Fault hook: the primary dies right after the Setup broadcast
        // reached every seated client — they hold round state the
        // coordinator loses.
        io.trip(KillPoint::DuringBroadcast)?;
        Ok(Advertising)
    }
}

impl Advertising {
    fn advertise(self, r: &mut Round, io: &mut RoundIo<'_>) -> Result<Sharing, NetError> {
        let roster = io.stage(
            &mut r.server,
            ("AdvertiseKeys", StageTag::AdvertiseKeys),
            &r.params.clients,
            &mut from_sender(decode_advertised_keys, |a| a.client),
            |server, advs| {
                let roster = server.collect_advertisements(advs)?;
                let body = encode_list(&roster);
                let ids = roster.into_iter().map(|a| a.client).collect();
                Ok((ids, Reply::All(StageTag::Roster, body)))
            },
        )?;
        Ok(Sharing(roster))
    }
}

impl Sharing {
    fn share(self, r: &mut Round, io: &mut RoundIo<'_>) -> Result<Masking, NetError> {
        io.stage(
            &mut r.server,
            ("ShareKeys", StageTag::ShareKeys),
            &self.0,
            &mut |_, id, env| {
                let cts = decode_list(env.body, decode_encrypted_shares).ok()?;
                cts.iter().all(|ct| ct.from == id).then_some(cts)
            },
            |server, cts| {
                let mut inboxes = server.route_shares(cts.into_iter().flatten().collect())?;
                // Every live peer gets its own inbox, empty or not.
                let inbox =
                    move |to: ClientId| encode_list(&inboxes.remove(&to).unwrap_or_default());
                Ok(((), Reply::Each(StageTag::Inbox, Box::new(inbox))))
            },
        )?;
        Ok(Masking)
    }
}

impl Masking {
    fn mask(self, r: &mut Round, io: &mut RoundIo<'_>) -> Result<Checking, NetError> {
        let u2 = r.server.u2().to_vec();
        let u3 = io.stage(
            &mut r.server,
            ("MaskedInputCollection", StageTag::MaskedInput),
            &u2,
            &mut collect_masked_frame,
            |server, _| {
                let u3 = server.finalize_masked()?;
                let body = IdList(u3.clone()).encoded();
                Ok((u3, Reply::All(StageTag::SurvivorSet, body)))
            },
        )?;
        Ok(Checking(u3))
    }
}

impl Checking {
    fn check(self, r: &mut Round, io: &mut RoundIo<'_>) -> Result<Unmasking, NetError> {
        if r.params.threat_model == ThreatModel::Malicious {
            io.stage(
                &mut r.server,
                ("ConsistencyCheck", StageTag::ConsistencySig),
                &self.0,
                &mut from_sender(decode_consistency_signature, |s| s.client),
                |server, sigs| {
                    let body = codec::encode_signature_list(&server.collect_consistency(sigs)?);
                    Ok(((), Reply::All(StageTag::SignatureList, body)))
                },
            )?;
        }
        Ok(Unmasking(self.0))
    }
}

impl Unmasking {
    fn unmask(self, r: &mut Round, io: &mut RoundIo<'_>) -> Result<Removing, NetError> {
        let u5 = io.stage(
            &mut r.server,
            ("Unmasking", StageTag::Unmasking),
            &self.0,
            &mut from_sender(decode_unmasking_response, |m| m.client),
            |server, responses| {
                // Share collection is round-global: only the noise seeds
                // of U3∖U5 can still be missing, and only then does U5
                // hear ReadySet.
                server.reconstruct_unmasking(responses)?;
                if server.pending_seed_owners().is_empty() {
                    return Ok((None, Reply::None));
                }
                let u5 = server.u5().to_vec();
                let body = IdList(u5.clone()).encoded();
                Ok((Some(u5), Reply::All(StageTag::ReadySet, body)))
            },
        )?;
        Ok(Removing(self.0, u5))
    }
}

impl Removing {
    fn remove(self, r: &mut Round, io: &mut RoundIo<'_>) -> Result<Finishing, NetError> {
        if let Some(u5) = &self.1 {
            io.stage(
                &mut r.server,
                ("ExcessiveNoiseRemoval", StageTag::NoiseShares),
                u5,
                &mut from_sender(decode_noise_share_response, |m| m.client),
                |server, responses| Ok((server.collect_noise_shares(responses)?, Reply::None)),
            )?;
        }
        Ok(Finishing(self.0))
    }
}

impl Finishing {
    fn finish(self, r: &mut Round, io: &mut RoundIo<'_>) -> Result<(), NetError> {
        // Every share is in: unmask chunk by chunk, each chunk expanding
        // its own range of the mask streams `reconstruct_unmasking`
        // recorded.
        io.compute(|c| r.server.unmask_chunk(c))?;
        let body = IdList(self.0).encoded();
        io.send("Finished", Reply::All(StageTag::Finished, body));
        Ok(())
    }
}

/// A control stage's frame filter: the body decodes and names its
/// sender; anything else is the sender's protocol violation.
fn from_sender<M>(
    decode: impl Fn(&[u8]) -> Result<M, NetError>,
    sender: impl Fn(&M) -> ClientId,
) -> impl FnMut(&mut Server, ClientId, &EnvelopeView<'_>) -> Option<M> {
    move |_, id, env| decode(env.body).ok().filter(|m| sender(m) == id)
}

/// Files one masked-input frame from `id`: once the body names its
/// sender, the packed payload goes to the server as it came, with no
/// decode — parked until its stream completes, then unpack-added into
/// the running sum. `None` — a body too short for the sender id, another
/// sender's id, a payload the server refuses — is `id`'s protocol
/// violation, never a round abort.
fn collect_masked_frame(server: &mut Server, id: ClientId, env: &EnvelopeView<'_>) -> Option<()> {
    let (_, payload) = codec::masked_input_payload(env.body)
        .ok()
        .filter(|&(sender, _)| sender == id)?;
    let chunk = usize::from(env.chunk);
    server.collect_masked_packed(chunk, id, payload).ok()
}
