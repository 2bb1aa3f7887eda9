//! The round coordinator: drives the `dordis-secagg` server state
//! machine over a real transport, stage by stage, with per-stage
//! deadlines.
//!
//! This is the networked replacement for the driver's scripted
//! [`DropoutSchedule`]: here nobody *announces* a dropout — a client
//! that disconnects or stays silent past the stage deadline is
//! *detected* and excluded, exactly as in the deployed system the paper
//! evaluates (§6.1 measures dropout as missed per-stage responses).
//!
//! ## The round machine
//!
//! All per-round state — the secagg [`Server`], the [`ChunkPlan`], the
//! traffic/dropout accounting, and the round id every frame is checked
//! against — lives in a `RoundMachine`. A
//! [`Session`](crate::session::Session) — the only way to run a round —
//! constructs one machine per round and runs them back to back over the
//! same persistent connections. A frame whose envelope carries a
//! *different* round id than the machine's is never parsed into the
//! round's state: frames from older rounds (a slow peer catching up
//! after a session transition) are discarded and counted in
//! [`NetRoundReport::stale_frames`]; frames claiming future rounds are
//! protocol violations.
//!
//! ## The per-(stage, chunk) data plane
//!
//! Control-plane stages (key advertisement, share routing, consistency,
//! share collection) are round-global. The data plane is chunked
//! (§4.1): masked inputs arrive as one frame per [`ChunkPlan`] chunk,
//! collected by a per-(stage, chunk) state machine — chunk `c`'s frames
//! are decoded, validated, and aggregated into the server's per-chunk
//! state *while chunk `c+1`'s frames are still in flight*, and the
//! per-stage deadline applies per chunk (the clock restarts when a chunk
//! completes). Symmetrically, per-chunk unmasking is interleaved with
//! the noise-share collection when XNoise seed recovery is needed, so
//! the s-comp and comm resources overlap end to end as in Figure 12. A
//! client whose chunk stream stops partway is a detected dropout: U3
//! only admits clients that delivered *every* chunk.
//!
//! ## Readiness-driven collection
//!
//! The collection loops are driven by [`reactor`](crate::reactor)
//! events: the coordinator thread sleeps in `epoll_pwait` until a frame,
//! a disconnect, or a deadline is actually ready, so one thread serves
//! hundreds of chunk-streaming clients with `O(events)` wake-ups.
//!
//! [`DropoutSchedule`]: dordis_secagg::driver::DropoutSchedule

use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};

use dordis_pipeline::ChunkPlan;
use dordis_secagg::driver::{RoundStats, StageTraffic};
use dordis_secagg::server::{RoundOutcome, Server};
use dordis_secagg::{ClientId, RoundParams, SecAggError, ThreatModel};
use dordis_telemetry::{MetricsSnapshot, Telemetry};

use crate::codec::{
    self, decode_advertised_keys, decode_consistency_signature, decode_encrypted_shares,
    decode_list, decode_masked_input, decode_noise_share_response, decode_unmasking_response,
    encode_list, Encode, Envelope, EnvelopeView, FrameContext, StageTag, HEADER_BYTES,
};
use crate::faults::KillPoint;
use crate::reactor::{Event, EventedChannel, Reactor, ReactorStats, Token};
use crate::session::SessionConfig;
use crate::transport::{send_env, wire_message};
use crate::NetError;

/// What the coordinator observed about one departed client.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DropKind {
    /// Never joined the round.
    NeverJoined,
    /// Connection closed (crash / kill).
    Disconnected,
    /// Joined but missed a stage deadline while connected.
    DeadlineMissed,
    /// Sent an explicit abort (detected an inconsistency).
    Aborted,
    /// Sent garbage or an out-of-protocol message.
    ProtocolViolation,
}

/// A detected departure: who, at which stage (and chunk, for data-plane
/// stages), and how.
#[derive(Clone, Debug)]
pub struct DetectedDropout {
    /// The client.
    pub client: ClientId,
    /// Stage name at which the departure was detected.
    pub stage: &'static str,
    /// Chunk the collection machine was on when it detected the
    /// departure (None for round-global stages).
    pub chunk: Option<u16>,
    /// What was observed.
    pub kind: DropKind,
}

/// Result of a coordinated round.
pub struct NetRoundReport {
    /// The round this report describes (the session's counter; the id
    /// every frame of the round carried).
    pub round: u64,
    /// The cohort the session seated, in seating order (the round's
    /// `params.clients`): survivors and dropouts alike.
    pub cohort: Vec<ClientId>,
    /// The protocol outcome (same type the in-memory driver returns).
    pub outcome: RoundOutcome,
    /// Per-stage traffic, measured as actual framed bytes on the wire
    /// (envelope headers included — unlike the driver's `wire_bytes()`
    /// accounting, which counts message bodies only).
    pub stats: RoundStats,
    /// Every detected departure, in detection order.
    pub dropouts: Vec<DetectedDropout>,
    /// Realized chunk count of the round's data plane.
    pub chunks: usize,
    /// Frames from *older* rounds discarded by the typed
    /// [`NetError::StaleRound`] check instead of being parsed into this
    /// round's state.
    pub stale_frames: u64,
    /// Event-loop wake-up accounting as a **per-round delta**: only the
    /// polls/events/timer fires this round produced (join phase
    /// included). The scale
    /// tests assert `polls` stays `O(events)`, not `O(clients × ticks)`.
    pub reactor: ReactorStats,
    /// The same counters cumulative since the session's reactor was
    /// built, for whole-session accounting.
    pub reactor_session: ReactorStats,
    /// Per-round delta of every registered metrics series (keyed by
    /// canonical series id), when the session's telemetry is enabled.
    /// One schema for the session driver, the benches, and the tests.
    pub metrics: Option<MetricsSnapshot>,
}

/// Per-stage uplink accumulator.
#[derive(Default)]
struct Traffic {
    total: u64,
    max: u64,
}

impl Traffic {
    fn add(&mut self, bytes: u64) {
        self.total += bytes;
        self.max = self.max.max(bytes);
    }
}

/// Live connections, keyed by authenticated-at-join client id.
pub(crate) type Peers = BTreeMap<ClientId, Box<dyn EventedChannel>>;

/// Background work a collection loop interleaves between polls (chunk
/// unmasking during noise-share collection). Returns whether it did
/// work (so the reactor knows to poll non-blockingly and come back).
/// Errors abort the round.
type IdleWork<'a> = dyn FnMut(&mut Server) -> Result<bool, SecAggError> + 'a;

/// Reactor token namespace: client tokens are the id itself; tokens at
/// or above `JOIN_BASE` are provisional (unauthenticated) connections;
/// the topmost values are reserved for the stage timer and the waker.
pub(crate) const JOIN_BASE: u64 = 1 << 40;

/// Timer token for the active stage/chunk deadline.
const STAGE_TOKEN: Token = Token(u64::MAX - 2);

pub(crate) fn client_token(id: ClientId) -> Token {
    Token(u64::from(id))
}

pub(crate) fn client_of(token: Token) -> Option<ClientId> {
    (token.0 < JOIN_BASE).then_some(token.0 as ClientId)
}

// ---------------------------------------------------------------------
// The per-round state machine.
// ---------------------------------------------------------------------

/// All state belonging to one protocol round: the secagg server, the
/// chunk plan, the round id every envelope is checked against, and the
/// traffic / dropout / stale-frame accounting. Constructed fresh per
/// round by the [`Session`](crate::session::Session), so nothing can
/// leak between rounds.
pub(crate) struct RoundMachine<'c> {
    /// The session's configuration, borrowed for the round.
    cfg: &'c SessionConfig<'c>,
    params: RoundParams,
    plan: ChunkPlan,
    requested_chunks: u16,
    server: Server,
    stats: RoundStats,
    dropouts: Vec<DetectedDropout>,
    stale_frames: u64,
}

impl<'c> RoundMachine<'c> {
    /// Builds the machine for the seated `params` under the session's
    /// `cfg`: validates the parameters, derives the chunk plan from the
    /// requested count, and resets the secagg server state.
    ///
    /// # Errors
    ///
    /// Invalid round parameters or an unrealizable chunk plan.
    pub(crate) fn new(
        params: RoundParams,
        cfg: &'c SessionConfig<'c>,
    ) -> Result<RoundMachine<'c>, NetError> {
        params.validate().map_err(NetError::SecAgg)?;
        let requested_chunks = cfg.chunks.clamp(1, usize::from(u16::MAX)) as u16;
        let plan = ChunkPlan::aligned(
            params.vector_len,
            usize::from(requested_chunks),
            params.bit_width,
        )
        .map_err(|e| NetError::Protocol(format!("chunk plan: {e}")))?;
        let server = Server::with_chunks(params.clone(), plan.clone()).map_err(NetError::SecAgg)?;
        Ok(RoundMachine {
            cfg,
            params,
            plan,
            requested_chunks,
            server,
            stats: RoundStats::default(),
            dropouts: Vec::new(),
            stale_frames: 0,
        })
    }

    /// Drives the whole round over the already-seated `peers`:
    /// Setup broadcast (carrying `payload`), the five protocol stages
    /// with per-stage (per-chunk on the data plane) dropout detection,
    /// and the Finished broadcast. On return `peers` holds exactly the
    /// connections that survived the round; the session parks them for
    /// the next one. `reactor_base` is the reactor's counters when the
    /// round's accounting window opened (before its join phase).
    ///
    /// # Errors
    ///
    /// [`NetError::SecAgg`] when the protocol aborts (below threshold,
    /// tampering); reactor failures. Individual client failures are
    /// dropouts, not errors.
    pub(crate) fn run(
        mut self,
        reactor: &mut Reactor,
        peers: &mut Peers,
        payload: &[u8],
        reactor_base: ReactorStats,
    ) -> Result<NetRoundReport, NetError> {
        let cfg = self.cfg;
        let round = self.params.round;
        let round_span = cfg.telemetry.span("round", "round", round, None);
        for &id in &self.params.clients {
            if !peers.contains_key(&id) {
                self.dropouts.push(DetectedDropout {
                    client: id,
                    stage: "Join",
                    chunk: None,
                    kind: DropKind::NeverJoined,
                });
            }
        }
        let mut no_idle = |_: &mut Server| Ok(false);

        // ---- Setup broadcast (params + chunk count + payload). ----
        let stage_span = cfg.telemetry.span("stage", "Setup", round, None);
        let cohort = self.params.clients.len().min(usize::from(u16::MAX)) as u16;
        let setup = Envelope::new(
            StageTag::Setup,
            round,
            codec::encode_setup(&self.params, self.requested_chunks, cohort, payload),
        );
        self.broadcast(reactor, peers, "Setup", &setup);
        // Fault hook: the primary dies right after the Setup broadcast
        // reached every seated client — they hold round state the
        // coordinator loses. Propagated directly (never through the
        // abort path): an injected kill must look like crash silence.
        cfg.faults.trip(KillPoint::DuringBroadcast, round)?;
        drop(stage_span);

        let joined: Vec<ClientId> = peers.keys().copied().collect();

        // ---- Stage 0: AdvertiseKeys. ----
        let stage_span = cfg.telemetry.span("stage", "AdvertiseKeys", round, None);
        let (advs, up) = self.collect_stage(
            reactor,
            peers,
            &joined,
            StageTag::AdvertiseKeys,
            "AdvertiseKeys",
            &mut no_idle,
            |id, body| decode_advertised_keys(body).ok().filter(|a| a.client == id),
        )?;
        let roster = self
            .server
            .collect_advertisements(advs)
            .map_err(|e| abort_secagg(peers, round, e))?;
        let roster_env = Envelope::new(StageTag::Roster, round, encode_list(&roster));
        let down = self.broadcast(reactor, peers, "AdvertiseKeys", &roster_env);
        self.push_stage("AdvertiseKeys", &up, down);
        drop(stage_span);

        // ---- Stage 1: ShareKeys. ----
        let stage_span = cfg.telemetry.span("stage", "ShareKeys", round, None);
        let expected: Vec<ClientId> = roster.iter().map(|a| a.client).collect();
        let (cts, up) = self.collect_stage(
            reactor,
            peers,
            &expected,
            StageTag::ShareKeys,
            "ShareKeys",
            &mut no_idle,
            |id, body| {
                let cts = decode_list(body, decode_encrypted_shares).ok()?;
                cts.iter().all(|ct| ct.from == id).then_some(cts)
            },
        )?;
        let all_cts = cts.into_iter().flatten().collect();
        let mut inboxes = self
            .server
            .route_shares(all_cts)
            .map_err(|e| abort_secagg(peers, round, e))?;
        let mut down = Traffic::default();
        let inbox_ids: Vec<ClientId> = peers.keys().copied().collect();
        for id in inbox_ids {
            let cts = inboxes.remove(&id).unwrap_or_default();
            let env = Envelope::new(StageTag::Inbox, round, encode_list(&cts));
            down.add(env.encode().len() as u64);
            send_or_drop(peers, id, &env, "ShareKeys", &mut self.dropouts);
        }
        flush_sends(reactor, peers, &mut self.dropouts, "ShareKeys", cfg);
        self.push_stage("ShareKeys", &up, down);
        drop(stage_span);

        // ---- Stage 2: MaskedInputCollection, per (stage, chunk). ----
        let stage_span = cfg
            .telemetry
            .span("stage", "MaskedInputCollection", round, None);
        let u2: BTreeSet<ClientId> = self.server.u2().iter().copied().collect();
        let expected: Vec<ClientId> = peers.keys().copied().filter(|id| u2.contains(id)).collect();
        // Fault hook: the primary dies while the data plane is
        // mid-flight — the hardest crash, nothing of this round exists
        // outside the dying process.
        cfg.faults.trip(KillPoint::MidMaskedStage, round)?;
        let up = self.collect_masked_chunks(reactor, peers, &expected)?;
        let u3 = self
            .server
            .finalize_masked()
            .map_err(|e| abort_secagg(peers, round, e))?;
        let u3_env = Envelope::new(
            StageTag::SurvivorSet,
            round,
            dordis_secagg::messages::IdList(u3.clone()).encoded(),
        );
        let down = self.broadcast(reactor, peers, "MaskedInputCollection", &u3_env);
        self.push_stage("MaskedInputCollection", &up, down);
        drop(stage_span);

        // ---- Stage 3: ConsistencyCheck (malicious only). ----
        if self.params.threat_model == ThreatModel::Malicious {
            let _stage_span = cfg.telemetry.span("stage", "ConsistencyCheck", round, None);
            let (sigs, up) = self.collect_stage(
                reactor,
                peers,
                &u3,
                StageTag::ConsistencySig,
                "ConsistencyCheck",
                &mut no_idle,
                |id, body| {
                    decode_consistency_signature(body)
                        .ok()
                        .filter(|s| s.client == id)
                },
            )?;
            let list = self
                .server
                .collect_consistency(sigs)
                .map_err(|e| abort_secagg(peers, round, e))?;
            let env = Envelope::new(
                StageTag::SignatureList,
                round,
                codec::encode_signature_list(&list),
            );
            let down = self.broadcast(reactor, peers, "ConsistencyCheck", &env);
            self.push_stage("ConsistencyCheck", &up, down);
        }

        // ---- Stage 4: Unmasking (share collection is round-global). ----
        let stage_span = cfg.telemetry.span("stage", "Unmasking", round, None);
        let (responses, up) = self.collect_stage(
            reactor,
            peers,
            &u3,
            StageTag::Unmasking,
            "Unmasking",
            &mut no_idle,
            |id, body| {
                decode_unmasking_response(body)
                    .ok()
                    .filter(|r| r.client == id)
            },
        )?;
        self.server
            .reconstruct_unmasking(responses)
            .map_err(|e| abort_secagg(peers, round, e))?;
        let u5 = self.server.u5().to_vec();

        // Per-chunk unmask progress advances between noise-share polls:
        // the next chunk is unmasked inline while the shares are still
        // in flight.
        let total_chunks = self.plan.chunks();
        let chunk_compute = cfg.chunk_compute;
        let plan = self.plan.clone();
        let telem = cfg.telemetry.clone();
        let job_hist = cfg
            .telemetry
            .histogram("dordis_unmask_job_duration_ns", &[]);
        let mut next_unmask = 0usize;
        let mut unmask_step = |server: &mut Server| -> Result<bool, SecAggError> {
            if next_unmask < total_chunks {
                let span = telem.span("compute", "unmask_chunk", round, Some(next_unmask as u16));
                let t0 = telem.now_ns();
                server.unmask_chunk(next_unmask)?;
                chunk_sleep(chunk_compute, &plan, next_unmask);
                job_hist.observe(telem.now_ns().saturating_sub(t0));
                drop(span);
                next_unmask += 1;
                Ok(true)
            } else {
                Ok(false)
            }
        };

        // ---- Stage 5: ExcessiveNoiseRemoval (only if needed). ----
        if self.server.pending_seed_owners().is_empty() {
            self.push_stage("Unmasking", &up, Traffic::default());
            drop(stage_span);
        } else {
            let u5_env = Envelope::new(
                StageTag::ReadySet,
                round,
                dordis_secagg::messages::IdList(u5.clone()).encoded(),
            );
            let down = self.broadcast(reactor, peers, "Unmasking", &u5_env);
            self.push_stage("Unmasking", &up, down);
            drop(stage_span);
            let _stage_span = cfg
                .telemetry
                .span("stage", "ExcessiveNoiseRemoval", round, None);

            let (responses, up) = self.collect_stage(
                reactor,
                peers,
                &u5,
                StageTag::NoiseShares,
                "ExcessiveNoiseRemoval",
                &mut unmask_step,
                |id, body| {
                    decode_noise_share_response(body)
                        .ok()
                        .filter(|r| r.client == id)
                },
            )?;
            self.server
                .collect_noise_shares(responses)
                .map_err(|e| abort_secagg(peers, round, e))?;
            self.push_stage("ExcessiveNoiseRemoval", &up, Traffic::default());
        }

        // Unmask whatever chunks the idle interleaving did not reach.
        for _ in 0..total_chunks {
            unmask_step(&mut self.server).map_err(|e| abort_secagg(peers, round, e))?;
        }

        // ---- Finished broadcast. ----
        let fin = Envelope::new(
            StageTag::Finished,
            round,
            dordis_secagg::messages::IdList(u3.clone()).encoded(),
        );
        self.broadcast(reactor, peers, "Finished", &fin);

        debug_assert!(self.server.privacy_invariant_holds());
        for d in &self.dropouts {
            if d.kind == DropKind::Aborted {
                self.stats.aborted.push(d.client);
            }
        }
        if cfg.telemetry.is_enabled() {
            for d in &self.dropouts {
                let kind = match d.kind {
                    DropKind::NeverJoined => "never_joined",
                    DropKind::Disconnected => "disconnected",
                    DropKind::DeadlineMissed => "deadline_missed",
                    DropKind::Aborted => "aborted",
                    DropKind::ProtocolViolation => "protocol_violation",
                };
                cfg.telemetry
                    .counter(
                        "dordis_dropouts_total",
                        &[("kind", kind), ("stage", d.stage)],
                    )
                    .inc();
            }
            cfg.telemetry
                .counter("dordis_stale_frames_total", &[])
                .add(self.stale_frames);
        }
        drop(round_span);
        let reactor_now = reactor.stats;
        Ok(NetRoundReport {
            round,
            cohort: self.params.clients,
            outcome: self.server.finish(),
            stats: self.stats,
            dropouts: self.dropouts,
            chunks: total_chunks,
            stale_frames: self.stale_frames,
            reactor: reactor_now.delta_since(reactor_base),
            reactor_session: reactor_now,
            metrics: None,
        })
    }

    /// Broadcasts `env` to every live peer and drives the queued sends
    /// out; peers that cannot take theirs become `stage` dropouts.
    /// Returns the downlink traffic.
    fn broadcast(
        &mut self,
        reactor: &mut Reactor,
        peers: &mut Peers,
        stage: &'static str,
        env: &Envelope,
    ) -> Traffic {
        let down = broadcast(peers, env, &mut self.dropouts, stage, &self.cfg.telemetry);
        flush_sends(reactor, peers, &mut self.dropouts, stage, self.cfg);
        down
    }

    /// Records a finished stage's traffic in the round stats and the
    /// frame-byte counters.
    fn push_stage(&mut self, name: &'static str, up: &Traffic, down: Traffic) {
        for (direction, bytes) in [("in", up.total), ("out", down.total)] {
            self.cfg
                .telemetry
                .counter(
                    "dordis_frame_bytes_total",
                    &[("direction", direction), ("stage", name)],
                )
                .add(bytes);
        }
        self.stats.stages.push(StageTraffic {
            stage: name,
            uplink_total: up.total,
            uplink_max: up.max,
            downlink_total: down.total,
            downlink_max: down.max,
        });
    }

    // -----------------------------------------------------------------
    // Masked-input collection (per stage, chunk).
    // -----------------------------------------------------------------

    /// Files one already-received chunk frame: the bit-packed payload
    /// is decoded in place past the envelope header and fed straight
    /// into the server's per-chunk state, where a completed stream
    /// folds into the running chunk sums — the frame allocation goes
    /// back to the pool immediately instead of parking until a chunk
    /// barrier. Returns whether the client's stream is still alive,
    /// plus the frame for the caller to recycle.
    ///
    /// # Errors
    ///
    /// Propagates server-side collection failures (protocol aborts).
    fn file_chunk_frame(
        &mut self,
        st: &mut ChunkCollect,
        peers: &mut Peers,
        id: ClientId,
        frame: Vec<u8>,
    ) -> Result<(bool, Vec<u8>), NetError> {
        let m = self.plan.chunks();
        *st.per_client.entry(id).or_default() += frame.len() as u64;
        let (stage, frame_round, chunk) = match EnvelopeView::decode(&frame) {
            Ok(env) => (env.stage, env.round, env.chunk),
            Err(_) => {
                let alive = self.drop_from_chunks(st, peers, id, DropKind::ProtocolViolation);
                return Ok((alive, frame));
            }
        };
        if stage == StageTag::Abort {
            let alive = self.drop_from_chunks(st, peers, id, DropKind::Aborted);
            return Ok((alive, frame));
        }
        // Same round gate as `Envelope::check_round` (aborts already
        // handled above, so a round mismatch here is never abort-exempt).
        if frame_round != self.params.round {
            if frame_round < self.params.round {
                // A leftover frame from an earlier round: discard it
                // rather than misparse it into this round's state. The
                // client's current-round stream continues.
                self.stale_frames += 1;
                return Ok((true, frame));
            }
            let alive = self.drop_from_chunks(st, peers, id, DropKind::ProtocolViolation);
            return Ok((alive, frame));
        }
        // Only the stage's expected set (the live part of U2) may stream:
        // a chunk frame from any other connected peer — one that never
        // shared keys, say — is that peer's violation alone, not a
        // server-side collection failure that would abort the round.
        if stage == StageTag::MaskedInput && usize::from(chunk) < m && st.expected.contains(&id) {
            let c = usize::from(chunk);
            let ctx = FrameContext {
                stage: StageTag::MaskedInput,
                round: self.params.round,
                chunk,
            };
            match decode_masked_input(
                &frame[HEADER_BYTES..],
                self.plan.bit_width(),
                self.plan.chunk_len(c),
                ctx,
            ) {
                Ok(mi) if mi.client == id => {
                    self.server
                        .collect_masked_chunk(c, vec![mi])
                        .map_err(|e| abort_secagg(peers, self.params.round, e))?;
                    st.pendings[c].remove(&id);
                    Ok((true, frame))
                }
                _ => {
                    let alive = self.drop_from_chunks(st, peers, id, DropKind::ProtocolViolation);
                    Ok((alive, frame))
                }
            }
        } else {
            let alive = self.drop_from_chunks(st, peers, id, DropKind::ProtocolViolation);
            Ok((alive, frame))
        }
    }

    /// Drops `id` from every remaining chunk, attributing the departure
    /// to the active chunk. Always returns `false` (stream dead).
    fn drop_from_chunks(
        &mut self,
        st: &mut ChunkCollect,
        peers: &mut Peers,
        id: ClientId,
        kind: DropKind,
    ) -> bool {
        let chunk = st.active as u16;
        st.remove_everywhere(id);
        drop_peer(
            peers,
            id,
            "MaskedInputCollection",
            Some(chunk),
            kind,
            &mut self.dropouts,
        );
        false
    }

    /// Closes the active chunk (its pending set must be empty) and
    /// advances to the next one. The chunk's frames were decoded and
    /// fed to the server at arrival, so only the pipeline bookkeeping
    /// remains: the chunk span and the injected per-chunk compute cost.
    fn aggregate_active(&mut self, st: &mut ChunkCollect) {
        let cfg = self.cfg;
        let _span = cfg
            .telemetry
            .span("chunk", "chunk", self.params.round, Some(st.active as u16));
        chunk_sleep(cfg.chunk_compute, &self.plan, st.active);
        st.active += 1;
    }

    /// The per-(stage, chunk) masked-input collector. Chunk `c + 1`'s
    /// frames accumulate (from fast clients and channel buffers) while
    /// chunk `c` is aggregated into the server's per-chunk state; the
    /// stage deadline restarts per chunk. A client whose stream stops —
    /// disconnect, garbage, or silence past the active chunk's deadline
    /// — is dropped from every remaining chunk; its partial deliveries
    /// never reach a sum because U3 requires all chunks. Frames,
    /// disconnects, and deadlines arrive as reactor events: the thread
    /// sleeps in the poller while clients stream.
    fn collect_masked_chunks(
        &mut self,
        reactor: &mut Reactor,
        peers: &mut Peers,
        expected: &[ClientId],
    ) -> Result<Traffic, NetError> {
        let cfg = self.cfg;
        let m = self.plan.chunks();
        let stage_name = "MaskedInputCollection";
        let mut st = ChunkCollect::new(expected, peers, m);
        reactor.arm_deadline(STAGE_TOKEN, Instant::now() + cfg.stage_timeout);

        // Initial sweep: frames may already be buffered (sent between
        // the Inbox flush and this loop), and their readiness may have
        // been consumed by an earlier poll.
        let ids: Vec<ClientId> = st.pendings[0].iter().copied().collect();
        for id in ids {
            self.drain_chunk_frames(&mut st, peers, id)?;
        }

        let (mut events, mut expired) = (Vec::new(), Vec::new());
        loop {
            // Aggregate every chunk whose pending set has emptied; the
            // deadline clock restarts per completed chunk.
            let mut aggregated = false;
            while st.active < m {
                st.pendings[st.active].retain(|id| peers.contains_key(id));
                if !st.pendings[st.active].is_empty() {
                    break;
                }
                self.aggregate_active(&mut st);
                aggregated = true;
            }
            if st.active == m {
                break;
            }
            if aggregated {
                reactor.arm_deadline(STAGE_TOKEN, Instant::now() + cfg.stage_timeout);
            }
            reactor.poll(&mut events, &mut expired, cfg.stage_timeout)?;
            for ev in &events {
                handle_write_event(peers, ev, stage_name, &mut self.dropouts);
                let Some(id) = client_of(ev.token) else {
                    continue;
                };
                if (ev.readable || ev.closed) && peers.contains_key(&id) {
                    self.drain_chunk_frames(&mut st, peers, id)?;
                }
            }
            if expired.contains(&STAGE_TOKEN) {
                let late: Vec<ClientId> = st.pendings[st.active].iter().copied().collect();
                for id in late {
                    let chunk = st.active as u16;
                    st.remove_everywhere(id);
                    drop_peer(
                        peers,
                        id,
                        stage_name,
                        Some(chunk),
                        DropKind::DeadlineMissed,
                        &mut self.dropouts,
                    );
                }
                reactor.arm_deadline(STAGE_TOKEN, Instant::now() + cfg.stage_timeout);
            }
        }
        reactor.cancel_deadline(STAGE_TOKEN);
        Ok(st.uplink())
    }

    /// Drains every currently available frame from `id`'s channel into
    /// the chunk state, detecting stream death (disconnect / abort /
    /// garbage).
    ///
    /// # Errors
    ///
    /// Propagates server-side collection failures (protocol aborts).
    fn drain_chunk_frames(
        &mut self,
        st: &mut ChunkCollect,
        peers: &mut Peers,
        id: ClientId,
    ) -> Result<(), NetError> {
        loop {
            let Some(chan) = peers.get_mut(&id) else {
                return Ok(());
            };
            match chan.try_recv() {
                Ok(Some(frame)) => {
                    let (alive, frame) = self.file_chunk_frame(st, peers, id, frame)?;
                    // The decode copied the payload into the server's
                    // chunk state (or the frame was rejected); the
                    // allocation goes straight back to the pool.
                    if let Some(chan) = peers.get_mut(&id) {
                        chan.recycle_frame(frame);
                    }
                    if !alive {
                        return Ok(());
                    }
                }
                Ok(None) => return Ok(()),
                Err(_) => {
                    let chunk = st.died_at(id);
                    st.remove_everywhere(id);
                    drop_peer(
                        peers,
                        id,
                        "MaskedInputCollection",
                        Some(chunk),
                        DropKind::Disconnected,
                        &mut self.dropouts,
                    );
                    return Ok(());
                }
            }
        }
    }

    // -----------------------------------------------------------------
    // Round-global stage collection.
    // -----------------------------------------------------------------

    /// Files one round-global stage frame; returns `false` if the client
    /// was dropped.
    #[allow(clippy::too_many_arguments)]
    fn file_stage_frame(
        &mut self,
        peers: &mut Peers,
        pending: &mut BTreeSet<ClientId>,
        bodies: &mut BTreeMap<ClientId, Vec<u8>>,
        id: ClientId,
        frame: &[u8],
        want: StageTag,
        stage_name: &'static str,
        up: &mut Traffic,
    ) -> bool {
        up.add(frame.len() as u64);
        let round = self.params.round;
        // Same round gate as `Envelope::check_round`, aborts first (they
        // are round-free).
        let kind = match Envelope::decode(frame) {
            Err(_) => DropKind::ProtocolViolation,
            Ok(env) if env.stage == StageTag::Abort => DropKind::Aborted,
            Ok(env) if env.round < round => {
                // Typed stale-frame rejection: discard, never file.
                self.stale_frames += 1;
                return true;
            }
            Ok(env) if env.round == round && env.stage == want && pending.remove(&id) => {
                bodies.insert(id, env.body);
                return true;
            }
            // A future round, a wrong stage, or a second frame from a
            // client that already answered: out of protocol.
            Ok(_) => DropKind::ProtocolViolation,
        };
        pending.remove(&id);
        drop_peer(peers, id, stage_name, None, kind, &mut self.dropouts);
        false
    }

    /// Collects exactly one `want` message per still-connected expected
    /// client, until the per-stage deadline, and returns them with the
    /// stage's uplink traffic. `decode(id, body)` parses a body and vets
    /// that it names its sender; `None` is that sender's protocol
    /// violation. Silent or disconnected clients become detected
    /// dropouts and are removed from `peers`. The thread sleeps in the
    /// poller until frames, disconnects, or the stage deadline are
    /// ready; `idle` runs between polls so pending per-chunk work
    /// (unmasking) overlaps the wait (non-blocking polls while it
    /// reports more work, so collection stays responsive during long
    /// interleaves).
    ///
    /// # Errors
    ///
    /// Only `idle` failures (protocol aborts) and poller failures —
    /// per-client failures are dropouts, not errors.
    #[allow(clippy::too_many_arguments)]
    fn collect_stage<T>(
        &mut self,
        reactor: &mut Reactor,
        peers: &mut Peers,
        expected: &[ClientId],
        want: StageTag,
        stage_name: &'static str,
        idle: &mut IdleWork<'_>,
        decode: impl Fn(ClientId, &[u8]) -> Option<T>,
    ) -> Result<(Vec<T>, Traffic), NetError> {
        let cfg = self.cfg;
        let mut up = Traffic::default();
        let mut deadline = Instant::now() + cfg.stage_timeout;
        let mut pending: BTreeSet<ClientId> = expected
            .iter()
            .copied()
            .filter(|id| peers.contains_key(id))
            .collect();
        let mut bodies: BTreeMap<ClientId, Vec<u8>> = BTreeMap::new();
        reactor.arm_deadline(STAGE_TOKEN, deadline);

        // Initial sweep: responses may already be buffered, and their
        // readiness may have been consumed by an earlier poll (e.g.
        // during a broadcast flush).
        let ids: Vec<ClientId> = pending.iter().copied().collect();
        for id in ids {
            self.drain_stage_frames(
                peers,
                &mut pending,
                &mut bodies,
                id,
                want,
                stage_name,
                &mut up,
            );
        }

        let (mut events, mut expired) = (Vec::new(), Vec::new());
        'collect: while !pending.is_empty() {
            // Interleaved background work must not eat the peers'
            // response window: credit its wall time back to the stage
            // deadline.
            let idle_start = Instant::now();
            let did_work =
                idle(&mut self.server).map_err(|e| abort_secagg(peers, self.params.round, e))?;
            let spent = idle_start.elapsed();
            if !spent.is_zero() {
                deadline += spent;
                reactor.arm_deadline(STAGE_TOKEN, deadline);
            }
            // With idle work in flight, poll without blocking and come
            // straight back; otherwise sleep until an event or the
            // deadline.
            let wait = if did_work {
                Duration::ZERO
            } else {
                cfg.stage_timeout
            };
            reactor.poll(&mut events, &mut expired, wait)?;
            for ev in &events {
                handle_write_event(peers, ev, stage_name, &mut self.dropouts);
                let Some(id) = client_of(ev.token) else {
                    continue;
                };
                if !(ev.readable || ev.closed) || !peers.contains_key(&id) {
                    continue;
                }
                self.drain_stage_frames(
                    peers,
                    &mut pending,
                    &mut bodies,
                    id,
                    want,
                    stage_name,
                    &mut up,
                );
            }
            // A write-event failure (or any other path) may have dropped
            // a peer without touching `pending` — retain, so the stage
            // can complete and the leftover loop below can't
            // double-record.
            pending.retain(|id| peers.contains_key(id));
            if expired.contains(&STAGE_TOKEN) {
                break 'collect;
            }
        }
        reactor.cancel_deadline(STAGE_TOKEN);
        for id in pending {
            if peers.contains_key(&id) {
                drop_peer(
                    peers,
                    id,
                    stage_name,
                    None,
                    DropKind::DeadlineMissed,
                    &mut self.dropouts,
                );
            }
        }
        let mut msgs = Vec::with_capacity(bodies.len());
        for (id, body) in &bodies {
            match decode(*id, body) {
                Some(msg) => msgs.push(msg),
                None => drop_peer(
                    peers,
                    *id,
                    stage_name,
                    None,
                    DropKind::ProtocolViolation,
                    &mut self.dropouts,
                ),
            }
        }
        Ok((msgs, up))
    }

    /// Drains every currently available frame from `id` during a
    /// round-global stage.
    #[allow(clippy::too_many_arguments)]
    fn drain_stage_frames(
        &mut self,
        peers: &mut Peers,
        pending: &mut BTreeSet<ClientId>,
        bodies: &mut BTreeMap<ClientId, Vec<u8>>,
        id: ClientId,
        want: StageTag,
        stage_name: &'static str,
        up: &mut Traffic,
    ) {
        loop {
            let Some(chan) = peers.get_mut(&id) else {
                return;
            };
            match chan.try_recv() {
                Ok(Some(frame)) => {
                    if !self
                        .file_stage_frame(peers, pending, bodies, id, &frame, want, stage_name, up)
                    {
                        return;
                    }
                    if let Some(chan) = peers.get_mut(&id) {
                        chan.recycle_frame(frame);
                    }
                }
                Ok(None) => return,
                Err(_) => {
                    if pending.remove(&id) {
                        drop_peer(
                            peers,
                            id,
                            stage_name,
                            None,
                            DropKind::Disconnected,
                            &mut self.dropouts,
                        );
                    } else {
                        // Already answered this stage; the disconnect
                        // will be observed when it next matters.
                    }
                    return;
                }
            }
        }
    }
}

/// A protocol-level failure aborts the round: everyone still connected
/// is told why, then the round fails.
fn abort_secagg(peers: &mut Peers, round: u64, e: SecAggError) -> NetError {
    abort_all(peers, round, &e);
    NetError::SecAgg(e)
}

/// Sleeps the injected per-chunk s-comp cost: the whole-vector cost
/// scaled by the chunk's share of the elements.
fn chunk_sleep(chunk_compute: Option<Duration>, plan: &ChunkPlan, chunk: usize) {
    let Some(total) = chunk_compute else { return };
    let d = plan.vector_len().max(1);
    let frac = plan.chunk_len(chunk) as f64 / d as f64;
    let dur = total.mul_f64(frac);
    if !dur.is_zero() {
        std::thread::sleep(dur);
    }
}

/// Shared per-chunk collection state.
struct ChunkCollect {
    /// Clients still owing each chunk.
    pendings: Vec<BTreeSet<ClientId>>,
    /// The stage's expected set (the live part of U2 at stage start);
    /// only these clients may stream.
    expected: BTreeSet<ClientId>,
    /// Uplink bytes per client (the per-stage max is over whole chunk
    /// streams, not individual frames).
    per_client: BTreeMap<ClientId, u64>,
    /// Chunk currently being collected/aggregated.
    active: usize,
}

impl ChunkCollect {
    fn new(expected: &[ClientId], peers: &Peers, m: usize) -> ChunkCollect {
        let base: BTreeSet<ClientId> = expected
            .iter()
            .copied()
            .filter(|id| peers.contains_key(id))
            .collect();
        ChunkCollect {
            pendings: vec![base.clone(); m],
            expected: base,
            per_client: BTreeMap::new(),
            active: 0,
        }
    }

    /// First chunk `id` still owes (where its stream died), for dropout
    /// attribution; falls back to the active chunk.
    fn died_at(&self, id: ClientId) -> u16 {
        self.pendings
            .iter()
            .position(|p| p.contains(&id))
            .unwrap_or(self.active) as u16
    }

    fn remove_everywhere(&mut self, id: ClientId) {
        for p in &mut self.pendings {
            p.remove(&id);
        }
    }

    fn uplink(&self) -> Traffic {
        let mut up = Traffic::default();
        for &bytes in self.per_client.values() {
            up.add(bytes);
        }
        up
    }
}

/// Flushes a backlogged write surfaced by a write-readiness event.
fn handle_write_event(
    peers: &mut Peers,
    ev: &Event,
    stage_name: &'static str,
    dropouts: &mut Vec<DetectedDropout>,
) {
    if !ev.writable {
        return;
    }
    let Some(id) = client_of(ev.token) else {
        return;
    };
    if let Some(chan) = peers.get_mut(&id) {
        if chan.try_flush().is_err() {
            drop_peer(
                peers,
                id,
                stage_name,
                None,
                DropKind::Disconnected,
                dropouts,
            );
        }
    }
}

/// Removes a peer and records the detection.
fn drop_peer(
    peers: &mut Peers,
    id: ClientId,
    stage: &'static str,
    chunk: Option<u16>,
    kind: DropKind,
    dropouts: &mut Vec<DetectedDropout>,
) {
    peers.remove(&id);
    dropouts.push(DetectedDropout {
        client: id,
        stage,
        chunk,
        kind,
    });
}

/// Broadcasts an envelope to every live peer; send failures become
/// detected dropouts (a write timeout is a deadline miss, anything else
/// a disconnect). The sends only queue — callers follow up with
/// [`flush_sends`]. Returns downlink traffic.
///
/// The frame is encoded exactly **once** per broadcast (counted in
/// `dordis_broadcast_encodes_total`) into a refcounted wire message;
/// reactor-registered TCP channels queue the shared allocation instead
/// of copying it per peer, so a Setup carrying the model payload costs
/// one encoding for the whole cohort.
fn broadcast(
    peers: &mut Peers,
    env: &Envelope,
    dropouts: &mut Vec<DetectedDropout>,
    stage: &'static str,
    telemetry: &Telemetry,
) -> Traffic {
    let wire = wire_message(&env.encode());
    telemetry
        .counter("dordis_broadcast_encodes_total", &[])
        .inc();
    let frame_len = (wire.len() - 4) as u64;
    let mut down = Traffic::default();
    let ids: Vec<ClientId> = peers.keys().copied().collect();
    for id in ids {
        if let Some(chan) = peers.get_mut(&id) {
            match chan.send_wire_shared(&wire) {
                Ok(()) => down.add(frame_len),
                Err(e) => drop_peer(peers, id, stage, None, send_failure_kind(&e), dropouts),
            }
        }
    }
    down
}

/// Sends to one peer; failure becomes a detected dropout.
fn send_or_drop(
    peers: &mut Peers,
    id: ClientId,
    env: &Envelope,
    stage: &'static str,
    dropouts: &mut Vec<DetectedDropout>,
) {
    if let Some(chan) = peers.get_mut(&id) {
        if let Err(e) = send_env(chan.as_mut(), env) {
            drop_peer(peers, id, stage, None, send_failure_kind(&e), dropouts);
        }
    }
}

/// A send that timed out hit a stalled-but-connected peer (deadline
/// miss); any other failure is a disconnect.
fn send_failure_kind(e: &NetError) -> DropKind {
    match e {
        NetError::Timeout => DropKind::DeadlineMissed,
        _ => DropKind::Disconnected,
    }
}

/// Drives write readiness until every queued broadcast frame has
/// drained (peers that cannot absorb theirs within the stage timeout
/// become detected dropouts).
fn flush_sends(
    reactor: &mut Reactor,
    peers: &mut Peers,
    dropouts: &mut Vec<DetectedDropout>,
    stage: &'static str,
    cfg: &SessionConfig<'_>,
) {
    let deadline = Instant::now() + cfg.stage_timeout;
    let (mut events, mut expired) = (Vec::new(), Vec::new());
    loop {
        let backlogged: Vec<ClientId> = peers
            .iter()
            .filter(|(_, c)| c.wants_write())
            .map(|(&id, _)| id)
            .collect();
        if backlogged.is_empty() {
            return;
        }
        let now = Instant::now();
        if now >= deadline {
            for id in backlogged {
                drop_peer(peers, id, stage, None, DropKind::DeadlineMissed, dropouts);
            }
            return;
        }
        if reactor
            .poll(&mut events, &mut expired, deadline - now)
            .is_err()
        {
            // The poller itself failed: readiness can no longer drive
            // these drains, so the undelivered peers must be recorded
            // as dropouts — silently returning would let them be
            // misattributed (or lost) at the next stage.
            for id in backlogged {
                drop_peer(peers, id, stage, None, DropKind::Disconnected, dropouts);
            }
            return;
        }
        for ev in &events {
            handle_write_event(peers, ev, stage, dropouts);
        }
    }
}

/// Best-effort abort notification to everyone still connected.
fn abort_all(peers: &mut Peers, round: u64, err: &SecAggError) {
    let env = Envelope::new(
        StageTag::Abort,
        round,
        codec::encode_abort(&err.to_string()),
    );
    let wire = wire_message(&env.encode());
    for chan in peers.values_mut() {
        let _ = chan.send_wire_shared(&wire);
        let _ = chan.try_flush();
    }
}
