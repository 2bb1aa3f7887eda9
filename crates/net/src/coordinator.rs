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
//! round's state: the round gate ([`codec`]'s one comparison of a
//! frame's round with the current one) discards frames from older
//! rounds (a slow peer catching up after a session transition) and
//! counts them in [`NetRoundReport::stale_frames`]; frames claiming
//! future rounds are protocol violations.
//!
//! ## The per-(stage, chunk) data plane
//!
//! Every stage is a (stage, chunk) task (§4.1), and one collector runs
//! them all. The masked-input stage has one frame per [`ChunkPlan`]
//! chunk; a control stage (key advertisement, share routing,
//! consistency, share collection) is a one-chunk stage. Each frame is
//! decoded from the borrowed envelope on arrival: a control message is
//! filed by sender id, so the server sees it in id order, and chunk
//! `c`'s masked inputs are aggregated into the server's per-chunk state
//! *while chunk `c+1`'s frames are still in flight*. The stage deadline
//! applies per chunk (the clock restarts when a chunk closes). A second
//! frame for a chunk a client already delivered is that client's
//! protocol violation, as is a chunk id outside the plan. Per-chunk
//! unmasking is interleaved with the noise-share collection when XNoise
//! seed recovery is needed, so the s-comp and comm resources overlap end
//! to end as in Figure 12. A client whose chunk stream stops partway is
//! a detected dropout: U3 only admits clients that delivered *every*
//! chunk.
//!
//! ## Readiness-driven collection
//!
//! The collector is driven by [`reactor`](crate::reactor) events: the
//! coordinator thread sleeps in `epoll_pwait` until a frame, a
//! disconnect, or a deadline is actually ready, so one thread serves
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
    encode_list, round_gate, Encode, Envelope, EnvelopeView, RoundGate, StageTag,
};
use crate::faults::KillPoint;
use crate::reactor::{Event, Reactor, ReactorStats, Token};
use crate::session::SessionConfig;
use crate::tcp::TcpChannel;
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
    /// Chunk the collector was on when it detected the departure (None
    /// outside the masked-input stage).
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
pub(crate) type Peers = BTreeMap<ClientId, TcpChannel>;

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
        let (advs, up) = self.collect(
            reactor,
            peers,
            &joined,
            StageTag::AdvertiseKeys,
            "AdvertiseKeys",
            &mut no_idle,
            &mut |_, id, env| {
                decode_advertised_keys(env.body)
                    .ok()
                    .filter(|a| a.client == id)
            },
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
        let (cts, up) = self.collect(
            reactor,
            peers,
            &expected,
            StageTag::ShareKeys,
            "ShareKeys",
            &mut no_idle,
            &mut |_, id, env| {
                let cts = decode_list(env.body, decode_encrypted_shares).ok()?;
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
        // Each chunk frame is decoded on arrival and fed straight into
        // the server's per-chunk state, where a completed stream folds
        // into the running sums. A frame the server refuses is its
        // sender's violation, never a round abort.
        let (_, up) = self.collect(
            reactor,
            peers,
            &expected,
            StageTag::MaskedInput,
            "MaskedInputCollection",
            &mut no_idle,
            &mut |server, id, env| {
                let c = usize::from(env.chunk);
                let plan = server.chunk_plan();
                let (bits, len) = (plan.bit_width(), plan.chunk_len(c));
                let mi = decode_masked_input(env.body, bits, len, env.context())
                    .ok()
                    .filter(|mi| mi.client == id)?;
                server.collect_masked_chunk(c, vec![mi]).ok()
            },
        )?;
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
            let (sigs, up) = self.collect(
                reactor,
                peers,
                &u3,
                StageTag::ConsistencySig,
                "ConsistencyCheck",
                &mut no_idle,
                &mut |_, id, env| {
                    decode_consistency_signature(env.body)
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
        let (responses, up) = self.collect(
            reactor,
            peers,
            &u3,
            StageTag::Unmasking,
            "Unmasking",
            &mut no_idle,
            &mut |_, id, env| {
                decode_unmasking_response(env.body)
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

            let (responses, up) = self.collect(
                reactor,
                peers,
                &u5,
                StageTag::NoiseShares,
                "ExcessiveNoiseRemoval",
                &mut unmask_step,
                &mut |_, id, env| {
                    decode_noise_share_response(env.body)
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
    // Collection: one loop over (stage, chunk).
    // -----------------------------------------------------------------

    /// The one collector. Every stage of a round is a (stage, chunk)
    /// task (§4.1): the masked-input stage has the round's `m` chunks, a
    /// control stage is one chunk. Collects one `want` frame per chunk
    /// from every still-connected `expected` client and returns what
    /// `on_frame` accepted, in id order, with the stage's uplink traffic
    /// (counted per client stream).
    ///
    /// Chunk `c + 1`'s frames are filed while chunk `c` is still open;
    /// the stage deadline restarts when a chunk closes. A client that
    /// disconnects, aborts, sends garbage, or stays silent past the open
    /// chunk's deadline is dropped from every chunk it still owes, so a
    /// partial stream never reaches a sum (U3 requires all chunks). The
    /// thread sleeps in the poller until frames, disconnects, or the
    /// deadline are ready; `idle` runs between polls so pending
    /// per-chunk work (unmasking) overlaps the wait, non-blocking while
    /// it reports more work.
    ///
    /// # Errors
    ///
    /// Only `idle` failures (protocol aborts) and poller failures —
    /// per-client failures are dropouts, not errors.
    #[allow(clippy::too_many_arguments)]
    fn collect<T>(
        &mut self,
        reactor: &mut Reactor,
        peers: &mut Peers,
        expected: &[ClientId],
        want: StageTag,
        name: &'static str,
        idle: &mut IdleWork<'_>,
        on_frame: &mut OnFrame<'_, T>,
    ) -> Result<(Vec<T>, Traffic), NetError> {
        let (round, timeout) = (self.params.round, self.cfg.stage_timeout);
        let data_plane = want == StageTag::MaskedInput;
        let chunks = if data_plane { self.plan.chunks() } else { 1 };
        let owed: BTreeSet<ClientId> = expected
            .iter()
            .copied()
            .filter(|id| peers.contains_key(id))
            .collect();
        let mut st = Collect {
            want,
            name,
            pendings: vec![owed; chunks],
            active: 0,
            uplink: BTreeMap::new(),
            filed: BTreeMap::new(),
            on_frame,
        };
        let mut deadline = Instant::now() + timeout;
        reactor.arm_deadline(STAGE_TOKEN, deadline);

        // Initial sweep: frames may already be buffered, and their
        // readiness may have been consumed by an earlier poll (e.g.
        // during a broadcast flush).
        for id in st.pendings[0].clone() {
            self.read_peer(&mut st, peers, id);
        }

        let (mut events, mut expired) = (Vec::new(), Vec::new());
        loop {
            // Close every chunk nobody owes any more (a write failure
            // may have dropped a peer behind the collector's back); the
            // deadline restarts per closed chunk.
            let mut closed = false;
            while let Some(pending) = st.pendings.get_mut(st.active) {
                pending.retain(|id| peers.contains_key(id));
                if !pending.is_empty() {
                    break;
                }
                if data_plane {
                    let chunk = Some(st.active as u16);
                    let _span = self.cfg.telemetry.span("chunk", "chunk", round, chunk);
                    chunk_sleep(self.cfg.chunk_compute, &self.plan, st.active);
                }
                st.active += 1;
                closed = true;
            }
            if st.active == chunks {
                break;
            }
            if closed {
                deadline = Instant::now() + timeout;
                reactor.arm_deadline(STAGE_TOKEN, deadline);
            }
            // Interleaved background work must not eat the peers'
            // response window: its wall time is credited back to the
            // deadline, and while it reports more work the poll does not
            // block.
            let idle_start = Instant::now();
            let did_work = idle(&mut self.server).map_err(|e| abort_secagg(peers, round, e))?;
            let wait = if did_work {
                deadline += idle_start.elapsed();
                reactor.arm_deadline(STAGE_TOKEN, deadline);
                Duration::ZERO
            } else {
                timeout
            };
            reactor.poll(&mut events, &mut expired, wait)?;
            for ev in &events {
                handle_write_event(peers, ev, name, &mut self.dropouts);
                match client_of(ev.token) {
                    Some(id) if (ev.readable || ev.closed) && peers.contains_key(&id) => {
                        self.read_peer(&mut st, peers, id);
                    }
                    _ => {}
                }
            }
            if expired.contains(&STAGE_TOKEN) {
                let at = st.active;
                for id in std::mem::take(&mut st.pendings[at]) {
                    if peers.contains_key(&id) {
                        st.drop_client(peers, id, at, DropKind::DeadlineMissed, &mut self.dropouts);
                    }
                }
            }
        }
        reactor.cancel_deadline(STAGE_TOKEN);
        let mut up = Traffic::default();
        for &bytes in st.uplink.values() {
            up.add(bytes);
        }
        Ok((st.filed.into_values().collect(), up))
    }

    /// Files every frame `id` has buffered. A disconnect drops `id` at
    /// the first chunk it still owes; a client that owes nothing has
    /// answered, and its disconnect is observed when it next matters.
    fn read_peer<T>(&mut self, st: &mut Collect<'_, T>, peers: &mut Peers, id: ClientId) {
        let closed = drain_frames(peers, id, |peers, frame| {
            self.file(st, peers, id, frame);
            true
        });
        if closed {
            if let Some(at) = st.pendings.iter().position(|p| p.contains(&id)) {
                st.drop_client(peers, id, at, DropKind::Disconnected, &mut self.dropouts);
            }
        }
    }

    /// Files one frame from `id`: the round gate first (a stale frame
    /// is counted and discarded, the stream goes on), then `on_frame`
    /// for a `want` frame of a chunk `id` still owes. Anything else — an
    /// abort, garbage, a future round, another stage, a chunk out of
    /// range or already delivered, a body `on_frame` refuses — drops
    /// `id` from the stage.
    fn file<T>(&mut self, st: &mut Collect<'_, T>, peers: &mut Peers, id: ClientId, frame: &[u8]) {
        *st.uplink.entry(id).or_default() += frame.len() as u64;
        let kind = match EnvelopeView::decode(frame) {
            Err(_) => DropKind::ProtocolViolation,
            Ok(env) => match round_gate(env.stage, env.round, self.params.round) {
                RoundGate::Abort => DropKind::Aborted,
                RoundGate::Stale => {
                    self.stale_frames += 1;
                    return;
                }
                RoundGate::Future => DropKind::ProtocolViolation,
                RoundGate::Current => {
                    let c = usize::from(env.chunk);
                    if env.stage == st.want && st.pendings.get(c).is_some_and(|p| p.contains(&id)) {
                        if let Some(msg) = (st.on_frame)(&mut self.server, id, &env) {
                            st.pendings[c].remove(&id);
                            st.filed.insert(id, msg);
                            return;
                        }
                    }
                    DropKind::ProtocolViolation
                }
            },
        };
        let at = st.active;
        st.drop_client(peers, id, at, kind, &mut self.dropouts);
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

/// A stage's per-frame callback: decodes the body from the borrowed
/// envelope as the frame arrives and vets that it names its sender.
/// `None` is the sender's protocol violation.
type OnFrame<'a, T> = dyn FnMut(&mut Server, ClientId, &EnvelopeView<'_>) -> Option<T> + 'a;

/// One stage's collection state. A control stage is one chunk.
struct Collect<'a, T> {
    /// The uplink tag the stage collects.
    want: StageTag,
    /// The stage's name in reports.
    name: &'static str,
    /// Clients still owing each chunk.
    pendings: Vec<BTreeSet<ClientId>>,
    /// The open chunk: the first one some client still owes.
    active: usize,
    /// Uplink bytes per client stream (the stage's max is over whole
    /// streams, not individual frames).
    uplink: BTreeMap<ClientId, u64>,
    /// What `on_frame` accepted, by sender.
    filed: BTreeMap<ClientId, T>,
    on_frame: &'a mut OnFrame<'a, T>,
}

impl<T> Collect<'_, T> {
    /// Drops `id` from every chunk it still owes and records the
    /// departure at chunk `at` (labelled on the masked-input stage only).
    fn drop_client(
        &mut self,
        peers: &mut Peers,
        id: ClientId,
        at: usize,
        kind: DropKind,
        dropouts: &mut Vec<DetectedDropout>,
    ) {
        for pending in &mut self.pendings {
            pending.remove(&id);
        }
        let chunk = (self.want == StageTag::MaskedInput).then_some(at as u16);
        drop_peer(peers, id, self.name, chunk, kind, dropouts);
    }
}

/// Drains the frames `key`'s channel has buffered, in arrival order:
/// `file` sees each one (with the map, so it may unmap the channel) and
/// says whether to keep reading, and the frame then goes back to its
/// channel's pool. Returns whether the channel reported closed.
pub(crate) fn drain_frames<K: Ord>(
    chans: &mut BTreeMap<K, TcpChannel>,
    key: K,
    mut file: impl FnMut(&mut BTreeMap<K, TcpChannel>, &[u8]) -> bool,
) -> bool {
    while let Some(chan) = chans.get_mut(&key) {
        let frame = match chan.try_recv() {
            Ok(Some(frame)) => frame,
            Ok(None) => break,
            Err(_) => return true,
        };
        let more = file(chans, &frame);
        if let Some(chan) = chans.get_mut(&key) {
            chan.recycle_frame(frame);
        }
        if !more {
            break;
        }
    }
    false
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
        if let Err(e) = send_env(chan, env) {
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
