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
//! ## Stage transitions over one I/O context
//!
//! A round is split in two. The stage transitions (`net::stages`) hold
//! the protocol state — the secagg [`Server`], the [`ChunkPlan`], the
//! seated parameters — and make every decision: whom a stage collects
//! from, which tag, what the server does with the filed messages, what
//! goes back and which stage comes next. `RoundIo`, the one I/O context,
//! holds the reactor, the peers, the dropouts, the traffic, the spans
//! and the fault hooks, and runs one `stage` step for every stage: open
//! the span, `collect`, run the server step (an error becomes an abort
//! broadcast), send the reply, record the traffic. A
//! [`Session`](crate::session::Session) — the only way to run a round —
//! builds a fresh pair per round and runs them back to back over the
//! same persistent connections. A frame whose envelope carries a
//! *different* round id than the round's is never parsed into the
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
//! filed from the borrowed envelope on arrival: a control message is
//! decoded and filed by sender id, so the server sees it in id order,
//! and chunk `c`'s masked inputs go to the server as their packed wire
//! payloads — never decoded — *while chunk `c+1`'s frames are still in
//! flight*. The stage deadline
//! applies per chunk (the clock restarts when a chunk closes). A second
//! frame for a chunk a client already delivered is that client's
//! protocol violation, as is a chunk id outside the plan. A client
//! whose chunk stream stops partway is a detected dropout: U3 only
//! admits clients that delivered *every* chunk. Once the last share
//! stage has closed, the round unmasks chunk by chunk, each chunk
//! expanding only its own range of every mask to cancel.
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
use std::sync::Arc;
use std::time::{Duration, Instant};

use dordis_secagg::server::{RoundOutcome, Server};
use dordis_secagg::{ChunkPlan, ClientId, SecAggError};
use dordis_telemetry::{Gauge, MetricsSnapshot, SpanGuard, Telemetry};

use crate::codec::{self, round_gate, Envelope, EnvelopeView, RoundGate, StageTag};
use crate::faults::KillPoint;
use crate::reactor::{Event, Reactor, ReactorStats, Token};
use crate::session::SessionConfig;
use crate::stages::Round;
use crate::tcp::TcpChannel;
use crate::transport::{wire_message, Channel};
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

/// Traffic one stage moved, in framed bytes on the wire (envelope
/// headers included).
#[derive(Clone, Debug, Default)]
pub struct StageTraffic {
    /// Stage name.
    pub stage: &'static str,
    /// Total client→server bytes.
    pub uplink_total: u64,
    /// Largest single client's uplink bytes.
    pub uplink_max: u64,
    /// Total server→client bytes.
    pub downlink_total: u64,
    /// Largest single client's downlink bytes.
    pub downlink_max: u64,
}

/// A round's traffic, stage by stage.
#[derive(Clone, Debug, Default)]
pub struct RoundStats {
    /// Per-stage traffic in execution order.
    pub stages: Vec<StageTraffic>,
}

impl RoundStats {
    /// Total bytes moved in the round.
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.stages
            .iter()
            .map(|s| s.uplink_total + s.downlink_total)
            .sum()
    }

    /// Finds a stage's traffic by name.
    #[must_use]
    pub fn stage(&self, name: &str) -> Option<&StageTraffic> {
        self.stages.iter().find(|s| s.stage == name)
    }
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
    /// Per-stage traffic, measured as framed bytes on the wire
    /// (envelope headers included): the one count of what a round moves.
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

/// Live connections, keyed by authenticated-at-join client id.
pub(crate) type Peers = BTreeMap<ClientId, TcpChannel>;

/// Reactor token namespace: client tokens are the id itself; tokens at
/// or above `JOIN_BASE` are provisional (unauthenticated) connections;
/// the topmost values are reserved for the stage timer and the
/// reactor's metrics endpoint.
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
// The round's one I/O context.
// ---------------------------------------------------------------------

/// What a stage sends back once the server has decided.
pub(crate) enum Reply {
    /// Nothing.
    None,
    /// One body for every live peer, encoded once.
    All(StageTag, Vec<u8>),
    /// Each live peer's own body, in id order.
    Each(StageTag, Box<dyn FnMut(ClientId) -> Vec<u8>>),
}

/// The one I/O context of a round: the reactor, the seated peers and
/// what the round observes of them — dropouts, traffic, stale frames,
/// spans, custody — plus the fault hooks. The [`stages`](crate::stages)
/// transitions reach the network only through it, and nothing in it
/// decides protocol. When the round ends, `peers` holds exactly the
/// connections that survived it.
pub(crate) struct RoundIo<'r> {
    cfg: &'r SessionConfig<'r>,
    reactor: &'r mut Reactor,
    peers: &'r mut Peers,
    round: u64,
    cohort: Vec<ClientId>,
    plan: ChunkPlan,
    stats: RoundStats,
    dropouts: Vec<DetectedDropout>,
    stale_frames: u64,
    /// The server's data-plane custody, from the masked-input stage on.
    custody: Option<Custody>,
    span: SpanGuard,
}

impl<'r> RoundIo<'r> {
    /// Opens `round`'s span and records every seated client without a
    /// connection as never joined.
    pub(crate) fn new(
        cfg: &'r SessionConfig<'r>,
        reactor: &'r mut Reactor,
        peers: &'r mut Peers,
        round: &Round,
    ) -> RoundIo<'r> {
        let id = round.params.round;
        let span = cfg.telemetry.span("round", "round", id, None);
        let mut dropouts = Vec::new();
        for &client in &round.params.clients {
            if !peers.contains_key(&client) {
                let kind = DropKind::NeverJoined;
                drop_peer(peers, client, "Join", None, kind, &mut dropouts);
            }
        }
        RoundIo {
            cfg,
            reactor,
            peers,
            round: id,
            cohort: round.params.clients.clone(),
            plan: round.plan.clone(),
            stats: RoundStats::default(),
            dropouts,
            stale_frames: 0,
            custody: None,
            span,
        }
    }

    /// The one stage step: opens the stage's span, collects one `want`
    /// frame per chunk from every still-connected client of `from`
    /// (`on_frame` vets and files each as it arrives), hands what was
    /// filed to the server `step` — whose error aborts the round — sends
    /// the reply it returns and records the stage's traffic under
    /// `name`. Returns what `step` decided.
    ///
    /// # Errors
    ///
    /// The abort, an injected kill, a poller failure.
    pub(crate) fn stage<T, N>(
        &mut self,
        server: &mut Server,
        (name, want): (&'static str, StageTag),
        from: &[ClientId],
        on_frame: &mut OnFrame<'_, T>,
        step: impl FnOnce(&mut Server, Vec<T>) -> Result<(N, Reply), SecAggError>,
    ) -> Result<N, NetError> {
        let _span = self.span(name);
        let data_plane = want == StageTag::MaskedInput;
        if data_plane {
            // Fault hook: the primary dies while the data plane is
            // mid-flight — the hardest crash, nothing of this round
            // exists outside the dying process.
            self.trip(KillPoint::MidMaskedStage)?;
            let custody = Custody::new(&self.cfg.telemetry);
            custody.record(server);
            self.custody = Some(custody);
        }
        let (filed, up) = self.collect(server, from, want, name, on_frame)?;
        let (next, reply) = step(server, filed).map_err(|e| self.abort(e))?;
        if let Some(custody) = self.custody.as_ref().filter(|_| data_plane) {
            custody.record(server);
        }
        let (uplink_total, uplink_max) = sum_max(&up);
        let (downlink_total, downlink_max) = sum_max(&self.send(name, reply));
        let telemetry = &self.cfg.telemetry;
        for (direction, bytes) in [("in", uplink_total), ("out", downlink_total)] {
            let labels = [("direction", direction), ("stage", name)];
            let counter = telemetry.counter("dordis_frame_bytes_total", &labels);
            counter.add(bytes);
        }
        self.stats.stages.push(StageTraffic {
            stage: name,
            uplink_total,
            uplink_max,
            downlink_total,
            downlink_max,
        });
        Ok(next)
    }

    /// Sends `reply` to every live peer and drives the queued sends out;
    /// peers that cannot take theirs become `stage` dropouts (a write
    /// timeout is a deadline miss, anything else a disconnect). Returns
    /// the frame bytes of each peer that took its frame.
    pub(crate) fn send(&mut self, stage: &'static str, reply: Reply) -> Vec<u64> {
        let (mut sent, failed) = match reply {
            Reply::None => return Vec::new(),
            Reply::All(tag, body) => {
                let env = Envelope::new(tag, self.round, body);
                let queued = broadcast(self.peers, &env, &self.cfg.telemetry);
                let len = (queued.wire.len() - 4) as u64;
                let sent = self.peers.keys().map(|&id| (id, len)).collect();
                (sent, queued.failed)
            }
            Reply::Each(tag, mut body_for) => {
                let (mut sent, mut failed) = (BTreeMap::new(), Vec::new());
                for (&id, chan) in self.peers.iter_mut() {
                    let frame = Envelope::new(tag, self.round, body_for(id)).encode();
                    sent.insert(id, frame.len() as u64);
                    if let Err(e) = chan.send(&frame) {
                        failed.push((id, e));
                    }
                }
                (sent, failed)
            }
        };
        for (id, e) in failed {
            sent.remove(&id);
            // A send that timed out hit a stalled-but-connected peer.
            let kind = match e {
                NetError::Timeout => DropKind::DeadlineMissed,
                _ => DropKind::Disconnected,
            };
            self.depart(id, stage, kind);
        }
        self.flush(stage);
        sent.into_values().collect()
    }

    /// Drives write readiness until every queued frame has drained;
    /// peers that cannot absorb theirs within the stage timeout become
    /// `stage` dropouts.
    fn flush(&mut self, stage: &'static str) {
        let deadline = Instant::now() + self.cfg.stage_timeout;
        let (mut events, mut expired) = (Vec::new(), Vec::new());
        loop {
            let backlogged: Vec<ClientId> = self
                .peers
                .iter()
                .filter(|(_, c)| c.wants_write())
                .map(|(&id, _)| id)
                .collect();
            if backlogged.is_empty() {
                return;
            }
            let now = Instant::now();
            // Past the deadline the backlogged peers missed it. If the
            // poller itself failed, readiness can no longer drive these
            // drains, so they must be recorded as dropouts too —
            // silently returning would let them be misattributed (or
            // lost) at the next stage.
            let kind = if now >= deadline {
                DropKind::DeadlineMissed
            } else if self
                .reactor
                .poll(&mut events, &mut expired, deadline - now)
                .is_err()
            {
                DropKind::Disconnected
            } else {
                for ev in &events {
                    if let Some(id) = handle_write_event(self.peers, ev) {
                        self.depart(id, stage, DropKind::Disconnected);
                    }
                }
                continue;
            };
            for id in backlogged {
                self.depart(id, stage, kind.clone());
            }
            return;
        }
    }

    /// Unmaps `id` and records its departure at `stage`.
    fn depart(&mut self, id: ClientId, stage: &'static str, kind: DropKind) {
        drop_peer(self.peers, id, stage, None, kind, &mut self.dropouts);
    }

    /// The round's closing compute, chunk by chunk: `job(c)` under its
    /// span, timed into `dordis_unmask_job_duration_ns`, with the
    /// injected per-chunk cost; a failed job aborts the round.
    ///
    /// # Errors
    ///
    /// The abort.
    pub(crate) fn compute(
        &mut self,
        mut job: impl FnMut(usize) -> Result<(), SecAggError>,
    ) -> Result<(), NetError> {
        let (cfg, round) = (self.cfg, self.round);
        let telemetry = &cfg.telemetry;
        let hist = telemetry.histogram("dordis_unmask_job_duration_ns", &[]);
        for c in 0..self.plan.chunks() {
            let _span = telemetry.span("compute", "unmask_chunk", round, Some(c as u16));
            let t0 = telemetry.now_ns();
            job(c).map_err(|e| self.abort(e))?;
            chunk_sleep(cfg.chunk_compute, &self.plan, c);
            hist.observe(telemetry.now_ns().saturating_sub(t0));
        }
        Ok(())
    }

    /// A stage's span.
    pub(crate) fn span(&self, name: &'static str) -> SpanGuard {
        self.cfg.telemetry.span("stage", name, self.round, None)
    }

    /// Fires the round's fault hook `point`. An injected kill is
    /// propagated as it is, never through the abort: it must look like
    /// crash silence.
    ///
    /// # Errors
    ///
    /// The injected kill.
    pub(crate) fn trip(&self, point: KillPoint) -> Result<(), NetError> {
        self.cfg.faults.trip(point, self.round)
    }

    /// A protocol-level failure aborts the round: everyone still
    /// connected is told why (best effort), then the round fails.
    fn abort(&mut self, e: SecAggError) -> NetError {
        let body = codec::encode_abort(&e.to_string());
        let env = Envelope::new(StageTag::Abort, self.round, body);
        broadcast(self.peers, &env, &self.cfg.telemetry);
        NetError::SecAgg(e)
    }

    /// Closes the round's accounting — dropouts and stale frames onto
    /// the scrape, then the round's span — and reports it. `base` is the
    /// reactor's counters when the round's accounting window opened
    /// (before its join phase).
    pub(crate) fn report(self, outcome: RoundOutcome, base: ReactorStats) -> NetRoundReport {
        let telemetry = &self.cfg.telemetry;
        for d in &self.dropouts {
            let kind = match d.kind {
                DropKind::NeverJoined => "never_joined",
                DropKind::Disconnected => "disconnected",
                DropKind::DeadlineMissed => "deadline_missed",
                DropKind::Aborted => "aborted",
                DropKind::ProtocolViolation => "protocol_violation",
            };
            let labels = [("kind", kind), ("stage", d.stage)];
            telemetry.counter("dordis_dropouts_total", &labels).inc();
        }
        let stale = telemetry.counter("dordis_stale_frames_total", &[]);
        stale.add(self.stale_frames);
        drop(self.span);
        let reactor_now = self.reactor.stats;
        NetRoundReport {
            round: self.round,
            cohort: self.cohort,
            outcome,
            stats: self.stats,
            dropouts: self.dropouts,
            chunks: self.plan.chunks(),
            stale_frames: self.stale_frames,
            reactor: reactor_now.delta_since(base),
            reactor_session: reactor_now,
            metrics: None,
        }
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
    /// deadline are ready.
    ///
    /// # Errors
    ///
    /// Only poller failures — per-client failures are dropouts, not
    /// errors.
    fn collect<T>(
        &mut self,
        server: &mut Server,
        expected: &[ClientId],
        want: StageTag,
        name: &'static str,
        on_frame: &mut OnFrame<'_, T>,
    ) -> Result<(Vec<T>, Vec<u64>), NetError> {
        let (round, timeout) = (self.round, self.cfg.stage_timeout);
        let data_plane = want == StageTag::MaskedInput;
        let chunks = if data_plane { self.plan.chunks() } else { 1 };
        let peers = &mut *self.peers;
        let owed: BTreeSet<ClientId> = expected
            .iter()
            .copied()
            .filter(|id| peers.contains_key(id))
            .collect();
        let mut st = Collect {
            round,
            want,
            name,
            pendings: vec![owed; chunks],
            active: 0,
            uplink: BTreeMap::new(),
            filed: BTreeMap::new(),
            server,
            on_frame,
            custody: self.custody.as_ref().filter(|_| data_plane),
            dropouts: &mut self.dropouts,
            stale: 0,
        };
        let reactor = &mut *self.reactor;
        reactor.arm_deadline(STAGE_TOKEN, Instant::now() + timeout);

        // Initial sweep: frames may already be buffered, and their
        // readiness may have been consumed by an earlier poll (e.g.
        // during a broadcast flush).
        for id in st.pendings[0].clone() {
            st.read_peer(peers, id);
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
                reactor.arm_deadline(STAGE_TOKEN, Instant::now() + timeout);
            }
            reactor.poll(&mut events, &mut expired, timeout)?;
            for ev in &events {
                if let Some(id) = handle_write_event(peers, ev) {
                    drop_peer(peers, id, name, None, DropKind::Disconnected, st.dropouts);
                }
                match client_of(ev.token) {
                    Some(id) if (ev.readable || ev.closed) && peers.contains_key(&id) => {
                        st.read_peer(peers, id);
                    }
                    _ => {}
                }
            }
            if expired.contains(&STAGE_TOKEN) {
                let at = st.active;
                for id in std::mem::take(&mut st.pendings[at]) {
                    if peers.contains_key(&id) {
                        st.drop_client(peers, id, at, DropKind::DeadlineMissed);
                    }
                }
            }
        }
        reactor.cancel_deadline(STAGE_TOKEN);
        self.stale_frames += st.stale;
        let uplink = st.uplink.into_values().collect();
        Ok((st.filed.into_values().collect(), uplink))
    }
}

/// Total and largest of per-peer byte counts.
fn sum_max(bytes: &[u64]) -> (u64, u64) {
    (bytes.iter().sum(), bytes.iter().copied().max().unwrap_or(0))
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

/// The secagg server's data-plane custody (parked chunk payloads plus
/// the running sum) on the scrape, with its high water over the
/// session — the part of coordinator memory the transport ledger
/// ([`crate::pool`]) does not see.
struct Custody {
    live: Gauge,
    high_water: Gauge,
}

impl Custody {
    fn new(telemetry: &Telemetry) -> Custody {
        Custody {
            live: telemetry.gauge("dordis_server_custody_bytes", &[]),
            high_water: telemetry.gauge("dordis_server_custody_bytes_high_water", &[]),
        }
    }

    fn record(&self, server: &Server) {
        let now = server.custody_bytes() as u64;
        self.live.set(now);
        if now > self.high_water.get() {
            self.high_water.set(now);
        }
    }
}

impl Drop for Custody {
    /// The round is over, and its server with it.
    fn drop(&mut self) {
        self.live.set(0);
    }
}

/// A stage's per-frame callback: reads the body from the borrowed
/// envelope as the frame arrives and vets that it names its sender.
/// `None` is the sender's protocol violation.
type OnFrame<'a, T> = dyn FnMut(&mut Server, ClientId, &EnvelopeView<'_>) -> Option<T> + 'a;

/// One stage's collection state. A control stage is one chunk.
struct Collect<'a, T> {
    /// The round every frame is gated against.
    round: u64,
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
    server: &'a mut Server,
    on_frame: &'a mut OnFrame<'a, T>,
    /// Recorded after every data-plane frame the server sees.
    custody: Option<&'a Custody>,
    dropouts: &'a mut Vec<DetectedDropout>,
    /// Frames from older rounds, discarded.
    stale: u64,
}

impl<T> Collect<'_, T> {
    /// Files every frame `id` has buffered. A disconnect drops `id` at
    /// the first chunk it still owes; a client that owes nothing has
    /// answered, and its disconnect is observed when it next matters.
    fn read_peer(&mut self, peers: &mut Peers, id: ClientId) {
        let closed = drain_frames(peers, id, |peers, frame| {
            self.file(peers, id, frame);
            true
        });
        if closed {
            if let Some(at) = self.pendings.iter().position(|p| p.contains(&id)) {
                self.drop_client(peers, id, at, DropKind::Disconnected);
            }
        }
    }

    /// Files one frame from `id`: the round gate first (a stale frame
    /// is counted and discarded, the stream goes on), then `on_frame`
    /// for a `want` frame of a chunk `id` still owes. Anything else — an
    /// abort, garbage, a future round, another stage, a chunk out of
    /// range or already delivered, a body `on_frame` refuses — drops
    /// `id` from the stage.
    fn file(&mut self, peers: &mut Peers, id: ClientId, frame: &[u8]) {
        *self.uplink.entry(id).or_default() += frame.len() as u64;
        let kind = match EnvelopeView::decode(frame) {
            Err(_) => DropKind::ProtocolViolation,
            Ok(env) => match round_gate(env.stage, env.round, self.round) {
                RoundGate::Abort => DropKind::Aborted,
                RoundGate::Stale => {
                    self.stale += 1;
                    return;
                }
                RoundGate::Future => DropKind::ProtocolViolation,
                RoundGate::Current => {
                    let c = usize::from(env.chunk);
                    if env.stage == self.want
                        && self.pendings.get(c).is_some_and(|p| p.contains(&id))
                    {
                        let filed = (self.on_frame)(self.server, id, &env);
                        if let Some(custody) = self.custody {
                            custody.record(self.server);
                        }
                        if let Some(msg) = filed {
                            self.pendings[c].remove(&id);
                            self.filed.insert(id, msg);
                            return;
                        }
                    }
                    DropKind::ProtocolViolation
                }
            },
        };
        self.drop_client(peers, id, self.active, kind);
    }

    /// Drops `id` from every chunk it still owes and records the
    /// departure at chunk `at` (labelled on the masked-input stage only).
    fn drop_client(&mut self, peers: &mut Peers, id: ClientId, at: usize, kind: DropKind) {
        for pending in &mut self.pendings {
            pending.remove(&id);
        }
        let chunk = (self.want == StageTag::MaskedInput).then_some(at as u16);
        drop_peer(peers, id, self.name, chunk, kind, self.dropouts);
    }
}

/// Drains the frames `key`'s channel has buffered, in arrival order:
/// `file` sees each one (with the map, so it may unmap the channel) and
/// says whether to keep reading, and the frame's bytes are then credited
/// back to its channel's ledger. Returns whether the channel reported
/// closed.
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
            chan.credit_frame(frame);
        }
        if !more {
            break;
        }
    }
    false
}

/// The one write-readiness handler (collection, broadcast flushes and
/// the join window): flushes the backlog of the client channel `ev`
/// names, and returns the client's id if its channel failed — the
/// caller unmaps it.
pub(crate) fn handle_write_event(peers: &mut Peers, ev: &Event) -> Option<ClientId> {
    let id = client_of(ev.token).filter(|_| ev.writable)?;
    peers.get_mut(&id)?.try_flush().err().map(|_| id)
}

/// Removes a peer, if it is still connected, and records the detection.
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

/// What one [`broadcast`] did: the wire message it queued and the
/// channels that could not take it.
pub(crate) struct Broadcast<K> {
    /// The encoded frame, length prefix included — for connections that
    /// arrive after the broadcast.
    pub(crate) wire: Arc<Vec<u8>>,
    /// Channels whose send failed, with the failure; they stay mapped.
    pub(crate) failed: Vec<(K, NetError)>,
}

/// The one broadcast (stage replies, aborts, round announces,
/// `SessionEnd`): encodes `env` exactly **once** (counted in
/// `dordis_broadcast_encodes_total`) into a refcounted wire message and
/// queues that allocation on every channel of `chans` instead of copying
/// it per peer, so a Setup carrying the model payload costs one encoding
/// for the whole cohort. Registered channels flush what their sockets
/// take now; the rest drains under write readiness ([`flush_sends`]).
pub(crate) fn broadcast<K: Ord + Copy>(
    chans: &mut BTreeMap<K, TcpChannel>,
    env: &Envelope,
    telemetry: &Telemetry,
) -> Broadcast<K> {
    let wire = wire_message(&env.encode());
    telemetry
        .counter("dordis_broadcast_encodes_total", &[])
        .inc();
    let failed = chans
        .iter_mut()
        .filter_map(|(&key, chan)| Some((key, chan.send_wire_shared(&wire).err()?)))
        .collect();
    Broadcast { wire, failed }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::local;
    use dordis_secagg::graph::MaskingGraph;
    use dordis_secagg::{RoundParams, ThreatModel};

    const FAILED: ClientId = 1;

    fn params() -> RoundParams {
        RoundParams {
            round: 4,
            clients: vec![0, 1, 2],
            threshold: 2,
            bit_width: 16,
            vector_len: 8,
            noise_components: 0,
            threat_model: ThreatModel::SemiHonest,
            graph: MaskingGraph::Complete,
        }
    }

    /// Runs a collection-free ShareKeys stage whose server step returns
    /// `reply`, over three registered peers of which `FAILED`'s socket
    /// already failed a send, and returns the stage's traffic, the
    /// round's dropouts and the peers left.
    fn share_keys_past_a_failed_peer(
        reply: Reply,
    ) -> (StageTraffic, Vec<DetectedDropout>, Vec<ClientId>) {
        let cfg = local::one_round(params());
        let mut reactor = Reactor::new().expect("reactor");
        let mut peers = Peers::new();
        let mut clients = Vec::new();
        for id in params().clients {
            let (client, mut chan) = TcpChannel::pair().expect("loopback pair");
            chan.register(&mut reactor, client_token(id))
                .expect("register");
            peers.insert(id, chan);
            clients.push(client);
        }
        // The failed peer hangs up; the first frame to it draws a reset
        // and a later send fails.
        drop(clients.remove(FAILED as usize));
        let chan = peers.get_mut(&FAILED).expect("failed peer");
        let deadline = Instant::now() + Duration::from_secs(5);
        while chan.send(&[0; 16]).is_ok() {
            assert!(
                Instant::now() < deadline,
                "send to a closed peer kept succeeding"
            );
        }

        let round = Round::new(params(), 1).expect("round");
        let mut server = Server::new(params()).expect("server");
        let mut io = RoundIo::new(&cfg, &mut reactor, &mut peers, &round);
        let mut no_frames = |_: &mut Server, _: ClientId, _: &EnvelopeView<'_>| None::<()>;
        io.stage(
            &mut server,
            ("ShareKeys", StageTag::ShareKeys),
            &[],
            &mut no_frames,
            |_, _| Ok(((), reply)),
        )
        .expect("stage");
        let traffic = io.stats.stages.pop().expect("the stage's traffic");
        let dropouts = std::mem::take(&mut io.dropouts);
        drop(io);
        (traffic, dropouts, peers.into_keys().collect())
    }

    fn frame_len(body: Vec<u8>) -> u64 {
        Envelope::new(StageTag::Inbox, params().round, body)
            .encode()
            .len() as u64
    }

    #[test]
    fn a_failed_send_leaves_the_peers_frame_out_of_the_downlink() {
        let inbox = |id: ClientId| vec![id as u8; 40 + 10 * id as usize];
        let each = Reply::Each(StageTag::Inbox, Box::new(inbox));
        let (traffic, dropouts, peers) = share_keys_past_a_failed_peer(each);
        let (first, last) = (frame_len(inbox(0)), frame_len(inbox(2)));
        assert_eq!(
            (traffic.downlink_total, traffic.downlink_max),
            (first + last, last),
            "ShareKeys inboxes counted a frame the failed peer never took"
        );
        assert_eq!(peers, [0, 2]);
        let failed: Vec<_> = dropouts.iter().map(|d| (d.client, d.stage)).collect();
        assert_eq!(failed, [(FAILED, "ShareKeys")]);
        assert_eq!(dropouts[0].kind, DropKind::Disconnected);

        let all = Reply::All(StageTag::Inbox, inbox(0));
        let (traffic, dropouts, peers) = share_keys_past_a_failed_peer(all);
        assert_eq!(
            (traffic.downlink_total, traffic.downlink_max),
            (2 * first, first)
        );
        assert_eq!(peers, [0, 2]);
        assert_eq!(dropouts.len(), 1);
    }
}
