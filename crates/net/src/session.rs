//! Multi-round FL sessions over persistent connections.
//!
//! A *session* is the only way to run a networked round: the round is a
//! repeated unit of execution, the way the paper's training experiments
//! (Figures 1, 8, 9, Table 2) actually run — many SecAgg+XNoise rounds
//! back to back, each with a freshly sampled cohort, over connections
//! that stay warm between rounds. A single round is a one-round session.
//!
//! A [`Session`] owns what outlives a round:
//!
//! - the collection engine (one `Reactor` serving every round's
//!   timers and channels),
//! - the *parked* connections: every authenticated client channel,
//!   registered once and kept across rounds,
//! - the round counter stamped into every envelope, and
//! - the seating policy deciding who participates in each round.
//!
//! Everything per-round lives in a fresh pair: the stage transitions'
//! `Round` (secagg server, chunk plan, seated parameters) and the
//! [`coordinator`](crate::coordinator)'s `RoundIo` (the round's use of
//! the reactor and the peers, traffic/dropout accounting). So no
//! protocol state can leak between rounds, and a frame carrying an old
//! round id is discarded by the typed [`NetError::StaleRound`] check
//! instead of being parsed into the current round.
//!
//! ## Round lifecycle
//!
//! 1. **Announce**: the session broadcasts
//!    [`StageTag::RoundAnnounce`] with the new round id to every parked
//!    connection, and to every newly accepted one.
//! 2. **Join / claim**: each client answers with [`StageTag::Join`] —
//!    carrying a participation claim when the seating policy is
//!    [`Seating::Claims`] — or [`StageTag::Decline`]. New connections
//!    (first-time joiners *and* clients re-joining after dropping out of
//!    an earlier round) are accepted throughout the join window. The
//!    window closes early once every id in
//!    [`SessionConfig::population`] has answered.
//! 3. **Seating**: under [`Seating::Roster`] the cohort is the fixed
//!    `params.clients` roster (first-come joins). Under
//!    [`Seating::Claims`] the collected claims go to the verifier — for
//!    Dordis, `dordis-core`'s VRF `seat_claims` (§7) — which seats a
//!    cohort and rejects forged, stale and duplicate claims;
//!    valid-but-trimmed claimants stay parked for the next round.
//! 4. **Round execution**: the stage transitions drive the seated
//!    cohort's connections through the SecAgg stages, every stage one
//!    `stage` step of the round's `RoundIo`. Survivors'
//!    channels return to the parked set; detected dropouts' channels are
//!    gone — those clients can reconnect and re-join in a later round.
//! 5. After the last round, [`Session::finish`] broadcasts
//!    [`StageTag::SessionEnd`].

use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};

use dordis_secagg::{ClientId, RoundParams};
use dordis_telemetry::Telemetry;

use crate::codec::{self, round_gate, Envelope, EnvelopeView, RoundGate, StageTag};
use crate::coordinator::{
    broadcast, client_of, client_token, drain_frames, handle_write_event, NetRoundReport, Peers,
    RoundIo, JOIN_BASE,
};
use crate::faults::{FaultPlan, KillPoint};
use crate::reactor::{Reactor, Token, TICK};
use crate::replication::{Primary, SessionCheckpoint};
use crate::stages::Round;
use crate::tcp::TcpChannel;
use crate::transport::{send_env, Acceptor, Channel as _};
use crate::NetError;

/// Who a round's seating verifier admitted and who it threw out.
#[derive(Clone, Debug, Default)]
pub struct SeatingOutcome {
    /// The round's cohort, in the order the verifier chose (this order
    /// becomes `RoundParams::clients`).
    pub seated: Vec<ClientId>,
    /// Claimants whose claims were invalid (forged proof, wrong round,
    /// undecodable); each gets an abort reply and its connection is
    /// closed. Valid claimants that simply did not make the cut belong
    /// in *neither* list — they stay parked for the next round.
    pub rejected: Vec<(ClientId, String)>,
}

/// Verifies one round's participation claims and seats a cohort.
/// Arguments: the round id and every `(claimant, claim bytes)` pair
/// collected during the join window.
pub(crate) type SeatingVerifier<'a> =
    Box<dyn FnMut(u64, &[(ClientId, Vec<u8>)]) -> SeatingOutcome + 'a>;

/// How a session decides each round's cohort.
pub enum Seating<'a> {
    /// The cohort is the fixed `params.clients` roster; a join is a
    /// first-come seat claim.
    Roster,
    /// Clients present a participation claim per round (for Dordis, a
    /// VRF self-selection proof, §7) and the verifier seats the cohort —
    /// verify-and-trim instead of first-come-first-served.
    Claims(SeatingVerifier<'a>),
}

/// Builds the round's [`RoundParams`] from the seated cohort. Under
/// [`Seating::Roster`] the cohort slice is empty and the callback
/// returns the fixed roster parameters; under [`Seating::Claims`] it
/// derives threshold / graph / noise shape from the cohort. The returned
/// `params.round` is overwritten with the session's round counter — the
/// counter comes from the session, never from the callback.
pub(crate) type ParamsFor<'a> = Box<dyn FnMut(u64, &[ClientId]) -> RoundParams + 'a>;

/// Configuration of a session. [`SessionConfig::new`] fills in every
/// default; callers override the fields they change.
pub struct SessionConfig<'a> {
    /// Round id of the first round (stamped into every envelope; later
    /// rounds increment it).
    pub first_round: u64,
    /// How many rounds the session runs.
    pub rounds: u64,
    /// Join/claim window per round: how long to wait for the cohort to
    /// join before starting with whoever arrived.
    pub join_timeout: Duration,
    /// Per-stage response deadline within a round; a silent client past
    /// this is a detected dropout. During masked-input collection the
    /// deadline applies *per chunk*: the clock restarts whenever a
    /// chunk completes.
    pub stage_timeout: Duration,
    /// Requested chunk count `m` for every round's data plane (clamped
    /// to ≥ 1). The realized count after byte alignment may be smaller;
    /// clients re-derive the identical plan from this count via the
    /// Setup broadcast.
    pub chunks: usize,
    /// Injected s-comp cost for the *whole vector*, spread over chunks
    /// proportionally to their element counts and spent once per chunk
    /// at aggregation and once at unmasking. Emulates the server-side
    /// compute of models too large to run in-repo, so benches and tests
    /// can realize Figure 12's comm/compute overlap on 127.0.0.1.
    /// `None` injects nothing (production).
    pub chunk_compute: Option<Duration>,
    /// Known client population, used to close the join window early
    /// once everyone has answered (claimed or declined). Empty = always
    /// wait out `join_timeout` unless the roster fills.
    pub population: Vec<ClientId>,
    /// The seating policy.
    pub seating: Seating<'a>,
    /// Per-round parameter builder.
    pub params_for: ParamsFor<'a>,
    /// Telemetry handle shared by the reactor and every round.
    /// [`Telemetry::disabled`] turns every probe into a no-op.
    pub telemetry: Telemetry,
    /// Bind address (`host:port`) for the Prometheus scrape endpoint,
    /// served by the reactor itself as one more epoll registration.
    pub metrics_addr: Option<String>,
    /// Dedicated channel to a backup coordinator. When set, every
    /// [`Session::commit_round`] ships a [`SessionCheckpoint`] and
    /// blocks until the backup's ack — the checkpoint-then-commit
    /// ordering that makes the privacy ledger failover-safe. `None` is
    /// the bit-equal zero-overhead reference: `commit_round` returns
    /// immediately.
    pub replica: Option<TcpChannel>,
    /// Injected coordinator crashes for the failover harness
    /// ([`FaultPlan::none`] is a no-op on every hook).
    pub faults: FaultPlan,
}

impl<'a> SessionConfig<'a> {
    /// A session of `rounds` rounds starting at round id 1, with 10 s
    /// join and stage windows, an unchunked data plane, open
    /// enrollment, and no injected compute, telemetry,
    /// scrape endpoint, replica or faults.
    #[must_use]
    pub fn new(rounds: u64, seating: Seating<'a>, params_for: ParamsFor<'a>) -> Self {
        SessionConfig {
            first_round: 1,
            rounds,
            join_timeout: Duration::from_secs(10),
            stage_timeout: Duration::from_secs(10),
            chunks: 1,
            chunk_compute: None,
            population: Vec::new(),
            seating,
            params_for,
            telemetry: Telemetry::disabled(),
            metrics_addr: None,
            replica: None,
            faults: FaultPlan::none(),
        }
    }
}

/// A client's answer to one round's announce: a claim (empty bytes for
/// roster joins) or a decline.
type Answer = Option<Vec<u8>>;

/// A multi-round coordinator session over one acceptor.
pub struct Session<'a> {
    acceptor: &'a mut dyn Acceptor,
    cfg: SessionConfig<'a>,
    engine: Reactor,
    /// Authenticated connections not currently inside a round.
    parked: Peers,
    next_round: u64,
    rounds_done: u64,
    next_provisional: u64,
    /// Whether any executed round detected dropouts — only then does
    /// [`Session::finish`] hold its accept-drain grace window open (a
    /// dropped client may be mid-reconnect and still owed a
    /// `SessionEnd`); a fully clean session tears down without the
    /// wait.
    finish_grace: bool,
    /// Where the scrape endpoint actually bound (port 0 resolves here).
    metrics_bound: Option<std::net::SocketAddr>,
    /// Every client id that ever held an authenticated connection; a
    /// provisional join by a known id is a *rejoin* (reconnect after a
    /// dropout) and counts toward `dordis_rejoins_total`.
    seen: BTreeSet<ClientId>,
    /// Timeline bookkeeping: when the inter-round park window opened
    /// (telemetry clock). The next round's start closes the span.
    parked_since: Option<u64>,
    /// The replication link, when this session runs as a replicated
    /// primary. `role` is `None` only transiently inside
    /// [`Session::commit_round`] — or permanently once deposed by a
    /// view change, after which no further round can commit.
    replica: Option<ReplicaLink>,
}

/// The primary's half of the replication protocol: the channel to the
/// backup and the typed role that gates every commit.
struct ReplicaLink {
    chan: TcpChannel,
    role: Option<Primary>,
}

impl<'a> Session<'a> {
    /// Opens a session over `acceptor` (binds the collection engine;
    /// accepts nothing yet).
    ///
    /// # Errors
    ///
    /// Reactor construction and scrape-listener bind failures.
    pub fn new(
        acceptor: &'a mut dyn Acceptor,
        mut cfg: SessionConfig<'a>,
    ) -> Result<Self, NetError> {
        acceptor.set_telemetry(&cfg.telemetry);
        // The replication link stays *unregistered*: checkpoint traffic
        // happens at round boundaries, where the session thread is
        // between collection loops, so the blocking Channel API is
        // exactly right.
        let replica = cfg.replica.take().map(|chan| ReplicaLink {
            chan,
            role: Some(Primary::new()),
        });
        let mut engine = Reactor::with_telemetry(cfg.telemetry.clone())?;
        let metrics_bound = match &cfg.metrics_addr {
            Some(addr) => Some(engine.serve_metrics(addr)?),
            None => None,
        };
        let next_round = cfg.first_round;
        Ok(Session {
            acceptor,
            cfg,
            engine,
            parked: BTreeMap::new(),
            next_round,
            rounds_done: 0,
            next_provisional: JOIN_BASE,
            finish_grace: false,
            metrics_bound,
            seen: BTreeSet::new(),
            parked_since: None,
            replica,
        })
    }

    /// Commits the round that just completed: ships a
    /// [`SessionCheckpoint`] carrying `app_state` (the driver's opaque
    /// durable state — ledger, model, records) to the backup and blocks
    /// until the ack, bounded by the session's stage timeout.
    ///
    /// Without a replica this returns immediately — the unreplicated
    /// session is the bit-equal zero-overhead reference. With one, the
    /// caller must treat an error as fatal for the primary role: a
    /// round whose checkpoint was never acked **must not** have its
    /// effects applied (ledger recorded, model advanced), because the
    /// backup may already be serving a divergent view.
    ///
    /// # Errors
    ///
    /// - [`NetError::Aborted`] when the backup answered with a
    ///   `ViewChange` (this primary is deposed — now or in a previous
    ///   commit) — stand down.
    /// - [`NetError::Timeout`] / [`NetError::Closed`] when the backup
    ///   is unreachable: the primary halts rather than advance
    ///   unreplicated state.
    /// - [`NetError::Injected`] when [`SessionConfig::faults`] kills the
    ///   primary at [`KillPoint::BetweenAckAndCommit`] of `round`.
    pub fn commit_round(&mut self, round: u64, app_state: &[u8]) -> Result<(), NetError> {
        let Some(link) = self.replica.as_mut() else {
            return Ok(());
        };
        let role = link
            .role
            .take()
            .ok_or_else(|| NetError::Aborted("deposed by view change".into()))?;
        let ckpt = SessionCheckpoint {
            round,
            rounds_done: self.rounds_done,
            view: role.view(),
            parked: self.parked.keys().copied().collect(),
            app_state: app_state.to_vec(),
        };
        let span = self
            .cfg
            .telemetry
            .span("session", "checkpoint", round, None);
        self.cfg
            .telemetry
            .histogram("dordis_checkpoint_bytes", &[])
            .observe(ckpt.encode().len() as u64);
        // Typed hand-off: `ship` consumes the Primary, so nothing can
        // commit until `complete` returns it — and a ViewChange frame
        // destroys it instead.
        let waiting = role.ship(&ckpt, &mut link.chan)?;
        let frame = link
            .chan
            .recv_deadline(Instant::now() + self.cfg.stage_timeout)?;
        let primary = waiting.complete(&Envelope::decode(&frame)?)?;
        link.role = Some(primary);
        drop(span);
        // Fault hook: the backup holds `round`, the primary dies before
        // committing it — a successor must resume past it.
        self.cfg
            .faults
            .trip(KillPoint::BetweenAckAndCommit, round)?;
        self.cfg
            .telemetry
            .counter("dordis_checkpoints_total", &[("role", "primary")])
            .inc();
        Ok(())
    }

    /// Where the Prometheus scrape endpoint bound, when one was
    /// configured (port 0 in [`SessionConfig::metrics_addr`] resolves
    /// to the kernel-assigned port here).
    #[must_use]
    pub fn metrics_addr(&self) -> Option<std::net::SocketAddr> {
        self.metrics_bound
    }

    /// The round id the next [`Session::run_round`] call will execute.
    #[must_use]
    pub fn current_round(&self) -> u64 {
        self.next_round
    }

    /// Rounds left before the configured horizon.
    #[must_use]
    pub fn rounds_remaining(&self) -> u64 {
        self.cfg.rounds.saturating_sub(self.rounds_done)
    }

    /// Runs the next round: announce, join/claim, seat, execute.
    /// `payload` is broadcast to the cohort inside the Setup frame
    /// (e.g. the current global model); clients receive it alongside the
    /// round parameters.
    ///
    /// # Errors
    ///
    /// Protocol aborts (below threshold, tampering) and engine
    /// failures. Per-client failures are detected dropouts inside the
    /// report, not errors. After an error the surviving connections are
    /// still parked, so a caller may retry with the next round.
    pub fn run_round(&mut self, payload: &[u8]) -> Result<NetRoundReport, NetError> {
        let round = self.next_round;
        // Close the inter-round park window on the timeline, and open
        // the per-round accounting windows: the report's reactor and
        // metrics deltas are measured from *here*, so the join phase —
        // which the round's stages never see — is part of the round's
        // cost.
        if let Some(since) = self.parked_since.take() {
            self.cfg.telemetry.record_span(
                "session",
                "park",
                round,
                None,
                since,
                self.cfg.telemetry.now_ns(),
            );
        }
        let reactor_base = self.engine.stats;
        let metrics_base = self.cfg.telemetry.snapshot();
        let join_span = self.cfg.telemetry.span("session", "join", round, None);
        // Roster seating fixes the cohort before anyone joins — joins
        // are vetted against it — so its params are built here, once;
        // claims seating builds them below from whoever the verifier
        // seats.
        let roster_params = match self.cfg.seating {
            Seating::Roster => Some((self.cfg.params_for)(round, &[])),
            Seating::Claims(_) => None,
        };
        let roster: Option<BTreeSet<ClientId>> = roster_params
            .as_ref()
            .map(|p| p.clients.iter().copied().collect());

        let (answers, join_stale) = self.join_phase(round, roster.as_ref())?;
        drop(join_span);
        let seat_span = self.cfg.telemetry.span("session", "seating", round, None);

        // ---- Seat the cohort. ----
        let mut seated = Vec::new();
        if let Seating::Claims(verifier) = &mut self.cfg.seating {
            let claims: Vec<(ClientId, Vec<u8>)> = answers
                .iter()
                .filter_map(|(&id, a)| a.clone().map(|claim| (id, claim)))
                .collect();
            let outcome = verifier(round, &claims);
            for (id, why) in &outcome.rejected {
                if let Some(mut chan) = self.parked.remove(id) {
                    let env = Envelope::new(StageTag::Abort, round, codec::encode_abort(why));
                    let _ = send_env(&mut chan, &env);
                }
            }
            seated = outcome.seated;
        }
        let mut params = match roster_params {
            Some(p) => p,
            None => (self.cfg.params_for)(round, &seated),
        };
        params.round = round;

        // Move the cohort's channels out of the parked set; everyone
        // else (declined, trimmed, late) stays parked for later rounds.
        let cohort = params.clients.iter();
        let mut round_peers: Peers = cohort
            .filter_map(|&id| Some((id, self.parked.remove(&id)?)))
            .collect();
        drop(seat_span);

        // A round that cannot be seated (invalid parameters, an
        // unrealizable chunk plan) fails like any other round error:
        // below, after the cohort's connections are parked again.
        let result = Round::new(params, self.cfg.chunks).and_then(|round| {
            let mut io = RoundIo::new(&self.cfg, &mut self.engine, &mut round_peers, &round);
            let outcome = round.run(&mut io, payload)?;
            Ok(io.report(outcome, reactor_base))
        });

        // Survivors' connections return to the parked set regardless of
        // how the round ended.
        self.parked.append(&mut round_peers);
        self.next_round += 1;
        self.rounds_done += 1;
        if self.cfg.telemetry.is_enabled() {
            self.parked_since = Some(self.cfg.telemetry.now_ns());
        }
        // Sticky: a client dropped in *any* round may still be
        // mid-reconnect at finish (it need not have rejoined in between),
        // so one dropout anywhere — or an aborted round, after which
        // anyone might still be reconnecting — keeps the grace window
        // armed for the session's teardown.
        self.finish_grace |= !result.as_ref().is_ok_and(|r| r.dropouts.is_empty());
        let mut report = result?;
        report.stale_frames += join_stale;
        report.metrics = match (self.cfg.telemetry.snapshot(), &metrics_base) {
            (Some(now), Some(base)) => Some(now.delta(base)),
            _ => None,
        };
        Ok(report)
    }

    /// Ends the session: broadcasts [`StageTag::SessionEnd`] to every
    /// parked connection — and to late (re)connections still waiting in
    /// the accept queue, so a client that dropped out of the final
    /// round and reconnected does not hang waiting for an announce —
    /// then drops them all.
    pub fn finish(mut self) {
        // Retire the primary role first: the backup learns the session
        // ended cleanly and will not call a view change when the
        // replication channel drops with this session.
        if let Some(mut link) = self.replica.take() {
            if let Some(role) = link.role.take() {
                role.retire(&mut link.chan);
            }
        }
        let env = Envelope::new(StageTag::SessionEnd, self.next_round, Vec::new());
        let wire = broadcast(&mut self.parked, &env, &self.cfg.telemetry).wire;
        // Already-queued connections are drained either way; the
        // tick-length wait for stragglers is only held open when some
        // round actually lost someone.
        let drain_deadline = if self.finish_grace {
            Instant::now() + TICK
        } else {
            Instant::now()
        };
        while let Ok(mut chan) = self.acceptor.accept(drain_deadline) {
            let _ = chan.send_wire_shared(&wire);
        }
    }

    // -----------------------------------------------------------------
    // Join / claim phase.
    // -----------------------------------------------------------------

    /// Announces `round`, collects Join/Decline answers from parked
    /// peers, and accepts new connections, until everyone answered or
    /// the join window closes. Parked peers' answers and provisional
    /// connections' first frames arrive as readiness events, so one slow
    /// joiner never serializes the others. Returns the answers and the
    /// number of stale frames discarded.
    fn join_phase(
        &mut self,
        round: u64,
        roster: Option<&BTreeSet<ClientId>>,
    ) -> Result<(BTreeMap<ClientId, Answer>, u64), NetError> {
        let mut w = JoinWindow {
            round,
            roster,
            claims_mode: matches!(self.cfg.seating, Seating::Claims(_)),
            answers: BTreeMap::new(),
            stale: 0,
        };
        let deadline = Instant::now() + self.cfg.join_timeout;
        let mut awaiting: BTreeMap<u64, TcpChannel> = BTreeMap::new();

        // Encoded once per round; every parked peer — and, in the join
        // loop, every newly accepted connection — queues the same
        // refcounted wire message.
        let env = Envelope::new(
            StageTag::RoundAnnounce,
            round,
            codec::encode_announce(w.claims_mode),
        );
        let sent = broadcast(&mut self.parked, &env, &self.cfg.telemetry);
        for (id, _) in &sent.failed {
            self.parked.remove(id);
        }
        let announce = sent.wire;
        // Initial sweep of parked peers: answers may already be buffered
        // and their readiness consumed by a previous round's poll.
        let ids: Vec<ClientId> = self.parked.keys().copied().collect();
        for id in ids {
            self.read_parked(id, &mut w);
        }

        let (mut events, mut expired) = (Vec::new(), Vec::new());
        // New connections are drained in short accept slices; the real
        // waiting happens in the poller (answers from registered
        // channels wake it immediately), so a session round's join
        // phase costs microseconds once everyone has answered instead
        // of a full accept tick.
        let accept_slice = Duration::from_millis(1);
        while !self.join_complete(&w) {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            // Drain every queued connection in one go (each successful
            // accept is immediate; only the terminating timeout pays
            // the slice), so a burst of (re)connections never
            // serializes behind poll sleeps.
            loop {
                match self
                    .acceptor
                    .accept((Instant::now() + accept_slice).min(deadline))
                {
                    Ok(mut chan) => {
                        let token = Token(self.next_provisional);
                        self.next_provisional += 1;
                        let reactor = &mut self.engine;
                        chan.register(reactor, token)?;
                        reactor.arm_deadline(
                            token,
                            (Instant::now() + self.cfg.stage_timeout).min(deadline),
                        );
                        if chan.send_wire_shared(&announce).is_err() {
                            continue; // connection already dead
                        }
                        awaiting.insert(token.0, chan);
                    }
                    Err(NetError::Timeout) => break,
                    Err(e) => return Err(e),
                }
                if Instant::now() >= deadline {
                    break;
                }
            }
            self.engine.poll(&mut events, &mut expired, TICK)?;
            for ev in &events {
                if awaiting.contains_key(&ev.token.0) {
                    self.settle_provisional(&mut awaiting, ev.token.0, &mut w)?;
                } else if let Some(id) = client_of(ev.token) {
                    if handle_write_event(&mut self.parked, ev).is_some() {
                        self.parked.remove(&id);
                        continue;
                    }
                    if (ev.readable || ev.closed) && self.parked.contains_key(&id) {
                        self.read_parked(id, &mut w);
                    }
                }
            }
            for token in &expired {
                // Connected but never completed a Join: not a
                // participant (this round).
                awaiting.remove(&token.0);
            }
        }
        // The window closed with some connections still awaiting a
        // verdict. Any first frame already on the wire gets vetted so a
        // rejected peer hears *why* instead of hanging.
        let tokens: Vec<u64> = awaiting.keys().copied().collect();
        for token in tokens {
            self.engine.cancel_deadline(Token(token));
            self.settle_provisional(&mut awaiting, token, &mut w)?;
        }
        self.seen.extend(w.answers.keys().copied());
        Ok((w.answers, w.stale))
    }

    /// Whether the join window can close early: the roster is fully
    /// seated, or the whole known population has answered.
    fn join_complete(&self, w: &JoinWindow<'_>) -> bool {
        match w.roster {
            Some(sampled) => sampled.iter().all(|id| w.answers.contains_key(id)),
            None => {
                !self.cfg.population.is_empty()
                    && self
                        .cfg
                        .population
                        .iter()
                        .all(|id| w.answers.contains_key(id))
            }
        }
    }

    /// Vets a provisional connection's buffered frames up to its first
    /// verdict: admitted connections are parked under their client
    /// token, rejected ones hear why, garbage and dead ones are dropped.
    /// One with no complete frame yet stays in `awaiting`.
    ///
    /// Drains *through* stale frames: an eager `Join(0)` and the real
    /// claim can both be buffered before a single readiness event, and
    /// the claim must be filed now, not after the provisional deadline
    /// has killed the connection.
    fn settle_provisional(
        &mut self,
        awaiting: &mut BTreeMap<u64, TcpChannel>,
        token: u64,
        w: &mut JoinWindow<'_>,
    ) -> Result<(), NetError> {
        let mut verdict = None;
        let closed = drain_frames(awaiting, token, |_, frame| {
            match self.vet_first_frame(EnvelopeView::decode(frame), w) {
                // Keep draining: the real answer may be right behind.
                Verdict::Stale => {
                    w.stale += 1;
                    true
                }
                settled => {
                    verdict = Some(settled);
                    false
                }
            }
        });
        if verdict.is_none() && !closed {
            return Ok(()); // No (further) complete frame yet: keep waiting.
        }
        self.engine.cancel_deadline(Token(token));
        let Some(mut chan) = awaiting.remove(&token) else {
            return Ok(());
        };
        match verdict {
            Some(Verdict::Admit(id, answer)) => {
                chan.register(&mut self.engine, client_token(id))?;
                w.answers.insert(id, answer);
                self.parked.insert(id, chan);
            }
            Some(Verdict::Reject(reply)) => {
                let _ = send_env(&mut chan, &reply);
            }
            // Garbage, or closed before any verdict.
            _ => {}
        }
        Ok(())
    }

    /// Files every frame a parked peer has buffered — its answer,
    /// typed-stale leftovers, or a violation that unparks it — and
    /// unparks it if its channel closed. Returns whether it is still
    /// parked, so this is also the liveness probe for a duplicate join:
    /// a frame the probe consumes is filed, never discarded.
    fn read_parked(&mut self, id: ClientId, w: &mut JoinWindow<'_>) -> bool {
        let closed = drain_frames(&mut self.parked, id, |parked, frame| {
            if !w.file_parked_frame(id, frame) {
                parked.remove(&id);
            }
            true
        });
        if closed {
            self.parked.remove(&id);
        }
        self.parked.contains_key(&id)
    }

    /// Validates the first frame of a provisional connection.
    fn vet_first_frame(
        &mut self,
        env: Result<EnvelopeView<'_>, NetError>,
        w: &mut JoinWindow<'_>,
    ) -> Verdict {
        let round = w.round;
        let env = match env {
            Ok(env) => env,
            Err(NetError::Version { got, expected }) => {
                // A peer speaking another wire version must be told to
                // upgrade, not silently counted as a never-join.
                return Verdict::Reject(Envelope::new(
                    StageTag::Abort,
                    round,
                    codec::encode_abort(&format!(
                        "wire version mismatch: you speak v{got}, this coordinator v{expected}"
                    )),
                ));
            }
            Err(_) => return Verdict::Discard,
        };
        let reject = |why: &str| {
            Verdict::Reject(Envelope::new(
                StageTag::Abort,
                round,
                codec::encode_abort(why),
            ))
        };
        // Answers are round-bound in claims mode: a Join or Decline for
        // an older round is stale (the client will re-answer after the
        // announce). Roster joins are round-agnostic (the session
        // client's connect-time Join carries round 0; it learns the
        // real id from Setup).
        if w.claims_mode && matches!(env.stage, StageTag::Join | StageTag::Decline) {
            match round_gate(env.stage, env.round, round) {
                RoundGate::Stale => return Verdict::Stale,
                RoundGate::Future => return reject("future round"),
                RoundGate::Abort | RoundGate::Current => {}
            }
        }
        match env.stage {
            StageTag::Join => {
                let Ok((id, claim)) = codec::decode_join_claim(env.body) else {
                    return Verdict::Discard; // unidentifiable garbage
                };
                if !self.id_admissible(id, w.roster) {
                    return reject("not in the sampled set");
                }
                // A reconnect is only legitimate if the old channel is
                // actually dead (the client dropped and came back); a
                // live duplicate is rejected.
                if self.parked.contains_key(&id) && self.read_parked(id, w) {
                    return reject("duplicate join");
                }
                // A fresh connection from an id this session has seen
                // before is a dropout coming back.
                if self.seen.contains(&id) {
                    self.cfg
                        .telemetry
                        .counter("dordis_rejoins_total", &[])
                        .inc();
                }
                Verdict::Admit(id, Some(claim))
            }
            StageTag::Decline => {
                // Declines are never claim-verified (decliners skip
                // seating), so gate them by roster/population like
                // joins — otherwise anyone could park a connection
                // under an arbitrary id and block that id's real join.
                let Ok((id, _)) = codec::decode_join_claim(env.body) else {
                    return Verdict::Discard;
                };
                if !self.id_admissible(id, w.roster)
                    || w.answers.contains_key(&id)
                    || self.parked.contains_key(&id)
                {
                    return Verdict::Discard;
                }
                Verdict::Admit(id, None)
            }
            _ => Verdict::Discard, // wrong first message
        }
    }

    /// Whether `id` may hold a connection in this session: roster
    /// membership when a roster exists, otherwise population membership
    /// (when a population is configured; an empty population means open
    /// enrollment — the seating verifier is then the only gate).
    fn id_admissible(&self, id: ClientId, roster: Option<&BTreeSet<ClientId>>) -> bool {
        match roster {
            Some(sampled) => sampled.contains(&id),
            None => self.cfg.population.is_empty() || self.cfg.population.contains(&id),
        }
    }
}

/// One round's join window: what its frames are vetted against, and
/// what it collected.
struct JoinWindow<'r> {
    round: u64,
    /// The fixed cohort, under roster seating.
    roster: Option<&'r BTreeSet<ClientId>>,
    claims_mode: bool,
    answers: BTreeMap<ClientId, Answer>,
    /// Frames from older rounds, discarded.
    stale: u64,
}

impl JoinWindow<'_> {
    /// Files one frame from a parked (already-authenticated) peer: a
    /// Join (claim) or Decline for the current round, or a stale frame
    /// from an earlier round (discarded, typed). Returns `false` on a
    /// violation.
    fn file_parked_frame(&mut self, id: ClientId, frame: &[u8]) -> bool {
        let Ok(env) = EnvelopeView::decode(frame) else {
            return false;
        };
        match round_gate(env.stage, env.round, self.round) {
            RoundGate::Abort | RoundGate::Future => false,
            // e.g. a claim for round r arriving after round r's window
            // closed: discard, never treat as a claim for the current
            // round.
            RoundGate::Stale => {
                self.stale += 1;
                true
            }
            RoundGate::Current => match env.stage {
                StageTag::Join => match codec::decode_join_claim(env.body) {
                    Ok((claimed, claim)) if claimed == id => {
                        self.answers.insert(id, Some(claim));
                        true
                    }
                    _ => false,
                },
                StageTag::Decline => {
                    self.answers.insert(id, None);
                    true
                }
                _ => false,
            },
        }
    }
}

/// Outcome of vetting a provisional connection's first frame.
enum Verdict {
    /// Authenticate the connection as this client, with its answer.
    Admit(ClientId, Answer),
    /// Send the reply and close the connection.
    Reject(Envelope),
    /// Frame from an older round: discard it, keep the connection.
    Stale,
    /// Drop the connection silently.
    Discard,
}
