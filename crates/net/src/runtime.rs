//! The client runtime: drives the `dordis-secagg` client state machine
//! symmetrically to the [`coordinator`](crate::coordinator), over any
//! [`Channel`].
//!
//! One entry point, [`run_session_client`]: it answers every
//! [`StageTag::RoundAnnounce`] with a participation claim (or a
//! decline), plays each round it is seated for and keeps the connection
//! warm between rounds until the server's `SessionEnd`. [`Redial`] runs
//! it over a TCP connection it dials, and dials again (failing over to
//! a standby) after a lost coordinator.
//!
//! A seated round is one straight-line sequence of stage steps in
//! protocol order (`client_stages`): it receives the round setup,
//! computes its input via a caller-supplied closure (the update only
//! exists once the round parameters are known), builds a **fresh**
//! per-round protocol state machine with per-round randomness
//! ([`round_rng_seed`]) and answers each server stage once. The steps
//! decide; all their I/O goes through one context, `ClientIo`: the
//! receive with its deadline and round check, the send, the fail point
//! and the `Abort`. A frame whose round id differs from the round being
//! executed surfaces as the typed [`NetError::StaleRound`], never as
//! state of the wrong round; a tag the sequence does not expect next
//! (a replay, a skipped stage) ends the run as [`NetError::Protocol`]
//! with nothing sent for it. A detected inconsistency makes the state
//! machine abort; the runtime forwards that as an explicit `Abort`
//! envelope and stops, which is exactly how the driver models aborting
//! clients.
//!
//! For tests and demos, a [`FailPoint`] makes the client misbehave on
//! purpose: disconnect (process kill) or go silent while connected
//! (network partition / hang) just before a chosen stage. In a session,
//! a failed client's process can reconnect and re-join from the next
//! round's announce — the dropout-then-rejoin path the paper's workload
//! is defined by.

use std::time::{Duration, Instant};

use dordis_secagg::client::{ClientInput, Identity};
use dordis_secagg::{ClientId, RoundParams, SecAggError};

pub use dordis_secagg::driver::{client_rng, round_rng_seed, share_keys_rng};

use crate::client_stages;
use crate::codec::{self, Envelope, StageTag};
use crate::tcp::TcpChannel;
use crate::transport::{recv_env, send_env, Channel};
use crate::NetError;

/// Stage just before which a [`FailPoint`] fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FailStage {
    /// Never advertises keys (connected but useless).
    Advertise,
    /// Drops after advertising, before sharing keys.
    ShareKeys,
    /// Drops after key sharing, before the masked input — the paper's
    /// standard dropout point (§6.1).
    MaskedInput,
    /// Drops mid-stream: sends the first `k` masked-input chunk frames,
    /// then fails — partial chunk delivery, which the coordinator must
    /// detect as a dropout (the client never reaches U3).
    MaskedInputAfterChunks(u16),
    /// Drops before the consistency signature (malicious model).
    Consistency,
    /// Drops before unmasking.
    Unmasking,
    /// Drops before providing noise shares.
    NoiseShares,
}

/// How the failure manifests on the wire.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FailAction {
    /// Close the connection (crash / kill): the server sees `Closed`.
    Disconnect,
    /// Stay connected but stop responding: the server must detect the
    /// dropout via its stage deadline. The client discards whatever
    /// arrives until the coordinator hangs up (it drops a peer that
    /// misses its deadline) or its receive window passes.
    Silent,
}

/// Scripted failure injection for tests and demos.
#[derive(Clone, Copy, Debug)]
pub struct FailPoint {
    /// Fire just before sending this stage's message.
    pub stage: FailStage,
    /// What the failure looks like.
    pub action: FailAction,
}

// ---------------------------------------------------------------------
// The session client.
// ---------------------------------------------------------------------

/// Client-side options for a multi-round session.
pub struct SessionClientOptions {
    /// This client's id.
    pub id: ClientId,
    /// Base protocol seed; each round uses [`round_rng_seed`] of it, so
    /// masks never repeat across rounds and each round reproduces the
    /// in-memory driver round with the same derived seed bit for bit.
    pub rng_seed: u64,
    /// How long to wait for each server frame (must comfortably exceed
    /// the server's per-stage deadline). Between rounds this must
    /// cover a whole round the client is *not* seated in (it hears
    /// nothing until the next announce). It also bounds how long a
    /// [`FailAction::Silent`] client waits for the coordinator to hang
    /// up on it.
    pub recv_timeout: Duration,
}

/// A round the session client finished.
#[derive(Clone, Debug)]
pub struct SessionRoundResult {
    /// The round id.
    pub round: u64,
    /// Survivor set (U3) from the server's `Finished` broadcast.
    pub survivors: Vec<ClientId>,
}

/// Why the session client returned.
#[derive(Clone, Debug)]
pub enum SessionEndKind {
    /// The server closed the session (`SessionEnd`).
    Ended,
    /// A scripted [`FailPoint`] fired in `round`; the caller may
    /// reconnect and re-join from the next round.
    Failed {
        /// The round the failure fired in.
        round: u64,
        /// The failing stage.
        stage: FailStage,
    },
    /// The local state machine aborted in `round` (the server will have
    /// dropped this connection).
    Aborted {
        /// The round the abort fired in.
        round: u64,
        /// The abort reason.
        reason: String,
    },
    /// The server aborted (session- or round-level).
    ServerAborted {
        /// The server's reason.
        reason: String,
    },
}

/// Everything a session client observed.
#[derive(Debug)]
pub struct SessionClientReport {
    /// The rounds this client finished, in order.
    pub rounds: Vec<SessionRoundResult>,
    /// Why the run ended.
    pub end: SessionEndKind,
}

/// Participates in a multi-round session over one connection.
///
/// Per announced round `r`, `select(r)` returns the participation-claim
/// bytes (`None` declines); in roster (claim-free) sessions the client
/// always joins. When seated, `input_for(r, params, cohort, payload)`
/// builds the round's input from the Setup payload (e.g. the current
/// global model) — `cohort` is the seated-cohort size from the Setup
/// frame, which XNoise planning must key off — and `fail_for(r)` may
/// inject a scripted failure.
///
/// # Errors
///
/// Transport/codec failures and server protocol violations. Scripted
/// failures, aborts, and session end are reported in the
/// [`SessionClientReport`], not as errors.
pub fn run_session_client<FSel, FFail, FIn, FId>(
    chan: &mut dyn Channel,
    opts: &SessionClientOptions,
    mut select: FSel,
    mut fail_for: FFail,
    mut input_for: FIn,
    mut identity_for: FId,
) -> Result<SessionClientReport, NetError>
where
    FSel: FnMut(u64) -> Option<Vec<u8>>,
    FFail: FnMut(u64) -> Option<FailPoint>,
    FIn: FnMut(u64, &RoundParams, u16, &[u8]) -> Result<ClientInput, NetError>,
    FId: FnMut(&RoundParams) -> Option<Identity>,
{
    let mut io = ClientIo {
        chan,
        recv_timeout: opts.recv_timeout,
        round: 0,
        fail: None,
    };
    let report = |rounds, end| Ok(SessionClientReport { rounds, end });
    let mut rounds: Vec<SessionRoundResult> = Vec::new();
    // Eager join: announce-then-answer costs a round-trip before the
    // session's *first* round can even be seated. So the client joins
    // optimistically at connect time, stamped round 0 (round ids start
    // at 1): a roster session admits
    // it immediately — its first RoundAnnounce is then answered by this
    // already-filed join, no extra round-trip — while a claims session
    // discards it as typed-stale and waits for the real claim after the
    // announce.
    io.send(StageTag::Join, codec::encode_join(opts.id))?;
    let mut eager_join_pending = true;
    // The server is untrusted: rounds must advance strictly, or a
    // replayed announce/Setup for an already-played round would make
    // this client re-derive that round's [`round_rng_seed`] and reuse
    // its masks — exactly the secret-reuse a recorded transcript could
    // then unmask.
    let mut last_round: Option<u64> = None;
    loop {
        let env = io.next()?;
        if matches!(env.stage, StageTag::RoundAnnounce | StageTag::Setup) {
            if let Some(prev) = last_round {
                if env.round <= prev {
                    return Err(NetError::StaleRound {
                        got: env.round,
                        expected: prev + 1,
                    });
                }
            }
        }
        let round = env.round;
        match env.stage {
            StageTag::RoundAnnounce => {
                let claims_required = codec::decode_announce(&env.body)?;
                io.round = round;
                if claims_required {
                    // The eager join (if any) was discarded as stale by
                    // the coordinator; answer with the real claim.
                    eager_join_pending = false;
                    match select(round) {
                        Some(claim) => {
                            io.send(StageTag::Join, codec::encode_join_claim(opts.id, &claim))?;
                        }
                        None => io.send(StageTag::Decline, codec::encode_join(opts.id))?,
                    }
                } else if eager_join_pending {
                    // The first roster announce is already answered by
                    // the eager join sent at connect; answering again
                    // would land a duplicate Join in the round's stage
                    // collection and read as a protocol violation.
                    eager_join_pending = false;
                } else {
                    io.send(StageTag::Join, codec::encode_join(opts.id))?;
                }
            }
            StageTag::Setup => {
                io.round = round;
                io.fail = fail_for(round);
                let survivors = match client_stages::round(
                    &mut io,
                    opts,
                    &env,
                    |params, cohort, payload| input_for(round, params, cohort, payload),
                    &mut identity_for,
                ) {
                    Ok(survivors) => survivors,
                    Err(Stop::End(end)) => return report(rounds, end),
                    Err(Stop::Error(e)) => return Err(e),
                };
                last_round = Some(round);
                rounds.push(SessionRoundResult { round, survivors });
            }
            StageTag::SessionEnd => return report(rounds, SessionEndKind::Ended),
            StageTag::Abort => {
                let reason = codec::decode_abort(&env.body);
                return report(rounds, SessionEndKind::ServerAborted { reason });
            }
            other => {
                return Err(NetError::Protocol(format!(
                    "unexpected server stage {other:?} between rounds"
                )))
            }
        }
    }
}

/// Why a seated round stopped short of `Finished`.
pub(crate) enum Stop {
    /// The run ends and reports this.
    End(SessionEndKind),
    /// The run fails with this error.
    Error(NetError),
}

impl From<NetError> for Stop {
    fn from(e: NetError) -> Stop {
        Stop::Error(e)
    }
}

/// The session client's one I/O context: every receive (with its
/// deadline and, in a round, the round check), every send, the scripted
/// fail point and the `Abort` that reports a state-machine error. The
/// stage steps in `client_stages` decide; this does what they decide.
pub(crate) struct ClientIo<'c> {
    chan: &'c mut dyn Channel,
    recv_timeout: Duration,
    /// The round the client's frames carry: the announced one between
    /// rounds, the seated one in a round.
    round: u64,
    /// The fail point scripted for the seated round.
    fail: Option<FailPoint>,
}

impl ClientIo<'_> {
    /// The next frame within the receive window, of any round.
    fn next(&mut self) -> Result<Envelope, NetError> {
        recv_env(self.chan, Instant::now() + self.recv_timeout)
    }

    /// The next frame of the seated round. A server `Abort` ends the
    /// run; a tag outside `expected` is a protocol error.
    pub(crate) fn recv(&mut self, expected: &[StageTag]) -> Result<Envelope, Stop> {
        let env = self.next()?;
        env.check_round(self.round)?;
        match env.stage {
            StageTag::Abort => {
                let reason = codec::decode_abort(&env.body);
                Err(Stop::End(SessionEndKind::ServerAborted { reason }))
            }
            tag if expected.contains(&tag) => Ok(env),
            got => Err(NetError::Protocol(format!(
                "expected server stage {expected:?}, got {got:?}"
            ))
            .into()),
        }
    }

    /// Sends a `tag` frame of the current round.
    pub(crate) fn send(&mut self, tag: StageTag, body: Vec<u8>) -> Result<(), NetError> {
        self.send_chunk(tag, 0, body)
    }

    /// Sends chunk `chunk` of the current round's `tag` stream.
    pub(crate) fn send_chunk(
        &mut self,
        tag: StageTag,
        chunk: u16,
        body: Vec<u8>,
    ) -> Result<(), NetError> {
        send_env(self.chan, &Envelope::chunked(tag, self.round, chunk, body))
    }

    /// Fires the fail point if it is scripted for `stage`. A silent
    /// failure stays connected and unresponsive, discarding every frame,
    /// until the coordinator hangs up on the missed deadline or the
    /// receive window passes — so the dropout is detected by the
    /// deadline, as a partitioned client's would be.
    pub(crate) fn fail(&mut self, stage: FailStage) -> Result<(), Stop> {
        match self.fail {
            Some(fail) if fail.stage == stage => {
                if fail.action == FailAction::Silent {
                    let deadline = Instant::now() + self.recv_timeout;
                    while recv_env(self.chan, deadline).is_ok() {}
                }
                let round = self.round;
                Err(Stop::End(SessionEndKind::Failed { round, stage }))
            }
            _ => Ok(()),
        }
    }

    /// Refuses a mid-stream fail point the round's `chunks` cannot
    /// reach: one that cannot fire would silently validate nothing and
    /// complete the round as a healthy client.
    pub(crate) fn check_fail_fires(&self, chunks: usize) -> Result<(), NetError> {
        match self.fail.map(|f| f.stage) {
            Some(FailStage::MaskedInputAfterChunks(k)) if usize::from(k) >= chunks => {
                Err(NetError::Protocol(format!(
                    "fail point MaskedInputAfterChunks({k}) cannot fire: \
                     the round realizes only {chunks} chunk(s)"
                )))
            }
            _ => Ok(()),
        }
    }

    /// Reports a state-machine abort to the server and ends the run.
    pub(crate) fn abort(&mut self, e: &SecAggError) -> Stop {
        let reason = e.to_string();
        let _ = self.send(StageTag::Abort, codec::encode_abort(&reason));
        let round = self.round;
        Stop::End(SessionEndKind::Aborted { round, reason })
    }
}

// ---------------------------------------------------------------------
// Reconnect backoff.
// ---------------------------------------------------------------------

/// Bounded exponential backoff with jitter for reconnect loops.
///
/// When a coordinator dies, every one of its clients notices within one
/// stage deadline of each other; naive immediate retry turns the backup
/// (or the restarted primary) into its own thundering-herd victim. Each
/// attempt `k` waits `frac · min(cap, base · 2^k)` where `frac ∈
/// [0.5, 1.0)` is a deterministic splitmix64 hash of `(key, k)` — use
/// the client id as the key and a thousand clients spread across the
/// window instead of arriving in one burst, while any single client's
/// retry schedule stays reproducible in tests.
#[derive(Clone, Debug)]
pub struct Backoff {
    key: u64,
    base: Duration,
    cap: Duration,
    attempt: u32,
}

impl Backoff {
    /// A backoff schedule keyed on `key` (e.g. the client id), starting
    /// at `base` and never exceeding `cap` per wait.
    #[must_use]
    pub fn new(key: u64, base: Duration, cap: Duration) -> Backoff {
        Backoff {
            key,
            base: base.max(Duration::from_millis(1)),
            cap: cap.max(base),
            attempt: 0,
        }
    }

    /// Attempts made so far (`next_delay` calls since the last reset).
    #[must_use]
    pub fn attempts(&self) -> u32 {
        self.attempt
    }

    /// Forgets the attempt count — call once the connection is back
    /// (as [`Redial`] does when a coordinator seats the client again),
    /// so a much later disconnect starts fresh from `base`.
    pub fn reset(&mut self) {
        self.attempt = 0;
    }

    /// The next wait in the schedule (advances the attempt counter).
    #[must_use]
    fn next_delay(&mut self) -> Duration {
        let exp = self.attempt.min(20); // 2^20 · base saturates any sane cap
        self.attempt = self.attempt.wrapping_add(1);
        let ceiling = self
            .base
            .checked_mul(1u32 << exp)
            .map_or(self.cap, |d| d.min(self.cap));
        // frac ∈ [0.5, 1.0): full jitter halves herd correlation while
        // keeping every wait within 2x of its neighbor's.
        let mut z = self
            .key
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(u64::from(exp).wrapping_add(u64::from(self.attempt)));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        let frac = 0.5 + 0.5 * ((z >> 11) as f64 / (1u64 << 53) as f64);
        ceiling.mul_f64(frac)
    }

    /// Sleeps for the next delay of the schedule.
    pub fn sleep(&mut self) {
        std::thread::sleep(self.next_delay());
    }
}

// ---------------------------------------------------------------------
// Redial with failover.
// ---------------------------------------------------------------------

/// A session client's options, where it dials, and how it comes back
/// after losing its coordinator.
///
/// With one address, a failed dial or a lost connection ends the run as
/// an error. With several (a primary and its standby), either moves the
/// client to the next address after a jittered [`Backoff`] step until
/// one of them seats it again. The attempt count is per outage: it
/// restarts when a coordinator seats the client (its first `Setup`
/// arrives), and an outage that takes more than `max_attempts` backoff
/// steps is an error.
pub struct Redial {
    opts: SessionClientOptions,
    addrs: Vec<String>,
    at: usize,
    backoff: Backoff,
    max_attempts: u32,
}

impl Redial {
    /// Dials `addrs[0]` first; see the type docs for the rest.
    ///
    /// # Panics
    ///
    /// If `addrs` is empty.
    #[must_use]
    pub fn new(
        opts: SessionClientOptions,
        addrs: Vec<String>,
        backoff: Backoff,
        max_attempts: u32,
    ) -> Redial {
        assert!(!addrs.is_empty(), "a client needs a coordinator address");
        Redial {
            opts,
            addrs,
            at: 0,
            backoff,
            max_attempts,
        }
    }

    /// The address the next dial goes to.
    #[must_use]
    pub fn addr(&self) -> &str {
        &self.addrs[self.at]
    }

    /// The backoff schedule: its attempt count is the backoff steps taken
    /// since the client was last seated.
    #[must_use]
    pub fn backoff(&self) -> &Backoff {
        &self.backoff
    }

    fn fail_over(&mut self) {
        self.at = (self.at + 1) % self.addrs.len();
        self.backoff.sleep();
    }

    /// Runs [`run_session_client`] (with these closures) over a
    /// connection to [`Redial::addr`], redialing as the type docs say;
    /// `on_lost` hears each lost connection before the failover step.
    /// A later call dials the address the last one ended on, so a client
    /// re-joining after a scripted failure finds the coordinator that
    /// seated it.
    ///
    /// Returns the session's report, or `None` when `stop()` held after
    /// a failed dial.
    ///
    /// # Errors
    ///
    /// A failed dial or lost connection without a second address, an
    /// outage past `max_attempts` steps ([`NetError::Unavailable`]), and
    /// every other error of [`run_session_client`].
    pub fn run<FSel, FFail, FIn, FId>(
        &mut self,
        stop: impl Fn() -> bool,
        mut on_lost: impl FnMut(&Redial),
        mut select: FSel,
        mut fail_for: FFail,
        mut input_for: FIn,
        mut identity_for: FId,
    ) -> Result<Option<SessionClientReport>, NetError>
    where
        FSel: FnMut(u64) -> Option<Vec<u8>>,
        FFail: FnMut(u64) -> Option<FailPoint>,
        FIn: FnMut(u64, &RoundParams, u16, &[u8]) -> Result<ClientInput, NetError>,
        FId: FnMut(&RoundParams) -> Option<Identity>,
    {
        let failover = self.addrs.len() > 1;
        loop {
            if self.backoff.attempts() > self.max_attempts {
                return Err(NetError::Unavailable);
            }
            let mut chan = match TcpChannel::connect(self.addr()) {
                Ok(chan) => chan,
                Err(_) if stop() => return Ok(None),
                Err(e) if !failover => return Err(e),
                Err(_) => {
                    self.fail_over();
                    continue;
                }
            };
            let backoff = &mut self.backoff;
            let run = run_session_client(
                &mut chan,
                &self.opts,
                &mut select,
                &mut fail_for,
                |round, params, cohort, payload| {
                    // Seated again: the outage is over.
                    backoff.reset();
                    input_for(round, params, cohort, payload)
                },
                &mut identity_for,
            );
            match run {
                Ok(report) => return Ok(Some(report)),
                // A dead coordinator, not a protocol failure.
                Err(NetError::Closed | NetError::Timeout | NetError::Unavailable) if failover => {
                    on_lost(self);
                    self.fail_over();
                }
                Err(e) => return Err(e),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_and_respects_the_cap() {
        let base = Duration::from_millis(10);
        let cap = Duration::from_millis(500);
        let mut b = Backoff::new(42, base, cap);
        let delays: Vec<Duration> = (0..12).map(|_| b.next_delay()).collect();
        assert_eq!(b.attempts(), 12);
        for (k, d) in delays.iter().enumerate() {
            // Every wait sits in [0.5, 1.0) of its exponential ceiling.
            let ceiling = base
                .checked_mul(1u32 << k.min(20) as u32)
                .map_or(cap, |c| c.min(cap));
            assert!(*d >= ceiling / 2, "attempt {k}: {d:?} under half ceiling");
            assert!(*d < ceiling, "attempt {k}: {d:?} at/over ceiling");
            assert!(*d <= cap, "attempt {k}: {d:?} over cap");
        }
        // The schedule really grows before the cap bites.
        assert!(delays[4] > delays[0]);
        b.reset();
        assert_eq!(b.attempts(), 0);
        assert!(b.next_delay() < base, "post-reset wait not back at base");
    }

    #[test]
    fn backoff_jitter_decorrelates_clients() {
        let base = Duration::from_millis(100);
        let cap = Duration::from_secs(5);
        let first: Vec<Duration> = (0..8u64)
            .map(|id| Backoff::new(id, base, cap).next_delay())
            .collect();
        let distinct: std::collections::BTreeSet<Duration> = first.iter().copied().collect();
        assert!(distinct.len() >= 6, "jitter barely spreads: {first:?}");
    }
}
