//! The client runtime: drives the `dordis-secagg` client state machine
//! symmetrically to the [`coordinator`](crate::coordinator), over any
//! [`Channel`].
//!
//! One entry point, [`run_session_client`]: it answers every
//! [`StageTag::RoundAnnounce`] with a participation claim (or a
//! decline), participates in each round it is seated for — receiving
//! the round setup, computing its input via a caller-supplied closure
//! (the update only exists once the round parameters are known),
//! building a **fresh** per-round protocol state machine with per-round
//! randomness ([`round_rng_seed`]), and answering each server broadcast
//! — and keeps the connection warm between rounds until the server's
//! `SessionEnd`.
//!
//! A detected inconsistency makes the state machine abort; the runtime
//! forwards that as an explicit `Abort` envelope and goes silent, which
//! is exactly how the driver models aborting clients. A frame whose
//! round id differs from the round being executed surfaces as the typed
//! [`NetError::StaleRound`], never as state of the wrong round.
//!
//! For tests and demos, a [`FailPoint`] makes the client misbehave on
//! purpose: disconnect (process kill) or go silent while connected
//! (network partition / hang) just before a chosen stage. In a session,
//! a failed client's process can reconnect and re-join from the next
//! round's announce — the dropout-then-rejoin path the paper's workload
//! is defined by.

use std::time::{Duration, Instant};

use dordis_pipeline::ChunkPlan;
use dordis_secagg::client::{Client, ClientInput, Identity};
use dordis_secagg::messages::IdList;
use dordis_secagg::{ClientId, RoundParams, SecAggError, ThreatModel};

pub use dordis_secagg::driver::{client_rng, round_rng_seed, share_keys_rng};

use crate::codec::{self, decode_list, Encode, Envelope, StageTag};
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
    /// dropout via its stage deadline.
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

/// How one round ended for a client.
#[derive(Clone, Debug)]
pub enum ClientRunOutcome {
    /// Round finished; the server reported these survivors.
    Finished {
        /// Survivor set (U3) from the server's final broadcast.
        survivors: Vec<ClientId>,
    },
    /// A scripted [`FailPoint`] fired.
    Failed {
        /// Which stage the failure preceded.
        stage: FailStage,
    },
    /// The state machine detected an inconsistency and aborted.
    Aborted {
        /// The abort reason.
        reason: String,
    },
    /// The server aborted the round.
    ServerAborted {
        /// The server's reason.
        reason: String,
    },
}

/// Executes one round from its Setup body onward: builds a fresh
/// protocol state machine for the round and serves broadcasts until
/// Finished (or a failure outcome).
///
/// # Errors
///
/// Transport/codec failures, server protocol violations, and — typed —
/// [`NetError::StaleRound`] when a broadcast carries the wrong round id.
fn participate<FIn, FId>(
    chan: &mut dyn Channel,
    opts: &SessionClientOptions,
    fail: Option<FailPoint>,
    env_round: u64,
    setup_body: &[u8],
    input_for: FIn,
    identity_for: FId,
) -> Result<ClientRunOutcome, NetError>
where
    FIn: FnOnce(&RoundParams, u16, &[u8]) -> Result<ClientInput, NetError>,
    FId: FnOnce(&RoundParams) -> Option<Identity>,
{
    let (params, requested_chunks, cohort, payload) = codec::decode_setup(setup_body)?;
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
        )));
    }
    let round = params.round;
    if round != env_round {
        return Err(NetError::Protocol(format!(
            "Setup round {round} disagrees with its envelope ({env_round})"
        )));
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
        return Err(NetError::Protocol("not in the sampled set".into()));
    }

    let input = input_for(&params, cohort, &payload)?;
    let identity = identity_for(&params);
    if params.threat_model == ThreatModel::Malicious && identity.is_none() {
        return Err(NetError::Protocol(
            "malicious round requires a PKI identity".into(),
        ));
    }
    let rng_seed = round_rng_seed(opts.rng_seed, round);
    let mut rng = client_rng(rng_seed, opts.id);
    let mut client = Client::new(params.clone(), opts.id, input, identity, &mut rng)
        .map_err(NetError::SecAgg)?;

    // ---- Stage 0: AdvertiseKeys. ----
    let replies = Replies { fail, opts, round };
    if let Some(out) = replies.send(chan, FailStage::Advertise, StageTag::AdvertiseKeys, || {
        client.advertise_keys().map(|adv| adv.encoded())
    })? {
        return Ok(out);
    }

    // ---- Serve broadcasts until Finished. ----
    let mut last_u3: Vec<ClientId> = Vec::new();
    loop {
        let env = recv_until(chan, opts.recv_timeout)?;
        env.check_round(round)?;
        let ended = match env.stage {
            StageTag::Roster => {
                let roster = decode_list(&env.body, codec::decode_advertised_keys)?;
                let mut rng = share_keys_rng(rng_seed, opts.id);
                replies.send(chan, FailStage::ShareKeys, StageTag::ShareKeys, || {
                    let cts = client.share_keys(&roster, &mut rng)?;
                    Ok(codec::encode_list(&cts))
                })?
            }
            StageTag::Inbox => {
                if let Some(out) = replies.fire(FailStage::MaskedInput) {
                    return Ok(out);
                }
                let inbox = decode_list(&env.body, codec::decode_encrypted_shares)?;
                let partial = match fail {
                    Some(FailPoint {
                        stage: FailStage::MaskedInputAfterChunks(k),
                        action,
                    }) => Some((usize::from(k), action)),
                    _ => None,
                };
                let cursor = match client.begin_masked_input(inbox) {
                    Ok(cursor) => cursor,
                    Err(e) => return Ok(abort(chan, round, &e)),
                };
                // A fail point that cannot fire would silently
                // validate nothing — reject it loudly instead of
                // completing the round as a healthy client.
                if let Some((k, _)) = partial {
                    if k >= plan.chunks() {
                        return Err(NetError::Protocol(format!(
                            "fail point MaskedInputAfterChunks({k}) cannot fire: \
                             the round realizes only {} chunk(s)",
                            plan.chunks()
                        )));
                    }
                }
                // Mask one chunk, put it on the wire, mask the next
                // while the kernel and the coordinator work on the
                // first — the coordinator aggregates chunk c while
                // chunk c+1 does not exist yet.
                for c in 0..plan.chunks() {
                    if let Some((k, action)) = partial {
                        if c == k {
                            // Mid-stream failure: k chunks are already
                            // out, the rest are never even masked.
                            if action == FailAction::Silent {
                                std::thread::sleep(opts.silent_linger);
                            }
                            return Ok(ClientRunOutcome::Failed {
                                stage: FailStage::MaskedInputAfterChunks(k as u16),
                            });
                        }
                    }
                    let part = cursor.chunk(plan.range(c));
                    send_env(
                        chan,
                        &Envelope::chunked(StageTag::MaskedInput, round, c as u16, part.encoded()),
                    )?;
                }
                None
            }
            StageTag::SurvivorSet => {
                let IdList(u3) = codec::decode_id_list(&env.body)?;
                last_u3 = u3.clone();
                if params.threat_model == ThreatModel::Malicious {
                    replies.send(
                        chan,
                        FailStage::Consistency,
                        StageTag::ConsistencySig,
                        || client.consistency_check(&u3).map(|sig| sig.encoded()),
                    )?
                } else {
                    replies.send(chan, FailStage::Unmasking, StageTag::Unmasking, || {
                        client.unmask(&u3, None).map(|r| r.encoded())
                    })?
                }
            }
            StageTag::SignatureList => {
                // Malicious model: U3 was fixed at consistency_check.
                let sigs = codec::decode_signature_list(&env.body)?;
                replies.send(chan, FailStage::Unmasking, StageTag::Unmasking, || {
                    client.unmask(&last_u3, Some(&sigs)).map(|r| r.encoded())
                })?
            }
            StageTag::ReadySet => {
                let IdList(u5) = codec::decode_id_list(&env.body)?;
                replies.send(chan, FailStage::NoiseShares, StageTag::NoiseShares, || {
                    client.noise_shares(&u5).map(|r| r.encoded())
                })?
            }
            StageTag::Finished => {
                let IdList(survivors) = codec::decode_id_list(&env.body)?;
                Some(ClientRunOutcome::Finished { survivors })
            }
            StageTag::Abort => Some(ClientRunOutcome::ServerAborted {
                reason: codec::decode_abort(&env.body),
            }),
            other => {
                return Err(NetError::Protocol(format!(
                    "unexpected server stage {other:?}"
                )))
            }
        };
        if let Some(out) = ended {
            return Ok(out);
        }
    }
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
    /// nothing until the next announce).
    pub recv_timeout: Duration,
    /// For [`FailAction::Silent`]: how long to keep the connection open
    /// while unresponsive. Set this past the server's stage deadline so
    /// the dropout is detected by timeout rather than by disconnect.
    pub silent_linger: Duration,
}

/// One round's result from the session client's perspective.
#[derive(Clone, Debug)]
pub struct SessionRoundResult {
    /// The round id.
    pub round: u64,
    /// How participation ended.
    pub outcome: ClientRunOutcome,
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
    /// Per-round results, in order, for the rounds this client was
    /// seated in.
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
    let mut rounds: Vec<SessionRoundResult> = Vec::new();
    // Eager join: announce-then-answer costs a round-trip before the
    // session's *first* round can even be seated. So the client joins
    // optimistically at connect time, stamped round 0 (round ids start
    // at 1): a roster session admits
    // it immediately — its first RoundAnnounce is then answered by this
    // already-filed join, no extra round-trip — while a claims session
    // discards it as typed-stale and waits for the real claim after the
    // announce.
    send_env(
        chan,
        &Envelope::new(StageTag::Join, 0, codec::encode_join(opts.id)),
    )?;
    let mut eager_join_pending = true;
    // The server is untrusted: rounds must advance strictly, or a
    // replayed announce/Setup for an already-played round would make
    // this client re-derive that round's [`round_rng_seed`] and reuse
    // its masks — exactly the secret-reuse a recorded transcript could
    // then unmask.
    let mut last_round: Option<u64> = None;
    loop {
        let env = recv_until(chan, opts.recv_timeout)?;
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
        match env.stage {
            StageTag::RoundAnnounce => {
                let claims_required = codec::decode_announce(&env.body)?;
                let round = env.round;
                if claims_required {
                    // The eager join (if any) was discarded as stale by
                    // the coordinator; answer with the real claim.
                    eager_join_pending = false;
                    match select(round) {
                        Some(claim) => send_env(
                            chan,
                            &Envelope::new(
                                StageTag::Join,
                                round,
                                codec::encode_join_claim(opts.id, &claim),
                            ),
                        )?,
                        None => send_env(
                            chan,
                            &Envelope::new(StageTag::Decline, round, codec::encode_join(opts.id)),
                        )?,
                    }
                } else if eager_join_pending {
                    // The first roster announce is already answered by
                    // the eager join sent at connect; answering again
                    // would land a duplicate Join in the round's stage
                    // collection and read as a protocol violation.
                    eager_join_pending = false;
                } else {
                    send_env(
                        chan,
                        &Envelope::new(StageTag::Join, round, codec::encode_join(opts.id)),
                    )?;
                }
            }
            StageTag::Setup => {
                let round = env.round;
                let outcome = participate(
                    chan,
                    opts,
                    fail_for(round),
                    round,
                    &env.body,
                    |params, cohort, payload| input_for(round, params, cohort, payload),
                    &mut identity_for,
                )?;
                last_round = Some(round);
                rounds.push(SessionRoundResult {
                    round,
                    outcome: outcome.clone(),
                });
                match outcome {
                    ClientRunOutcome::Finished { .. } => {}
                    ClientRunOutcome::Failed { stage } => {
                        return Ok(SessionClientReport {
                            rounds,
                            end: SessionEndKind::Failed { round, stage },
                        });
                    }
                    ClientRunOutcome::Aborted { reason } => {
                        return Ok(SessionClientReport {
                            rounds,
                            end: SessionEndKind::Aborted { round, reason },
                        });
                    }
                    ClientRunOutcome::ServerAborted { reason } => {
                        return Ok(SessionClientReport {
                            rounds,
                            end: SessionEndKind::ServerAborted { reason },
                        });
                    }
                }
            }
            StageTag::SessionEnd => {
                return Ok(SessionClientReport {
                    rounds,
                    end: SessionEndKind::Ended,
                });
            }
            StageTag::Abort => {
                return Ok(SessionClientReport {
                    rounds,
                    end: SessionEndKind::ServerAborted {
                        reason: codec::decode_abort(&env.body),
                    },
                });
            }
            other => {
                return Err(NetError::Protocol(format!(
                    "unexpected server stage {other:?} between rounds"
                )))
            }
        }
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

    /// Forgets the attempt count — call after a successful connection,
    /// so a much later disconnect starts fresh from `base`.
    pub fn reset(&mut self) {
        self.attempt = 0;
    }

    /// The next wait in the schedule (advances the attempt counter).
    #[must_use]
    pub fn next_delay(&mut self) -> Duration {
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

    /// Sleeps for [`Backoff::next_delay`].
    pub fn sleep(&mut self) {
        std::thread::sleep(self.next_delay());
    }
}

fn recv_until(chan: &mut dyn Channel, timeout: Duration) -> Result<Envelope, NetError> {
    recv_env(chan, Instant::now() + timeout)
}

/// One round's replies to the server's broadcasts: where a scripted
/// failure fires, and the round id every reply carries.
struct Replies<'o> {
    fail: Option<FailPoint>,
    opts: &'o SessionClientOptions,
    round: u64,
}

impl Replies<'_> {
    /// Fires the fail point if configured for `stage`.
    fn fire(&self, stage: FailStage) -> Option<ClientRunOutcome> {
        let fail = self.fail?;
        if fail.stage != stage {
            return None;
        }
        if fail.action == FailAction::Silent {
            // Stay connected but unresponsive past the server's stage
            // deadline, so the dropout is detected by timeout (a real
            // partitioned client would hang indefinitely). The caller
            // holds the channel, so merely sleeping keeps it open.
            std::thread::sleep(self.opts.silent_linger);
        }
        Some(ClientRunOutcome::Failed { stage })
    }

    /// Answers one broadcast: the fail point scripted for `stage` fires
    /// first; otherwise `step` runs the state machine and its message
    /// goes out as a `tag` frame — or, when the step detects an
    /// inconsistency, the round ends in an abort. `Some` ends the round.
    fn send(
        &self,
        chan: &mut dyn Channel,
        stage: FailStage,
        tag: StageTag,
        step: impl FnOnce() -> Result<Vec<u8>, SecAggError>,
    ) -> Result<Option<ClientRunOutcome>, NetError> {
        if let Some(out) = self.fire(stage) {
            return Ok(Some(out));
        }
        match step() {
            Ok(body) => send_env(chan, &Envelope::new(tag, self.round, body)).map(|()| None),
            Err(e) => Ok(Some(abort(chan, self.round, &e))),
        }
    }
}

/// Reports a state-machine abort to the server and ends the run.
fn abort(chan: &mut dyn Channel, round: u64, e: &SecAggError) -> ClientRunOutcome {
    let reason = e.to_string();
    let _ = send_env(
        chan,
        &Envelope::new(StageTag::Abort, round, codec::encode_abort(&reason)),
    );
    ClientRunOutcome::Aborted { reason }
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
