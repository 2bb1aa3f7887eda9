//! Session-layer tests: multi-round execution over persistent
//! connections, per-round state isolation, dropout-then-rejoin, typed
//! stale-frame rejection on both sides of the wire, silent failures and
//! redialing after a lost coordinator.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dordis_net::codec::{Envelope, StageTag};
use dordis_net::coordinator::{DropKind, NetRoundReport};
use dordis_net::local;
use dordis_net::runtime::{
    round_rng_seed, Backoff, FailAction, FailPoint, FailStage, Redial, SessionEndKind,
};
use dordis_net::session::{Seating, SeatingOutcome, Session, SessionConfig};
use dordis_net::tcp::{TcpAcceptor, TcpChannel};
use dordis_net::transport::{Channel, LossProfile, ThrottledChannel};
use dordis_net::NetError;
use dordis_secagg::client::ClientInput;
use dordis_secagg::driver::{run_round, DropStage, DropoutSchedule, RoundSpec};
use dordis_secagg::graph::MaskingGraph;
use dordis_secagg::server::RoundOutcome;
use dordis_secagg::{ClientId, RoundParams, ThreatModel};
use dordis_telemetry::Telemetry;

const BITS: u32 = 16;
const DIM: usize = 16;
const SEED: u64 = 7_171_717;
const N: u32 = 5;
const CHUNKS: usize = 4;

fn params_for_round(round: u64) -> RoundParams {
    RoundParams {
        round,
        clients: (0..N).collect(),
        threshold: 3,
        bit_width: BITS,
        vector_len: DIM,
        noise_components: 0,
        threat_model: ThreatModel::SemiHonest,
        graph: MaskingGraph::Complete,
    }
}

/// Deterministic per-(client, round) input so every session round has a
/// distinct expected aggregate.
fn input_for(id: ClientId, round: u64) -> ClientInput {
    let mask = (1u64 << BITS) - 1;
    ClientInput {
        vector: (0..DIM)
            .map(|i| (u64::from(id) * 131 + round * 977 + i as u64 * 17) & mask)
            .collect(),
        noise_seeds: Vec::new(),
    }
}

/// The same round through the in-memory driver, with the session's
/// per-round seed derivation.
fn driver_round(round: u64, drops: &[ClientId]) -> RoundOutcome {
    let mut dropout = DropoutSchedule::none();
    for &id in drops {
        dropout.drop_at(id, DropStage::BeforeMaskedInput);
    }
    let inputs: BTreeMap<ClientId, ClientInput> =
        (0..N).map(|id| (id, input_for(id, round))).collect();
    let (outcome, _) = run_round(RoundSpec {
        params: params_for_round(round),
        inputs,
        dropout,
        rng_seed: round_rng_seed(SEED, round),
    })
    .expect("driver round");
    outcome
}

/// An R-round roster session of the five clients, telemetry enabled so
/// the span / metrics probes run alongside the protocol itself.
fn roster_cfg(rounds: u64) -> SessionConfig<'static> {
    SessionConfig {
        chunks: CHUNKS,
        population: (0..N).collect(),
        telemetry: Telemetry::enabled(),
        ..SessionConfig::new(
            rounds,
            Seating::Roster,
            Box::new(|round, _| params_for_round(round)),
        )
    }
}

/// Runs an R-round roster session over persistent 127.0.0.1 connections;
/// `dropper(round)` names the client that fails mid-stream that round
/// (it reconnects and re-joins the next round).
fn run_session(
    rounds: u64,
    dropper: impl Fn(u64) -> Option<(ClientId, u16)> + Send + Sync + 'static,
) -> Vec<NetRoundReport> {
    let (mut acceptor, addr) = local::listen();
    let (reports, clients) =
        local::run_session(&mut acceptor, roster_cfg(rounds), 0..N, move |id| loop {
            let mut chan =
                TcpChannel::connect(addr.as_str()).map_err(|e| format!("connect: {e}"))?;
            let report = local::roster_client(
                &mut chan,
                id,
                SEED,
                |r| {
                    dropper(r).and_then(|(who, k)| {
                        (who == id).then_some(FailPoint {
                            stage: FailStage::MaskedInputAfterChunks(k),
                            action: FailAction::Disconnect,
                        })
                    })
                },
                |r| input_for(id, r),
                None,
            )
            .map_err(|e| format!("client {id}: {e}"))?;
            match report.end {
                SessionEndKind::Ended => return Ok(()),
                SessionEndKind::Failed { .. } => continue, // rejoin
                other => return Err(format!("client {id}: unexpected end {other:?}")),
            }
        });
    for run in clients.into_values() {
        let run: Result<(), String> = run;
        run.expect("client result");
    }
    reports
}

#[test]
fn multi_round_session_matches_per_round_driver() {
    let reports = run_session(3, |_| None);
    assert_eq!(reports.len(), 3);
    for (i, report) in reports.iter().enumerate() {
        let round = i as u64 + 1;
        // The round counter comes from the session, not a config
        // constant.
        assert_eq!(report.round, round);
        // A roster session seats `params.clients` as given.
        assert_eq!(report.cohort, params_for_round(round).clients);
        let mem = driver_round(round, &[]);
        assert_eq!(report.outcome.sum, mem.sum, "round {round}");
        assert_eq!(report.outcome.survivors, mem.survivors);
        assert!(report.dropouts.is_empty(), "{:?}", report.dropouts);
    }
    // Distinct rounds produce distinct aggregates (fresh per-round
    // state, per-round seeds).
    assert_ne!(reports[0].outcome.sum, reports[1].outcome.sum);

    // Per-round accounting rides in every report: the metrics
    // snapshot is this round's *delta*, so each round must show its
    // own uplink bytes and unmask jobs rather than a running total.
    for report in &reports {
        let m = report.metrics.as_ref().expect("metrics delta");
        assert!(
            m.get("dordis_frame_bytes_total{direction=\"in\",stage=\"MaskedInputCollection\"}") > 0,
            "round {}: no uplink bytes in the delta",
            report.round
        );
        assert!(
            m.get("dordis_unmask_job_duration_ns::count") >= report.chunks as u64,
            "round {}: unmask jobs missing from the delta",
            report.round
        );
    }
    // The reactor counters in the report are per-round deltas; the
    // session-cumulative view rides alongside and must dominate
    // their sum.
    let cumulative = reports.last().unwrap().reactor_session;
    let mut summed = 0u64;
    for report in &reports {
        assert!(report.reactor.polls > 0, "round {}", report.round);
        summed += report.reactor.polls;
    }
    assert!(
        summed <= cumulative.polls,
        "per-round deltas ({summed}) exceed the cumulative count ({})",
        cumulative.polls
    );
}

#[test]
fn dropout_then_rejoin_completes_next_round() {
    // Client 3 drops mid-chunk-stream in round 1 (after 1 of 4 chunk
    // frames), reconnects, and completes rounds 2 and 3.
    let reports = run_session(3, |r| (r == 1).then_some((3, 1)));

    let r1 = &reports[0];
    assert!(!r1.outcome.survivors.contains(&3));
    assert_eq!(r1.outcome.dropped, vec![3]);
    let detected = r1
        .dropouts
        .iter()
        .find(|d| d.client == 3)
        .expect("detected dropout");
    assert_eq!(detected.stage, "MaskedInputCollection");
    assert_eq!(detected.kind, DropKind::Disconnected);
    let mem1 = driver_round(1, &[3]);
    assert_eq!(r1.outcome.sum, mem1.sum, "dropout round");
    assert_eq!(r1.outcome.survivors, mem1.survivors);

    // Rejoined over a fresh connection: full cohort again, bit-equal
    // to the full-roster driver round.
    for (i, report) in reports.iter().enumerate().skip(1) {
        let round = i as u64 + 1;
        assert!(
            report.outcome.survivors.contains(&3),
            "client 3 did not rejoin round {round}"
        );
        let mem = driver_round(round, &[]);
        assert_eq!(report.outcome.sum, mem.sum, "round {round}");
    }
}

/// Rounds complete under a lossy data plane: every client's uplink
/// drops and reorders ~5% of its masked-input chunk frames
/// ([`ThrottledChannel::with_loss`]). A lost chunk surfaces exactly as
/// the paper's failure model says it should — a *detected* dropout at
/// the masked-input stage — and every round's aggregate stays bit-equal
/// to the in-memory driver run with those same dropouts. Reordered
/// chunks (carrying their chunk ids) must cost nothing at all.
#[test]
fn session_rounds_complete_under_packet_loss_and_reorder() {
    const ROUNDS: u64 = 3;
    let (mut acceptor, addr) = local::listen();
    let cfg = SessionConfig {
        // Short: every lost chunk costs the coordinator exactly one
        // masked-stage deadline wait before the dropout is declared.
        stage_timeout: Duration::from_secs(3),
        ..roster_cfg(ROUNDS)
    };
    let (reports, clients) = local::run_session(&mut acceptor, cfg, 0..N, move |id| loop {
        let raw = TcpChannel::connect(addr.as_str()).map_err(|e| format!("connect: {e}"))?;
        let mut chan =
            ThrottledChannel::new(Box::new(raw), u64::MAX, Duration::ZERO).with_loss(LossProfile {
                drop_prob: 0.05,
                reorder_prob: 0.05,
                seed: 1_000 + u64::from(id),
            });
        match local::roster_client(&mut chan, id, SEED, |_| None, |r| input_for(id, r), None) {
            Ok(report) => match report.end {
                SessionEndKind::Ended => return Ok(()),
                SessionEndKind::Failed { .. } => continue,
                other => return Err(format!("client {id}: unexpected end {other:?}")),
            },
            // A lost chunk gets this client dropped from the
            // round; the coordinator closes its connection and
            // the client redials to rejoin the next announce.
            Err(NetError::Closed | NetError::Timeout) => continue,
            Err(e) => return Err(format!("client {id}: {e}")),
        }
    });
    for run in clients.into_values() {
        let run: Result<(), String> = run;
        run.expect("client result");
    }

    let mut total_dropped = 0usize;
    for report in &reports {
        // Every cohort member is accounted for: survivor or *detected*
        // dropout, nothing silent.
        let mut dropped = report.outcome.dropped.clone();
        dropped.sort_unstable();
        for &id in &dropped {
            assert!(
                report.dropouts.iter().any(|d| d.client == id),
                "round {}: client {id} dropped without a detection record",
                report.round
            );
        }
        total_dropped += dropped.len();
        // Enough survivors to decrypt — and their sum is bit-equal to
        // the in-memory driver with the identical dropout set.
        assert!(
            report.outcome.survivors.len() >= 3,
            "round {}: {:?}",
            report.round,
            report.outcome.survivors
        );
        let mem = driver_round(report.round, &dropped);
        assert_eq!(
            report.outcome.sum, mem.sum,
            "round {}: survivors-sum not bit-equal under loss",
            report.round
        );
        assert_eq!(
            report.outcome.survivors, mem.survivors,
            "round {}",
            report.round
        );
    }
    // The loss model actually bit: a 5% drop rate across 3 rounds of
    // 5 clients × 4 chunks is overwhelmingly unlikely to lose nothing
    // (and the seeds are fixed, so this is deterministic).
    assert!(
        total_dropped >= 1,
        "no dropouts under 5% loss — the injector did not fire"
    );
}

/// A round whose parameters cannot be seated (here: a claims round
/// whose threshold exceeds the seated cohort) fails like any other round
/// error: the round counter advances and the cohort's connections stay
/// parked, so the next round runs over the *same* connections.
#[test]
fn unseatable_round_keeps_the_cohort_parked_for_the_next_round() {
    let (mut acceptor, addr) = local::listen();
    let cohort = local::spawn(0..N, move |id| -> Result<Vec<u64>, String> {
        let mut chan = local::dial(&addr);
        let report =
            local::roster_client(&mut chan, id, SEED, |_| None, |r| input_for(id, r), None)
                .map_err(|e| format!("client {id}: {e}"))?;
        match report.end {
            SessionEndKind::Ended => Ok(report.rounds.iter().map(|r| r.round).collect()),
            other => Err(format!("client {id}: unexpected end {other:?}")),
        }
    });

    let telemetry = Telemetry::enabled();
    let cfg = SessionConfig {
        chunks: CHUNKS,
        population: (0..N).collect(),
        telemetry: telemetry.clone(),
        ..SessionConfig::new(
            2,
            // Seats every claimant, highest id first: the report must
            // hand the cohort back in *this* order.
            Seating::Claims(Box::new(|_, claims| SeatingOutcome {
                seated: claims.iter().rev().map(|(id, _)| *id).collect(),
                rejected: Vec::new(),
            })),
            Box::new(|round, cohort| {
                let mut p = params_for_round(round);
                p.clients = cohort.to_vec();
                if round == 1 {
                    p.threshold = cohort.len() + 1;
                }
                p
            }),
        )
    };
    let mut session = Session::new(&mut acceptor, cfg).expect("session");
    assert_eq!(session.current_round(), 1);
    let err = session
        .run_round(&[])
        .err()
        .expect("threshold > clients must fail the round");
    assert!(matches!(err, NetError::SecAgg(_)), "{err}");
    assert_eq!(session.current_round(), 2, "the failed round still counts");
    assert_eq!(session.rounds_remaining(), 1);

    let report = session.run_round(&[]).expect("round 2");
    assert_eq!(report.round, 2);
    assert_eq!(report.cohort, (0..N).rev().collect::<Vec<_>>());
    assert!(report.dropouts.is_empty(), "{:?}", report.dropouts);
    let mem = driver_round(2, &[]);
    assert_eq!(report.outcome.sum, mem.sum);
    assert_eq!(report.outcome.survivors, mem.survivors);
    session.finish();
    for played in cohort.reap().expect("client thread").into_values() {
        assert_eq!(
            played.expect("client result"),
            vec![2],
            "one connection, round 2 only"
        );
    }
    let metrics = telemetry.snapshot().expect("enabled");
    assert_eq!(metrics.get("dordis_rejoins_total"), 0);
}

// ---------------------------------------------------------------------
// Typed stale-round rejection.
// ---------------------------------------------------------------------

#[test]
fn client_rejects_stale_round_frame_with_typed_error() {
    let (mut server_end, mut client_end) = TcpChannel::pair().expect("pair");
    let client = std::thread::spawn(move || {
        local::roster_client(
            &mut client_end,
            0,
            SEED,
            |_| None,
            |r| input_for(0, r),
            None,
        )
    });

    let deadline = Instant::now() + Duration::from_secs(5);
    // Join…
    let join = server_end.recv_deadline(deadline).unwrap();
    assert_eq!(Envelope::decode(&join).unwrap().stage, StageTag::Join);
    // …Setup for round 5…
    let params = params_for_round(5);
    server_end
        .send(
            &Envelope::new(
                StageTag::Setup,
                5,
                dordis_net::codec::encode_setup(&params, 1, N as u16, &[]),
            )
            .encode(),
        )
        .unwrap();
    // …the client advertises…
    let adv = server_end.recv_deadline(deadline).unwrap();
    assert_eq!(
        Envelope::decode(&adv).unwrap().stage,
        StageTag::AdvertiseKeys
    );
    // …and the server replies with a frame from round 4.
    server_end
        .send(&Envelope::new(StageTag::Roster, 4, Vec::new()).encode())
        .unwrap();

    match client.join().expect("client thread") {
        Err(NetError::StaleRound { got, expected }) => {
            assert_eq!(got, 4);
            assert_eq!(expected, 5);
        }
        other => panic!("expected NetError::StaleRound, got {other:?}"),
    }
}

/// A channel wrapper that duplicates the client's first `stage` frame
/// with a *stale* round id just before the real one — the coordinator
/// must discard the stale copy (typed, counted) and file the real frame,
/// completing the round bit-equal to a clean run.
struct StaleInjector {
    inner: TcpChannel,
    stage: StageTag,
    injected: Arc<AtomicU32>,
}

impl Channel for StaleInjector {
    fn send(&mut self, frame: &[u8]) -> Result<(), NetError> {
        if self.injected.load(Ordering::SeqCst) == 0 {
            if let Ok(env) = Envelope::decode(frame) {
                if env.stage == self.stage {
                    self.injected.store(1, Ordering::SeqCst);
                    let stale = Envelope {
                        round: env.round - 1,
                        ..env
                    };
                    self.inner.send(&stale.encode())?;
                }
            }
        }
        self.inner.send(frame)
    }

    fn recv_deadline(&mut self, deadline: Instant) -> Result<Vec<u8>, NetError> {
        self.inner.recv_deadline(deadline)
    }

    fn peer(&self) -> String {
        self.inner.peer()
    }
}

#[test]
fn coordinator_discards_stale_frames_without_dropping_the_peer() {
    // A control-stage frame, and the first masked-input chunk frame.
    for stage in [StageTag::AdvertiseKeys, StageTag::MaskedInput] {
        let (mut acceptor, addr) = local::listen();
        let injected = Arc::new(AtomicU32::new(0));
        let cfg = local::one_round(params_for_round(5));
        let (mut reports, clients) = local::run_session(&mut acceptor, cfg, 0..N, move |id| {
            let inner = local::dial(&addr);
            let mut chan: Box<dyn Channel> = if id == 2 {
                let injected = Arc::clone(&injected);
                Box::new(StaleInjector {
                    inner,
                    stage,
                    injected,
                })
            } else {
                Box::new(inner)
            };
            local::roster_client(
                chan.as_mut(),
                id,
                SEED,
                |_| None,
                |r| input_for(id, r),
                None,
            )
        });
        let report = reports.pop().expect("one round");
        for run in clients.into_values() {
            // A finished round is an entry in `rounds`.
            assert_eq!(run.expect("client run").rounds.len(), 1);
        }
        assert_eq!(report.stale_frames, 1, "{stage:?}");
        assert!(report.dropouts.is_empty(), "{:?}", report.dropouts);
        let mem = driver_round(5, &[]);
        assert_eq!(report.outcome.sum, mem.sum);
        assert_eq!(report.outcome.survivors, mem.survivors);
    }
}

// ---------------------------------------------------------------------
// Silent failures and redialing.
// ---------------------------------------------------------------------

/// A silent client holds its connection until the coordinator hangs up
/// on the missed deadline, so it returns `Failed` just after the 500 ms
/// masked-stage deadline instead of after a linger of its own.
#[test]
fn silent_client_returns_when_the_coordinator_hangs_up() {
    let (mut acceptor, addr) = local::listen();
    let cfg = SessionConfig {
        stage_timeout: Duration::from_millis(500),
        ..local::one_round(params_for_round(1))
    };
    let (reports, mut clients) = local::run_session(&mut acceptor, cfg, 0..N, move |id| {
        let start = Instant::now();
        let mut chan = local::dial(&addr);
        let fail = (id == 2).then_some(FailPoint {
            stage: FailStage::MaskedInput,
            action: FailAction::Silent,
        });
        let report =
            local::roster_client(&mut chan, id, SEED, |_| fail, |r| input_for(id, r), None)
                .expect("client run");
        (report, start.elapsed())
    });
    assert_eq!(reports[0].outcome.dropped, vec![2]);
    assert!(reports[0]
        .dropouts
        .iter()
        .any(|d| d.client == 2 && d.kind == DropKind::DeadlineMissed));
    let (report, waited) = clients.remove(&2).expect("client 2");
    assert!(
        matches!(
            report.end,
            SessionEndKind::Failed {
                stage: FailStage::MaskedInput,
                ..
            }
        ),
        "{:?}",
        report.end
    );
    assert!(
        waited < Duration::from_millis(1500),
        "the silent client outlived its hang-up: {waited:?}"
    );
}

/// A two-client roster round on `first_round`.
fn pair_cfg(first_round: u64) -> SessionConfig<'static> {
    SessionConfig {
        first_round,
        population: vec![0, 1],
        ..SessionConfig::new(
            1,
            Seating::Roster,
            Box::new(|round, _| RoundParams {
                clients: vec![0, 1],
                threshold: 2,
                ..params_for_round(round)
            }),
        )
    }
}

/// Each outage counts its dials from zero: a client that the standby
/// seated after one outage meets the next with a fresh backoff, not with
/// the first outage's attempts piled on.
#[test]
fn redial_backoff_restarts_once_reseated() {
    let (mut primary, primary_addr) = local::listen();
    // The standby is down until the primary has died.
    let (standby, standby_addr) = local::listen();
    drop(standby);
    let addrs = vec![primary_addr, standby_addr.clone()];
    let cohort = local::spawn(0..2, move |id| {
        let backoff = Backoff::new(
            u64::from(id),
            Duration::from_millis(2),
            Duration::from_millis(20),
        );
        let mut losses = Vec::new();
        let end = Redial::new(local::options(id, SEED), addrs.clone(), backoff, 50).run(
            || false,
            |redial| losses.push(redial.backoff().attempts()),
            |_| None,
            |_| None,
            |r, _, _, _| Ok(input_for(id, r)),
            |_| None,
        );
        (end, losses)
    });

    // Round 1 on the primary, which then dies without a SessionEnd.
    let mut session = Session::new(&mut primary, pair_cfg(1)).expect("primary");
    let round = session.run_round(&[]).expect("round 1");
    assert_eq!(round.outcome.survivors, vec![0, 1]);
    drop(session);
    drop(primary);
    // Outage 1: the clients dial the dead primary and the dead standby
    // in turn, a few milliseconds apart, for 200 ms.
    std::thread::sleep(Duration::from_millis(200));
    let mut standby = TcpAcceptor::bind(standby_addr.as_str()).expect("rebind the standby");
    let mut session = Session::new(&mut standby, pair_cfg(2)).expect("standby");
    let round = session.run_round(&[]).expect("round 2");
    assert_eq!(round.outcome.survivors, vec![0, 1]);
    // Outage 2: nothing comes back, so the clients give up.
    drop(session);
    drop(standby);
    for (id, (end, losses)) in cohort.reap().expect("client thread") {
        assert!(
            matches!(end, Err(NetError::Unavailable)),
            "client {id}: {end:?}"
        );
        assert_eq!(losses, vec![0, 0], "client {id}");
    }
}
