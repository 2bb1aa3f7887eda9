//! The session client answers each server stage once, in protocol order.
//! A server frame replayed to one client (the same Roster again, or a
//! second SurvivorSet naming a different U3) ends that client's run as a
//! protocol error with nothing sent for it — in the malicious model a
//! second consistency signature would sign a second survivor set, which
//! the ConsistencyCheck round exists to rule out — and the round still
//! completes for everyone else. So does an announce or Setup stamped
//! round 0: round ids start at 1.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dordis_net::codec::{
    decode_id_list, encode_announce, encode_setup, Encode, Envelope, StageTag,
};
use dordis_net::local;
use dordis_net::runtime::SessionClientReport;
use dordis_net::session::SessionConfig;
use dordis_net::tcp::TcpChannel;
use dordis_net::transport::Channel;
use dordis_net::NetError;
use dordis_secagg::client::{ClientInput, Identity};
use dordis_secagg::driver::signing_key_for;
use dordis_secagg::graph::MaskingGraph;
use dordis_secagg::messages::IdList;
use dordis_secagg::{ClientId, RoundParams, ThreatModel};

const N: u32 = 6;
const BITS: u32 = 16;
const DIM: usize = 12;
const SEED: u64 = 4_242;
/// The client whose channel replays a server frame.
const VICTIM: ClientId = 2;

fn params(threat_model: ThreatModel) -> RoundParams {
    RoundParams {
        round: 3,
        clients: (0..N).collect(),
        threshold: 4,
        bit_width: BITS,
        vector_len: DIM,
        noise_components: 0,
        threat_model,
        graph: MaskingGraph::Complete,
    }
}

fn input_for(id: ClientId) -> ClientInput {
    ClientInput {
        vector: (0..DIM)
            .map(|i| (u64::from(id) * 257 + i as u64 * 13) & ((1 << BITS) - 1))
            .collect(),
        noise_seeds: Vec::new(),
    }
}

/// Rewrites a replayed server frame.
type Forge = fn(Envelope) -> Envelope;

/// What the victim's channel does to the server's frames.
#[derive(Clone, Copy)]
enum Tamper {
    /// Hands the client a second, forged copy of the first frame of
    /// this stage right after the real one.
    Replay(StageTag, Forge),
    /// Hands the client this frame before any real one.
    First(fn() -> Envelope),
}

/// A client's channel that logs the tag of every frame the client sends
/// and, when `replay` names a server stage, hands the client a second
/// (possibly forged) copy of that stage's frame right after the real one.
/// A frame in `queued` comes before the next real one.
struct Replay {
    inner: TcpChannel,
    replay: Option<(StageTag, Forge)>,
    queued: Option<Vec<u8>>,
    sent: Vec<StageTag>,
}

impl Channel for Replay {
    fn send(&mut self, frame: &[u8]) -> Result<(), NetError> {
        self.sent
            .push(Envelope::decode(frame).expect("own frame").stage);
        self.inner.send(frame)
    }

    fn recv_deadline(&mut self, deadline: Instant) -> Result<Vec<u8>, NetError> {
        if let Some(frame) = self.queued.take() {
            return Ok(frame);
        }
        let frame = self.inner.recv_deadline(deadline)?;
        if let Some((stage, forge)) = self.replay {
            let env = Envelope::decode(&frame).expect("server frame");
            if env.stage == stage {
                self.replay = None;
                self.queued = Some(forge(env).encode());
            }
        }
        Ok(frame)
    }

    fn peer(&self) -> String {
        self.inner.peer()
    }
}

/// Runs one round of `params` in which [`VICTIM`]'s channel does
/// `tamper`. Returns how many `answer` frames the victim sent and how
/// its run ended, after checking that the round completed, with the
/// survivors' exact sum, and that every other client finished it.
fn replayed_round(
    params: RoundParams,
    tamper: Tamper,
    answer: StageTag,
) -> (usize, Result<SessionClientReport, NetError>) {
    let malicious = params.threat_model == ThreatModel::Malicious;
    let registry = Arc::new(
        params
            .clients
            .iter()
            .map(|&id| (id, signing_key_for(SEED, id).verifying_key()))
            .collect::<BTreeMap<_, _>>(),
    );
    let (mut acceptor, addr) = local::listen();
    let cfg = SessionConfig {
        join_timeout: Duration::from_secs(10),
        stage_timeout: Duration::from_secs(5),
        ..local::one_round(params)
    };
    let (mut reports, mut clients) = local::run_session(&mut acceptor, cfg, 0..N, move |id| {
        let victim = (id == VICTIM).then_some(tamper);
        let mut chan = Replay {
            inner: local::dial(&addr),
            replay: match victim {
                Some(Tamper::Replay(stage, forge)) => Some((stage, forge)),
                _ => None,
            },
            queued: match victim {
                Some(Tamper::First(frame)) => Some(frame().encode()),
                _ => None,
            },
            sent: Vec::new(),
        };
        let identity = malicious.then(|| Identity {
            signing: signing_key_for(SEED, id),
            registry: Arc::clone(&registry),
        });
        let run = local::roster_client(&mut chan, id, SEED, |_| None, |_| input_for(id), identity);
        (chan.sent, run)
    });
    let report = reports.pop().expect("the round completed");
    let mut expected = vec![0u64; DIM];
    for &id in &report.outcome.survivors {
        for (e, v) in expected.iter_mut().zip(input_for(id).vector) {
            *e = (*e + v) & ((1 << BITS) - 1);
        }
    }
    assert_eq!(report.outcome.sum, expected, "survivors' sum");
    let (sent, run) = clients.remove(&VICTIM).expect("victim");
    for (id, (_, run)) in clients {
        let run = run.unwrap_or_else(|e| panic!("client {id}: {e}"));
        assert_eq!(run.rounds.len(), 1, "client {id}: {:?}", run.end);
    }
    (sent.iter().filter(|&&tag| tag == answer).count(), run)
}

/// The run ended in a protocol error naming the replayed tag.
fn assert_protocol_error(run: Result<SessionClientReport, NetError>, replayed: &str) {
    match run {
        Err(NetError::Protocol(msg)) => assert!(msg.contains(replayed), "{msg}"),
        other => panic!("expected NetError::Protocol, got {other:?}"),
    }
}

#[test]
fn replayed_survivor_set_is_signed_once() {
    // The copy names U3 minus another client: a second signature would
    // sign a different survivor set.
    fn forge(mut env: Envelope) -> Envelope {
        let IdList(mut u3) = decode_id_list(&env.body).expect("U3");
        let other = u3
            .iter()
            .position(|&id| id != VICTIM)
            .expect("another client");
        u3.remove(other);
        env.body = IdList(u3).encoded();
        env
    }
    let (sigs, run) = replayed_round(
        params(ThreatModel::Malicious),
        Tamper::Replay(StageTag::SurvivorSet, forge),
        StageTag::ConsistencySig,
    );
    assert_eq!(sigs, 1, "consistency signatures sent");
    assert_protocol_error(run, "SurvivorSet");
}

#[test]
fn replayed_roster_shares_keys_once() {
    let (batches, run) = replayed_round(
        params(ThreatModel::SemiHonest),
        Tamper::Replay(StageTag::Roster, |env| env),
        StageTag::ShareKeys,
    );
    assert_eq!(batches, 1, "ShareKeys batches sent");
    assert_protocol_error(run, "Roster");
}

#[test]
fn an_announce_or_setup_stamped_round_zero_is_answered_with_nothing() {
    fn announce() -> Envelope {
        Envelope::new(StageTag::RoundAnnounce, 0, encode_announce(false))
    }
    fn setup() -> Envelope {
        let zero = RoundParams {
            round: 0,
            ..params(ThreatModel::SemiHonest)
        };
        Envelope::new(StageTag::Setup, 0, encode_setup(&zero, 1, N as u16, &[]))
    }
    // The one Join is the eager join sent at connect.
    for (first, answer, sent) in [
        (announce as fn() -> Envelope, StageTag::Join, 1),
        (setup, StageTag::AdvertiseKeys, 0),
    ] {
        let (answers, run) = replayed_round(
            params(ThreatModel::SemiHonest),
            Tamper::First(first),
            answer,
        );
        assert_eq!(answers, sent, "{answer:?} frames sent");
        assert_protocol_error(run, "round 0");
    }
}
