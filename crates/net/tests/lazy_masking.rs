//! The client runtime masks one chunk, sends it, and only then masks
//! the next: seen from the wire, a client that fails after `k` chunk
//! frames has put exactly `k` of them out — the rest were never sent
//! because they were never computed — and a healthy client's frames
//! leave in schedule order.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use dordis_net::codec::{EnvelopeView, StageTag};
use dordis_net::coordinator::DropKind;
use dordis_net::local;
use dordis_net::runtime::{round_rng_seed, FailAction, FailPoint, FailStage};
use dordis_net::session::SessionConfig;
use dordis_net::transport::Channel;
use dordis_net::NetError;
use dordis_secagg::client::ClientInput;
use dordis_secagg::driver::{run_round, DropStage, DropoutSchedule, RoundSpec};
use dordis_secagg::graph::MaskingGraph;
use dordis_secagg::{ClientId, RoundParams, ThreatModel};

const SEED: u64 = 0x1a2_7e57;
const DROPPER: ClientId = 3;

/// The chunk index of every MaskedInput frame a client sent, in order.
type Sent = Arc<Mutex<Vec<u16>>>;

struct FrameLog<C> {
    inner: C,
    sent: Sent,
}

impl<C: Channel> Channel for FrameLog<C> {
    fn send(&mut self, frame: &[u8]) -> Result<(), NetError> {
        let env = EnvelopeView::decode(frame).expect("own frame parses");
        if env.stage == StageTag::MaskedInput {
            self.sent.lock().expect("log").push(env.chunk);
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
fn a_dropper_after_one_of_four_chunks_sends_exactly_one_chunk_frame() {
    let params = RoundParams {
        round: 4,
        clients: (0..6).collect(),
        threshold: 4,
        bit_width: 16,
        vector_len: 48,
        noise_components: 0,
        threat_model: ThreatModel::SemiHonest,
        graph: MaskingGraph::Complete,
    };
    let inputs: BTreeMap<ClientId, ClientInput> = (0..6u32)
        .map(|id| {
            let vector = (0..48u64)
                .map(|i| (u64::from(id) * 211 + i * 13) & 0xffff)
                .collect();
            (
                id,
                ClientInput {
                    vector,
                    noise_seeds: vec![],
                },
            )
        })
        .collect();
    let logs: BTreeMap<ClientId, Sent> = (0..6).map(|id| (id, Sent::default())).collect();

    let (mut acceptor, addr) = local::listen();
    let cfg = SessionConfig {
        stage_timeout: Duration::from_secs(5),
        chunks: 4,
        ..local::one_round(params.clone())
    };
    let (client_inputs, client_logs) = (inputs.clone(), logs.clone());
    let (mut reports, clients) = local::run_session(&mut acceptor, cfg, 0..6, move |id| {
        let mut chan = FrameLog {
            inner: local::dial(&addr),
            sent: Arc::clone(&client_logs[&id]),
        };
        let fail = (id == DROPPER).then_some(FailPoint {
            stage: FailStage::MaskedInputAfterChunks(1),
            action: FailAction::Disconnect,
        });
        local::roster_client(
            &mut chan,
            id,
            SEED,
            |_| fail,
            |_| client_inputs[&id].clone(),
            None,
        )
    });
    for (id, run) in clients {
        run.unwrap_or_else(|e| panic!("client {id}: {e}"));
    }
    let report = reports.pop().expect("one round");
    assert_eq!(report.chunks, 4, "the plan realizes all four chunks");

    for (id, sent) in &logs {
        let sent = sent.lock().expect("log");
        if *id == DROPPER {
            assert_eq!(*sent, [0], "k = 1: one frame out, three never built");
        } else {
            assert_eq!(*sent, [0, 1, 2, 3], "client {id}: schedule order");
        }
    }
    let det = report
        .dropouts
        .iter()
        .find(|d| d.client == DROPPER)
        .expect("dropper detected");
    assert_eq!(det.kind, DropKind::Disconnected);
    assert_eq!(det.chunk, Some(1));

    let mut dropout = DropoutSchedule::none();
    dropout.drop_at(DROPPER, DropStage::BeforeMaskedInput);
    let (driver, _) = run_round(RoundSpec {
        rng_seed: round_rng_seed(SEED, params.round),
        params,
        inputs,
        dropout,
    })
    .expect("driver round");
    assert_eq!(report.outcome.sum, driver.sum);
    assert_eq!(report.outcome.survivors, driver.survivors);
}
