//! Each round shape's broadcasts, pinned: the exact per-round count of
//! `dordis_broadcast_encodes_total` (one encode per broadcast frame:
//! round announce, Setup, the stage replies, Finished or Abort) for a
//! clean semi-honest round, one whose U3∖U5 dropper forces the ReadySet
//! stage, a malicious round (SignatureList) and a round that aborts
//! below threshold. Per-client inboxes are unicasts and never count.
//! `reactor_scale.rs` checks only that the count does not depend on the
//! cohort size.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use dordis_net::local;
use dordis_net::runtime::{FailAction, FailPoint, FailStage};
use dordis_net::session::{Session, SessionConfig};
use dordis_secagg::client::{ClientInput, Identity};
use dordis_secagg::driver::signing_key_for;
use dordis_secagg::graph::MaskingGraph;
use dordis_secagg::{ClientId, RoundParams, ThreatModel};
use dordis_telemetry::Telemetry;

const N: u32 = 6;
const BITS: u32 = 16;
const DIM: usize = 12;
const SEED: u64 = 31_337;

fn params(threshold: usize, threat_model: ThreatModel) -> RoundParams {
    RoundParams {
        round: 5,
        clients: (0..N).collect(),
        threshold,
        bit_width: BITS,
        vector_len: DIM,
        noise_components: 2,
        threat_model,
        graph: MaskingGraph::Complete,
    }
}

fn input_for(id: ClientId) -> ClientInput {
    ClientInput {
        vector: (0..DIM)
            .map(|i| (u64::from(id) * 131 + i as u64 * 17) & ((1 << BITS) - 1))
            .collect(),
        noise_seeds: vec![[id as u8 + 1; 32]; 3],
    }
}

/// Runs one round of `params` with every client failing as `fails`
/// scripts, and returns the round's broadcast encodes (join window
/// included, the session's closing `SessionEnd` not) and whether the
/// round completed.
fn broadcasts(params: RoundParams, fails: &[(ClientId, FailStage)]) -> (u64, bool) {
    let malicious = params.threat_model == ThreatModel::Malicious;
    let registry = Arc::new(
        params
            .clients
            .iter()
            .map(|&id| (id, signing_key_for(SEED, id).verifying_key()))
            .collect::<BTreeMap<_, _>>(),
    );
    let fails: BTreeMap<ClientId, FailPoint> = fails
        .iter()
        .map(|&(id, stage)| {
            let action = FailAction::Disconnect;
            (id, FailPoint { stage, action })
        })
        .collect();
    let (mut acceptor, addr) = local::listen();
    let telemetry = Telemetry::enabled();
    let cfg = SessionConfig {
        join_timeout: Duration::from_secs(10),
        stage_timeout: Duration::from_secs(5),
        telemetry: telemetry.clone(),
        ..local::one_round(params)
    };
    let cohort = local::spawn(0..N, move |id| {
        let mut chan = local::dial(&addr);
        let identity = malicious.then(|| Identity {
            signing: signing_key_for(SEED, id),
            registry: Arc::clone(&registry),
        });
        let fail = fails.get(&id).copied();
        // An aborted round ends the client with an error; only the
        // coordinator's count is under test.
        let _ = local::roster_client(&mut chan, id, SEED, |_| fail, |_| input_for(id), identity);
    });
    let mut session = Session::new(&mut acceptor, cfg).expect("session");
    let before = telemetry.snapshot().expect("enabled telemetry");
    let completed = session.run_round(&[]).is_ok();
    let after = telemetry.snapshot().expect("enabled telemetry");
    session.finish();
    cohort.reap().expect("client thread");
    let encodes = after.delta(&before).get("dordis_broadcast_encodes_total");
    (encodes, completed)
}

#[test]
fn semi_honest_clean_round() {
    // Announce, Setup, Roster, SurvivorSet, Finished.
    assert_eq!(
        broadcasts(params(4, ThreatModel::SemiHonest), &[]),
        (5, true)
    );
}

#[test]
fn semi_honest_round_with_a_u3_minus_u5_dropper() {
    // Client 2 delivers its masked input, then dies before unmasking: its
    // noise seeds must come back through ExcessiveNoiseRemoval, which
    // the ReadySet broadcast opens.
    let fails = [(2, FailStage::Unmasking)];
    assert_eq!(
        broadcasts(params(4, ThreatModel::SemiHonest), &fails),
        (6, true)
    );
}

#[test]
fn malicious_round() {
    // The clean shape plus the SignatureList broadcast.
    assert_eq!(
        broadcasts(params(4, ThreatModel::Malicious), &[]),
        (6, true)
    );
}

#[test]
fn round_aborted_below_threshold() {
    // Three of six die before their masked input, leaving U3 below t = 4:
    // announce, Setup, Roster, then the Abort.
    let fails = [
        (0, FailStage::MaskedInput),
        (3, FailStage::MaskedInput),
        (5, FailStage::MaskedInput),
    ];
    assert_eq!(
        broadcasts(params(4, ThreatModel::SemiHonest), &fails),
        (4, false)
    );
}
