//! A complete SecAgg+ round over real TCP sockets on localhost, with one
//! client disconnecting mid-round (the "killed client" scenario), and
//! the outcome checked against the expected survivor aggregate — and
//! the secagg server's custody on the scrape checked against what the
//! two-chunk round must have held.

use std::collections::BTreeMap;
use std::time::Duration;

use dordis_net::coordinator::DropKind;
use dordis_net::local;
use dordis_net::runtime::{FailAction, FailPoint, FailStage};
use dordis_net::session::SessionConfig;
use dordis_secagg::client::ClientInput;
use dordis_secagg::graph::MaskingGraph;
use dordis_secagg::{pack, ChunkPlan, ClientId, RoundParams, ThreatModel};
use dordis_telemetry::Telemetry;

const BITS: u32 = 18;
const DIM: usize = 32;
const N: u32 = 7;
const CHUNKS: usize = 2;

fn input_for(id: ClientId) -> ClientInput {
    ClientInput {
        vector: (0..DIM)
            .map(|i| (u64::from(id) * 1009 + i as u64 * 31) & ((1 << BITS) - 1))
            .collect(),
        noise_seeds: vec![[id as u8 + 1; 32]; 3],
    }
}

#[test]
fn tcp_secagg_plus_round_with_mid_round_kill() {
    let params = RoundParams {
        round: 3,
        clients: (0..N).collect(),
        threshold: 4,
        bit_width: BITS,
        vector_len: DIM,
        noise_components: 2,
        threat_model: ThreatModel::SemiHonest,
        graph: MaskingGraph::harary_for(N as usize),
    };

    let (mut acceptor, addr) = local::listen();

    let telemetry = Telemetry::enabled();
    let cfg = SessionConfig {
        join_timeout: Duration::from_secs(15),
        stage_timeout: Duration::from_secs(8),
        chunks: CHUNKS,
        telemetry: telemetry.clone(),
        ..local::one_round(params)
    };
    let (mut reports, clients) = local::run_session(&mut acceptor, cfg, 0..N, move |id| {
        let mut chan = local::dial(&addr);
        // Client 2 "dies" just before sending its masked input.
        let fail = (id == 2).then_some(FailPoint {
            stage: FailStage::MaskedInput,
            action: FailAction::Disconnect,
        });
        local::roster_client(&mut chan, id, 9, |_| fail, |_| input_for(id), None)
    });
    for (id, run) in clients {
        run.unwrap_or_else(|e| panic!("client {id}: {e}"));
    }
    let report = reports.pop().expect("one round");

    // Client 2 was detected (as a disconnect) and excluded.
    assert_eq!(report.outcome.dropped, vec![2]);
    assert!(report
        .dropouts
        .iter()
        .any(|d| d.client == 2 && d.kind == DropKind::Disconnected));

    // The aggregate is exactly the survivors' modular sum.
    let mut expected = vec![0u64; DIM];
    for &id in &report.outcome.survivors {
        for (e, v) in expected.iter_mut().zip(input_for(id).vector.iter()) {
            *e = (*e + *v) & ((1 << BITS) - 1);
        }
    }
    assert_eq!(report.outcome.sum, expected);

    // Traffic was actually measured on the wire.
    let adv = report.stats.stage("AdvertiseKeys").expect("stage stats");
    assert!(adv.uplink_total > 0 && adv.downlink_total > 0);

    // Noise seeds of every survivor were recovered for removal.
    let survivors: BTreeMap<ClientId, ()> = report
        .outcome
        .survivors
        .iter()
        .map(|&id| (id, ()))
        .collect();
    for (owner, k, _) in &report.outcome.removal_seeds {
        assert!(survivors.contains_key(owner));
        assert!(*k >= 1 && *k <= 2);
    }

    // The server's custody peaked at its sum — one `u32` an element at
    // 18 bits — plus whole chunk-0 payloads: every stream's first
    // chunk waits parked, at least one of them before its stream
    // completes, and a stream's last chunk is never parked. The live
    // gauge falls to zero with the round's server.
    let plan = ChunkPlan::aligned(DIM, CHUNKS, BITS).unwrap();
    assert_eq!(plan.chunks(), CHUNKS);
    let metrics = telemetry.snapshot().expect("telemetry enabled");
    let sum_bytes = (DIM * 4) as u64;
    let chunk0 = pack::packed_len(plan.chunk_len(0), BITS) as u64;
    let parked = metrics.get("dordis_server_custody_bytes_high_water") - sum_bytes;
    let streams = report.outcome.survivors.len() as u64;
    assert_eq!(
        parked % chunk0,
        0,
        "parked {parked} B, chunk 0 is {chunk0} B"
    );
    assert!(
        (1..=streams).contains(&(parked / chunk0)),
        "{parked} B parked, {streams} streams"
    );
    assert_eq!(metrics.get("dordis_server_custody_bytes"), 0);
}
