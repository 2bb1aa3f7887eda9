//! Scale: one coordinator thread serves hundreds of chunk-streaming
//! clients over 127.0.0.1 TCP, with wake-ups that stay `O(events)` — not the
//! `O(clients × ticks)` receive attempts of a per-client poll sweep.
//!
//! The round runs a 255-client cohort (the old GF(256) cap — still the
//! ceiling for *complete-graph* rounds, though neighborhood-scoped
//! Shamir indexing lets sparse graphs seat thousands; see
//! `bench/cohort_scale`) plus
//! a 256th connection from an *unsampled* client, which the join loop
//! must reject mid-accept without disturbing anyone — 256 concurrent
//! connections into a single thread. The data plane is chunked and
//! several clients disconnect mid-stream, so the per-(stage, chunk)
//! dropout machinery runs at scale too.

use std::time::{Duration, Instant};

use dordis_net::coordinator::DropKind;
use dordis_net::local;
use dordis_net::reactor::TICK;
use dordis_net::runtime::{FailAction, FailPoint, FailStage, SessionEndKind};
use dordis_net::session::SessionConfig;
use dordis_secagg::client::ClientInput;
use dordis_secagg::graph::MaskingGraph;
use dordis_secagg::{ClientId, RoundParams, ThreatModel};
use dordis_telemetry::Telemetry;

const N: u32 = 255; // The complete-graph (GF(256)) ceiling; sparse rounds go higher.
const DIM: usize = 64;
const BITS: u32 = 16;
const CHUNKS: usize = 4;
const SEED: u64 = 77_777;

/// Clients that disconnect after streaming only part of their chunks.
const MIDSTREAM_DROPS: [u32; 6] = [10, 55, 101, 147, 198, 240];

fn input_for(id: ClientId) -> ClientInput {
    let mask = (1u64 << BITS) - 1;
    ClientInput {
        vector: (0..DIM)
            .map(|i| (u64::from(id) * 977 + i as u64 * 13) & mask)
            .collect(),
        noise_seeds: Vec::new(),
    }
}

/// `dordis_broadcast_encodes_total` of the same one-round session at a
/// 3-client cohort: the reference the 256-connection run must equal.
fn broadcast_encodes_at_three_clients(shape: &RoundParams) -> u64 {
    let params = RoundParams {
        clients: (0..3).collect(),
        threshold: 2,
        graph: MaskingGraph::harary_for(3),
        ..shape.clone()
    };
    let (mut acceptor, addr) = local::listen();
    let telemetry = Telemetry::enabled();
    let cfg = SessionConfig {
        chunks: CHUNKS,
        telemetry: telemetry.clone(),
        ..local::one_round(params)
    };
    local::run_session(&mut acceptor, cfg, 0..3, move |id| {
        let mut chan = local::dial(&addr);
        local::roster_client(&mut chan, id, SEED, |_| None, |_| input_for(id), None).expect("run")
    });
    let snap = telemetry.snapshot().expect("enabled telemetry");
    snap.get("dordis_broadcast_encodes_total")
}

#[test]
fn single_thread_serves_256_connections_with_o_events_wakeups() {
    let params = RoundParams {
        round: 3,
        clients: (0..N).collect(),
        threshold: 10,
        bit_width: BITS,
        vector_len: DIM,
        noise_components: 0,
        threat_model: ThreatModel::SemiHonest,
        graph: MaskingGraph::harary_for(N as usize),
    };
    params.validate().expect("valid scale params");

    let (mut acceptor, addr) = local::listen();

    // The 256th connection: not in the sampled set, must be turned away
    // at join while everyone else proceeds. Connected *first* (the
    // listen queue hands connections out FIFO) so its rejection is
    // deterministically processed while the join loop is still running.
    const EXTRA: ClientId = 999;
    let extra_chan = std::sync::Mutex::new(Some(local::dial(&addr)));

    // Generous deadlines: 255 debug-build clients share this machine's
    // cores, and the assertion below is about wake-ups, not wall-clock.
    let telemetry = Telemetry::enabled();
    let cfg = SessionConfig {
        join_timeout: Duration::from_secs(240),
        stage_timeout: Duration::from_secs(240),
        chunks: CHUNKS,
        telemetry: telemetry.clone(),
        ..local::one_round(params.clone())
    };
    let start = Instant::now();
    let ids = std::iter::once(EXTRA).chain(0..N);
    let (mut reports, mut clients) = local::run_session(&mut acceptor, cfg, ids, move |id| {
        let mut chan = match id {
            EXTRA => extra_chan.lock().expect("extra").take().expect("once"),
            _ => local::dial(&addr),
        };
        let fail = MIDSTREAM_DROPS.contains(&id).then_some(FailPoint {
            stage: FailStage::MaskedInputAfterChunks((id % CHUNKS as u32) as u16),
            action: FailAction::Disconnect,
        });
        local::roster_client(&mut chan, id, SEED, |_| fail, |_| input_for(id), None).expect("run")
    });
    let elapsed = start.elapsed();
    let report = reports.pop().expect("one round");

    // --- Protocol outcome at scale. ---
    let expected_dropped: Vec<ClientId> = MIDSTREAM_DROPS.to_vec();
    assert_eq!(report.outcome.dropped, expected_dropped);
    assert_eq!(
        report.outcome.survivors.len(),
        (N as usize) - MIDSTREAM_DROPS.len()
    );
    assert!(report.chunks > 1, "data plane actually chunked");
    for id in MIDSTREAM_DROPS {
        let det = report
            .dropouts
            .iter()
            .find(|d| d.client == id)
            .expect("midstream drop detected");
        assert_eq!(det.kind, DropKind::Disconnected);
        assert_eq!(det.stage, "MaskedInputCollection");
        assert_eq!(
            det.chunk,
            Some((id % CHUNKS as u32) as u16),
            "stream died at the first undelivered chunk"
        );
    }
    // The aggregate is exactly the survivors' sum.
    let mask = (1u64 << BITS) - 1;
    let mut expected = vec![0u64; DIM];
    for &id in &report.outcome.survivors {
        for (e, v) in expected.iter_mut().zip(input_for(id).vector) {
            *e = (*e + v) & mask;
        }
    }
    assert_eq!(report.outcome.sum, expected);

    // The unsampled 256th connection was told why it can't play.
    match clients.remove(&EXTRA).expect("extra client").end {
        SessionEndKind::ServerAborted { reason } => {
            assert!(reason.contains("not in the sampled set"), "{reason}");
        }
        other => panic!("extra client should be rejected, got {other:?}"),
    }
    // A scripted failure is the run's `end`; a finished round is an
    // entry in `rounds`.
    for (id, run) in clients {
        if MIDSTREAM_DROPS.contains(&id) {
            assert!(matches!(run.end, SessionEndKind::Failed { .. }), "{id}");
        } else {
            assert_eq!(run.rounds.len(), 1, "client {id}: {:?}", run.end);
        }
    }

    // --- Encode-once broadcast: O(1) encodes in the cohort size. ---
    let snap = telemetry.snapshot().expect("enabled telemetry");
    let encodes = snap.get("dordis_broadcast_encodes_total");
    assert!(encodes > 0, "no broadcast was counted");
    assert_eq!(
        encodes,
        broadcast_encodes_at_three_clients(&params),
        "broadcast encodes grew with the cohort"
    );

    // --- The reactor claim: wake-ups are O(events), not O(clients × ticks). ---
    let stats = report.reactor;
    let ticks = (elapsed.as_millis() / TICK.as_millis()).max(1) as u64;
    // Every poll is caused by an event batch, a timer tick during the
    // accept window, or one accept turn — never by per-client sweeping.
    let o_events_bound = stats.events + ticks + u64::from(N) + 64;
    assert!(
        stats.polls <= o_events_bound,
        "polls {} exceed O(events) bound {} (events {}, ticks {})",
        stats.polls,
        o_events_bound,
        stats.events,
        ticks
    );
    // The sweep's cost floor for the same round: every tick of the
    // masked-input collection alone re-polls every pending channel.
    let sweep_floor = u64::from(N) * ticks;
    assert!(
        stats.polls * 8 < sweep_floor,
        "polls {} not meaningfully below the sweep floor {}",
        stats.polls,
        sweep_floor
    );
    println!(
        "255+1 clients, {} chunks: {:?} wall, {} polls, {} events, {} timer fires",
        report.chunks, elapsed, stats.polls, stats.events, stats.timer_fires
    );
}
