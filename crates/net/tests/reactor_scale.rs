//! Scale: one coordinator thread serves hundreds of chunk-streaming
//! loopback clients, with wake-ups that stay `O(events)` — not the
//! `O(clients × ticks)` receive attempts of the legacy poll sweep.
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

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use dordis_net::coordinator::{run_coordinator, CoordinatorConfig, DropKind};
use dordis_net::runtime::{
    run_client, ClientOptions, ClientRunOutcome, FailAction, FailPoint, FailStage,
};
use dordis_net::transport::LoopbackHub;
use dordis_secagg::client::ClientInput;
use dordis_secagg::graph::MaskingGraph;
use dordis_secagg::{ClientId, RoundParams, ThreatModel};

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

    let (hub, mut acceptor) = LoopbackHub::new();

    // The 256th connection: not in the sampled set, must be turned away
    // at join while everyone else proceeds. Connected *first* (the
    // acceptor hands connections out FIFO) so its rejection is
    // deterministically processed while the join loop is still running.
    let mut crasher_chan = hub.connect("extra").expect("connect");
    let crasher = std::thread::spawn(move || {
        let opts = ClientOptions {
            id: 999,
            rng_seed: SEED,
            fail: None,
            recv_timeout: Duration::from_secs(300),
            silent_linger: Duration::from_secs(1),
        };
        run_client(
            &mut crasher_chan,
            &opts,
            move |_| Ok(input_for(999)),
            |_| None,
        )
    });

    let mut handles = Vec::new();
    for id in 0..N {
        let hub = hub.clone();
        let fail = MIDSTREAM_DROPS.contains(&id).then_some(FailPoint {
            stage: FailStage::MaskedInputAfterChunks((id % CHUNKS as u32) as u16),
            action: FailAction::Disconnect,
        });
        handles.push(std::thread::spawn(move || {
            let mut chan = hub.connect(&format!("c{id}")).expect("connect");
            let opts = ClientOptions {
                id,
                rng_seed: SEED,
                fail,
                recv_timeout: Duration::from_secs(300),
                silent_linger: Duration::from_secs(1),
            };
            run_client(&mut chan, &opts, move |_| Ok(input_for(id)), |_| None)
        }));
    }
    // Generous deadlines: 255 debug-build clients share this machine's
    // cores, and the assertion below is about wake-ups, not wall-clock.
    let cfg = CoordinatorConfig::new(
        params,
        Duration::from_secs(240),
        Duration::from_secs(240),
        CHUNKS,
        None,
    );
    let start = Instant::now();
    let report = run_coordinator(&mut acceptor, &cfg).expect("coordinator");
    let elapsed = start.elapsed();

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
    match crasher
        .join()
        .expect("crasher thread")
        .expect("crasher run")
    {
        ClientRunOutcome::ServerAborted { reason } => {
            assert!(reason.contains("not in the sampled set"), "{reason}");
        }
        other => panic!("extra client should be rejected, got {other:?}"),
    }
    let mut outcomes = BTreeMap::new();
    for (id, h) in handles.into_iter().enumerate() {
        outcomes.insert(id as u32, h.join().expect("client thread").expect("run"));
    }
    for (id, outcome) in outcomes {
        if MIDSTREAM_DROPS.contains(&id) {
            assert!(matches!(outcome, ClientRunOutcome::Failed { .. }), "{id}");
        } else {
            assert!(
                matches!(outcome, ClientRunOutcome::Finished { .. }),
                "client {id}: {outcome:?}"
            );
        }
    }

    // --- The reactor claim: wake-ups are O(events), not O(clients × ticks). ---
    let stats = report.reactor;
    let ticks = (elapsed.as_millis() / cfg.tick.as_millis()).max(1) as u64;
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
