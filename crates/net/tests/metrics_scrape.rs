//! Live observability: a session serving its Prometheus endpoint off
//! the reactor's own epoll loop is scraped *while rounds run*, the
//! reactor's O(events) discipline must survive the scrape traffic, and
//! the exported span timeline must cover every round, stage, and chunk
//! the session executed.

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use dordis_net::runtime::{run_session_client, SessionClientOptions, SessionEndKind};
use dordis_net::session::{Seating, Session, SessionConfig};
use dordis_net::transport::LoopbackHub;
use dordis_secagg::client::ClientInput;
use dordis_secagg::graph::MaskingGraph;
use dordis_secagg::{ClientId, RoundParams, ThreatModel};
use dordis_telemetry::Telemetry;

const BITS: u32 = 16;
const DIM: usize = 16;
const SEED: u64 = 424_242;
const N: u32 = 4;
const CHUNKS: usize = 3;
const ROUNDS: u64 = 2;

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

fn input_for(id: ClientId, round: u64) -> ClientInput {
    let mask = (1u64 << BITS) - 1;
    ClientInput {
        vector: (0..DIM)
            .map(|i| (u64::from(id) * 131 + round * 977 + i as u64 * 17) & mask)
            .collect(),
        noise_seeds: Vec::new(),
    }
}

/// One blocking HTTP GET against the scrape endpoint.
fn scrape(addr: SocketAddr) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect scrape endpoint");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    stream
        .write_all(b"GET /metrics HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n")
        .expect("send request");
    let mut page = String::new();
    stream.read_to_string(&mut page).expect("read response");
    page
}

#[test]
fn live_scrape_mid_round_with_full_trace_coverage() {
    let telemetry = Telemetry::enabled();
    let (hub, mut acceptor) = LoopbackHub::new();
    let mut client_handles = Vec::new();
    for id in 0..N {
        let hub = hub.clone();
        client_handles.push(std::thread::spawn(move || {
            let mut chan = hub.connect(&format!("c{id}")).expect("connect");
            let opts = SessionClientOptions {
                id,
                rng_seed: SEED,
                recv_timeout: Duration::from_secs(30),
                silent_linger: Duration::from_secs(1),
            };
            let report = run_session_client(
                &mut chan,
                &opts,
                |_| None,
                |_| None,
                |r, _params, _cohort, _payload| Ok(input_for(id, r)),
                |_| None,
            )
            .expect("session client");
            assert!(matches!(report.end, SessionEndKind::Ended));
        }));
    }

    let cfg = SessionConfig {
        chunks: CHUNKS,
        // Slow the rounds down so the scraper provably lands mid-round.
        chunk_compute: Some(Duration::from_millis(25)),
        population: (0..N).collect(),
        telemetry: telemetry.clone(),
        metrics_addr: Some("127.0.0.1:0".to_string()),
        ..SessionConfig::new(
            ROUNDS,
            Seating::Roster,
            Box::new(|round, _| params_for_round(round)),
        )
    };
    let mut session = Session::new(&mut acceptor, cfg).expect("session");
    let addr = session.metrics_addr().expect("scrape endpoint bound");

    // The scraper hammers the endpoint concurrently with the rounds:
    // every page it gets back must be a complete 200 with the reactor
    // counters on it.
    let stop = Arc::new(AtomicBool::new(false));
    let scraper = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut pages = 0u64;
            while !stop.load(Ordering::SeqCst) {
                let page = scrape(addr);
                assert!(
                    page.starts_with("HTTP/1.1 200 OK"),
                    "bad response: {page:?}"
                );
                assert!(page.contains("text/plain"), "missing content type");
                assert!(
                    page.contains("# TYPE dordis_reactor_polls_total counter"),
                    "reactor counters missing from the page"
                );
                pages += 1;
                std::thread::sleep(Duration::from_millis(10));
            }
            pages
        })
    };

    let mut reports = Vec::new();
    reports.push(session.run_round(&[]).expect("round 1"));
    // Stop the scraper *between* the rounds: round 2's polling services
    // any GET still in flight, and nothing scrapes after the session
    // goes quiet (the reactor only polls while a round runs).
    stop.store(true, Ordering::SeqCst);
    reports.push(session.run_round(&[]).expect("round 2"));
    let pages = scraper.join().expect("scraper thread");
    session.finish();
    for h in client_handles {
        h.join().expect("client thread");
    }
    assert!(pages > 0, "the scraper never completed a GET");

    // O(events) must survive the scrape listener riding on the same
    // epoll loop: every scrape connection's readiness is itself an
    // event, so polls stay bounded by events + timer fires (plus the
    // join phases' idle ticks).
    let stats = reports.last().expect("reports").reactor_session;
    assert!(
        stats.polls <= stats.events + stats.timer_fires + 64,
        "polls {} outgrew events {} + timer fires {}",
        stats.polls,
        stats.events,
        stats.timer_fires
    );
    let final_page = telemetry.render_prometheus();
    let scrapes: u64 = final_page
        .lines()
        .find_map(|l| l.strip_prefix("dordis_metrics_scrapes_total "))
        .expect("scrape counter on the page")
        .parse()
        .expect("numeric scrape count");
    assert_eq!(scrapes, pages, "every GET is counted exactly once");

    // ---- Trace coverage: every (round, stage, chunk) plus the
    // per-chunk unmask steps and the session phases. ----
    let spans = telemetry.spans();
    let has = |cat: &str, name: &str, round: u64, chunk: Option<u16>| {
        spans
            .iter()
            .any(|s| s.cat == cat && s.name == name && s.round == round && s.chunk == chunk)
    };
    for (i, report) in reports.iter().enumerate() {
        let round = i as u64 + 1;
        assert!(has("round", "round", round, None), "round {round} span");
        assert!(has("session", "join", round, None), "join span {round}");
        assert!(
            has("session", "seating", round, None),
            "seating span {round}"
        );
        for stage in [
            "Setup",
            "AdvertiseKeys",
            "ShareKeys",
            "MaskedInputCollection",
            "Unmasking",
        ] {
            assert!(
                has("stage", stage, round, None),
                "stage span {stage} missing in round {round}"
            );
        }
        for chunk in 0..report.chunks {
            assert!(
                has("chunk", "chunk", round, Some(chunk as u16)),
                "chunk {chunk} span missing in round {round}"
            );
            assert!(
                has("compute", "unmask_chunk", round, Some(chunk as u16)),
                "unmask span missing for chunk {chunk} in round {round}"
            );
        }
    }
    // The second round's start closes the first inter-round park span.
    assert!(has("session", "park", 2, None), "park span");

    // The exported timeline is valid Chrome-tracing JSON covering the
    // same spans (coarse shape check; CI validates with a real parser).
    let trace = telemetry.export_chrome_trace();
    assert!(trace.starts_with("{\"traceEvents\":["));
    assert!(trace.contains("\"ph\":\"X\""));
    assert!(trace.contains("\"name\":\"MaskedInputCollection\""));
}
