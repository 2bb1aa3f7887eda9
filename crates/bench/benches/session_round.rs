//! Persistent-connection sessions versus reconnect-per-round, on real
//! TCP sockets.
//!
//! The Dordis pipeline amortization only pays off when rounds run back
//! to back; this bench measures the session layer's contribution: R
//! rounds over one warm connection per client (one `Session`, round
//! announces, per-round `RoundMachine`s) against the same R rounds
//! executed the pre-session way — a fresh TCP connection, client
//! thread, and join handshake for every client in every round. Both
//! variants run the identical per-round protocol with identical
//! per-round seeds ([`round_rng_seed`]), so the delta is pure
//! connection/session overhead.
//!
//! Results land in `BENCH_session_round.json` at the workspace root;
//! `SESSION_ROUND_SMOKE=1` shrinks the schedule for CI and skips the
//! JSON write.
//!
//! ```sh
//! cargo bench -p dordis-bench --bench session_round
//! SESSION_ROUND_SMOKE=1 cargo bench -p dordis-bench --bench session_round
//! ```

use std::time::{Duration, Instant};

use dordis_net::coordinator::{run_coordinator, CoordinatorConfig};
use dordis_net::faults::FaultPlan;
use dordis_net::runtime::{
    round_rng_seed, run_client, run_session_client, ClientOptions, SessionClientOptions,
    SessionEndKind,
};
use dordis_net::session::{Seating, Session, SessionConfig};
use dordis_net::tcp::{TcpAcceptor, TcpChannel};
use dordis_net::transport::Acceptor as _;
use dordis_secagg::client::ClientInput;
use dordis_secagg::graph::MaskingGraph;
use dordis_secagg::{ClientId, RoundParams, ThreatModel};
use dordis_telemetry::Telemetry;

const N: u32 = 8;
const BITS: u32 = 16;
const CHUNKS: usize = 4;
const SEED: u64 = 1_234_987;
const JOIN_TIMEOUT: Duration = Duration::from_secs(30);
const STAGE_TIMEOUT: Duration = Duration::from_secs(30);

fn params_for_round(round: u64, dim: usize) -> RoundParams {
    RoundParams {
        round,
        clients: (0..N).collect(),
        threshold: (N as usize) / 2 + 1,
        bit_width: BITS,
        vector_len: dim,
        noise_components: 0,
        threat_model: ThreatModel::SemiHonest,
        graph: MaskingGraph::harary_for(N as usize),
    }
}

fn input_for(id: ClientId, round: u64, dim: usize) -> ClientInput {
    let mask = (1u64 << BITS) - 1;
    ClientInput {
        vector: (0..dim)
            .map(|i| (u64::from(id) * 131 + round * 977 + i as u64 * 17) & mask)
            .collect(),
        noise_seeds: Vec::new(),
    }
}

/// R rounds over one persistent connection per client.
fn persistent(rounds: u64, dim: usize, telemetry: Telemetry) -> Duration {
    let mut acceptor = TcpAcceptor::bind("127.0.0.1:0").expect("bind");
    let addr = acceptor.local_addr();
    let start = Instant::now();
    let mut handles = Vec::new();
    for id in 0..N {
        let addr = addr.clone();
        handles.push(std::thread::spawn(move || {
            let mut chan = TcpChannel::connect(&addr).expect("connect");
            let opts = SessionClientOptions {
                id,
                rng_seed: SEED,
                recv_timeout: Duration::from_secs(120),
                silent_linger: Duration::from_secs(1),
            };
            let report = run_session_client(
                &mut chan,
                &opts,
                |_| None,
                |_| None,
                |r, _params, _cohort, _payload| Ok(input_for(id, r, dim)),
                |_| None,
            )
            .expect("session client");
            assert!(matches!(report.end, SessionEndKind::Ended));
            assert_eq!(report.rounds.len() as u64, rounds);
        }));
    }
    let cfg = SessionConfig {
        first_round: 1,
        rounds,
        join_timeout: JOIN_TIMEOUT,
        stage_timeout: STAGE_TIMEOUT,
        chunks: CHUNKS,
        chunk_compute: None,
        tick: CoordinatorConfig::DEFAULT_TICK,
        ingress_budget: 0,
        announce: true,
        population: (0..N).collect(),
        seating: Seating::Roster,
        params_for: Box::new(move |round, _| params_for_round(round, dim)),
        telemetry,
        metrics_addr: None,
        replica: None,
        faults: FaultPlan::none(),
    };
    let mut session = Session::new(&mut acceptor, cfg).expect("session");
    for _ in 0..rounds {
        let report = session.run_round(&[]).expect("round");
        assert_eq!(report.outcome.survivors.len(), N as usize);
    }
    session.finish();
    for h in handles {
        h.join().expect("client thread");
    }
    start.elapsed()
}

/// The same R rounds the pre-session way: fresh connections, client
/// threads, and a full join handshake every round.
fn reconnect_per_round(rounds: u64, dim: usize) -> Duration {
    let mut acceptor = TcpAcceptor::bind("127.0.0.1:0").expect("bind");
    let addr = acceptor.local_addr();
    let start = Instant::now();
    for round in 1..=rounds {
        let mut handles = Vec::new();
        for id in 0..N {
            let addr = addr.clone();
            handles.push(std::thread::spawn(move || {
                let mut chan = TcpChannel::connect(&addr).expect("connect");
                let opts = ClientOptions {
                    id,
                    rng_seed: round_rng_seed(SEED, round),
                    fail: None,
                    recv_timeout: Duration::from_secs(120),
                    silent_linger: Duration::from_secs(1),
                };
                run_client(
                    &mut chan,
                    &opts,
                    move |_| Ok(input_for(id, round, dim)),
                    |_| None,
                )
                .expect("client run");
            }));
        }
        let cfg = CoordinatorConfig::new(
            params_for_round(round, dim),
            JOIN_TIMEOUT,
            STAGE_TIMEOUT,
            CHUNKS,
            None,
        );
        let report = run_coordinator(&mut acceptor, &cfg).expect("round");
        assert_eq!(report.outcome.survivors.len(), N as usize);
        for h in handles {
            h.join().expect("client thread");
        }
    }
    start.elapsed()
}

struct Row {
    rounds: u64,
    persistent: Duration,
    reconnect: Duration,
}

fn main() {
    let smoke = std::env::var("SESSION_ROUND_SMOKE").is_ok_and(|v| !v.is_empty() && v != "0");
    let dim = if smoke { 512 } else { 4096 };
    let schedule: &[u64] = if smoke { &[1, 2] } else { &[1, 5, 10] };
    let best_of = if smoke { 1 } else { 3 };

    let mut rows = Vec::new();
    for &rounds in schedule {
        // Per-variant minima over the repetitions: each variant's best
        // run is its least-noisy one, and the two need not come from
        // the same repetition.
        let mut row = Row {
            rounds,
            persistent: Duration::MAX,
            reconnect: Duration::MAX,
        };
        for _ in 0..best_of {
            row.persistent = row
                .persistent
                .min(persistent(rounds, dim, Telemetry::disabled()));
            row.reconnect = row.reconnect.min(reconnect_per_round(rounds, dim));
        }
        println!(
            "R = {:2}: persistent {:8.2} ms | reconnect-per-round {:8.2} ms | speedup {:.2}x \
             ({:.2} ms saved per round)",
            rounds,
            row.persistent.as_secs_f64() * 1e3,
            row.reconnect.as_secs_f64() * 1e3,
            row.reconnect.as_secs_f64() / row.persistent.as_secs_f64().max(1e-9),
            (row.reconnect.as_secs_f64() - row.persistent.as_secs_f64()) * 1e3 / rounds as f64,
        );
        rows.push(row);
    }

    // Telemetry overhead: the same persistent session with every probe
    // live (spans + metrics) against the disabled-handle baseline the
    // schedule above already measured. The disabled handle is the
    // default everywhere, so this is the price of *asking* for
    // observability, not of shipping it.
    let t_rounds = rows.last().expect("rows").rounds;
    let t_off = rows.last().expect("rows").persistent;
    let mut t_on = Duration::MAX;
    for _ in 0..best_of {
        t_on = t_on.min(persistent(t_rounds, dim, Telemetry::enabled()));
    }
    let overhead_pct = (t_on.as_secs_f64() / t_off.as_secs_f64().max(1e-9) - 1.0) * 100.0;
    println!(
        "telemetry: disabled {:8.2} ms | enabled {:8.2} ms | overhead {overhead_pct:+.1}% (R = {t_rounds})",
        t_off.as_secs_f64() * 1e3,
        t_on.as_secs_f64() * 1e3,
    );

    if smoke {
        println!("smoke mode: skipping BENCH_session_round.json");
        return;
    }
    // Loose guard (sockets + scheduler noise): enabled telemetry may
    // cost something, but it must never dominate the round time.
    assert!(
        t_on.as_secs_f64() <= t_off.as_secs_f64() * 2.0,
        "enabled telemetry more than doubled the session time \
         ({t_on:?} vs {t_off:?})"
    );
    let last = rows.last().expect("rows");
    assert!(
        last.persistent < last.reconnect,
        "persistent connections should beat reconnect-per-round at R = {}",
        last.rounds
    );
    let mut entries = String::new();
    for (i, row) in rows.iter().enumerate() {
        if i > 0 {
            entries.push_str(",\n");
        }
        entries.push_str(&format!(
            "    {{\n      \"rounds\": {},\n      \"persistent_ms\": {:.3},\n      \
             \"reconnect_per_round_ms\": {:.3},\n      \"speedup\": {:.4}\n    }}",
            row.rounds,
            row.persistent.as_secs_f64() * 1e3,
            row.reconnect.as_secs_f64() * 1e3,
            row.reconnect.as_secs_f64() / row.persistent.as_secs_f64().max(1e-9),
        ));
    }
    let telemetry_section = format!(
        "  \"telemetry\": {{\n    \"rounds\": {t_rounds},\n    \"disabled_ms\": {:.3},\n    \
         \"enabled_ms\": {:.3},\n    \"overhead_pct\": {overhead_pct:.2}\n  }},\n",
        t_off.as_secs_f64() * 1e3,
        t_on.as_secs_f64() * 1e3,
    );
    let json = format!(
        "{{\n  \"bench\": \"session_round\",\n  \"transport\": \"tcp\",\n  \"clients\": {N},\n  \
         \"dim\": {dim},\n  \"bit_width\": {BITS},\n  \"chunks\": {CHUNKS},\n\
         {telemetry_section}  \"configs\": [\n{entries}\n  ]\n}}\n"
    );
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_session_round.json"
    );
    std::fs::write(path, json).expect("write BENCH_session_round.json");
    println!("wrote {path}");
}
