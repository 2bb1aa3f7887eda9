//! Multi-round sessions over persistent connections, on real TCP
//! sockets: R rounds over one warm connection per client (one
//! `Session`, round announces, per-round round machines), and the same
//! session with telemetry enabled — the guard that asking for
//! observability never dominates the round time.
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

use dordis_net::runtime::{run_session_client, SessionClientOptions, SessionEndKind};
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
        join_timeout: JOIN_TIMEOUT,
        stage_timeout: STAGE_TIMEOUT,
        chunks: CHUNKS,
        population: (0..N).collect(),
        telemetry,
        ..SessionConfig::new(
            rounds,
            Seating::Roster,
            Box::new(move |round, _| params_for_round(round, dim)),
        )
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

fn main() {
    let smoke = std::env::var("SESSION_ROUND_SMOKE").is_ok_and(|v| !v.is_empty() && v != "0");
    let dim = if smoke { 512 } else { 4096 };
    let schedule: &[u64] = if smoke { &[1, 2] } else { &[1, 5, 10] };
    let best_of = if smoke { 1 } else { 3 };

    // Per-configuration minimum over the repetitions: the best run is
    // the least-noisy one.
    let mut rows: Vec<(u64, Duration)> = Vec::new();
    for &rounds in schedule {
        let best = (0..best_of)
            .map(|_| persistent(rounds, dim, Telemetry::disabled()))
            .min()
            .expect("at least one repetition");
        println!(
            "R = {rounds:2}: persistent {:8.2} ms ({:.2} ms per round)",
            best.as_secs_f64() * 1e3,
            best.as_secs_f64() * 1e3 / rounds as f64,
        );
        rows.push((rounds, best));
    }

    // Telemetry overhead: the same persistent session with every probe
    // live (spans + metrics) against the disabled-handle baseline the
    // schedule above already measured. The disabled handle is the
    // default everywhere, so this is the price of *asking* for
    // observability, not of shipping it.
    let &(t_rounds, t_off) = rows.last().expect("rows");
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
    let mut entries = String::new();
    for (i, (rounds, persistent)) in rows.iter().enumerate() {
        if i > 0 {
            entries.push_str(",\n");
        }
        entries.push_str(&format!(
            "    {{\n      \"rounds\": {rounds},\n      \"persistent_ms\": {:.3}\n    }}",
            persistent.as_secs_f64() * 1e3,
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
