//! The telemetry-overhead guard: a multi-round session over persistent
//! 127.0.0.1 connections (one `Session`, round announces, per-round
//! round machines), timed with telemetry disabled and with every probe
//! live (spans + metrics). Asking for observability may cost something,
//! but it must never dominate the round time.
//!
//! `SESSION_ROUND_SMOKE=1` shrinks the session for CI and only prints
//! the comparison.
//!
//! ```sh
//! cargo bench -p dordis-bench --bench session_round
//! SESSION_ROUND_SMOKE=1 cargo bench -p dordis-bench --bench session_round
//! ```

use std::time::{Duration, Instant};

use dordis_net::local;
use dordis_net::runtime::SessionEndKind;
use dordis_net::session::{seat_all, SessionConfig};
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
    let (mut acceptor, addr) = local::listen();
    let start = Instant::now();
    let cfg = SessionConfig {
        join_timeout: JOIN_TIMEOUT,
        stage_timeout: STAGE_TIMEOUT,
        chunks: CHUNKS,
        telemetry,
        ..SessionConfig::new(
            rounds,
            (0..N).collect(),
            seat_all(),
            Box::new(move |round, _| params_for_round(round, dim)),
        )
    };
    let (reports, clients) = local::run_session(&mut acceptor, cfg, 0..N, move |id| {
        let mut chan = local::dial(&addr);
        local::roster_client(
            &mut chan,
            id,
            SEED,
            |_| None,
            |r| input_for(id, r, dim),
            None,
        )
        .expect("session client")
    });
    let elapsed = start.elapsed();
    for report in &reports {
        assert_eq!(report.outcome.survivors.len(), N as usize);
    }
    for client in clients.values() {
        assert!(matches!(client.end, SessionEndKind::Ended));
        assert_eq!(client.rounds.len() as u64, rounds);
    }
    elapsed
}

fn main() {
    let smoke = std::env::var("SESSION_ROUND_SMOKE").is_ok_and(|v| !v.is_empty() && v != "0");
    let (dim, rounds, best_of) = if smoke { (512, 2, 1) } else { (4096, 10, 3) };

    // Per-configuration minimum over the repetitions: the best run is
    // the least-noisy one. The disabled handle is the default
    // everywhere, so the difference is the price of *asking* for
    // observability, not of shipping it.
    let best = |telemetry: fn() -> Telemetry| {
        (0..best_of)
            .map(|_| persistent(rounds, dim, telemetry()))
            .min()
            .expect("at least one repetition")
    };
    let t_off = best(Telemetry::disabled);
    let t_on = best(Telemetry::enabled);
    let overhead_pct = (t_on.as_secs_f64() / t_off.as_secs_f64().max(1e-9) - 1.0) * 100.0;
    println!(
        "telemetry: disabled {:8.2} ms | enabled {:8.2} ms | overhead {overhead_pct:+.1}% (R = {rounds})",
        t_off.as_secs_f64() * 1e3,
        t_on.as_secs_f64() * 1e3,
    );

    if smoke {
        return;
    }
    // Loose guard (sockets + scheduler noise): enabled telemetry may
    // cost something, but it must never dominate the round time.
    assert!(
        t_on.as_secs_f64() <= t_off.as_secs_f64() * 2.0,
        "enabled telemetry more than doubled the session time \
         ({t_on:?} vs {t_off:?})"
    );
}
