//! Cohort scaling past the GF(256) wall: neighborhood-scoped Shamir
//! indexing makes roster size a wire-width limit (u16) instead of a
//! field-size limit, and the sparse Harary graph makes the per-client
//! share stage `O(log n)` instead of `O(n)`.
//!
//! Two measurements:
//!
//! 1. **Share stage, sparse vs complete at n = 255** — the whole cohort
//!    runs `AdvertiseKeys` then `ShareKeys` in process (no transport),
//!    once under the complete graph (254 key agreements + 255-point
//!    Shamir evaluations + 254 AEAD seals per client) and once under
//!    the recommended Harary graph (degree 18 at n = 255). The ratio is
//!    the `n/deg` win the re-indexing buys; ≥ 5x is asserted outside
//!    smoke mode.
//! 2. **Full rounds at n ∈ {255, 512, 1024}** on the sparse graph —
//!    reactor coordinator over 127.0.0.1, measuring wall clock and
//!    coordinator-thread CPU (`/proc/thread-self/stat`), with every
//!    cohort's outcome pinned bit-equal to the in-memory driver. The
//!    1024-client row is the first single-process round past the old
//!    255 cap. A complete-graph full round at n = 255 rides along for
//!    scale.
//!
//! Results land in `BENCH_cohort_scale.json` at the workspace root;
//! `COHORT_SCALE_SMOKE=1` shrinks the cohorts for CI and skips the
//! JSON write and the speedup assertion.
//!
//! ```sh
//! cargo bench -p dordis-bench --bench cohort_scale
//! COHORT_SCALE_SMOKE=1 cargo bench -p dordis-bench --bench cohort_scale
//! ```

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use dordis_net::local;
use dordis_net::runtime::round_rng_seed;
use dordis_net::session::{Seating, Session, SessionConfig};
use dordis_secagg::client::{Client, ClientInput};
use dordis_secagg::driver::{client_rng, run_round, share_keys_rng, DropoutSchedule, RoundSpec};
use dordis_secagg::graph::MaskingGraph;
use dordis_secagg::server::Server;
use dordis_secagg::{ClientId, RoundParams, ThreatModel};

const DIM: usize = 256;
const BITS: u32 = 16;
const CHUNKS: usize = 4;
const NOISE_T: usize = 2;
const SEED: u64 = 9292;
const STAGE_TIMEOUT: Duration = Duration::from_secs(120);

fn params(n: u32, graph: MaskingGraph) -> RoundParams {
    RoundParams {
        round: 1,
        clients: (0..n).collect(),
        threshold: n as usize / 2 + 1,
        bit_width: BITS,
        vector_len: DIM,
        noise_components: NOISE_T,
        threat_model: ThreatModel::SemiHonest,
        graph,
    }
}

fn input_for(id: ClientId) -> ClientInput {
    let mask = (1u64 << BITS) - 1;
    ClientInput {
        vector: (0..DIM)
            .map(|i| (u64::from(id) * 31 + i as u64) & mask)
            .collect(),
        noise_seeds: vec![[(id % 251) as u8 + 1; 32]; NOISE_T + 1],
    }
}

/// This thread's cumulative CPU time (user + system) from
/// `/proc/thread-self/stat`, so the coordinator can be measured without
/// counting the client threads.
fn thread_cpu() -> Duration {
    let Ok(stat) = std::fs::read_to_string("/proc/thread-self/stat") else {
        return Duration::ZERO;
    };
    let Some(close) = stat.rfind(')') else {
        return Duration::ZERO;
    };
    let fields: Vec<&str> = stat[close + 1..].split_whitespace().collect();
    let utime: u64 = fields.get(11).and_then(|f| f.parse().ok()).unwrap_or(0);
    let stime: u64 = fields.get(12).and_then(|f| f.parse().ok()).unwrap_or(0);
    Duration::from_millis((utime + stime) * 10)
}

/// One in-process pass of the cohort's share stage under `graph`:
/// instantiate all clients, advertise, then time only `share_keys`
/// across the whole cohort.
fn share_stage_secs(n: u32, graph: MaskingGraph) -> f64 {
    let p = params(n, graph);
    let mut clients: BTreeMap<ClientId, Client> = (0..n)
        .map(|id| {
            let mut rng = client_rng(SEED, id);
            let c = Client::new(p.clone(), id, input_for(id), None, &mut rng).expect("client");
            (id, c)
        })
        .collect();
    let mut server = Server::new(p).expect("server");
    let advs = clients
        .values_mut()
        .map(|c| c.advertise_keys().expect("advertise"))
        .collect();
    let roster = server.collect_advertisements(advs).expect("roster");
    let start = Instant::now();
    for (&id, c) in clients.iter_mut() {
        let cts = c
            .share_keys(&roster, &mut share_keys_rng(SEED, id))
            .expect("share_keys");
        std::hint::black_box(&cts);
    }
    start.elapsed().as_secs_f64()
}

struct RunResult {
    wall: Duration,
    cpu: Duration,
    polls: u64,
    events: u64,
}

/// One full round at `n` clients under `graph` (reactor coordinator,
/// 127.0.0.1), pinned bit-equal to the in-memory driver.
fn timed_round(n: u32, graph: MaskingGraph) -> RunResult {
    let (mut acceptor, addr) = local::listen();
    let cohort = local::spawn(0..n, move |id| {
        let mut chan = local::dial(&addr);
        local::roster_client(&mut chan, id, SEED, |_| None, |_| input_for(id), None)
            .expect("client run")
    });
    let cfg = SessionConfig {
        join_timeout: Duration::from_secs(300),
        stage_timeout: STAGE_TIMEOUT,
        chunks: CHUNKS,
        ..SessionConfig::new(1, Seating::Roster, Box::new(move |_, _| params(n, graph)))
    };
    let mut session = Session::new(&mut acceptor, cfg).expect("session");
    let cpu0 = thread_cpu();
    let start = Instant::now();
    let report = session.run_round(&[]).expect("coordinator");
    let wall = start.elapsed();
    let cpu = thread_cpu().saturating_sub(cpu0);
    session.finish();
    assert!(
        report.dropouts.is_empty(),
        "clean round expected: {:?}",
        report.dropouts
    );
    assert_eq!(report.outcome.survivors.len(), n as usize);
    cohort.reap().expect("client thread");

    // Bit-equality pin against the serial in-memory driver: same
    // params, same seeds, so sums and removal seeds must be identical.
    let inputs: BTreeMap<ClientId, ClientInput> = (0..n).map(|id| (id, input_for(id))).collect();
    let (mem, _) = run_round(RoundSpec {
        params: params(n, graph),
        inputs,
        dropout: DropoutSchedule::none(),
        rng_seed: round_rng_seed(SEED, 1),
    })
    .expect("driver round");
    assert_eq!(report.outcome.sum, mem.sum, "n={n}: sum diverges");
    assert_eq!(report.outcome.survivors, mem.survivors, "n={n}");
    assert_eq!(
        report.outcome.removal_seeds, mem.removal_seeds,
        "n={n}: removal seeds diverge"
    );

    RunResult {
        wall,
        cpu,
        polls: report.reactor.polls,
        events: report.reactor.events,
    }
}

fn main() {
    let smoke = std::env::var("COHORT_SCALE_SMOKE").is_ok_and(|v| !v.is_empty() && v != "0");
    let share_n: u32 = if smoke { 64 } else { 255 };
    let cohorts: &[u32] = if smoke { &[40, 64] } else { &[255, 512, 1024] };
    let best_of = if smoke { 1 } else { 2 };

    // ---- Share stage: sparse vs complete. ----
    let sparse_graph = MaskingGraph::recommended(share_n as usize);
    let mut complete_secs = f64::MAX;
    let mut sparse_secs = f64::MAX;
    for _ in 0..best_of.max(2) {
        complete_secs = complete_secs.min(share_stage_secs(share_n, MaskingGraph::Complete));
        sparse_secs = sparse_secs.min(share_stage_secs(share_n, sparse_graph));
    }
    let share_speedup = complete_secs / sparse_secs.max(1e-9);
    println!(
        "share stage n={share_n}: complete {:.4}s | sparse(deg {}) {:.4}s | speedup {:.2}x",
        complete_secs,
        sparse_graph.degree(share_n as usize),
        sparse_secs,
        share_speedup,
    );
    if !smoke {
        assert!(
            share_speedup >= 5.0,
            "share-stage speedup {share_speedup:.2}x < 5x — neighborhood indexing regressed"
        );
    }

    // ---- Full rounds on the sparse graph (+ complete at the old cap). ----
    let mut rows = Vec::new();
    for &n in cohorts {
        let graph = MaskingGraph::recommended(n as usize);
        assert!(matches!(graph, MaskingGraph::Harary { .. }));
        let mut best: Option<RunResult> = None;
        for _ in 0..best_of {
            let run = timed_round(n, graph);
            if best.as_ref().is_none_or(|b| run.wall < b.wall) {
                best = Some(run);
            }
        }
        let run = best.expect("at least one run");
        println!(
            "clients {n:4} (deg {:2}): {:7.3}s wall {:6.3}s cpu ({} polls, {} events)",
            graph.degree(n as usize),
            run.wall.as_secs_f64(),
            run.cpu.as_secs_f64(),
            run.polls,
            run.events,
        );
        rows.push((n, graph.degree(n as usize), run));
    }
    let complete_row = if smoke {
        None
    } else {
        let run = timed_round(255, MaskingGraph::Complete);
        println!(
            "clients  255 (complete): {:7.3}s wall {:6.3}s cpu",
            run.wall.as_secs_f64(),
            run.cpu.as_secs_f64(),
        );
        Some(run)
    };

    if smoke {
        println!("smoke mode: skipping BENCH_cohort_scale.json");
        return;
    }
    let mut entries = String::new();
    for (i, (n, deg, run)) in rows.iter().enumerate() {
        if i > 0 {
            entries.push_str(",\n");
        }
        entries.push_str(&format!(
            "    {{\n      \"clients\": {n},\n      \"degree\": {deg},\n      \
             \"wall_secs\": {:.6},\n      \"cpu_secs\": {:.6},\n      \
             \"reactor_polls\": {},\n      \"reactor_events\": {},\n      \
             \"driver_match\": true\n    }}",
            run.wall.as_secs_f64(),
            run.cpu.as_secs_f64(),
            run.polls,
            run.events,
        ));
    }
    let complete255 = complete_row.expect("non-smoke has the complete row");
    let json = format!(
        "{{\n  \"bench\": \"cohort_scale\",\n  \"dim\": {DIM},\n  \"bit_width\": {BITS},\n  \
         \"chunks\": {CHUNKS},\n  \"noise_components\": {NOISE_T},\n  \
         \"share_stage\": {{\n    \"clients\": {share_n},\n    \
         \"complete_secs\": {complete_secs:.6},\n    \"sparse_secs\": {sparse_secs:.6},\n    \
         \"sparse_degree\": {},\n    \"speedup\": {share_speedup:.4}\n  }},\n  \
         \"complete_255\": {{\n    \"wall_secs\": {:.6},\n    \"cpu_secs\": {:.6}\n  }},\n  \
         \"cohorts\": [\n{entries}\n  ]\n}}\n",
        sparse_graph.degree(share_n as usize),
        complete255.wall.as_secs_f64(),
        complete255.cpu.as_secs_f64(),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_cohort_scale.json");
    std::fs::write(path, &json).expect("write BENCH_cohort_scale.json");
    println!("wrote {path}");
}
