//! Peak memory under a 1k-connection ingress burst: budgeted versus
//! unbudgeted frame pool.
//!
//! The memory plane's claim is that `--ingress-budget` turns
//! coordinator memory from O(cohort × update) into O(budget): when
//! every client blasts its masked-input chunks at once, the unbudgeted
//! reactor buffers the whole burst in userspace, while the budgeted one
//! pauses over-share connections (dropping their read interest, so TCP
//! flow control pushes back) and drains the backlog at aggregation
//! speed.
//!
//! `VmHWM` — the process's lifetime peak resident set — is monotonic,
//! so each scenario runs the coordinator in its **own child process**
//! (re-exec of this binary, role-switched via `DORDIS_BURST_ROLE`), and
//! the 1k clients run in a third process so their input vectors never
//! pollute the coordinator's peak. The orchestrator pins both
//! scenarios' aggregates bit-equal to the in-memory driver round,
//! checks the broadcast path encodes O(1) frames per round regardless
//! of cohort size, and writes `BENCH_ingress_burst.json` (peak RSS +
//! join-latency percentiles) at the workspace root.
//!
//! `INGRESS_BURST_SMOKE=1` shrinks the cohort for CI; the JSON is
//! written in both modes (CI validates its shape), but the ≥3x RSS
//! ratio is only asserted at full scale.
//!
//! ```sh
//! cargo bench -p dordis-bench --bench ingress_burst
//! INGRESS_BURST_SMOKE=1 cargo bench -p dordis-bench --bench ingress_burst
//! ```

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write as _};
use std::process::{Child, Command, Stdio};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use dordis_net::runtime::{round_rng_seed, run_session_client, SessionClientOptions};
use dordis_net::session::{Seating, Session, SessionConfig};
use dordis_net::tcp::{TcpAcceptor, TcpChannel};
use dordis_net::transport::Acceptor as _;
use dordis_secagg::client::ClientInput;
use dordis_secagg::driver::{run_round, DropoutSchedule, RoundSpec};
use dordis_secagg::graph::MaskingGraph;
use dordis_secagg::{ClientId, RoundParams};
use dordis_telemetry::Telemetry;

const BITS: u32 = 16;
const SEED: u64 = 90_210;
const ROUND: u64 = 1;

/// Everything a child process needs, carried in the environment.
#[derive(Clone)]
struct Scale {
    clients: u32,
    dim: usize,
    chunks: usize,
    budget: u64,
}

impl Scale {
    fn from_env() -> Scale {
        let get = |k: &str| -> u64 {
            std::env::var(k)
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| panic!("missing/bad {k}"))
        };
        Scale {
            clients: get("DORDIS_BURST_N") as u32,
            dim: get("DORDIS_BURST_DIM") as usize,
            chunks: get("DORDIS_BURST_CHUNKS") as usize,
            budget: get("DORDIS_BURST_BUDGET"),
        }
    }
}

fn params(s: &Scale) -> RoundParams {
    RoundParams {
        round: ROUND,
        clients: (0..s.clients).collect(),
        threshold: (s.clients as usize / 2).clamp(2, 16),
        bit_width: BITS,
        vector_len: s.dim,
        noise_components: 0,
        threat_model: dordis_secagg::ThreatModel::SemiHonest,
        graph: MaskingGraph::recommended(s.clients as usize),
    }
}

fn input_for(id: ClientId, dim: usize) -> ClientInput {
    let mask = (1u64 << BITS) - 1;
    ClientInput {
        vector: (0..dim)
            .map(|i| (u64::from(id) * 131 + ROUND * 977 + i as u64 * 17) & mask)
            .collect(),
        noise_seeds: Vec::new(),
    }
}

/// FNV-1a over the aggregate, so bit-equality travels across process
/// boundaries as one number.
fn sum_hash(sum: &[u64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &v in sum {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Peak resident set (`VmHWM`) of this process, in KiB.
fn peak_rss_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

// ---------------------------------------------------------------------
// Child: the coordinator under measurement.
// ---------------------------------------------------------------------

fn coordinator_child(s: &Scale) {
    let telemetry = Telemetry::enabled();
    let mut acceptor = TcpAcceptor::bind("127.0.0.1:0").expect("bind");
    println!("ADDR {}", acceptor.local_addr());
    std::io::stdout().flush().expect("flush addr");

    let s2 = s.clone();
    let cfg = SessionConfig {
        first_round: ROUND,
        join_timeout: Duration::from_secs(120),
        stage_timeout: Duration::from_secs(240),
        chunks: s.chunks,
        ingress_budget: s.budget,
        population: (0..s.clients).collect(),
        telemetry: telemetry.clone(),
        ..SessionConfig::new(1, Seating::Roster, Box::new(move |_, _| params(&s2)))
    };
    let mut session = Session::new(&mut acceptor, cfg).expect("session");
    let start = Instant::now();
    let report = session.run_round(&[]).expect("round");
    let wall = start.elapsed();
    session.finish();

    let snap = telemetry.snapshot().expect("enabled telemetry");
    let (polls, events) = (report.reactor.polls, report.reactor.events);
    println!(
        "RESULT peak_rss_kib={} survivors={} sum_hash={:#x} wall_ms={} \
         broadcast_encodes={} frames_recycled={} frames_allocated={} pauses={} \
         high_water_in={} polls={polls} events={events}",
        peak_rss_kib(),
        report.outcome.survivors.len(),
        sum_hash(&report.outcome.sum),
        wall.as_millis(),
        snap.get("dordis_broadcast_encodes_total"),
        snap.get("dordis_frames_recycled_total"),
        snap.get("dordis_frames_allocated_total"),
        snap.get("dordis_ingress_pauses_total"),
        snap.get("dordis_buffered_bytes_high_water{direction=\"in\"}"),
    );
}

// ---------------------------------------------------------------------
// Child: the 1k-client burst.
// ---------------------------------------------------------------------

fn clients_child(s: &Scale) {
    let addr = std::env::var("DORDIS_BURST_ADDR").expect("DORDIS_BURST_ADDR");
    let join_latencies: Mutex<Vec<Duration>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for id in 0..s.clients {
            let addr = &addr;
            let dim = s.dim;
            let join_latencies = &join_latencies;
            scope.spawn(move || {
                let connect_at = Instant::now();
                let mut chan = TcpChannel::connect(addr).expect("connect");
                // A paused coordinator legitimately stalls our uplink
                // for a while; the default 10 s send deadline is sized
                // for failure detection, not deliberate backpressure.
                chan.set_write_timeout(Duration::from_secs(180));
                let opts = SessionClientOptions {
                    id,
                    rng_seed: SEED,
                    recv_timeout: Duration::from_secs(240),
                    silent_linger: Duration::from_secs(1),
                };
                let report = run_session_client(
                    &mut chan,
                    &opts,
                    |_| None,
                    |_| None,
                    |_, _params, _cohort, _payload| {
                        // Seated: the join handshake round-trip is done.
                        join_latencies
                            .lock()
                            .expect("latencies")
                            .push(connect_at.elapsed());
                        Ok(input_for(id, dim))
                    },
                    |_| None,
                )
                .expect("session client");
                assert_eq!(report.rounds.len(), 1, "client {id} missed the round");
            });
        }
    });
    let mut lats = join_latencies.into_inner().expect("latencies");
    lats.sort_unstable();
    let pct = |p: f64| -> f64 {
        if lats.is_empty() {
            return 0.0;
        }
        let idx = ((lats.len() as f64 - 1.0) * p).round() as usize;
        lats[idx].as_secs_f64() * 1e3
    };
    println!(
        "RESULT joined={} join_p50_ms={:.3} join_p99_ms={:.3}",
        lats.len(),
        pct(0.50),
        pct(0.99),
    );
}

// ---------------------------------------------------------------------
// Orchestrator.
// ---------------------------------------------------------------------

/// One scenario's numbers, parsed from the children's RESULT lines.
#[derive(Default, Clone)]
struct Outcome {
    fields: BTreeMap<String, String>,
}

impl Outcome {
    fn num(&self, key: &str) -> u64 {
        let raw = self
            .fields
            .get(key)
            .unwrap_or_else(|| panic!("missing {key}"));
        if let Some(hex) = raw.strip_prefix("0x") {
            u64::from_str_radix(hex, 16).expect("hex field")
        } else {
            raw.parse().expect("numeric field")
        }
    }

    fn float(&self, key: &str) -> f64 {
        self.fields
            .get(key)
            .unwrap_or_else(|| panic!("missing {key}"))
            .parse()
            .expect("float field")
    }
}

fn parse_result(line: &str) -> Outcome {
    let mut fields = BTreeMap::new();
    for kv in line.trim_start_matches("RESULT ").split_whitespace() {
        if let Some((k, v)) = kv.split_once('=') {
            fields.insert(k.to_string(), v.to_string());
        }
    }
    Outcome { fields }
}

/// Reads child stdout lines until one starts with `prefix`.
fn read_line_with(child: &mut Child, reader: &mut impl BufRead, prefix: &str) -> String {
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line).expect("child stdout") == 0 {
            let _ = child.kill();
            panic!("child exited before printing `{prefix}`");
        }
        if line.starts_with(prefix) {
            return line.trim_end().to_string();
        }
        // Pass through the child's narration.
        print!("  | {line}");
    }
}

fn spawn_role(role: &str, s: &Scale, extra: &[(&str, &str)]) -> Child {
    let exe = std::env::current_exe().expect("current exe");
    let mut cmd = Command::new(exe);
    cmd.env("DORDIS_BURST_ROLE", role)
        .env("DORDIS_BURST_N", s.clients.to_string())
        .env("DORDIS_BURST_DIM", s.dim.to_string())
        .env("DORDIS_BURST_CHUNKS", s.chunks.to_string())
        .env("DORDIS_BURST_BUDGET", s.budget.to_string())
        .stdout(Stdio::piped());
    for (k, v) in extra {
        cmd.env(k, v);
    }
    cmd.spawn().expect("spawn child")
}

/// Runs one scenario: a coordinator child at the given budget plus a
/// clients child, returning (coordinator numbers, client numbers).
fn run_scenario(s: &Scale) -> (Outcome, Outcome) {
    let mut coord = spawn_role("coord", s, &[]);
    let mut coord_out = BufReader::new(coord.stdout.take().expect("coord stdout"));
    let addr_line = read_line_with(&mut coord, &mut coord_out, "ADDR ");
    let addr = addr_line.trim_start_matches("ADDR ").to_string();

    let mut clients = spawn_role("clients", s, &[("DORDIS_BURST_ADDR", addr.as_str())]);
    let mut clients_out = BufReader::new(clients.stdout.take().expect("clients stdout"));

    let coord_result = read_line_with(&mut coord, &mut coord_out, "RESULT ");
    let clients_result = read_line_with(&mut clients, &mut clients_out, "RESULT ");
    assert!(
        coord.wait().expect("coord wait").success(),
        "coordinator failed"
    );
    assert!(
        clients.wait().expect("clients wait").success(),
        "clients failed"
    );
    (parse_result(&coord_result), parse_result(&clients_result))
}

fn orchestrate() {
    let smoke = std::env::var("INGRESS_BURST_SMOKE").is_ok_and(|v| !v.is_empty() && v != "0");
    // Payloads are bit-packed (BITS bits per element), so a client's
    // masked upload is dim × BITS / 8 bytes: 128 KiB at full scale —
    // enough that 1k unbudgeted connections dwarf the coordinator's
    // baseline RSS — and 32 KiB in smoke, still past the per-connection
    // fair-share floor so pausing is exercised.
    let base = Scale {
        clients: if smoke { 48 } else { 1000 },
        dim: if smoke { 16_384 } else { 65_536 },
        chunks: 16,
        budget: 0,
    };
    let budget = if smoke { 128 * 1024 } else { 4 * 1024 * 1024 };

    // Ground truth: the same round through the in-memory driver.
    let inputs: BTreeMap<ClientId, ClientInput> = (0..base.clients)
        .map(|id| (id, input_for(id, base.dim)))
        .collect();
    let (driver, _) = run_round(RoundSpec {
        params: params(&base),
        inputs,
        dropout: DropoutSchedule::none(),
        rng_seed: round_rng_seed(SEED, ROUND),
    })
    .expect("driver round");
    let expected_hash = sum_hash(&driver.sum);
    println!(
        "driver:    {} survivors, sum hash {expected_hash:#x}",
        driver.survivors.len()
    );

    let mut rows = Vec::new();
    for budget_bytes in [0u64, budget] {
        let s = Scale {
            budget: budget_bytes,
            ..base.clone()
        };
        let label = if budget_bytes == 0 {
            "unbudgeted".to_string()
        } else {
            format!("budget {} MiB", budget_bytes as f64 / (1024.0 * 1024.0))
        };
        let (coord, clients) = run_scenario(&s);
        println!(
            "{label}: peak RSS {} KiB | join p50 {:.1} ms p99 {:.1} ms | \
             {} pauses | {} broadcast encodes | wall {} ms",
            coord.num("peak_rss_kib"),
            clients.float("join_p50_ms"),
            clients.float("join_p99_ms"),
            coord.num("pauses"),
            coord.num("broadcast_encodes"),
            coord.num("wall_ms"),
        );

        // Bit-equality: both budget regimes must reproduce the driver
        // aggregate exactly — the budget only changes *when* bytes are
        // read, never what is computed from them.
        assert_eq!(
            coord.num("survivors") as usize,
            base.clients as usize,
            "{label}: lost clients"
        );
        assert_eq!(
            coord.num("sum_hash"),
            expected_hash,
            "{label}: aggregate diverged from the in-memory driver"
        );
        assert_eq!(
            clients.num("joined"),
            u64::from(base.clients),
            "{label}: not every client was seated"
        );
        // Zero-copy broadcast: encodes per round are O(1), not
        // O(cohort) — announce + six stage broadcasts + session end.
        assert!(
            coord.num("broadcast_encodes") <= 16,
            "{label}: {} broadcast encodes for one round",
            coord.num("broadcast_encodes")
        );
        // The frame pool is actually cycling. A one-round burst parks
        // every in-flight chunk frame until its chunk aggregates, so
        // the first wave of takes legitimately allocates; what must
        // hold is that recycled allocations are being *reused* at all.
        assert!(
            coord.num("frames_recycled") > 0,
            "{label}: the frame pool never served a recycled allocation"
        );
        if budget_bytes == 0 {
            assert_eq!(coord.num("pauses"), 0, "unbudgeted run paused");
        } else {
            assert!(coord.num("pauses") > 0, "budgeted run never paused");
        }
        rows.push((budget_bytes, coord, clients));
    }

    let unbudgeted = rows[0].1.num("peak_rss_kib") as f64;
    let budgeted = rows[1].1.num("peak_rss_kib") as f64;
    let ratio = unbudgeted / budgeted.max(1.0);
    println!("peak RSS ratio (unbudgeted / budgeted): {ratio:.2}x");
    if !smoke {
        assert!(
            ratio >= 3.0,
            "ingress budget should cut peak RSS at least 3x \
             ({unbudgeted:.0} KiB vs {budgeted:.0} KiB)"
        );
        // Backpressure paces arrivals to aggregation speed, so chunk
        // frames cycle through the pool instead of piling up as fresh
        // allocations.
        assert!(
            rows[1].1.num("frames_allocated") <= rows[0].1.num("frames_allocated"),
            "budgeted run allocated more frames ({}) than unbudgeted ({})",
            rows[1].1.num("frames_allocated"),
            rows[0].1.num("frames_allocated"),
        );
    }

    let mut entries = String::new();
    for (i, (budget_bytes, coord, clients)) in rows.iter().enumerate() {
        if i > 0 {
            entries.push_str(",\n");
        }
        entries.push_str(&format!(
            "    {{\n      \"budget_bytes\": {budget_bytes},\n      \
             \"peak_rss_kib\": {},\n      \"join_p50_ms\": {:.3},\n      \
             \"join_p99_ms\": {:.3},\n      \"round_wall_ms\": {},\n      \
             \"ingress_pauses\": {},\n      \"broadcast_encodes\": {},\n      \
             \"frames_recycled\": {},\n      \"frames_allocated\": {},\n      \
             \"high_water_in_bytes\": {},\n      \"reactor_polls\": {},\n      \
             \"reactor_events\": {}\n    }}",
            coord.num("peak_rss_kib"),
            clients.float("join_p50_ms"),
            clients.float("join_p99_ms"),
            coord.num("wall_ms"),
            coord.num("pauses"),
            coord.num("broadcast_encodes"),
            coord.num("frames_recycled"),
            coord.num("frames_allocated"),
            coord.num("high_water_in"),
            coord.num("polls"),
            coord.num("events"),
        ));
    }
    let json = format!(
        "{{\n  \"bench\": \"ingress_burst\",\n  \"smoke\": {smoke},\n  \
         \"clients\": {},\n  \"dim\": {},\n  \"bit_width\": {BITS},\n  \
         \"chunks\": {},\n  \"peak_rss_ratio\": {ratio:.3},\n  \
         \"scenarios\": [\n{entries}\n  ]\n}}\n",
        base.clients, base.dim, base.chunks,
    );
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_ingress_burst.json"
    );
    std::fs::write(path, json).expect("write BENCH_ingress_burst.json");
    println!("wrote {path}");
}

fn main() {
    match std::env::var("DORDIS_BURST_ROLE").as_deref() {
        Ok("coord") => coordinator_child(&Scale::from_env()),
        Ok("clients") => clients_child(&Scale::from_env()),
        _ => orchestrate(),
    }
}
