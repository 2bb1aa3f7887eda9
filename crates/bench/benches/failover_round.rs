//! Coordinator failover cost: what does the replicated checkpoint
//! plane cost when nothing fails, and what does a `kill -9` cost when
//! it does?
//!
//! Three scenarios over the full networked FL driver (TCP on
//! 127.0.0.1, VRF-sampled cohorts, privacy ledger):
//!
//! 1. `baseline` — replication disabled: the zero-overhead reference.
//! 2. `replicated` — a standby installs a checkpoint at every round
//!    boundary and every commit is gated on its ack; no crash.
//! 3. `failover:<kill-point>` — the primary dies at the scripted
//!    [`KillPoint`] mid-session; the standby promotes and finishes.
//!
//! Every scenario must stay bit-equal to the in-memory reference
//! ([`train_session`]) — this bench prices the mechanisms, the test
//! matrix in `crates/core/tests/failover.rs` proves them. The
//! scenarios run interleaved, [`RUNS`] sessions each, and every row is
//! a median with its interquartile range. Replication overhead is the
//! median over runs of each replicated session against the baseline
//! session beside it. Recovery cost is a failover row's median over the
//! `replicated` median, plus the rounds re-executed (1 for a mid-round
//! kill, whose uncommitted work is lost; 0 for a kill after the
//! backup's ack, where the successor resumes past the committed round).
//!
//! Results land in `BENCH_failover_round.json` at the workspace root;
//! `FAILOVER_ROUND_SMOKE=1` shrinks the schedule for CI and skips the
//! JSON write.
//!
//! ```sh
//! cargo bench -p dordis-bench --bench failover_round
//! FAILOVER_ROUND_SMOKE=1 cargo bench -p dordis-bench --bench failover_round
//! ```

use std::time::Instant;

use dordis_core::config::TaskSpec;
use dordis_core::sampling::SamplingConfig;
use dordis_core::session::{
    train_session, train_session_networked, train_session_networked_failover, CrashSpec,
    FlSessionOptions, FlSessionReport,
};
use dordis_net::faults::KillPoint;

const SEED: u64 = 20_240_424;

fn opts(rounds: u32) -> (TaskSpec, FlSessionOptions) {
    let spec = TaskSpec::tiny_for_tests(SEED);
    let sample = SamplingConfig {
        target_sample: 8,
        population: spec.population,
        over_selection: 1.5,
    };
    (spec, FlSessionOptions::new(rounds, sample))
}

/// Bit-equality against the in-memory reference: aggregates, ledger
/// spend, and final model must all survive whatever the scenario did.
fn assert_matches(got: &FlSessionReport, want: &FlSessionReport, label: &str) {
    assert_eq!(got.rounds.len(), want.rounds.len(), "{label}: round count");
    for (g, w) in got.rounds.iter().zip(want.rounds.iter()) {
        assert_eq!(g.sum, w.sum, "{label}: aggregate r{}", g.round);
        assert_eq!(g.survivors, w.survivors, "{label}: survivors r{}", g.round);
    }
    assert_eq!(
        got.training.epsilon_consumed, want.training.epsilon_consumed,
        "{label}: epsilon"
    );
    assert_eq!(
        got.training.final_accuracy, want.training.final_accuracy,
        "{label}: final accuracy"
    );
}

/// Sessions per scenario in a full run: enough for a median and an
/// interquartile range that one noisy session cannot move.
const RUNS: usize = 21;

struct Scenario {
    label: &'static str,
    /// Whether a backup installs every round's checkpoint.
    replicated: bool,
    /// Where the primary dies, if it does.
    kill: Option<KillPoint>,
    rounds_reexecuted: u32,
    /// Wall time of each session, in run order.
    walls: Vec<f64>,
}

/// `(q1, median, q3)` of `xs`, by linear interpolation.
fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |q: f64| {
        let x = q * (v.len() - 1) as f64;
        let (lo, hi) = (x.floor() as usize, x.ceil() as usize);
        v[lo] + (v[hi] - v[lo]) * (x - lo as f64)
    };
    (at(0.25), at(0.5), at(0.75))
}

fn main() {
    let smoke = std::env::var("FAILOVER_ROUND_SMOKE").is_ok_and(|v| !v.is_empty() && v != "0");
    let rounds: u32 = if smoke { 3 } else { 6 };
    let runs = if smoke { 1 } else { RUNS };
    let crash_round = rounds / 2;

    let (spec, o) = opts(rounds);
    let want = train_session(&spec, &o).expect("in-memory reference");

    let scenario = |label, replicated, kill, rounds_reexecuted| Scenario {
        label,
        replicated,
        kill,
        rounds_reexecuted,
        walls: Vec::with_capacity(runs),
    };
    let mut rows = [
        scenario("baseline", false, None, 0),
        scenario("replicated", true, None, 0),
        scenario(
            "failover:mid-masked-stage",
            true,
            Some(KillPoint::MidMaskedStage),
            1,
        ),
        scenario(
            "failover:during-broadcast",
            true,
            Some(KillPoint::DuringBroadcast),
            1,
        ),
        scenario(
            "failover:between-ack-and-commit",
            true,
            Some(KillPoint::BetweenAckAndCommit),
            0,
        ),
    ];

    // Interleaved: every run takes one session of each scenario, so
    // host load drifts over all of them alike.
    for _ in 0..runs {
        for row in &mut rows {
            let crash = row.kill.map(|point| CrashSpec {
                round: crash_round,
                point,
            });
            let start = Instant::now();
            let report = if row.replicated {
                train_session_networked_failover(&spec, &o, crash)
            } else {
                train_session_networked(&spec, &o)
            }
            .expect(row.label);
            row.walls.push(start.elapsed().as_secs_f64() * 1e3);
            assert_matches(&report, &want, row.label);
        }
    }

    let replicated = quartiles(&rows[1].walls).1;
    // Overhead per run, each replicated session against the baseline
    // session next to it.
    let overheads: Vec<f64> = rows[0]
        .walls
        .iter()
        .zip(&rows[1].walls)
        .map(|(b, r)| (r / b - 1.0) * 100.0)
        .collect();
    let (oq1, overhead_pct, oq3) = quartiles(&overheads);
    let mut entries = Vec::new();
    for row in &rows {
        let (q1, median, q3) = quartiles(&row.walls);
        let recovery = if row.kill.is_some() {
            median - replicated
        } else {
            0.0
        };
        println!(
            "{:32} median {:8.2} ms (IQR {:6.2} ms) | {:+7.2} ms over replicated | {} round(s) re-executed",
            row.label,
            median,
            q3 - q1,
            recovery,
            row.rounds_reexecuted,
        );
        entries.push(format!(
            "    {{\n      \"scenario\": \"{}\",\n      \"median_ms\": {median:.3},\n      \
             \"q1_ms\": {q1:.3},\n      \"q3_ms\": {q3:.3},\n      \"recovery_ms\": {recovery:.3},\n      \
             \"rounds_reexecuted\": {}\n    }}",
            row.label, row.rounds_reexecuted,
        ));
    }
    println!(
        "replication overhead (no crash): median {overhead_pct:+.1}% (IQR {oq1:+.1} .. {oq3:+.1}%) \
         over the unreplicated baseline ({runs} interleaved pair(s), {rounds} round(s), ack-gated commits)"
    );

    if smoke {
        println!("smoke mode: skipping BENCH_failover_round.json");
        return;
    }

    let host_cores = std::thread::available_parallelism().map_or(0, usize::from);
    let json = format!(
        "{{\n  \"bench\": \"failover_round\",\n  \"transport\": \"tcp\",\n  \
         \"host_cores\": {host_cores},\n  \"rounds\": {rounds},\n  \"crash_round\": {crash_round},\n  \
         \"runs\": {runs},\n  \"replication_overhead_pct\": {overhead_pct:.2},\n  \
         \"replication_overhead_iqr_pct\": [{oq1:.2}, {oq3:.2}],\n  \"scenarios\": [\n{}\n  ]\n}}\n",
        entries.join(",\n")
    );
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_failover_round.json"
    );
    std::fs::write(path, json).expect("write BENCH_failover_round.json");
    println!("wrote {path}");
}
