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
//! matrix in `crates/core/tests/failover.rs` proves them. Recovery
//! cost is reported as wall time over the `replicated` run plus the
//! rounds re-executed (1 for a mid-round kill, whose uncommitted work
//! is lost; 0 for a kill after the backup's ack, where the successor
//! resumes past the committed round).
//!
//! Results land in `BENCH_failover_round.json` at the workspace root;
//! `FAILOVER_ROUND_SMOKE=1` shrinks the schedule for CI and skips the
//! JSON write.
//!
//! ```sh
//! cargo bench -p dordis-bench --bench failover_round
//! FAILOVER_ROUND_SMOKE=1 cargo bench -p dordis-bench --bench failover_round
//! ```

use std::time::{Duration, Instant};

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

struct Scenario {
    label: &'static str,
    wall: Duration,
    rounds_reexecuted: u32,
}

fn timed(
    label: &'static str,
    rounds_reexecuted: u32,
    want: &FlSessionReport,
    run: impl Fn() -> FlSessionReport,
    best_of: u32,
) -> Scenario {
    let mut wall = Duration::MAX;
    for _ in 0..best_of {
        let start = Instant::now();
        let report = run();
        wall = wall.min(start.elapsed());
        assert_matches(&report, want, label);
    }
    Scenario {
        label,
        wall,
        rounds_reexecuted,
    }
}

fn main() {
    let smoke = std::env::var("FAILOVER_ROUND_SMOKE").is_ok_and(|v| !v.is_empty() && v != "0");
    let rounds: u32 = if smoke { 3 } else { 6 };
    let best_of = if smoke { 1 } else { 2 };
    let crash_round = rounds / 2;

    let (spec, o) = opts(rounds);
    let want = train_session(&spec, &o).expect("in-memory reference");

    let kill_points = [
        ("failover:mid-masked-stage", KillPoint::MidMaskedStage, 1),
        ("failover:during-broadcast", KillPoint::DuringBroadcast, 1),
        (
            "failover:between-ack-and-commit",
            KillPoint::BetweenAckAndCommit,
            0,
        ),
    ];

    let mut rows = Vec::new();
    rows.push(timed(
        "baseline",
        0,
        &want,
        || train_session_networked(&spec, &o).expect("baseline"),
        best_of,
    ));
    rows.push(timed(
        "replicated",
        0,
        &want,
        || train_session_networked_failover(&spec, &o, None).expect("replicated"),
        best_of,
    ));
    for (label, point, reexec) in kill_points {
        rows.push(timed(
            label,
            reexec,
            &want,
            || {
                train_session_networked_failover(
                    &spec,
                    &o,
                    Some(CrashSpec {
                        round: crash_round,
                        point,
                    }),
                )
                .expect(label)
            },
            best_of,
        ));
    }

    let baseline = rows[0].wall;
    let replicated = rows[1].wall;
    for row in &rows {
        let recovery = row.wall.saturating_sub(replicated);
        println!(
            "{:32} {:8.2} ms wall | {:+7.2} ms over replicated | {} round(s) re-executed",
            row.label,
            row.wall.as_secs_f64() * 1e3,
            if row.label.starts_with("failover") {
                recovery.as_secs_f64() * 1e3
            } else {
                0.0
            },
            row.rounds_reexecuted,
        );
    }
    let overhead_pct = (replicated.as_secs_f64() / baseline.as_secs_f64().max(1e-9) - 1.0) * 100.0;
    println!(
        "replication overhead (no crash): {overhead_pct:+.1}% over the unreplicated baseline \
         ({rounds} round(s), ack-gated commits)"
    );

    if smoke {
        println!("smoke mode: skipping BENCH_failover_round.json");
        return;
    }

    let mut entries = String::new();
    for (i, row) in rows.iter().enumerate() {
        if i > 0 {
            entries.push_str(",\n");
        }
        let recovery_ms = if row.label.starts_with("failover") {
            row.wall.saturating_sub(replicated).as_secs_f64() * 1e3
        } else {
            0.0
        };
        entries.push_str(&format!(
            "    {{\n      \"scenario\": \"{}\",\n      \"wall_ms\": {:.3},\n      \
             \"recovery_ms\": {:.3},\n      \"rounds_reexecuted\": {}\n    }}",
            row.label,
            row.wall.as_secs_f64() * 1e3,
            recovery_ms,
            row.rounds_reexecuted,
        ));
    }
    let json = format!(
        "{{\n  \"bench\": \"failover_round\",\n  \"transport\": \"tcp\",\n  \
         \"rounds\": {rounds},\n  \"crash_round\": {crash_round},\n  \
         \"replication_overhead_pct\": {overhead_pct:.2},\n  \"scenarios\": [\n{entries}\n  ]\n}}\n"
    );
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_failover_round.json"
    );
    std::fs::write(path, json).expect("write BENCH_failover_round.json");
    println!("wrote {path}");
}
