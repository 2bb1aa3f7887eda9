//! A tiny end-to-end pass of the whole harness with real `dordis`
//! processes: the untraced and the traced run must parse, verify, and
//! emit every named metric, with the stepper's residual under its limit.

use dordis_benchmark::proc::build_dordis;
use dordis_benchmark::workloads::{per_layer, TcpWorkload, END_TO_END, MAX_RESIDUAL_SHARE};
use dordis_benchmark::{e2e, tcp, traced};

/// Small enough for a test. Its one dropper vanishes before unmasking
/// every round, which forces the ExcessiveNoiseRemoval stage and a
/// re-join; the planner realizes a single chunk at this size, so there
/// is no stream for a mid-stream dropper to stop in.
const TINY: TcpWorkload = TcpWorkload {
    name: "tiny_smoke",
    clients: 8,
    dim: 256,
    bits: 20,
    threshold: 4,
    noise_components: 3,
    droppers: 1,
    timed_rounds: 1,
    stepper_rounds: 2,
};

#[test]
fn tiny_workload_end_to_end() {
    let bin = build_dordis().expect("dordis builds");

    let run = e2e::run_tcp(&bin, &TINY, 5, 1);
    assert_eq!(run.failed, 0, "{:?}", run.notes);
    assert!(run.attempted >= 2);
    for metric in END_TO_END {
        let value = run.metric(metric.name).expect(metric.name);
        assert!(value > 0.0, "{} = {value}", metric.name);
    }

    let run = traced::run_tcp(&bin, &TINY, 5);
    assert_eq!(run.failed, 0, "{:?}", run.notes);
    let names: Vec<_> = run.metrics.iter().map(|(n, _, u)| (*n, *u)).collect();
    assert_eq!(names, per_layer());
    assert!(run.metric("trace.residual_share").unwrap() < MAX_RESIDUAL_SHARE);
    // The churn path was really driven: stage 5 stepped, and the
    // dropper's input stayed in every aggregate.
    assert_eq!(run.metric("net.session.dropped_per_round"), Some(0.0));
    assert!(run.metric("secagg.client.noise_shares_s").unwrap() > 0.0);
    assert!(run.metric("net.runtime.client_cpu_s_per_round").unwrap() >= 0.0);
}

#[test]
fn expired_deadline_fails_the_session() {
    let bin = build_dordis().expect("dordis builds");
    // The children this starts are killed and reaped before the error
    // comes back (`Fleet`'s drop), so the test leaves nothing running.
    let err =
        tcp::run_session(&bin, &TINY, 5, 2, std::time::Instant::now()).expect_err("no time to run");
    assert!(err.contains("deadline"), "{err}");
}
