//! A 3-round networked FL session: persistent 127.0.0.1 connections,
//! per-round VRF cohort resampling (§7), the global model travelling in
//! each round's Setup payload, one scripted mid-stream dropout with a
//! rejoin — and the same session through the in-memory driver, to show
//! the per-round aggregates agree bit for bit.
//!
//! ```sh
//! cargo run --release --example session_round
//! ```
//!
//! For the multi-process version over TCP, see
//! `dordis serve --rounds R` / `dordis join` (README quickstart).

use dordis_core::config::TaskSpec;
use dordis_core::sampling::SamplingConfig;
use dordis_core::session::{
    planned_cohorts, train_session, train_session_networked, FlSessionOptions, MidStreamDrop,
};

fn main() {
    let spec = TaskSpec::tiny_for_tests(99);
    let mut opts = FlSessionOptions::new(
        3,
        SamplingConfig {
            target_sample: 8,
            population: spec.population,
            over_selection: 1.5,
        },
    );

    // Script one mid-stream dropout in round 1: the last seated client
    // sends one chunk frame, disconnects, then reconnects and re-joins
    // round 2 — the paper's defining per-round dropout-and-rejoin
    // workload.
    let cohorts = planned_cohorts(&spec, &opts);
    let dropper = *cohorts[1].last().expect("cohort");
    opts.droppers = vec![MidStreamDrop {
        round: 1,
        client: dropper,
        after_chunks: 1,
    }];

    println!("== networked session (127.0.0.1, persistent connections) ==");
    let net = train_session_networked(&spec, &opts).expect("networked session");
    for round in &net.rounds {
        println!(
            "round {} (wire {}): cohort {:?}\n  survivors {:?}  dropped {:?}",
            round.round, round.wire_round, round.cohort, round.survivors, round.dropped
        );
    }
    println!(
        "final accuracy {:.2}%, epsilon spent {:.3}",
        net.training.final_accuracy * 100.0,
        net.training.epsilon_consumed
    );

    println!("\n== in-memory driver session (same seeds, scripted dropout) ==");
    let mem = train_session(&spec, &opts).expect("in-memory session");

    assert_eq!(net.rounds.len(), mem.rounds.len());
    for (n, m) in net.rounds.iter().zip(mem.rounds.iter()) {
        assert_eq!(n.cohort, m.cohort, "cohorts must match");
        assert_eq!(n.survivors, m.survivors, "survivors must match");
        assert_eq!(
            n.sum, m.sum,
            "round {} aggregate must be bit-equal",
            n.round
        );
    }
    assert_eq!(net.training.final_accuracy, mem.training.final_accuracy);
    assert!(
        net.rounds[1].dropped.contains(&dropper),
        "scripted dropper must be detected"
    );
    assert!(
        net.rounds[2].survivors.contains(&dropper) || !net.rounds[2].cohort.contains(&dropper),
        "dropper must complete round 2 if reseated"
    );
    println!("networked and in-memory sessions agree bit for bit ✓");
}
