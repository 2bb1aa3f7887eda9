//! Session-level equivalence: a multi-round networked FL session —
//! persistent connections, per-round VRF resampling, one mid-stream
//! dropout and one rejoin per round — produces per-round aggregates
//! bit-equal to the in-memory driver path, and the identical
//! `TrainingReport`.

use dordis_core::config::TaskSpec;
use dordis_core::sampling::SamplingConfig;
use dordis_core::session::{
    planned_cohorts, train_session, train_session_networked, FlSessionOptions, FlSessionReport,
    MidStreamDrop,
};

const ROUNDS: u32 = 5;

fn spec() -> TaskSpec {
    TaskSpec::tiny_for_tests(20_240_517)
}

fn opts() -> FlSessionOptions {
    let spec = spec();
    FlSessionOptions::new(
        ROUNDS,
        SamplingConfig {
            target_sample: 8,
            population: spec.population,
            over_selection: 1.5,
        },
    )
}

/// One scripted mid-stream dropout per round: the last seated cohort
/// member sends one chunk frame, then disconnects (and, networked,
/// reconnects to re-join the next round).
fn with_droppers(mut o: FlSessionOptions) -> FlSessionOptions {
    let cohorts = planned_cohorts(&spec(), &o);
    o.droppers = cohorts
        .iter()
        .enumerate()
        .map(|(i, cohort)| MidStreamDrop {
            round: i as u32,
            client: *cohort.last().expect("non-empty cohort"),
            after_chunks: 1,
        })
        .collect();
    o
}

fn assert_reports_equal(net: &FlSessionReport, mem: &FlSessionReport, label: &str) {
    assert_eq!(net.rounds.len(), mem.rounds.len(), "{label}: round count");
    for (n, m) in net.rounds.iter().zip(mem.rounds.iter()) {
        assert_eq!(n.cohort, m.cohort, "{label}: cohort r{}", n.round);
        assert_eq!(n.survivors, m.survivors, "{label}: survivors r{}", n.round);
        assert_eq!(n.dropped, m.dropped, "{label}: dropped r{}", n.round);
        assert_eq!(
            n.sum, m.sum,
            "{label}: aggregate not bit-equal r{}",
            n.round
        );
    }
    assert_eq!(
        net.training.rounds_completed, mem.training.rounds_completed,
        "{label}: rounds completed"
    );
    for (n, m) in net.training.records.iter().zip(mem.training.records.iter()) {
        assert_eq!(n.round, m.round, "{label}");
        assert_eq!(n.dropped, m.dropped, "{label}: dropped count r{}", n.round);
        assert_eq!(
            n.achieved_multiplier, m.achieved_multiplier,
            "{label}: achieved multiplier r{}",
            n.round
        );
        assert_eq!(n.epsilon, m.epsilon, "{label}: epsilon r{}", n.round);
        assert_eq!(n.accuracy, m.accuracy, "{label}: accuracy r{}", n.round);
        assert_eq!(
            n.perplexity, m.perplexity,
            "{label}: perplexity r{}",
            n.round
        );
    }
    assert_eq!(
        net.training.epsilon_consumed, mem.training.epsilon_consumed,
        "{label}: epsilon"
    );
    assert_eq!(
        net.training.final_accuracy, mem.training.final_accuracy,
        "{label}: final accuracy"
    );
}

#[test]
fn session_cohorts_resample_across_rounds() {
    let cohorts = planned_cohorts(&spec(), &opts());
    assert_eq!(cohorts.len(), ROUNDS as usize);
    for cohort in &cohorts {
        assert!(cohort.len() >= 4, "cohort too small: {cohort:?}");
        assert!(cohort.len() <= 8, "trim exceeded target: {cohort:?}");
    }
    // Per-round VRF resampling actually changes the cohort.
    assert!(
        cohorts.windows(2).any(|w| w[0] != w[1]),
        "cohorts identical across all rounds"
    );
}

/// The acceptance pin: a 5-round networked session on one reactor
/// thread, per-round VRF resampling, one mid-stream dropout per round
/// and one rejoin, bit-equal to the in-memory driver path.
#[test]
fn networked_session_with_dropout_and_rejoin_matches_in_memory_reactor() {
    let o = with_droppers(opts());
    let mem = train_session(&spec(), &o).expect("in-memory session");
    // Every round lost exactly its scripted dropper...
    for (i, round) in mem.rounds.iter().enumerate() {
        assert_eq!(round.dropped.len(), 1, "round {i} should drop one client");
        assert_eq!(round.dropped[0], o.droppers[i].client);
    }
    // ...and a client dropped in round r is seated again in a later
    // round (the rejoin the workload is defined by).
    let rejoined = mem.rounds.iter().enumerate().any(|(i, round)| {
        mem.rounds[i + 1..]
            .iter()
            .any(|later| later.survivors.contains(&round.dropped[0]))
    });
    assert!(rejoined, "no dropped client was ever reseated");

    let net = train_session_networked(&spec(), &o).expect("networked session");
    assert_reports_equal(&net, &mem, "reactor");
}

#[test]
fn clean_session_matches_in_memory() {
    // No dropouts: the pure resampling + persistent-connection path.
    let o = opts();
    let mem = train_session(&spec(), &o).expect("in-memory session");
    for round in &mem.rounds {
        assert!(round.dropped.is_empty());
    }
    let net = train_session_networked(&spec(), &o).expect("networked session");
    assert_reports_equal(&net, &mem, "clean");
    assert!(net.training.epsilon_consumed > 0.0);
}
