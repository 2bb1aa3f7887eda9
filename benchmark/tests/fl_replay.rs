//! Pins the FL replay to the reference: on a tiny task its per-round
//! aggregates, final accuracy and privacy spend must be bit-equal to
//! `train_session`, so the benchmark never pays for a second full-length
//! reference session to trust its replay.

use dordis_benchmark::flstep::FlReplay;
use dordis_benchmark::trace::Recorder;
use dordis_core::config::TaskSpec;
use dordis_core::sampling::SamplingConfig;
use dordis_core::session::{planned_cohorts, train_session, FlSessionOptions, MidStreamDrop};

#[test]
fn replay_matches_train_session() {
    let spec = TaskSpec::tiny_for_tests(31);
    let mut opts = FlSessionOptions::new(
        3,
        SamplingConfig {
            target_sample: 8,
            population: spec.population,
            over_selection: 1.5,
        },
    );
    let cohorts = planned_cohorts(&spec, &opts);
    opts.droppers = vec![
        MidStreamDrop {
            round: 0,
            client: cohorts[0][2],
            after_chunks: 1,
        },
        MidStreamDrop {
            round: 2,
            client: cohorts[2][0],
            after_chunks: 2,
        },
    ];
    let want = train_session(&spec, &opts).expect("reference session");

    let mut rec = Recorder::new();
    let mut replay = FlReplay::new(&spec, &opts, &mut rec).expect("replay statics");
    for (i, reference) in want.rounds.iter().enumerate() {
        let got = replay.round(i as u32, &mut rec).expect("replayed round");
        assert_eq!(got.cohort, reference.cohort, "round {i} cohort");
        assert_eq!(got.survivors, reference.survivors, "round {i} survivors");
        assert_eq!(got.sum, reference.sum, "round {i} aggregate");
        assert_eq!(
            want.training.records[i].achieved_multiplier, replay.z_star,
            "round {i} noise multiplier"
        );
    }
    let (accuracy, perplexity) = replay.evaluate(&mut rec);
    assert_eq!(accuracy, want.training.final_accuracy);
    assert_eq!(perplexity, want.training.final_perplexity);
    assert_eq!(replay.epsilon(), want.training.epsilon_consumed);
    assert!(rec.counter("xnoise.components_removed") > 0);

    // Skipping ahead from the released aggregates lands on the same model.
    let mut skipped = FlReplay::new(&spec, &opts, &mut rec).expect("replay statics");
    for (i, round) in want.rounds.iter().enumerate() {
        skipped.absorb(i as u32, &round.sum, round.survivors.len(), &mut rec);
    }
    assert_eq!(skipped.global, replay.global);
}
