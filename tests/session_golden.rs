//! The session golden: one small FL session — VRF sampling, XNoise on,
//! one scripted mid-stream dropper, an MLP, three rounds — hashed into
//! one SHA-256 digest of everything it releases. Every engine runs the
//! same spec against the same digest, so a change that moves any of it
//! (a kernel's arithmetic, the add order of a transform, the cohort
//! decision, the ledger, FedAvg) fails here even when every engine
//! moved with it. A change of method that moves it on purpose records
//! the old and the new digest in CHANGES.md and says why.

use dordis_core::config::{ModelSpec, TaskSpec};
use dordis_core::sampling::SamplingConfig;
use dordis_core::session::{
    planned_cohorts, train_session, train_session_networked, FlSessionOptions, FlSessionReport,
    MidStreamDrop,
};
use dordis_crypto::sha256::sha256;
use dordis_dp::mechanism::with_scalar_draws;

/// The digest of [`spec`]'s session, recorded at commit bbb0827.
const GOLDEN: &str = "5b2e7d9db4983e031d59a8157ca6869d0a288071ec4403d4d3dad8d0d8810564";

const ROUNDS: u32 = 3;

fn spec() -> TaskSpec {
    let mut spec = TaskSpec::tiny_for_tests(20_261_019);
    spec.rounds = ROUNDS;
    spec.model = ModelSpec::Mlp { hidden: 6 };
    spec.eval_every = 1;
    spec
}

/// Eight of twenty seated a round; the first seated client of round 1
/// sends one masked chunk frame and disconnects.
fn opts() -> FlSessionOptions {
    let spec = spec();
    let mut opts = FlSessionOptions::new(
        ROUNDS,
        SamplingConfig {
            target_sample: 8,
            population: spec.population,
            over_selection: 1.5,
        },
    );
    opts.droppers.push(MidStreamDrop {
        round: 1,
        client: planned_cohorts(&spec, &opts)[1][0],
        after_chunks: 1,
    });
    opts
}

/// SHA-256 over the final parameters' bits, each round's cohort,
/// survivors, dropouts and released ring words, and the ledger's ε after
/// each round and in total; every list is prefixed with its length.
fn digest(report: &FlSessionReport) -> String {
    fn list<T>(out: &mut Vec<u8>, items: &[T], bytes: impl Fn(&T) -> Vec<u8>) {
        out.extend_from_slice(&(items.len() as u64).to_le_bytes());
        for item in items {
            out.extend(bytes(item));
        }
    }
    let mut all = Vec::new();
    list(&mut all, &report.global, |p| {
        p.to_bits().to_le_bytes().to_vec()
    });
    list(&mut all, &report.rounds, |round| {
        let mut out = Vec::new();
        for ids in [&round.cohort, &round.survivors, &round.dropped] {
            list(&mut out, ids, |id| id.to_le_bytes().to_vec());
        }
        list(&mut out, &round.sum, |word| word.to_le_bytes().to_vec());
        out
    });
    list(&mut all, &report.training.records, |record| {
        record.epsilon.to_bits().to_le_bytes().to_vec()
    });
    all.extend_from_slice(&report.training.epsilon_consumed.to_bits().to_le_bytes());
    sha256(&all).iter().map(|b| format!("{b:02x}")).collect()
}

/// The spec does what the digest claims to cover: three rounds, the
/// dropper lost in its round and only there, noise charged every round.
fn assert_shape(report: &FlSessionReport, opts: &FlSessionOptions) {
    assert_eq!(report.rounds.len(), ROUNDS as usize);
    for (i, round) in report.rounds.iter().enumerate() {
        let dropped: Vec<_> = opts
            .droppers
            .iter()
            .filter(|d| d.round == i as u32)
            .map(|d| d.client)
            .collect();
        assert_eq!(round.dropped, dropped, "round {i}");
        assert!(!round.sum.is_empty(), "round {i} released nothing");
    }
    assert!(report.training.epsilon_consumed > 0.0);
}

#[test]
fn in_memory_session_matches_the_golden() {
    let opts = opts();
    let report = train_session(&spec(), &opts).expect("in-memory session");
    assert_shape(&report, &opts);
    assert_eq!(digest(&report), GOLDEN);
}

/// The in-memory engine draws every client's Skellam noise and the
/// coordinator's removal on the calling thread, so the thread-local
/// switch puts the whole session on the scalar draws.
#[test]
fn scalar_draws_match_the_golden() {
    let opts = opts();
    let report = with_scalar_draws(|| train_session(&spec(), &opts)).expect("in-memory session");
    assert_eq!(digest(&report), GOLDEN);
}

#[test]
fn networked_session_matches_the_golden() {
    let opts = opts();
    let report = train_session_networked(&spec(), &opts).expect("networked session");
    assert_shape(&report, &opts);
    assert_eq!(digest(&report), GOLDEN);
}
