//! Coordinator crash recovery: a replicated networked session — primary
//! shipping round-boundary checkpoints to a backup, clients redialing
//! with jittered backoff — killed at every scripted [`KillPoint`] must
//! finish on the backup with a `TrainingReport` bit-equal to the
//! uninterrupted in-memory reference: same per-round aggregates, same
//! `epsilon_consumed` (no round lost from or double-counted in the
//! privacy ledger), same final model.

use dordis_core::config::TaskSpec;
use dordis_core::sampling::SamplingConfig;
use dordis_core::session::{
    train_session, train_session_networked_failover, CrashSpec, FlSessionOptions, FlSessionReport,
};
use dordis_net::faults::KillPoint;

const ROUNDS: u32 = 4;

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

fn assert_reports_equal(got: &FlSessionReport, want: &FlSessionReport, label: &str) {
    assert_eq!(got.rounds.len(), want.rounds.len(), "{label}: round count");
    for (g, w) in got.rounds.iter().zip(want.rounds.iter()) {
        assert_eq!(g.round, w.round, "{label}: round index");
        assert_eq!(g.cohort, w.cohort, "{label}: cohort r{}", g.round);
        assert_eq!(g.survivors, w.survivors, "{label}: survivors r{}", g.round);
        assert_eq!(
            g.sum, w.sum,
            "{label}: aggregate not bit-equal r{}",
            g.round
        );
    }
    // The records are the ledger's audit trail: one entry per round,
    // strictly increasing indexes — a double-recorded round after
    // failover would show up right here.
    let indexes: Vec<u32> = got.training.records.iter().map(|r| r.round).collect();
    assert_eq!(
        indexes,
        (0..ROUNDS).collect::<Vec<_>>(),
        "{label}: record per round, none lost, none doubled"
    );
    for (g, w) in got
        .training
        .records
        .iter()
        .zip(want.training.records.iter())
    {
        assert_eq!(g.epsilon, w.epsilon, "{label}: epsilon r{}", g.round);
        assert_eq!(
            g.achieved_multiplier, w.achieved_multiplier,
            "{label}: achieved multiplier r{}",
            g.round
        );
        assert_eq!(g.accuracy, w.accuracy, "{label}: accuracy r{}", g.round);
    }
    assert_eq!(
        got.training.epsilon_consumed, want.training.epsilon_consumed,
        "{label}: epsilon consumed not bit-equal"
    );
    assert_eq!(
        got.training.final_accuracy, want.training.final_accuracy,
        "{label}: final accuracy"
    );
    assert_eq!(
        got.training.final_perplexity, want.training.final_perplexity,
        "{label}: final perplexity"
    );
}

/// Replication enabled, no crash: every round gated on the backup's
/// ack, clean retirement — still bit-equal to the unreplicated
/// reference (the checkpoint plane must not perturb the protocol).
#[test]
fn replicated_session_without_crash_matches_reference() {
    let o = opts();
    let want = train_session(&spec(), &o).expect("reference session");
    let got = train_session_networked_failover(&spec(), &o, None).expect("replicated session");
    assert_reports_equal(&got, &want, "replicated-no-crash");
}

/// SIGKILL mid-masked-stage: the crashed round never reached a
/// checkpoint, so the successor re-runs it from the committed prefix —
/// same VRF cohort, seeds, and global model ⇒ bit-equal aggregate.
#[test]
fn kill_mid_masked_stage_recovers_bit_equal() {
    let o = opts();
    let want = train_session(&spec(), &o).expect("reference session");
    let got = train_session_networked_failover(
        &spec(),
        &o,
        Some(CrashSpec {
            round: 2,
            point: KillPoint::MidMaskedStage,
        }),
    )
    .expect("failover session");
    assert_reports_equal(&got, &want, "mid-masked-stage");
}

/// SIGKILL during the Setup broadcast: clients already hold round r's
/// model when the primary dies; they must abandon it, redial, and
/// re-run r on the successor.
#[test]
fn kill_during_broadcast_recovers_bit_equal() {
    let o = opts();
    let want = train_session(&spec(), &o).expect("reference session");
    let got = train_session_networked_failover(
        &spec(),
        &o,
        Some(CrashSpec {
            round: 1,
            point: KillPoint::DuringBroadcast,
        }),
    )
    .expect("failover session");
    assert_reports_equal(&got, &want, "during-broadcast");
}

/// SIGKILL between the backup's ack and the primary's commit — the
/// nastiest window: the backup already holds round r, so the successor
/// must resume *past* it, and the ledger's watermark must reject any
/// attempt to record r again.
#[test]
fn kill_between_ack_and_commit_recovers_bit_equal() {
    let o = opts();
    let want = train_session(&spec(), &o).expect("reference session");
    let got = train_session_networked_failover(
        &spec(),
        &o,
        Some(CrashSpec {
            round: 2,
            point: KillPoint::BetweenAckAndCommit,
        }),
    )
    .expect("failover session");
    assert_reports_equal(&got, &want, "between-ack-and-commit");
}

/// A crash in round 0, before any checkpoint exists: the takeover
/// carries no state and the successor starts the session from scratch.
#[test]
fn kill_before_first_checkpoint_restarts_from_scratch() {
    let o = opts();
    let want = train_session(&spec(), &o).expect("reference session");
    let got = train_session_networked_failover(
        &spec(),
        &o,
        Some(CrashSpec {
            round: 0,
            point: KillPoint::MidMaskedStage,
        }),
    )
    .expect("failover session");
    assert_reports_equal(&got, &want, "first-round-crash");
}

/// Hostile bytes for what a process restores: a backup decodes the
/// checkpoint its primary ships (`SessionCheckpoint`, then the
/// `DriverCheckpoint` and ledger inside it), and a session decodes
/// every claim a client sends. Valid encodings, damaged the way
/// `codec_wire.rs`'s hostile-bytes harness damages frames, must come
/// back as a value or a typed error — never a panic or an abort.
mod hostile_restore {
    use dordis_core::sampling::{decode_claim, encode_claim, ParticipationClaim};
    use dordis_core::session::{vrf_key_for, DriverCheckpoint, SessionRoundOutcome};
    use dordis_core::trainer::RoundRecord;
    use dordis_dp::accountant::Mechanism;
    use dordis_dp::ledger::PrivacyLedger;
    use dordis_net::replication::SessionCheckpoint;
    use proptest::collection;
    use proptest::prelude::*;

    /// One valid encoding for each of the four restore decoders, in
    /// the order `decode_all` tries them.
    fn valid_encodings() -> Vec<Vec<u8>> {
        let mut ledger = PrivacyLedger::new(Mechanism::Skellam { l1_per_l2: 3.0 }, 6.0, 1e-2)
            .expect("valid budget");
        ledger.record_round_at(1, 0.1, 1.2).expect("fresh round");
        ledger.record_round_at(2, 0.1, 0.9).expect("fresh round");
        let driver = DriverCheckpoint {
            next_round: 2,
            ledger: ledger.clone(),
            global: vec![0.5, -1.25, 3e-7],
            records: vec![RoundRecord {
                round: 1,
                epsilon: 0.75,
                dropped: 1,
                achieved_multiplier: 0.9,
                accuracy: Some(0.5),
                perplexity: None,
            }],
            rounds: vec![SessionRoundOutcome {
                round: 1,
                wire_round: 2,
                cohort: vec![1, 4, 9],
                survivors: vec![1, 9],
                dropped: vec![4],
                sum: vec![7, 0, u64::MAX],
                stale_frames: 0,
            }],
        };
        let session = SessionCheckpoint {
            round: 2,
            rounds_done: 2,
            view: 1,
            parked: vec![1, 4, 9],
            app_state: driver.to_bytes(),
        };
        let (output, proof) = vrf_key_for(7, 3).evaluate(b"round 2");
        let claim = ParticipationClaim {
            client: 3,
            output,
            proof,
        };
        vec![
            session.encode(),
            driver.to_bytes(),
            ledger.to_bytes(),
            encode_claim(&claim),
        ]
    }

    /// Flips the bits `flips` selects and truncates or extends the tail
    /// as `tail` says (`tail % 3`: leave, cut, append) — the mutation of
    /// `codec_wire.rs`'s hostile-bytes harness.
    fn mutate(bytes: &mut Vec<u8>, flips: &[u64], tail: u64) {
        for &f in flips {
            if !bytes.is_empty() {
                let bit = (f % (bytes.len() as u64 * 8)) as usize;
                bytes[bit / 8] ^= 1 << (bit % 8);
            }
        }
        let amount = (tail >> 8) as usize;
        match tail % 3 {
            1 => bytes.truncate(amount % (bytes.len() + 1)),
            2 => bytes.extend((0..amount % 17).map(|i| (tail >> (i % 8)) as u8)),
            _ => {}
        }
    }

    /// Every restore decoder over `bytes` (and a decoded session
    /// checkpoint's driver state); returns which of them accepted it.
    fn decode_all(bytes: &[u8]) -> [bool; 4] {
        let session = SessionCheckpoint::decode(bytes);
        if let Ok(ckpt) = &session {
            let _ = DriverCheckpoint::from_bytes(&ckpt.app_state);
        }
        [
            session.is_ok(),
            DriverCheckpoint::from_bytes(bytes).is_ok(),
            PrivacyLedger::from_bytes(bytes).is_ok(),
            decode_claim(bytes).is_ok(),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn damaged_restore_bytes_yield_typed_errors_never_panics(
            arbitrary in collection::vec(any::<u8>(), 0..300),
            flips in collection::vec(any::<u64>(), 1..9),
            tail in any::<u64>(),
        ) {
            decode_all(&arbitrary);
            for (k, valid) in valid_encodings().into_iter().enumerate() {
                prop_assert!(decode_all(&valid)[k], "encoding {} must decode", k);
                let mut damaged = valid;
                mutate(&mut damaged, &flips, tail);
                decode_all(&damaged);
            }
        }
    }
}
