//! Checkpoint/restore exactness for the privacy ledger: serializing a
//! ledger mid-run and restoring it must be invisible — the restored
//! ledger composes ε bit-identically to one that never crashed — and
//! the watermark replay guard must reject re-recording any committed
//! round. Both properties are what makes coordinator failover a
//! *privacy-preserving* operation, not just an availability one.

use dordis_dp::accountant::Mechanism;
use dordis_dp::ledger::PrivacyLedger;
use proptest::prelude::*;

fn mechanism(skellam: bool, l1_per_l2: f64) -> Mechanism {
    if skellam {
        Mechanism::Skellam { l1_per_l2 }
    } else {
        Mechanism::Gaussian
    }
}

/// A plausible per-round observation sequence: sampling rate in (0, 1),
/// achieved multiplier spanning under-noised (dropout) to
/// over-provisioned. Derived from one flat vector (the vendored
/// proptest has no tuple strategies).
fn to_rounds(raw: &[f64]) -> Vec<(f64, f64)> {
    raw.chunks_exact(2)
        .map(|pair| (pair[0].max(1e-3), pair[1] * 4.0))
        .collect()
}

fn raw_rounds() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(0.0f64..1.0, 2..80)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Serialize → restore at an arbitrary cut point, then drive both
    /// the restored ledger and the never-interrupted original through
    /// the identical tail of rounds: every observable — ε, entries,
    /// watermark, and the full serialized state — must match
    /// bit-for-bit.
    #[test]
    fn restore_is_bit_exact_at_any_cut_point(
        raw in raw_rounds(),
        cut_frac in 0.0f64..1.0,
        skellam in any::<bool>(),
        l1_per_l2 in 1.0f64..100.0,
    ) {
        let rounds = to_rounds(&raw);
        let mech = mechanism(skellam, l1_per_l2);
        let mut live = PrivacyLedger::new(mech, 6.0, 1e-2).unwrap();
        let cut = ((rounds.len() as f64) * cut_frac) as usize;
        for &(rate, z) in &rounds[..cut] {
            live.record_round_at(live.watermark() + 1, rate, z).unwrap();
        }

        let mut restored = PrivacyLedger::from_bytes(&live.to_bytes()).unwrap();
        prop_assert_eq!(restored.watermark(), live.watermark());
        prop_assert_eq!(restored.realized_epsilon().to_bits(),
                        live.realized_epsilon().to_bits());

        for &(rate, z) in &rounds[cut..] {
            live.record_round_at(live.watermark() + 1, rate, z).unwrap();
            restored.record_round_at(restored.watermark() + 1, rate, z).unwrap();
        }
        prop_assert!(restored.realized_epsilon().to_bits() == live.realized_epsilon().to_bits(),
                     "restored ledger diverged after the cut");
        prop_assert_eq!(restored.rounds(), live.rounds());
        for (a, b) in restored.entries().iter().zip(live.entries().iter()) {
            prop_assert_eq!(a.round, b.round);
            prop_assert_eq!(a.epsilon_after.to_bits(), b.epsilon_after.to_bits());
            prop_assert_eq!(a.achieved_multiplier.to_bits(), b.achieved_multiplier.to_bits());
        }
        prop_assert_eq!(restored.to_bytes(), live.to_bytes());
    }

    /// The watermark replay guard: after restoring, recording any wire
    /// round at or below the committed watermark is rejected — and
    /// rejected *without* touching the accountant, so a foiled replay
    /// leaves ε unchanged.
    #[test]
    fn replaying_a_recorded_round_is_rejected(
        raw in raw_rounds(),
        skellam in any::<bool>(),
        replay_back in 0u64..50,
    ) {
        let rounds = to_rounds(&raw);
        let mech = mechanism(skellam, 10.0);
        let mut ledger = PrivacyLedger::new(mech, 6.0, 1e-2).unwrap();
        for (i, &(rate, z)) in rounds.iter().enumerate() {
            ledger.record_round_at(i as u64 + 1, rate, z).unwrap();
        }
        let mut restored = PrivacyLedger::from_bytes(&ledger.to_bytes()).unwrap();
        let watermark = restored.watermark();
        prop_assert_eq!(watermark, rounds.len() as u64);

        let eps_before = restored.realized_epsilon().to_bits();
        let replay = watermark.saturating_sub(replay_back).max(1);
        prop_assert!(restored.record_round_at(replay, 0.1, 1.0).is_err(),
                     "replay of committed round {} accepted", replay);
        prop_assert!(restored.realized_epsilon().to_bits() == eps_before,
                     "rejected replay still perturbed the accountant");
        prop_assert_eq!(restored.rounds(), ledger.rounds());

        // The next *legitimate* round is still accepted.
        restored.record_round_at(watermark + 1, 0.1, 1.0).unwrap();
        prop_assert_eq!(restored.watermark(), watermark + 1);
    }
}

/// Ten thousand nested `[` (20 KB) is a parse error, not a stack
/// overflow that aborts the restoring process.
#[test]
fn deeply_nested_checkpoint_is_an_error_not_an_abort() {
    let hostile = "[".repeat(10_000) + &"]".repeat(10_000);
    assert!(PrivacyLedger::from_bytes(hostile.as_bytes()).is_err());
}
