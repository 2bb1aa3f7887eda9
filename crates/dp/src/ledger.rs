//! Online privacy-budget ledger.
//!
//! The ledger records, for each completed round, the central noise
//! multiplier the aggregate *actually* carried and maintains the realized
//! `(ε, δ)`. It is the instrument behind the paper's Figures 1 and 8:
//! under `Orig`, dropout removes noise shares, the realized per-round
//! multiplier shrinks by `√((n-|D|)/n)`, and ε overruns the budget; under
//! XNoise every round lands exactly on the planned multiplier and the
//! final ε equals the budget.

use serde::{Deserialize, Serialize};

use crate::accountant::{Mechanism, RdpAccountant};
use crate::DpError;

/// A per-round ledger entry.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct LedgerEntry {
    /// Round index (0-based).
    pub round: u32,
    /// Sampling probability used this round.
    pub sample_rate: f64,
    /// Central noise multiplier the released aggregate carried.
    pub achieved_multiplier: f64,
    /// Realized ε after this round.
    pub epsilon_after: f64,
}

/// Tracks realized privacy loss across a training run.
///
/// # Examples
///
/// Dropout under `Orig` shrinks the achieved noise multiplier and the
/// realized ε overruns the budget; enforced noise stays on budget:
///
/// ```
/// use dordis_dp::accountant::Mechanism;
/// use dordis_dp::ledger::PrivacyLedger;
///
/// let z = 1.0; // Planned per-round multiplier.
/// let mut enforced = PrivacyLedger::new(Mechanism::Gaussian, 6.0, 1e-2).unwrap();
/// let mut dropped = PrivacyLedger::new(Mechanism::Gaussian, 6.0, 1e-2).unwrap();
/// for round in 1..=50 {
///     enforced.record_round_at(round, 0.16, z).unwrap();
///     dropped.record_round_at(round, 0.16, z * 0.7f64.sqrt()).unwrap(); // 30% noise missing.
/// }
/// assert!(dropped.realized_epsilon() > enforced.realized_epsilon());
/// ```
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct PrivacyLedger {
    mechanism: Mechanism,
    delta: f64,
    budget_epsilon: f64,
    accountant: RdpAccountant,
    entries: Vec<LedgerEntry>,
    /// Highest *wire* round id recorded so far (0 = nothing recorded;
    /// wire rounds start at 1). The double-count guard: a restored
    /// ledger refuses to record any round at or below the watermark, so
    /// a round that was committed before a coordinator failover can
    /// never be accounted twice by the successor.
    watermark: u64,
}

impl PrivacyLedger {
    /// Creates a ledger for a run with budget `(ε_G, δ_G)`.
    ///
    /// # Errors
    ///
    /// Rejects out-of-domain budgets.
    pub fn new(mechanism: Mechanism, budget_epsilon: f64, delta: f64) -> Result<Self, DpError> {
        if !(budget_epsilon > 0.0) {
            return Err(DpError::BadParameter("budget epsilon must be positive"));
        }
        if !(delta > 0.0 && delta < 1.0) {
            return Err(DpError::BadParameter("delta must be in (0,1)"));
        }
        Ok(PrivacyLedger {
            mechanism,
            delta,
            budget_epsilon,
            accountant: RdpAccountant::new(),
            entries: Vec::new(),
            watermark: 0,
        })
    }

    /// Records a completed round pinned to an explicit wire round id.
    ///
    /// `achieved_multiplier` is the central noise multiplier of the round's
    /// released aggregate (`σ_achieved / Δ₂`). A zero multiplier (e.g. all
    /// noise lost) is recorded as (near-)infinite privacy loss.
    ///
    /// This is the ledger's one entry point, and it is failover-safe: the
    /// coordinator passes the round id it is committing, and the ledger
    /// refuses to account any round at or below its watermark. Replaying
    /// an already-recorded round — exactly what a naive restart after a
    /// crash between checkpoint and commit would do — is rejected
    /// instead of silently double-counting privacy loss.
    ///
    /// # Errors
    ///
    /// [`DpError::BadParameter`] when `wire_round` is at or below the
    /// watermark (the round was already recorded).
    pub fn record_round_at(
        &mut self,
        wire_round: u64,
        sample_rate: f64,
        achieved_multiplier: f64,
    ) -> Result<(), DpError> {
        if wire_round <= self.watermark {
            return Err(DpError::BadParameter(
                "round already recorded in ledger (watermark replay guard)",
            ));
        }
        // Guard against a degenerate zero-noise release: clamp far below
        // any useful multiplier so ε blows up visibly but finitely.
        let z = achieved_multiplier.max(1e-6);
        self.accountant.record_round(self.mechanism, sample_rate, z);
        let eps = self.accountant.epsilon(self.delta);
        self.entries.push(LedgerEntry {
            round: self.entries.len() as u32,
            sample_rate,
            achieved_multiplier,
            epsilon_after: eps,
        });
        self.watermark = wire_round;
        Ok(())
    }

    /// Highest wire round id recorded so far (0 = nothing recorded).
    #[must_use]
    pub fn watermark(&self) -> u64 {
        self.watermark
    }

    /// Serializes the complete ledger state (accountant accumulator,
    /// entries, watermark) for a coordinator checkpoint. The encoding is
    /// exact: floats round-trip bit-identically, so a restored ledger
    /// continues composing ε as if the crash never happened.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        serde_json::to_string(self)
            .expect("ledger state is always serializable")
            .into_bytes()
    }

    /// Restores a ledger from [`PrivacyLedger::to_bytes`] output.
    ///
    /// # Errors
    ///
    /// [`DpError::BadParameter`] when the bytes do not parse as a ledger
    /// checkpoint.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, DpError> {
        let s = core::str::from_utf8(bytes)
            .map_err(|_| DpError::BadParameter("ledger checkpoint is not utf-8"))?;
        serde_json::from_str(s)
            .map_err(|_| DpError::BadParameter("ledger checkpoint failed to parse"))
    }

    /// Realized ε so far.
    #[must_use]
    pub fn realized_epsilon(&self) -> f64 {
        self.accountant.epsilon(self.delta)
    }

    /// The δ the ledger reports ε at.
    #[must_use]
    pub fn delta(&self) -> f64 {
        self.delta
    }

    /// The configured budget ε_G.
    #[must_use]
    pub fn budget_epsilon(&self) -> f64 {
        self.budget_epsilon
    }

    /// True once realized ε meets or exceeds the budget.
    #[must_use]
    pub fn exhausted(&self) -> bool {
        self.realized_epsilon() >= self.budget_epsilon
    }

    /// Remaining budget (never negative).
    #[must_use]
    pub fn remaining(&self) -> f64 {
        (self.budget_epsilon - self.realized_epsilon()).max(0.0)
    }

    /// All per-round entries recorded so far.
    #[must_use]
    pub fn entries(&self) -> &[LedgerEntry] {
        &self.entries
    }

    /// Number of recorded rounds.
    #[must_use]
    pub fn rounds(&self) -> u32 {
        self.entries.len() as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::{plan, PlannerConfig};

    fn planned() -> (PlannerConfig, f64) {
        let cfg = PlannerConfig {
            epsilon: 6.0,
            delta: 1e-2,
            rounds: 100,
            sample_rate: 0.16,
            mechanism: Mechanism::Gaussian,
        };
        let z = plan(&cfg).unwrap().noise_multiplier;
        (cfg, z)
    }

    #[test]
    fn enforced_noise_lands_on_budget() {
        let (cfg, z) = planned();
        let mut ledger = PrivacyLedger::new(cfg.mechanism, cfg.epsilon, cfg.delta).unwrap();
        for _ in 0..cfg.rounds {
            ledger
                .record_round_at(ledger.watermark() + 1, cfg.sample_rate, z)
                .unwrap();
        }
        let eps = ledger.realized_epsilon();
        assert!(eps <= cfg.epsilon + 1e-9, "eps {eps}");
        assert!(eps > 0.98 * cfg.epsilon, "eps {eps} not tight");
    }

    #[test]
    fn dropout_without_enforcement_overruns_budget() {
        // Orig with 30% dropout: every round's multiplier shrinks by
        // sqrt(0.7); the realized epsilon must exceed the budget.
        let (cfg, z) = planned();
        let mut ledger = PrivacyLedger::new(cfg.mechanism, cfg.epsilon, cfg.delta).unwrap();
        for _ in 0..cfg.rounds {
            ledger
                .record_round_at(ledger.watermark() + 1, cfg.sample_rate, z * 0.7f64.sqrt())
                .unwrap();
        }
        assert!(
            ledger.realized_epsilon() > cfg.epsilon,
            "eps {} should exceed budget",
            ledger.realized_epsilon()
        );
    }

    #[test]
    fn higher_dropout_higher_overrun() {
        let (cfg, z) = planned();
        let mut eps_prev = 0.0;
        for drop in [0.0f64, 0.1, 0.2, 0.4] {
            let mut ledger = PrivacyLedger::new(cfg.mechanism, cfg.epsilon, cfg.delta).unwrap();
            for _ in 0..cfg.rounds {
                ledger
                    .record_round_at(
                        ledger.watermark() + 1,
                        cfg.sample_rate,
                        z * (1.0 - drop).sqrt(),
                    )
                    .unwrap();
            }
            let eps = ledger.realized_epsilon();
            assert!(eps > eps_prev, "drop={drop} eps={eps} prev={eps_prev}");
            eps_prev = eps;
        }
    }

    #[test]
    fn exhaustion_detection_for_early_stopping() {
        let (cfg, z) = planned();
        let mut ledger = PrivacyLedger::new(cfg.mechanism, cfg.epsilon, cfg.delta).unwrap();
        // Under-noised rounds must exhaust before the planned horizon.
        let mut stopped_at = None;
        for r in 0..cfg.rounds {
            if ledger.exhausted() {
                stopped_at = Some(r);
                break;
            }
            ledger
                .record_round_at(ledger.watermark() + 1, cfg.sample_rate, z * 0.6f64.sqrt())
                .unwrap();
        }
        let r = stopped_at.expect("budget should run out early");
        assert!(r < cfg.rounds, "stopped at {r}");
        assert!(ledger.remaining() == 0.0);
    }

    #[test]
    fn entries_are_monotone() {
        let (cfg, z) = planned();
        let mut ledger = PrivacyLedger::new(cfg.mechanism, cfg.epsilon, cfg.delta).unwrap();
        for _ in 0..10 {
            ledger
                .record_round_at(ledger.watermark() + 1, cfg.sample_rate, z)
                .unwrap();
        }
        let entries = ledger.entries();
        assert_eq!(entries.len(), 10);
        for w in entries.windows(2) {
            assert!(w[1].epsilon_after > w[0].epsilon_after);
            assert_eq!(w[1].round, w[0].round + 1);
        }
    }

    #[test]
    fn zero_multiplier_is_clamped_not_infinite() {
        let mut ledger = PrivacyLedger::new(Mechanism::Gaussian, 6.0, 1e-2).unwrap();
        ledger
            .record_round_at(ledger.watermark() + 1, 0.1, 0.0)
            .unwrap();
        assert!(ledger.realized_epsilon().is_finite());
        assert!(ledger.exhausted());
    }

    #[test]
    fn bad_budget_rejected() {
        assert!(PrivacyLedger::new(Mechanism::Gaussian, 0.0, 1e-2).is_err());
        assert!(PrivacyLedger::new(Mechanism::Gaussian, 1.0, 1.0).is_err());
    }
}
