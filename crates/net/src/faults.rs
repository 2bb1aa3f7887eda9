//! Fault-injection hooks for coordinator crash testing.
//!
//! The failover test suite needs to kill a primary coordinator at
//! *precisely* chosen moments — mid-masked-stage, during a broadcast,
//! between the backup's checkpoint ack and the local commit — and then
//! assert the backup finishes the session with a bit-equal model and
//! ledger. A [`FaultPlan`] rides in the
//! [`SessionConfig`](crate::session::SessionConfig), and all three
//! [`KillPoint`]s trip inside this crate: `MidMaskedStage` and
//! `DuringBroadcast` in the round (`RoundIo::trip`), and
//! `BetweenAckAndCommit` in
//! [`Session::commit_round`](crate::session::Session::commit_round),
//! right after the backup's ack. `FaultPlan::trip` either does
//! nothing (the default, compiled down to a no-op `None` check on every
//! real deployment) or returns [`NetError::Injected`]. Crucially the
//! injected error is *not* a [`NetError::SecAgg`] — the coordinator's
//! abort path only broadcasts an `Abort` frame for SecAgg failures, so
//! an injected kill propagates as crash-like silence: clients see a
//! dead connection, exactly as if the process had taken a `SIGKILL`.
//! A driver tells that kill from a real failure with
//! [`FaultPlan::is_injected`].

use crate::NetError;

/// A named moment in the coordinator's round at which a simulated crash
/// can be injected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KillPoint {
    /// While masked-input chunks are being collected (the round's data
    /// plane is mid-flight; nothing of this round is checkpointed).
    MidMaskedStage,
    /// Immediately after the Setup broadcast has been flushed to every
    /// seated client (clients hold round state the coordinator loses).
    DuringBroadcast,
    /// After the backup acked the round's checkpoint but before the
    /// primary committed it locally — the adversarial window for the
    /// ledger's double-count guard: the backup already holds round `r`
    /// as recorded, so the successor must *not* record it again.
    BetweenAckAndCommit,
}

impl KillPoint {
    /// Stable label used in the injected error and telemetry.
    #[must_use]
    pub(crate) fn label(self) -> &'static str {
        match self {
            KillPoint::MidMaskedStage => "mid-masked-stage",
            KillPoint::DuringBroadcast => "during-broadcast",
            KillPoint::BetweenAckAndCommit => "between-ack-and-commit",
        }
    }
}

/// A schedule of injected coordinator crashes (at most one per plan).
///
/// Cloneable and cheap: the empty plan is the production default and
/// every `trip` on it is a branch on `None`.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    kill: Option<(u64, KillPoint)>,
}

impl FaultPlan {
    /// The empty plan: no faults, zero overhead.
    #[must_use]
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// A plan that kills the coordinator at `point` of wire round
    /// `round`.
    #[must_use]
    pub fn kill_at(round: u64, point: KillPoint) -> FaultPlan {
        FaultPlan {
            kill: Some((round, point)),
        }
    }

    /// Fires the hook named `point` for wire round `round`.
    ///
    /// # Errors
    ///
    /// [`NetError::Injected`] when the plan schedules a kill here; the
    /// caller must propagate it *without* running its abort broadcast,
    /// so the simulated crash is indistinguishable from a real one.
    pub(crate) fn trip(&self, point: KillPoint, round: u64) -> Result<(), NetError> {
        match self.kill {
            Some((r, p)) if r == round && p == point => {
                Err(NetError::Injected(format!("{} @ round {round}", p.label())))
            }
            _ => Ok(()),
        }
    }

    /// Whether an error came from `FaultPlan::trip` — the failover
    /// driver uses this to tell a simulated crash from a real failure.
    #[must_use]
    pub fn is_injected(e: &NetError) -> bool {
        matches!(e, NetError::Injected(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_never_fires() {
        let plan = FaultPlan::none();
        for round in 0..5 {
            for point in [
                KillPoint::MidMaskedStage,
                KillPoint::DuringBroadcast,
                KillPoint::BetweenAckAndCommit,
            ] {
                assert!(plan.trip(point, round).is_ok());
            }
        }
    }

    #[test]
    fn fires_only_at_its_point_and_round() {
        let plan = FaultPlan::kill_at(3, KillPoint::DuringBroadcast);
        assert!(plan.trip(KillPoint::DuringBroadcast, 2).is_ok());
        assert!(plan.trip(KillPoint::MidMaskedStage, 3).is_ok());
        let err = plan.trip(KillPoint::DuringBroadcast, 3).unwrap_err();
        assert!(FaultPlan::is_injected(&err));
        assert!(err.to_string().contains("during-broadcast"));
        // Injected faults must not look like SecAgg aborts (the abort
        // path would otherwise broadcast instead of crashing silently).
        assert!(!matches!(err, NetError::SecAgg(_)));
    }
}
