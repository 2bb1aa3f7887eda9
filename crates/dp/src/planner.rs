//! Offline noise planning (paper §2.2).
//!
//! Given a global privacy budget `(ε_G, δ_G)` that the whole training run
//! may consume, the planner binary-searches the minimum per-round central
//! noise multiplier `z∗ = σ∗/Δ₂` such that composing all rounds stays
//! within budget. "Minimum" matters: any extra noise is pure utility loss,
//! which is exactly why `Orig`-style under-noising (dropout) or
//! conservative over-noising (the paper's `ConX` variants) are both bad.

use crate::accountant::{Mechanism, RdpAccountant};
use crate::DpError;

/// Inputs to offline noise planning.
#[derive(Clone, Copy, Debug)]
pub struct PlannerConfig {
    /// Global privacy budget ε_G.
    pub epsilon: f64,
    /// Global privacy budget δ_G.
    pub delta: f64,
    /// Total number of training rounds.
    pub rounds: u32,
    /// Per-round client sampling probability.
    pub sample_rate: f64,
    /// Which mechanism perturbs the aggregate.
    pub mechanism: Mechanism,
}

/// The result of offline noise planning.
#[derive(Clone, Copy, Debug)]
pub struct NoisePlan {
    /// Minimum central noise multiplier `z∗ = σ∗ / Δ₂` per round.
    pub noise_multiplier: f64,
    /// The ε this plan actually realizes (≤ the budget, nearly tight).
    pub realized_epsilon: f64,
}

/// Plans the minimum per-round noise for the given budget.
///
/// # Errors
///
/// Returns [`DpError::InfeasibleBudget`] if even enormous noise cannot meet
/// the budget (e.g. δ ≥ 1 requested indirectly) or
/// [`DpError::BadParameter`] for out-of-domain inputs.
pub fn plan(cfg: &PlannerConfig) -> Result<NoisePlan, DpError> {
    if !(cfg.epsilon > 0.0) {
        return Err(DpError::BadParameter("epsilon must be positive"));
    }
    if !(cfg.delta > 0.0 && cfg.delta < 1.0) {
        return Err(DpError::BadParameter("delta must be in (0,1)"));
    }
    if cfg.rounds == 0 {
        return Err(DpError::BadParameter("rounds must be positive"));
    }
    if !(cfg.sample_rate > 0.0 && cfg.sample_rate <= 1.0) {
        return Err(DpError::BadParameter("sample_rate must be in (0,1]"));
    }

    let eps_at = |z: f64| -> f64 {
        RdpAccountant::project(cfg.mechanism, cfg.sample_rate, z, cfg.rounds, cfg.delta)
    };

    // Bracket: grow `hi` until the budget is met.
    let mut lo = 1e-3;
    let mut hi = 1.0;
    let mut guard = 0;
    while eps_at(hi) > cfg.epsilon {
        hi *= 2.0;
        guard += 1;
        if guard > 60 {
            return Err(DpError::InfeasibleBudget(format!(
                "ε={} δ={} not reachable even with z={hi}",
                cfg.epsilon, cfg.delta
            )));
        }
    }
    if eps_at(lo) <= cfg.epsilon {
        // Essentially free; return the bracket floor.
        return Ok(NoisePlan {
            noise_multiplier: lo,
            realized_epsilon: eps_at(lo),
        });
    }
    // Binary search: eps_at is monotone decreasing in z.
    for _ in 0..80 {
        let mid = 0.5 * (lo + hi);
        if eps_at(mid) > cfg.epsilon {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Ok(NoisePlan {
        noise_multiplier: hi,
        realized_epsilon: eps_at(hi),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> PlannerConfig {
        PlannerConfig {
            epsilon: 6.0,
            delta: 1e-2,
            rounds: 150,
            sample_rate: 0.16,
            mechanism: Mechanism::Gaussian,
        }
    }

    #[test]
    fn plan_meets_budget_tightly() {
        let p = plan(&cfg()).unwrap();
        assert!(p.realized_epsilon <= 6.0);
        assert!(p.realized_epsilon > 5.9, "got {}", p.realized_epsilon);
        assert!(p.noise_multiplier > 0.0);
    }

    #[test]
    fn smaller_budget_needs_more_noise() {
        let loose = plan(&cfg()).unwrap();
        let tight = plan(&PlannerConfig {
            epsilon: 3.0,
            ..cfg()
        })
        .unwrap();
        assert!(tight.noise_multiplier > loose.noise_multiplier);
    }

    #[test]
    fn more_rounds_need_more_noise() {
        let short = plan(&cfg()).unwrap();
        let long = plan(&PlannerConfig {
            rounds: 600,
            ..cfg()
        })
        .unwrap();
        assert!(long.noise_multiplier > short.noise_multiplier);
    }

    #[test]
    fn lower_sampling_rate_needs_less_noise() {
        let dense = plan(&cfg()).unwrap();
        let sparse = plan(&PlannerConfig {
            sample_rate: 0.02,
            ..cfg()
        })
        .unwrap();
        assert!(sparse.noise_multiplier < dense.noise_multiplier);
    }

    #[test]
    fn skellam_needs_at_least_gaussian_noise() {
        let g = plan(&cfg()).unwrap();
        let s = plan(&PlannerConfig {
            mechanism: Mechanism::Skellam { l1_per_l2: 10.0 },
            ..cfg()
        })
        .unwrap();
        assert!(s.noise_multiplier >= g.noise_multiplier * 0.999);
    }

    #[test]
    fn invalid_parameters_rejected() {
        assert!(plan(&PlannerConfig {
            epsilon: 0.0,
            ..cfg()
        })
        .is_err());
        assert!(plan(&PlannerConfig {
            delta: 0.0,
            ..cfg()
        })
        .is_err());
        assert!(plan(&PlannerConfig { rounds: 0, ..cfg() }).is_err());
        assert!(plan(&PlannerConfig {
            sample_rate: 0.0,
            ..cfg()
        })
        .is_err());
        assert!(plan(&PlannerConfig {
            sample_rate: 1.5,
            ..cfg()
        })
        .is_err());
    }
}
