//! Round-time estimation on the simulated cluster (Figures 2 and 10).
//!
//! Combines the heterogeneity generator, the per-stage cost model, and
//! the pipeline planner into the numbers the paper plots: plain vs
//! pipelined round time, broken into aggregation and "other" (local
//! training) components, for each protocol × variant × dropout rate.

use crate::cost::{CostModel, Protocol, RoundCostInput, UnitCosts};
use crate::hetero::{generate, straggler, HeteroConfig};
use crate::planner::{plan_from_cost_model, simulate_pipelined};

/// A timing scenario (one bar group of Figure 10, or one bar of Figure 2).
#[derive(Clone, Debug)]
pub struct TimingScenario {
    /// Scenario label.
    pub name: String,
    /// Model parameter count.
    pub model_params: usize,
    /// Sampled clients per round.
    pub clients: usize,
    /// Aggregation protocol.
    pub protocol: Protocol,
    /// Distributed DP enabled.
    pub dp: bool,
    /// XNoise enabled (tolerance `T = clients / 2`).
    pub xnoise: bool,
    /// Per-round dropout rate.
    pub dropout_rate: f64,
    /// Local-training ("other") seconds per round.
    pub other_secs: f64,
    /// Ring bit width.
    pub bit_width: u32,
}

/// Estimated round time, plain and pipelined.
#[derive(Clone, Copy, Debug)]
pub struct RoundTime {
    /// Aggregation seconds, plain execution.
    pub plain_agg: f64,
    /// Non-aggregation seconds (identical in both modes).
    pub other: f64,
    /// Aggregation seconds under the planned pipeline.
    pub piped_agg: f64,
    /// Chunk count the planner chose.
    pub chunks: usize,
}

impl RoundTime {
    /// Total plain round seconds.
    #[must_use]
    pub fn plain_total(&self) -> f64 {
        self.plain_agg + self.other
    }

    /// Total pipelined round seconds.
    #[must_use]
    pub fn piped_total(&self) -> f64 {
        self.piped_agg + self.other
    }

    /// End-to-end speedup from pipelining.
    #[must_use]
    pub fn speedup(&self) -> f64 {
        self.plain_total() / self.piped_total()
    }

    /// Aggregation share of the plain round (the paper's bar labels).
    #[must_use]
    pub fn agg_fraction(&self) -> f64 {
        self.plain_agg / self.plain_total()
    }
}

/// The heterogeneity configuration matching the paper's testbed: Zipf 1.2
/// with a moderate compute spread (c5.xlarge-class clients).
#[must_use]
pub fn paper_hetero(seed: u64) -> HeteroConfig {
    HeteroConfig {
        zipf_a: 1.2,
        compute_spread: 3.0,
        bandwidth_range: (21.0, 210.0),
        seed,
    }
}

/// Builds the cost-model input for a scenario.
#[must_use]
pub fn cost_input(s: &TimingScenario, hetero: &HeteroConfig) -> RoundCostInput {
    let profiles = generate(s.clients, hetero);
    RoundCostInput {
        clients: s.clients,
        vector_len: s.model_params,
        protocol: s.protocol,
        dropout_rate: s.dropout_rate,
        dp_enabled: s.dp,
        xnoise_components: if s.xnoise { s.clients / 2 } else { 0 },
        bit_width: s.bit_width,
        straggler: straggler(&profiles),
        other_secs: s.other_secs,
    }
}

/// Estimates the round time for a scenario under the given calibration.
#[must_use]
pub fn estimate(s: &TimingScenario, units: &UnitCosts, seed: u64) -> RoundTime {
    let cost = CostModel::new(*units);
    let input = cost_input(s, &paper_hetero(seed));
    let (plain_agg, other) = cost.plain_round(&input);
    let plan = plan_from_cost_model(&cost, &input, 20, seed);
    let piped_agg = simulate_pipelined(&cost, &input, plan.chunks);
    RoundTime {
        plain_agg,
        other,
        piped_agg: piped_agg.min(plain_agg),
        chunks: plan.chunks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scenario(params: usize, clients: usize, xnoise: bool, drop: f64) -> TimingScenario {
        TimingScenario {
            name: "t".into(),
            model_params: params,
            clients,
            protocol: Protocol::SecAgg,
            dp: true,
            xnoise,
            dropout_rate: drop,
            other_secs: 60.0,
            bit_width: 20,
        }
    }

    #[test]
    fn aggregation_dominates() {
        let rt = estimate(
            &scenario(11_000_000, 100, false, 0.1),
            &UnitCosts::paper_testbed(),
            1,
        );
        assert!(rt.agg_fraction() > 0.85, "agg frac {}", rt.agg_fraction());
    }

    #[test]
    fn pipelining_speeds_up_large_models() {
        let rt = estimate(
            &scenario(11_000_000, 100, false, 0.1),
            &UnitCosts::paper_testbed(),
            2,
        );
        assert!(rt.speedup() > 1.3, "speedup {}", rt.speedup());
        assert!(rt.speedup() < 3.0);
        assert!(rt.chunks > 1);
    }

    #[test]
    fn xnoise_adds_bounded_overhead() {
        let base = estimate(
            &scenario(1_000_000, 100, false, 0.0),
            &UnitCosts::paper_testbed(),
            3,
        );
        let with = estimate(
            &scenario(1_000_000, 100, true, 0.0),
            &UnitCosts::paper_testbed(),
            3,
        );
        let overhead = (with.plain_total() - base.plain_total()) / base.plain_total();
        assert!(overhead > 0.0, "overhead {overhead}");
        assert!(
            overhead < 0.40,
            "overhead {overhead} exceeds the paper's 34%"
        );
    }

    #[test]
    fn xnoise_overhead_decreases_with_dropout() {
        let u = UnitCosts::paper_testbed();
        let over = |rate: f64| {
            let base = estimate(&scenario(1_000_000, 100, false, rate), &u, 4);
            let with = estimate(&scenario(1_000_000, 100, true, rate), &u, 4);
            (with.plain_total() - base.plain_total()) / base.plain_total()
        };
        assert!(over(0.0) > over(0.3));
    }

    #[test]
    fn secagg_plus_is_faster() {
        let u = UnitCosts::paper_testbed();
        let mut s = scenario(11_000_000, 100, false, 0.1);
        let full = estimate(&s, &u, 5);
        s.protocol = Protocol::SecAggPlus;
        let plus = estimate(&s, &u, 5);
        assert!(plus.plain_total() < full.plain_total());
    }

    #[test]
    fn piped_never_slower_than_plain() {
        let u = UnitCosts::paper_testbed();
        for params in [1_000_000usize, 11_000_000, 20_000_000] {
            for clients in [16usize, 100] {
                let rt = estimate(&scenario(params, clients, true, 0.1), &u, 6);
                assert!(rt.piped_agg <= rt.plain_agg + 1e-9);
            }
        }
    }
}
