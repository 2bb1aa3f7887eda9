//! Optimal chunk-count search (§4.2).
//!
//! Dordis reduces pipeline planning to choosing the number of equal
//! chunks `m`; the planner evaluates the Appendix C makespan at every
//! `m ∈ [1, max_chunks]` using fitted per-stage models and returns the
//! argmin. It also bridges the simulator's cost model into fitted stage
//! models via profiling.

use crate::cost::{CostModel, Protocol, RoundCostInput, UnitCosts};
use crate::hetero::ClientProfile;
use crate::perfmodel::{fit, profile, StageModel};
use crate::schedule::schedule;
use crate::Resource;

/// Result of planning.
#[derive(Clone, Debug)]
pub struct PipelinePlan {
    /// Chosen chunk count `m*`.
    pub chunks: usize,
    /// Predicted makespan at `m*`, seconds.
    pub makespan: f64,
    /// Predicted makespan at `m = 1` (plain execution), seconds.
    pub plain: f64,
    /// Full sweep: `makespan[m-1]` for each evaluated `m`.
    pub sweep: Vec<f64>,
}

impl PipelinePlan {
    /// Speedup of the chosen plan over plain execution.
    #[cfg(test)]
    #[must_use]
    fn speedup(&self) -> f64 {
        self.plain / self.makespan
    }
}

/// Picks the optimal `m` given per-stage fitted models and resources.
///
/// # Panics
///
/// Panics if `models`/`resources` lengths differ or `max_chunks == 0`.
#[must_use]
pub fn plan(models: &[StageModel], resources: &[Resource], max_chunks: usize) -> PipelinePlan {
    assert_eq!(models.len(), resources.len());
    assert!(max_chunks >= 1);
    let mut sweep = Vec::with_capacity(max_chunks);
    for m in 1..=max_chunks {
        let tau: Vec<f64> = models.iter().map(|s| s.predict(m)).collect();
        sweep.push(schedule(&tau, resources, m).makespan);
    }
    let (best_idx, best) = sweep
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.partial_cmp(b.1).expect("finite makespans"))
        .expect("non-empty sweep");
    PipelinePlan {
        chunks: best_idx + 1,
        makespan: *best,
        plain: sweep[0],
        sweep: sweep.clone(),
    }
}

/// Profiles the simulator's cost model into per-stage fitted models (the
/// paper's offline micro-benchmarking: execute the protocol on proxy
/// data at several chunk counts and regress).
#[must_use]
fn profile_cost_model(
    cost: &CostModel,
    input: &RoundCostInput,
    profile_noise: f64,
    seed: u64,
) -> (Vec<StageModel>, Vec<Resource>) {
    let probe_ms: Vec<usize> = vec![1, 2, 3, 4, 6, 8, 12, 16, 20];
    let stage_count = cost.stage_costs(input).len();
    let resources: Vec<Resource> = cost.stage_costs(input).iter().map(|s| s.resource).collect();
    let mut models = Vec::with_capacity(stage_count);
    for s in 0..stage_count {
        let samples = profile(
            |m| cost.chunked_stage_costs(input, m)[s].secs,
            &probe_ms,
            profile_noise,
            seed ^ (s as u64) << 8,
        );
        models.push(fit(&samples, input.vector_len as f64));
    }
    (models, resources)
}

/// End-to-end: profile the cost model, fit, and plan. Returns the plan
/// computed over fitted models (what deployed Dordis would do).
#[must_use]
pub fn plan_from_cost_model(
    cost: &CostModel,
    input: &RoundCostInput,
    max_chunks: usize,
    seed: u64,
) -> PipelinePlan {
    let (models, resources) = profile_cost_model(cost, input, 0.03, seed);
    plan(&models, &resources, max_chunks)
}

/// Ground-truth pipelined round time at a given `m` straight from the
/// cost model (no fitting) — used to evaluate plan quality and to
/// produce the Figure 10 numbers.
#[must_use]
pub fn simulate_pipelined(cost: &CostModel, input: &RoundCostInput, m: usize) -> f64 {
    let stages = cost.chunked_stage_costs(input, m);
    let tau: Vec<f64> = stages.iter().map(|s| s.secs).collect();
    let resources: Vec<Resource> = stages.iter().map(|s| s.resource).collect();
    schedule(&tau, &resources, m).makespan
}

/// Planner-chosen chunk count for a networked round: profiles the
/// paper-testbed cost model at the round's dimension/population and
/// returns the makespan-minimizing `m ∈ [1, 20]` (§4.2). This is what
/// `--chunks` defaults to when unspecified; tiny rounds come out at
/// small `m` because the per-chunk intervention overhead (`β₂ m`)
/// swamps the overlap gain.
#[must_use]
pub fn planned_chunk_count(vector_len: usize, clients: usize, bit_width: u32) -> usize {
    let cost = CostModel::new(UnitCosts::paper_testbed());
    let input = RoundCostInput {
        clients: clients.max(2),
        vector_len: vector_len.max(1),
        protocol: Protocol::SecAgg,
        dropout_rate: 0.1,
        dp_enabled: true,
        xnoise_components: 0,
        bit_width,
        straggler: ClientProfile {
            compute_factor: 2.0,
            bandwidth_mbps: 21.0,
        },
        other_secs: 0.0,
    };
    plan_from_cost_model(&cost, &input, 20, 1).chunks
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's Figure 10 regime: 100 sampled clients, moderate
    /// straggler, tolerance T = n/2.
    fn input(d: usize) -> RoundCostInput {
        RoundCostInput {
            clients: 100,
            vector_len: d,
            protocol: Protocol::SecAgg,
            dropout_rate: 0.1,
            dp_enabled: true,
            xnoise_components: 50,
            bit_width: 20,
            straggler: ClientProfile {
                compute_factor: 2.0,
                bandwidth_mbps: 21.0,
            },
            other_secs: 20.0,
        }
    }

    #[test]
    fn plan_beats_plain_for_large_models() {
        let cost = CostModel::new(UnitCosts::paper_testbed());
        let plan = plan_from_cost_model(&cost, &input(11_000_000), 20, 1);
        assert!(plan.chunks > 1, "chose m = {}", plan.chunks);
        assert!(plan.speedup() > 1.2, "speedup {}", plan.speedup());
    }

    #[test]
    fn speedup_within_amdahl_bounds() {
        // Three resources bound the speedup at 3x; the paper reports up
        // to ~2.4x for the aggregation part.
        let cost = CostModel::new(UnitCosts::paper_testbed());
        let plan = plan_from_cost_model(&cost, &input(20_000_000), 20, 2);
        assert!(plan.speedup() <= 3.0, "speedup {}", plan.speedup());
        assert!(plan.speedup() > 1.5, "speedup {}", plan.speedup());
    }

    #[test]
    fn larger_models_gain_more() {
        let cost = CostModel::new(UnitCosts::paper_testbed());
        let small = plan_from_cost_model(&cost, &input(1_000_000), 20, 3);
        let large = plan_from_cost_model(&cost, &input(20_000_000), 20, 3);
        assert!(
            large.speedup() >= small.speedup() * 0.98,
            "large {} vs small {}",
            large.speedup(),
            small.speedup()
        );
    }

    #[test]
    fn sweep_is_consistent_with_choice() {
        let cost = CostModel::new(UnitCosts::paper_testbed());
        let plan = plan_from_cost_model(&cost, &input(5_000_000), 20, 4);
        assert_eq!(plan.sweep.len(), 20);
        let min = plan.sweep.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!((plan.makespan - min).abs() < 1e-9);
        assert!((plan.sweep[plan.chunks - 1] - plan.makespan).abs() < 1e-9);
    }

    #[test]
    fn fitted_plan_close_to_ground_truth_optimum() {
        // The planner works on fitted models; its chosen m should be
        // within a few percent of the true optimum.
        let cost = CostModel::new(UnitCosts::paper_testbed());
        let inp = input(11_000_000);
        let plan = plan_from_cost_model(&cost, &inp, 20, 5);
        let truth_best = (1..=20)
            .map(|m| simulate_pipelined(&cost, &inp, m))
            .fold(f64::INFINITY, f64::min);
        let achieved = simulate_pipelined(&cost, &inp, plan.chunks);
        assert!(
            achieved <= truth_best * 1.10,
            "achieved {achieved} vs best {truth_best}"
        );
    }

    #[test]
    fn too_deep_pipelines_hurt() {
        // Intervention (β₂ m) eventually overwhelms the chunking gain.
        let cost = CostModel::new(UnitCosts::paper_testbed());
        let inp = input(5_000_000);
        let at_4 = simulate_pipelined(&cost, &inp, 4);
        let at_200 = simulate_pipelined(&cost, &inp, 200);
        assert!(at_200 > at_4, "{at_200} !> {at_4}");
    }

    #[test]
    fn planned_count_is_in_range_and_grows_with_dimension() {
        let tiny = planned_chunk_count(1_000, 16, 20);
        let big = planned_chunk_count(11_000_000, 100, 20);
        assert!((1..=20).contains(&tiny));
        assert!((1..=20).contains(&big));
        assert!(big > 1, "large models must pipeline (got m={big})");
    }
}
