//! Federated training under distributed DP with every variant from the
//! paper's evaluation: [`train`] runs a task through the one FL round
//! loop in [`crate::session`] over its plain engine.
//!
//! Each round performs the exact DP-relevant computation — clipping,
//! DSkellam encoding, per-client Skellam noise (decomposed for XNoise),
//! modular aggregation over survivors, server-side excess removal,
//! decoding, FedAvg. The plain engine sums the survivors' inputs with no
//! masking, whose cancellation is verified separately by the protocol
//! tests in `dordis-secagg` and `tests/end_to_end.rs`; everything after
//! the sum is the code the secagg sessions run. The privacy ledger
//! records the *achieved* central noise level of every released
//! aggregate, reproducing Figures 1, 8, 9 and Table 2.

use dordis_crypto::prg::{Prg, Seed};
use dordis_dp::mechanism::SkellamSampler;
use dordis_fl::data::Dataset;
use dordis_fl::fedavg::{local_train, LocalTrainConfig};
use dordis_fl::model::{Linear, Mlp, Model};
use dordis_fl::optim::{AdamW, Optimizer, Sgd};
use dordis_fl::tensor::clip_l2;
use dordis_xnoise::decomposition::XNoisePlan;
use dordis_xnoise::enforcement::add_noise_stream;
use serde::{Deserialize, Serialize};

use crate::config::{ModelSpec, OptimizerSpec, TaskSpec, Variant};
use crate::session::{plain_round, run_fl_session_at, statics};
use crate::DordisError;

/// Per-round training record.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct RoundRecord {
    /// Round index (0-based).
    pub round: u32,
    /// Realized ε after this round (0 for non-private runs).
    pub epsilon: f64,
    /// Clients that dropped this round.
    pub dropped: usize,
    /// Central noise multiplier the released aggregate carried.
    pub achieved_multiplier: f64,
    /// Test accuracy, if evaluated this round.
    pub accuracy: Option<f64>,
    /// Test perplexity, if evaluated this round.
    pub perplexity: Option<f64>,
}

/// Result of a training run.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TrainingReport {
    /// Task name.
    pub task: String,
    /// Per-round records.
    pub records: Vec<RoundRecord>,
    /// Rounds actually completed (less than planned for `Early`).
    pub rounds_completed: u32,
    /// Total realized ε (0 for non-private).
    pub epsilon_consumed: f64,
    /// Final test accuracy.
    pub final_accuracy: f64,
    /// Final test perplexity.
    pub final_perplexity: f64,
    /// Whether the run stopped before the planned horizon.
    pub stopped_early: bool,
}

pub(crate) fn build_model(spec: &TaskSpec, data: &Dataset) -> Box<dyn Model> {
    match spec.model {
        ModelSpec::Linear => Box::new(Linear::new(data.dim(), data.num_classes)),
        ModelSpec::Mlp { hidden } => {
            Box::new(Mlp::new(data.dim(), hidden, data.num_classes, spec.seed))
        }
    }
}

pub(crate) fn build_optimizer(spec: &TaskSpec) -> Box<dyn Optimizer> {
    match spec.optimizer {
        OptimizerSpec::Sgd { lr, momentum } => Box::new(Sgd::new(lr, momentum)),
        OptimizerSpec::AdamW { lr, weight_decay } => Box::new(AdamW::new(lr, weight_decay)),
    }
}

pub(crate) fn master_seed(spec: &TaskSpec) -> Seed {
    let mut s = [0u8; 32];
    s[..8].copy_from_slice(&spec.seed.to_le_bytes());
    s[8..12].copy_from_slice(&(spec.name.len() as u32).to_le_bytes());
    s
}

/// One client's clipped local-training delta for one round — the
/// client-side semantic step every engine runs. `client_key` keys the
/// local-training RNG (the client's population index on every engine,
/// so the same `(round, client)` pair yields the same delta
/// everywhere).
#[allow(clippy::too_many_arguments)]
pub(crate) fn clipped_local_delta(
    spec: &TaskSpec,
    model: &mut dyn Model,
    opt: &mut dyn Optimizer,
    global: &[f32],
    train_set: &Dataset,
    shard_idx: &[usize],
    round: u32,
    client_key: u64,
) -> Vec<f32> {
    let shard = train_set.subset(shard_idx);
    let update = local_train(
        model,
        global,
        &shard,
        opt,
        &LocalTrainConfig {
            epochs: spec.local_epochs,
            batch_size: spec.batch_size,
            seed: spec.seed ^ (u64::from(round) << 16) ^ client_key,
        },
    );
    let mut delta = update.delta;
    clip_l2(&mut delta, spec.privacy.clip as f32);
    delta
}

/// The central noise multiplier a released aggregate actually carries,
/// per variant (the quantity the privacy ledger records, Figures 8/9).
pub(crate) fn achieved_noise_multiplier(
    variant: Variant,
    z_star: f64,
    target_variance: f64,
    n: usize,
    surv: usize,
    xnoise_plan: Option<&XNoisePlan>,
) -> f64 {
    match variant {
        Variant::Orig | Variant::Early => z_star * (surv as f64 / n as f64).sqrt(),
        Variant::Conservative { est_dropout } => {
            z_star * (surv as f64 / ((n as f64) * (1.0 - est_dropout))).sqrt()
        }
        Variant::XNoise { .. } => {
            let plan = xnoise_plan.expect("xnoise plan built");
            if n - surv <= plan.dropout_tolerance {
                z_star * plan.inflation().sqrt()
            } else {
                // Beyond tolerance: all added noise stays, but it is
                // still below target.
                let residual = surv as f64 * plan.per_client_variance();
                z_star * (residual / target_variance).sqrt()
            }
        }
        Variant::NonPrivate => 0.0,
    }
}

/// Runs a full training task and reports utility and privacy: the
/// shared session driver over the plain engine, for `spec.rounds`
/// rounds at the task's sampling rate.
///
/// # Errors
///
/// Fails on invalid configuration or infeasible privacy budgets.
pub fn train(spec: &TaskSpec) -> Result<TrainingReport, DordisError> {
    let st = statics(spec, spec.rounds, spec.sample_rate())?;
    let report = run_fl_session_at(&st, None, None, |i, _r, global| plain_round(&st, i, global))?;
    Ok(report.training)
}

/// Adds the one noise share of a variant without removal machinery:
/// `σ²∗ / n` for `Orig`/`Early`, `σ²∗ / (n·(1 - d̂))` for `Conservative`.
pub(crate) fn add_share_noise(
    enc: &mut [u64],
    variant: Variant,
    round_seed: &Seed,
    target_variance: f64,
    n: usize,
    bits: u32,
) {
    let (fork, domain, clients): (&[u8], &[u8], f64) = match variant {
        Variant::Orig | Variant::Early => (b"orig.noise", b"dordis.orig", n as f64),
        Variant::Conservative { est_dropout } => {
            (b"con.noise", b"dordis.con", n as f64 * (1.0 - est_dropout))
        }
        Variant::XNoise { .. } | Variant::NonPrivate => {
            unreachable!("{variant:?} adds no single share")
        }
    };
    let sampler = SkellamSampler::new(target_variance / clients);
    let seed = Prg::fork(round_seed, fork, 0);
    add_noise_stream(enc, &sampler, &seed, domain, true, bits);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dropout::DropoutModel;
    use dordis_fl::data::{synthetic_classification, train_test_split};
    use dordis_fl::eval::{accuracy, perplexity};

    #[test]
    fn non_private_training_learns() {
        let mut spec = TaskSpec::tiny_for_tests(3);
        spec.variant = Variant::NonPrivate;
        spec.rounds = 20;
        let report = train(&spec).unwrap();
        assert_eq!(report.rounds_completed, 20);
        assert_eq!(report.epsilon_consumed, 0.0);
        assert!(
            report.final_accuracy > 0.5,
            "accuracy {}",
            report.final_accuracy
        );
    }

    #[test]
    fn xnoise_consumes_exactly_budget_without_dropout() {
        let spec = TaskSpec::tiny_for_tests(4);
        let report = train(&spec).unwrap();
        assert!(report.epsilon_consumed <= spec.privacy.epsilon + 1e-9);
        assert!(report.epsilon_consumed > 0.5 * spec.privacy.epsilon);
    }

    #[test]
    fn xnoise_holds_budget_under_dropout() {
        let mut spec = TaskSpec::tiny_for_tests(5);
        spec.dropout = DropoutModel::FixedRate { rate: 0.25 };
        let report = train(&spec).unwrap();
        assert!(
            report.epsilon_consumed <= spec.privacy.epsilon + 1e-9,
            "ε = {}",
            report.epsilon_consumed
        );
    }

    #[test]
    fn orig_overruns_budget_under_dropout() {
        let mut spec = TaskSpec::tiny_for_tests(6);
        spec.variant = Variant::Orig;
        spec.dropout = DropoutModel::FixedRate { rate: 0.25 };
        let report = train(&spec).unwrap();
        assert!(
            report.epsilon_consumed > spec.privacy.epsilon,
            "ε = {}",
            report.epsilon_consumed
        );
    }

    #[test]
    fn orig_on_budget_without_dropout() {
        let mut spec = TaskSpec::tiny_for_tests(7);
        spec.variant = Variant::Orig;
        let report = train(&spec).unwrap();
        assert!(report.epsilon_consumed <= spec.privacy.epsilon + 1e-9);
    }

    #[test]
    fn early_stops_before_horizon_under_dropout() {
        let mut spec = TaskSpec::tiny_for_tests(8);
        spec.variant = Variant::Early;
        spec.rounds = 40;
        spec.dropout = DropoutModel::FixedRate { rate: 0.5 };
        let report = train(&spec).unwrap();
        assert!(report.stopped_early, "should stop early");
        assert!(report.rounds_completed < 40);
        assert!(report.epsilon_consumed <= spec.privacy.epsilon * 1.3);
    }

    #[test]
    fn conservative_overshoots_then_wastes_noise() {
        // Con5 with no actual dropout: stays under budget (over-noised).
        let mut spec = TaskSpec::tiny_for_tests(9);
        spec.variant = Variant::Conservative { est_dropout: 0.5 };
        let report = train(&spec).unwrap();
        assert!(
            report.epsilon_consumed < 0.8 * spec.privacy.epsilon,
            "ε = {} should be well under budget",
            report.epsilon_consumed
        );
        // The multiplier Con5 realizes out of 10 sampled clients.
        let z = 1.3;
        let con5 = |surv| achieved_noise_multiplier(spec.variant, z, 1.0, 10, surv, None);
        // Exactly as estimated: on target.
        assert!((con5(5) - z).abs() < 1e-12);
        // No dropout: over-noised by sqrt(2).
        assert!((con5(10) - z * 2f64.sqrt()).abs() < 1e-12);
        // Worse than estimated: under-noised -> privacy overrun.
        assert!(con5(2) < z);
    }

    #[test]
    fn records_are_complete() {
        let spec = TaskSpec::tiny_for_tests(10);
        let report = train(&spec).unwrap();
        assert_eq!(report.records.len(), spec.rounds as usize);
        // Eval happens at the configured cadence.
        assert!(report.records[4].accuracy.is_some());
        assert!(report.records[0].accuracy.is_none());
        // The final metrics are the last round's evaluation.
        let last = report.records.last().unwrap();
        assert_eq!(last.accuracy, Some(report.final_accuracy));
        assert_eq!(last.perplexity, Some(report.final_perplexity));
        // Epsilon is monotone.
        for w in report.records.windows(2) {
            assert!(w[1].epsilon >= w[0].epsilon);
        }
    }

    #[test]
    fn private_training_still_learns() {
        // The median over a handful of seeds: one seed's accuracy is
        // one noise realisation (0.14–0.89 across seeds 11–22), and the
        // claim is about learning.
        let mut accuracies: Vec<f64> = (11..=15)
            .map(|seed| {
                let mut spec = TaskSpec::tiny_for_tests(seed);
                spec.rounds = 20;
                train(&spec).unwrap().final_accuracy
            })
            .collect();
        accuracies.sort_by(f64::total_cmp);
        assert!(accuracies[2] > 0.4, "accuracies {accuracies:?}");
    }

    #[test]
    fn round_whose_whole_cohort_drops_releases_nothing() {
        let mut spec = TaskSpec::tiny_for_tests(16);
        spec.dropout = DropoutModel::FixedRate { rate: 1.0 };
        let report = train(&spec).unwrap();
        assert_eq!(report.rounds_completed, spec.rounds);
        // No ledger entry...
        assert_eq!(report.epsilon_consumed, 0.0);
        for record in &report.records {
            assert_eq!(record.epsilon, 0.0);
            assert_eq!(record.dropped, spec.sampled_per_round);
            assert_eq!(record.achieved_multiplier, 0.0);
        }
        // ...and no model step: the final model is the initial one.
        let data = synthetic_classification(&spec.dataset);
        let (_, test_set) = train_test_split(&data, spec.test_fraction);
        let initial = build_model(&spec, &data);
        assert_eq!(report.final_accuracy, accuracy(initial.as_ref(), &test_set));
        assert_eq!(
            report.final_perplexity,
            perplexity(initial.as_ref(), &test_set)
        );
    }
}

#[cfg(test)]
mod noise_probe_tests {
    use super::*;
    use crate::session::rotation_for;
    use dordis_dp::encoding::Encoder;

    fn variance(xs: &[f64]) -> f64 {
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1.0)
    }

    /// Measures the decoded aggregate-noise variance through the plain
    /// engine and the shared driver. A clip bound of 0 zeroes every
    /// update, so each released aggregate is pure noise.
    fn decoded_noise_variance(variant: Variant, dim: usize, rounds_of_coords: u32) -> f64 {
        let mut spec = TaskSpec::tiny_for_tests(3);
        spec.sampled_per_round = 16;
        spec.variant = variant;
        spec.privacy.clip = 0.0;
        // A linear model of `dim` parameters: (features + 1) × 10 classes.
        spec.dataset.classes = 10;
        spec.dataset.dim = dim / 10 - 1;
        let st = statics(&spec, rounds_of_coords, spec.sample_rate()).unwrap();
        let report =
            run_fl_session_at(&st, None, None, |i, _r, global| plain_round(&st, i, global))
                .unwrap();
        let mut all = Vec::new();
        for round in &report.rounds {
            assert_eq!(round.sum.len(), Encoder::padded_len(dim));
            let rotation = rotation_for(&master_seed(&spec), round.wire_round);
            all.extend(Encoder::new(&spec.privacy.encoding, rotation).decode(&round.sum, dim));
        }
        variance(&all)
    }

    #[test]
    fn orig_and_xnoise_noise_levels_match_through_trainer_path() {
        // Zero dropout: both must decode to noise of variance
        // σ²∗ / γ² in the real domain.
        let dim = 330;
        let orig = decoded_noise_variance(Variant::Orig, dim, 40);
        let xnoise = decoded_noise_variance(
            Variant::XNoise {
                tolerance_frac: 0.5,
                collusion_frac: 0.0,
            },
            dim,
            40,
        );
        let ratio = xnoise / orig;
        assert!(
            (0.85..1.18).contains(&ratio),
            "xnoise var {xnoise} vs orig var {orig} (ratio {ratio})"
        );
    }
}
