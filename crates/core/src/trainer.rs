//! The semantic training loop: federated training under distributed DP
//! with every variant from the paper's evaluation.
//!
//! This path performs the exact DP-relevant computation — clipping,
//! DSkellam encoding, per-client Skellam noise (decomposed for XNoise),
//! modular aggregation over survivors, server-side excess removal,
//! decoding, FedAvg — while skipping the masking crypto, whose
//! correctness (masks cancel exactly) is verified separately by the
//! protocol tests in `dordis-secagg` and [`crate::protocol`]. The privacy
//! ledger records the *achieved* central noise level of every released
//! aggregate, reproducing Figures 1, 8, 9 and Table 2.

use dordis_crypto::prg::{Prg, Seed};
use dordis_dp::accountant::Mechanism;
use dordis_dp::encoding::{add_mod, Encoder};
use dordis_dp::ledger::PrivacyLedger;
use dordis_dp::mechanism::SkellamSampler;
use dordis_dp::planner::{plan, PlannerConfig};
use dordis_fl::data::{dirichlet_partition, synthetic_classification, train_test_split, Dataset};
use dordis_fl::eval::{accuracy, perplexity};
use dordis_fl::fedavg::{apply_update, local_train, LocalTrainConfig};
use dordis_fl::model::{Linear, Mlp, Model};
use dordis_fl::optim::{AdamW, Optimizer, Sgd};
use dordis_fl::tensor::clip_l2;
use dordis_xnoise::decomposition::XNoisePlan;
use dordis_xnoise::enforcement::{
    add_noise_stream, derive_component_seeds, perturb, remove_excess,
};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::config::{ModelSpec, OptimizerSpec, TaskSpec, Variant};
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
/// client-side semantic step both the in-memory trainer and the
/// networked session trainer run. `client_key` keys the local-training
/// RNG (the client's population index on every path, so the same
/// `(round, client)` pair yields the same delta everywhere).
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

/// Runs a full training task and reports utility and privacy.
///
/// # Errors
///
/// Fails on invalid configuration or infeasible privacy budgets.
pub fn train(spec: &TaskSpec) -> Result<TrainingReport, DordisError> {
    spec.validate().map_err(DordisError::Config)?;
    let data = synthetic_classification(&spec.dataset);
    let (train_set, test_set) = train_test_split(&data, spec.test_fraction);
    let shards = dirichlet_partition(&train_set, spec.population, spec.dirichlet_alpha, spec.seed);
    let mut model = build_model(spec, &data);
    let dim = model.num_params();
    let n = spec.sampled_per_round;
    let enc_cfg = &spec.privacy.encoding;
    let root = master_seed(spec);

    // Offline planning (skipped for the non-private baseline).
    let dp = spec.variant != Variant::NonPrivate;
    let mechanism = Mechanism::Skellam {
        l1_per_l2: enc_cfg.l1_per_l2(dim),
    };
    let (z_star, target_variance, mut ledger) = if dp {
        let noise_plan = plan(&PlannerConfig {
            epsilon: spec.privacy.epsilon,
            delta: spec.privacy.delta,
            rounds: spec.rounds,
            sample_rate: spec.sample_rate(),
            mechanism,
        })?;
        let delta2 = enc_cfg.l2_sensitivity(dim);
        let sigma = noise_plan.noise_multiplier * delta2;
        let ledger = PrivacyLedger::new(mechanism, spec.privacy.epsilon, spec.privacy.delta)?;
        (noise_plan.noise_multiplier, sigma * sigma, Some(ledger))
    } else {
        (0.0, 0.0, None)
    };

    // XNoise static plan.
    let xnoise_plan = if let Variant::XNoise {
        tolerance_frac,
        collusion_frac,
    } = spec.variant
    {
        let tolerance = ((n as f64) * tolerance_frac).floor() as usize;
        let threshold = n / 2 + 1;
        let collusion = ((threshold as f64) * collusion_frac).floor() as usize;
        Some(XNoisePlan::new(
            target_variance,
            n,
            tolerance.min(n - 1),
            collusion,
            threshold,
        )?)
    } else {
        None
    };

    let mut global = model.params();
    let mut records = Vec::new();
    let mut stopped_early = false;
    let mut rounds_completed = 0u32;

    for round in 0..spec.rounds {
        if spec.variant == Variant::Early {
            if let Some(ledger) = &ledger {
                if ledger.exhausted() {
                    stopped_early = true;
                    break;
                }
            }
        }

        // Client sampling.
        let mut rng = rand::rngs::StdRng::seed_from_u64(spec.seed ^ (u64::from(round) << 32));
        let mut pool: Vec<usize> = (0..spec.population).collect();
        pool.shuffle(&mut rng);
        let sampled: Vec<usize> = pool[..n].to_vec();

        // Dropout outcome (the paper's model: after sampling, before
        // reporting the masked update).
        let dropped_pos = spec
            .dropout
            .sample_dropouts(round as usize, n, None, spec.seed ^ 0xd409);
        let survivors: Vec<usize> = (0..n).filter(|i| !dropped_pos.contains(i)).collect();
        if survivors.is_empty() {
            // Nothing aggregated this round; nothing released either.
            records.push(RoundRecord {
                round,
                epsilon: ledger.as_ref().map_or(0.0, PrivacyLedger::realized_epsilon),
                dropped: dropped_pos.len(),
                achieved_multiplier: 0.0,
                accuracy: None,
                perplexity: None,
            });
            rounds_completed += 1;
            continue;
        }

        // Local training for surviving clients (dropped clients' work is
        // lost, so we skip computing it). Clients are independent, so
        // train them in parallel with per-thread model/optimizer clones.
        let rotation_seed = Prg::fork(&root, b"rotation", u64::from(round));
        let encoder = Encoder::new(enc_cfg, rotation_seed);
        let updates_f32: Vec<Vec<f32>> = std::thread::scope(|scope| {
            let workers = std::thread::available_parallelism()
                .map_or(4, std::num::NonZeroUsize::get)
                .min(survivors.len().max(1));
            let chunk = survivors.len().div_ceil(workers);
            let mut handles = Vec::new();
            for part in survivors.chunks(chunk.max(1)) {
                let mut local_model = model.clone_box();
                let mut local_opt = build_optimizer(spec);
                let global = &global;
                let train_set = &train_set;
                let shards = &shards;
                let sampled = &sampled;
                handles.push(scope.spawn(move || {
                    part.iter()
                        .map(|&pos| {
                            let client = sampled[pos];
                            clipped_local_delta(
                                spec,
                                local_model.as_mut(),
                                local_opt.as_mut(),
                                global,
                                train_set,
                                &shards[client],
                                round,
                                client as u64,
                            )
                        })
                        .collect::<Vec<_>>()
                }));
            }
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("training thread panicked"))
                .collect()
        });

        let (aggregate, achieved_multiplier) = if dp {
            aggregate_private(
                spec,
                &encoder,
                &root,
                round,
                &survivors,
                &updates_f32,
                target_variance,
                z_star,
                xnoise_plan.as_ref(),
                dim,
            )?
        } else {
            // Non-private: plain f32 mean.
            let mut sum = vec![0.0f64; dim];
            for u in &updates_f32 {
                for (s, &v) in sum.iter_mut().zip(u.iter()) {
                    *s += f64::from(v);
                }
            }
            (sum, 0.0)
        };

        if let Some(ledger) = ledger.as_mut() {
            ledger.record_round(spec.sample_rate(), achieved_multiplier);
        }

        // FedAvg: mean of survivor deltas applied to the global model.
        let mean: Vec<f32> = aggregate
            .iter()
            .map(|&v| (v / survivors.len() as f64) as f32)
            .collect();
        apply_update(&mut global, &mean, 1.0);
        model.set_params(&global);
        rounds_completed += 1;

        let evaluate = round % spec.eval_every == spec.eval_every - 1 || round + 1 == spec.rounds;
        let (acc, ppl) = if evaluate {
            (
                Some(accuracy(model.as_ref(), &test_set)),
                Some(perplexity(model.as_ref(), &test_set)),
            )
        } else {
            (None, None)
        };
        records.push(RoundRecord {
            round,
            epsilon: ledger.as_ref().map_or(0.0, PrivacyLedger::realized_epsilon),
            dropped: dropped_pos.len(),
            achieved_multiplier,
            accuracy: acc,
            perplexity: ppl,
        });
    }

    model.set_params(&global);
    Ok(TrainingReport {
        task: spec.name.clone(),
        rounds_completed,
        epsilon_consumed: ledger.as_ref().map_or(0.0, PrivacyLedger::realized_epsilon),
        final_accuracy: accuracy(model.as_ref(), &test_set),
        final_perplexity: perplexity(model.as_ref(), &test_set),
        stopped_early,
        records,
    })
}

/// Encodes survivor updates, applies the variant's noise, aggregates in
/// `Z_{2^b}`, removes excess (XNoise), and decodes. Returns the decoded
/// *sum* of updates plus the achieved central noise multiplier.
#[allow(clippy::too_many_arguments)]
fn aggregate_private(
    spec: &TaskSpec,
    encoder: &Encoder<'_>,
    root: &Seed,
    round: u32,
    survivors: &[usize],
    updates_f32: &[Vec<f32>],
    target_variance: f64,
    z_star: f64,
    xnoise_plan: Option<&XNoisePlan>,
    dim: usize,
) -> Result<(Vec<f64>, f64), DordisError> {
    let enc_cfg = &spec.privacy.encoding;
    let bits = enc_cfg.bit_width;
    let n = spec.sampled_per_round;
    let surv = survivors.len();
    let dropped = n - surv;

    // Encode and perturb each survivor's update.
    let mut encoded: Vec<Vec<u64>> = Vec::with_capacity(surv);
    let mut removal_seeds: Vec<(u32, usize, Seed)> = Vec::new();
    for (slot, &pos) in survivors.iter().enumerate() {
        let update_f64: Vec<f64> = updates_f32[slot].iter().map(|&x| f64::from(x)).collect();
        let round_seed = Prg::fork(root, b"client.round", (u64::from(round) << 16) ^ pos as u64);
        let mut enc = encoder
            .encode(&update_f64, &round_seed)
            .map_err(DordisError::Dp)?;
        match spec.variant {
            Variant::XNoise { .. } => {
                let plan = xnoise_plan.expect("xnoise plan built");
                let seeds = derive_component_seeds(&round_seed, plan.dropout_tolerance);
                perturb(&mut enc, &seeds, plan, bits)?;
                // Seeds the server will use for removal (in the protocol
                // path these arrive via SecAgg; here we hand them over
                // directly, which is the same information flow).
                if dropped <= plan.dropout_tolerance {
                    for k in (dropped + 1)..=plan.dropout_tolerance {
                        removal_seeds.push((pos as u32, k, seeds[k]));
                    }
                }
            }
            variant => add_share_noise(&mut enc, variant, &round_seed, target_variance, n, bits),
        }
        encoded.push(enc);
    }

    // Modular aggregation over survivors.
    let mut sum = encoded[0].clone();
    for e in &encoded[1..] {
        sum = add_mod(&sum, e, bits);
    }

    // Excess-noise removal.
    if let Variant::XNoise { .. } = spec.variant {
        let plan = xnoise_plan.expect("xnoise plan built");
        if dropped <= plan.dropout_tolerance {
            let ids: Vec<u32> = survivors.iter().map(|&p| p as u32).collect();
            remove_excess(&mut sum, &removal_seeds, &ids, plan, bits)?;
        }
    }
    let achieved =
        achieved_noise_multiplier(spec.variant, z_star, target_variance, n, surv, xnoise_plan);

    Ok((encoder.decode(&sum, dim), achieved))
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
    use dordis_sim::dropout::DropoutModel;

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
    }

    #[test]
    fn records_are_complete() {
        let spec = TaskSpec::tiny_for_tests(10);
        let report = train(&spec).unwrap();
        assert_eq!(report.records.len(), spec.rounds as usize);
        // Eval happens at the configured cadence.
        assert!(report.records[4].accuracy.is_some());
        assert!(report.records[0].accuracy.is_none());
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
}

#[cfg(test)]
mod noise_probe_tests {
    use super::*;
    use crate::config::{TaskSpec, Variant};

    fn variance(xs: &[f64]) -> f64 {
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1.0)
    }

    /// Measures the decoded aggregate-noise variance through the real
    /// trainer aggregation path with zero updates.
    fn decoded_noise_variance(variant: Variant, dim: usize, rounds_of_coords: u32) -> f64 {
        let mut spec = TaskSpec::tiny_for_tests(3);
        spec.sampled_per_round = 16;
        spec.variant = variant;
        let n = spec.sampled_per_round;
        let enc_cfg = spec.privacy.encoding;
        let z = 0.45;
        let delta2 = enc_cfg.l2_sensitivity(dim);
        let target_variance = (z * delta2) * (z * delta2);
        let xplan = match variant {
            Variant::XNoise { tolerance_frac, .. } => Some(
                XNoisePlan::new(
                    target_variance,
                    n,
                    ((n as f64) * tolerance_frac) as usize,
                    0,
                    n / 2 + 1,
                )
                .unwrap(),
            ),
            _ => None,
        };
        let root = [9u8; 32];
        let survivors: Vec<usize> = (0..n).collect();
        let zeros = vec![vec![0.0f32; dim]; n];
        let mut all = Vec::new();
        for round in 0..rounds_of_coords {
            let rotation = Prg::fork(&root, b"rot", u64::from(round));
            let encoder = Encoder::new(&spec.privacy.encoding, rotation);
            let (agg, _) = aggregate_private(
                &spec,
                &encoder,
                &root,
                round,
                &survivors,
                &zeros,
                target_variance,
                z,
                xplan.as_ref(),
                dim,
            )
            .unwrap();
            all.extend(agg);
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
