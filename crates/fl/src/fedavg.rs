//! Local training and FedAvg aggregation.
//!
//! Each sampled client downloads the global parameters, runs `local_epochs`
//! of mini-batch SGD on its shard, and reports the parameter *delta*. The
//! server averages the deltas uniformly (secure aggregation releases only
//! their sum, and per-client weights would leak example counts) and
//! applies the mean to the global model with [`apply_update`].

use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::data::Dataset;
use crate::model::Model;
use crate::optim::Optimizer;
use crate::tensor;

/// Hyper-parameters for client-side local training.
#[derive(Clone, Copy, Debug)]
pub struct LocalTrainConfig {
    /// Number of passes over the client shard.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Shuffling seed (varied per round for stochasticity).
    pub seed: u64,
}

/// The result of one client's local training.
#[derive(Clone, Debug)]
pub struct ClientUpdate {
    /// Parameter delta (`local - global`).
    pub delta: Vec<f32>,
    /// Number of training examples used.
    pub examples: usize,
}

/// Runs local training and returns the parameter delta.
///
/// The model is restored to the global parameters on return (the caller's
/// model object is reusable across clients).
pub fn local_train(
    model: &mut dyn Model,
    global: &[f32],
    shard: &Dataset,
    optimizer: &mut dyn Optimizer,
    cfg: &LocalTrainConfig,
) -> ClientUpdate {
    model.set_params(global);
    optimizer.reset();
    if shard.is_empty() {
        return ClientUpdate {
            delta: vec![0.0; global.len()],
            examples: 0,
        };
    }
    let mut params = global.to_vec();
    let mut rng = rand::rngs::StdRng::seed_from_u64(cfg.seed);
    let mut order: Vec<usize> = (0..shard.len()).collect();
    let mut grad = vec![0.0f32; global.len()];
    for _ in 0..cfg.epochs {
        order.shuffle(&mut rng);
        for batch in order.chunks(cfg.batch_size.max(1)) {
            let xs: Vec<&[f32]> = batch
                .iter()
                .map(|&i| shard.features[i].as_slice())
                .collect();
            let ys: Vec<usize> = batch.iter().map(|&i| shard.labels[i]).collect();
            grad.iter_mut().for_each(|g| *g = 0.0);
            model.grad_batch(&xs, &ys, &mut grad);
            optimizer.step(&mut params, &grad);
            model.set_params(&params);
        }
    }
    let delta = tensor::sub(&params, global);
    model.set_params(global);
    ClientUpdate {
        delta,
        examples: shard.len(),
    }
}

/// Applies an aggregated delta to the global parameters.
pub fn apply_update(global: &mut [f32], aggregate: &[f32], server_lr: f32) {
    tensor::axpy(server_lr, aggregate, global);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{synthetic_classification, SyntheticConfig};
    use crate::model::Linear;
    use crate::optim::Sgd;

    fn toy_dataset() -> Dataset {
        synthetic_classification(&SyntheticConfig {
            samples: 200,
            dim: 6,
            classes: 4,
            noise: 0.3,
            seed: 11,
        })
    }

    #[test]
    fn local_train_reduces_loss() {
        let data = toy_dataset();
        let mut model = Linear::new(6, 4);
        let global = model.params();
        let loss_before: f32 = data
            .features
            .iter()
            .zip(data.labels.iter())
            .map(|(x, &y)| model.loss(x, y))
            .sum::<f32>()
            / data.len() as f32;
        let mut opt = Sgd::new(0.2, 0.9);
        let update = local_train(
            &mut model,
            &global,
            &data,
            &mut opt,
            &LocalTrainConfig {
                epochs: 3,
                batch_size: 20,
                seed: 1,
            },
        );
        assert_eq!(update.examples, 200);
        // Model restored to global afterwards.
        assert_eq!(model.params(), global);
        // Applying the delta must reduce loss.
        let mut trained = global.clone();
        apply_update(&mut trained, &update.delta, 1.0);
        model.set_params(&trained);
        let loss_after: f32 = data
            .features
            .iter()
            .zip(data.labels.iter())
            .map(|(x, &y)| model.loss(x, y))
            .sum::<f32>()
            / data.len() as f32;
        assert!(loss_after < loss_before, "{loss_after} !< {loss_before}");
    }

    #[test]
    fn empty_shard_yields_zero_delta() {
        let data = toy_dataset().subset(&[]);
        let mut model = Linear::new(6, 4);
        let global = model.params();
        let mut opt = Sgd::new(0.1, 0.0);
        let u = local_train(
            &mut model,
            &global,
            &data,
            &mut opt,
            &LocalTrainConfig {
                epochs: 1,
                batch_size: 8,
                seed: 0,
            },
        );
        assert_eq!(u.examples, 0);
        assert!(u.delta.iter().all(|&d| d == 0.0));
    }

    #[test]
    fn federated_training_converges() {
        // 5 clients, Dirichlet split, 15 rounds of FedAvg: accuracy on the
        // training data should be far above chance (25%).
        let data = toy_dataset();
        let parts = crate::data::dirichlet_partition(&data, 5, 1.0, 2);
        let mut model = Linear::new(6, 4);
        let mut global = model.params();
        for round in 0..15u64 {
            let mut updates = Vec::new();
            for (c, part) in parts.iter().enumerate() {
                let shard = data.subset(part);
                let mut opt = Sgd::new(0.2, 0.9);
                updates.push(local_train(
                    &mut model,
                    &global,
                    &shard,
                    &mut opt,
                    &LocalTrainConfig {
                        epochs: 1,
                        batch_size: 16,
                        seed: round * 100 + c as u64,
                    },
                ));
            }
            // Uniform FedAvg: every delta at weight 1/n.
            let weight = 1.0 / updates.len() as f32;
            for u in &updates {
                apply_update(&mut global, &u.delta, weight);
            }
        }
        model.set_params(&global);
        let correct = data
            .features
            .iter()
            .zip(data.labels.iter())
            .filter(|(x, &y)| model.predict(x) == y)
            .count();
        let acc = correct as f64 / data.len() as f64;
        assert!(acc > 0.6, "accuracy {acc}");
    }
}
