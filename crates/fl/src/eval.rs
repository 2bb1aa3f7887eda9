//! Model evaluation: accuracy and perplexity.
//!
//! Each call runs one forward pass per example through
//! [`Model::for_each_logits`], which reuses one set of buffers for the
//! whole test set; the per-example arithmetic is that of
//! [`Model::predict`] and [`Model::loss`].

use crate::data::Dataset;
use crate::model::Model;
use crate::tensor::{argmax, softmax_inplace};

/// Classification accuracy in `[0, 1]`.
#[must_use]
pub fn accuracy(model: &dyn Model, data: &Dataset) -> f64 {
    if data.is_empty() {
        return 0.0;
    }
    let mut correct = 0usize;
    model.for_each_logits(&data.features, &mut |i, logits| {
        correct += usize::from(argmax(logits) == data.labels[i]);
    });
    correct as f64 / data.len() as f64
}

/// Mean cross-entropy loss.
fn mean_loss(model: &dyn Model, data: &Dataset) -> f64 {
    if data.is_empty() {
        return 0.0;
    }
    let mut total = 0.0f64;
    model.for_each_logits(&data.features, &mut |i, logits| {
        softmax_inplace(logits);
        total += f64::from(-(logits[data.labels[i]].max(1e-12)).ln());
    });
    total / data.len() as f64
}

/// Perplexity: `exp(mean cross-entropy)`. The paper reports this for the
/// Reddit next-word-prediction task (lower is better).
#[must_use]
pub fn perplexity(model: &dyn Model, data: &Dataset) -> f64 {
    mean_loss(model, data).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{synthetic_classification, SyntheticConfig};
    use crate::model::{Linear, Mlp, Model};

    #[test]
    fn untrained_model_near_chance() {
        let data = synthetic_classification(&SyntheticConfig {
            samples: 500,
            dim: 8,
            classes: 5,
            noise: 0.5,
            seed: 3,
        });
        let m = Linear::new(8, 5);
        let acc = accuracy(&m, &data);
        // Zero-init predicts class 0 always => exactly 1/classes here
        // (balanced data).
        assert!((acc - 0.2).abs() < 0.01, "acc {acc}");
        // Uniform probabilities => perplexity == classes.
        let ppl = perplexity(&m, &data);
        assert!((ppl - 5.0).abs() < 0.01, "ppl {ppl}");
    }

    /// The per-example forms the evaluation replaced: one
    /// `Model::predict` / `Model::loss` call (and their buffers) per
    /// example.
    fn per_example(model: &dyn Model, data: &Dataset) -> (f64, f64) {
        let pairs = || data.features.iter().zip(data.labels.iter());
        let correct = pairs().filter(|(x, &y)| model.predict(x) == y).count();
        let loss: f64 = pairs().map(|(x, &y)| f64::from(model.loss(x, y))).sum();
        let n = data.len() as f64;
        (correct as f64 / n, (loss / n).exp())
    }

    #[test]
    fn one_buffer_evaluation_is_bit_equal_to_the_per_example_calls() {
        let data = synthetic_classification(&SyntheticConfig {
            samples: 300,
            dim: 12,
            classes: 4,
            noise: 0.8,
            seed: 9,
        });
        let mut linear = Linear::new(12, 4);
        let trained: Vec<f32> = (0..linear.num_params())
            .map(|i| ((i as f32) * 0.37).sin() * 0.4)
            .collect();
        linear.set_params(&trained);
        let mlp = Mlp::new(12, 16, 4, 5);
        for model in [&linear as &dyn Model, &mlp] {
            let (acc, ppl) = per_example(model, &data);
            assert_eq!(accuracy(model, &data).to_bits(), acc.to_bits());
            assert_eq!(perplexity(model, &data).to_bits(), ppl.to_bits());
        }
    }

    #[test]
    fn empty_dataset_is_zero() {
        let data = Dataset {
            features: vec![],
            labels: vec![],
            num_classes: 3,
        };
        let m = Linear::new(4, 3);
        assert_eq!(accuracy(&m, &data), 0.0);
        assert_eq!(mean_loss(&m, &data), 0.0);
    }

    #[test]
    fn perfect_model_has_low_perplexity() {
        // Craft a linear model that classifies one-hot inputs perfectly.
        let mut m = Linear::new(3, 3);
        let mut p = vec![0.0f32; m.num_params()];
        for c in 0..3 {
            p[c * 3 + c] = 20.0; // Strong diagonal.
        }
        m.set_params(&p);
        let data = Dataset {
            features: vec![
                vec![1.0, 0.0, 0.0],
                vec![0.0, 1.0, 0.0],
                vec![0.0, 0.0, 1.0],
            ],
            labels: vec![0, 1, 2],
            num_classes: 3,
        };
        assert_eq!(accuracy(&m, &data), 1.0);
        assert!(perplexity(&m, &data) < 1.01);
    }
}
