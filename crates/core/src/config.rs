//! Experiment configuration: tasks, privacy, dropout, and DP variants.

use crate::dropout::DropoutModel;
use dordis_dp::encoding::EncodingConfig;
use dordis_fl::data::SyntheticConfig;
use serde::{Deserialize, Serialize};

/// Which distributed-DP scheme the run uses (the paper's baselines plus
/// XNoise, §2.3.1 / §6.1).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum Variant {
    /// No DP at all (utility upper bound).
    NonPrivate,
    /// `Orig`: per-client share `σ²∗/|U|`, no dropout handling; the
    /// ledger overruns under dropout.
    Orig,
    /// `Orig` that stops training the moment the ledger is exhausted.
    Early,
    /// Conservative planning against an *estimated* dropout rate
    /// (`Con8` = 0.8, `Con5` = 0.5, `Con2` = 0.2 in Figure 1).
    Conservative {
        /// Assumed per-round dropout fraction.
        est_dropout: f64,
    },
    /// XNoise add-then-remove enforcement (§3).
    XNoise {
        /// Dropout tolerance as a fraction of the sampled set
        /// (`T = frac · |U|`).
        tolerance_frac: f64,
        /// Collusion tolerance as a fraction of the SecAgg threshold.
        collusion_frac: f64,
    },
}

/// Model architecture for the task.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum ModelSpec {
    /// Softmax regression.
    Linear,
    /// One-hidden-layer MLP.
    Mlp {
        /// Hidden width.
        hidden: usize,
    },
}

/// Optimizer choice (paper §6.1: SGD+momentum for vision, AdamW for LM).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum OptimizerSpec {
    /// SGD with momentum.
    Sgd {
        /// Learning rate.
        lr: f32,
        /// Momentum coefficient.
        momentum: f32,
    },
    /// AdamW.
    AdamW {
        /// Learning rate.
        lr: f32,
        /// Decoupled weight decay.
        weight_decay: f32,
    },
}

/// Privacy configuration.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct PrivacySpec {
    /// Global budget ε_G.
    pub epsilon: f64,
    /// Global budget δ_G (the paper uses 1/population).
    pub delta: f64,
    /// L2 clipping bound on model deltas.
    pub clip: f64,
    /// DSkellam encoding parameters.
    pub encoding: EncodingConfig,
}

/// A full training task specification.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TaskSpec {
    /// Human-readable task name (for reports).
    pub name: String,
    /// Synthetic dataset generator.
    pub dataset: SyntheticConfig,
    /// Fraction of data held out for evaluation.
    pub test_fraction: f64,
    /// Model architecture.
    pub model: ModelSpec,
    /// Optimizer.
    pub optimizer: OptimizerSpec,
    /// Total client population.
    pub population: usize,
    /// Clients sampled per round.
    pub sampled_per_round: usize,
    /// Training rounds.
    pub rounds: u32,
    /// Local epochs per round.
    pub local_epochs: usize,
    /// Local mini-batch size.
    pub batch_size: usize,
    /// Dirichlet concentration for the non-IID split (paper: 1.0).
    pub dirichlet_alpha: f64,
    /// Privacy parameters.
    pub privacy: PrivacySpec,
    /// DP variant under test.
    pub variant: Variant,
    /// Dropout model.
    pub dropout: DropoutModel,
    /// Evaluate every this many rounds.
    pub eval_every: u32,
    /// Master seed.
    pub seed: u64,
}

impl TaskSpec {
    /// A CIFAR-10-like task in the paper's configuration (§6.1): 100
    /// clients, 16 sampled, 150 rounds, ε = 6, clip 3.
    #[must_use]
    pub fn cifar10_like(seed: u64) -> TaskSpec {
        TaskSpec {
            name: "cifar10-like".into(),
            dataset: SyntheticConfig::cifar10_like(4000, seed),
            test_fraction: 0.15,
            model: ModelSpec::Mlp { hidden: 32 },
            optimizer: OptimizerSpec::Sgd {
                lr: 0.1,
                momentum: 0.9,
            },
            population: 100,
            sampled_per_round: 16,
            rounds: 150,
            local_epochs: 1,
            batch_size: 32,
            dirichlet_alpha: 1.0,
            privacy: PrivacySpec {
                epsilon: 6.0,
                delta: 1e-2,
                clip: 3.0,
                encoding: EncodingConfig {
                    clip: 3.0,
                    ..EncodingConfig::default()
                },
            },
            variant: Variant::XNoise {
                tolerance_frac: 0.5,
                collusion_frac: 0.0,
            },
            dropout: DropoutModel::None,
            eval_every: 10,
            seed,
        }
    }

    /// A FEMNIST-like task (§6.1): 1000 clients, 100 sampled, 50 rounds,
    /// clip 1.
    #[must_use]
    pub fn femnist_like(seed: u64) -> TaskSpec {
        TaskSpec {
            name: "femnist-like".into(),
            dataset: SyntheticConfig::femnist_like(8000, seed),
            test_fraction: 0.15,
            model: ModelSpec::Linear,
            optimizer: OptimizerSpec::Sgd {
                lr: 0.05,
                momentum: 0.9,
            },
            population: 1000,
            sampled_per_round: 100,
            rounds: 50,
            local_epochs: 2,
            batch_size: 20,
            dirichlet_alpha: 1.0,
            privacy: PrivacySpec {
                epsilon: 6.0,
                delta: 1e-3,
                clip: 1.0,
                encoding: EncodingConfig::default(),
            },
            variant: Variant::XNoise {
                tolerance_frac: 0.5,
                collusion_frac: 0.0,
            },
            dropout: DropoutModel::None,
            eval_every: 5,
            seed,
        }
    }

    /// A Reddit-like next-token task (§6.1): 200 clients, AdamW.
    #[must_use]
    pub fn reddit_like(seed: u64) -> TaskSpec {
        TaskSpec {
            name: "reddit-like".into(),
            dataset: SyntheticConfig::reddit_like(5000, seed),
            test_fraction: 0.15,
            model: ModelSpec::Mlp { hidden: 24 },
            optimizer: OptimizerSpec::AdamW {
                lr: 0.01,
                weight_decay: 0.01,
            },
            population: 200,
            sampled_per_round: 32,
            rounds: 50,
            local_epochs: 2,
            batch_size: 20,
            dirichlet_alpha: 1.0,
            privacy: PrivacySpec {
                epsilon: 6.0,
                delta: 5e-3,
                clip: 1.0,
                encoding: EncodingConfig::default(),
            },
            variant: Variant::XNoise {
                tolerance_frac: 0.5,
                collusion_frac: 0.0,
            },
            dropout: DropoutModel::None,
            eval_every: 5,
            seed,
        }
    }

    /// A deliberately tiny task for unit tests and doc examples.
    #[must_use]
    pub fn tiny_for_tests(seed: u64) -> TaskSpec {
        TaskSpec {
            name: "tiny".into(),
            dataset: SyntheticConfig {
                samples: 400,
                dim: 8,
                classes: 4,
                noise: 0.4,
                seed,
            },
            test_fraction: 0.2,
            model: ModelSpec::Linear,
            optimizer: OptimizerSpec::Sgd {
                lr: 0.1,
                momentum: 0.9,
            },
            population: 20,
            sampled_per_round: 8,
            rounds: 10,
            local_epochs: 1,
            batch_size: 16,
            dirichlet_alpha: 1.0,
            privacy: PrivacySpec {
                epsilon: 6.0,
                delta: 5e-2,
                clip: 1.0,
                encoding: EncodingConfig::default(),
            },
            variant: Variant::XNoise {
                tolerance_frac: 0.5,
                collusion_frac: 0.0,
            },
            dropout: DropoutModel::None,
            eval_every: 5,
            seed,
        }
    }

    /// Per-round sampling probability used for privacy accounting.
    #[must_use]
    pub fn sample_rate(&self) -> f64 {
        self.sampled_per_round as f64 / self.population as f64
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.sampled_per_round == 0 || self.sampled_per_round > self.population {
            return Err("sampled_per_round out of range".into());
        }
        if self.rounds == 0 {
            return Err("rounds must be positive".into());
        }
        if !(self.privacy.epsilon > 0.0) {
            return Err("epsilon must be positive".into());
        }
        if let Variant::XNoise {
            tolerance_frac,
            collusion_frac,
        } = self.variant
        {
            if !(0.0..1.0).contains(&tolerance_frac) {
                return Err("tolerance_frac must be in [0,1)".into());
            }
            if !(0.0..1.0).contains(&collusion_frac) {
                return Err("collusion_frac must be in [0,1)".into());
            }
        }
        if let Variant::Conservative { est_dropout } = self.variant {
            if !(0.0..1.0).contains(&est_dropout) {
                return Err("est_dropout must be in [0,1)".into());
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dropout::TraceConfig;

    #[test]
    fn presets_validate() {
        TaskSpec::cifar10_like(1).validate().unwrap();
        TaskSpec::femnist_like(1).validate().unwrap();
        TaskSpec::reddit_like(1).validate().unwrap();
        TaskSpec::tiny_for_tests(1).validate().unwrap();
    }

    #[test]
    fn sample_rates() {
        assert!((TaskSpec::cifar10_like(1).sample_rate() - 0.16).abs() < 1e-12);
        assert!((TaskSpec::femnist_like(1).sample_rate() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn invalid_specs_rejected() {
        let mut s = TaskSpec::tiny_for_tests(1);
        s.sampled_per_round = 0;
        assert!(s.validate().is_err());
        let mut s = TaskSpec::tiny_for_tests(1);
        s.variant = Variant::XNoise {
            tolerance_frac: 1.0,
            collusion_frac: 0.0,
        };
        assert!(s.validate().is_err());
        let mut s = TaskSpec::tiny_for_tests(1);
        s.variant = Variant::Conservative { est_dropout: -0.2 };
        assert!(s.validate().is_err());
        s.variant = Variant::Conservative { est_dropout: 1.0 };
        assert!(s.validate().is_err());
    }

    /// The file `dordis example-config` writes and `dordis train` reads:
    /// every preset, and one with trace-driven dropout, survives
    /// JSON → `TaskSpec` → JSON as identical text, so every type the
    /// spec reaches keeps its serde derives.
    #[test]
    fn every_preset_survives_a_json_round_trip() {
        let mut traced = TaskSpec::tiny_for_tests(5);
        traced.dropout = DropoutModel::Trace(TraceConfig::default());
        let presets = [
            TaskSpec::cifar10_like(1),
            TaskSpec::femnist_like(2),
            TaskSpec::reddit_like(3),
            TaskSpec::tiny_for_tests(4),
            traced,
        ];
        for spec in presets {
            let text = serde_json::to_string_pretty(&spec).unwrap();
            let back: TaskSpec = serde_json::from_str(&text).unwrap();
            let again = serde_json::to_string_pretty(&back).unwrap();
            assert_eq!(again, text, "{}", spec.name);
        }
    }
}
