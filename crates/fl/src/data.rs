//! Synthetic datasets and non-IID partitioning.
//!
//! Stand-ins for the paper's CIFAR-10/100, FEMNIST, and Reddit workloads
//! (the reproduction is self-contained, so no real dataset is read):
//! Gaussian class prototypes give a classification task whose difficulty is controlled by
//! `noise`, and a Dirichlet (LDA) partitioner reproduces the label skew the
//! paper configures with concentration `α = 1.0`.

use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// An in-memory labelled dataset.
#[derive(Clone, Debug)]
pub struct Dataset {
    /// Feature vectors, all of equal dimension.
    pub features: Vec<Vec<f32>>,
    /// Class labels in `0..num_classes`.
    pub labels: Vec<usize>,
    /// Number of classes.
    pub num_classes: usize,
}

impl Dataset {
    /// Number of examples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.features.len()
    }

    /// True if the dataset is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.features.is_empty()
    }

    /// Feature dimension (0 for an empty dataset).
    #[must_use]
    pub fn dim(&self) -> usize {
        self.features.first().map_or(0, Vec::len)
    }

    /// Builds the subset selected by `indices`.
    #[must_use]
    pub fn subset(&self, indices: &[usize]) -> Dataset {
        Dataset {
            features: indices.iter().map(|&i| self.features[i].clone()).collect(),
            labels: indices.iter().map(|&i| self.labels[i]).collect(),
            num_classes: self.num_classes,
        }
    }
}

/// Configuration for the synthetic classification generator.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct SyntheticConfig {
    /// Total number of examples.
    pub samples: usize,
    /// Feature dimension.
    pub dim: usize,
    /// Number of classes.
    pub classes: usize,
    /// Within-class Gaussian noise (higher = harder task).
    pub noise: f32,
    /// Generator seed.
    pub seed: u64,
}

impl SyntheticConfig {
    /// A CIFAR-10-like task: 10 classes, moderate difficulty.
    #[must_use]
    pub fn cifar10_like(samples: usize, seed: u64) -> Self {
        SyntheticConfig {
            samples,
            dim: 32,
            classes: 10,
            noise: 0.9,
            seed,
        }
    }

    /// A FEMNIST-like task: 62 classes, moderately hard.
    #[must_use]
    pub fn femnist_like(samples: usize, seed: u64) -> Self {
        SyntheticConfig {
            samples,
            dim: 40,
            classes: 62,
            noise: 0.8,
            seed,
        }
    }

    /// A Reddit-like next-token task (vocabulary as classes; accuracy is
    /// reported as perplexity by the evaluator).
    #[must_use]
    pub fn reddit_like(samples: usize, seed: u64) -> Self {
        SyntheticConfig {
            samples,
            dim: 24,
            classes: 30,
            noise: 1.3,
            seed,
        }
    }
}

/// Standard-normal sample via Box–Muller on a `rand` RNG.
fn normal<R: Rng>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(1e-12..1.0);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Generates a synthetic classification dataset with Gaussian class
/// prototypes.
#[must_use]
pub fn synthetic_classification(cfg: &SyntheticConfig) -> Dataset {
    let mut rng = rand::rngs::StdRng::seed_from_u64(cfg.seed);
    // Class prototypes on a scaled sphere.
    let prototypes: Vec<Vec<f32>> = (0..cfg.classes)
        .map(|_| (0..cfg.dim).map(|_| normal(&mut rng) as f32).collect())
        .collect();
    let mut features = Vec::with_capacity(cfg.samples);
    let mut labels = Vec::with_capacity(cfg.samples);
    for i in 0..cfg.samples {
        let label = i % cfg.classes;
        let feat: Vec<f32> = prototypes[label]
            .iter()
            .map(|&p| p + cfg.noise * normal(&mut rng) as f32)
            .collect();
        features.push(feat);
        labels.push(label);
    }
    Dataset {
        features,
        labels,
        num_classes: cfg.classes,
    }
}

/// Gamma(shape, 1) sample via Marsaglia–Tsang.
fn gamma<R: Rng>(rng: &mut R, shape: f64) -> f64 {
    if shape < 1.0 {
        // Boost: Gamma(a) = Gamma(a+1) * U^(1/a).
        let u: f64 = rng.gen_range(1e-12..1.0);
        return gamma(rng, shape + 1.0) * u.powf(1.0 / shape);
    }
    let d = shape - 1.0 / 3.0;
    let c = 1.0 / (9.0 * d).sqrt();
    loop {
        let x = normal(rng);
        let v = (1.0 + c * x).powi(3);
        if v <= 0.0 {
            continue;
        }
        let u: f64 = rng.gen_range(1e-12..1.0);
        if u < 1.0 - 0.0331 * x.powi(4) {
            return d * v;
        }
        if u.ln() < 0.5 * x * x + d * (1.0 - v + v.ln()) {
            return d * v;
        }
    }
}

/// Draws a probability vector from Dirichlet(α, ..., α).
fn dirichlet<R: Rng>(rng: &mut R, alpha: f64, k: usize) -> Vec<f64> {
    let mut g: Vec<f64> = (0..k).map(|_| gamma(rng, alpha)).collect();
    let sum: f64 = g.iter().sum();
    if sum <= 0.0 {
        return vec![1.0 / k as f64; k];
    }
    for x in g.iter_mut() {
        *x /= sum;
    }
    g
}

/// Partitions a dataset across `num_clients` with Dirichlet label skew
/// (latent Dirichlet allocation over class-to-client proportions, the
/// paper's LDA with concentration `alpha = 1.0`).
///
/// Returns per-client index lists. Every example is assigned to exactly
/// one client; clients can end up with zero examples of some classes —
/// that is the point.
#[must_use]
pub fn dirichlet_partition(
    dataset: &Dataset,
    num_clients: usize,
    alpha: f64,
    seed: u64,
) -> Vec<Vec<usize>> {
    assert!(num_clients > 0);
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut by_class: Vec<Vec<usize>> = vec![Vec::new(); dataset.num_classes];
    for (i, &y) in dataset.labels.iter().enumerate() {
        by_class[y].push(i);
    }
    let mut clients: Vec<Vec<usize>> = vec![Vec::new(); num_clients];
    for idxs in by_class.iter() {
        let props = dirichlet(&mut rng, alpha, num_clients);
        // Convert proportions to cumulative counts over this class.
        let n = idxs.len();
        let mut cuts = Vec::with_capacity(num_clients);
        let mut acc = 0.0;
        for &p in &props[..num_clients - 1] {
            acc += p;
            cuts.push(((acc * n as f64).round() as usize).min(n));
        }
        let mut start = 0usize;
        for (c, client) in clients.iter_mut().enumerate() {
            let end = if c + 1 == num_clients { n } else { cuts[c] };
            let end = end.max(start);
            client.extend_from_slice(&idxs[start..end]);
            start = end;
        }
    }
    clients
}

/// Splits a dataset into train and test sets (deterministic interleaving).
#[must_use]
pub fn train_test_split(dataset: &Dataset, test_fraction: f64) -> (Dataset, Dataset) {
    let period = (1.0 / test_fraction.clamp(0.01, 0.5)).round() as usize;
    let mut train_idx = Vec::new();
    let mut test_idx = Vec::new();
    for i in 0..dataset.len() {
        if i % period == 0 {
            test_idx.push(i);
        } else {
            train_idx.push(i);
        }
    }
    (dataset.subset(&train_idx), dataset.subset(&test_idx))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Dataset {
        synthetic_classification(&SyntheticConfig {
            samples: 600,
            dim: 8,
            classes: 6,
            noise: 0.5,
            seed: 9,
        })
    }

    #[test]
    fn generator_shape_and_labels() {
        let d = small();
        assert_eq!(d.len(), 600);
        assert_eq!(d.dim(), 8);
        assert!(d.labels.iter().all(|&y| y < 6));
        // Balanced by construction.
        for c in 0..6 {
            assert_eq!(d.labels.iter().filter(|&&y| y == c).count(), 100);
        }
    }

    #[test]
    fn generator_is_deterministic() {
        let a = small();
        let b = small();
        assert_eq!(a.features[0], b.features[0]);
        let c = synthetic_classification(&SyntheticConfig {
            seed: 10,
            ..SyntheticConfig {
                samples: 600,
                dim: 8,
                classes: 6,
                noise: 0.5,
                seed: 9,
            }
        });
        assert_ne!(a.features[0], c.features[0]);
    }

    #[test]
    fn classes_are_separable_at_low_noise() {
        // Nearest-prototype classification should beat chance easily.
        let d = synthetic_classification(&SyntheticConfig {
            samples: 300,
            dim: 16,
            classes: 3,
            noise: 0.2,
            seed: 4,
        });
        // Rebuild prototypes as per-class means and classify.
        let mut means = vec![vec![0.0f32; 16]; 3];
        let mut counts = [0usize; 3];
        for (f, &y) in d.features.iter().zip(d.labels.iter()) {
            counts[y] += 1;
            for (m, x) in means[y].iter_mut().zip(f.iter()) {
                *m += x;
            }
        }
        for (m, &c) in means.iter_mut().zip(counts.iter()) {
            for x in m.iter_mut() {
                *x /= c as f32;
            }
        }
        let mut correct = 0;
        for (f, &y) in d.features.iter().zip(d.labels.iter()) {
            let mut best = 0;
            let mut best_d = f32::INFINITY;
            for (c, m) in means.iter().enumerate() {
                let dist: f32 = f.iter().zip(m.iter()).map(|(a, b)| (a - b) * (a - b)).sum();
                if dist < best_d {
                    best_d = dist;
                    best = c;
                }
            }
            correct += usize::from(best == y);
        }
        assert!(correct as f64 / d.len() as f64 > 0.9);
    }

    #[test]
    fn partition_covers_every_example_once() {
        let d = small();
        let parts = dirichlet_partition(&d, 10, 1.0, 3);
        assert_eq!(parts.len(), 10);
        let mut seen = vec![false; d.len()];
        for p in &parts {
            for &i in p {
                assert!(!seen[i], "example {i} assigned twice");
                seen[i] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn low_alpha_skews_labels() {
        let d = small();
        let skewed = dirichlet_partition(&d, 6, 0.05, 5);
        let uniform = dirichlet_partition(&d, 6, 100.0, 5);
        // Measure max class fraction per client, averaged.
        let max_frac = |parts: &Vec<Vec<usize>>| -> f64 {
            let mut total = 0.0;
            let mut counted = 0;
            for p in parts {
                if p.is_empty() {
                    continue;
                }
                let mut counts = vec![0usize; d.num_classes];
                for &i in p {
                    counts[d.labels[i]] += 1;
                }
                total += *counts.iter().max().unwrap() as f64 / p.len() as f64;
                counted += 1;
            }
            total / counted as f64
        };
        assert!(max_frac(&skewed) > max_frac(&uniform));
    }

    #[test]
    fn split_fractions() {
        let d = small();
        let (train, test) = train_test_split(&d, 0.2);
        assert_eq!(train.len() + test.len(), d.len());
        let frac = test.len() as f64 / d.len() as f64;
        assert!((0.15..0.25).contains(&frac), "frac {frac}");
    }

    #[test]
    fn subset_preserves_pairing() {
        let d = small();
        let s = d.subset(&[5, 10, 15]);
        assert_eq!(s.len(), 3);
        assert_eq!(s.features[1], d.features[10]);
        assert_eq!(s.labels[2], d.labels[15]);
    }

    #[test]
    fn dirichlet_sums_to_one() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        for &alpha in &[0.1, 1.0, 10.0] {
            let p = dirichlet(&mut rng, alpha, 8);
            let sum: f64 = p.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9);
            assert!(p.iter().all(|&x| x >= 0.0));
        }
    }

    #[test]
    fn gamma_mean_close_to_shape() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        for &shape in &[0.5f64, 1.0, 4.0] {
            let n = 20_000;
            let mean: f64 = (0..n).map(|_| gamma(&mut rng, shape)).sum::<f64>() / n as f64;
            assert!(
                (mean - shape).abs() < 0.1 * shape.max(1.0),
                "shape {shape} mean {mean}"
            );
        }
    }
}
