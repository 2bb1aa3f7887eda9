//! Dropout models.
//!
//! Three models cover the paper's experiments: a fixed per-round rate
//! (the §6.1 "configurable rate" model), i.i.d. Bernoulli dropout, and a
//! synthetic availability trace reproducing the *dynamics* of the 136k
//! mobile-device behaviour dataset used for Figure 1a (clients alternate
//! heavy-tailed online/offline sessions, so per-round dropout rates swing
//! across the full [0, 1] range).

use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// A per-round dropout generator.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub enum DropoutModel {
    /// Nobody drops.
    None,
    /// Each sampled client independently drops with probability `rate`
    /// after being sampled (the paper's §6.1 model).
    Bernoulli {
        /// Per-client drop probability.
        rate: f64,
    },
    /// Exactly `round(rate * n)` of the sampled clients drop.
    FixedRate {
        /// Fraction of sampled clients that drop.
        rate: f64,
    },
    /// Trace-driven: clients alternate online/offline sessions with
    /// Pareto-distributed lengths (measured in rounds).
    Trace(TraceConfig),
}

/// Configuration of the synthetic availability trace.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct TraceConfig {
    /// Population size the trace is generated for.
    pub population: usize,
    /// Mean session length in rounds (how long a client stays in a
    /// state before reconsidering).
    pub mean_session: f64,
    /// Diurnal swing amplitude in [0, 0.5): population-wide availability
    /// oscillates between `0.5 - a` and `0.5 + a`. Mobile availability is
    /// strongly diurnal (Yang et al.), which is what makes per-round
    /// dropout rates span the whole [0, 1] range in Figure 1a.
    pub diurnal_amplitude: f64,
    /// Diurnal period in rounds.
    pub diurnal_period: f64,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            population: 100,
            mean_session: 4.0,
            diurnal_amplitude: 0.45,
            diurnal_period: 50.0,
        }
    }
}

/// A realized availability trace: `availability[round][client]`.
#[derive(Clone, Debug)]
pub struct Trace {
    /// Row per round, bit per client.
    pub availability: Vec<Vec<bool>>,
}

impl Trace {
    /// Generates `rounds` rounds of availability.
    ///
    /// Each client is a two-state Markov chain that reconsiders its state
    /// with probability `1 / mean_session` per round, resampling against
    /// the population-wide diurnal availability level.
    #[must_use]
    pub fn generate(cfg: &TraceConfig, rounds: usize, seed: u64) -> Trace {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let level = |r: usize| -> f64 {
            let phase = 2.0 * std::f64::consts::PI * (r as f64) / cfg.diurnal_period;
            (0.5 + cfg.diurnal_amplitude * phase.sin()).clamp(0.02, 0.98)
        };
        let resample_p = (1.0 / cfg.mean_session).clamp(0.0, 1.0);
        let mut availability = vec![vec![false; cfg.population]; rounds];
        let mut state: Vec<bool> = (0..cfg.population)
            .map(|_| rng.gen_bool(level(0)))
            .collect();
        for r in 0..rounds {
            let g = level(r);
            for (c, s) in state.iter_mut().enumerate() {
                if rng.gen_bool(resample_p) {
                    *s = rng.gen_bool(g);
                }
                availability[r][c] = *s;
            }
        }
        Trace { availability }
    }

    /// Dropout outcome for a set of sampled client indices at `round`:
    /// a sampled client "drops" if it is offline in this round's row.
    #[must_use]
    pub(crate) fn dropped(&self, round: usize, sampled: &[usize]) -> Vec<usize> {
        let row = &self.availability[round % self.availability.len()];
        sampled
            .iter()
            .copied()
            .filter(|&c| !row[c % row.len()])
            .collect()
    }

    /// Per-round dropout rates for a fixed sample size, emulating the
    /// paper's Figure 1a histogram input.
    #[must_use]
    pub fn round_dropout_rates(&self, sample: usize, seed: u64) -> Vec<f64> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let population = self.availability[0].len();
        self.availability
            .iter()
            .map(|row| {
                let mut dropped = 0usize;
                for _ in 0..sample {
                    let c = rng.gen_range(0..population);
                    if !row[c] {
                        dropped += 1;
                    }
                }
                dropped as f64 / sample as f64
            })
            .collect()
    }
}

impl DropoutModel {
    /// Sampled-client indices (positions in the round's sample) that drop
    /// this round.
    #[must_use]
    pub(crate) fn sample_dropouts(
        &self,
        round: usize,
        sampled: usize,
        trace_ids: Option<&[usize]>,
        seed: u64,
    ) -> Vec<usize> {
        let mut rng =
            rand::rngs::StdRng::seed_from_u64(seed ^ (round as u64).wrapping_mul(0x9e37_79b9));
        match self {
            DropoutModel::None => Vec::new(),
            DropoutModel::Bernoulli { rate } => (0..sampled)
                .filter(|_| rng.gen_bool((*rate).clamp(0.0, 1.0)))
                .collect(),
            DropoutModel::FixedRate { rate } => {
                let k = ((sampled as f64) * rate).round() as usize;
                let mut idx: Vec<usize> = (0..sampled).collect();
                // Partial Fisher-Yates for the first k.
                for i in 0..k.min(sampled) {
                    let j = rng.gen_range(i..sampled);
                    idx.swap(i, j);
                }
                idx.truncate(k.min(sampled));
                idx.sort_unstable();
                idx
            }
            DropoutModel::Trace(cfg) => {
                let trace = Trace::generate(cfg, round + 1, seed);
                let ids: Vec<usize> = match trace_ids {
                    Some(ids) => ids.to_vec(),
                    None => (0..sampled).collect(),
                };
                let dropped_ids = trace.dropped(round, &ids);
                ids.iter()
                    .enumerate()
                    .filter(|(_, id)| dropped_ids.contains(id))
                    .map(|(pos, _)| pos)
                    .collect()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_never_drops() {
        assert!(DropoutModel::None
            .sample_dropouts(3, 16, None, 1)
            .is_empty());
    }

    #[test]
    fn fixed_rate_is_exact() {
        let m = DropoutModel::FixedRate { rate: 0.25 };
        for round in 0..20 {
            let d = m.sample_dropouts(round, 16, None, 7);
            assert_eq!(d.len(), 4, "round {round}");
            assert!(d.iter().all(|&i| i < 16));
        }
    }

    #[test]
    fn bernoulli_mean_matches_rate() {
        let m = DropoutModel::Bernoulli { rate: 0.3 };
        let total: usize = (0..500)
            .map(|r| m.sample_dropouts(r, 100, None, 9).len())
            .sum();
        let mean = total as f64 / 500.0;
        assert!((mean - 30.0).abs() < 2.0, "mean {mean}");
    }

    #[test]
    fn dropouts_vary_across_rounds() {
        let m = DropoutModel::Bernoulli { rate: 0.5 };
        let a = m.sample_dropouts(1, 32, None, 9);
        let b = m.sample_dropouts(2, 32, None, 9);
        assert_ne!(a, b);
        // Same round, same seed: deterministic.
        assert_eq!(a, m.sample_dropouts(1, 32, None, 9));
    }

    #[test]
    fn trace_produces_full_spectrum_of_round_rates() {
        // Figure 1a's key property: some rounds lose almost nobody, some
        // lose almost everyone.
        let trace = Trace::generate(&TraceConfig::default(), 300, 3);
        let rates = trace.round_dropout_rates(16, 4);
        assert_eq!(rates.len(), 300);
        let low = rates.iter().filter(|&&r| r < 0.25).count();
        let high = rates.iter().filter(|&&r| r > 0.75).count();
        let mid = rates.len() - low - high;
        assert!(low > 10, "low-dropout rounds: {low}");
        assert!(high > 10, "high-dropout rounds: {high}");
        assert!(mid > 10, "mid-dropout rounds: {mid}");
    }

    #[test]
    fn trace_availability_is_persistent() {
        // Sessions span rounds: adjacent rounds should correlate.
        let trace = Trace::generate(&TraceConfig::default(), 200, 5);
        let mut same = 0usize;
        let mut total = 0usize;
        for r in 1..200 {
            for c in 0..trace.availability[0].len() {
                total += 1;
                if trace.availability[r][c] == trace.availability[r - 1][c] {
                    same += 1;
                }
            }
        }
        let persistence = same as f64 / total as f64;
        assert!(persistence > 0.6, "persistence {persistence}");
    }

    #[test]
    fn trace_mean_availability_matches_diurnal_mean() {
        let trace = Trace::generate(&TraceConfig::default(), 400, 8);
        let total: usize = trace
            .availability
            .iter()
            .map(|row| row.iter().filter(|&&b| b).count())
            .sum();
        let frac = total as f64 / (400.0 * 100.0);
        assert!((frac - 0.5).abs() < 0.08, "mean availability {frac}");
    }
}
