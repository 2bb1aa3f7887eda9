//! Client hardware and network heterogeneity.
//!
//! Matching §6.1 of the paper: the end-to-end compute latency of the
//! `i`-th slowest client is proportional to `i^{-a}` with `a = 1.2`
//! (Zipf), and bandwidths fall in [21, 210] Mbps following an independent
//! Zipf(1.2).

use rand::seq::SliceRandom;
use rand::SeedableRng;

/// A client's static performance profile.
#[derive(Clone, Copy, Debug)]
pub struct ClientProfile {
    /// Compute slowdown factor (1.0 = fastest client in the cohort).
    pub compute_factor: f64,
    /// Link bandwidth in Mbps.
    pub bandwidth_mbps: f64,
}

impl ClientProfile {
    /// Seconds to move `bytes` over this client's link.
    #[must_use]
    pub fn transfer_secs(&self, bytes: f64) -> f64 {
        bytes * 8.0 / (self.bandwidth_mbps * 1e6)
    }
}

/// Configuration of the heterogeneity generator.
#[derive(Clone, Copy, Debug)]
pub struct HeteroConfig {
    /// Zipf exponent for compute (paper: 1.2).
    pub zipf_a: f64,
    /// Slowest/fastest compute ratio (the paper's Zipf rank model leaves
    /// this implicit; 10x covers commodity mobile SoC spreads).
    pub compute_spread: f64,
    /// Bandwidth range in Mbps (paper: [21, 210]).
    pub bandwidth_range: (f64, f64),
    /// Generator seed.
    pub seed: u64,
}

impl Default for HeteroConfig {
    fn default() -> Self {
        HeteroConfig {
            zipf_a: 1.2,
            compute_spread: 10.0,
            bandwidth_range: (21.0, 210.0),
            seed: 42,
        }
    }
}

/// Generates `n` client profiles.
///
/// Ranks for compute and bandwidth are shuffled independently so slow
/// CPUs are not automatically slow links (two independent Zipfs, per the
/// paper).
#[must_use]
pub fn generate(n: usize, cfg: &HeteroConfig) -> Vec<ClientProfile> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(cfg.seed);
    // Zipf weight of rank i (1-based): i^-a, normalized to [0, 1].
    let weights: Vec<f64> = (1..=n).map(|i| (i as f64).powf(-cfg.zipf_a)).collect();
    let w_min = *weights.last().unwrap_or(&1.0);
    let w_max = weights.first().copied().unwrap_or(1.0);
    let span = (w_max - w_min).max(f64::MIN_POSITIVE);

    let mut compute_ranks: Vec<usize> = (0..n).collect();
    compute_ranks.shuffle(&mut rng);
    let mut bw_ranks: Vec<usize> = (0..n).collect();
    bw_ranks.shuffle(&mut rng);

    let (bw_lo, bw_hi) = cfg.bandwidth_range;
    (0..n)
        .map(|i| {
            // Normalized Zipf position in [0,1]: 1 = rank-1 (best).
            let cpos = (weights[compute_ranks[i]] - w_min) / span;
            let bpos = (weights[bw_ranks[i]] - w_min) / span;
            ClientProfile {
                // Best client factor 1.0, worst `compute_spread`.
                compute_factor: cfg.compute_spread - (cfg.compute_spread - 1.0) * cpos,
                bandwidth_mbps: bw_lo + (bw_hi - bw_lo) * bpos,
            }
        })
        .collect()
}

/// The straggler profile of a cohort: the maximum compute factor and the
/// minimum bandwidth among `profiles` (what synchronous rounds wait for).
#[must_use]
pub fn straggler(profiles: &[ClientProfile]) -> ClientProfile {
    ClientProfile {
        compute_factor: profiles
            .iter()
            .map(|p| p.compute_factor)
            .fold(1.0, f64::max),
        bandwidth_mbps: profiles
            .iter()
            .map(|p| p.bandwidth_mbps)
            .fold(f64::INFINITY, f64::min),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_within_configured_ranges() {
        let cfg = HeteroConfig::default();
        let ps = generate(100, &cfg);
        assert_eq!(ps.len(), 100);
        for p in &ps {
            assert!((1.0..=10.0).contains(&p.compute_factor), "{p:?}");
            assert!((21.0..=210.0).contains(&p.bandwidth_mbps), "{p:?}");
        }
    }

    #[test]
    fn zipf_is_skewed_toward_slow() {
        // Zipf(1.2): most clients cluster near the slow end.
        let ps = generate(200, &HeteroConfig::default());
        let slow = ps.iter().filter(|p| p.compute_factor > 5.0).count();
        assert!(slow > 120, "only {slow} of 200 in the slow half");
    }

    #[test]
    fn deterministic_by_seed() {
        let cfg = HeteroConfig::default();
        let a = generate(10, &cfg);
        let b = generate(10, &cfg);
        assert_eq!(a[3].compute_factor, b[3].compute_factor);
        let c = generate(10, &HeteroConfig { seed: 1, ..cfg });
        assert!(a
            .iter()
            .zip(&c)
            .any(|(x, y)| x.compute_factor != y.compute_factor));
    }

    #[test]
    fn compute_and_bandwidth_independent() {
        // The shuffles must decouple the two ranks: at least one client
        // should be fast compute / slow link or vice versa.
        let ps = generate(50, &HeteroConfig::default());
        let coupled = ps
            .iter()
            .all(|p| (p.compute_factor < 3.0) == (p.bandwidth_mbps > 120.0));
        assert!(!coupled);
    }

    #[test]
    fn transfer_time() {
        let p = ClientProfile {
            compute_factor: 1.0,
            bandwidth_mbps: 80.0,
        };
        // 10 MB over 80 Mbps = 1 second.
        assert!((p.transfer_secs(10e6) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn straggler_takes_worst_of_each() {
        let ps = vec![
            ClientProfile {
                compute_factor: 2.0,
                bandwidth_mbps: 100.0,
            },
            ClientProfile {
                compute_factor: 5.0,
                bandwidth_mbps: 200.0,
            },
        ];
        let s = straggler(&ps);
        assert_eq!(s.compute_factor, 5.0);
        assert_eq!(s.bandwidth_mbps, 100.0);
    }
}
