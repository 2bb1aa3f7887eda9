//! Online noise enforcement: client-side addition and server-side removal
//! of decomposed Skellam noise in `Z_{2^b}` (Definition 2, XNoise).
//!
//! Noise is drawn deterministically from per-component seeds by
//! [`dordis_dp::mechanism::SkellamSampler`], so the server removes
//! *exactly* the realized noise (not just noise of matching distribution)
//! once it learns a seed — directly from a survivor, or via Shamir
//! reconstruction for clients that dropped mid-protocol. Both directions
//! stream the draws straight into the ring vector ([`add_noise_stream`]),
//! never materializing a component's noise vector.

use dordis_crypto::prg::{Prg, Seed};
use dordis_dp::mechanism::SkellamSampler;
use dordis_secagg::mask::add_signed_assign;

use crate::decomposition::XNoisePlan;
use crate::XNoiseError;

/// Domain string for component noise streams; shared by add and remove.
const NOISE_DOMAIN: &[u8] = b"dordis.xnoise.component";

/// Derives the `T + 1` component seeds from a client's round seed.
#[must_use]
pub fn derive_component_seeds(round_seed: &Seed, components: usize) -> Vec<Seed> {
    (0..=components)
        .map(|k| Prg::fork(round_seed, b"xnoise.seed", k as u64))
        .collect()
}

/// `acc ± noise (mod 2^b)`, where `noise` is the vector
/// `skellam_vector(seed, domain, acc.len(), variance)` of `sampler`'s
/// variance — drawn strip by strip and never materialized.
pub fn add_noise_stream(
    acc: &mut [u64],
    sampler: &SkellamSampler,
    seed: &Seed,
    domain: &[u8],
    positive: bool,
    bit_width: u32,
) {
    sampler.for_each_strip(&mut Prg::new(seed, domain), acc.len(), |at, noise| {
        add_signed_assign(&mut acc[at..at + noise.len()], noise, positive, bit_width);
    });
}

/// Client-side: adds all `T + 1` noise components to an encoded update.
///
/// `update` holds ring elements (`< 2^b`); noise wraps modularly.
///
/// # Errors
///
/// Fails if the seed count does not match the plan.
pub fn perturb(
    update: &mut [u64],
    seeds: &[Seed],
    plan: &XNoisePlan,
    bit_width: u32,
) -> Result<(), XNoiseError> {
    if seeds.len() != plan.dropout_tolerance + 1 {
        return Err(XNoiseError::BadParameter(format!(
            "expected {} seeds, got {}",
            plan.dropout_tolerance + 1,
            seeds.len()
        )));
    }
    for (k, seed) in seeds.iter().enumerate() {
        let sampler = SkellamSampler::new(plan.component_variance(k));
        add_noise_stream(update, &sampler, seed, NOISE_DOMAIN, true, bit_width);
    }
    Ok(())
}

/// Server-side: removes the excessive components from the aggregate.
///
/// `removal_seeds` is the `(client, component k, seed)` list produced by
/// secure aggregation; `survivors`/`dropped` determine which components
/// *must* be present. Removal is idempotent over duplicates (they are
/// deduplicated) and fails loudly if a required seed is missing — before
/// anything is subtracted, so `aggregate` is untouched on every error.
///
/// # Errors
///
/// [`XNoiseError::ToleranceExceeded`] when more clients dropped than `T`;
/// [`XNoiseError::MissingSeed`] if a required `(client, k)` seed is absent.
pub fn remove_excess(
    aggregate: &mut [u64],
    removal_seeds: &[(u32, usize, Seed)],
    survivors: &[u32],
    plan: &XNoisePlan,
    bit_width: u32,
) -> Result<(), XNoiseError> {
    let dropped = plan.clients.saturating_sub(survivors.len());
    let range = plan.removal_components(dropped)?;
    // Deduplicate: a seed may arrive both directly and via reconstruction.
    let mut seen = std::collections::BTreeMap::new();
    for (c, k, s) in removal_seeds {
        seen.insert((*c, *k), *s);
    }
    // Component-outer, so each removable variance builds its table once
    // (addition in the ring commutes, so the order is unobservable).
    let mut required = Vec::new();
    for k in range {
        let seeds = survivors.iter().map(|&client| {
            seen.get(&(client, k)).ok_or(XNoiseError::MissingSeed {
                client,
                component: k,
            })
        });
        required.push((k, seeds.collect::<Result<Vec<_>, _>>()?));
    }
    for (k, seeds) in required {
        let sampler = SkellamSampler::new(plan.component_variance(k));
        for seed in seeds {
            add_noise_stream(aggregate, &sampler, seed, NOISE_DOMAIN, false, bit_width);
        }
    }
    Ok(())
}

/// Centered interpretation of a ring element (for analysis/tests):
/// sign-extends bit `b - 1`, for any `1 ≤ b ≤ 64`.
#[must_use]
pub fn center(value: u64, bit_width: u32) -> i64 {
    let spare = 64 - bit_width;
    ((value << spare) as i64) >> spare
}

#[cfg(test)]
mod tests {
    use super::*;
    use dordis_dp::mechanism::{on_both_paths, skellam_vector, with_scalar_draws};
    use dordis_secagg::mask::{add_signed_ring, ring_mask};
    use proptest::prelude::*;

    /// The materialized noise vector of one component: the oracle the
    /// streamed add and removal must match.
    fn component_noise(seed: &Seed, len: usize, variance: f64) -> Vec<i64> {
        skellam_vector(seed, NOISE_DOMAIN, len, variance)
    }

    const BITS: u32 = 24;

    fn plan(n: usize, t: usize, sigma_sq: f64) -> XNoisePlan {
        XNoisePlan::new(sigma_sq, n, t, 0, n / 2 + 1).unwrap()
    }

    fn seeds_for(client: u32, t: usize) -> Vec<Seed> {
        derive_component_seeds(&[client as u8 + 1; 32], t)
    }

    /// Simulates a full add-then-remove round in the ring and returns the
    /// centered residual aggregate (inputs are zero, so the residual IS
    /// the noise).
    fn residual_noise(n: usize, t: usize, drop: usize, sigma_sq: f64, len: usize) -> Vec<i64> {
        let plan = plan(n, t, sigma_sq);
        let survivors: Vec<u32> = (drop as u32..n as u32).collect();
        let mut aggregate = vec![0u64; len];
        let ring = ring_mask(BITS);
        for &c in &survivors {
            let mut update = vec![0u64; len];
            perturb(&mut update, &seeds_for(c, t), &plan, BITS).unwrap();
            for (a, u) in aggregate.iter_mut().zip(update.iter()) {
                *a = (*a + *u) & ring;
            }
        }
        // Seeds for removal: components |D|+1..=T from every survivor.
        let mut removal = Vec::new();
        for &c in &survivors {
            let s = seeds_for(c, t);
            for k in (drop + 1)..=t {
                removal.push((c, k, s[k]));
            }
        }
        remove_excess(&mut aggregate, &removal, &survivors, &plan, BITS).unwrap();
        aggregate.iter().map(|&v| center(v, BITS)).collect()
    }

    fn variance(xs: &[i64]) -> f64 {
        let n = xs.len() as f64;
        let mean = xs.iter().map(|&x| x as f64).sum::<f64>() / n;
        xs.iter().map(|&x| (x as f64 - mean).powi(2)).sum::<f64>() / (n - 1.0)
    }

    #[test]
    fn theorem1_statistical_no_dropout() {
        let v = variance(&residual_noise(8, 3, 0, 100.0, 30_000));
        assert!((v - 100.0).abs() < 6.0, "residual variance {v}");
    }

    #[test]
    fn theorem1_statistical_partial_dropout() {
        on_both_paths(|| {
            let v = variance(&residual_noise(8, 3, 2, 100.0, 30_000));
            assert!((v - 100.0).abs() < 6.0, "residual variance {v}");
        });
    }

    #[test]
    fn theorem1_statistical_full_tolerance_dropout() {
        let v = variance(&residual_noise(8, 3, 3, 100.0, 30_000));
        assert!((v - 100.0).abs() < 6.0, "residual variance {v}");
    }

    #[test]
    fn orig_under_noises_with_dropout() {
        // The contrast experiment: Orig's residual with 2/8 dropped is
        // (6/8)·σ²∗ — visibly below target. Each client's single share
        // has variance σ²∗/n.
        let sampler = SkellamSampler::new(100.0 / 8.0);
        let mut acc = vec![0u64; 30_000];
        for c in 2..8u32 {
            add_noise_stream(&mut acc, &sampler, &[c as u8; 32], NOISE_DOMAIN, true, BITS);
        }
        let v = variance(&acc.iter().map(|&a| center(a, BITS)).collect::<Vec<_>>());
        assert!((v - 75.0).abs() < 5.0, "orig residual {v}");
    }

    #[test]
    fn removal_is_exact_not_just_distributional() {
        on_both_paths(|| {
            // With inputs included, add-then-remove must return *exactly* the
            // sum of inputs plus the non-removed components — check by
            // removing every component and recovering the clean sum.
            let plan = plan(4, 3, 50.0); // T = n - 1: removal can strip all.
            let len = 64;
            let ring = ring_mask(BITS);
            let inputs: Vec<Vec<u64>> = (0..4u32)
                .map(|c| {
                    (0..len)
                        .map(|i| (u64::from(c) * 1000 + i as u64) & ring)
                        .collect()
                })
                .collect();
            let mut aggregate = vec![0u64; len];
            for (c, input) in inputs.iter().enumerate() {
                let mut update = input.clone();
                perturb(&mut update, &seeds_for(c as u32, 3), &plan, BITS).unwrap();
                for (a, u) in aggregate.iter_mut().zip(update.iter()) {
                    *a = (*a + *u) & ring;
                }
            }
            // Remove components 1..=3 (|D| = 0), leaving only component 0 —
            // then strip component 0 manually to verify exactness.
            let survivors: Vec<u32> = (0..4).collect();
            let mut removal = Vec::new();
            for &c in &survivors {
                let s = seeds_for(c, 3);
                for k in 1..=3usize {
                    removal.push((c, k, s[k]));
                }
            }
            remove_excess(&mut aggregate, &removal, &survivors, &plan, BITS).unwrap();
            for &c in &survivors {
                let s = seeds_for(c, 3);
                let noise = component_noise(&s[0], len, plan.component_variance(0));
                for (a, &z) in aggregate.iter_mut().zip(noise.iter()) {
                    *a = add_signed_ring(*a, -z, ring);
                }
            }
            let mut expect = vec![0u64; len];
            for input in &inputs {
                for (e, v) in expect.iter_mut().zip(input.iter()) {
                    *e = (*e + *v) & ring;
                }
            }
            assert_eq!(aggregate, expect);
        });
    }

    #[test]
    fn missing_seed_is_detected() {
        let plan = plan(4, 2, 10.0);
        let survivors: Vec<u32> = vec![0, 1, 2, 3];
        let mut removal = Vec::new();
        for &c in &survivors {
            let s = seeds_for(c, 2);
            for k in 1..=2usize {
                if c == 2 && k == 2 {
                    continue; // Withhold one seed.
                }
                removal.push((c, k, s[k]));
            }
        }
        // Component 1 is complete and could be stripped before the gap
        // in component 2 is found; it must not be.
        let before: Vec<u64> = (0..8).map(|i| i * 1000).collect();
        let mut agg = before.clone();
        let err = remove_excess(&mut agg, &removal, &survivors, &plan, BITS).unwrap_err();
        assert_eq!(
            err,
            XNoiseError::MissingSeed {
                client: 2,
                component: 2
            }
        );
        assert_eq!(agg, before, "aggregate half-stripped on MissingSeed");
    }

    #[test]
    fn tolerance_exceeded_is_detected() {
        let plan = plan(8, 2, 10.0);
        let survivors: Vec<u32> = vec![0, 1, 2]; // 5 dropped > T = 2.
        let before: Vec<u64> = (0..8).map(|i| i * 1000).collect();
        let mut agg = before.clone();
        let err = remove_excess(&mut agg, &[], &survivors, &plan, BITS).unwrap_err();
        assert!(matches!(
            err,
            XNoiseError::ToleranceExceeded { dropped: 5, .. }
        ));
        assert_eq!(agg, before);
    }

    #[test]
    fn wrong_seed_count_rejected() {
        let plan = plan(4, 2, 10.0);
        let mut update = vec![0u64; 4];
        let err = perturb(&mut update, &seeds_for(0, 1), &plan, BITS).unwrap_err();
        assert!(matches!(err, XNoiseError::BadParameter(_)));
    }

    #[test]
    fn derived_seeds_are_distinct_and_deterministic() {
        let a = derive_component_seeds(&[7u8; 32], 3);
        let b = derive_component_seeds(&[7u8; 32], 3);
        assert_eq!(a, b);
        assert_eq!(a.len(), 4);
        for i in 0..a.len() {
            for j in (i + 1)..a.len() {
                assert_ne!(a[i], a[j]);
            }
        }
    }

    #[test]
    fn center_roundtrip() {
        assert_eq!(center(0, 8), 0);
        assert_eq!(center(127, 8), 127);
        assert_eq!(center(128, 8), -128);
        assert_eq!(center(255, 8), -1);
    }

    #[test]
    fn add_ring_handles_negative() {
        let ring = ring_mask(8);
        assert_eq!(add_signed_ring(5, -10, ring), 251);
        assert_eq!(add_signed_ring(250, 10, ring), 4);
        assert_eq!(add_signed_ring(0, -256, ring), 0);
    }

    #[test]
    fn center_is_total_up_to_64_bits() {
        assert_eq!(center(u64::MAX, 64), -1);
        assert_eq!(center(1 << 63, 64), i64::MIN);
        assert_eq!(center(1 << 62, 63), -(1 << 62));
        assert_eq!(center((1 << 62) - 1, 63), (1 << 62) - 1);
    }

    /// One sampled round shape: `(plan, bits, survivors' inputs)` with
    /// client ids `dropped..n`.
    fn round_shape(
        n: usize,
        t: usize,
        dropped: usize,
        bits: usize,
        len: usize,
    ) -> (XNoisePlan, u32, Vec<(u32, Vec<u64>)>) {
        let t = t % n;
        let bits = [8u32, 20, 32, 62][bits];
        let ring = ring_mask(bits);
        let inputs = ((dropped % (t + 1)) as u32..n as u32)
            .map(|c| {
                let input = (0..len as u64).map(|i| ((u64::from(c) << 40) | (i * 77)) & ring);
                (c, input.collect())
            })
            .collect();
        (plan(n, t, 5000.0), bits, inputs)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn streaming_perturb_equals_summed_component_noise(
            n in 2usize..7, t in 0usize..6, bits in 0usize..4, len in 0usize..1100,
        ) {
            on_both_paths(|| {
                let (plan, bits, inputs) = round_shape(n, t, 0, bits, len);
                let ring = ring_mask(bits);
                for (client, input) in inputs {
                    let seeds = seeds_for(client, plan.dropout_tolerance);
                    let mut streamed = input.clone();
                    perturb(&mut streamed, &seeds, &plan, bits).unwrap();
                    let mut summed = input;
                    for (k, seed) in seeds.iter().enumerate() {
                        let noise = component_noise(seed, len, plan.component_variance(k));
                        for (v, z) in summed.iter_mut().zip(noise) {
                            *v = add_signed_ring(*v, z, ring);
                        }
                    }
                    assert_eq!(streamed, summed);
                }
            });
        }

        #[test]
        fn perturb_then_removing_every_component_is_the_identity(
            n in 2usize..7, t in 0usize..6, bits in 0usize..4, len in 0usize..1100,
        ) {
            on_both_paths(|| {
                let (plan, bits, inputs) = round_shape(n, t, 0, bits, len);
                for (client, input) in inputs {
                    let seeds = seeds_for(client, plan.dropout_tolerance);
                    let mut update = input.clone();
                    perturb(&mut update, &seeds, &plan, bits).unwrap();
                    for (k, seed) in seeds.iter().enumerate() {
                        let sampler = SkellamSampler::new(plan.component_variance(k));
                        add_noise_stream(&mut update, &sampler, seed, NOISE_DOMAIN, false, bits);
                    }
                    assert_eq!(update, input);
                }
            });
        }

        #[test]
        fn component_outer_removal_equals_survivor_outer(
            n in 2usize..7, t in 0usize..6, dropped in 0usize..6, bits in 0usize..4,
            len in 0usize..1100,
        ) {
            on_both_paths(|| {
                let (plan, bits, inputs) = round_shape(n, t, dropped, bits, len);
                let ring = ring_mask(bits);
                let dropped = n - inputs.len();
                let survivors: Vec<u32> = inputs.iter().map(|(c, _)| *c).collect();
                let mut aggregate = vec![0u64; len];
                let mut removal = Vec::new();
                for (client, input) in inputs {
                    let seeds = seeds_for(client, plan.dropout_tolerance);
                    let mut update = input;
                    perturb(&mut update, &seeds, &plan, bits).unwrap();
                    for (a, u) in aggregate.iter_mut().zip(update) {
                        *a = a.wrapping_add(u) & ring;
                    }
                    for k in dropped + 1..=plan.dropout_tolerance {
                        removal.push((client, k, seeds[k]));
                    }
                }
                // The parent's order: survivor-outer, one materialized
                // vector per (survivor, component).
                let mut reference = aggregate.clone();
                for (_, k, seed) in &removal {
                    let noise = component_noise(seed, len, plan.component_variance(*k));
                    for (a, z) in reference.iter_mut().zip(noise) {
                        *a = add_signed_ring(*a, -z, ring);
                    }
                }
                remove_excess(&mut aggregate, &removal, &survivors, &plan, bits).unwrap();
                assert_eq!(aggregate, reference);
            });
        }

        #[test]
        fn perturb_and_removal_agree_across_draw_paths(
            n in 2usize..7, t in 0usize..6, dropped in 0usize..6, bits in 0usize..4,
            len in 0usize..1100, sigma_sq in 0.5f64..2.0e7,
        ) {
            let (plan, bits, inputs) = round_shape(n, t, dropped, bits, len);
            let plan = XNoisePlan::new(sigma_sq, plan.clients, plan.dropout_tolerance, 0, plan.threshold).unwrap();
            let dropped = n - inputs.len();
            let survivors: Vec<u32> = inputs.iter().map(|(c, _)| *c).collect();
            let removal: Vec<(u32, usize, Seed)> = survivors
                .iter()
                .flat_map(|&c| {
                    let seeds = seeds_for(c, plan.dropout_tolerance);
                    (dropped + 1..=plan.dropout_tolerance).map(move |k| (c, k, seeds[k]))
                })
                .collect();
            let round = || {
                let mut aggregate = vec![0u64; len];
                for (client, input) in &inputs {
                    let mut update = input.clone();
                    perturb(&mut update, &seeds_for(*client, plan.dropout_tolerance), &plan, bits)
                        .unwrap();
                    for (a, u) in aggregate.iter_mut().zip(update) {
                        *a = a.wrapping_add(u) & ring_mask(bits);
                    }
                }
                remove_excess(&mut aggregate, &removal, &survivors, &plan, bits).unwrap();
                aggregate
            };
            prop_assert_eq!(round(), with_scalar_draws(round));
        }
    }
}
