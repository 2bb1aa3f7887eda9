//! Noise samplers: Poisson and the symmetric Skellam mechanism.
//!
//! All samplers draw from a [`Prg`] stream, so a 32-byte seed fully
//! determines the noise vector. This is what makes XNoise work: a client
//! adds noise generated from seed `g_{u,k}`, and the server can later
//! regenerate (and subtract) *exactly* the same vector from the seed alone
//! (paper §3.1, "decomposition").
//!
//! Noise generation is XNoise's runtime cost (every client draws `T + 1`
//! components, the server redraws the removable ones), so Skellam vectors
//! come from [`SkellamSampler`]: one inverse-CDF table per variance,
//! inverted at a uniform 63-bit `u` of which a draw reads only as much
//! as it needs. A draw is one 16-bit keystream lane — the sign and the
//! top 15 bits of `u` — and, only when those leave the magnitude
//! undecided, the 8 bytes that follow it, whose top 48 bits are the rest
//! of `u` (see `SkellamTable`). Keystream per draw, measured:
//!
//! | σ | 2 | 9 | 50 | 316 | 2 650 (table cap) |
//! |---|---|---|---|---|---|
//! | bytes | 2.002 | 2.009 | 2.05 | 2.25 | 3.6 |
//!
//! `skellam` (a difference of two rejection-sampled Poissons) serves
//! variances whose table would not fit in cache and is the reference the
//! table is tested against.
//!
//! Where the CPU has AVX-512F, the lanes are drawn eight at a time by the
//! `skellam_avx512` kernel (gathers into the guide and the survival
//! function); a lane that needs its refinement word is handed to the
//! scalar draw. Elsewhere every lane is the scalar draw, the fallback
//! and the kernel's oracle; both read the same bytes, so the draws are
//! bit-equal.
//!
//! The stream is read strictly in order (lane, its refinement if any,
//! next lane), so draws do not depend on strip boundaries. A client
//! adding noise under one stream layout and a server removing it under
//! another would leave the difference in the aggregate, so the layout is
//! part of what the wire version pins; `skellam_vector_golden` and
//! `refinement_layout_golden` make a change to it loud.

use std::cell::Cell;

use dordis_crypto::prg::{Prg, Seed};

use crate::math::ln_factorial;

/// Draws a Poisson(μ) sample from the PRG.
///
/// Small means use Knuth's product-of-uniforms method; large means use
/// Atkinson's logistic-envelope rejection (exact, expected O(1) trials).
fn poisson(prg: &mut Prg, mu: f64) -> u64 {
    assert!(mu >= 0.0, "Poisson mean must be non-negative");
    if mu == 0.0 {
        return 0;
    }
    if mu < 30.0 {
        // Knuth: count multiplications until the product drops below e^-μ.
        let limit = (-mu).exp();
        let mut product = 1.0;
        let mut count = 0u64;
        loop {
            product *= prg.next_f64();
            if product <= limit {
                return count;
            }
            count += 1;
        }
    }
    // Atkinson (1979): rejection from a logistic envelope.
    let beta = std::f64::consts::PI / (3.0 * mu).sqrt();
    let alpha = beta * mu;
    let c = 0.767 - 3.36 / mu;
    let k = c.ln() - mu - beta.ln();
    loop {
        let u1 = prg.next_f64();
        if u1 <= 0.0 || u1 >= 1.0 {
            continue;
        }
        let x = (alpha - ((1.0 - u1) / u1).ln()) / beta;
        let n = (x + 0.5).floor();
        if n < 0.0 {
            continue;
        }
        let u2 = prg.next_f64();
        if u2 <= 0.0 {
            continue;
        }
        let y = alpha - beta * x;
        let lhs = y + (u2 / (1.0 + y.exp()).powi(2)).ln();
        let rhs = k + n * mu.ln() - ln_factorial(n as u64);
        if lhs <= rhs {
            return n as u64;
        }
    }
}

/// Draws one symmetric Skellam sample with the given total variance.
///
/// `Skellam(μ, μ) = Poisson(μ) - Poisson(μ)` with `μ = variance / 2`; the
/// result has mean 0 and variance `2μ = variance`. Skellam noise is closed
/// under summation — the property XNoise's decomposition relies on.
pub(crate) fn skellam(prg: &mut Prg, variance: f64) -> i64 {
    assert!(variance >= 0.0);
    if variance == 0.0 {
        return 0;
    }
    let mu = variance / 2.0;
    poisson(prg, mu) as i64 - poisson(prg, mu) as i64
}

/// Widest support (`2·reach + 1` values) an inversion table may span:
/// `σ ≲ 2 700`. Wider distributions are drawn as Poisson differences.
const TABLE_CAP: usize = 1 << 16;

/// Bits of `u` a draw's 16-bit lane leaves to its refinement word.
pub(crate) const LOW_BITS: u32 = 48;
const LOW_MASK: u64 = (1 << LOW_BITS) - 1;

/// Draws per strip: a buffer small enough to stay in L1 next to the
/// table.
const STRIP: usize = 512;

/// A symmetric Skellam sampler for one variance.
///
/// Up to `TABLE_CAP` the sampler inverts a precomputed survival
/// function of `|X|` (see `SkellamTable`); above it, where the table
/// would no longer fit in cache, every draw is `skellam`'s Poisson
/// difference. The regime is a function of `variance` alone, so a
/// client and the server regenerating its noise always agree on it.
pub struct SkellamSampler {
    variance: f64,
    pub(crate) table: Option<SkellamTable>,
}

impl SkellamSampler {
    /// Prepares a sampler for per-coordinate variance `variance`.
    ///
    /// # Panics
    ///
    /// Panics if `variance` is negative or NaN.
    #[must_use]
    pub fn new(variance: f64) -> Self {
        assert!(variance >= 0.0, "Skellam variance must be non-negative");
        SkellamSampler {
            variance,
            table: SkellamTable::reach_for(variance)
                .map(|reach| SkellamTable::new(variance, reach)),
        }
    }

    /// Hands `sink` the stream's next `len` draws in order, as
    /// `(offset, strip)` with at most `STRIP` draws per call, each a
    /// two's-complement `u64` — the form that adds into `Z_{2^b}` with a
    /// wrapping add and a ring mask. Nothing of length `len` is
    /// allocated.
    pub fn for_each_strip(&self, prg: &mut Prg, len: usize, mut sink: impl FnMut(usize, &[u64])) {
        let mut strip = [0u64; STRIP];
        for at in (0..len).step_by(STRIP) {
            let strip = &mut strip[..STRIP.min(len - at)];
            self.fill_ring(prg, strip);
            sink(at, strip);
        }
    }

    /// Overwrites `out` with the stream's next `out.len()` draws. The
    /// stream is read strictly in order — a draw's lane, its refinement
    /// word if it needs one, the next draw's lane — so the draws do not
    /// depend on how a vector is cut into `out`s.
    pub(crate) fn fill_ring(&self, prg: &mut Prg, out: &mut [u64]) {
        if let Some(table) = &self.table {
            let wide = !SCALAR_DRAWS.with(Cell::get);
            let mut drawn = 0;
            while drawn < out.len() {
                // Whole draws straight out of the buffered keystream,
                // with no call a lane: groups of eight on the kernel,
                // then one at a time while a lane and a refinement word
                // both fit.
                prg.read_buffered(|bytes| {
                    let (groups, mut at) = if wide {
                        draw_groups(table, bytes, &mut out[drawn..])
                    } else {
                        (0, 0)
                    };
                    drawn += groups;
                    for slot in &mut out[drawn..] {
                        let Some(draw) = bytes.get(at..at + 2 + 8) else {
                            break;
                        };
                        let mut used = 2;
                        let lane = u16::from_le_bytes([draw[0], draw[1]]);
                        *slot = table.draw_lane(lane, || {
                            used = 2 + 8;
                            u64::from_le_bytes(draw[2..].try_into().expect("8 bytes"))
                        }) as u64;
                        at += used;
                        drawn += 1;
                    }
                    at
                });
                // Near the buffer's end a draw may straddle it: one draw
                // through the word reader.
                if let Some(slot) = out.get_mut(drawn) {
                    let lane = prg.next_u16();
                    *slot = table.draw_lane(lane, || prg.next_u64()) as u64;
                    drawn += 1;
                }
            }
        } else {
            for slot in out {
                *slot = skellam(prg, self.variance) as u64;
            }
        }
    }
}

/// The kernel's draws of whole groups of eight lanes from `bytes`
/// (`skellam_avx512::draw_groups`), or none on a host without it.
#[inline]
fn draw_groups(table: &SkellamTable, bytes: &[u8], out: &mut [u64]) -> (usize, usize) {
    #[cfg(target_arch = "x86_64")]
    return crate::skellam_avx512::draw_groups(table, bytes, out).unwrap_or((0, 0));
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (table, bytes, out);
        (0, 0)
    }
}

thread_local! {
    /// Set while [`with_scalar_draws`] runs its body on this thread.
    static SCALAR_DRAWS: Cell<bool> = const { Cell::new(false) };
}

/// Runs `body` with the 8-lane kernel switched off on this thread, so
/// the scalar draws run on an AVX-512F host too: the tests' and the
/// microbenchmarks' way to reach the fallback. The draws are the same
/// either way.
#[doc(hidden)]
pub fn with_scalar_draws<R>(body: impl FnOnce() -> R) -> R {
    let was = SCALAR_DRAWS.with(|off| off.replace(true));
    let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(body));
    SCALAR_DRAWS.with(|off| off.set(was));
    out.unwrap_or_else(|panic| std::panic::resume_unwind(panic))
}

/// Runs `body` on the 8-lane kernel where this host has it (printing the
/// skip line where it does not), then again on the scalar draws.
#[doc(hidden)]
pub fn on_both_paths(body: impl Fn()) {
    #[cfg(target_arch = "x86_64")]
    let wide = crate::skellam_avx512::detected();
    #[cfg(not(target_arch = "x86_64"))]
    let wide = false;
    if !wide {
        println!("skellam wide path: skipped (no avx512f)");
    }
    body();
    with_scalar_draws(body);
}

/// Guide-table inversion of the symmetric Skellam distribution
/// `P(X = k) = e^{-2μ} I_|k|(2μ)`, truncated to `|k| ≤ reach`.
///
/// A draw is a sign bit and a uniform 63-bit `u` inverted through the
/// survival function of `|X|`. Small `u` maps to large magnitudes, so the
/// tail thresholds are small integers held at full relative precision,
/// and the output is symmetric by construction.
///
/// The stream layout ([`SkellamTable::draw_lane`]): a draw reads the next
/// 2 keystream bytes as a little-endian lane — bit 0 the sign, bits
/// 1..=15 the top 15 bits of `u`. When every `u` with those top bits
/// inverts to the same magnitude, that is the draw. Otherwise it reads
/// the next 8 bytes as a little-endian word whose top 48 bits are the
/// low 48 bits of `u`. The lane and the word are disjoint keystream, so
/// `u` is uniform on 63 bits either way.
pub(crate) struct SkellamTable {
    /// `survival[m] = 2^63 · P(|X| ≥ m)` for `m ∈ 0..=reach + 1`:
    /// `2^63` at 0, non-increasing, 0 at `reach + 1`.
    pub(crate) survival: Vec<u64>,
    /// `guide[u >> shift]` is the smallest magnitude any `u` of that
    /// bucket maps to; the draw walks up from there (under 1/4 step on
    /// average: buckets are equiprobable and outnumber thresholds 4:1).
    /// One padding entry follows the last bucket's, so the kernel's
    /// 32-bit gather at the last bucket stays inside the table.
    pub(crate) guide: Vec<u16>,
    pub(crate) shift: u32,
}

impl SkellamTable {
    /// The truncation point `⌈12σ + 24⌉`, or `None` above [`TABLE_CAP`].
    ///
    /// The neglected mass `P(|X| > reach)` is below `2^-64` for every
    /// variance the table serves (a Chernoff bound puts it under `2^-100`;
    /// asserted in `reach_leaves_less_than_2_pow_minus_64`).
    fn reach_for(variance: f64) -> Option<usize> {
        let reach = (12.0 * variance.sqrt() + 24.0).ceil();
        (2.0 * reach + 1.0 <= TABLE_CAP as f64).then_some(reach as usize)
    }

    fn new(variance: f64, reach: usize) -> Self {
        const ONE: u64 = 1 << 63;
        // Miller's backward recurrence in ratio form: with
        // r_k = I_k(x) / I_{k-1}(x) and x = 2μ = variance,
        // r_k = 1 / (2k/x + r_{k+1}). Started from 0 at 2·reach, the
        // start-up error has decayed by more than e^-400 at `reach`.
        let mut w = vec![0.0f64; reach + 2];
        let mut ratio = 0.0;
        for k in (1..=2 * reach).rev() {
            ratio = 1.0 / (2.0 * k as f64 / variance + ratio);
            if k <= reach {
                w[k] = ratio;
            }
        }
        // Forward: w[m] ∝ P(|X| = m) = (2 - [m = 0]) · I_m / I_0.
        w[0] = 1.0;
        let mut bessel = 1.0;
        for m in 1..=reach {
            bessel *= w[m];
            w[m] = 2.0 * bessel;
        }
        // Suffix sums from the small end, normalised by
        // w[0] = (I_0 + 2 Σ I_k) / I_0.
        for m in (0..=reach).rev() {
            w[m] += w[m + 1];
        }
        let scale = ONE as f64 / w[0];
        let mut survival: Vec<u64> = w.iter().map(|&s| ((s * scale) as u64).min(ONE)).collect();
        survival[0] = ONE;

        let buckets = (4 * (reach + 1)).next_power_of_two();
        let shift = 63 - buckets.trailing_zeros();
        let mut guide = Vec::with_capacity(buckets + 1);
        let mut m = reach;
        for bucket in 1..=buckets as u64 {
            // The bucket's largest u is `(bucket << shift) - 1`.
            while survival[m] < bucket << shift {
                m -= 1;
            }
            guide.push(m as u16);
        }
        guide.push(0);
        SkellamTable {
            survival,
            guide,
            shift,
        }
    }

    /// The smallest magnitude at or above `m` that `u` maps to.
    #[inline]
    fn walk(&self, mut m: usize, u: u64) -> usize {
        while u < self.survival[m + 1] {
            m += 1;
        }
        m
    }

    /// One draw from its 16-bit `lane`; `refine` supplies the stream's
    /// next 64-bit word and is called only when the lane leaves the
    /// magnitude undecided.
    #[inline]
    pub(crate) fn draw_lane(&self, lane: u16, refine: impl FnOnce() -> u64) -> i64 {
        // Every `u` the lane can still become lies in `lo..=hi`. The
        // magnitude is non-increasing in `u`, so `hi` gives the
        // interval's smallest one, and the lane decides the draw when
        // `lo` does not cross the next threshold either.
        let lo = u64::from(lane >> 1) << LOW_BITS;
        let hi = lo | LOW_MASK;
        let mut m = self.walk(usize::from(self.guide[(hi >> self.shift) as usize]), hi);
        if lo < self.survival[m + 1] {
            m = self.walk(m, lo | (refine() >> (64 - LOW_BITS)));
        }
        let negative = i64::from(lane & 1);
        (m as i64 ^ -negative) + negative
    }

    /// The whole draw from one 64-bit word — bit 0 the sign, the other
    /// 63 bits `u` — sharing no step with [`SkellamTable::draw_lane`],
    /// which must compute the same function when its lane and refinement
    /// compose to `word`.
    #[cfg(test)]
    fn draw(&self, word: u64) -> i64 {
        let u = word >> 1;
        let mut m = usize::from(self.guide[(u >> self.shift) as usize]);
        while u < self.survival[m + 1] {
            m += 1;
        }
        let negative = (word & 1) as i64;
        (m as i64 ^ -negative) + negative
    }
}

/// Generates a full Skellam noise vector from a seed.
///
/// Each coordinate is an independent `Skellam` draw with the given
/// per-coordinate variance. Deterministic in `(seed, domain)`: the server
/// can regenerate the identical vector during XNoise removal.
#[must_use]
pub fn skellam_vector(seed: &Seed, domain: &[u8], len: usize, variance: f64) -> Vec<i64> {
    let mut out = Vec::with_capacity(len);
    SkellamSampler::new(variance).for_each_strip(&mut Prg::new(seed, domain), len, |_, strip| {
        out.extend(strip.iter().map(|&z| z as i64));
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mean_var(xs: &[f64]) -> (f64, f64) {
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1.0);
        (mean, var)
    }

    #[test]
    fn poisson_small_mu_moments() {
        let mut prg = Prg::new(&[4u8; 32], b"p");
        let xs: Vec<f64> = (0..30_000).map(|_| poisson(&mut prg, 3.5) as f64).collect();
        let (mean, var) = mean_var(&xs);
        assert!((mean - 3.5).abs() < 0.1, "mean {mean}");
        assert!((var - 3.5).abs() < 0.2, "var {var}");
    }

    #[test]
    fn poisson_large_mu_moments() {
        let mut prg = Prg::new(&[5u8; 32], b"p");
        let mu = 400.0;
        let xs: Vec<f64> = (0..20_000).map(|_| poisson(&mut prg, mu) as f64).collect();
        let (mean, var) = mean_var(&xs);
        assert!((mean - mu).abs() < 2.0, "mean {mean}");
        assert!((var - mu).abs() < 20.0, "var {var}");
    }

    #[test]
    fn poisson_zero_mu() {
        let mut prg = Prg::new(&[6u8; 32], b"p");
        assert_eq!(poisson(&mut prg, 0.0), 0);
    }

    #[test]
    fn poisson_boundary_between_algorithms() {
        // Means just below and above the algorithm switch should both be
        // close to their targets.
        for &mu in &[29.0, 31.0] {
            let mut prg = Prg::new(&[7u8; 32], b"p");
            let xs: Vec<f64> = (0..20_000).map(|_| poisson(&mut prg, mu) as f64).collect();
            let (mean, var) = mean_var(&xs);
            assert!((mean - mu).abs() < 0.5, "mu={mu} mean={mean}");
            assert!((var - mu).abs() < 2.5, "mu={mu} var={var}");
        }
    }

    #[test]
    fn skellam_moments() {
        let mut prg = Prg::new(&[8u8; 32], b"s");
        let variance = 16.0;
        let xs: Vec<f64> = (0..30_000)
            .map(|_| skellam(&mut prg, variance) as f64)
            .collect();
        let (mean, var) = mean_var(&xs);
        assert!(mean.abs() < 0.1, "mean {mean}");
        assert!((var - variance).abs() < 0.8, "var {var}");
    }

    #[test]
    fn skellam_vector_deterministic() {
        on_both_paths(|| {
            let a = skellam_vector(&[9u8; 32], b"k0", 64, 4.0);
            let b = skellam_vector(&[9u8; 32], b"k0", 64, 4.0);
            assert_eq!(a, b);
            let c = skellam_vector(&[9u8; 32], b"k1", 64, 4.0);
            assert_ne!(a, c);
        });
    }

    #[test]
    fn skellam_sum_variance_is_additive() {
        on_both_paths(|| {
            // Sum of two independent Skellams with variances v1, v2 has
            // variance v1 + v2 — the closure property in §3 of the paper.
            let n = 20_000;
            let a = skellam_vector(&[10u8; 32], b"a", n, 3.0);
            let b = skellam_vector(&[11u8; 32], b"b", n, 5.0);
            let sums: Vec<f64> = a
                .iter()
                .zip(b.iter())
                .map(|(x, y)| (x + y) as f64)
                .collect();
            let (mean, var) = mean_var(&sums);
            assert!(mean.abs() < 0.15, "mean {mean}");
            assert!((var - 8.0).abs() < 0.5, "var {var}");
        });
    }

    /// The reference plan's component variances, the extremes, and the
    /// two sides of the table cap (asserted in `regime_follows_variance`).
    const UNDER_CAP: f64 = 7.44e6;
    const OVER_CAP: f64 = 7.46e6;
    const VARIANCES: [f64; 7] = [0.5, 4.0, 86.0, 312.0, 2496.0, UNDER_CAP, OVER_CAP];

    /// Bin edges for a goodness-of-fit test: width `max(1, σ/8)` out to
    /// `±3.5σ`; everything beyond falls into two open tail bins.
    fn bin_edges(variance: f64) -> Vec<i64> {
        let sigma = variance.sqrt();
        let width = ((sigma / 8.0).round() as i64).max(1);
        let half = (3.5 * sigma / width as f64).ceil() as i64;
        (-half..=half + 1).map(|i| i * width - width / 2).collect()
    }

    fn histogram(edges: &[i64], xs: impl Iterator<Item = i64>) -> Vec<f64> {
        let mut counts = vec![0.0; edges.len() + 1];
        for x in xs {
            counts[edges.partition_point(|&e| e <= x)] += 1.0;
        }
        counts
    }

    /// `P(X < edge)` for every edge, computed without Bessel functions:
    /// `X = A - B` with `A, B ~ Poisson(μ)`, so
    /// `P(X < e) = Σ_j P(B = j) · P(A < j + e)`, with the Poisson pmf
    /// evaluated in log space over `μ ± (12√μ + 40)`.
    fn convolved_cdf(variance: f64, edges: &[i64]) -> Vec<f64> {
        let mu = variance / 2.0;
        let span = (12.0 * mu.sqrt() + 40.0).ceil() as i64;
        let lo = (mu.floor() as i64 - span).max(0);
        let hi = mu.floor() as i64 + span;
        let pmf: Vec<f64> = (lo..=hi)
            .map(|j| (j as f64 * mu.ln() - mu - ln_factorial(j as u64)).exp())
            .collect();
        // below[i] = P(A < lo + i).
        let mut below = vec![0.0; pmf.len() + 1];
        for (i, p) in pmf.iter().enumerate() {
            below[i + 1] = below[i] + p;
        }
        edges
            .iter()
            .map(|&e| {
                pmf.iter()
                    .enumerate()
                    .map(|(j, p)| p * below[(j as i64 + e).clamp(0, pmf.len() as i64) as usize])
                    .sum()
            })
            .collect()
    }

    /// Expected bin counts for `n` draws over `edges` (tails included).
    fn expected_counts(variance: f64, edges: &[i64], n: usize) -> Vec<f64> {
        let cdf = convolved_cdf(variance, edges);
        let mut prev = 0.0;
        let mut out: Vec<f64> = cdf
            .iter()
            .map(|&c| {
                let p = c - prev;
                prev = c;
                p * n as f64
            })
            .collect();
        out.push((1.0 - prev) * n as f64);
        out
    }

    /// `(χ² - dof) / √(2·dof)` of observed against expected counts.
    fn chi_square_z(observed: &[f64], expected: &[f64]) -> f64 {
        let chi: f64 = observed
            .iter()
            .zip(expected)
            .map(|(o, e)| (o - e) * (o - e) / e)
            .sum();
        let dof = (observed.len() - 1) as f64;
        (chi - dof) / (2.0 * dof).sqrt()
    }

    #[test]
    fn regime_follows_variance() {
        for v in VARIANCES {
            assert_eq!(SkellamSampler::new(v).table.is_some(), v != OVER_CAP, "{v}");
        }
        let widest = SkellamSampler::new(UNDER_CAP).table.unwrap();
        assert!(2 * widest.survival.len() - 3 <= TABLE_CAP);
    }

    #[test]
    fn skellam_vector_fits_convolved_pmf() {
        on_both_paths(|| {
            // Both regimes against a pmf that shares no code with either.
            const N: usize = 200_000;
            for variance in VARIANCES {
                let edges = bin_edges(variance);
                let expected = expected_counts(variance, &edges, N);
                assert!(expected.iter().all(|&e| e > 10.0), "{variance}: thin bin");
                for seed in [21u8, 22, 23] {
                    let xs = skellam_vector(&[seed; 32], b"chi", N, variance);
                    let z = chi_square_z(&histogram(&edges, xs.into_iter()), &expected);
                    assert!(z < 4.0, "variance {variance}, seed {seed}: z = {z}");
                }
            }
        });
    }

    #[test]
    fn table_agrees_with_poisson_difference_oracle() {
        on_both_paths(|| {
            const N: usize = 200_000;
            for variance in [4.0, 86.0, 2496.0] {
                let edges = bin_edges(variance);
                let table = histogram(
                    &edges,
                    skellam_vector(&[31u8; 32], b"two", N, variance).into_iter(),
                );
                let mut prg = Prg::new(&[32u8; 32], b"two");
                let oracle = histogram(&edges, (0..N).map(|_| skellam(&mut prg, variance)));
                // Two-sample χ² with equal sample sizes.
                let chi: f64 = table
                    .iter()
                    .zip(&oracle)
                    .map(|(a, b)| (a - b) * (a - b) / (a + b))
                    .sum();
                let dof = edges.len() as f64;
                let z = (chi - dof) / (2.0 * dof).sqrt();
                assert!(z < 4.0, "variance {variance}: z = {z}");
            }
        });
    }

    #[test]
    fn table_pmf_matches_convolved_pmf() {
        // The table itself, not samples from it: P(|X| ≥ m) to 1e-10
        // (the Lanczos `ln_factorial` of the reference is the limit).
        for variance in [0.5, 4.0, 86.0, 312.0, 2496.0] {
            let table = SkellamSampler::new(variance).table.unwrap();
            let reach = table.survival.len() as i64 - 2;
            let edges: Vec<i64> = (1..=reach.min(400)).collect();
            for (m, below) in edges.iter().zip(convolved_cdf(variance, &edges)) {
                // P(|X| ≥ m) = 2 · (1 - P(X < m)) by symmetry.
                let want = 2.0 * (1.0 - below);
                let got = table.survival[*m as usize] as f64 / (1u64 << 63) as f64;
                assert!(
                    (got - want).abs() < 1e-10,
                    "{variance}, m = {m}: {got} vs {want}"
                );
            }
        }
    }

    /// The 64-bit word a lane and the low 48 bits of `u` compose to.
    fn composed(lane: u16, low: u64) -> u64 {
        assert!(low <= LOW_MASK);
        ((u64::from(lane >> 1) << LOW_BITS | low) << 1) | u64::from(lane & 1)
    }

    /// A refinement word carrying `low`; its bottom 16 bits are not read.
    fn refinement(low: u64) -> u64 {
        low << 16 | 0xa5a5
    }

    #[test]
    fn every_lane_agrees_with_the_word_oracle() {
        for variance in [0.5, 4.0, 86.0, 312.0, 2496.0, UNDER_CAP] {
            let table = SkellamSampler::new(variance).table.unwrap();
            for lane in 0..=u16::MAX {
                let at_lo = table.draw(composed(lane, 0));
                let at_hi = table.draw(composed(lane, LOW_MASK));
                let mut refined = false;
                let got = table.draw_lane(lane, || {
                    refined = true;
                    refinement(0)
                });
                assert_eq!(got, at_lo, "{variance}, lane {lane}");
                // Undecided exactly when the interval's two ends differ.
                assert_eq!(refined, at_lo != at_hi, "{variance}, lane {lane}");
                if !refined {
                    continue;
                }
                // Both ends of the interval and both sides of every
                // threshold inside it.
                let lo = u64::from(lane >> 1) << LOW_BITS;
                let (near, far) = (at_hi.unsigned_abs() as usize, at_lo.unsigned_abs() as usize);
                let lows = (near + 1..=far)
                    .map(|m| table.survival[m] - lo)
                    .flat_map(|t| [t - 1, t, (t + 1).min(LOW_MASK)])
                    .chain([0, LOW_MASK]);
                for low in lows {
                    assert_eq!(
                        table.draw_lane(lane, || refinement(low)),
                        table.draw(composed(lane, low)),
                        "{variance}, lane {lane}, low {low}"
                    );
                }
            }
        }
    }

    #[test]
    fn draws_are_exactly_symmetric() {
        // Flipping the sign bit of every lane negates the vector,
        // refined draws included.
        for variance in [0.5, 86.0, 2496.0, UNDER_CAP] {
            let table = SkellamSampler::new(variance).table.unwrap();
            let mut prg = Prg::new(&[41u8; 32], b"sym");
            for _ in 0..4096 {
                let (lane, word) = (prg.next_u16(), prg.next_u64());
                assert_eq!(
                    table.draw_lane(lane ^ 1, || word),
                    -table.draw_lane(lane, || word)
                );
            }
        }
    }

    #[test]
    fn reach_leaves_less_than_2_pow_minus_64() {
        // Chernoff: P(X ≥ a) ≤ exp(-a·t + σ²(cosh t - 1)) at
        // t = asinh(a / σ²), for every variance the table serves.
        let limit = -64.0 * std::f64::consts::LN_2;
        let mut variance = 1e-9;
        while let Some(reach) = SkellamTable::reach_for(variance) {
            let a = reach as f64 + 1.0;
            let t = (a / variance).asinh();
            let ln_tail = 2f64.ln() - a * t + variance * (t.cosh() - 1.0);
            assert!(ln_tail < limit, "variance {variance}: ln tail {ln_tail}");
            variance *= 1.05;
        }
        assert!(variance > UNDER_CAP);
        // And the extreme lanes stay inside the truncated support.
        for variance in [0.0, 1e-300, 0.5, 2496.0, UNDER_CAP] {
            let table = SkellamSampler::new(variance).table.unwrap();
            let reach = table.survival.len() as i64 - 2;
            assert_eq!(table.draw_lane(u16::MAX, || u64::MAX), 0);
            for (lane, low) in [(0, 0), (1, 0), (0, 1), (1, 1)] {
                let x = table.draw_lane(lane, || refinement(low));
                assert!(x.abs() <= reach, "{variance}, lane {lane}, low {low}");
            }
            let smallest_u = table.draw_lane(0, || refinement(0));
            assert_eq!(smallest_u > 0, variance >= 0.5, "smallest u is the tail");
        }
    }

    #[test]
    fn skellam_vector_golden() {
        on_both_paths(|| {
            // Pins the stream layout (one 16-bit lane per draw, bit 0 the
            // sign): a change here changes every client's noise for a given
            // seed, and is a `WIRE_VERSION` bump.
            assert_eq!(
                skellam_vector(&[7u8; 32], b"golden", 8, 312.0),
                [3, -1, -9, 15, -29, 2, 19, -6]
            );
        });
    }

    #[test]
    fn refinement_layout_golden() {
        on_both_paths(|| {
            // 4096 draws at σ ≈ 50 hold 23 refinements, so which 48
            // bits a refinement takes, and where the next lane then sits, is
            // pinned as bytes too.
            let draws = skellam_vector(&[7u8; 32], b"golden", 4096, 2496.0);
            let bytes: Vec<u8> = draws.iter().flat_map(|x| x.to_le_bytes()).collect();
            let digest: String = dordis_crypto::sha256::sha256(&bytes)
                .iter()
                .map(|b| format!("{b:02x}"))
                .collect();
            assert_eq!(
                digest,
                "c47a458965132dc89db7adf260180d84c6f9a834939ffeeebbc320db92dc49eb"
            );
        });
    }

    #[test]
    fn draws_consume_two_bytes_and_eight_per_refinement() {
        on_both_paths(|| {
            const N: usize = 100_000;
            for (variance, most_refined) in [(86.0, 0.002), (2496.0, 0.01), (UNDER_CAP, 0.25)] {
                let sampler = SkellamSampler::new(variance);
                let table = sampler.table.as_ref().unwrap();
                let mut prg = Prg::new(&[6u8; 32], b"bytes");
                let mut got = Vec::with_capacity(N);
                sampler.for_each_strip(&mut prg, N, |_, strip| got.extend_from_slice(strip));

                // The word oracle reading the same stream by the layout rule.
                let mut replay = Prg::new(&[6u8; 32], b"bytes");
                let mut refinements = 0;
                for (i, &x) in got.iter().enumerate() {
                    let lane = replay.next_u16();
                    let mut word = composed(lane, 0);
                    if table.draw(word) != table.draw(composed(lane, LOW_MASK)) {
                        refinements += 1;
                        word = composed(lane, replay.next_u64() >> 16);
                    }
                    assert_eq!(x as i64, table.draw(word), "{variance}, draw {i}");
                }
                let share = refinements as f64 / N as f64;
                assert!(share > 0.0 && share < most_refined, "{variance}: {share}");

                let mut skipped = Prg::new(&[6u8; 32], b"bytes");
                skipped.fill_bytes(&mut vec![0u8; 2 * N + 8 * refinements]);
                assert_eq!(prg.next_u64(), skipped.next_u64(), "{variance}");
            }
        });
    }

    #[test]
    fn draws_do_not_depend_on_strip_boundaries() {
        on_both_paths(|| {
            for variance in [86.0, OVER_CAP] {
                let whole = skellam_vector(&[5u8; 32], b"strip", 1500, variance);
                let sampler = SkellamSampler::new(variance);
                let mut prg = Prg::new(&[5u8; 32], b"strip");
                let mut pieces = vec![0u64; 1500];
                for piece in pieces.chunks_mut(97) {
                    sampler.fill_ring(&mut prg, piece);
                }
                let pieces: Vec<i64> = pieces.into_iter().map(|z| z as i64).collect();
                assert_eq!(whole, pieces);
            }
        });
    }

    #[test]
    fn skellam_zero_variance() {
        on_both_paths(|| {
            let v = skellam_vector(&[12u8; 32], b"z", 16, 0.0);
            assert!(v.iter().all(|&x| x == 0));
        });
    }
}
