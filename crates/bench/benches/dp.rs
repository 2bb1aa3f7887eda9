//! Microbenchmarks of the DP machinery: Skellam sampling, DSkellam
//! encoding/decoding, and privacy accounting.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dordis_crypto::prg::Prg;
use dordis_dp::accountant::{Mechanism, RdpAccountant};
use dordis_dp::encoding::{Encoder, EncodingConfig};
use dordis_dp::mechanism::{skellam_vector, with_scalar_draws, SkellamSampler};
use dordis_dp::planner::{plan, PlannerConfig};
use dordis_xnoise::decomposition::XNoisePlan;

fn bench_skellam(c: &mut Criterion) {
    let mut g = c.benchmark_group("skellam_vector");
    // small/large, then three plan-sized variances (σ ≈ 9, 18, 50), then
    // the widest table, where a draw most often needs its refinement
    // word (≈ 20 % of draws). The reference workload's own components
    // (`fl_xnoise32`: 74 869.6 over 32 clients, T = 16, so ≈ 2 340 at
    // k = 0, 75.5 at k = 1 rising to 275 at k = T) are the `fill_8192`
    // rows below.
    for (label, variance) in [
        ("small_var", 4.0),
        ("large_var", 4000.0),
        ("plan_86", 86.0),
        ("plan_312", 312.0),
        ("plan_2496", 2496.0),
        ("near_cap", 7.4e6),
    ] {
        g.throughput(Throughput::Elements(10_000));
        g.bench_with_input(BenchmarkId::from_parameter(label), &variance, |b, &v| {
            b.iter(|| skellam_vector(&[1u8; 32], b"bench", 10_000, v));
        });
    }
    g.finish();

    // One draw a row, from one long stream at the reference plan's
    // middle component: the sampler's table walk and its two keystream
    // bytes (the word reader's refills amortised), without the key
    // derivation and the allocation a `skellam_vector` call adds.
    let sampler = SkellamSampler::new(312.0);
    let mut prg = Prg::new(&[1u8; 32], b"bench");
    let (mut drawn, mut next) = (Vec::with_capacity(512), 0);
    let mut g = c.benchmark_group("skellam");
    g.sample_size(2_000_000);
    g.bench_function("draw", |b| {
        b.iter(|| {
            if next == drawn.len() {
                drawn.clear();
                sampler.for_each_strip(&mut prg, 512, |_, strip| drawn.extend_from_slice(strip));
                next = 0;
            }
            next += 1;
            drawn[next - 1]
        });
    });

    // A whole 8 192-draw fill (sixteen strips) from one long stream, on
    // the 8-lane kernel and on the scalar draws, at the two smallest
    // component variances of the reference workload's plan (32 clients,
    // T = 16: component 0 ≈ 2 340, component 1 ≈ 75.5). On a host
    // without AVX-512F both rows are the scalar draws.
    let xplan = XNoisePlan::new(74_869.6, 32, 16, 0, 17).expect("a valid plan");
    g.sample_size(2_000);
    g.throughput(Throughput::Elements(8192));
    for k in [0, 1] {
        let sampler = SkellamSampler::new(xplan.component_variance(k));
        let mut prg = Prg::new(&[2u8; 32], b"bench");
        let mut fill = move || {
            let mut acc = 0u64;
            sampler.for_each_strip(&mut prg, 8192, |_, strip| {
                acc = strip.iter().fold(acc, |a, &z| a.wrapping_add(z));
            });
            acc
        };
        g.bench_function(format!("fill_8192/kernel_k{k}"), |b| b.iter(&mut fill));
        g.bench_function(format!("fill_8192/scalar_k{k}"), |b| {
            b.iter(|| with_scalar_draws(&mut fill));
        });
    }
    g.finish();
}

fn bench_encode_decode(c: &mut Criterion) {
    let cfg = EncodingConfig::default();
    let enc = Encoder::new(&cfg, [2u8; 32]);
    let update: Vec<f64> = (0..4000)
        .map(|i| ((i as f64) * 0.01).sin() * 0.01)
        .collect();
    c.bench_function("dskellam_encode_4k", |b| {
        b.iter(|| enc.encode(&update, &[3u8; 32]).unwrap());
    });
    let encoded = enc.encode(&update, &[3u8; 32]).unwrap();
    c.bench_function("dskellam_decode_4k", |b| {
        b.iter(|| enc.decode(&encoded, update.len()));
    });
}

fn bench_accounting(c: &mut Criterion) {
    c.bench_function("rdp_compose_150_rounds", |b| {
        b.iter(|| {
            let mut acct = RdpAccountant::new();
            for _ in 0..150 {
                acct.record_round(Mechanism::Gaussian, 0.16, 0.8);
            }
            acct.epsilon(1e-2)
        });
    });
    c.bench_function("noise_planning_binary_search", |b| {
        b.iter(|| {
            plan(&PlannerConfig {
                epsilon: 6.0,
                delta: 1e-2,
                rounds: 150,
                sample_rate: 0.16,
                mechanism: Mechanism::Skellam { l1_per_l2: 64.0 },
            })
            .unwrap()
        });
    });
}

criterion_group!(
    benches,
    bench_skellam,
    bench_encode_decode,
    bench_accounting
);
criterion_main!(benches);
