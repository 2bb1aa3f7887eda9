//! Microbenchmarks of the FL model at the reference workload's shape
//! (`fl_xnoise32`: 40 features, 64 hidden units, 62 classes, batches of
//! 20): one forward pass (`predict`, the evaluation path) and one
//! mini-batch gradient (the local-training path).

use criterion::{criterion_group, criterion_main, Criterion};
use dordis_fl::model::{Mlp, Model};

fn bench_mlp(c: &mut Criterion) {
    let model = Mlp::new(40, 64, 62, 1);
    let features: Vec<Vec<f32>> = (0..20)
        .map(|i| {
            (0..40)
                .map(|j| ((i * 40 + j) as f32 * 0.37).sin())
                .collect()
        })
        .collect();
    let xs: Vec<&[f32]> = features.iter().map(Vec::as_slice).collect();
    let ys: Vec<usize> = (0..20).map(|i| i * 7 % 62).collect();
    let mut grad = vec![0.0f32; model.num_params()];
    let mut g = c.benchmark_group("mlp");
    g.sample_size(20_000);
    g.bench_function("forward", |b| b.iter(|| model.predict(xs[0])));
    g.sample_size(2_000);
    g.bench_function("grad_batch_20", |b| {
        b.iter(|| {
            grad.fill(0.0);
            model.grad_batch(&xs, &ys, &mut grad)
        });
    });
    g.finish();
}

criterion_group!(benches, bench_mlp);
criterion_main!(benches);
