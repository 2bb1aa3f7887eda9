//! Figure 12 end to end: a networked SecAgg round on 127.0.0.1
//! with injected per-stage latency (bandwidth-throttled
//! uplinks, emulated per-chunk server compute), at m = 1 versus the
//! planner-chosen chunk count. The scenario is the shared
//! [`dordis_net::figure12::OverlapScenario`] harness — the same
//! definition the `pipeline_overlap` regression test asserts on.
//! Results are also written to `BENCH_chunked_round.json` at the
//! workspace root so the perf trajectory tracks the pipeline speedup
//! across PRs.
//!
//! ```sh
//! cargo bench -p dordis-bench --bench chunked_round
//! ```

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dordis_net::figure12::OverlapScenario;

fn bench_chunked_round(c: &mut Criterion) {
    let scenario = OverlapScenario::default_loopback();
    let mstar = scenario.planner_chunks();
    let mut g = c.benchmark_group("chunked_round");
    g.sample_size(2);
    for m in [1usize, mstar] {
        g.bench_with_input(BenchmarkId::new("loopback_round", m), &m, |b, &m| {
            b.iter(|| scenario.timed_round(m));
        });
    }
    g.finish();

    // The Figure 12 trajectory point: best-of-3 wall clock per config,
    // written where the perf history can pick it up.
    let best = |m: usize| {
        (0..3)
            .map(|_| scenario.timed_round(m).1)
            .min()
            .expect("three runs")
            .as_secs_f64()
    };
    let t1 = best(1);
    let tm = best(mstar);
    let json = format!(
        "{{\n  \"bench\": \"chunked_round\",\n  \"dim\": {},\n  \"clients\": {},\n  \
         \"bit_width\": {},\n  \"uplink_bytes_per_sec\": {},\n  \
         \"injected_compute_ms\": {},\n  \"planner_chunks\": {mstar},\n  \
         \"secs_m1\": {t1:.6},\n  \"secs_planned\": {tm:.6},\n  \"speedup\": {:.4}\n}}\n",
        scenario.dim,
        scenario.clients,
        scenario.bit_width,
        scenario.uplink_bytes_per_sec,
        scenario.compute.as_millis(),
        t1 / tm,
    );
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_chunked_round.json"
    );
    std::fs::write(path, json).expect("write BENCH_chunked_round.json");
    println!(
        "chunked_round: m=1 {t1:.3}s, m={mstar} {tm:.3}s, speedup {:.2}x -> {path}",
        t1 / tm
    );
}

criterion_group!(benches, bench_chunked_round);
criterion_main!(benches);
