//! Pipeline-planning benchmarks: the Appendix C makespan recurrence and
//! the full profile-fit-plan loop must be cheap enough to run per
//! deployment (the paper runs it offline once per task).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dordis_pipeline::cost::{CostModel, Protocol, UnitCosts};
use dordis_pipeline::planner::plan_from_cost_model;
use dordis_pipeline::schedule::schedule;
use dordis_pipeline::timing::{cost_input, paper_hetero, TimingScenario};
use dordis_pipeline::Resource;

fn bench_schedule(c: &mut Criterion) {
    let tau = [12.0, 4.0, 9.0, 4.0, 2.0];
    let res = [
        Resource::CComp,
        Resource::Comm,
        Resource::SComp,
        Resource::Comm,
        Resource::CComp,
    ];
    let mut g = c.benchmark_group("appendix_c_schedule");
    for m in [4usize, 20, 100] {
        g.bench_with_input(BenchmarkId::from_parameter(m), &m, |b, &m| {
            b.iter(|| schedule(&tau, &res, m).makespan);
        });
    }
    g.finish();
}

fn bench_full_planning(c: &mut Criterion) {
    let scenario = TimingScenario {
        name: "bench".into(),
        model_params: 11_000_000,
        clients: 100,
        protocol: Protocol::SecAgg,
        dp: true,
        xnoise: true,
        dropout_rate: 0.1,
        other_secs: 60.0,
        bit_width: 20,
    };
    let cost = CostModel::new(UnitCosts::paper_testbed());
    let input = cost_input(&scenario, &paper_hetero(1));
    c.bench_function("profile_fit_plan_m20", |b| {
        b.iter(|| plan_from_cost_model(&cost, &input, 20, 1).chunks);
    });
}

criterion_group!(benches, bench_schedule, bench_full_planning);
criterion_main!(benches);
