//! Exp#3 in microcosm: heuristic vs. first-fit vs. an ILP framework on the
//! testbed workload. The ILP's budget is clamped so the bench terminates;
//! the orders-of-magnitude gap is visible regardless.

use criterion::{criterion_group, criterion_main, Criterion};
use hermes_baselines::{FirstFitByLevel, IlpBaseline, IlpConfig};
use hermes_bench::{analyze, workload};
use hermes_core::{Epsilon, GreedyHeuristic, SearchContext, Solver};
use hermes_net::topology;
use std::hint::black_box;
use std::time::Duration;

fn solver_time(c: &mut Criterion) {
    let tdg = analyze(&workload(6));
    let net = topology::linear(3, 10.0);
    let eps = Epsilon::loose();
    let mut group = c.benchmark_group("solver_time");
    group.sample_size(10);
    group.bench_function("hermes_heuristic", |b| {
        b.iter(|| black_box(GreedyHeuristic::new().deploy(black_box(&tdg), &net, &eps)))
    });
    group.bench_function("ffl", |b| {
        b.iter(|| black_box(FirstFitByLevel.deploy(black_box(&tdg), &net, &eps)))
    });
    group.bench_function("min_stage_ilp_100ms_budget", |b| {
        let ilp = IlpBaseline::min_stage(IlpConfig::default());
        b.iter(|| {
            let ctx = SearchContext::with_time_limit(Duration::from_millis(100));
            black_box(ilp.solve(black_box(&tdg), &net, &eps, &ctx))
        })
    });
    group.finish();
}

criterion_group!(benches, solver_time);
criterion_main!(benches);
