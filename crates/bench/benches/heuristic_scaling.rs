//! Empirical check of Theorem 2: the greedy heuristic's running time
//! grows near-linearly in `(|V| + |E|) log |V| + |Q|²` with the workload,
//! staying in milliseconds where ILP solvers take hours.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hermes_bench::{analyze, workload};
use hermes_core::{Epsilon, GreedyHeuristic, Solver};
use hermes_net::topology::table3_wan;
use std::hint::black_box;

fn heuristic_scaling(c: &mut Criterion) {
    let net = table3_wan(9);
    let eps = Epsilon::loose();
    let mut group = c.benchmark_group("heuristic_scaling");
    group.sample_size(20);
    for programs in [10usize, 20, 30, 50] {
        let tdg = analyze(&workload(programs));
        group.bench_with_input(BenchmarkId::new("programs", programs), &tdg, |b, tdg| {
            b.iter(|| black_box(GreedyHeuristic::new().deploy(black_box(tdg), &net, &eps)))
        });
    }
    group.finish();
}

criterion_group!(benches, heuristic_scaling);
criterion_main!(benches);
