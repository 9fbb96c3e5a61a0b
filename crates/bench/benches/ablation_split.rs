//! Ablation (timing side): the paper's min-metadata split vs. balanced and
//! random splits. The *quality* side of this ablation is reported by
//! `cargo run -p hermes-bench --bin ablations`.

use criterion::{criterion_group, criterion_main, Criterion};
use hermes_bench::{analyze, workload};
use hermes_core::{Epsilon, GreedyHeuristic, Solver, SplitStrategy};
use hermes_net::topology::table3_wan;
use std::hint::black_box;

fn ablation_split(c: &mut Criterion) {
    let tdg = analyze(&workload(30));
    let net = table3_wan(0);
    let eps = Epsilon::loose();
    let mut group = c.benchmark_group("ablation_split");
    group.sample_size(20);
    for (label, strategy) in [
        ("min_metadata", SplitStrategy::MinMetadata),
        ("balanced", SplitStrategy::Balanced),
        ("random", SplitStrategy::Random(7)),
    ] {
        group.bench_function(label, |b| {
            let h = GreedyHeuristic::with_strategy(strategy);
            b.iter(|| black_box(h.deploy(black_box(&tdg), &net, &eps)))
        });
    }
    group.finish();
}

criterion_group!(benches, ablation_split);
criterion_main!(benches);
