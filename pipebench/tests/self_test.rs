//! Self-test of the benchmark: a short smoke of every workload, run
//! twice with one seed, must pass every check and print the same digest.
//! Run it optimized: `cargo test --release --manifest-path
//! pipebench/Cargo.toml`.

use pipebench::workload::WorkloadKind;
use pipebench::{run, Limit, LAYERS};

#[test]
fn smoke_runs_repeat_their_digest() {
    for w in WorkloadKind::ALL {
        let first = run(w, 7, Limit::Requests(2), false).expect("smoke run completes");
        let second = run(w, 7, Limit::Requests(2), false).expect("smoke run completes");
        assert_eq!(first.failed(), 0, "{}: {:?}", w.name(), first.first_failure());
        assert_eq!(first.digest(), second.digest(), "{}: digests differ", w.name());
    }
}

#[test]
fn traced_requests_are_accounted_to_layers() {
    // Tracing alternates per pass over the pool: three orders in
    // `scale-wan`, so six measured requests give one traced pass.
    let report = run(WorkloadKind::ScaleWan, 7, Limit::Requests(6), true).expect("run completes");
    assert_eq!(report.failed(), 0, "{:?}", report.first_failure());
    let metrics = report.per_layer().expect("per-layer metrics");
    let value = |name: &str| metrics.iter().find(|(n, _)| *n == name).expect(name).1.value;
    assert!(value("tdg.merge_ms") > 0.0);
    assert!(value("backend.validate_ms") > 0.0);
    assert!(value("runtime.rollout_ms") > value("backend.validate_ms"));
    assert!(LAYERS[..4].contains(&report.dominant_layer()));
    assert!(report.layer_coverage() > 0.9, "layers cover {}", report.layer_coverage());
}
