//! Reproducibility: identical inputs must yield identical outputs across
//! the whole stack — workloads, topologies, plans, and simulations.

use hermes::baselines::standard_suite;
use hermes::core::{Epsilon, ProgramAnalyzer, SearchContext};
use hermes::dataplane::library;
use hermes::dataplane::synthetic::{SyntheticConfig, SyntheticGenerator};
use hermes::net::topology;
use hermes::sim::testbed::{run_flow, TestbedConfig};
use std::time::Duration;

#[test]
fn plans_are_identical_across_runs_for_every_algorithm() {
    let tdg = ProgramAnalyzer::new().analyze(&library::real_programs());
    let net = topology::linear(3, 10.0);
    let eps = Epsilon::loose();
    let run = |algo: &dyn hermes::core::Solver| {
        let ctx = SearchContext::with_time_limit(Duration::from_millis(500));
        algo.solve(&tdg, &net, &eps, &ctx).map(|o| o.plan)
    };
    for algo in standard_suite() {
        // Exhaustive solvers may improve with more time, so rerun only the
        // deterministic ones exactly; solvers still must not *crash*.
        if algo.is_exhaustive() {
            let _ = run(algo.as_ref());
            continue;
        }
        let a = run(algo.as_ref()).unwrap();
        let b = run(algo.as_ref()).unwrap();
        assert_eq!(a, b, "{} is nondeterministic", algo.name());
    }
}

#[test]
fn synthetic_workloads_and_topologies_reproduce() {
    let w1 = SyntheticGenerator::new(42, SyntheticConfig::default()).programs(10);
    let w2 = SyntheticGenerator::new(42, SyntheticConfig::default()).programs(10);
    assert_eq!(w1, w2);
    assert_eq!(topology::table3_wan(3), topology::table3_wan(3));
}

#[test]
fn analyzer_is_deterministic() {
    let a = ProgramAnalyzer::new().analyze(&library::real_programs());
    let b = ProgramAnalyzer::new().analyze(&library::real_programs());
    assert_eq!(a, b);
}

#[test]
fn simulator_is_deterministic() {
    let config = TestbedConfig { packets: 2_000, ..Default::default() };
    let a = run_flow(&config, 1024, 48);
    let b = run_flow(&config, 1024, 48);
    assert_eq!(a, b);
}
