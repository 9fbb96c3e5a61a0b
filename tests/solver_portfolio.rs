//! Property suite for the unified solver architecture: on random small
//! TDGs and topologies every [`Solver`]'s plan verifies, objectives obey
//! `exact <= portfolio <= greedy`, and the portfolio's winning output is
//! byte-identical across repeated runs with the same seed and budget.

use hermes::baselines::{FirstFitByLevel, FirstFitByLevelAndSize, IlpBaseline, IlpConfig, Sonata};
use hermes::core::test_support::{chain_tdg, tiny_switches};
use hermes::core::ProgramAnalyzer;
use hermes::core::{
    verify, Epsilon, GreedyHeuristic, MilpHermes, OptimalSolver, Portfolio, SearchContext, Solver,
};
use hermes::dataplane::synthetic::{SyntheticConfig, SyntheticGenerator};
use hermes::net::Network;
use hermes::tdg::Tdg;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::time::Duration;

/// A random single-program chain (2–5 dependency edges, 1–12 B each) on a
/// linear network sized so every placement problem stays tiny but feasible.
fn random_chain_instance(seed: u64) -> (Tdg, Network) {
    let mut rng = StdRng::seed_from_u64(seed);
    let edges = rng.random_range(2..=5usize);
    let bytes: Vec<u32> = (0..edges).map(|_| rng.random_range(1..=12u32)).collect();
    let switches = rng.random_range(2..=3usize);
    // `switches * stages` slots for `edges + 1` half-capacity MATs.
    let stages = edges / switches + 2;
    (chain_tdg(&bytes, 0.5), tiny_switches(switches, stages, 0.5))
}

/// A random multi-program synthetic TDG on a three-switch linear network
/// with deep pipelines (feasibility is all but guaranteed).
fn random_synthetic_instance(seed: u64, programs: usize) -> (Tdg, Network) {
    let mut generator = SyntheticGenerator::new(seed, SyntheticConfig::default());
    let tdg = ProgramAnalyzer::new().analyze(&generator.programs(programs));
    (tdg, tiny_switches(3, 12, 1.0))
}

/// Every registered [`Solver`], exercised through the one unified entry
/// point (no solver-private budget knobs anywhere).
fn all_solvers() -> Vec<Box<dyn Solver>> {
    vec![
        Box::new(GreedyHeuristic::new()),
        Box::new(OptimalSolver::new()),
        Box::new(MilpHermes::default()),
        Box::new(FirstFitByLevel),
        Box::new(FirstFitByLevelAndSize),
        Box::new(IlpBaseline::min_stage(IlpConfig::default())),
        Box::new(Sonata),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Whatever a solver returns must be a verified plan whose recorded
    /// objective matches the plan's recomputed `A_max`. Budgets are tight:
    /// this property needs feasible incumbents, not optimality proofs.
    #[test]
    fn every_solver_plan_verifies(seed in 0u64..1_000, programs in 1usize..3) {
        let (tdg, net) = random_synthetic_instance(seed, programs);
        let eps = Epsilon::loose();
        for solver in all_solvers() {
            let ctx = SearchContext::with_time_limit(Duration::from_secs(1));
            if let Ok(outcome) = solver.solve(&tdg, &net, &eps, &ctx) {
                let violations = verify(&tdg, &net, &outcome.plan, &eps);
                prop_assert!(violations.is_empty(), "{}: {violations:?}", solver.name());
                prop_assert_eq!(outcome.objective, outcome.plan.max_inter_switch_bytes(&tdg));
            }
        }
    }

    /// The proven exact optimum lower-bounds the portfolio, which never
    /// loses to the greedy heuristic it contains.
    #[test]
    fn objectives_ordered_exact_portfolio_greedy(seed in 0u64..1_000) {
        let (tdg, net) = random_chain_instance(seed);
        let eps = Epsilon::loose();
        let exact = OptimalSolver::new()
            .solve(&tdg, &net, &eps, &SearchContext::with_time_limit(Duration::from_secs(20)))
            .expect("chain instances are feasible by construction");
        prop_assert!(exact.proven_optimal, "tiny instance not proven");
        let portfolio = Portfolio::greedy_exact()
            .solve(&tdg, &net, &eps, &SearchContext::with_time_limit(Duration::from_secs(20)))
            .expect("same instance");
        let greedy = GreedyHeuristic::new()
            .solve(&tdg, &net, &eps, &SearchContext::unbounded())
            .expect("same instance");
        prop_assert!(exact.objective <= portfolio.objective);
        prop_assert!(portfolio.objective <= greedy.objective);
    }

    /// Determinism: the winning racer, objective, and plan serialize to
    /// byte-identical JSON across repeated races with the same seed and
    /// budget (per the determinism rules, stats are exempt).
    #[test]
    fn portfolio_output_is_byte_identical_across_runs(seed in 0u64..1_000) {
        let (tdg, net) = random_chain_instance(seed);
        let eps = Epsilon::loose();
        let budget = Duration::from_secs(10);
        let fingerprint = || {
            let race = Portfolio::greedy_exact()
                .race(&tdg, &net, &eps, &SearchContext::with_time_limit(budget))
                .expect("chain instances are feasible by construction");
            serde_json::to_string(&(race.winner, race.outcome.objective, &race.outcome.plan))
                .expect("plans serialize")
        };
        let first = fingerprint();
        for _ in 0..2 {
            prop_assert_eq!(fingerprint(), first.clone());
        }
    }
}
