//! Property-based tests over randomly generated workloads: structural
//! invariants that must hold for *every* input, not just the library.

use hermes::core::{verify, Epsilon, GreedyHeuristic, ProgramAnalyzer, Solver, SplitStrategy};
use hermes::dataplane::synthetic::{SyntheticConfig, SyntheticGenerator};
use hermes::net::topology::{random_wan, WanConfig};
use hermes::tdg::merge_all;
use hermes::tdg::{AnalysisMode, Tdg};
use proptest::prelude::*;
use std::collections::BTreeSet;

fn synthetic_tdg(seed: u64, programs: usize) -> Tdg {
    let mut generator = SyntheticGenerator::new(seed, SyntheticConfig::default());
    ProgramAnalyzer::new().analyze(&generator.programs(programs))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn merged_tdgs_are_always_dags(seed in 0u64..5_000, programs in 1usize..8) {
        let tdg = synthetic_tdg(seed, programs);
        prop_assert!(tdg.is_dag());
        // Topological order covers every node exactly once.
        let order = tdg.topo_order().unwrap();
        prop_assert_eq!(order.len(), tdg.node_count());
        let unique: BTreeSet<_> = order.iter().copied().collect();
        prop_assert_eq!(unique.len(), order.len());
    }

    #[test]
    fn splits_partition_the_node_set(seed in 0u64..5_000, programs in 1usize..6) {
        let tdg = synthetic_tdg(seed, programs);
        for strategy in [SplitStrategy::MinMetadata, SplitStrategy::Balanced, SplitStrategy::Random(seed)] {
            let segments = GreedyHeuristic::with_strategy(strategy)
                .split(&tdg, &hermes::net::TargetModel::tofino())
                .expect("synthetic MATs fit a Tofino pipeline");
            let mut seen = BTreeSet::new();
            for seg in &segments {
                prop_assert!(!seg.is_empty(), "empty segment from {strategy:?}");
                for &id in seg {
                    prop_assert!(seen.insert(id), "node duplicated across segments");
                }
            }
            prop_assert_eq!(seen.len(), tdg.node_count());
        }
    }

    #[test]
    fn heuristic_plans_always_verify(seed in 0u64..2_000, programs in 1usize..6) {
        let tdg = synthetic_tdg(seed, programs);
        // Enough hardware that feasibility is guaranteed.
        let net = random_wan(30, 45, seed ^ 0xA5, &WanConfig::default());
        let eps = Epsilon::loose();
        if let Ok(plan) = GreedyHeuristic::new().deploy(&tdg, &net, &eps) {
            let violations = verify(&tdg, &net, &plan, &eps);
            prop_assert!(violations.is_empty(), "{violations:?}");
            // Objective consistency: reported metrics match recomputation.
            let m = plan.metrics(&tdg);
            prop_assert_eq!(m.max_overhead_bytes, plan.max_inter_switch_bytes(&tdg));
        }
    }

    #[test]
    fn merge_is_node_conservative(seed in 0u64..5_000, programs in 2usize..6) {
        let mut generator = SyntheticGenerator::new(seed, SyntheticConfig::default());
        let programs = generator.programs(programs);
        let tdgs: Vec<Tdg> = programs
            .iter()
            .map(|p| Tdg::from_program(p, AnalysisMode::PaperLiteral))
            .collect();
        let total: usize = tdgs.iter().map(Tdg::node_count).sum();
        let merged = merge_all(tdgs);
        prop_assert!(merged.node_count() <= total);
        prop_assert!(merged.is_dag());
        // Resources only shrink (duplicates removed), never grow.
        let standalone: f64 = programs.iter().map(|p| p.total_resource()).sum();
        prop_assert!(merged.total_resource() <= standalone + 1e-9);
    }

    #[test]
    fn uniform_reweighting_keeps_structure(seed in 0u64..5_000) {
        let tdg = synthetic_tdg(seed, 3);
        let unit = tdg.with_uniform_edge_bytes(1);
        prop_assert_eq!(unit.node_count(), tdg.node_count());
        prop_assert_eq!(unit.edge_count(), tdg.edge_count());
        prop_assert!(unit.edges().iter().all(|e| e.bytes == 1));
    }
}
