//! Property tests over incremental redeployment and healing.
//!
//! Invariants, for arbitrary synthetic workloads:
//!
//! 1. **Coverage** — `reused + placed` accounts for every node of the
//!    merged TDG, and every node has a switch in the new plan.
//! 2. **Pinning** — unless the deployer fell back to a full redeploy,
//!    MATs carried over (same qualified name and signature) never move.
//! 3. **Healing** — a redeploy excluding down switches never places a
//!    MAT on one of them, and the healed plan still verifies.

use hermes::core::{
    verify, Epsilon, GreedyHeuristic, IncrementalDeployer, ProgramAnalyzer, RedeployOptions, Solver,
};
use hermes::dataplane::synthetic::{SyntheticConfig, SyntheticGenerator};
use hermes::net::topology;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn redeploy_covers_merged_tdg_and_never_moves_pinned_mats(
        seed in 0u64..2_000,
        n_old in 1usize..4,
        extra in 1usize..4,
    ) {
        let mut generator = SyntheticGenerator::new(seed, SyntheticConfig::default());
        let programs = generator.programs(n_old + extra);
        let old_tdg = ProgramAnalyzer::new().analyze(&programs[..n_old]);
        let new_tdg = ProgramAnalyzer::new().analyze(&programs);
        let net = topology::linear(4, 10.0);
        let eps = Epsilon::loose();
        let Ok(old_plan) = GreedyHeuristic::new().deploy(&old_tdg, &net, &eps) else {
            return Ok(()); // capacity-infeasible seeds are not the property
        };
        prop_assume!(verify(&old_tdg, &net, &old_plan, &eps).is_empty());
        let Ok(out) =
            IncrementalDeployer::new().redeploy(&old_tdg, &old_plan, &new_tdg, &net, &eps)
        else {
            return Ok(()); // the merged workload may simply not fit
        };

        // Invariant 1: coverage of the merged TDG.
        prop_assert_eq!(out.reused + out.placed, new_tdg.node_count());
        for id in new_tdg.node_ids() {
            prop_assert!(
                out.plan.switch_of(id).is_some(),
                "seed {}: node {} has no switch",
                seed,
                new_tdg.node(id).name
            );
        }
        prop_assert!(verify(&new_tdg, &net, &out.plan, &eps).is_empty());

        // Invariant 2: carried-over MATs stay put unless full redeploy.
        if !out.full_redeploy {
            for old_id in old_tdg.node_ids() {
                let node = old_tdg.node(old_id);
                let Some(new_id) = new_tdg.node_by_name(&node.name) else { continue };
                if node.mat.signature() == new_tdg.node(new_id).mat.signature() {
                    prop_assert_eq!(
                        old_plan.switch_of(old_id),
                        out.plan.switch_of(new_id),
                        "seed {}: pinned MAT {} moved",
                        seed,
                        node.name
                    );
                }
            }
        }
    }

    #[test]
    fn healing_never_places_on_a_down_switch(
        seed in 0u64..2_000,
        programs in 1usize..5,
        kill in 0usize..4,
    ) {
        let mut generator = SyntheticGenerator::new(seed, SyntheticConfig::default());
        let tdg = ProgramAnalyzer::new().analyze(&generator.programs(programs));
        let mut net = topology::linear(4, 10.0);
        let eps = Epsilon::loose();
        let Ok(plan) = GreedyHeuristic::new().deploy(&tdg, &net, &eps) else {
            return Ok(());
        };
        prop_assume!(verify(&tdg, &net, &plan, &eps).is_empty());

        let dead = net.switch_ids().nth(kill).expect("linear:4 has 4 switches");
        net.fail_switch(dead);
        let opts = RedeployOptions::excluding([dead]);
        let Ok(out) =
            IncrementalDeployer::new().redeploy_with(&tdg, &plan, &tdg, &net, &eps, &opts)
        else {
            return Ok(()); // residual capacity may not allow healing
        };

        // Invariant 3: the dead switch hosts nothing, and the healed plan
        // verifies on the degraded network (which also rules out routes
        // through the dead switch).
        prop_assert!(
            !out.plan.occupied_switches().contains(&dead),
            "seed {seed}: healed plan occupies down switch {dead}"
        );
        prop_assert!(
            verify(&tdg, &net, &out.plan, &eps).is_empty(),
            "seed {seed}: healed plan does not verify"
        );
        prop_assert_eq!(out.reused + out.placed, tdg.node_count());
    }
}
