//! Mid-migration chaos soak: live reconfiguration must be *atomic*.
//!
//! Plan A is installed cleanly, then the injector and a lossy channel are
//! armed and an A→B migration runs under fire. Across 50 seeded fault
//! schedules and two capacity-bound topologies, every run must end in
//! exactly one of two states — never a mix:
//!
//! 1. **plan B installed**: the runtime serves plan B and every live
//!    switch plan B occupies provably serves the migration epoch, or
//! 2. **plan A restored**: the runtime serves plan A exactly as before
//!    and no surviving agent serves the abandoned migration epoch.
//!
//! The workload is a metadata-only chain, so the mixed-epoch prefix gate
//! admits the schedule and an abort (which only happens pre-commit, on a
//! pristine network) is impossible — the soak asserts it never occurs.
//! Every seed must also be byte-reproducible: same outcome, same log.

use hermes::core::test_support::chain_tdg;
use hermes::core::{
    DeploymentPlan, Epsilon, GreedyHeuristic, IncrementalDeployer, RedeployOptions, Solver,
};
use hermes::net::{topology, Network, SwitchId};
use hermes::runtime::{
    ChannelProfile, DeploymentRuntime, FaultInjector, FaultProfile, MigrationConfig,
    MigrationOutcome, RetryPolicy,
};
use hermes::tdg::Tdg;

const SEEDS: u64 = 50;

/// Reshapes every switch so packing binds and plan B spreads across
/// several switches (stock capacities would make the migration one step).
fn shape(mut net: Network, stages: usize, cap: f64) -> Network {
    let ids: Vec<SwitchId> = net.switch_ids().collect();
    for id in ids {
        let sw = net.switch_mut(id);
        sw.stages = stages;
        sw.stage_capacity = cap;
    }
    net
}

/// Plan A (greedy) and plan B (plan A's last occupied switch drained).
fn endpoints(tdg: &Tdg, net: &Network) -> (DeploymentPlan, DeploymentPlan) {
    let eps = Epsilon::loose();
    let plan_a = GreedyHeuristic::new().deploy(tdg, net, &eps).expect("plan A");
    let drained = *plan_a.occupied_switches().last().expect("non-empty plan");
    let plan_b = IncrementalDeployer::new()
        .redeploy_with(tdg, &plan_a, tdg, net, &eps, &RedeployOptions::excluding([drained]))
        .expect("drain is feasible")
        .plan;
    assert_ne!(plan_a, plan_b, "draining must change the plan");
    (plan_a, plan_b)
}

/// Clean install of A, then a seeded chaos + lossy-channel migration to B.
fn run_once(
    tdg: &Tdg,
    net: &Network,
    plan_a: &DeploymentPlan,
    plan_b: &DeploymentPlan,
    seed: u64,
) -> (DeploymentRuntime, MigrationOutcome) {
    let mut rt = DeploymentRuntime::new(
        net.clone(),
        Epsilon::loose(),
        FaultInjector::disabled(),
        RetryPolicy::default(),
    );
    assert!(rt.rollout(tdg, plan_a.clone()).is_committed(), "clean install of plan A failed");
    rt.set_injector(FaultInjector::new(seed, FaultProfile::chaos()));
    rt.set_channel_profile(ChannelProfile::lossy());
    let outcome = rt.migrate(tdg, plan_b.clone(), &MigrationConfig::default());
    (rt, outcome)
}

fn soak(net: &Network, tdg: &Tdg, label: &str) -> (u64, u64) {
    let (plan_a, plan_b) = endpoints(tdg, net);
    let mut migrated = 0u64;
    let mut rolled_back = 0u64;
    for seed in 0..SEEDS {
        let (rt, outcome) = run_once(tdg, net, &plan_a, &plan_b, seed);
        match &outcome {
            MigrationOutcome::Migrated { epoch, .. } => {
                migrated += 1;
                // Terminal state 1: plan B, whole and serving.
                assert_eq!(
                    rt.active_plan(),
                    Some(&plan_b),
                    "{label} seed {seed}: migrated but plan B is not active"
                );
                let down = rt.network().down_switches();
                for switch in plan_b.occupied_switches() {
                    if !down.contains(&switch) {
                        assert_eq!(
                            rt.agent(switch).and_then(|a| a.active_epoch()),
                            Some(*epoch),
                            "{label} seed {seed}: switch {switch} missed epoch {epoch}"
                        );
                    }
                }
            }
            MigrationOutcome::RolledBack { epoch, .. } => {
                rolled_back += 1;
                // Terminal state 2: plan A, whole — and the abandoned
                // epoch fenced everywhere, even where the revert message
                // was lost.
                assert_eq!(
                    rt.active_plan(),
                    Some(&plan_a),
                    "{label} seed {seed}: rollback did not restore plan A"
                );
                for agent in rt.agents() {
                    if !agent.is_crashed() {
                        assert_ne!(
                            agent.active_epoch(),
                            Some(*epoch),
                            "{label} seed {seed}: an agent serves abandoned epoch {epoch}"
                        );
                    }
                }
            }
            MigrationOutcome::Aborted { reason, .. } => {
                // The gate and validator run before any fault can fire,
                // and this workload passes both — an abort here would
                // mean the executor bailed instead of rolling back.
                panic!("{label} seed {seed}: unexpected abort: {reason}");
            }
            MigrationOutcome::ControllerCrashed { .. } => {
                unreachable!("{label} seed {seed}: no controller crash was injected")
            }
        }
        // Reproducibility: same seed, same outcome, byte-identical log.
        let (rt2, outcome2) = run_once(tdg, net, &plan_a, &plan_b, seed);
        assert_eq!(outcome, outcome2, "{label} seed {seed}: outcome not reproducible");
        assert_eq!(
            rt.log().to_json(),
            rt2.log().to_json(),
            "{label} seed {seed}: event log not reproducible"
        );
    }
    println!("{label}: {migrated} migrated, {rolled_back} rolled back");
    assert!(migrated > 0, "{label}: no seed ever completed the migration");
    (migrated, rolled_back)
}

#[test]
fn soak_linear() {
    let net = shape(topology::linear(5, 10.0), 5, 0.45);
    let tdg = chain_tdg(&[6, 2, 9, 3, 5, 4, 7, 2, 8], 0.4);
    let (_, rolled_back) = soak(&net, &tdg, "linear:5");
    // Chaos plus loss across 50 seeds must actually force the rollback
    // path at least once on the multi-step topology.
    assert!(rolled_back > 0, "linear:5: chaos never forced a rollback");
}

#[test]
fn soak_star() {
    let net = shape(topology::star(4, 10.0), 5, 0.45);
    let tdg = chain_tdg(&[4, 7, 3, 8, 2, 6, 5], 0.4);
    soak(&net, &tdg, "star:4");
}
