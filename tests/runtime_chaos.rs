//! Chaos soak: the failure-aware runtime must be *bimodal*.
//!
//! Across many seeded fault schedules and more than one topology, every
//! rollout must end in exactly one of two states:
//!
//! 1. a committed plan that passes the ε-verifier **and** packet-level
//!    equivalence on the (possibly degraded) network, or
//! 2. a clean rollback leaving the previously active plan untouched.
//!
//! And the whole run must be reproducible: the same seed produces a
//! byte-identical event log.

use hermes::backend::validate_plan;
use hermes::core::{Epsilon, GreedyHeuristic, ProgramAnalyzer, Solver};
use hermes::dataplane::library;
use hermes::net::{topology, Network};
use hermes::runtime::{
    ChannelProfile, DeploymentRuntime, FaultInjector, FaultProfile, RetryPolicy, RolloutOutcome,
};
use hermes::tdg::Tdg;

const SEEDS: u64 = 50;

fn workload() -> Tdg {
    ProgramAnalyzer::new().analyze(&library::real_programs())
}

/// One seeded rollout; returns the runtime and its outcome.
fn run_once(tdg: &Tdg, net: &Network, seed: u64) -> (DeploymentRuntime, RolloutOutcome) {
    let eps = Epsilon::loose();
    let plan = GreedyHeuristic::new().deploy(tdg, net, &eps).expect("healthy topology deploys");
    let injector = FaultInjector::new(seed, FaultProfile::chaos());
    let mut rt = DeploymentRuntime::new(net.clone(), eps, injector, RetryPolicy::default());
    let outcome = rt.rollout(tdg, plan);
    (rt, outcome)
}

fn soak(net: &Network, label: &str) {
    let tdg = workload();
    let mut committed = 0u64;
    let mut rolled_back = 0u64;
    for seed in 0..SEEDS {
        let (rt, outcome) = run_once(&tdg, net, seed);
        match outcome {
            RolloutOutcome::Committed { .. } => {
                committed += 1;
                let active =
                    rt.active_plan().unwrap_or_else(|| panic!("{label} seed {seed}: no plan"));
                // Terminal state 1: the active plan passes constraint
                // verification AND packet-level equivalence on the
                // network as it is *now* (post-faults).
                let (report, _) =
                    validate_plan(&tdg, rt.network(), active, rt.epsilon(), &[0, 1, 2, 3]);
                assert!(
                    report.is_ok(),
                    "{label} seed {seed}: committed plan failed validation: {report}"
                );
                for down in rt.network().down_switches() {
                    assert!(
                        !active.occupied_switches().contains(&down),
                        "{label} seed {seed}: active plan occupies down switch {down}"
                    );
                }
            }
            RolloutOutcome::RolledBack { .. } => {
                rolled_back += 1;
                // Terminal state 2: clean rollback — nothing was active
                // before, so nothing may be active now.
                assert!(
                    rt.active_plan().is_none(),
                    "{label} seed {seed}: rollback left a plan active"
                );
            }
            RolloutOutcome::ControllerCrashed { .. } => {
                unreachable!("{label} seed {seed}: no controller crash was injected")
            }
        }
        // Reproducibility: the same seed yields a byte-identical log.
        let (rt2, _) = run_once(&tdg, net, seed);
        assert_eq!(
            rt.log().to_json(),
            rt2.log().to_json(),
            "{label} seed {seed}: event log not reproducible"
        );
    }
    // The chaos profile must actually exercise both terminal states.
    assert!(committed > 0, "{label}: no seed committed");
    assert!(rolled_back > 0, "{label}: no seed rolled back");
}

#[test]
fn soak_linear() {
    soak(&topology::linear(4, 10.0), "linear:4");
}

#[test]
fn soak_fattree() {
    soak(&topology::fat_tree(4, 10.0), "fattree:4");
}

/// Lossy soak: chaos faults *and* a channel that drops, duplicates,
/// reorders, and delays control messages. Every seed must still terminate
/// in one of the two states, no agent may ever serve a fenced
/// (rolled-back) epoch, and the event log must stay byte-reproducible.
fn lossy_soak(net: &Network, label: &str) {
    let tdg = workload();
    let eps = Epsilon::loose();
    let plan = GreedyHeuristic::new().deploy(&tdg, net, &eps).expect("healthy topology deploys");
    let run_once = |seed: u64| {
        let injector = FaultInjector::new(seed, FaultProfile::chaos());
        let mut rt = DeploymentRuntime::new(net.clone(), eps, injector, RetryPolicy::default())
            .with_channel_profile(ChannelProfile::lossy());
        let outcome = rt.rollout(&tdg, plan.clone());
        (rt, outcome)
    };
    let mut committed = 0u64;
    let mut rolled_back = 0u64;
    for seed in 0..SEEDS {
        let (rt, outcome) = run_once(seed);
        match outcome {
            RolloutOutcome::Committed { epoch, .. } => {
                committed += 1;
                let active =
                    rt.active_plan().unwrap_or_else(|| panic!("{label} seed {seed}: no plan"));
                let (report, _) =
                    validate_plan(&tdg, rt.network(), active, rt.epsilon(), &[0, 1, 2, 3]);
                assert!(report.is_ok(), "{label} seed {seed}: {report}");
                // Every live occupied switch provably serves the final
                // epoch — a lost commit ack may not leave a switch behind.
                let down = rt.network().down_switches();
                for switch in active.occupied_switches() {
                    if !down.contains(&switch) {
                        assert_eq!(
                            rt.agent(switch).and_then(|a| a.active_epoch()),
                            Some(epoch),
                            "{label} seed {seed}: switch {switch} missed epoch {epoch}"
                        );
                    }
                }
            }
            RolloutOutcome::RolledBack { epoch, .. } => {
                rolled_back += 1;
                assert!(rt.active_plan().is_none(), "{label} seed {seed}: rollback left a plan");
                // The fencing invariant: even an agent that never heard
                // the abort must not serve the abandoned epoch.
                for agent in rt.agents() {
                    assert_ne!(
                        agent.active_epoch(),
                        Some(epoch),
                        "{label} seed {seed}: an agent serves fenced epoch {epoch}"
                    );
                }
            }
            RolloutOutcome::ControllerCrashed { .. } => {
                unreachable!("{label} seed {seed}: no controller crash was injected")
            }
        }
        let (rt2, outcome2) = run_once(seed);
        assert_eq!(outcome, outcome2, "{label} seed {seed}: outcome not reproducible");
        assert_eq!(
            rt.log().to_json(),
            rt2.log().to_json(),
            "{label} seed {seed}: event log not reproducible"
        );
    }
    assert!(committed > 0, "{label}: no seed survived the lossy channel");
    assert!(rolled_back > 0, "{label}: chaos + loss never forced a rollback");
}

#[test]
fn lossy_soak_linear() {
    lossy_soak(&topology::linear(4, 10.0), "lossy linear:4");
}

#[test]
fn lossy_soak_fattree() {
    lossy_soak(&topology::fat_tree(4, 10.0), "lossy fattree:4");
}

/// A rollback in a later epoch leaves the earlier committed plan serving,
/// exactly as it was.
#[test]
fn rollback_preserves_previous_epoch() {
    let tdg = workload();
    let net = topology::linear(4, 10.0);
    let eps = Epsilon::loose();
    let plan = GreedyHeuristic::new().deploy(&tdg, &net, &eps).unwrap();
    for seed in 0..SEEDS {
        // Epoch 1 installs fault-free; epoch 2 runs under chaos.
        let mut rt = DeploymentRuntime::new(
            net.clone(),
            eps,
            FaultInjector::disabled(),
            RetryPolicy::default(),
        );
        assert!(rt.rollout(&tdg, plan.clone()).is_committed());
        let before = rt.active_plan().cloned();
        rt.set_injector(FaultInjector::new(seed, FaultProfile::chaos()));
        match rt.rollout(&tdg, plan.clone()) {
            RolloutOutcome::Committed { .. } => {
                let (report, _) =
                    validate_plan(&tdg, rt.network(), rt.active_plan().unwrap(), &eps, &[0, 1]);
                assert!(report.is_ok(), "seed {seed}: {report}");
            }
            RolloutOutcome::RolledBack { .. } => {
                assert_eq!(
                    rt.active_plan(),
                    before.as_ref(),
                    "seed {seed}: rollback must restore the prior plan"
                );
            }
            RolloutOutcome::ControllerCrashed { .. } => {
                unreachable!("seed {seed}: no controller crash was injected")
            }
        }
    }
}
