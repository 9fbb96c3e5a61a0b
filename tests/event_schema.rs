//! Schema-drift gate for the event log (`EVENT_SCHEMA_VERSION` 3).
//!
//! PR 6 diffed hand-picked JSON fields; that misses the silent-drift
//! class where a variant is renamed, a field is added with a default, or
//! serde attributes change representation. The stronger property: any
//! *recorded* log — produced by real rollouts, heals, migrations,
//! controller crashes, and recoveries, not synthetic values — must
//! round-trip through serde to an equal value AND re-serialize
//! byte-identically.

use hermes::core::test_support::chain_tdg;
use hermes::core::{
    Epsilon, GreedyHeuristic, IncrementalDeployer, ProgramAnalyzer, RedeployOptions, Solver,
};
use hermes::dataplane::library;
use hermes::net::topology;
use hermes::runtime::{
    ChannelProfile, CrashTiming, DeploymentRuntime, Event, EventLog, FaultInjector, FaultProfile,
    MigrationConfig, RetryPolicy, EVENT_SCHEMA_VERSION,
};
use proptest::prelude::*;

/// The round-trip property itself.
fn assert_round_trips(log: &EventLog, context: &str) {
    assert_eq!(log.schema_version, EVENT_SCHEMA_VERSION, "{context}");
    let json = log.to_json();
    let back: EventLog =
        serde_json::from_str(&json).unwrap_or_else(|e| panic!("{context}: deserialize: {e}"));
    assert_eq!(&back, log, "{context}: serde round trip changed the log");
    assert_eq!(back.to_json(), json, "{context}: re-serialization is not byte-identical");
}

/// A crash + recovery run: covers `ControllerCrashed`, `Recovery*`,
/// `AgentReconciled` on top of the usual transaction events.
#[test]
fn crash_recovery_logs_round_trip() {
    let programs = library::real_programs();
    let tdg = ProgramAnalyzer::new().analyze(&programs[..2.min(programs.len())]);
    let net = topology::linear(3, 10.0);
    let eps = Epsilon::loose();
    let plan = GreedyHeuristic::new().deploy(&tdg, &net, &eps).expect("deploys");
    let mut rt = DeploymentRuntime::new(
        net,
        eps,
        FaultInjector::new(11, FaultProfile::none()),
        RetryPolicy::default(),
    );
    assert!(rt.rollout(&tdg, plan.clone()).is_committed());
    let n = plan.occupied_switch_count() as u64;
    rt.injector_mut().arm_controller_crash_at(2 + n, CrashTiming::AfterWrite);
    rt.rollout(&tdg, plan);
    rt.recover(&tdg).expect("recovery succeeds");
    let log = rt.log();
    assert!(
        log.count(|e| matches!(e, Event::ControllerCrashed { .. })) > 0
            && log.count(|e| matches!(e, Event::RecoveryFinished { .. })) > 0,
        "the scenario must actually record the new variants"
    );
    assert_round_trips(log, "crash+recovery");
}

/// A chaotic migration run: covers the `Migration*` family plus faults,
/// retries, fencing, and leases under a lossy channel.
#[test]
fn migration_logs_round_trip() {
    let tdg = chain_tdg(&[6, 2, 9, 3, 5, 4], 0.3);
    let net = topology::linear(4, 10.0);
    let eps = Epsilon::loose();
    let plan_a = GreedyHeuristic::new().deploy(&tdg, &net, &eps).expect("plan A");
    let drained = *plan_a.occupied_switches().last().expect("non-empty plan");
    let plan_b = IncrementalDeployer::new()
        .redeploy_with(&tdg, &plan_a, &tdg, &net, &eps, &RedeployOptions::excluding([drained]))
        .expect("drain is feasible")
        .plan;
    let mut rt =
        DeploymentRuntime::new(net, eps, FaultInjector::disabled(), RetryPolicy::default());
    assert!(rt.rollout(&tdg, plan_a).is_committed());
    rt.set_injector(FaultInjector::new(5, FaultProfile::chaos()));
    rt.set_channel_profile(ChannelProfile::lossy());
    rt.migrate(&tdg, plan_b, &MigrationConfig::default());
    assert_round_trips(rt.log(), "migration");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every seeded chaos rollout's log round-trips, whatever mix of
    /// events the fault schedule produced.
    #[test]
    fn chaos_logs_round_trip(seed in 0u64..1_000) {
        let programs = library::real_programs();
        let tdg = ProgramAnalyzer::new().analyze(&programs[..2.min(programs.len())]);
        let net = topology::linear(3, 10.0);
        let eps = Epsilon::loose();
        let plan = GreedyHeuristic::new().deploy(&tdg, &net, &eps).expect("deploys");
        let mut rt = DeploymentRuntime::new(
            net,
            eps,
            FaultInjector::new(seed, FaultProfile::chaos()),
            RetryPolicy::default(),
        )
        .with_channel_profile(ChannelProfile::lossy());
        rt.rollout(&tdg, plan);
        assert_round_trips(rt.log(), &format!("chaos seed {seed}"));
    }
}
