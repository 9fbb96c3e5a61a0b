//! Migration scheduler and executor properties.
//!
//! The scheduler side: schedules are deterministic, every step's
//! transient `A_max` is exact (explicit re-evaluation reproduces it), the
//! staged peak never exceeds the all-at-once baseline, and infeasible
//! staging windows are refused up front. The executor side: a clean
//! migration lands plan B with the full event trail (including the
//! mixed-epoch prefix gate), and a workload the gate refuses is aborted
//! with plan A untouched.

use hermes::backend::{check_transition, config::generate, validate_plan, EpochTransition};
use hermes::core::test_support::{chain_tdg, tiny_switches};
use hermes::core::{
    DeploymentPlan, Epsilon, GreedyHeuristic, IncrementalDeployer, MigrateError, MigrationOrder,
    MigrationProblem, MigrationScheduler, ProgramAnalyzer, RedeployOptions, SearchContext, Solver,
};
use hermes::dataplane::library;
use hermes::net::{topology, Network};
use hermes::runtime::{
    DeploymentRuntime, Event, FaultInjector, MigrationConfig, RetryPolicy, EVENT_SCHEMA_VERSION,
};
use hermes::tdg::Tdg;
use std::time::Duration;

fn ctx() -> SearchContext {
    SearchContext::with_time_limit(Duration::from_secs(10))
}

/// The standard instance: a ten-MAT metadata chain on five tight
/// switches, plan A from greedy, plan B draining A's last occupied
/// switch. Metadata-only writes keep the mixed-epoch gate satisfied under
/// any commit order, so the full pipeline can execute.
fn drain_instance() -> (Tdg, Network, DeploymentPlan, DeploymentPlan) {
    let tdg = chain_tdg(&[6, 2, 9, 3, 5, 4, 7, 2, 8], 0.4);
    let net = tiny_switches(5, 5, 0.45);
    let eps = Epsilon::loose();
    let plan_a = GreedyHeuristic::new().deploy(&tdg, &net, &eps).expect("plan A");
    let drained = *plan_a.occupied_switches().last().expect("non-empty plan");
    let plan_b = IncrementalDeployer::new()
        .redeploy_with(&tdg, &plan_a, &tdg, &net, &eps, &RedeployOptions::excluding([drained]))
        .expect("drain is feasible")
        .plan;
    assert_ne!(plan_a, plan_b, "draining must change the plan");
    (tdg, net, plan_a, plan_b)
}

#[test]
fn schedules_are_deterministic_and_never_worse_than_all_at_once() {
    let (tdg, net, plan_a, plan_b) = drain_instance();
    let problem = MigrationProblem { tdg: &tdg, net: &net, from: &plan_a, to: &plan_b };
    let first = MigrationScheduler::new().plan(&problem, &ctx()).expect("schedulable");
    for _ in 0..3 {
        let again = MigrationScheduler::new().plan(&problem, &ctx()).expect("schedulable");
        assert_eq!(first, again, "Auto race must pick a timing-independent winner");
    }
    let all_at_once = first.all_at_once_peak.expect("in-order is valid on a chain");
    assert!(
        first.peak_transient_amax <= all_at_once,
        "staged {} > all-at-once {all_at_once}",
        first.peak_transient_amax
    );
    // The curve starts at plan A's A_max, ends at plan B's, and its max
    // is exactly the reported peak.
    let curve = first.transient_curve();
    assert_eq!(curve.first(), Some(&first.from_amax));
    assert_eq!(curve.last(), Some(&first.to_amax));
    assert_eq!(curve.iter().max(), Some(&first.peak_transient_amax));
    // Every target-occupied switch commits exactly once.
    let mut order = first.commit_order();
    order.sort_unstable();
    order.dedup();
    let occupied: Vec<_> = plan_b.occupied_switches().into_iter().collect();
    assert_eq!(order, occupied, "steps must cover plan B exactly once");
}

#[test]
fn ordering_policies_are_consistent() {
    let (tdg, net, plan_a, plan_b) = drain_instance();
    let problem = MigrationProblem { tdg: &tdg, net: &net, from: &plan_a, to: &plan_b };
    let peak = |order: MigrationOrder| {
        MigrationScheduler::with_order(order).plan(&problem, &ctx()).map(|s| s.peak_transient_amax)
    };
    // In-order and exact always succeed on a schedulable instance; the
    // myopic greedy may dead-end on the acyclicity constraint.
    let auto = peak(MigrationOrder::Auto).expect("auto");
    let exact = peak(MigrationOrder::Exact).expect("exact");
    let in_order = peak(MigrationOrder::InOrder).expect("in-order");
    // Exact is optimal over the searched space, which contains both the
    // in-order permutation and (when it succeeds) greedy's choice — so it
    // lower-bounds them, and Auto's best racer matches it.
    assert!(exact <= in_order, "exact {exact} worse than in-order {in_order}");
    if let Ok(greedy) = peak(MigrationOrder::Greedy) {
        assert!(exact <= greedy, "exact {exact} worse than greedy {greedy}");
    }
    assert_eq!(auto, exact, "auto must find the optimum");
}

#[test]
fn explicit_orders_reproduce_and_mismatches_are_typed() {
    let (tdg, net, plan_a, plan_b) = drain_instance();
    let problem = MigrationProblem { tdg: &tdg, net: &net, from: &plan_a, to: &plan_b };
    let auto = MigrationScheduler::new().plan(&problem, &ctx()).expect("schedulable");
    // Re-planning with the winner's own order (restricted to the moving
    // switches) must reproduce its peak exactly.
    let moving: Vec<_> =
        auto.steps.iter().filter(|s| !s.moved.is_empty()).map(|s| s.switch).collect();
    let replay = MigrationScheduler::with_order(MigrationOrder::Explicit(moving.clone()))
        .plan(&problem, &ctx())
        .expect("explicit replay");
    assert_eq!(replay.peak_transient_amax, auto.peak_transient_amax);
    assert_eq!(replay.commit_order(), auto.commit_order());
    // Dropping a switch from the explicit order is a typed refusal.
    if moving.len() > 1 {
        let err = MigrationScheduler::with_order(MigrationOrder::Explicit(moving[1..].to_vec()))
            .plan(&problem, &ctx())
            .expect_err("incomplete order");
        assert!(matches!(err, MigrateError::OrderMismatch(_)), "{err}");
    }
}

#[test]
fn identical_plans_are_a_noop() {
    let (tdg, net, plan_a, _) = drain_instance();
    let problem = MigrationProblem { tdg: &tdg, net: &net, from: &plan_a, to: &plan_a };
    let schedule = MigrationScheduler::new().plan(&problem, &ctx()).expect("noop");
    assert!(schedule.steps.iter().all(|s| s.moved.is_empty()), "nothing may move");
    assert_eq!(schedule.peak_transient_amax, schedule.from_amax);
    assert_eq!(schedule.from_amax, schedule.to_amax);
}

#[test]
fn staging_overflow_is_a_typed_refusal() {
    // Four chain MATs on two-slot switches: plan A fills s0+s1, plan B
    // (computed with s0 masked off) fills s1+s2 with *different* MATs, so
    // s1's make-before-break window needs four slots it does not have.
    let tdg = chain_tdg(&[9, 1, 9], 0.4);
    let net = tiny_switches(3, 2, 0.45);
    let eps = Epsilon::loose();
    let plan_a = GreedyHeuristic::new().deploy(&tdg, &net, &eps).expect("plan A");
    let mut masked = net.clone();
    let first = net.switch_ids().next().expect("switches");
    masked.switch_mut(first).programmable = false;
    let plan_b = GreedyHeuristic::new().deploy(&tdg, &masked, &eps).expect("plan B");
    assert_ne!(plan_a, plan_b);
    let problem = MigrationProblem { tdg: &tdg, net: &net, from: &plan_a, to: &plan_b };
    let err = MigrationScheduler::new().plan(&problem, &ctx()).expect_err("must refuse");
    assert!(matches!(err, MigrateError::StagingInfeasible(_)), "{err}");
}

#[test]
fn every_schedule_prefix_passes_the_mixed_epoch_gate() {
    let (tdg, net, plan_a, plan_b) = drain_instance();
    let problem = MigrationProblem { tdg: &tdg, net: &net, from: &plan_a, to: &plan_b };
    let schedule = MigrationScheduler::new().plan(&problem, &ctx()).expect("schedulable");
    let old_artifacts = generate(&tdg, &net, &plan_a);
    let seeds: Vec<u64> = (0..16).collect();
    let (report, new_artifacts) = validate_plan(&tdg, &net, &plan_b, &Epsilon::loose(), &seeds);
    assert!(report.is_ok(), "{report:?}");
    let transition = EpochTransition {
        tdg: &tdg,
        old_plan: &plan_a,
        old_artifacts: &old_artifacts,
        new_plan: &plan_b,
        new_artifacts: &new_artifacts,
    };
    let windows = check_transition(&transition, &schedule.commit_order(), &seeds)
        .expect("metadata-only chain is observably epoch-clean in every window");
    assert!(windows > 0, "the gate must actually have checked windows");
}

#[test]
fn clean_migration_lands_plan_b_with_a_full_event_trail() {
    let (tdg, net, plan_a, plan_b) = drain_instance();
    let eps = Epsilon::loose();
    let mut rt =
        DeploymentRuntime::new(net, eps, FaultInjector::disabled(), RetryPolicy::default());
    assert!(rt.rollout(&tdg, plan_a.clone()).is_committed());
    let epoch_a = rt.active_epoch().expect("A active");

    let outcome = rt.migrate(&tdg, plan_b.clone(), &MigrationConfig::default());
    assert!(outcome.is_migrated(), "{outcome}");
    assert_eq!(rt.active_plan(), Some(&plan_b));
    assert!(rt.active_epoch().expect("B active") > epoch_a);

    let log = rt.log();
    assert_eq!(log.count(|e| matches!(e, Event::MigrationStarted { .. })), 1);
    assert_eq!(log.count(|e| matches!(e, Event::MixedEpochChecked { .. })), 1);
    assert_eq!(log.count(|e| matches!(e, Event::MigrationCompleted { .. })), 1);
    let steps = log.count(|e| matches!(e, Event::MigrationStepCommitted { .. }));
    assert!(steps > 0, "at least one step must commit");
    // The serialized log is schema-stamped for golden diffing.
    let json = log.to_json();
    assert!(
        json.contains(&format!("\"schema_version\": {EVENT_SCHEMA_VERSION}")),
        "{}",
        &json[..200.min(json.len())]
    );

    // Migrating again to the same plan is a trivial no-op success.
    let noop = rt.migrate(&tdg, plan_b.clone(), &MigrationConfig::default());
    match noop {
        hermes::runtime::MigrationOutcome::Migrated { steps, .. } => assert_eq!(steps, 0),
        other => panic!("expected trivial success, got {other}"),
    }
}

#[test]
fn gate_refused_workloads_abort_with_plan_a_untouched() {
    // Real programs route packets through their MATs via metadata
    // contracts; re-homing the *first* occupied switch's MATs downstream
    // double- or skip-executes them mid-window, so the mixed-epoch gate
    // must refuse and the migration must abort before any commit.
    let tdg = ProgramAnalyzer::new().analyze(&library::real_programs());
    let net = topology::linear(4, 10.0);
    let eps = Epsilon::loose();
    // Both plans are computed on the stock (tight) pipelines so the drain
    // interleaves: s0's MATs re-home downstream while their neighbors
    // stay put, which is exactly the move the gate refuses.
    let plan_a = GreedyHeuristic::new().deploy(&tdg, &net, &eps).expect("plan A");
    let drained = *plan_a.occupied_switches().iter().next().expect("non-empty");
    let plan_b = IncrementalDeployer::new()
        .redeploy_with(&tdg, &plan_a, &tdg, &net, &eps, &RedeployOptions::excluding([drained]))
        .expect("drain is feasible")
        .plan;
    assert_ne!(plan_a, plan_b);
    // The runtime gets widened pipelines (both plans stay valid) so the
    // make-before-break staging window fits and the scheduler lets the
    // migration reach the gate — the refusal under test is the
    // packet-consistency one, not capacity.
    let mut wide = net.clone();
    let ids: Vec<_> = wide.switch_ids().collect();
    for id in ids {
        wide.switch_mut(id).stages *= 4;
        wide.switch_mut(id).stage_capacity *= 2.0;
    }

    let mut rt =
        DeploymentRuntime::new(wide, eps, FaultInjector::disabled(), RetryPolicy::default());
    assert!(rt.rollout(&tdg, plan_a.clone()).is_committed());
    let epoch_a = rt.active_epoch().expect("A active");

    let outcome = rt.migrate(&tdg, plan_b, &MigrationConfig::default());
    match &outcome {
        hermes::runtime::MigrationOutcome::Aborted { reason, .. } => {
            assert!(reason.contains("mixed-epoch"), "{reason}");
        }
        other => panic!("expected a gate abort, got {other}"),
    }
    // Plan A still serves, same epoch, and the refusal is on the record.
    assert_eq!(rt.active_plan(), Some(&plan_a));
    assert_eq!(rt.active_epoch(), Some(epoch_a));
    assert_eq!(rt.log().count(|e| matches!(e, Event::MixedEpochViolated { .. })), 1);
    assert_eq!(rt.log().count(|e| matches!(e, Event::MigrationAborted { .. })), 1);
    assert_eq!(rt.log().count(|e| matches!(e, Event::MigrationStepCommitted { .. })), 0);
}

#[test]
fn migrating_without_an_active_deployment_is_refused() {
    let (tdg, net, _, plan_b) = drain_instance();
    let mut rt = DeploymentRuntime::new(
        net,
        Epsilon::loose(),
        FaultInjector::disabled(),
        RetryPolicy::default(),
    );
    let outcome = rt.migrate(&tdg, plan_b, &MigrationConfig::default());
    assert!(matches!(outcome, hermes::runtime::MigrationOutcome::Aborted { .. }), "{outcome}");
    assert!(rt.active_plan().is_none());
}
