//! The journal against the deployments it describes.
//!
//! Every `TxnBegun`, `MigrationBegun` and `Snapshot` record carries the
//! fingerprints of the TDG and plan it names; recovery trusts them to
//! refuse a foreign workload. The runtime computes them once per accepted
//! plan and carries them with the deployment, so these tests replay the
//! journal after each protocol path and recompute every fingerprint from
//! scratch. They also round-trip real plans, artifacts, TDGs and every
//! record variant through the JSON writer and parser.

#![allow(clippy::disallowed_methods)]

use crate::journal::{CrashTiming, Journal, JournalRecord, TxnKind};
use crate::{
    DeploymentRuntime, FaultInjector, FaultProfile, MigrationConfig, MigrationOutcome,
    RecoveryAction, RetryPolicy, RolloutOutcome,
};
use hermes_backend::config::generate;
use hermes_core::test_support::{chain_tdg, tiny_switches};
use hermes_core::{
    tdg_fingerprint, DeploymentPlan, Epsilon, GreedyHeuristic, IncrementalDeployer,
    ProgramAnalyzer, RedeployOptions, Solver,
};
use hermes_dataplane::library;
use hermes_net::{topology, Network};
use hermes_tdg::Tdg;

fn greedy(tdg: &Tdg, net: &Network) -> DeploymentPlan {
    GreedyHeuristic::new().deploy(tdg, net, &Epsilon::loose()).expect("greedy plan")
}

/// The library programs on linear-4.
fn library_workload() -> (Tdg, Network, DeploymentPlan) {
    let tdg = ProgramAnalyzer::new().analyze(&library::real_programs());
    let net = topology::linear(4, 10.0);
    let plan = greedy(&tdg, &net);
    (tdg, net, plan)
}

/// A metadata chain on tight switches, plan B draining plan A's last
/// occupied switch; the mixed-epoch gate admits any commit order.
fn drain_workload() -> (Tdg, Network, DeploymentPlan, DeploymentPlan) {
    let tdg = chain_tdg(&[6, 2, 9, 3, 5, 4, 7, 2, 8], 0.4);
    let net = tiny_switches(5, 5, 0.45);
    let plan_a = greedy(&tdg, &net);
    let drained = *plan_a.occupied_switches().last().expect("non-empty plan");
    let plan_b = IncrementalDeployer::new()
        .redeploy_with(
            &tdg,
            &plan_a,
            &tdg,
            &net,
            &Epsilon::loose(),
            &RedeployOptions::excluding([drained]),
        )
        .expect("drain is feasible")
        .plan;
    (tdg, net, plan_a, plan_b)
}

fn runtime(net: Network, injector: FaultInjector) -> DeploymentRuntime {
    let mut rt = DeploymentRuntime::new(net, Epsilon::loose(), injector, RetryPolicy::default());
    // No compaction: every record a scenario writes stays to be checked.
    rt.journal = Journal::with_compact_threshold(usize::MAX);
    rt
}

/// Replays `rt`'s journal and checks every record that names a
/// deployment: `tdg_fp` against the TDG in force at the record's epoch
/// (`tdg_at`), `plan_fp` against the record's own plan. Returns the
/// checked records.
fn check_fingerprints<'a>(
    rt: &DeploymentRuntime,
    tdg_at: impl Fn(u64) -> &'a Tdg,
) -> Vec<JournalRecord> {
    let replay = rt.journal().replay().expect("journal replays");
    assert_eq!(replay.discarded_tail_bytes, 0);
    let mut checked = Vec::new();
    for record in replay.records {
        let (tdg_fp, plan_fp, plan) = match &record {
            JournalRecord::TxnBegun { tdg_fp, plan_fp, plan, .. }
            | JournalRecord::MigrationBegun { tdg_fp, plan_fp, plan, .. }
            | JournalRecord::Snapshot { tdg_fp, plan_fp, plan, .. } => (*tdg_fp, *plan_fp, plan),
            _ => continue,
        };
        let what = format!("{} record of epoch {}", record.crash_point(), record.epoch());
        assert_eq!(tdg_fp, tdg_fingerprint(tdg_at(record.epoch())), "tdg_fp of the {what}");
        assert_eq!(plan_fp, plan.fingerprint(), "plan_fp of the {what}");
        checked.push(record);
    }
    checked
}

fn count(records: &[JournalRecord], pred: impl Fn(&JournalRecord) -> bool) -> usize {
    records.iter().filter(|r| pred(r)).count()
}

fn is_snapshot(r: &JournalRecord) -> bool {
    matches!(r, JournalRecord::Snapshot { .. })
}

#[test]
fn clean_deploy_journals_its_fingerprints() {
    let (tdg, net, plan) = library_workload();
    let mut rt = runtime(net, FaultInjector::disabled());
    assert!(rt.rollout(&tdg, plan).is_committed());
    let checked = check_fingerprints(&rt, |_| &tdg);
    assert_eq!(checked.len(), 2, "TxnBegun + Snapshot");
    assert!(matches!(checked[0], JournalRecord::TxnBegun { kind: TxnKind::Deploy, .. }));
}

#[test]
fn rollout_onto_a_different_tdg_journals_the_new_fingerprints() {
    let programs = library::real_programs();
    let tdg_a = ProgramAnalyzer::new().analyze(&programs[..programs.len() - 1]);
    let tdg_b = ProgramAnalyzer::new().analyze(&programs[1..]);
    assert_ne!(tdg_fingerprint(&tdg_a), tdg_fingerprint(&tdg_b));
    let net = topology::linear(4, 10.0);
    let (plan_a, plan_b) = (greedy(&tdg_a, &net), greedy(&tdg_b, &net));
    let mut rt = runtime(net, FaultInjector::disabled());
    assert!(rt.rollout(&tdg_a, plan_a).is_committed());
    assert!(rt.rollout(&tdg_b, plan_b).is_committed());
    let checked = check_fingerprints(&rt, |epoch| if epoch <= 1 { &tdg_a } else { &tdg_b });
    assert_eq!(count(&checked, is_snapshot), 2);
}

#[test]
fn heal_journals_the_healed_plan_under_the_same_tdg() {
    let (tdg, net, plan) = library_workload();
    let profile = FaultProfile { post_commit_crash_prob: 1.0, ..FaultProfile::none() };
    let healed = (0..20u64).find_map(|seed| {
        let mut rt = runtime(net.clone(), FaultInjector::new(seed, profile));
        let outcome = rt.rollout(&tdg, plan.clone());
        (outcome == RolloutOutcome::Committed { epoch: 2, healed: true }).then_some(rt)
    });
    let rt = healed.expect("some seed in 0..20 heals in one pass");
    let checked = check_fingerprints(&rt, |_| &tdg);
    assert_eq!(
        count(&checked, |r| matches!(r, JournalRecord::TxnBegun { kind: TxnKind::Heal, .. })),
        1
    );
    assert_eq!(count(&checked, is_snapshot), 2, "the deploy's and the heal's activation");
    assert_ne!(rt.active_plan(), Some(&plan), "the heal re-homed MATs");
}

#[test]
fn staged_migration_journals_plan_b_under_plan_a_tdg() {
    let (tdg, net, plan_a, plan_b) = drain_workload();
    let mut rt = runtime(net, FaultInjector::disabled());
    assert!(rt.rollout(&tdg, plan_a).is_committed());
    let outcome = rt.migrate(&tdg, plan_b.clone(), &MigrationConfig::default());
    assert!(outcome.is_migrated(), "{outcome}");
    let checked = check_fingerprints(&rt, |_| &tdg);
    assert_eq!(count(&checked, |r| matches!(r, JournalRecord::MigrationBegun { .. })), 1);
    assert_eq!(count(&checked, is_snapshot), 2);
    assert_eq!(rt.active_plan(), Some(&plan_b));
}

#[test]
fn gate_refused_migration_leaves_consistent_fingerprints() {
    // The library programs' drain of the first occupied switch, on
    // widened pipelines: the mixed-epoch gate refuses it.
    let (tdg, net, plan_a) = library_workload();
    let drained = *plan_a.occupied_switches().iter().next().expect("non-empty");
    let plan_b = IncrementalDeployer::new()
        .redeploy_with(
            &tdg,
            &plan_a,
            &tdg,
            &net,
            &Epsilon::loose(),
            &RedeployOptions::excluding([drained]),
        )
        .expect("drain is feasible")
        .plan;
    let mut wide = net;
    let ids: Vec<_> = wide.switch_ids().collect();
    for id in ids {
        wide.switch_mut(id).stages *= 4;
        wide.switch_mut(id).stage_capacity *= 2.0;
    }
    let mut rt = runtime(wide, FaultInjector::disabled());
    assert!(rt.rollout(&tdg, plan_a.clone()).is_committed());
    match rt.migrate(&tdg, plan_b, &MigrationConfig::default()) {
        MigrationOutcome::Aborted { reason, .. } => assert!(reason.contains("mixed-epoch")),
        other => panic!("expected a gate abort, got {other}"),
    }
    let checked = check_fingerprints(&rt, |_| &tdg);
    assert_eq!(count(&checked, |r| matches!(r, JournalRecord::MigrationBegun { .. })), 0);
    assert_eq!(rt.active_plan(), Some(&plan_a));
}

#[test]
fn forced_restore_journals_plan_a_fingerprints() {
    let (tdg, net, plan_a, plan_b) = drain_workload();
    let mut rt = runtime(net, FaultInjector::disabled());
    assert!(rt.rollout(&tdg, plan_a.clone()).is_committed());
    // Every prepare is refused, and the first failure crosses the abort
    // threshold: the migration ends in the out-of-band full restore.
    rt.set_injector(FaultInjector::new(
        1,
        FaultProfile { reject_prob: 1.0, ..FaultProfile::none() },
    ));
    let cfg = MigrationConfig { abort_threshold: 0, ..MigrationConfig::default() };
    let outcome = rt.migrate(&tdg, plan_b, &cfg);
    assert!(matches!(outcome, MigrationOutcome::RolledBack { forced: true, .. }), "{outcome}");
    let checked = check_fingerprints(&rt, |_| &tdg);
    assert_eq!(count(&checked, |r| matches!(r, JournalRecord::MigrationBegun { .. })), 1);
    // The restore re-journals plan A's snapshot after the migration's.
    match checked.last() {
        Some(JournalRecord::Snapshot { plan, epoch: 1, .. }) => assert_eq!(plan, &plan_a),
        other => panic!("expected plan A's restore snapshot last, got {other:?}"),
    }
    assert_eq!(rt.active_plan(), Some(&plan_a));
}

#[test]
fn recovery_journals_the_recovered_tdg() {
    // A swap onto a new TDG crashes after its commit decision; recovery
    // resumes it forward under a fresh epoch.
    let programs = library::real_programs();
    let tdg_a = ProgramAnalyzer::new().analyze(&programs[..programs.len() - 1]);
    let tdg_b = ProgramAnalyzer::new().analyze(&programs);
    let net = topology::linear(4, 10.0);
    let (plan_a, plan_b) = (greedy(&tdg_a, &net), greedy(&tdg_b, &net));
    let mut rt = runtime(net, FaultInjector::disabled());
    assert!(rt.rollout(&tdg_a, plan_a).is_committed());
    // Boundaries: 0 = epoch advance, 1 = txn begin, then one prepare per
    // switch, then the commit decision.
    let n = plan_b.occupied_switch_count() as u64;
    rt.injector_mut().arm_controller_crash_at(2 + n, CrashTiming::AfterWrite);
    assert!(matches!(rt.rollout(&tdg_b, plan_b.clone()), RolloutOutcome::ControllerCrashed { .. }));
    let report = rt.recover(&tdg_b).expect("recovery succeeds");
    assert_eq!(report.action, RecoveryAction::ResumeCommit);
    let checked = check_fingerprints(&rt, |epoch| if epoch <= 1 { &tdg_a } else { &tdg_b });
    match checked.last() {
        Some(JournalRecord::Snapshot { epoch, plan, .. }) => {
            assert_eq!(*epoch, report.epoch);
            assert_eq!(plan, &plan_b);
        }
        other => panic!("expected the recovery snapshot last, got {other:?}"),
    }
}

fn round_trip<T>(value: &T)
where
    T: serde::Serialize + serde::Deserialize + PartialEq + std::fmt::Debug,
{
    let compact = serde_json::to_string(value).expect("serializes");
    assert_eq!(&serde_json::from_str::<T>(&compact).expect("parses"), value);
    let pretty = serde_json::to_string_pretty(value).expect("serializes");
    assert_eq!(&serde_json::from_str::<T>(&pretty).expect("parses"), value);
}

#[test]
fn tdgs_plans_artifacts_and_every_record_round_trip() {
    let (tdg, net, plan) = library_workload();
    let artifacts = generate(&tdg, &net, &plan);
    round_trip(&tdg);
    round_trip(&plan);
    round_trip(&artifacts);
    let switches: Vec<_> = plan.occupied_switches().into_iter().collect();
    let records = [
        JournalRecord::EpochAdvanced { epoch: 1 },
        JournalRecord::TxnBegun {
            epoch: 1,
            kind: TxnKind::Heal,
            tdg_fp: tdg_fingerprint(&tdg),
            plan_fp: plan.fingerprint(),
            plan: plan.clone(),
            artifacts: artifacts.clone(),
        },
        JournalRecord::Prepared { epoch: 1, switch: switches[0] },
        JournalRecord::CommitDecided { epoch: 1, order: switches.clone() },
        JournalRecord::CommitAcked { epoch: 1, switch: switches[0] },
        JournalRecord::LeaseGranted { epoch: 1, switch: switches[0], until_us: 20_050 },
        JournalRecord::TxnCommitted { epoch: 1, dead: vec![] },
        JournalRecord::TxnAborted { epoch: 1, reason: "a \"quoted\"\treason\n".into() },
        JournalRecord::Snapshot {
            epoch: 1,
            tdg_fp: u64::MAX,
            plan_fp: 0,
            plan: plan.clone(),
            artifacts: artifacts.clone(),
            clock_us: 7,
        },
        JournalRecord::Cleared { epoch: 2 },
        JournalRecord::MigrationBegun {
            epoch: 3,
            tdg_fp: 1,
            plan_fp: 2,
            plan,
            artifacts,
            order: switches.clone(),
        },
        JournalRecord::MigrationStepCommitted { epoch: 3, step: 0, switch: switches[0] },
        JournalRecord::MigrationRolledBack { epoch: 3, forced: true },
        JournalRecord::MigrationCompleted { epoch: 3, steps: 1 },
        JournalRecord::RecoveryBegun { epoch: 4 },
        JournalRecord::RecoveryCompleted { epoch: 4, action: "resume-commit".into() },
    ];
    for record in &records {
        round_trip(record);
    }
}
