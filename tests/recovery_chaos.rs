//! Controller-crash soak: recovery must keep the runtime *bimodal*.
//!
//! PR 2 proved rollouts are exactly-A-or-exactly-B under switch and
//! channel faults; PR 6 proved it for staged migrations. This soak
//! extends the invariant across **controller** crashes: a crash is
//! injected at a journal-write boundary during a deploy, a post-commit
//! heal, or a mid-flight migration — combined with a lossy channel —
//! and after [`DeploymentRuntime::recover`] replays the journal and
//! reconciles the agents, every run must satisfy:
//!
//! 1. **no mixed state**: the active plan is byte-exactly one journaled
//!    intent (a snapshot, a transaction target, or a migration target),
//!    or there is no active plan at all;
//! 2. **no orphaned epochs**: every agent serves the fresh recovery
//!    epoch or nothing — the crashed epoch is gone from the fleet;
//! 3. **reproducibility**: the same seed and crash point produce the
//!    same outcome, recovery report, event log, and journal, byte for
//!    byte.
//!
//! Coverage is two-pronged: a deterministic sweep arms a crash at
//! *every* boundary of each scenario (asserting strict plan equality,
//! since the fault schedule is clean), and a 50-seed chaos soak places a
//! seed-derived crash in each scenario under the full chaos profile.

use hermes::core::{
    DeploymentPlan, Epsilon, GreedyHeuristic, IncrementalDeployer, ProgramAnalyzer,
    RedeployOptions, Solver,
};
use hermes::dataplane::library;
use hermes::net::{topology, Network};
use hermes::runtime::{
    replay_bytes, ChannelProfile, CrashTiming, DeploymentRuntime, FaultInjector, FaultProfile,
    JournalRecord, MigrationConfig, MigrationOutcome, RecoveryReport, RetryPolicy, RolloutOutcome,
};
use hermes::tdg::Tdg;

const SEEDS: u64 = 50;

#[derive(Clone, Copy, Debug, PartialEq)]
enum Scenario {
    Deploy,
    Heal,
    Migrate,
}

const SCENARIOS: [Scenario; 3] = [Scenario::Deploy, Scenario::Heal, Scenario::Migrate];

struct Workload {
    tdg: Tdg,
    net: Network,
    plan_a: DeploymentPlan,
    plan_b: DeploymentPlan,
}

fn workload() -> Workload {
    let programs = library::real_programs();
    let tdg = ProgramAnalyzer::new().analyze(&programs[..2.min(programs.len())]);
    let net = topology::linear(3, 10.0);
    let eps = Epsilon::loose();
    let plan_a = GreedyHeuristic::new().deploy(&tdg, &net, &eps).expect("plan A deploys");
    let drained = *plan_a.occupied_switches().last().expect("non-empty plan");
    let plan_b = IncrementalDeployer::new()
        .redeploy_with(&tdg, &plan_a, &tdg, &net, &eps, &RedeployOptions::excluding([drained]))
        .expect("drain is feasible")
        .plan;
    assert_ne!(plan_a, plan_b, "draining must change the plan");
    Workload { tdg, net, plan_a, plan_b }
}

/// Runs one scenario with an optional armed crash; `chaotic` picks the
/// full chaos profile + lossy channel over a clean control plane.
/// Returns the runtime and whether the controller crashed.
fn run_scenario(
    w: &Workload,
    sc: Scenario,
    seed: u64,
    chaotic: bool,
    arm: Option<(u64, CrashTiming)>,
) -> (DeploymentRuntime, bool) {
    let eps = Epsilon::loose();
    let channel = if chaotic { ChannelProfile::lossy() } else { ChannelProfile::none() };
    match sc {
        Scenario::Deploy => {
            let profile = if chaotic { FaultProfile::chaos() } else { FaultProfile::none() };
            let mut rt = DeploymentRuntime::new(
                w.net.clone(),
                eps,
                FaultInjector::new(seed, profile),
                RetryPolicy::default(),
            )
            .with_channel_profile(channel);
            if let Some((nth, timing)) = arm {
                rt.injector_mut().arm_controller_crash_at(nth, timing);
            }
            let outcome = rt.rollout(&w.tdg, w.plan_a.clone());
            let crashed = matches!(outcome, RolloutOutcome::ControllerCrashed { .. });
            (rt, crashed)
        }
        Scenario::Heal => {
            // Every commit kills a hosting switch, so the rollout always
            // enters the healing path; the armed crash then lands inside
            // the initial transaction or one of the heal transactions.
            let profile = FaultProfile {
                post_commit_crash_prob: 1.0,
                ..if chaotic { FaultProfile::chaos() } else { FaultProfile::none() }
            };
            let mut rt = DeploymentRuntime::new(
                w.net.clone(),
                eps,
                FaultInjector::new(seed, profile),
                RetryPolicy::default(),
            )
            .with_channel_profile(channel);
            if let Some((nth, timing)) = arm {
                rt.injector_mut().arm_controller_crash_at(nth, timing);
            }
            let outcome = rt.rollout(&w.tdg, w.plan_a.clone());
            let crashed = matches!(outcome, RolloutOutcome::ControllerCrashed { .. });
            (rt, crashed)
        }
        Scenario::Migrate => {
            let mut rt = DeploymentRuntime::new(
                w.net.clone(),
                eps,
                FaultInjector::disabled(),
                RetryPolicy::default(),
            );
            assert!(rt.rollout(&w.tdg, w.plan_a.clone()).is_committed(), "clean install of A");
            let profile = if chaotic { FaultProfile::chaos() } else { FaultProfile::none() };
            rt.set_injector(FaultInjector::new(seed, profile));
            rt.set_channel_profile(channel);
            if let Some((nth, timing)) = arm {
                rt.injector_mut().arm_controller_crash_at(nth, timing);
            }
            let outcome = rt.migrate(&w.tdg, w.plan_b.clone(), &MigrationConfig::default());
            let crashed = matches!(outcome, MigrationOutcome::ControllerCrashed { .. });
            (rt, crashed)
        }
    }
}

/// How many journal-write boundaries the scenario crosses crash-free.
fn boundaries(w: &Workload, sc: Scenario, seed: u64, chaotic: bool) -> u64 {
    let (rt, crashed) = run_scenario(w, sc, seed, chaotic, None);
    assert!(!crashed, "no crash was armed");
    rt.injector().journal_writes()
}

/// The post-recovery invariants shared by every run.
fn assert_recovered(rt: &DeploymentRuntime, report: &RecoveryReport, label: &str) {
    // No orphaned epochs: every *live* agent serves the fresh epoch or
    // nothing at all. (A crashed switch is down, not serving — its stale
    // epoch is unreachable and gets wiped if the switch is ever revived.)
    for agent in rt.agents() {
        if agent.is_crashed() {
            continue;
        }
        let epoch = agent.active_epoch();
        assert!(
            epoch.is_none() || epoch == Some(report.epoch),
            "{label}: a live agent serves epoch {epoch:?}, not the recovery epoch {}",
            report.epoch
        );
    }
    // No mixed state: whatever is active is byte-exactly one intent the
    // journal ever held — never a hybrid.
    let replay = replay_bytes(rt.journal().bytes()).expect("the post-recovery journal replays");
    let journaled: Vec<&DeploymentPlan> = replay
        .records
        .iter()
        .filter_map(|record| match record {
            JournalRecord::TxnBegun { plan, .. }
            | JournalRecord::Snapshot { plan, .. }
            | JournalRecord::MigrationBegun { plan, .. } => Some(plan),
            _ => None,
        })
        .collect();
    if let Some(active) = rt.active_plan() {
        assert!(
            journaled.contains(&active),
            "{label}: the active plan is not any journaled intent"
        );
        // Every live switch the plan occupies serves the fresh epoch.
        let down = rt.network().down_switches();
        for switch in active.occupied_switches() {
            if !down.contains(&switch) {
                assert_eq!(
                    rt.agent(switch).and_then(|a| a.active_epoch()),
                    Some(report.epoch),
                    "{label}: switch {switch} does not serve the recovered plan"
                );
            }
        }
    }
}

/// Deterministic sweep: a crash at *every* journal boundary of every
/// scenario, clean fault schedule — so the terminal state must be
/// *strictly* plan A, plan B, or nothing, by plan equality.
#[test]
fn every_boundary_recovers_to_exactly_a_or_exactly_b() {
    let w = workload();
    for sc in SCENARIOS {
        let writes = boundaries(&w, sc, 7, false);
        assert!(writes > 0, "{sc:?}: the scenario must journal something");
        for nth in 0..writes {
            let timing =
                if nth % 2 == 0 { CrashTiming::BeforeWrite } else { CrashTiming::AfterWrite };
            let label = format!("{sc:?} boundary {nth} ({timing:?})");
            let (mut rt, crashed) = run_scenario(&w, sc, 7, false, Some((nth, timing)));
            assert!(crashed, "{label}: the armed crash must fire");
            let report = rt.recover(&w.tdg).expect("recovery succeeds");
            assert_recovered(&rt, &report, &label);
            let active = rt.active_plan();
            // Heal rewrites the plan around the dead switch, so its
            // terminal plans are asserted via journal membership in
            // assert_recovered; deploy and migrate are exact.
            match sc {
                Scenario::Deploy => assert!(
                    active.is_none() || active == Some(&w.plan_a),
                    "{label}: terminal state is neither nothing nor plan A"
                ),
                Scenario::Heal => {}
                Scenario::Migrate => assert!(
                    active == Some(&w.plan_a) || active == Some(&w.plan_b),
                    "{label}: terminal state is neither plan A nor plan B"
                ),
            }
        }
    }
}

/// 50-seed chaos soak: a seed-derived crash point per scenario, under
/// the full chaos profile and a lossy channel, each run executed twice
/// to prove byte-reproducibility of outcome, report, log, and journal.
#[test]
fn fifty_seed_crash_soak_is_bimodal_and_reproducible() {
    let w = workload();
    let mut crashes = 0u64;
    for seed in 0..SEEDS {
        for sc in SCENARIOS {
            let writes = boundaries(&w, sc, seed, true);
            if writes == 0 {
                continue;
            }
            let nth = seed % writes;
            let timing =
                if seed % 2 == 0 { CrashTiming::BeforeWrite } else { CrashTiming::AfterWrite };
            let label = format!("{sc:?} seed {seed} boundary {nth} ({timing:?})");
            let run = |w: &Workload| {
                let (mut rt, crashed) = run_scenario(w, sc, seed, true, Some((nth, timing)));
                assert!(crashed, "{label}: the armed crash must fire");
                let report = rt.recover(&w.tdg).expect("recovery succeeds");
                (rt, report)
            };
            let (rt, report) = run(&w);
            let (rt2, report2) = run(&w);
            assert_eq!(
                serde_json::to_string(&report).expect("report serializes"),
                serde_json::to_string(&report2).expect("report serializes"),
                "{label}: recovery report is not reproducible"
            );
            assert_eq!(
                rt.log().to_json(),
                rt2.log().to_json(),
                "{label}: event log is not byte-reproducible"
            );
            assert_eq!(
                rt.journal().bytes(),
                rt2.journal().bytes(),
                "{label}: journal is not byte-reproducible"
            );
            assert_recovered(&rt, &report, &label);
            crashes += 1;
        }
    }
    assert_eq!(crashes, SEEDS * SCENARIOS.len() as u64, "every run must crash and recover");
}
