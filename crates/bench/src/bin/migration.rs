//! Migration bench: staged live reconfiguration vs all-at-once redeploy.
//!
//! Each scenario builds a metadata-chain workload on a capacity-bound
//! topology, installs plan A (greedy), drains plan A's last occupied
//! switch into plan B (incremental redeploy with that switch excluded),
//! and then reconfigures A→B two ways on clean runtimes:
//!
//! - **staged** — [`MigrationScheduler`] orders the per-switch commits to
//!   minimize the peak transient `A_max`; the runtime executes the
//!   schedule step by step through the mixed-epoch gate
//!   ([`DeploymentRuntime::migrate_with_schedule`]);
//! - **all-at-once** — a plain [`DeploymentRuntime::rollout`] of plan B,
//!   whose commit window walks the switches in ascending id order.
//!
//! Reported per scenario: reconfiguration time (virtual clock), control
//! messages, and the transient-overhead curve (`A_max` after each staged
//! step) against the all-at-once peak. The run **fails (exit 1)** if any
//! scenario's staged peak exceeds its all-at-once peak or either
//! execution does not land on plan B.
//!
//! Everything here runs on the virtual clock with a clean channel, so the
//! full report — including `--json` (recorded as
//! `results/BENCH_migration.json`) and `--smoke` — is byte-deterministic.

use hermes_bench::report::{maybe_json, Table};
use hermes_core::test_support::chain_tdg;
use hermes_core::{
    Epsilon, GreedyHeuristic, IncrementalDeployer, MigrationOrder, MigrationProblem,
    MigrationScheduler, RedeployOptions, SearchContext, Solver,
};
use hermes_net::{topology, Network, SwitchId};
use hermes_runtime::{DeploymentRuntime, FaultInjector, MigrationConfig, RetryPolicy};
use hermes_tdg::Tdg;
use serde::Serialize;
use std::process::ExitCode;
use std::time::Duration;

/// Schedule-search budget; the scenarios have at most a handful of active
/// switches, so both planners finish far inside it.
const PLAN_BUDGET: Duration = Duration::from_secs(5);

/// Reshapes every switch to `stages` pipeline stages of `cap` capacity so
/// packing binds (stock capacities would fit each workload on one switch
/// and make every transient curve flat zero).
fn shape(mut net: Network, stages: usize, cap: f64) -> Network {
    let ids: Vec<SwitchId> = net.switch_ids().collect();
    for id in ids {
        let sw = net.switch_mut(id);
        sw.stages = stages;
        sw.stage_capacity = cap;
    }
    net
}

/// The benched instances: name, topology, and a chain workload whose MATs
/// only read/write metadata — the shape the mixed-epoch gate admits under
/// any commit order, so both reconfiguration styles can execute.
fn scenarios() -> Vec<(String, Network, Tdg)> {
    vec![
        (
            "linear-5".to_owned(),
            shape(topology::linear(5, 10.0), 5, 0.45),
            chain_tdg(&[6, 2, 9, 3, 5, 4, 7, 2, 8], 0.4),
        ),
        (
            "star-4".to_owned(),
            shape(topology::star(4, 10.0), 5, 0.45),
            chain_tdg(&[4, 7, 3, 8, 2, 6, 5], 0.4),
        ),
        (
            "fattree-4".to_owned(),
            shape(topology::fat_tree(4, 10.0), 4, 0.45),
            chain_tdg(&[9, 2, 7, 4, 8, 3, 6, 5, 2, 7, 4], 0.4),
        ),
    ]
}

/// One reconfiguration execution, measured on the virtual clock.
#[derive(Serialize)]
struct ExecStats {
    outcome: String,
    /// Plan B installed and active at the end.
    ok: bool,
    reconfig_us: u64,
    messages: u64,
}

#[derive(Serialize)]
struct ScenarioReport {
    name: String,
    switches: usize,
    mats: usize,
    drained_switch: String,
    from_amax: u64,
    to_amax: u64,
    planner: String,
    staged_steps: usize,
    staged_peak_amax: u64,
    all_at_once_peak_amax: Option<u64>,
    /// `A_max` before the first step, then after every staged step.
    transient_curve: Vec<u64>,
    staged: ExecStats,
    all_at_once: ExecStats,
}

#[derive(Serialize)]
struct Report {
    plan_budget_secs: u64,
    scenarios: Vec<ScenarioReport>,
    /// Every scenario landed on plan B both ways and staged never peaked
    /// above all-at-once.
    staged_never_worse: bool,
}

fn clean_runtime(net: &Network, eps: Epsilon) -> DeploymentRuntime {
    DeploymentRuntime::new(net.clone(), eps, FaultInjector::disabled(), RetryPolicy::default())
}

fn run_scenario(name: &str, net: &Network, tdg: &Tdg) -> Result<ScenarioReport, String> {
    let eps = Epsilon::loose();
    let plan_a = GreedyHeuristic::new()
        .deploy(tdg, net, &eps)
        .map_err(|e| format!("{name}: plan A infeasible: {e}"))?;
    // Drain the highest-id occupied switch: its MATs re-home onto empty
    // switches, so every make-before-break staging window fits.
    let drained = *plan_a
        .occupied_switches()
        .last()
        .ok_or_else(|| format!("{name}: plan A occupies no switches"))?;
    let plan_b = IncrementalDeployer::new()
        .redeploy_with(tdg, &plan_a, tdg, net, &eps, &RedeployOptions::excluding([drained]))
        .map_err(|e| format!("{name}: cannot drain {drained}: {e}"))?
        .plan;
    if plan_b == plan_a {
        return Err(format!("{name}: draining {drained} changed nothing"));
    }

    let schedule = {
        let problem = MigrationProblem { tdg, net, from: &plan_a, to: &plan_b };
        let ctx = SearchContext::with_time_limit(PLAN_BUDGET);
        MigrationScheduler::with_order(MigrationOrder::Auto)
            .plan(&problem, &ctx)
            .map_err(|e| format!("{name}: cannot schedule: {e}"))?
    };

    // Staged execution.
    let mut rt = clean_runtime(net, eps);
    if !rt.rollout(tdg, plan_a.clone()).is_committed() {
        return Err(format!("{name}: clean install of plan A failed"));
    }
    let (t0, m0) = (rt.now_us(), rt.messages_sent());
    let outcome =
        rt.migrate_with_schedule(tdg, plan_b.clone(), &schedule, &MigrationConfig::default());
    let staged = ExecStats {
        ok: outcome.is_migrated() && rt.active_plan() == Some(&plan_b),
        outcome: outcome.to_string(),
        reconfig_us: rt.now_us() - t0,
        messages: rt.messages_sent() - m0,
    };

    // All-at-once execution: same A, then a plain rollout of B.
    let mut rt = clean_runtime(net, eps);
    if !rt.rollout(tdg, plan_a.clone()).is_committed() {
        return Err(format!("{name}: clean install of plan A failed"));
    }
    let (t0, m0) = (rt.now_us(), rt.messages_sent());
    let outcome = rt.rollout(tdg, plan_b.clone());
    let all_at_once = ExecStats {
        ok: outcome.is_committed() && rt.active_plan() == Some(&plan_b),
        outcome: outcome.to_string(),
        reconfig_us: rt.now_us() - t0,
        messages: rt.messages_sent() - m0,
    };

    Ok(ScenarioReport {
        name: name.to_owned(),
        switches: net.switch_count(),
        mats: tdg.node_count(),
        drained_switch: drained.to_string(),
        from_amax: schedule.from_amax,
        to_amax: schedule.to_amax,
        planner: schedule.planner.clone(),
        staged_steps: schedule.steps.len(),
        staged_peak_amax: schedule.peak_transient_amax,
        all_at_once_peak_amax: schedule.all_at_once_peak,
        transient_curve: schedule.transient_curve(),
        staged,
        all_at_once,
    })
}

fn main() -> ExitCode {
    let mut reports = Vec::new();
    for (name, net, tdg) in scenarios() {
        match run_scenario(&name, &net, &tdg) {
            Ok(r) => reports.push(r),
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let staged_never_worse = reports.iter().all(|r| {
        r.staged.ok
            && r.all_at_once.ok
            && r.all_at_once_peak_amax.is_none_or(|peak| r.staged_peak_amax <= peak)
    });
    let report =
        Report { plan_budget_secs: PLAN_BUDGET.as_secs(), scenarios: reports, staged_never_worse };

    if std::env::args().any(|a| a == "--smoke") {
        // Compact single-line summary; byte-identical across runs, used
        // by CI's double-run determinism diff.
        let peaks: Vec<String> = report
            .scenarios
            .iter()
            .map(|r| {
                format!(
                    "{{\"name\":\"{}\",\"staged_peak\":{},\"all_at_once_peak\":{},\
                     \"curve\":{:?},\"staged_us\":{},\"all_at_once_us\":{},\
                     \"staged_msgs\":{},\"all_at_once_msgs\":{}}}",
                    r.name,
                    r.staged_peak_amax,
                    r.all_at_once_peak_amax.map_or(-1i64, |p| p as i64),
                    r.transient_curve,
                    r.staged.reconfig_us,
                    r.all_at_once.reconfig_us,
                    r.staged.messages,
                    r.all_at_once.messages,
                )
            })
            .collect();
        println!(
            "{{\"staged_never_worse\":{},\"scenarios\":[{}]}}",
            report.staged_never_worse,
            peaks.join(",")
        );
    } else if !maybe_json(&report) {
        println!("Migration bench — staged vs all-at-once reconfiguration\n");
        let mut t = Table::new([
            "scenario",
            "steps",
            "staged peak B",
            "all-at-once peak B",
            "staged us",
            "all-at-once us",
            "staged msgs",
            "all-at-once msgs",
        ]);
        for r in &report.scenarios {
            t.row([
                r.name.clone(),
                r.staged_steps.to_string(),
                r.staged_peak_amax.to_string(),
                r.all_at_once_peak_amax.map_or("-".to_owned(), |p| p.to_string()),
                r.staged.reconfig_us.to_string(),
                r.all_at_once.reconfig_us.to_string(),
                r.staged.messages.to_string(),
                r.all_at_once.messages.to_string(),
            ]);
        }
        println!("{}", t.render());
        for r in &report.scenarios {
            println!(
                "{}: drained {}, A_max {} -> {} B, planner {}, transient curve {:?}",
                r.name, r.drained_switch, r.from_amax, r.to_amax, r.planner, r.transient_curve
            );
        }
    }

    if report.staged_never_worse {
        ExitCode::SUCCESS
    } else {
        eprintln!("error: staged migration peaked above all-at-once (or an execution failed)");
        ExitCode::FAILURE
    }
}
