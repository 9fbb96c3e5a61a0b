//! Lossy-channel commit experiment: protocol cost vs. message loss.
//!
//! Rolls the real-program workload out through the epoch-fenced agent
//! protocol while sweeping the control channel's drop probability (with
//! duplication, reordering, and delay held at the lossy defaults), across
//! a seed sweep per point. Reports, per drop rate: how many runs
//! committed cleanly, committed after healing, or rolled back; the mean
//! control-plane messages per run; the mean retries per run; and the mean
//! virtual commit latency of runs that terminated Committed. The
//! interesting curve is messages and latency growing superlinearly with
//! loss while the outcome mix stays overwhelmingly Committed — retries,
//! idempotent replays, and leases buy reliability from an unreliable
//! channel at a measurable message cost.

use hermes_bench::analyze;
use hermes_bench::report::{maybe_json, Table};
use hermes_core::{Epsilon, GreedyHeuristic, Solver};
use hermes_dataplane::library;
use hermes_net::topology;
use hermes_runtime::{
    ChannelProfile, DeploymentRuntime, Event, FaultInjector, FaultProfile, RetryPolicy,
    RolloutOutcome,
};
use serde::Serialize;

const SEEDS: u64 = 40;
const DROP_RATES: [f64; 5] = [0.0, 0.05, 0.10, 0.20, 0.30];

#[derive(Serialize)]
struct DropRateReport {
    drop_prob: f64,
    runs: u64,
    committed_clean: u64,
    committed_healed: u64,
    rolled_back: u64,
    mean_messages: f64,
    mean_retries: f64,
    mean_commit_latency_us: f64,
}

fn sweep(net: &hermes_net::Network, drop_prob: f64) -> DropRateReport {
    let tdg = analyze(&library::real_programs());
    let eps = Epsilon::loose();
    let plan = GreedyHeuristic::new()
        .deploy(&tdg, net, &eps)
        .expect("workload deploys on the healthy topology");
    let profile = ChannelProfile { drop_prob, ..ChannelProfile::lossy() };

    let mut report = DropRateReport {
        drop_prob,
        runs: SEEDS,
        committed_clean: 0,
        committed_healed: 0,
        rolled_back: 0,
        mean_messages: 0.0,
        mean_retries: 0.0,
        mean_commit_latency_us: 0.0,
    };
    let mut messages: Vec<u64> = Vec::new();
    let mut retries: Vec<u64> = Vec::new();
    let mut latencies: Vec<u64> = Vec::new();

    for seed in 0..SEEDS {
        // Faults off: the channel is the only adversary, so the curve
        // isolates the protocol's cost of unreliability.
        let injector = FaultInjector::new(seed, FaultProfile::none());
        let mut rt = DeploymentRuntime::new(net.clone(), eps, injector, RetryPolicy::default())
            .with_channel_profile(profile);
        let outcome = rt.rollout(&tdg, plan.clone());
        messages.push(rt.messages_sent());
        retries.push(rt.log().count(|e| matches!(e, Event::RetryScheduled { .. })) as u64);
        match outcome {
            RolloutOutcome::Committed { healed: false, .. } => {
                report.committed_clean += 1;
                latencies.push(rt.now_us());
            }
            RolloutOutcome::Committed { healed: true, .. } => {
                report.committed_healed += 1;
                latencies.push(rt.now_us());
            }
            RolloutOutcome::RolledBack { .. } => report.rolled_back += 1,
            RolloutOutcome::ControllerCrashed { .. } => {
                unreachable!("FaultProfile::none() never injects a controller crash")
            }
        }
    }

    let mean = |v: &[u64]| {
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<u64>() as f64 / v.len() as f64
        }
    };
    report.mean_messages = mean(&messages);
    report.mean_retries = mean(&retries);
    report.mean_commit_latency_us = mean(&latencies);
    report
}

fn main() {
    let net = topology::fat_tree(4, 10.0);
    let reports: Vec<DropRateReport> = DROP_RATES.iter().map(|&drop| sweep(&net, drop)).collect();

    if maybe_json(&reports) {
        return;
    }

    let mut table = Table::new([
        "drop",
        "runs",
        "clean",
        "healed",
        "rolled back",
        "mean msgs",
        "mean retries",
        "mean commit (us)",
    ]);
    for r in &reports {
        table.row([
            format!("{:.2}", r.drop_prob),
            r.runs.to_string(),
            r.committed_clean.to_string(),
            r.committed_healed.to_string(),
            r.rolled_back.to_string(),
            format!("{:.1}", r.mean_messages),
            format!("{:.1}", r.mean_retries),
            format!("{:.0}", r.mean_commit_latency_us),
        ]);
    }
    println!(
        "Lossy commit: {SEEDS} seeds per drop rate on fattree:4 \
         (dup/reorder/delay at lossy defaults, faults off)\n"
    );
    print!("{}", table.render());
}
