//! Recovery bench: journal cost and crash-recovery behaviour.
//!
//! Three measurements, all on the same two-program linear-3 workload the
//! recovery soak uses:
//!
//! - **append** — write-ahead journal append throughput over a realistic
//!   record mix (small transaction records punctuated by full plan
//!   snapshots), with compaction live;
//! - **replay** — journal replay latency as the record count grows
//!   (replay is what gates controller restart time);
//! - **crash points** — for a controller crash armed at *every*
//!   journal-write boundary of a deploy and of a staged migration:
//!   the recovery action taken, reconciliation/reinstall message count,
//!   and virtual-clock recovery latency per boundary.
//!
//! The run **fails (exit 1)** if any recovery errors or lands on a plan
//! that is neither exactly plan A, exactly plan B, nor nothing. Wall
//! -clock throughput numbers vary per host, so `--smoke` prints only the
//! virtual-clock/deterministic fields — CI double-runs it and diffs.
//! `--json` is recorded as `results/BENCH_recovery.json`.

use hermes_bench::report::{maybe_json, Table};
use hermes_core::{
    DeploymentPlan, Epsilon, GreedyHeuristic, IncrementalDeployer, ProgramAnalyzer,
    RedeployOptions, Solver,
};
use hermes_dataplane::library;
use hermes_net::{topology, Network};
use hermes_runtime::{
    replay_bytes, CrashTiming, DeploymentRuntime, FaultInjector, FaultProfile, Journal,
    JournalRecord, MigrationConfig, MigrationOutcome, RetryPolicy, RolloutOutcome,
    EVENT_SCHEMA_VERSION, JOURNAL_FORMAT_VERSION,
};
use hermes_tdg::Tdg;
use serde::Serialize;
use std::process::ExitCode;
use std::time::Instant;

struct Workload {
    tdg: Tdg,
    net: Network,
    plan_a: DeploymentPlan,
    plan_b: DeploymentPlan,
}

fn workload() -> Result<Workload, String> {
    let programs = library::real_programs();
    let tdg = ProgramAnalyzer::new().analyze(&programs[..2.min(programs.len())]);
    let net = topology::linear(3, 10.0);
    let eps = Epsilon::loose();
    let plan_a = GreedyHeuristic::new()
        .deploy(&tdg, &net, &eps)
        .map_err(|e| format!("plan A infeasible: {e}"))?;
    let drained = *plan_a.occupied_switches().last().ok_or_else(|| "plan A is empty".to_owned())?;
    let plan_b = IncrementalDeployer::new()
        .redeploy_with(&tdg, &plan_a, &tdg, &net, &eps, &RedeployOptions::excluding([drained]))
        .map_err(|e| format!("cannot drain {drained}: {e}"))?
        .plan;
    Ok(Workload { tdg, net, plan_a, plan_b })
}

/// Journal append throughput over a realistic record mix.
#[derive(Serialize)]
struct AppendStats {
    records: u64,
    bytes: usize,
    compactions: u64,
    elapsed_us: u64,
    records_per_sec: u64,
}

fn bench_append(w: &Workload, records: u64) -> AppendStats {
    let mut journal = Journal::new();
    let switch = w.plan_a.occupied_switches().first().copied();
    let artifacts = hermes_backend::config::generate(&w.tdg, &w.net, &w.plan_a);
    let start = Instant::now();
    for i in 0..records {
        let record = match (i % 16, switch) {
            // A snapshot every 16 records keeps compaction live.
            (15, _) => JournalRecord::Snapshot {
                epoch: i,
                tdg_fp: 0,
                plan_fp: 0,
                plan: w.plan_a.clone(),
                artifacts: artifacts.clone(),
                clock_us: i,
            },
            (n, Some(s)) if n % 2 == 0 => JournalRecord::Prepared { epoch: i, switch: s },
            (_, Some(s)) => JournalRecord::LeaseGranted { epoch: i, switch: s, until_us: i },
            _ => JournalRecord::EpochAdvanced { epoch: i },
        };
        journal.append(&record);
    }
    let elapsed_us = start.elapsed().as_micros() as u64;
    AppendStats {
        records,
        bytes: journal.bytes().len(),
        compactions: journal.compactions(),
        elapsed_us,
        records_per_sec: records.saturating_mul(1_000_000).checked_div(elapsed_us).unwrap_or(0),
    }
}

/// Replay latency at one journal size.
#[derive(Serialize)]
struct ReplayPoint {
    records_written: u64,
    records_replayed: usize,
    bytes: usize,
    replay_us: u64,
}

fn bench_replay(w: &Workload, sizes: &[u64]) -> Result<Vec<ReplayPoint>, String> {
    let mut points = Vec::new();
    for &size in sizes {
        // No compaction, so replay really walks `size` records.
        let mut journal = Journal::with_compact_threshold(usize::MAX);
        let switch = w.plan_a.occupied_switches().first().copied();
        for i in 0..size {
            match switch {
                Some(s) if i % 2 == 0 => {
                    journal.append(&JournalRecord::Prepared { epoch: i, switch: s })
                }
                _ => journal.append(&JournalRecord::EpochAdvanced { epoch: i }),
            }
        }
        let start = Instant::now();
        let replay = replay_bytes(journal.bytes()).map_err(|e| format!("replay: {e}"))?;
        let replay_us = start.elapsed().as_micros() as u64;
        points.push(ReplayPoint {
            records_written: size,
            records_replayed: replay.records.len(),
            bytes: journal.bytes().len(),
            replay_us,
        });
    }
    Ok(points)
}

/// Recovery behaviour with a crash armed at one journal boundary.
#[derive(Serialize)]
struct CrashPointStats {
    boundary: u64,
    timing: String,
    action: String,
    /// Control messages spent by the whole recovery (probes + reinstall).
    messages: u64,
    reinstalled: usize,
    forced: usize,
    unreachable: usize,
    /// Virtual-clock recovery latency — deterministic.
    recovery_us: u64,
}

enum Kind {
    Deploy,
    Migrate,
}

fn crash_points(w: &Workload, kind: &Kind) -> Result<Vec<CrashPointStats>, String> {
    let eps = Epsilon::loose();
    let run = |arm: Option<(u64, CrashTiming)>| -> Result<(DeploymentRuntime, bool), String> {
        let mut rt = DeploymentRuntime::new(
            w.net.clone(),
            eps,
            FaultInjector::new(0, FaultProfile::none()),
            RetryPolicy::default(),
        );
        match kind {
            Kind::Deploy => {
                if let Some((nth, timing)) = arm {
                    rt.injector_mut().arm_controller_crash_at(nth, timing);
                }
                let outcome = rt.rollout(&w.tdg, w.plan_a.clone());
                let crashed = matches!(outcome, RolloutOutcome::ControllerCrashed { .. });
                Ok((rt, crashed))
            }
            Kind::Migrate => {
                if !rt.rollout(&w.tdg, w.plan_a.clone()).is_committed() {
                    return Err("clean install of plan A failed".to_owned());
                }
                rt.set_injector(FaultInjector::new(0, FaultProfile::none()));
                if let Some((nth, timing)) = arm {
                    rt.injector_mut().arm_controller_crash_at(nth, timing);
                }
                let outcome = rt.migrate(&w.tdg, w.plan_b.clone(), &MigrationConfig::default());
                let crashed = matches!(outcome, MigrationOutcome::ControllerCrashed { .. });
                Ok((rt, crashed))
            }
        }
    };
    let (dry, _) = run(None)?;
    let writes = dry.injector().journal_writes();
    let mut points = Vec::new();
    for nth in 0..writes {
        let timing = if nth % 2 == 0 { CrashTiming::BeforeWrite } else { CrashTiming::AfterWrite };
        let (mut rt, crashed) = run(Some((nth, timing)))?;
        if !crashed {
            return Err(format!("boundary {nth}: the armed crash did not fire"));
        }
        let before = rt.messages_sent();
        let report = rt.recover(&w.tdg).map_err(|e| format!("boundary {nth}: recover: {e}"))?;
        let active = rt.active_plan();
        if !(active.is_none() || active == Some(&w.plan_a) || active == Some(&w.plan_b)) {
            return Err(format!("boundary {nth}: recovered to a mixed plan"));
        }
        points.push(CrashPointStats {
            boundary: nth,
            timing: format!("{timing:?}"),
            action: report.action.to_string(),
            messages: rt.messages_sent() - before,
            reinstalled: report.reinstalled,
            forced: report.forced,
            unreachable: report.unreachable,
            recovery_us: report.recovery_us,
        });
    }
    Ok(points)
}

#[derive(Serialize)]
struct Report {
    append: AppendStats,
    replay: Vec<ReplayPoint>,
    deploy_crash_points: Vec<CrashPointStats>,
    migration_crash_points: Vec<CrashPointStats>,
    /// Every crash point recovered to exactly-A, exactly-B, or nothing.
    bimodal: bool,
}

fn build_report() -> Result<Report, String> {
    let w = workload()?;
    Ok(Report {
        append: bench_append(&w, 20_000),
        replay: bench_replay(&w, &[100, 1_000, 10_000])?,
        deploy_crash_points: crash_points(&w, &Kind::Deploy)?,
        migration_crash_points: crash_points(&w, &Kind::Migrate)?,
        bimodal: true, // crash_points errors out otherwise
    })
}

/// `--golden`: the byte-exact journal of a clean deploy, hex-dumped with
/// the format and event-schema versions. CI diffs this against
/// `tests/fixtures/journal_golden.txt`, so bumping either version or
/// changing the wire format forces a reviewed fixture update.
fn print_golden() -> Result<(), String> {
    let w = workload()?;
    let mut rt = DeploymentRuntime::new(
        w.net.clone(),
        Epsilon::loose(),
        FaultInjector::disabled(),
        RetryPolicy::default(),
    );
    if !rt.rollout(&w.tdg, w.plan_a.clone()).is_committed() {
        return Err("golden deploy failed".to_owned());
    }
    let bytes = rt.journal().bytes();
    println!("journal_format_version={JOURNAL_FORMAT_VERSION}");
    println!("event_schema_version={EVENT_SCHEMA_VERSION}");
    println!("bytes={}", bytes.len());
    for chunk in bytes.chunks(32) {
        println!("{}", chunk.iter().map(|b| format!("{b:02x}")).collect::<String>());
    }
    Ok(())
}

fn main() -> ExitCode {
    if std::env::args().any(|a| a == "--golden") {
        return match print_golden() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let report = match build_report() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if std::env::args().any(|a| a == "--smoke") {
        // Only deterministic fields: CI double-runs this and diffs.
        let fmt_points = |points: &[CrashPointStats]| {
            points
                .iter()
                .map(|p| {
                    format!(
                        "{{\"b\":{},\"action\":\"{}\",\"msgs\":{},\"us\":{}}}",
                        p.boundary, p.action, p.messages, p.recovery_us
                    )
                })
                .collect::<Vec<_>>()
                .join(",")
        };
        println!(
            "{{\"append_records\":{},\"append_bytes\":{},\"compactions\":{},\
             \"replay\":{:?},\"deploy\":[{}],\"migration\":[{}],\"bimodal\":{}}}",
            report.append.records,
            report.append.bytes,
            report.append.compactions,
            report.replay.iter().map(|p| p.records_replayed).collect::<Vec<_>>(),
            fmt_points(&report.deploy_crash_points),
            fmt_points(&report.migration_crash_points),
            report.bimodal,
        );
    } else if !maybe_json(&report) {
        println!("Recovery bench — journal cost and crash recovery\n");
        println!(
            "append: {} records -> {} B, {} compactions, {} records/s",
            report.append.records,
            report.append.bytes,
            report.append.compactions,
            report.append.records_per_sec
        );
        let mut t = Table::new(["records", "bytes", "replay us"]);
        for p in &report.replay {
            t.row([p.records_replayed.to_string(), p.bytes.to_string(), p.replay_us.to_string()]);
        }
        println!("{}", t.render());
        for (name, points) in
            [("deploy", &report.deploy_crash_points), ("migration", &report.migration_crash_points)]
        {
            println!("crash points during {name}:");
            let mut t = Table::new(["boundary", "timing", "action", "msgs", "recovery us"]);
            for p in points {
                t.row([
                    p.boundary.to_string(),
                    p.timing.clone(),
                    p.action.clone(),
                    p.messages.to_string(),
                    p.recovery_us.to_string(),
                ]);
            }
            println!("{}", t.render());
        }
    }
    ExitCode::SUCCESS
}
