//! Experiment harness regenerating every table and figure of the paper.
//!
//! One binary per artifact (run with `cargo run -p hermes-bench --bin …`):
//!
//! | Binary | Paper artifact |
//! |---|---|
//! | `fig2` | Figure 2 — overhead vs. normalized FCT/goodput |
//! | `table3` | Table III — the ten WAN topologies |
//! | `exp1` | Figure 5 — testbed: overhead, time, FCT, goodput vs. #programs |
//! | `exp2` | Figure 6 — per-packet byte overhead at scale |
//! | `exp3` | Figure 7 — execution time at scale |
//! | `exp4` | Figure 8 — end-to-end FCT/goodput at scale |
//! | `exp5` | Figure 9 — scalability on topology 10 |
//! | `exp6` | switch resource consumption (sketches) |
//!
//! This library hosts the shared machinery: the standard workload
//! (10 real + N synthetic programs), the measurement loop over the
//! algorithm suite, time capping for solver-backed frameworks (mirroring
//! the paper's 2-hour bar cap), and table/JSON reporting.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod report;

use hermes_core::{Epsilon, ProgramAnalyzer, SearchContext, Solver};
use hermes_dataplane::synthetic::{SyntheticConfig, SyntheticGenerator};
use hermes_dataplane::{library, Program};
use hermes_net::Network;
use hermes_sim::testbed::{normalized_impact, NormalizedPerf, TestbedConfig};
use hermes_tdg::Tdg;
use serde::Serialize;
use std::time::{Duration, Instant};

/// Reported execution time (ms) for solver runs that exceed the paper's
/// two-hour cap; Fig. 7 sets such bars to 10⁷ ms.
pub const CAPPED_TIME_MS: f64 = 1e7;

/// Above this many placement binaries (`nodes × programmable switches`)
/// an ILP attempt is hopeless and its time is reported as capped.
pub const ILP_SIZE_GUARD: usize = 4_000;

/// Companion guard on rank-linearization cells (`edges × switches²`);
/// mirrors [`hermes_baselines::IlpConfig::max_rank_cells`].
pub const ILP_RANK_GUARD: usize = 2_500;

/// The workload of the paper's evaluation: the ten real programs plus
/// `total - 10` synthetic ones (seeded, so every run sees the same set).
/// For `total <= 10`, a prefix of the real programs.
pub fn workload(total: usize) -> Vec<Program> {
    let mut programs = library::real_programs();
    if total <= programs.len() {
        programs.truncate(total);
        return programs;
    }
    let mut generator = SyntheticGenerator::new(42, SyntheticConfig::default());
    programs.extend(generator.programs(total - programs.len()));
    programs
}

/// Builds the merged TDG for a workload (Algorithm 1 front end).
pub fn analyze(programs: &[Program]) -> Tdg {
    ProgramAnalyzer::new().analyze(programs)
}

/// One algorithm's measurements on one instance.
#[derive(Debug, Clone, Serialize)]
pub struct Measurement {
    /// Algorithm display name.
    pub algorithm: String,
    /// `A_max` of its plan in bytes (`None` when infeasible).
    pub overhead_bytes: Option<u64>,
    /// Occupied programmable switches.
    pub occupied_switches: Option<usize>,
    /// Mean wall-clock deployment time in milliseconds (as measured).
    pub measured_ms: f64,
    /// Time as reported in the figures: `measured_ms`, or
    /// [`CAPPED_TIME_MS`] when the solver exceeded the practical cap.
    pub reported_ms: f64,
    /// `true` when `reported_ms` was capped.
    pub capped: bool,
    /// Normalized FCT (≥ 1) of a 1024-byte-packet flow carrying this
    /// plan's overhead through the testbed simulator.
    pub fct_ratio: Option<f64>,
    /// Normalized goodput (≤ 1), same setting.
    pub goodput_ratio: Option<f64>,
}

/// Knobs of the measurement loop.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Timing repetitions (plans are deterministic; only timing varies).
    pub timing_runs: usize,
    /// Testbed simulation shape for the FCT/goodput columns.
    pub sim: TestbedConfig,
    /// Packet size for the FCT/goodput columns (paper Exp#4: 1024 B).
    pub packet_size: u32,
    /// ε-bounds (paper: loose).
    pub eps: Epsilon,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            timing_runs: 1,
            sim: TestbedConfig { packets: 5_000, ..Default::default() },
            packet_size: 1024,
            eps: Epsilon::loose(),
        }
    }
}

/// Runs every algorithm in `suite` on `(tdg, net)` and gathers the four
/// panel metrics (overhead, time, FCT, goodput). Each solve runs under a
/// fresh [`SearchContext`] whose deadline is `budget` (see [`ilp_budget`]).
pub fn run_suite(
    tdg: &Tdg,
    net: &Network,
    suite: &[Box<dyn Solver>],
    budget: Duration,
    config: &RunConfig,
) -> Vec<Measurement> {
    let q = net.programmable_switches().len();
    let binaries = tdg.node_count() * q;
    let rank_cells = tdg.edge_count() * q * q;
    suite
        .iter()
        .map(|algo| {
            if std::env::var_os("HERMES_VERBOSE").is_some() {
                eprintln!(
                    "[run_suite] {} on {} nodes / {} programmable switches",
                    algo.name(),
                    tdg.node_count(),
                    q
                );
            }
            let mut total = Duration::ZERO;
            let mut plan = None;
            for _ in 0..config.timing_runs.max(1) {
                let start = Instant::now();
                let result =
                    algo.solve(tdg, net, &config.eps, &SearchContext::with_time_limit(budget));
                total += start.elapsed();
                plan = result.ok().map(|o| o.plan);
            }
            let measured_ms = total.as_secs_f64() * 1000.0 / config.timing_runs.max(1) as f64;
            let capped =
                algo.is_exhaustive() && (binaries > ILP_SIZE_GUARD || rank_cells > ILP_RANK_GUARD);
            let reported_ms = if capped { CAPPED_TIME_MS } else { measured_ms };
            let overhead = plan.as_ref().map(|p| p.max_inter_switch_bytes(tdg));
            let perf: Option<NormalizedPerf> = overhead
                .map(|bytes| normalized_impact(&config.sim, config.packet_size, bytes as u32));
            Measurement {
                algorithm: algo.name().to_owned(),
                overhead_bytes: overhead,
                occupied_switches: plan.as_ref().map(|p| p.occupied_switch_count()),
                measured_ms,
                reported_ms,
                capped,
                fct_ratio: perf.map(|p| p.fct_ratio),
                goodput_ratio: perf.map(|p| p.goodput_ratio),
            }
        })
        .collect()
}

/// Reads the ILP/exhaustive-solver budget from `HERMES_ILP_BUDGET_SECS`
/// (default `default_secs`). Lets quick runs and full reproductions share
/// the binaries.
pub fn ilp_budget(default_secs: u64) -> Duration {
    std::env::var("HERMES_ILP_BUDGET_SECS")
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
        .map_or(Duration::from_secs(default_secs), Duration::from_secs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermes_baselines::standard_suite;
    use hermes_net::topology;

    #[test]
    fn workload_composition() {
        assert_eq!(workload(4).len(), 4);
        assert_eq!(workload(10).len(), 10);
        let w = workload(15);
        assert_eq!(w.len(), 15);
        assert_eq!(w[9].name(), "elastic"); // hh_detect() is the elastic sketch
        assert!(w[10].name().starts_with("syn"));
    }

    #[test]
    fn workload_is_deterministic() {
        assert_eq!(workload(13), workload(13));
    }

    #[test]
    fn run_suite_produces_all_metrics() {
        let tdg = analyze(&workload(3));
        let net = topology::linear(3, 10.0);
        let suite = standard_suite();
        let config = RunConfig {
            sim: TestbedConfig { packets: 200, ..Default::default() },
            ..Default::default()
        };
        let rows = run_suite(&tdg, &net, &suite, Duration::from_millis(500), &config);
        assert_eq!(rows.len(), suite.len());
        for r in &rows {
            assert!(r.overhead_bytes.is_some(), "{} infeasible", r.algorithm);
            assert!(r.fct_ratio.unwrap() >= 1.0 - 1e-9);
            assert!(r.goodput_ratio.unwrap() <= 1.0 + 1e-9);
            assert!(!r.capped, "tiny instance should not cap");
        }
        // Hermes never worse than the overhead-oblivious baselines.
        let get =
            |name: &str| rows.iter().find(|r| r.algorithm == name).unwrap().overhead_bytes.unwrap();
        assert!(get("Hermes") <= get("FFL"));
        assert!(get("Hermes") <= get("MS"));
        assert!(get("Optimal") <= get("Hermes"));
    }
}
