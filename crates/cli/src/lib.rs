//! Library backing the `hermes` command-line tool.
//!
//! Everything testable lives here: argument parsing, topology-spec
//! parsing, algorithm lookup, and the six commands (`analyze`, `audit`,
//! `deploy`, `simulate`, `chaos`, `migrate`). `main.rs` is a thin shell
//! around [`run`].
//!
//! User-supplied values (`--channel`, `--solver`, `--order`, numbers)
//! parse into typed errors — [`ChannelSpecError`], [`UnknownSolverError`],
//! [`OrderSpecError`] — at argument-parse time where possible; nothing on
//! the input path unwraps (`clippy.toml` disallows `unwrap`/`expect` in
//! this crate outside tests).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use hermes_backend::config::generate;
use hermes_backend::simulate::{simulate_plan, PlanFlowConfig};
use hermes_baselines::{FirstFitByLevel, FirstFitByLevelAndSize, IlpBaseline, IlpConfig, Sonata};
use hermes_core::{
    explain, verify, DeploymentPlan, Epsilon, GreedyHeuristic, IncrementalDeployer, MigrationOrder,
    MigrationProblem, MigrationScheduler, MilpHermes, OptimalSolver, Portfolio, ProgramAnalyzer,
    RedeployOptions, SearchContext, Solver,
};
use hermes_dataplane::lint::lint_composition;
use hermes_dataplane::parser::parse_programs;
use hermes_net::topology::{self, WanConfig};
use hermes_net::{builtin_targets, parse_target, Network, SwitchId, TargetSpecError};
use hermes_runtime::{
    replay_bytes, ChannelProfile, DeploymentRuntime, Event, FaultInjector, FaultProfile, InFlight,
    Journal, MigrationConfig, RecoveredIntent, RetryPolicy, RolloutOutcome,
};
use std::fmt;
use std::time::Duration;

/// A CLI usage or execution error.
#[derive(Debug)]
pub struct CliError(pub String);

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for CliError {}

fn err(msg: impl Into<String>) -> CliError {
    CliError(msg.into())
}

/// Parses a topology spec: `linear:N`, `star:N`, `fattree:K`, `wan:I`
/// (Table III index, 1-based), or `waxman:N,ALPHA,BETA,SEED`.
///
/// # Errors
///
/// Returns [`CliError`] on malformed specs.
pub fn parse_topology(spec: &str) -> Result<Network, CliError> {
    let (kind, args) = spec
        .split_once(':')
        .ok_or_else(|| err(format!("topology `{spec}` must look like `linear:3` or `wan:10`")))?;
    let int = |s: &str| -> Result<usize, CliError> {
        s.parse().map_err(|_| err(format!("`{s}` is not a number in `{spec}`")))
    };
    match kind {
        "linear" => Ok(topology::linear(int(args)?.max(1), 10.0)),
        "star" => Ok(topology::star(int(args)?.max(1), 10.0)),
        "fattree" => {
            let k = int(args)?;
            if k < 2 || k % 2 != 0 {
                return Err(err("fat-tree arity must be even and >= 2"));
            }
            Ok(topology::fat_tree(k, 10.0))
        }
        "wan" => {
            let i = int(args)?;
            if !(1..=10).contains(&i) {
                return Err(err("wan index must be 1..=10 (Table III)"));
            }
            Ok(topology::table3_wan(i - 1))
        }
        "waxman" => {
            let parts: Vec<&str> = args.split(',').collect();
            if parts.len() != 4 {
                return Err(err("waxman spec is `waxman:N,ALPHA,BETA,SEED`"));
            }
            let n = int(parts[0])?;
            let alpha: f64 = parts[1].parse().map_err(|_| err("bad alpha"))?;
            let beta: f64 = parts[2].parse().map_err(|_| err("bad beta"))?;
            let seed: u64 = parts[3].parse().map_err(|_| err("bad seed"))?;
            if !(alpha > 0.0 && alpha <= 1.0 && beta > 0.0 && beta <= 1.0) {
                return Err(err("alpha/beta must be in (0, 1]"));
            }
            Ok(topology::waxman(n.max(1), alpha, beta, seed, &WanConfig::default()))
        }
        other => Err(err(format!("unknown topology kind `{other}`"))),
    }
}

/// `--channel` got a malformed or out-of-range spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChannelSpecError {
    /// The rejected spec, as given.
    pub spec: String,
    /// What is wrong with it.
    pub detail: String,
}

impl fmt::Display for ChannelSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "channel spec `{}`: {}", self.spec, self.detail)
    }
}

impl std::error::Error for ChannelSpecError {}

impl From<ChannelSpecError> for CliError {
    fn from(e: ChannelSpecError) -> Self {
        CliError(e.to_string())
    }
}

impl From<TargetSpecError> for CliError {
    fn from(e: TargetSpecError) -> Self {
        CliError(e.to_string())
    }
}

/// Parses the topology spec and retargets its programmable switches per
/// `--target`, when given. The flag is a no-op for topologies with no
/// programmable switch.
fn parse_network(options: &Options) -> Result<Network, CliError> {
    let mut net = parse_topology(&options.topology)?;
    if let Some(spec) = &options.target {
        parse_target(spec)?.apply(&mut net);
    }
    Ok(net)
}

/// Parses a control-channel spec: `none`, `lossy`, or comma-separated
/// knobs `drop=P,dup=P,reorder=P,delay=P,span=US` (omitted knobs stay 0;
/// `span` is the max extra delay in microseconds).
///
/// # Errors
///
/// Returns [`ChannelSpecError`] on malformed specs or out-of-range
/// probabilities.
pub fn parse_channel(spec: &str) -> Result<ChannelProfile, ChannelSpecError> {
    let bad = |detail: String| ChannelSpecError { spec: spec.to_owned(), detail };
    match spec {
        "none" => return Ok(ChannelProfile::none()),
        "lossy" => return Ok(ChannelProfile::lossy()),
        _ => {}
    }
    let mut profile = ChannelProfile::none();
    for part in spec.split(',') {
        let (key, value) = part
            .split_once('=')
            .ok_or_else(|| bad(format!("`{part}` is not `key=value` (or use none/lossy)")))?;
        let num: f64 = value
            .parse()
            .map_err(|_| bad(format!("knob `{key}` needs a number, got `{value}`")))?;
        match key {
            "drop" => profile.drop_prob = num,
            "dup" | "duplicate" => profile.duplicate_prob = num,
            "reorder" => profile.reorder_prob = num,
            "delay" => profile.delay_prob = num,
            "span" => profile.delay_span_us = num as u64,
            other => {
                return Err(bad(format!(
                    "unknown knob `{other}` (drop, dup, reorder, delay, span)"
                )))
            }
        }
    }
    profile.validate().map_err(|e| bad(e.to_string()))?;
    Ok(profile)
}

/// `--order` got a malformed migration-order spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OrderSpecError {
    /// The rejected spec, as given.
    pub given: String,
    /// What is wrong with it.
    pub detail: String,
}

impl fmt::Display for OrderSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "order spec `{}`: {}", self.given, self.detail)
    }
}

impl std::error::Error for OrderSpecError {}

impl From<OrderSpecError> for CliError {
    fn from(e: OrderSpecError) -> Self {
        CliError(e.to_string())
    }
}

/// A syntactically valid `--order` value, before switch indices are
/// resolved against a concrete topology (see [`resolve_order`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OrderSpec {
    /// Race the planners, pick the lowest-peak schedule.
    Auto,
    /// Greedy lowest-next-peak ordering only.
    Greedy,
    /// Exhaustive lowest-peak search only.
    Exact,
    /// Ascending switch-id order (what an all-at-once rollout commits).
    InOrder,
    /// An explicit step order, as 0-based switch indices.
    Explicit(Vec<usize>),
}

/// Parses a `--order` spec: `auto`, `greedy`, `exact`, `in-order`, or a
/// comma-separated list of 0-based switch indices giving the step order
/// explicitly.
///
/// # Errors
///
/// Returns [`OrderSpecError`] on anything else; index range checks happen
/// later in [`resolve_order`] once the topology is known.
pub fn parse_order(spec: &str) -> Result<OrderSpec, OrderSpecError> {
    match spec {
        "auto" => return Ok(OrderSpec::Auto),
        "greedy" => return Ok(OrderSpec::Greedy),
        "exact" => return Ok(OrderSpec::Exact),
        "in-order" | "inorder" => return Ok(OrderSpec::InOrder),
        _ => {}
    }
    let mut indices = Vec::new();
    for part in spec.split(',') {
        let idx: usize = part.trim().parse().map_err(|_| OrderSpecError {
            given: spec.to_owned(),
            detail: format!(
                "`{part}` is not a switch index (use auto, greedy, exact, in-order, or \
                 comma-separated indices)"
            ),
        })?;
        if indices.contains(&idx) {
            return Err(OrderSpecError {
                given: spec.to_owned(),
                detail: format!("switch index {idx} appears twice"),
            });
        }
        indices.push(idx);
    }
    Ok(OrderSpec::Explicit(indices))
}

/// Resolves a parsed [`OrderSpec`] against a topology, range-checking
/// explicit switch indices.
///
/// # Errors
///
/// Returns [`OrderSpecError`] when an explicit index is out of range.
pub fn resolve_order(spec: &OrderSpec, net: &Network) -> Result<MigrationOrder, OrderSpecError> {
    let indices = match spec {
        OrderSpec::Auto => return Ok(MigrationOrder::Auto),
        OrderSpec::Greedy => return Ok(MigrationOrder::Greedy),
        OrderSpec::Exact => return Ok(MigrationOrder::Exact),
        OrderSpec::InOrder => return Ok(MigrationOrder::InOrder),
        OrderSpec::Explicit(indices) => indices,
    };
    let ids: Vec<SwitchId> = net.switch_ids().collect();
    let mut order = Vec::with_capacity(indices.len());
    for &idx in indices {
        order.push(*ids.get(idx).ok_or_else(|| OrderSpecError {
            given: indices.iter().map(ToString::to_string).collect::<Vec<_>>().join(","),
            detail: format!(
                "switch index {idx} is out of range (the topology has {} switches)",
                ids.len()
            ),
        })?);
    }
    Ok(MigrationOrder::Explicit(order))
}

/// The valid `--solver` names, in display order. Aliases (`hermes`,
/// `optimal`, `ilp`, `min-stage`, `flightplan`) are accepted but not
/// listed.
pub const SOLVER_NAMES: &[&str] = &[
    "greedy",
    "exact",
    "milp",
    "portfolio",
    "ffl",
    "ffls",
    "ms",
    "sonata",
    "speed",
    "mtp",
    "fp",
    "p4all",
];

/// `--solver` got a name outside the valid set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownSolverError {
    /// The rejected name, as given.
    pub given: String,
}

impl fmt::Display for UnknownSolverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown solver `{}` (valid: {})", self.given, SOLVER_NAMES.join(", "))
    }
}

impl std::error::Error for UnknownSolverError {}

impl From<UnknownSolverError> for CliError {
    fn from(e: UnknownSolverError) -> Self {
        CliError(e.to_string())
    }
}

/// Looks a solver up by `--solver` name. Solvers hold no budget: the
/// commands bound every solve with a [`SearchContext`] built from
/// `--time-limit` and `--threads`.
///
/// # Errors
///
/// Returns [`UnknownSolverError`] listing the valid set on unknown names.
pub fn solver(name: &str) -> Result<Box<dyn Solver>, UnknownSolverError> {
    let config = IlpConfig::default();
    Ok(match name.to_ascii_lowercase().as_str() {
        "greedy" | "hermes" => Box::new(GreedyHeuristic::new()),
        "exact" | "optimal" => Box::new(OptimalSolver::default()),
        "milp" | "ilp" => Box::new(MilpHermes::default()),
        "portfolio" => Box::new(Portfolio::greedy_exact()),
        "ffl" => Box::new(FirstFitByLevel),
        "ffls" => Box::new(FirstFitByLevelAndSize),
        "ms" | "min-stage" => Box::new(IlpBaseline::min_stage(config)),
        "sonata" => Box::new(Sonata),
        "speed" => Box::new(IlpBaseline::speed(config)),
        "mtp" => Box::new(IlpBaseline::mtp(config)),
        "fp" | "flightplan" => Box::new(IlpBaseline::flightplan(config)),
        "p4all" => Box::new(IlpBaseline::p4all(config)),
        other => return Err(UnknownSolverError { given: other.to_owned() }),
    })
}

/// Plans `tdg` with solver `name` under a fresh [`SearchContext`] built
/// from `--time-limit` and `--threads`; `role` suffixes the error message.
fn plan_with(
    options: &Options,
    name: &str,
    role: &str,
    tdg: &hermes_tdg::Tdg,
    net: &Network,
    eps: &Epsilon,
) -> Result<DeploymentPlan, CliError> {
    let algo = solver(name)?;
    let mut ctx = SearchContext::with_time_limit(Duration::from_secs(options.time_limit_secs));
    if let Some(threads) = options.threads {
        ctx = ctx.with_threads(threads);
    }
    algo.solve(tdg, net, eps, &ctx)
        .map(|o| o.plan)
        .map_err(|e| err(format!("{} failed{role}: {e}", algo.name())))
}

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    /// Subcommand: analyze | audit | deploy | simulate | chaos.
    pub command: String,
    /// Program source files.
    pub files: Vec<String>,
    /// Topology spec (deploy/simulate).
    pub topology: String,
    /// Solver name (see [`SOLVER_NAMES`]).
    pub solver: String,
    /// ε₁ in microseconds.
    pub eps1: f64,
    /// ε₂.
    pub eps2: usize,
    /// Solver time limit in seconds.
    pub time_limit_secs: u64,
    /// Worker budget for the parallel exact search (deploy, simulate,
    /// chaos, migrate). `None` = all available cores.
    pub threads: Option<std::num::NonZeroUsize>,
    /// Emit Graphviz dot (analyze).
    pub dot: bool,
    /// Emit JSON artifacts (deploy) or the event log (chaos).
    pub json: bool,
    /// Fault-injection seed (chaos).
    pub seed: u64,
    /// Sweep seeds `0..N` instead of one run (chaos).
    pub trials: Option<u64>,
    /// Control-channel spec (chaos): `none`, `lossy`, or `k=v` pairs.
    pub channel: String,
    /// Audit the built-in library programs (audit); program files become
    /// optional and are appended to the workload.
    pub library: bool,
    /// Solver producing the starting plan A (migrate).
    pub from_solver: String,
    /// Migration step-order spec (migrate): auto | greedy | exact |
    /// in-order | comma-separated switch indices.
    pub order: String,
    /// Drain this 0-based switch index: plan B re-homes its MATs
    /// elsewhere (migrate).
    pub exclude: Option<usize>,
    /// Journal path: written after the run (deploy/chaos/migrate), read
    /// and replayed offline (recover).
    pub journal: Option<String>,
    /// Target spec (audit/deploy/migrate): retargets the topology's
    /// programmable switches before planning.
    pub target: Option<String>,
    /// Attach the per-field state-access report (`HS5xx`) to the audit.
    pub state_report: bool,
    /// Analyze under [`hermes_tdg::AnalysisMode::RelaxedState`]: edges
    /// justified only by replicable or commutative state are relaxed.
    pub relax_state: bool,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            command: String::new(),
            files: Vec::new(),
            topology: "linear:3".to_owned(),
            solver: "greedy".to_owned(),
            eps1: f64::INFINITY,
            eps2: usize::MAX,
            time_limit_secs: 10,
            threads: None,
            dot: false,
            json: false,
            seed: 0,
            trials: None,
            channel: "none".to_owned(),
            library: false,
            from_solver: "ffl".to_owned(),
            order: "auto".to_owned(),
            exclude: None,
            journal: None,
            target: None,
            state_report: false,
            relax_state: false,
        }
    }
}

/// Usage text.
pub const USAGE: &str = "\
hermes — network-wide data plane program deployment

USAGE:
  hermes analyze  <files…> [--dot]
  hermes audit    <files…> [--library] [--topology SPEC] [--target SPEC]
                  [--eps1 US] [--eps2 N] [--state-report] [--relax-state]
                  [--json]
  hermes deploy   <files…> [--topology SPEC] [--target SPEC] [--solver NAME]
                  [--eps1 US] [--eps2 N] [--time-limit SECS] [--threads N]
                  [--relax-state] [--json] [--journal PATH]
  hermes simulate <files…> [--topology SPEC] [--solver NAME]
  hermes chaos    <files…> [--topology SPEC] [--solver NAME] [--seed N]
                  [--trials N] [--channel SPEC] [--eps1 US] [--eps2 N]
                  [--json] [--journal PATH]
  hermes migrate  <files…> [--topology SPEC] [--target SPEC]
                  [--from-solver NAME] [--solver NAME] [--exclude N]
                  [--order SPEC] [--seed N] [--channel SPEC] [--eps1 US]
                  [--eps2 N] [--time-limit SECS] [--json] [--journal PATH]
  hermes recover  --journal PATH [--json]
  hermes targets

TOPOLOGY SPECS:  linear:N  star:N  fattree:K  wan:1..10  waxman:N,A,B,SEED
SOLVERS:         greedy exact milp portfolio ffl ffls ms sonata speed mtp
                 fp p4all
CHANNEL SPECS:   none  lossy  drop=P,dup=P,reorder=P,delay=P,span=US
ORDER SPECS:     auto  greedy  exact  in-order  comma-separated indices
TARGET SPECS:    tofino  smartnic  soft
                 NAME:stages=N,cap=C,budget=B,latency=US (knob overrides)
                 mix:tofino+smartnic+soft (cycled over switches)

`audit` runs the static workload audit (lints, TDG dataflow, dependency
soundness) plus the pre-solve infeasibility bounds for the given topology
and eps budget. Exit is nonzero iff an error-severity diagnostic fires.
`--state-report` adds the per-field state-access classification
(read-only / read-mostly-replicable / commutative-update / single-writer)
and its HS5xx diagnostics to the report.

`--relax-state` analyzes under the relaxed-state mode: dependency edges
justified only by replicable or commutative state carry no ordering or
routing obligation, which can strictly lower A_max on aggregation-style
workloads. The plan verifier re-certifies every relaxed edge; the default
mode is unchanged and byte-identical to prior releases.

`migrate` installs plan A (--from-solver), plans a staged migration to
plan B (--solver, or --exclude N to drain switch N), prints the schedule
with its transient-overhead curve, and executes it step by step under the
seeded fault injector and the given channel. Every schedule prefix is
verified against per-stage capacity and the mixed-epoch consistency gate
before the first commit; a mid-migration failure rolls back to plan A.

`--threads N` caps the worker pool of the parallel exact search (and the
per-racer budget of the portfolio) at N OS threads; the default is the
machine's available parallelism. Results are byte-identical at every
thread count.

`--journal PATH` writes the controller's write-ahead intent journal to
PATH after the run. `recover` replays such a journal offline — without a
live network — and reports the rebuilt intent: the last durable snapshot,
any in-flight transaction or migration, and the action a restarted
controller would take (resume-commit, roll-back-txn, …). A torn tail is
reported and discarded; mid-log corruption is a typed error and a
nonzero exit.
";

/// Parses raw arguments (without the binary name).
///
/// # Errors
///
/// Returns [`CliError`] with usage guidance on malformed input.
pub fn parse_args(args: &[String]) -> Result<Options, CliError> {
    let mut options = Options::default();
    let mut iter = args.iter().peekable();
    options.command =
        iter.next().ok_or_else(|| err(format!("missing command\n\n{USAGE}")))?.clone();
    if !matches!(
        options.command.as_str(),
        "analyze" | "audit" | "deploy" | "simulate" | "chaos" | "migrate" | "recover" | "targets"
    ) {
        return Err(err(format!("unknown command `{}`\n\n{USAGE}", options.command)));
    }
    while let Some(arg) = iter.next() {
        let value = |iter: &mut std::iter::Peekable<std::slice::Iter<String>>| {
            iter.next().cloned().ok_or_else(|| err(format!("flag `{arg}` needs a value")))
        };
        match arg.as_str() {
            "--topology" => options.topology = value(&mut iter)?,
            "--solver" => {
                let name = value(&mut iter)?;
                solver(&name)?;
                options.solver = name;
            }
            "--eps1" => {
                options.eps1 =
                    value(&mut iter)?.parse().map_err(|_| err("--eps1 needs a number"))?
            }
            "--eps2" => {
                options.eps2 =
                    value(&mut iter)?.parse().map_err(|_| err("--eps2 needs an integer"))?
            }
            "--time-limit" => {
                options.time_limit_secs =
                    value(&mut iter)?.parse().map_err(|_| err("--time-limit needs seconds"))?
            }
            "--threads" => {
                options.threads = Some(
                    value(&mut iter)?
                        .parse()
                        .map_err(|_| err("--threads needs a positive integer"))?,
                )
            }
            "--seed" => {
                options.seed =
                    value(&mut iter)?.parse().map_err(|_| err("--seed needs an integer"))?
            }
            "--trials" => {
                options.trials =
                    Some(value(&mut iter)?.parse().map_err(|_| err("--trials needs an integer"))?)
            }
            "--channel" => {
                let spec = value(&mut iter)?;
                parse_channel(&spec)?;
                options.channel = spec;
            }
            "--target" => {
                let spec = value(&mut iter)?;
                parse_target(&spec)?;
                options.target = Some(spec);
            }
            "--from-solver" => {
                let name = value(&mut iter)?;
                solver(&name)?;
                options.from_solver = name;
            }
            "--order" => {
                let spec = value(&mut iter)?;
                parse_order(&spec)?;
                options.order = spec;
            }
            "--exclude" => {
                options.exclude = Some(
                    value(&mut iter)?
                        .parse()
                        .map_err(|_| err("--exclude needs a 0-based switch index"))?,
                )
            }
            "--journal" => options.journal = Some(value(&mut iter)?),
            "--dot" => options.dot = true,
            "--json" => options.json = true,
            "--library" => options.library = true,
            "--state-report" => options.state_report = true,
            "--relax-state" => options.relax_state = true,
            flag if flag.starts_with("--") => {
                return Err(err(format!("unknown flag `{flag}`\n\n{USAGE}")))
            }
            file => options.files.push(file.to_owned()),
        }
    }
    if options.state_report && options.command != "audit" {
        return Err(err(format!("--state-report is an audit flag\n\n{USAGE}")));
    }
    if options.command == "recover" {
        if options.journal.is_none() {
            return Err(err(format!("recover needs --journal PATH\n\n{USAGE}")));
        }
        if !options.files.is_empty() {
            return Err(err("recover replays a journal, not program files".to_owned()));
        }
        return Ok(options);
    }
    if options.command == "targets" {
        if !options.files.is_empty() {
            return Err(err("targets lists built-in models and takes no program files".to_owned()));
        }
        return Ok(options);
    }
    if options.files.is_empty() && !(options.command == "audit" && options.library) {
        return Err(err(format!("no program files given\n\n{USAGE}")));
    }
    Ok(options)
}

fn load_programs(options: &Options) -> Result<Vec<hermes_dataplane::Program>, CliError> {
    let mut sources = String::new();
    for file in &options.files {
        let text =
            std::fs::read_to_string(file).map_err(|e| err(format!("cannot read `{file}`: {e}")))?;
        sources.push_str(&text);
        sources.push('\n');
    }
    parse_programs(&sources).map_err(|e| err(format!("parse error: {e}")))
}

fn write_journal(path: &Option<String>, journal: &Journal) -> Result<(), CliError> {
    if let Some(path) = path {
        std::fs::write(path, journal.bytes())
            .map_err(|e| err(format!("cannot write journal `{path}`: {e}")))?;
    }
    Ok(())
}

/// `recover --journal PATH`: replays a write-ahead journal offline and
/// reports the rebuilt controller intent — last durable snapshot, any
/// unconcluded transaction or migration, and the recovery action a
/// restarted controller would take.
///
/// # Errors
///
/// Returns [`CliError`] (nonzero exit) when the file cannot be read or
/// the journal is corrupt mid-log ([`hermes_runtime::JournalError`]); a
/// torn tail is reported and discarded, not an error.
fn run_recover(options: &Options, out: &mut dyn std::io::Write) -> Result<(), CliError> {
    let io = |e: std::io::Error| err(format!("write failed: {e}"));
    let path = options
        .journal
        .as_ref()
        .ok_or_else(|| err(format!("recover needs --journal PATH\n\n{USAGE}")))?;
    let bytes =
        std::fs::read(path).map_err(|e| err(format!("cannot read journal `{path}`: {e}")))?;
    let replay = replay_bytes(&bytes).map_err(|e| err(format!("journal replay failed: {e}")))?;
    let intent = RecoveredIntent::from_replay(&replay);
    let action = intent.planned_action();
    if options.json {
        let in_flight = match &intent.in_flight {
            Some(InFlight::Txn { epoch, .. }) => format!("{{\"txn\":{epoch}}}"),
            Some(InFlight::Migration { epoch, .. }) => format!("{{\"migration\":{epoch}}}"),
            None => "null".to_owned(),
        };
        let snapshot = match &intent.snapshot {
            Some(s) => format!("{{\"epoch\":{},\"plan_fp\":{}}}", s.epoch, s.plan_fp),
            None => "null".to_owned(),
        };
        writeln!(
            out,
            "{{\"records\":{},\"discarded_tail_bytes\":{},\"max_epoch\":{},\
             \"snapshot\":{snapshot},\"in_flight\":{in_flight},\"action\":\"{action}\"}}",
            intent.records, intent.discarded_tail_bytes, intent.max_epoch
        )
        .map_err(io)?;
        return Ok(());
    }
    writeln!(
        out,
        "journal: {} record(s) replayed, {} torn tail byte(s) discarded",
        intent.records, intent.discarded_tail_bytes
    )
    .map_err(io)?;
    writeln!(out, "max journaled epoch: {}", intent.max_epoch).map_err(io)?;
    match &intent.snapshot {
        Some(s) => writeln!(
            out,
            "snapshot: epoch {} ({} switches occupied, plan fp {:#018x})",
            s.epoch,
            s.plan.occupied_switches().len(),
            s.plan_fp
        )
        .map_err(io)?,
        None => writeln!(out, "snapshot: none").map_err(io)?,
    }
    match &intent.in_flight {
        Some(InFlight::Txn { epoch, kind, prepared, commit_order, commit_acked, .. }) => {
            writeln!(
                out,
                "in flight: {kind:?} transaction, epoch {epoch} ({} prepared, commit {}, \
                 {} commit ack(s))",
                prepared.len(),
                if commit_order.is_some() { "decided" } else { "undecided" },
                commit_acked.len()
            )
            .map_err(io)?;
        }
        Some(InFlight::Migration { epoch, order, steps_committed, .. }) => {
            writeln!(
                out,
                "in flight: migration, epoch {epoch} ({}/{} steps committed)",
                steps_committed.len(),
                order.len()
            )
            .map_err(io)?;
        }
        None => writeln!(out, "in flight: nothing").map_err(io)?,
    }
    writeln!(out, "recovery action: {action}").map_err(io)?;
    Ok(())
}

/// `chaos --trials N`: sweeps seeds `0..N`, checking runtime invariants
/// on every run — bimodal termination, no agent serving a rolled-back
/// epoch, byte-for-byte reproducible event logs — and prints a
/// committed/healed/rolled-back summary (JSON with `--json`).
///
/// # Errors
///
/// Returns [`CliError`] (nonzero exit) if any run violates an invariant.
#[allow(clippy::too_many_arguments)]
fn run_trials(
    options: &Options,
    out: &mut dyn std::io::Write,
    tdg: &hermes_tdg::Tdg,
    net: &Network,
    eps: Epsilon,
    channel: ChannelProfile,
    plan: &hermes_core::DeploymentPlan,
    trials: u64,
) -> Result<(), CliError> {
    let io = |e: std::io::Error| err(format!("write failed: {e}"));
    let (mut committed, mut healed, mut rolled_back) = (0u64, 0u64, 0u64);
    for seed in 0..trials {
        let run_once = |seed: u64| {
            let injector = FaultInjector::new(seed, FaultProfile::chaos());
            let mut rt = DeploymentRuntime::new(net.clone(), eps, injector, RetryPolicy::default())
                .with_channel_profile(channel);
            let outcome = rt.rollout(tdg, plan.clone());
            (outcome, rt)
        };
        let (outcome, rt) = run_once(seed);
        let (outcome2, rt2) = run_once(seed);
        if outcome != outcome2 || rt.log().to_json() != rt2.log().to_json() {
            return Err(err(format!("invariant violated: seed {seed} is not reproducible")));
        }
        match &outcome {
            RolloutOutcome::Committed { epoch, healed: was_healed } => {
                if *was_healed {
                    healed += 1;
                } else {
                    committed += 1;
                }
                let active = rt.active_plan().ok_or_else(|| {
                    err(format!("invariant violated: seed {seed} committed with no active plan"))
                })?;
                let down = rt.network().down_switches();
                for switch in active.occupied_switches() {
                    if !down.contains(&switch)
                        && rt.agent(switch).is_some_and(|a| a.active_epoch() != Some(*epoch))
                    {
                        return Err(err(format!(
                            "invariant violated: seed {seed} committed epoch {epoch} but \
                             switch {switch} does not serve it"
                        )));
                    }
                }
            }
            RolloutOutcome::RolledBack { epoch, .. } => {
                rolled_back += 1;
                for agent in rt.agents() {
                    if agent.active_epoch() == Some(*epoch) {
                        return Err(err(format!(
                            "invariant violated: seed {seed} rolled epoch {epoch} back but an \
                             agent still serves it"
                        )));
                    }
                }
            }
            RolloutOutcome::ControllerCrashed { .. } => {
                // `chaos()` never injects controller crashes (that is the
                // recovery soak's job); seeing one here is a bug.
                return Err(err(format!(
                    "invariant violated: seed {seed} reported a controller crash no profile \
                     injects"
                )));
            }
        }
    }
    if options.json {
        writeln!(
            out,
            "{{\"trials\":{trials},\"committed\":{committed},\"healed\":{healed},\
             \"rolled_back\":{rolled_back}}}"
        )
        .map_err(io)?;
    } else {
        writeln!(
            out,
            "trials {trials}: {committed} committed, {healed} healed, {rolled_back} rolled back"
        )
        .map_err(io)?;
    }
    Ok(())
}

/// `migrate`: install plan A with a clean control plane, compute plan B
/// (`--solver`, or `--exclude` to drain a switch), plan the staged
/// schedule, print it with its transient-overhead curve, then execute it
/// under the seeded chaos injector and the requested channel.
///
/// # Errors
///
/// Returns [`CliError`] on malformed specs, infeasible plans, or when the
/// starting plan cannot be installed.
fn run_migrate(
    options: &Options,
    out: &mut dyn std::io::Write,
    tdg: &hermes_tdg::Tdg,
) -> Result<(), CliError> {
    let io = |e: std::io::Error| err(format!("write failed: {e}"));
    let net = parse_network(options)?;
    let eps = Epsilon::new(options.eps1, options.eps2);
    let channel = parse_channel(&options.channel)?;
    let order = resolve_order(&parse_order(&options.order)?, &net)?;
    let time_limit = Duration::from_secs(options.time_limit_secs);

    let plan_a = plan_with(options, &options.from_solver, " for plan A", tdg, &net, &eps)?;
    let plan_b = match options.exclude {
        Some(idx) => {
            let ids: Vec<SwitchId> = net.switch_ids().collect();
            let &drained = ids.get(idx).ok_or_else(|| {
                err(format!(
                    "--exclude {idx} is out of range (the topology has {} switches)",
                    ids.len()
                ))
            })?;
            let opts = RedeployOptions::excluding([drained]).with_exact_budget(time_limit);
            let outcome = IncrementalDeployer::new()
                .redeploy_with(tdg, &plan_a, tdg, &net, &eps, &opts)
                .map_err(|e| err(format!("cannot drain switch {drained}: {e}")))?;
            writeln!(
                out,
                "drain switch {drained}: {} MATs stay, {} re-homed{}",
                outcome.reused,
                outcome.placed,
                if outcome.full_redeploy { " (full redeploy)" } else { "" }
            )
            .map_err(io)?;
            outcome.plan
        }
        None => plan_with(options, &options.solver, " for plan B", tdg, &net, &eps)?,
    };

    // Plan A goes in over a clean control plane; only the migration
    // itself runs under the requested chaos.
    let mut rt =
        DeploymentRuntime::new(net, eps, FaultInjector::disabled(), RetryPolicy::default());
    if !rt.rollout(tdg, plan_a.clone()).is_committed() {
        return Err(err("could not install plan A on a clean network"));
    }
    let schedule = {
        let problem = MigrationProblem { tdg, net: rt.network(), from: &plan_a, to: &plan_b };
        let ctx = SearchContext::with_time_limit(time_limit);
        MigrationScheduler::with_order(order.clone())
            .plan(&problem, &ctx)
            .map_err(|e| err(format!("cannot schedule the migration: {e}")))?
    };
    writeln!(
        out,
        "schedule ({}): {} steps, transient A_max {} -> peak {} -> {} B",
        schedule.planner,
        schedule.steps.len(),
        schedule.from_amax,
        schedule.peak_transient_amax,
        schedule.to_amax
    )
    .map_err(io)?;
    if let Some(peak) = schedule.all_at_once_peak {
        writeln!(out, "all-at-once peak: {peak} B").map_err(io)?;
    }
    for (i, step) in schedule.steps.iter().enumerate() {
        writeln!(
            out,
            "  step {i}: switch {} ({} MATs move, {} staged, A_max {} B)",
            step.switch,
            step.moved.len(),
            step.staged_nodes,
            step.transient_amax
        )
        .map_err(io)?;
    }

    rt.set_injector(FaultInjector::new(options.seed, FaultProfile::chaos()));
    rt.set_channel_profile(channel);
    let cfg = MigrationConfig {
        plan_budget_ms: options.time_limit_secs.saturating_mul(1000),
        order,
        ..Default::default()
    };
    let outcome = rt.migrate_with_schedule(tdg, plan_b, &schedule, &cfg);
    write_journal(&options.journal, rt.journal())?;
    writeln!(out, "seed {}: {}", options.seed, outcome).map_err(io)?;
    let log = rt.log();
    writeln!(
        out,
        "events: {} ({} faults, {} step failures, {} rollbacks)",
        log.len(),
        log.count(|e| matches!(e, Event::FaultInjected { .. })),
        log.count(|e| matches!(e, Event::MigrationStepFailed { .. })),
        log.count(|e| matches!(e, Event::MigrationRolledBack { .. })),
    )
    .map_err(io)?;
    if options.json {
        writeln!(out, "{}", log.to_json()).map_err(io)?;
    }
    Ok(())
}

/// Executes the parsed command, writing human-readable output to `out`.
///
/// # Errors
///
/// Returns [`CliError`] on any failure (I/O, parse, deployment).
pub fn run(options: &Options, out: &mut dyn std::io::Write) -> Result<(), CliError> {
    let io = |e: std::io::Error| err(format!("write failed: {e}"));
    if options.command == "recover" {
        return run_recover(options, out);
    }
    if options.command == "targets" {
        for model in builtin_targets() {
            writeln!(out, "{model}").map_err(io)?;
        }
        return Ok(());
    }
    let mut programs = if options.library && options.command == "audit" {
        hermes_dataplane::library::real_programs()
    } else {
        Vec::new()
    };
    programs.extend(load_programs(options)?);
    let mode = if options.relax_state {
        hermes_tdg::AnalysisMode::RelaxedState
    } else {
        hermes_tdg::AnalysisMode::PaperLiteral
    };
    let tdg = ProgramAnalyzer::with_mode(mode).analyze(&programs);

    match options.command.as_str() {
        "analyze" => {
            let stats = hermes_tdg::stats(&tdg);
            writeln!(out, "programs: {}", programs.len()).map_err(io)?;
            writeln!(
                out,
                "merged TDG: {} MATs, {} dependencies, {:.2} stage-units, critical path {} MATs",
                stats.nodes, stats.edges, stats.total_resource, stats.critical_path_len
            )
            .map_err(io)?;
            for finding in lint_composition(&programs) {
                writeln!(out, "lint: {finding}").map_err(io)?;
            }
            if options.dot {
                writeln!(out, "{}", hermes_tdg::to_dot(&tdg)).map_err(io)?;
            }
        }
        "audit" => {
            let net = parse_network(options)?;
            let eps = Epsilon::new(options.eps1, options.eps2);
            let mut report = hermes_analysis::audit_instance(&programs, &net, &eps, mode);
            if options.state_report {
                let state = hermes_analysis::state_report(&programs, mode);
                let mut diags = report.diagnostics;
                diags.extend(hermes_analysis::state_diagnostics(&state));
                report =
                    hermes_analysis::AuditReport::new(diags, report.certificates).with_state(state);
            }
            if options.json {
                writeln!(out, "{}", report.to_json()).map_err(io)?;
            } else {
                writeln!(out, "{report}").map_err(io)?;
            }
            if report.has_errors() {
                return Err(err(format!(
                    "audit found {} error-severity diagnostic(s)",
                    report.summary.errors
                )));
            }
        }
        "deploy" => {
            let net = parse_network(options)?;
            let eps = Epsilon::new(options.eps1, options.eps2);
            let plan = plan_with(options, &options.solver, "", &tdg, &net, &eps)?;
            let violations = verify(&tdg, &net, &plan, &eps);
            if !violations.is_empty() {
                return Err(err(format!("plan failed verification: {violations:?}")));
            }
            if options.journal.is_some() {
                // Install over a clean control plane purely to produce
                // the durable intent journal of the transaction.
                let mut rt = DeploymentRuntime::new(
                    net.clone(),
                    eps,
                    FaultInjector::disabled(),
                    RetryPolicy::default(),
                );
                if !rt.rollout(&tdg, plan.clone()).is_committed() {
                    return Err(err("could not install the plan to journal it"));
                }
                write_journal(&options.journal, rt.journal())?;
            }
            if options.json {
                let artifacts = generate(&tdg, &net, &plan);
                writeln!(
                    out,
                    "{}",
                    serde_json::to_string_pretty(&artifacts)
                        .map_err(|e| err(format!("serialize: {e}")))?
                )
                .map_err(io)?;
            } else {
                write!(out, "{}", explain(&tdg, &net, &plan)).map_err(io)?;
            }
        }
        "simulate" => {
            let net = parse_network(options)?;
            let eps = Epsilon::new(options.eps1, options.eps2);
            let plan = plan_with(options, &options.solver, "", &tdg, &net, &eps)?;
            let artifacts = generate(&tdg, &net, &plan);
            let result = simulate_plan(&tdg, &net, &plan, &artifacts, &PlanFlowConfig::default())
                .ok_or_else(|| err("plan could not be simulated (empty or unroutable)"))?;
            writeln!(out, "overhead: {} B per packet", result.overhead_bytes).map_err(io)?;
            writeln!(out, "switches traversed: {}", result.traversed.len()).map_err(io)?;
            writeln!(out, "loaded:   {}", result.loaded).map_err(io)?;
            writeln!(out, "baseline: {}", result.baseline).map_err(io)?;
            writeln!(
                out,
                "impact: {:.3}x FCT, {:.3}x goodput",
                result.fct_ratio(),
                result.goodput_ratio()
            )
            .map_err(io)?;
        }
        "chaos" => {
            let net = parse_network(options)?;
            let eps = Epsilon::new(options.eps1, options.eps2);
            let channel = parse_channel(&options.channel)?;
            let plan = plan_with(options, &options.solver, "", &tdg, &net, &eps)?;
            if let Some(trials) = options.trials {
                if options.journal.is_some() {
                    return Err(err("--journal wants a single run, not --trials"));
                }
                return run_trials(options, out, &tdg, &net, eps, channel, &plan, trials);
            }
            let injector = FaultInjector::new(options.seed, FaultProfile::chaos());
            let mut runtime = DeploymentRuntime::new(net, eps, injector, RetryPolicy::default())
                .with_channel_profile(channel);
            let outcome = runtime.rollout(&tdg, plan);
            write_journal(&options.journal, runtime.journal())?;
            writeln!(out, "seed {}: {}", options.seed, outcome).map_err(io)?;
            let log = runtime.log();
            writeln!(
                out,
                "events: {} ({} faults, {} retries, {} rollbacks)",
                log.len(),
                log.count(|e| matches!(e, Event::FaultInjected { .. })),
                log.count(|e| matches!(e, Event::RetryScheduled { .. })),
                log.count(|e| matches!(e, Event::RolledBack { .. })),
            )
            .map_err(io)?;
            if let RolloutOutcome::Committed { healed: true, .. } = outcome {
                for e in &log.events {
                    if let Event::RecoveryCompleted {
                        recovery_us, a_max_before, a_max_after, ..
                    } = e
                    {
                        writeln!(
                            out,
                            "recovery: {recovery_us} us, A_max {a_max_before} -> {a_max_after} B"
                        )
                        .map_err(io)?;
                    }
                }
            }
            if options.json {
                writeln!(out, "{}", log.to_json()).map_err(io)?;
            }
        }
        "migrate" => run_migrate(options, out, &tdg)?,
        _ => unreachable!("validated in parse_args"),
    }
    Ok(())
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // unwrap/expect are fine in tests
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_deploy_flags() {
        let options = parse_args(&args(&[
            "deploy",
            "a.p4dsl",
            "--topology",
            "wan:3",
            "--solver",
            "ffl",
            "--eps2",
            "4",
            "--time-limit",
            "7",
            "--json",
        ]))
        .unwrap();
        assert_eq!(options.command, "deploy");
        assert_eq!(options.files, vec!["a.p4dsl"]);
        assert_eq!(options.topology, "wan:3");
        assert_eq!(options.solver, "ffl");
        assert_eq!(options.eps2, 4);
        assert_eq!(options.time_limit_secs, 7);
        assert!(options.json);
        assert!(options.eps1.is_infinite());
    }

    #[test]
    fn threads_flag_parses_positive_and_rejects_zero_and_garbage() {
        let options = parse_args(&args(&["deploy", "a.p4dsl", "--threads", "4"])).unwrap();
        assert_eq!(options.threads, std::num::NonZeroUsize::new(4));
        assert_eq!(parse_args(&args(&["deploy", "a.p4dsl"])).unwrap().threads, None);
        let e = parse_args(&args(&["deploy", "a.p4dsl", "--threads", "0"])).unwrap_err();
        assert!(e.0.contains("--threads needs a positive integer"), "{e}");
        let e = parse_args(&args(&["deploy", "a.p4dsl", "--threads", "lots"])).unwrap_err();
        assert!(e.0.contains("--threads needs a positive integer"), "{e}");
        assert!(parse_args(&args(&["deploy", "a.p4dsl", "--threads"])).is_err());
    }

    #[test]
    fn help_documents_the_threads_flag() {
        assert!(USAGE.contains("--threads N"), "usage must document --threads");
    }

    #[test]
    fn unknown_solver_is_rejected_at_parse_time_with_the_valid_set() {
        let e = parse_args(&args(&["deploy", "a.p4dsl", "--solver", "gurobi"])).unwrap_err();
        assert!(e.0.contains("unknown solver `gurobi`"), "{e}");
        for name in SOLVER_NAMES {
            assert!(e.0.contains(name), "error does not list `{name}`: {e}");
        }
    }

    #[test]
    fn target_flag_parses_and_retargets_the_network() {
        let options = parse_args(&args(&["deploy", "a.p4dsl", "--target", "smartnic"])).unwrap();
        assert_eq!(options.target.as_deref(), Some("smartnic"));
        let net = parse_network(&Options {
            topology: "linear:3".to_owned(),
            target: Some("mix:tofino+smartnic".to_owned()),
            ..Options::default()
        })
        .unwrap();
        let kinds: Vec<_> = net.switch_ids().map(|s| net.switch(s).target).collect();
        assert_eq!(
            kinds,
            vec![
                hermes_net::TargetKind::Pipeline,
                hermes_net::TargetKind::SmartNic,
                hermes_net::TargetKind::Pipeline
            ]
        );
    }

    #[test]
    fn bad_target_specs_are_rejected_at_parse_time() {
        let e = parse_args(&args(&["deploy", "a.p4dsl", "--target", "fpga"])).unwrap_err();
        assert!(e.0.contains("unknown target `fpga`"), "{e}");
        let e = parse_args(&args(&["audit", "--library", "--target", "smartnic:stages=0"]))
            .unwrap_err();
        assert!(e.0.contains("finite and positive"), "{e}");
    }

    #[test]
    fn targets_subcommand_lists_builtin_models() {
        let options = parse_args(&args(&["targets"])).unwrap();
        let mut out = Vec::new();
        run(&options, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        for name in ["tofino", "smartnic", "soft"] {
            assert!(text.contains(name), "missing `{name}` in:\n{text}");
        }
        assert!(parse_args(&args(&["targets", "a.p4dsl"])).is_err());
    }

    #[test]
    fn rejects_unknown_command_and_flags() {
        assert!(parse_args(&args(&["frobnicate", "x"])).is_err());
        assert!(parse_args(&args(&["deploy", "x", "--wat"])).is_err());
        // The pre-unification spellings of --solver and --time-limit.
        assert!(parse_args(&args(&["deploy", "x", "--algorithm", "hermes"])).is_err());
        assert!(parse_args(&args(&["deploy", "x", "--budget", "3"])).is_err());
        assert!(parse_args(&args(&["deploy"])).is_err());
        assert!(parse_args(&args(&[])).is_err());
    }

    #[test]
    fn topology_specs() {
        assert_eq!(parse_topology("linear:3").unwrap().switch_count(), 3);
        assert_eq!(parse_topology("star:4").unwrap().switch_count(), 5);
        assert_eq!(parse_topology("fattree:4").unwrap().switch_count(), 20);
        assert_eq!(parse_topology("wan:1").unwrap().switch_count(), 79);
        assert_eq!(parse_topology("waxman:20,0.5,0.4,7").unwrap().switch_count(), 20);
        for bad in ["linear", "wan:11", "fattree:3", "waxman:5,2.0,0.4,7", "blob:2"] {
            assert!(parse_topology(bad).is_err(), "{bad} accepted");
        }
    }

    #[test]
    fn topology_error_messages_name_the_problem() {
        let msg = |spec: &str| parse_topology(spec).unwrap_err().0;
        assert!(msg("linear").contains("must look like `linear:3`"), "{}", msg("linear"));
        assert!(msg("linear:x").contains("`x` is not a number"), "{}", msg("linear:x"));
        assert!(
            msg("linear:x").contains("linear:x"),
            "error should quote the full spec: {}",
            msg("linear:x")
        );
        assert!(msg("fattree:3").contains("even"), "{}", msg("fattree:3"));
        assert!(msg("wan:11").contains("1..=10"), "{}", msg("wan:11"));
        assert!(msg("waxman:5").contains("waxman:N,ALPHA,BETA,SEED"), "{}", msg("waxman:5"));
        assert!(msg("waxman:5,2.0,0.4,7").contains("(0, 1]"), "{}", msg("waxman:5,2.0,0.4,7"));
        assert!(msg("blob:2").contains("unknown topology kind `blob`"), "{}", msg("blob:2"));
    }

    #[test]
    fn chaos_flags_parse() {
        let options =
            parse_args(&args(&["chaos", "a.p4dsl", "--seed", "42", "--topology", "linear:4"]))
                .unwrap();
        assert_eq!(options.command, "chaos");
        assert_eq!(options.seed, 42);
        assert_eq!(options.topology, "linear:4");
        assert!(parse_args(&args(&["chaos", "a.p4dsl", "--seed", "banana"])).is_err());
        // Default seed is 0 when the flag is absent.
        assert_eq!(parse_args(&args(&["chaos", "a.p4dsl"])).unwrap().seed, 0);
        // Trials and channel flags.
        let options = parse_args(&args(&[
            "chaos",
            "a.p4dsl",
            "--trials",
            "25",
            "--channel",
            "lossy",
            "--json",
        ]))
        .unwrap();
        assert_eq!(options.trials, Some(25));
        assert_eq!(options.channel, "lossy");
        assert!(parse_args(&args(&["chaos", "a.p4dsl", "--trials", "many"])).is_err());
        assert_eq!(parse_args(&args(&["chaos", "a.p4dsl"])).unwrap().trials, None);
        assert_eq!(parse_args(&args(&["chaos", "a.p4dsl"])).unwrap().channel, "none");
    }

    #[test]
    fn channel_specs() {
        assert!(parse_channel("none").unwrap().is_none());
        let lossy = parse_channel("lossy").unwrap();
        assert!(lossy.drop_prob > 0.0 && lossy.duplicate_prob > 0.0);
        let custom = parse_channel("drop=0.2,dup=0.1,reorder=0.05,delay=0.3,span=500").unwrap();
        assert_eq!(custom.drop_prob, 0.2);
        assert_eq!(custom.duplicate_prob, 0.1);
        assert_eq!(custom.reorder_prob, 0.05);
        assert_eq!(custom.delay_prob, 0.3);
        assert_eq!(custom.delay_span_us, 500);
        // Omitted knobs stay zero.
        assert_eq!(parse_channel("drop=0.5").unwrap().duplicate_prob, 0.0);
        for bad in ["drop", "drop=high", "loss=0.1", "drop=1.5", "drop=-0.1", "drop=NaN"] {
            assert!(parse_channel(bad).is_err(), "`{bad}` accepted");
        }
        let e = parse_channel("drop=1.5").unwrap_err();
        assert_eq!(e.spec, "drop=1.5");
        assert!(e.to_string().contains("not a probability"), "{e}");
    }

    /// The context is the only budget: under an already-expired deadline
    /// every solver returns promptly with a plan or a typed error.
    #[test]
    fn every_solver_honours_a_zero_budget() {
        let library = hermes_dataplane::library::real_programs();
        let (tdg, net) = hermes_core::test_support::linear_testbed(&library[..5]);
        let eps = Epsilon::loose();
        let named = SOLVER_NAMES.iter().map(|name| solver(name).unwrap());
        for algo in named.chain(hermes_baselines::standard_suite()) {
            let ctx = SearchContext::with_time_limit(Duration::ZERO);
            let start = std::time::Instant::now();
            let result = algo.solve(&tdg, &net, &eps, &ctx);
            let wall = start.elapsed();
            assert!(wall < Duration::from_secs(1), "{} ran {wall:?}", algo.name());
            if let Ok(outcome) = result {
                let violations = verify(&tdg, &net, &outcome.plan, &eps);
                assert!(violations.is_empty(), "{}: {violations:?}", algo.name());
            }
        }
    }

    #[test]
    fn solver_lookup() {
        for name in SOLVER_NAMES {
            assert!(solver(name).is_ok(), "{name}");
        }
        // Aliases from before the unification keep working.
        for alias in ["hermes", "optimal", "ilp", "min-stage", "flightplan"] {
            assert!(solver(alias).is_ok(), "{alias}");
        }
        let e = match solver("gurobi") {
            Err(e) => e,
            Ok(_) => panic!("`gurobi` accepted"),
        };
        assert_eq!(e.given, "gurobi");
        assert!(e.to_string().contains("portfolio"), "{e}");
    }

    #[test]
    fn end_to_end_deploy_over_a_temp_file() {
        let dir = std::env::temp_dir().join("hermes-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("counter.p4dsl");
        std::fs::write(
            &file,
            r#"
            program counter {
                header ipv4.src: 4;
                metadata meta.idx: 4;
                table hash { actions { go { meta.idx = hash(ipv4.src); } } resource 0.2; }
                table count {
                    key { meta.idx: exact; }
                    actions { bump { register(meta.idx); } }
                    resource 0.4;
                }
            }
            "#,
        )
        .unwrap();
        let options =
            parse_args(&args(&["deploy", file.to_str().unwrap(), "--topology", "linear:2"]))
                .unwrap();
        let mut out = Vec::new();
        run(&options, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("deployment: A_max="), "{text}");

        // analyze over the same file reports the TDG.
        let options = parse_args(&args(&["analyze", file.to_str().unwrap(), "--dot"])).unwrap();
        let mut out = Vec::new();
        run(&options, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("merged TDG: 2 MATs"), "{text}");
        assert!(text.contains("digraph"), "{text}");

        // simulate reports the end-to-end impact.
        let options =
            parse_args(&args(&["simulate", file.to_str().unwrap(), "--topology", "linear:2"]))
                .unwrap();
        let mut out = Vec::new();
        run(&options, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("impact:"), "{text}");

        // chaos runs a seeded fault-injected rollout and reports it.
        let options = parse_args(&args(&[
            "chaos",
            file.to_str().unwrap(),
            "--topology",
            "linear:3",
            "--seed",
            "7",
        ]))
        .unwrap();
        let mut out = Vec::new();
        run(&options, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("seed 7:"), "{text}");
        assert!(text.contains("events:"), "{text}");
        // The same seed reports the same thing.
        let mut again = Vec::new();
        run(&options, &mut again).unwrap();
        assert_eq!(text, String::from_utf8(again).unwrap());

        // chaos --trials sweeps seeds over a lossy channel and reports a
        // summary; every run upholds the runtime invariants (or this
        // errors).
        let options = parse_args(&args(&[
            "chaos",
            file.to_str().unwrap(),
            "--topology",
            "linear:3",
            "--trials",
            "5",
            "--channel",
            "lossy",
        ]))
        .unwrap();
        let mut out = Vec::new();
        run(&options, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("trials 5:"), "{text}");
        let options = Options { json: true, ..options };
        let mut out = Vec::new();
        run(&options, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("\"trials\":5"), "{text}");
    }

    #[test]
    fn migrate_flags_parse() {
        let options = parse_args(&args(&[
            "migrate",
            "a.p4dsl",
            "--topology",
            "linear:4",
            "--from-solver",
            "ffl",
            "--solver",
            "greedy",
            "--exclude",
            "1",
            "--order",
            "exact",
            "--channel",
            "lossy",
            "--seed",
            "9",
        ]))
        .unwrap();
        assert_eq!(options.command, "migrate");
        assert_eq!(options.from_solver, "ffl");
        assert_eq!(options.solver, "greedy");
        assert_eq!(options.exclude, Some(1));
        assert_eq!(options.order, "exact");
        assert_eq!(options.channel, "lossy");
        assert_eq!(options.seed, 9);
        // Defaults.
        let options = parse_args(&args(&["migrate", "a.p4dsl"])).unwrap();
        assert_eq!(options.from_solver, "ffl");
        assert_eq!(options.order, "auto");
        assert_eq!(options.exclude, None);
    }

    #[test]
    fn malformed_migrate_values_fail_at_parse_time_with_typed_errors() {
        // --order: keyword or comma-separated indices only.
        let e = parse_args(&args(&["migrate", "a.p4dsl", "--order", "banana"])).unwrap_err();
        assert!(e.0.contains("order spec `banana`"), "{e}");
        let e = parse_args(&args(&["migrate", "a.p4dsl", "--order", "0,1,1"])).unwrap_err();
        assert!(e.0.contains("appears twice"), "{e}");
        // --channel is validated at parse time now, not first use.
        let e = parse_args(&args(&["migrate", "a.p4dsl", "--channel", "drop=high"])).unwrap_err();
        assert!(e.0.contains("channel spec `drop=high`"), "{e}");
        // --from-solver goes through the same typed solver lookup.
        let e = parse_args(&args(&["migrate", "a.p4dsl", "--from-solver", "gurobi"])).unwrap_err();
        assert!(e.0.contains("unknown solver `gurobi`"), "{e}");
        // --exclude must be an index.
        let e = parse_args(&args(&["migrate", "a.p4dsl", "--exclude", "two"])).unwrap_err();
        assert!(e.0.contains("--exclude"), "{e}");
    }

    #[test]
    fn order_specs_parse_and_resolve() {
        assert_eq!(parse_order("auto").unwrap(), OrderSpec::Auto);
        assert_eq!(parse_order("in-order").unwrap(), OrderSpec::InOrder);
        assert_eq!(parse_order("2,0,1").unwrap(), OrderSpec::Explicit(vec![2, 0, 1]));
        let net = parse_topology("linear:3").unwrap();
        let ids: Vec<SwitchId> = net.switch_ids().collect();
        match resolve_order(&parse_order("2,0").unwrap(), &net).unwrap() {
            MigrationOrder::Explicit(order) => assert_eq!(order, vec![ids[2], ids[0]]),
            other => panic!("expected explicit order, got {other:?}"),
        }
        // Out-of-range indices are range-checked against the topology.
        let e = resolve_order(&parse_order("0,7").unwrap(), &net).unwrap_err();
        assert!(e.to_string().contains("out of range"), "{e}");
        assert!(e.to_string().contains("3 switches"), "{e}");
    }

    #[test]
    fn audit_flags_parse() {
        let options = parse_args(&args(&["audit", "--library", "--json"])).unwrap();
        assert_eq!(options.command, "audit");
        assert!(options.library);
        assert!(options.json);
        assert!(options.files.is_empty());
        // Without --library, audit still needs program files...
        assert!(parse_args(&args(&["audit"])).is_err());
        // ...and --library does not excuse other commands from them.
        assert!(parse_args(&args(&["deploy", "--library"])).is_err());
    }

    #[test]
    fn state_report_flags_parse_and_bind_to_audit() {
        let options =
            parse_args(&args(&["audit", "--library", "--state-report", "--relax-state"])).unwrap();
        assert!(options.state_report);
        assert!(options.relax_state);
        // Defaults are off.
        let options = parse_args(&args(&["audit", "--library"])).unwrap();
        assert!(!options.state_report && !options.relax_state);
        // --state-report is audit-only; --relax-state also drives deploy.
        let e = parse_args(&args(&["deploy", "a.p4dsl", "--state-report"])).unwrap_err();
        assert!(e.0.contains("--state-report is an audit flag"), "{e}");
        assert!(parse_args(&args(&["deploy", "a.p4dsl", "--relax-state"])).unwrap().relax_state);
        assert!(USAGE.contains("--state-report"), "usage must document --state-report");
        assert!(USAGE.contains("--relax-state"), "usage must document --relax-state");
    }

    #[test]
    fn audit_state_report_emits_hs_codes_and_field_rows() {
        let options = parse_args(&args(&["audit", "--library", "--state-report"])).unwrap();
        let mut out = Vec::new();
        run(&options, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("HS504"), "summary diagnostic must fire: {text}");
        assert!(text.contains("fields relaxable"), "{text}");
        assert!(text.contains("state: "), "per-field rows must print: {text}");
        // Conservative mode relaxes no edges even when fields qualify.
        assert!(text.contains("0 of"), "{text}");

        // JSON mode embeds the report and stays parseable.
        let options = Options { json: true, ..options };
        let mut out = Vec::new();
        run(&options, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("\"state\""), "{text}");
        assert!(text.contains("\"HS504\""), "{text}");
        let report: hermes_analysis::AuditReport = serde_json::from_str(&text).unwrap();
        assert!(report.state.is_some());

        // Without the flag the JSON omits the key entirely.
        let options = parse_args(&args(&["audit", "--library", "--json"])).unwrap();
        let mut out = Vec::new();
        run(&options, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(!text.contains("\"state\""), "{text}");
    }

    #[test]
    fn relax_state_audit_counts_relaxed_edges_on_aggregation_workloads() {
        let dir = std::env::temp_dir().join("hermes-cli-relax-test");
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("agg.p4dsl");
        std::fs::write(
            &file,
            r#"
            program agg {
                header pkt.v: 4;
                metadata meta.acc: 4;
                table w0 { actions { fold0 { meta.acc = fold_add(pkt.v); } } resource 0.2; }
                table w1 { actions { fold1 { meta.acc = fold_add(pkt.v); } } resource 0.3; }
            }
            "#,
        )
        .unwrap();
        let options = parse_args(&args(&[
            "audit",
            file.to_str().unwrap(),
            "--state-report",
            "--relax-state",
            "--topology",
            "linear:2",
        ]))
        .unwrap();
        let mut out = Vec::new();
        run(&options, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("commutative-update(add)"), "{text}");
        assert!(text.contains("HS502"), "{text}");
        assert!(text.contains("1 of 1 dependency edges relaxed"), "{text}");
    }

    #[test]
    fn audit_library_is_clean_and_emits_typed_json() {
        let options =
            parse_args(&args(&["audit", "--library", "--json", "--topology", "fattree:4"]))
                .unwrap();
        let mut out = Vec::new();
        run(&options, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("\"diagnostics\""), "{text}");
        assert!(text.contains("\"summary\""), "{text}");
        assert!(text.contains("\"errors\": 0"), "{text}");

        // Pretty mode prints the summary line.
        let options = Options { json: false, ..options };
        let mut out = Vec::new();
        run(&options, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("audit: 0 error(s)"), "{text}");
    }

    #[test]
    fn audit_broken_workload_errors_with_stable_codes() {
        let dir = std::env::temp_dir().join("hermes-cli-audit-test");
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("broken.p4dsl");
        std::fs::write(
            &file,
            r#"
            program broken {
                metadata meta.ghost: 4;
                table r {
                    key { meta.ghost: exact; }
                    actions { a { drop(); } }
                    resource 0.2;
                }
            }
            "#,
        )
        .unwrap();
        let options = parse_args(&args(&["audit", file.to_str().unwrap(), "--json"])).unwrap();
        let mut out = Vec::new();
        let e = run(&options, &mut out).unwrap_err();
        assert!(e.0.contains("error-severity"), "{e}");
        let text = String::from_utf8(out).unwrap();
        // Both the lint and the independent dataflow pass fire.
        assert!(text.contains("HL001"), "{text}");
        assert!(text.contains("HD101"), "{text}");
    }

    #[test]
    fn end_to_end_migrate_drains_a_switch() {
        let dir = std::env::temp_dir().join("hermes-cli-migrate-test");
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("counter.p4dsl");
        std::fs::write(
            &file,
            r#"
            program counter {
                header ipv4.src: 4;
                metadata meta.idx: 4;
                table hash { actions { go { meta.idx = hash(ipv4.src); } } resource 0.2; }
                table count {
                    key { meta.idx: exact; }
                    actions { bump { register(meta.idx); } }
                    resource 0.4;
                }
            }
            "#,
        )
        .unwrap();
        // Drain switch 0: plan B re-homes everything the first-fit plan A
        // put there, and the staged migration executes under a lossy
        // channel with seeded faults.
        let options = parse_args(&args(&[
            "migrate",
            file.to_str().unwrap(),
            "--topology",
            "linear:3",
            "--exclude",
            "0",
            "--seed",
            "3",
            "--channel",
            "lossy",
        ]))
        .unwrap();
        let mut out = Vec::new();
        run(&options, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("drain switch"), "{text}");
        assert!(text.contains("schedule ("), "{text}");
        assert!(text.contains("seed 3:"), "{text}");
        // Bimodal: plan B lands or plan A is restored — never an abort on
        // this gate-clean workload.
        assert!(text.contains("migrated") || text.contains("rolled back"), "{text}");
        assert!(!text.contains("aborted"), "{text}");
        // Same seed, same report.
        let mut again = Vec::new();
        run(&options, &mut again).unwrap();
        assert_eq!(text, String::from_utf8(again).unwrap());

        // The event log carries the schema version for golden diffing.
        let options = Options { json: true, ..options };
        let mut out = Vec::new();
        run(&options, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("\"schema_version\": 3"), "{text}");
    }

    #[test]
    fn recover_flags_parse() {
        let options = parse_args(&args(&["recover", "--journal", "/tmp/x.hjl", "--json"])).unwrap();
        assert_eq!(options.command, "recover");
        assert_eq!(options.journal.as_deref(), Some("/tmp/x.hjl"));
        assert!(options.json);
        // recover insists on a journal and refuses program files.
        let e = parse_args(&args(&["recover"])).unwrap_err();
        assert!(e.0.contains("--journal"), "{e}");
        let e = parse_args(&args(&["recover", "a.p4dsl", "--journal", "j"])).unwrap_err();
        assert!(e.0.contains("not program files"), "{e}");
        // --journal parses on the runtime commands too.
        let options = parse_args(&args(&["chaos", "a.p4dsl", "--journal", "/tmp/j.hjl"])).unwrap();
        assert_eq!(options.journal.as_deref(), Some("/tmp/j.hjl"));
    }

    #[test]
    fn end_to_end_journal_round_trip_through_recover() {
        let dir = std::env::temp_dir().join("hermes-cli-recover-test");
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("counter.p4dsl");
        std::fs::write(
            &file,
            r#"
            program counter {
                header ipv4.src: 4;
                metadata meta.idx: 4;
                table hash { actions { go { meta.idx = hash(ipv4.src); } } resource 0.2; }
                table count {
                    key { meta.idx: exact; }
                    actions { bump { register(meta.idx); } }
                    resource 0.4;
                }
            }
            "#,
        )
        .unwrap();
        let journal = dir.join("deploy.hjl");
        // deploy --journal writes the journal of a clean install.
        let options = parse_args(&args(&[
            "deploy",
            file.to_str().unwrap(),
            "--topology",
            "linear:2",
            "--journal",
            journal.to_str().unwrap(),
        ]))
        .unwrap();
        let mut out = Vec::new();
        run(&options, &mut out).unwrap();
        assert!(journal.exists());

        // recover replays it offline: a concluded deploy affirms the
        // snapshot.
        let options =
            parse_args(&args(&["recover", "--journal", journal.to_str().unwrap()])).unwrap();
        let mut out = Vec::new();
        run(&options, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("record(s) replayed"), "{text}");
        assert!(text.contains("snapshot: epoch 1"), "{text}");
        assert!(text.contains("in flight: nothing"), "{text}");
        assert!(text.contains("recovery action: affirm-snapshot"), "{text}");

        // JSON mode emits the same verdict machine-readably.
        let options = Options { json: true, ..options };
        let mut out = Vec::new();
        run(&options, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("\"action\":\"affirm-snapshot\""), "{text}");
        assert!(text.contains("\"in_flight\":null"), "{text}");

        // A truncated journal with no intact tail frame is a torn tail:
        // reported, discarded, exit zero.
        let bytes = std::fs::read(&journal).unwrap();
        let torn = dir.join("torn.hjl");
        std::fs::write(&torn, &bytes[..bytes.len() - 3]).unwrap();
        let options = parse_args(&args(&["recover", "--journal", torn.to_str().unwrap()])).unwrap();
        let mut out = Vec::new();
        run(&options, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("torn tail byte(s) discarded"), "{text}");

        // A journal with a corrupt header is a typed error, not a panic.
        let mut broken = bytes.clone();
        broken[0] ^= 0xFF;
        let bad = dir.join("bad.hjl");
        std::fs::write(&bad, &broken).unwrap();
        let options = parse_args(&args(&["recover", "--journal", bad.to_str().unwrap()])).unwrap();
        let mut out = Vec::new();
        let e = run(&options, &mut out).unwrap_err();
        assert!(e.0.contains("journal replay failed"), "{e}");

        // Missing file: clean error.
        let options = parse_args(&args(&["recover", "--journal", "/nonexistent/j.hjl"])).unwrap();
        let mut out = Vec::new();
        let e = run(&options, &mut out).unwrap_err();
        assert!(e.0.contains("cannot read journal"), "{e}");
    }

    #[test]
    fn missing_file_is_a_clean_error() {
        let options = parse_args(&args(&["analyze", "/nonexistent/path.p4dsl"])).unwrap();
        let mut out = Vec::new();
        let e = run(&options, &mut out).unwrap_err();
        assert!(e.0.contains("cannot read"), "{e}");
    }
}
