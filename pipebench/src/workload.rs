//! The three workloads and the pipeline one request runs.
//!
//! A request goes from generated inputs to committed network state:
//! `ProgramAnalyzer::analyze` → `Precheck::run` → solver → `verify` →
//! `DeploymentRuntime::rollout` (or, for a switch drain,
//! `IncrementalDeployer::redeploy_with` → `verify` →
//! `DeploymentRuntime::migrate`). Every output is checked after the
//! request's clock stops.

use crate::trace::Tracer;
use hermes_backend::{
    check_transition, generate, validate_plan, DeploymentArtifacts, EpochTransition,
};
use hermes_core::{
    json_fingerprint, verify, DeployError, DeploymentPlan, Epsilon, GreedyHeuristic,
    IncrementalDeployer, MigrationOrder, MigrationProblem, MigrationScheduler, OptimalSolver,
    Precheck, ProgramAnalyzer, RedeployOptions, SearchContext, Solver,
};
use hermes_dataplane::library;
use hermes_dataplane::synthetic::{SyntheticConfig, SyntheticGenerator};
use hermes_dataplane::Program;
use hermes_net::{topology, Network, SwitchId};
use hermes_runtime::{
    DeploymentRuntime, Event, FaultInjector, MigrationConfig, MigrationOutcome, RetryPolicy,
    RolloutOutcome,
};
use hermes_tdg::Tdg;
use std::collections::BTreeMap;
use std::num::NonZeroUsize;
use std::time::{Duration, Instant};

// Each workload cycles a fixed pool of inputs, in an order drawn from
// the seed. On inputs drawn from the seed, op time and plan quality
// differ between seeds by more than the bounds a benchmark can hold: a
// different 40-program draw alone moves `scale-wan`'s op time by up to
// 2x and its `A_max` by 4x, and even a different submission order of
// the same programs moves `A_max` by 12%.

/// Synthetic programs next to the ten library programs in `scale-wan`.
const SCALE_WAN_SYNTHETIC: usize = 40;
/// Generator seed of the `scale-wan` synthetic programs and orders.
const SCALE_WAN_PROGRAM_SEED: u64 = 42;
/// Generator seeds of the one synthetic program of each `exact-small`
/// instance: seed 42 and the four of seeds 30-60 whose exact proofs
/// take about as long (0.9-1.5 s and 2.7-4.9 million search nodes on a
/// 2-core x86-64 host; optima of 3-4 B where greedy finds 6-240 B). A
/// band of like instances keeps the op-time median off one outlier;
/// over seeds 30-60 the proofs range from 3 ms to 8 s.
const EXACT_SMALL_PROGRAM_SEEDS: [u64; 5] = [34, 36, 42, 44, 58];
/// Per-stage capacity of the `exact-small` switches (stock is 1.0): at
/// stock capacity the programs fit with little packing pressure, and the
/// search proves optimality almost at once.
const EXACT_SMALL_STAGE_CAPACITY: f64 = 0.9;
/// Exact-search budget; far above the slowest proof on these instances,
/// so a request that hits it is a real `timeout`.
const EXACT_BUDGET: Duration = Duration::from_secs(60);
/// Generator seed of the `churn` synthetic programs.
const CHURN_PROGRAM_SEED: u64 = 7;
/// Synthetic programs live in the `churn` deployment; each has one
/// replacement, so the pool holds this many tenant swaps.
const CHURN_LIVE_SYNTHETIC: usize = 15;
/// Submission orders of the `scale-wan` programs: the merged TDG, and
/// with it the plan and the merge's cost, depend on the order. Pools are
/// odd-sized so that the median request time falls inside one input's
/// cluster of times, not in the gap between two (with 8 instances,
/// `exact-small`'s median jumped by 7% between runs).
const SCALE_WAN_ORDERS: usize = 3;
/// The Table-III WAN both WAN workloads run on (index 9: WAN 10).
const WAN_INDEX: usize = 9;
/// The packet seeds `DeploymentRuntime::new` validates with; the
/// attribution pass re-runs `validate_plan` with the same ones.
const PACKET_SEEDS: [u64; 4] = [0, 1, 2, 3];

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    /// Fresh greedy deploys of 50 programs on WAN 10.
    ScaleWan,
    /// Fresh exact deploys of 11 programs on a tightened `linear-4`.
    ExactSmall,
    /// Tenant swaps and switch drains on a live 25-program deployment.
    Churn,
}

impl WorkloadKind {
    /// Every workload, in report order.
    pub const ALL: [WorkloadKind; 3] =
        [WorkloadKind::ScaleWan, WorkloadKind::ExactSmall, WorkloadKind::Churn];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::ScaleWan => "scale-wan",
            WorkloadKind::ExactSmall => "exact-small",
            WorkloadKind::Churn => "churn",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        WorkloadKind::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How a request ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Outcome {
    /// Committed on exactly the intended plan, every check passed.
    Ok,
    /// The runtime's safety gate refused the change; the old plan serves.
    Refused,
    /// No feasible plan exists (precheck certificate or solver proof).
    Infeasible,
    /// The solver's budget expired before it proved its plan.
    Timeout,
    /// Any other error (rollback without a validation failure, crash).
    Error,
    /// An output failed a correctness check.
    CheckFailed,
}

impl Outcome {
    /// Every outcome, in report order.
    pub const ALL: [Outcome; 6] = [
        Outcome::Ok,
        Outcome::Refused,
        Outcome::Infeasible,
        Outcome::Timeout,
        Outcome::Error,
        Outcome::CheckFailed,
    ];

    /// Report name.
    pub fn name(self) -> &'static str {
        match self {
            Outcome::Ok => "ok",
            Outcome::Refused => "refused",
            Outcome::Infeasible => "infeasible",
            Outcome::Timeout => "timeout",
            Outcome::Error => "error",
            Outcome::CheckFailed => "check_failed",
        }
    }
}

/// The deterministic outputs of one committed request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Committed {
    /// `A_max` of the committed plan, bytes.
    pub a_max: u64,
    /// Switches the committed plan occupies.
    pub occupied: usize,
    /// Virtual-clock time the network spent in the transition, µs.
    pub reconfig_us: u64,
    /// Control messages the transition sent.
    pub messages: u64,
    /// Largest `A_max` any packet can see while the request commits: the
    /// schedule's peak for a staged migration, else the larger of the
    /// old and new plan's `A_max` (a rollout switches in one window).
    pub transient_a_max: u64,
    /// `json_fingerprint` of the committed plan.
    pub fingerprint: u64,
}

/// What one request did.
#[derive(Debug, Clone)]
pub struct Request {
    /// `fresh`, `swap` or `drain`.
    pub kind: &'static str,
    /// How it ended.
    pub outcome: Outcome,
    /// Why, when the outcome is not [`Outcome::Ok`].
    pub detail: String,
    /// Wall time from inputs to committed state (or to the failure).
    pub wall: Duration,
    /// Set when the request committed.
    pub committed: Option<Committed>,
    /// Per-layer counters of a traced request (see `BENCHMARK.json`).
    pub counters: BTreeMap<&'static str, f64>,
    /// How each attempt the request gave up on ended: a drain whose
    /// target the runtime refused (or no plan could avoid) moves on to
    /// the next switch.
    pub abandoned: Vec<Outcome>,
}

impl Request {
    fn failed(kind: &'static str, outcome: Outcome, detail: String, wall: Duration) -> Self {
        Request {
            kind,
            outcome,
            detail,
            wall,
            committed: None,
            counters: BTreeMap::new(),
            abandoned: Vec::new(),
        }
    }

    /// Marks a committed request as having failed a check; its wall time
    /// stays.
    fn fail_check(&mut self, detail: String) {
        self.outcome = Outcome::CheckFailed;
        self.detail = detail;
        self.committed = None;
    }

    /// Checks that a repeat of the same input committed the plan its
    /// first run did (`reference` holds that plan's fingerprint).
    fn check_repeat(&mut self, reference: &mut Option<u64>) {
        if let Some(c) = self.committed {
            if *reference.get_or_insert(c.fingerprint) != c.fingerprint {
                self.fail_check("a repeat of this input committed another plan".to_owned());
            }
        }
    }
}

/// One fresh-deploy input: programs in submission order.
#[derive(Debug)]
struct Instance {
    programs: Vec<Program>,
    /// The greedy objective on this instance (`exact-small` only): the
    /// exact plan must match or beat it. `None` also when greedy finds no
    /// plan at all.
    greedy_objective: Option<u64>,
}

/// One reconfiguration of the `churn` pool.
#[derive(Debug, Clone, Copy)]
enum ChurnOp {
    /// Replace live program `slot` with replacement `incoming`.
    Swap { slot: usize, incoming: usize },
    /// Drain this switch (or, if the runtime refuses, the next one).
    Drain(SwitchId),
}

/// The `churn` workload: a live deployment and the reconfigurations
/// applied to it. Every request starts from the same live deployment (a
/// copy of the runtime made before its clock starts), so each op's
/// outputs are the same whenever it runs; a chain of changes would
/// drift the deployment by the seed, and with it `A_max`, by more than
/// any bound can absorb.
#[derive(Debug)]
struct Churn {
    live: Vec<Program>,
    incoming: Vec<Program>,
    tdg: Tdg,
    plan: DeploymentPlan,
    runtime: DeploymentRuntime,
    ops: Vec<ChurnOp>,
}

#[derive(Debug)]
enum State {
    /// Fresh deploys of each instance: greedy for `scale-wan`, exact for
    /// `exact-small`.
    Fresh {
        instances: Vec<Instance>,
        exact: bool,
    },
    Churn(Box<Churn>),
}

/// A workload ready to serve requests.
#[derive(Debug)]
pub struct Workload {
    state: State,
    /// Pool indices in request order (the seed's permutation).
    order: Vec<usize>,
    /// Fingerprint of the plan each pool input committed first; every
    /// repeat must commit the same plan.
    reference: Vec<Option<u64>>,
    net: Network,
    eps: Epsilon,
    threads: NonZeroUsize,
    /// Wall time of program generation and of topology construction.
    pub setup_split: (Duration, Duration),
}

/// SplitMix64: the seed-derivation stream of the benchmark.
#[derive(Debug)]
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Fisher-Yates shuffle.
    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, (self.next() % (i as u64 + 1)) as usize);
        }
    }
}

fn programs_with_synthetic(seed: u64, synthetic: usize) -> Vec<Program> {
    let mut programs = library::real_programs();
    programs.extend(SyntheticGenerator::new(seed, SyntheticConfig::default()).programs(synthetic));
    programs
}

fn tightened_linear4() -> Network {
    let mut net = topology::linear(4, 10.0);
    let ids: Vec<SwitchId> = net.switch_ids().collect();
    for id in ids {
        net.switch_mut(id).stage_capacity = EXACT_SMALL_STAGE_CAPACITY;
    }
    net
}

fn fresh_runtime(net: &Network, eps: Epsilon) -> DeploymentRuntime {
    DeploymentRuntime::new(net.clone(), eps, FaultInjector::disabled(), RetryPolicy::default())
}

fn solve_error(e: &DeployError) -> Outcome {
    match e {
        DeployError::NoImprovementProven { .. } => Outcome::Error,
        _ => Outcome::Infeasible,
    }
}

/// Runs `ProgramAnalyzer::analyze` as one top-level span.
fn analyze(programs: &[Program], tr: &mut Tracer) -> Tdg {
    tr.time("tdg", "analyze", || ProgramAnalyzer::new().analyze(programs))
}

/// Re-runs the per-program TDG build that `analyze` made, to split it
/// from the merge (the rest of the `analyze` span); records the TDG
/// counters.
fn attribute_analysis(
    tr: &mut Tracer,
    programs: &[Program],
    tdg: &Tdg,
    counters: &mut BTreeMap<&'static str, f64>,
) {
    let parent = tr.last_top("analyze").expect("analyze was traced");
    let mode = ProgramAnalyzer::new().mode();
    tr.nested(parent, "tdg", "build", || {
        let tdgs: Vec<Tdg> = programs.iter().map(|p| Tdg::from_program(p, mode)).collect();
        std::hint::black_box(tdgs)
    });
    let input: usize = programs.iter().map(|p| p.tables().len()).sum();
    counters.insert("tdg.input_mats", input as f64);
    counters.insert("tdg.merged_nodes", tdg.node_count() as f64);
    counters.insert("tdg.merged_edges", tdg.edge_count() as f64);
    counters.insert("tdg.dedup_ratio", 1.0 - tdg.node_count() as f64 / input.max(1) as f64);
}

/// How a staged migration that did not migrate ended, from its outcome
/// and the events it logged: `check_failed` when `validate_plan` rejected
/// the target; `refused` when the safety gate turned it down with the old
/// plan still serving (no safe make-before-break schedule, or a
/// mixed-epoch window that would break per-packet consistency); `error`
/// otherwise. `None` when it migrated.
fn migration_failure(events: &[Event], outcome: &MigrationOutcome) -> Option<(Outcome, String)> {
    let logged = |f: fn(&Event) -> bool| events.iter().any(f);
    match outcome {
        MigrationOutcome::Migrated { .. } => None,
        _ if logged(|e| matches!(e, Event::ValidationFailed { .. })) => {
            Some((Outcome::CheckFailed, format!("validate_plan refused the target: {outcome}")))
        }
        MigrationOutcome::Aborted { reason, .. }
            if reason.starts_with("no safe schedule")
                || logged(|e| matches!(e, Event::MixedEpochViolated { .. })) =>
        {
            Some((Outcome::Refused, outcome.to_string()))
        }
        _ => Some((Outcome::Error, outcome.to_string())),
    }
}

/// Why a rollout did not leave `plan` active, if it did not.
fn rollout_failure(
    rt: &DeploymentRuntime,
    outcome: &RolloutOutcome,
    plan: &DeploymentPlan,
    events_before: usize,
) -> Option<(Outcome, String)> {
    let validation_failed = rt.log().events[events_before..]
        .iter()
        .any(|e| matches!(e, Event::ValidationFailed { .. }));
    match outcome {
        RolloutOutcome::Committed { healed: false, .. } if rt.active_plan() == Some(plan) => None,
        RolloutOutcome::Committed { .. } => {
            Some((Outcome::CheckFailed, format!("{outcome}, but not on the intended plan")))
        }
        _ if validation_failed => {
            Some((Outcome::CheckFailed, format!("validate_plan refused the plan: {outcome}")))
        }
        _ => Some((Outcome::Error, outcome.to_string())),
    }
}

/// Runtime counters of the events a request added to the log.
fn note_runtime(counters: &mut BTreeMap<&'static str, f64>, rt: &DeploymentRuntime, from: usize) {
    let events = &rt.log().events[from..];
    let retries = events.iter().filter(|e| matches!(e, Event::RetryScheduled { .. })).count();
    counters.insert("runtime.events", events.len() as f64);
    counters.insert("runtime.retries", retries as f64);
}

/// Re-runs `validate_plan` and `generate` on a committed plan to split
/// the backend's share out of the runtime call that ran them; returns the
/// plan's artifacts.
fn attribute_validation(
    tr: &mut Tracer,
    parent: usize,
    tdg: &Tdg,
    net: &Network,
    plan: &DeploymentPlan,
    eps: &Epsilon,
    counters: &mut BTreeMap<&'static str, f64>,
) -> Result<DeploymentArtifacts, String> {
    let (report, _) = tr.nested(parent, "backend", "validate", || {
        validate_plan(tdg, net, plan, eps, &PACKET_SEEDS)
    });
    let artifacts = tr.nested(parent, "backend", "generate", || generate(tdg, net, plan));
    if !report.is_ok() {
        return Err(format!("attribution pass: validate_plan failed: {report}"));
    }
    let stage_entries: usize =
        artifacts.switches.values().flat_map(|c| c.stages.values()).map(Vec::len).sum();
    counters.insert("backend.validate_packets", report.packets_checked as f64);
    counters.insert("backend.config_entries", (stage_entries + artifacts.routes.len()) as f64);
    Ok(artifacts)
}

impl Workload {
    /// Builds the workload's inputs; `seed` draws its request stream.
    /// For `churn` this also installs the initial plan.
    pub fn setup(kind: WorkloadKind, seed: u64) -> Result<Workload, String> {
        let eps = Epsilon::loose();
        let threads = std::thread::available_parallelism().unwrap_or(NonZeroUsize::MIN);
        let t = Instant::now();
        let mut program_sets: Vec<Vec<Program>> = match kind {
            WorkloadKind::ScaleWan => {
                vec![programs_with_synthetic(SCALE_WAN_PROGRAM_SEED, SCALE_WAN_SYNTHETIC)]
            }
            WorkloadKind::ExactSmall => {
                EXACT_SMALL_PROGRAM_SEEDS.iter().map(|&s| programs_with_synthetic(s, 1)).collect()
            }
            WorkloadKind::Churn => {
                vec![programs_with_synthetic(CHURN_PROGRAM_SEED, 2 * CHURN_LIVE_SYNTHETIC)]
            }
        };
        let gen_time = t.elapsed();
        let t = Instant::now();
        let net = match kind {
            WorkloadKind::ExactSmall => tightened_linear4(),
            WorkloadKind::ScaleWan | WorkloadKind::Churn => topology::table3_wan(WAN_INDEX),
        };
        let topo_time = t.elapsed();

        let state = match kind {
            WorkloadKind::ScaleWan => {
                let programs = program_sets.pop().expect("one set");
                let mut orders = SplitMix(SCALE_WAN_PROGRAM_SEED);
                let instances = (0..SCALE_WAN_ORDERS)
                    .map(|_| {
                        let mut ordered = programs.clone();
                        orders.shuffle(&mut ordered);
                        Instance { programs: ordered, greedy_objective: None }
                    })
                    .collect();
                State::Fresh { instances, exact: false }
            }
            WorkloadKind::ExactSmall => {
                let instances = program_sets
                    .into_iter()
                    .map(|programs| {
                        let tdg = ProgramAnalyzer::new().analyze(&programs);
                        let greedy_objective = GreedyHeuristic::new()
                            .solve(&tdg, &net, &eps, &SearchContext::unbounded())
                            .ok()
                            .map(|o| o.objective);
                        Instance { programs, greedy_objective }
                    })
                    .collect();
                State::Fresh { instances, exact: true }
            }
            WorkloadKind::Churn => {
                let mut live = program_sets.pop().expect("one set");
                let incoming = live.split_off(live.len() - CHURN_LIVE_SYNTHETIC);
                let tdg = ProgramAnalyzer::new().analyze(&live);
                let plan = GreedyHeuristic::new()
                    .solve(&tdg, &net, &eps, &SearchContext::unbounded())
                    .map_err(|e| format!("initial churn plan: {e}"))?
                    .plan;
                let mut runtime = fresh_runtime(&net, eps);
                let outcome = runtime.rollout(&tdg, plan.clone());
                if rollout_failure(&runtime, &outcome, &plan, 0).is_some() {
                    return Err(format!("initial churn rollout: {outcome}"));
                }
                let first_synthetic = live.len() - CHURN_LIVE_SYNTHETIC;
                let swaps = (0..CHURN_LIVE_SYNTHETIC)
                    .map(|i| ChurnOp::Swap { slot: first_synthetic + i, incoming: i });
                let drains = plan.occupied_switches().into_iter().map(ChurnOp::Drain);
                let ops = swaps.chain(drains).collect();
                State::Churn(Box::new(Churn { live, incoming, tdg, plan, runtime, ops }))
            }
        };
        let pool = match &state {
            State::Fresh { instances, .. } => instances.len(),
            State::Churn(churn) => churn.ops.len(),
        };
        let mut order: Vec<usize> = (0..pool).collect();
        SplitMix(seed).shuffle(&mut order);
        Ok(Workload {
            state,
            order,
            reference: vec![None; pool],
            net,
            eps,
            threads,
            setup_split: (gen_time, topo_time),
        })
    }

    /// Worker threads the solver gets (greedy runs on one).
    pub fn solver_threads(&self) -> usize {
        match self.state {
            State::Fresh { exact: true, .. } => self.threads.get(),
            State::Fresh { exact: false, .. } | State::Churn(_) => 1,
        }
    }

    /// Requests in one pass over the pool. The first pass is the
    /// reference pass, whose outputs define the deterministic metrics and
    /// the digest. Measuring stops only at the end of a pass, and tracing
    /// switches on or off per pass, so that every measured set weighs the
    /// pool's inputs alike.
    pub fn pass_len(&self) -> usize {
        self.order.len()
    }

    /// Runs request `k` of the workload's request stream.
    pub fn run_request(&mut self, k: usize, tr: &mut Tracer) -> Request {
        tr.begin_request(k);
        let i = self.order[k % self.order.len()];
        let (eps, net) = (self.eps, &self.net);
        let mut r = match &self.state {
            State::Fresh { instances, exact } => {
                let inst = &instances[i];
                let threads = exact.then_some(self.threads);
                let mut r = fresh_request(&inst.programs, net, threads, eps, tr);
                if let (Some(c), Some(greedy)) = (r.committed, inst.greedy_objective) {
                    if c.a_max > greedy {
                        r.fail_check(format!(
                            "exact A_max {} B exceeds greedy's {greedy} B",
                            c.a_max
                        ));
                    }
                }
                r
            }
            State::Churn(churn) => match churn.ops[i] {
                ChurnOp::Swap { slot, incoming } => churn.swap(slot, incoming, net, eps, tr),
                ChurnOp::Drain(target) => {
                    let mut abandoned = Vec::new();
                    let mut r = churn.drain(target, net, eps, tr, &mut abandoned);
                    r.abandoned = abandoned;
                    r
                }
            },
        };
        r.check_repeat(&mut self.reference[i]);
        r
    }
}

/// A fresh deploy onto an empty network: greedy, or the exact search
/// with `exact_threads` workers.
fn fresh_request(
    programs: &[Program],
    net: &Network,
    exact_threads: Option<NonZeroUsize>,
    eps: Epsilon,
    tr: &mut Tracer,
) -> Request {
    let kind = "fresh";
    let mut counters = BTreeMap::new();
    let start = Instant::now();
    let tdg = analyze(programs, tr);
    let precheck = tr.time("core", "precheck", || Precheck::run(&tdg, net, &eps));
    if let Some(cert) = precheck.infeasible() {
        return Request::failed(kind, Outcome::Infeasible, cert.to_string(), start.elapsed());
    }
    let solved = if let Some(threads) = exact_threads {
        let ctx = SearchContext::with_time_limit(EXACT_BUDGET).with_threads(threads);
        ctx.raise_floor(precheck.amax_floor());
        let (result, pstats) = tr.time("core", "solve", || {
            OptimalSolver::new().solve_instrumented(&tdg, net, &eps, &ctx)
        });
        counters.insert("core.exact_steals", pstats.steals as f64);
        counters.insert("core.exact_bound_prunes", pstats.bound_prunes as f64);
        counters.insert("core.exact_subtree_roots", pstats.subtree_roots as f64);
        result
    } else {
        tr.time("core", "solve", || {
            GreedyHeuristic::new().solve(&tdg, net, &eps, &SearchContext::unbounded())
        })
    };
    let solved = match solved {
        Ok(o) => o,
        Err(e) => return Request::failed(kind, solve_error(&e), e.to_string(), start.elapsed()),
    };
    if exact_threads.is_some() && !solved.proven_optimal {
        let detail = format!("budget expired at A_max {} B unproven", solved.objective);
        return Request::failed(kind, Outcome::Timeout, detail, start.elapsed());
    }
    let violations = tr.time("core", "verify", || verify(&tdg, net, &solved.plan, &eps));
    if let Some(v) = violations.first() {
        let detail = format!("verify: {v}");
        return Request::failed(kind, Outcome::CheckFailed, detail, start.elapsed());
    }
    let mut rt = fresh_runtime(net, eps);
    let outcome = tr.time("runtime", "rollout", || rt.rollout(&tdg, solved.plan.clone()));
    let wall = start.elapsed();

    if let Some((outcome, detail)) = rollout_failure(&rt, &outcome, &solved.plan, 0) {
        return Request::failed(kind, outcome, detail, wall);
    }
    let a_max = solved.plan.max_inter_switch_bytes(&tdg);
    if a_max != solved.objective {
        let detail = format!("solver reported A_max {} B, plan has {a_max} B", solved.objective);
        return Request::failed(kind, Outcome::CheckFailed, detail, wall);
    }
    let fingerprint = json_fingerprint(&solved.plan);
    if tr.is_on() {
        attribute_analysis(tr, programs, &tdg, &mut counters);
        note_runtime(&mut counters, &rt, 0);
        counters.insert("runtime.messages", rt.messages_sent() as f64);
        counters.insert("core.precheck_floor_bytes", precheck.amax_floor() as f64);
        counters.insert("core.verify_violations", violations.len() as f64);
        counters.insert("core.solve_nodes", solved.stats.nodes_explored as f64);
        counters.insert("core.solve_proven_frac", f64::from(u8::from(solved.proven_optimal)));
        let parent = tr.last_top("rollout").expect("rollout was traced");
        if let Err(detail) =
            attribute_validation(tr, parent, &tdg, net, &solved.plan, &eps, &mut counters)
        {
            return Request::failed(kind, Outcome::CheckFailed, detail, wall);
        }
    }
    Request {
        kind,
        outcome: Outcome::Ok,
        detail: String::new(),
        wall,
        committed: Some(Committed {
            a_max,
            occupied: solved.plan.occupied_switch_count(),
            reconfig_us: rt.now_us(),
            messages: rt.messages_sent(),
            transient_a_max: a_max,
            fingerprint,
        }),
        counters,
        abandoned: Vec::new(),
    }
}

impl Churn {
    /// Tenant swap: replace live program `slot` by replacement
    /// `incoming`, re-analyze, place the new MATs incrementally, and roll
    /// the result out at a new epoch.
    fn swap(
        &self,
        slot: usize,
        incoming: usize,
        net: &Network,
        eps: Epsilon,
        tr: &mut Tracer,
    ) -> Request {
        let kind = "swap";
        let mut counters = BTreeMap::new();
        let mut programs = self.live.clone();
        programs[slot] = self.incoming[incoming].clone();
        let mut runtime = self.runtime.clone();
        let (t0, m0, e0) = (runtime.now_us(), runtime.messages_sent(), runtime.log().len());

        let start = Instant::now();
        let tdg = analyze(&programs, tr);
        let precheck = tr.time("core", "precheck", || Precheck::run(&tdg, net, &eps));
        if let Some(cert) = precheck.infeasible() {
            return Request::failed(kind, Outcome::Infeasible, cert.to_string(), start.elapsed());
        }
        let redeployed = tr.time("core", "incremental", || {
            IncrementalDeployer::new().redeploy(&self.tdg, &self.plan, &tdg, net, &eps)
        });
        let redeployed = match redeployed {
            Ok(o) => o,
            Err(e) => {
                return Request::failed(kind, solve_error(&e), e.to_string(), start.elapsed())
            }
        };
        let plan = &redeployed.plan;
        let violations = tr.time("core", "verify", || verify(&tdg, net, plan, &eps));
        if let Some(v) = violations.first() {
            let detail = format!("verify: {v}");
            return Request::failed(kind, Outcome::CheckFailed, detail, start.elapsed());
        }
        let rt = &mut runtime;
        let outcome = tr.time("runtime", "rollout", || rt.rollout(&tdg, plan.clone()));
        let wall = start.elapsed();

        if let Some((outcome, detail)) = rollout_failure(rt, &outcome, plan, e0) {
            return Request::failed(kind, outcome, detail, wall);
        }
        let old_a_max = self.plan.max_inter_switch_bytes(&self.tdg);
        let a_max = plan.max_inter_switch_bytes(&tdg);
        let committed = Committed {
            a_max,
            occupied: plan.occupied_switch_count(),
            reconfig_us: rt.now_us() - t0,
            messages: rt.messages_sent() - m0,
            transient_a_max: a_max.max(old_a_max),
            fingerprint: json_fingerprint(plan),
        };
        if tr.is_on() {
            attribute_analysis(tr, &programs, &tdg, &mut counters);
            note_runtime(&mut counters, rt, e0);
            counters.insert("runtime.messages", committed.messages as f64);
            counters.insert("core.precheck_floor_bytes", precheck.amax_floor() as f64);
            counters.insert("core.verify_violations", violations.len() as f64);
            let reused = redeployed.reused as f64 / tdg.node_count().max(1) as f64;
            counters.insert("core.incremental_reused_ratio", reused);
            let full = f64::from(u8::from(redeployed.full_redeploy));
            counters.insert("core.incremental_full_frac", full);
            let parent = tr.last_top("rollout").expect("rollout was traced");
            if let Err(detail) =
                attribute_validation(tr, parent, &tdg, net, plan, &eps, &mut counters)
            {
                return Request::failed(kind, Outcome::CheckFailed, detail, wall);
            }
        }
        Request {
            kind,
            outcome: Outcome::Ok,
            detail: String::new(),
            wall,
            committed: Some(committed),
            counters,
            abandoned: Vec::new(),
        }
    }

    /// Switch drain: move every MAT off switch `wanted` with an
    /// incremental redeploy, then migrate to the new plan in
    /// make-before-break steps. When the runtime refuses that drain (no
    /// safe staging schedule, or the mixed-epoch gate), or no plan avoids
    /// the switch, the operator drains the next occupied switch instead,
    /// inside the same request and on its clock; each abandoned attempt's
    /// outcome goes to `abandoned`. Any other failure ends the request.
    fn drain(
        &self,
        wanted: SwitchId,
        net: &Network,
        eps: Epsilon,
        tr: &mut Tracer,
        abandoned: &mut Vec<Outcome>,
    ) -> Request {
        let kind = "drain";
        let mut counters = BTreeMap::new();
        let occupied: Vec<SwitchId> = self.plan.occupied_switches().into_iter().collect();
        let first =
            occupied.iter().position(|&s| s == wanted).expect("drains target occupied switches");
        let mut runtime = self.runtime.clone();
        let (t0, m0, e0) = (runtime.now_us(), runtime.messages_sent(), runtime.log().len());
        let (tdg, plan) = (&self.tdg, &self.plan);
        let cfg = MigrationConfig::default();
        let rt = &mut runtime;

        let start = Instant::now();
        let mut reasons = Vec::new();
        let mut drained = None;
        for target in occupied.iter().cycle().skip(first).take(occupied.len()).copied() {
            let opts = RedeployOptions::excluding([target]);
            let redeployed = tr.time("core", "incremental", || {
                IncrementalDeployer::new().redeploy_with(tdg, plan, tdg, net, &eps, &opts)
            });
            let redeployed = match redeployed {
                Ok(o) => o,
                Err(e) if solve_error(&e) == Outcome::Infeasible => {
                    abandoned.push(Outcome::Infeasible);
                    reasons.push(format!("{target}: {e}"));
                    continue;
                }
                Err(e) => {
                    return Request::failed(kind, solve_error(&e), e.to_string(), start.elapsed())
                }
            };
            let new_plan = &redeployed.plan;
            let violations = tr.time("core", "verify", || verify(tdg, net, new_plan, &eps));
            if let Some(v) = violations.first() {
                let detail = format!("verify: {v}");
                return Request::failed(kind, Outcome::CheckFailed, detail, start.elapsed());
            }
            let attempt_events = rt.log().len();
            let outcome = tr.time("runtime", "migrate", || rt.migrate(tdg, new_plan.clone(), &cfg));
            match migration_failure(&rt.log().events[attempt_events..], &outcome) {
                None => {
                    drained = Some((target, redeployed, violations.len()));
                    break;
                }
                Some((Outcome::Refused, detail)) => {
                    abandoned.push(Outcome::Refused);
                    reasons.push(format!("{target}: {detail}"));
                }
                Some((outcome, detail)) => {
                    let detail = format!("{target}: {detail}");
                    return Request::failed(kind, outcome, detail, start.elapsed());
                }
            }
        }
        let wall = start.elapsed();
        let Some((target, redeployed, violations)) = drained else {
            let outcome = if abandoned.contains(&Outcome::Refused) {
                Outcome::Refused
            } else {
                Outcome::Infeasible
            };
            return Request::failed(kind, outcome, reasons.join("; "), wall);
        };
        let new_plan = &redeployed.plan;
        if rt.active_plan() != Some(new_plan) {
            let detail = "migrated, but not on the intended plan".to_owned();
            return Request::failed(kind, Outcome::CheckFailed, detail, wall);
        }
        if new_plan.occupied_switches().contains(&target) {
            let detail = format!("drained switch {target} still hosts MATs");
            return Request::failed(kind, Outcome::CheckFailed, detail, wall);
        }
        let started = rt.log().events[e0..].iter().rev().find_map(|e| match e {
            Event::MigrationStarted { steps, peak_transient_amax, .. } => {
                Some((*steps, *peak_transient_amax))
            }
            _ => None,
        });
        let Some((steps, peak)) = started else {
            let detail = "migration logged no MigrationStarted event".to_owned();
            return Request::failed(kind, Outcome::CheckFailed, detail, wall);
        };
        let committed = Committed {
            a_max: new_plan.max_inter_switch_bytes(tdg),
            occupied: new_plan.occupied_switch_count(),
            reconfig_us: rt.now_us() - t0,
            messages: rt.messages_sent() - m0,
            transient_a_max: peak,
            fingerprint: json_fingerprint(new_plan),
        };
        if tr.is_on() {
            note_runtime(&mut counters, rt, e0);
            counters.insert("runtime.messages", committed.messages as f64);
            counters.insert("core.verify_violations", violations as f64);
            counters.insert("core.migrate_steps", steps as f64);
            let refusals = abandoned.iter().filter(|&&o| o == Outcome::Refused).count();
            counters.insert("runtime.drain_refusals", refusals as f64);
            let reused = redeployed.reused as f64 / tdg.node_count().max(1) as f64;
            counters.insert("core.incremental_reused_ratio", reused);
            let full = f64::from(u8::from(redeployed.full_redeploy));
            counters.insert("core.incremental_full_frac", full);
            let parent = tr.last_top("migrate").expect("migrate was traced");
            let problem = MigrationProblem { tdg, net, from: plan, to: new_plan };
            let ctx = SearchContext::with_time_limit(Duration::from_millis(cfg.plan_budget_ms));
            let schedule = tr.nested(parent, "core", "migrate_plan", || {
                MigrationScheduler::with_order(MigrationOrder::Auto).plan(&problem, &ctx)
            });
            let schedule = match schedule {
                Ok(s) if s.peak_transient_amax == peak => s,
                Ok(s) => {
                    let detail = format!(
                        "attribution pass: schedule peak {} B differs from the migration's {peak} B",
                        s.peak_transient_amax
                    );
                    return Request::failed(kind, Outcome::CheckFailed, detail, wall);
                }
                Err(e) => {
                    let detail = format!("attribution pass: no schedule: {e}");
                    return Request::failed(kind, Outcome::CheckFailed, detail, wall);
                }
            };
            let new_artifacts =
                match attribute_validation(tr, parent, tdg, net, new_plan, &eps, &mut counters) {
                    Ok(a) => a,
                    Err(detail) => {
                        return Request::failed(kind, Outcome::CheckFailed, detail, wall)
                    }
                };
            // The runtime keeps the live plan's artifacts; regenerating
            // them here is set-up for the re-run, not part of it.
            let old_artifacts = generate(tdg, net, plan);
            let transition = EpochTransition {
                tdg,
                old_plan: plan,
                old_artifacts: &old_artifacts,
                new_plan,
                new_artifacts: &new_artifacts,
            };
            let order = schedule.commit_order();
            let gate = tr.nested(parent, "backend", "mixed_epoch", || {
                check_transition(&transition, &order, &PACKET_SEEDS)
            });
            if let Err(v) = gate {
                let detail = format!("attribution pass: mixed-epoch gate refused: {v}");
                return Request::failed(kind, Outcome::CheckFailed, detail, wall);
            }
        }
        Request {
            kind,
            outcome: Outcome::Ok,
            detail: String::new(),
            wall,
            committed: Some(committed),
            counters,
            abandoned: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn aborted(reason: &str) -> MigrationOutcome {
        MigrationOutcome::Aborted { epoch: 2, reason: reason.to_owned() }
    }

    #[test]
    fn a_migration_that_failed_validation_is_a_failed_check() {
        let events = [Event::ValidationFailed { epoch: 2, failures: vec![], at_us: 0 }];
        let outcome = aborted("target plan failed validation");
        let (class, _) = migration_failure(&events, &outcome).expect("not migrated");
        assert_eq!(class, Outcome::CheckFailed);
    }

    #[test]
    fn only_safety_gate_aborts_are_refusals() {
        let gate = [Event::MixedEpochViolated { epoch: 2, detail: String::new(), at_us: 0 }];
        let refused = migration_failure(&gate, &aborted("mixed-epoch window would break"));
        assert_eq!(refused.map(|r| r.0), Some(Outcome::Refused));
        let unscheduled = migration_failure(&[], &aborted("no safe schedule: none"));
        assert_eq!(unscheduled.map(|r| r.0), Some(Outcome::Refused));
        let other = migration_failure(&[], &aborted("use rollout"));
        assert_eq!(other.map(|r| r.0), Some(Outcome::Error));
        let migrated =
            MigrationOutcome::Migrated { epoch: 2, steps: 1, reconfig_us: 1, messages: 1 };
        assert!(migration_failure(&[], &migrated).is_none());
    }
}
