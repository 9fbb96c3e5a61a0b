//! The unified solver architecture: one trait, one search context, and a
//! parallel anytime portfolio runner.
//!
//! Every optimizer in the workspace — the greedy heuristic, the exact
//! branch-over-assignments search, the MILP front end, and the baseline
//! frameworks — implements [`Solver`], the one solver trait. Its
//! [`Solver::solve`] receives a [`SearchContext`] carrying the *only* time
//! budget in the stack (a deadline), a cooperative [`CancelToken`], and a
//! shared incumbent bound, and returns a uniform [`SolveOutcome`]. No
//! solver holds a timer or a budget of its own: the budget-less
//! [`Solver::deploy`] is `solve` under a fresh
//! [`DEFAULT_DEPLOY_BUDGET`] context, and every other caller turns its
//! `Duration` into a context with [`SearchContext::with_time_limit`] or
//! [`SearchContext::with_deadline`]. Constructive solvers, which build one
//! plan without searching, report it through
//! [`SolveOutcome::constructed`].
//!
//! On top of the trait, [`Portfolio`] races any set of solvers on std
//! threads. Fast heuristics publish incumbent objectives early through
//! [`SearchContext::publish_incumbent`]; exhaustive searches prune against
//! the best bound published by *any* thread ([`SearchContext::incumbent_bound`])
//! and stop as soon as a racer proves optimality (cancel-on-proven).
//!
//! # Determinism rules
//!
//! Racing under a wall-clock budget is inherently timing-dependent, so the
//! portfolio constrains *which* result can win:
//!
//! 1. The winner is the outcome with the **lowest objective**; ties break
//!    by **fixed racer priority** (the order solvers were passed in).
//! 2. A racer's own plan must be deterministic given its inputs. The
//!    exact search qualifies even under shared-bound pruning: externally
//!    published bounds always exceed the optimum, so they can never prune
//!    the DFS path to the first optimal leaf, and later equal-valued
//!    leaves are rejected by strict improvement — the returned assignment
//!    is the first optimal leaf in DFS order regardless of timing.
//! 3. `proven_optimal` and per-racer statistics (`nodes_explored`, wall
//!    times) **are** timing-dependent; reproducibility guarantees cover
//!    the winning plan and objective, not the stats.
//!
//! Consequence: with the default `{greedy, exact}` pairing the winning
//! plan is byte-identical across runs whenever the budget either lets the
//! exact racer finish or never lets it beat the heuristic.

use crate::deployment::{DeployError, DeploymentPlan, Epsilon};
use hermes_net::Network;
use hermes_tdg::Tdg;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Sentinel stored in the shared incumbent slot when no bound has been
/// published yet.
pub const NO_BOUND: u64 = u64::MAX;

/// Wall-clock budget of the budget-less [`Solver::deploy`] convenience
/// (matching the historic default of the exact solver).
pub const DEFAULT_DEPLOY_BUDGET: Duration = Duration::from_secs(30);

/// Cooperative cancellation flag shared by every racer of a portfolio.
///
/// Cloning shares the underlying flag. Solvers poll
/// [`SearchContext::should_stop`] at node granularity; nothing is ever
/// interrupted preemptively.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Requests cancellation; every context sharing this token observes it.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// `true` once [`cancel`](Self::cancel) has been called.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }

    /// The raw shared flag, for handing to lower-level searches (e.g. the
    /// `hermes-milp` branch-and-bound controls).
    pub fn as_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.0)
    }
}

/// Everything a [`Solver`] may consult while searching: the deadline, the
/// cancellation token, and the shared incumbent bound.
///
/// This is the single time-budget mechanism of the solver stack — solvers
/// hold no private timers. Cloning shares the token and the bound, so a
/// portfolio hands each racer a clone of one context.
#[derive(Debug, Clone)]
pub struct SearchContext {
    deadline: Option<Instant>,
    cancel: CancelToken,
    incumbent: Arc<AtomicU64>,
    floor: Arc<AtomicU64>,
    /// Worker budget for parallel searches; `None` = available parallelism.
    /// Plain data (not shared through an `Arc`): a portfolio hands every
    /// racer a clone with its own cap so racers × workers never exceed the
    /// requested total.
    threads: Option<NonZeroUsize>,
}

impl Default for SearchContext {
    fn default() -> Self {
        SearchContext::unbounded()
    }
}

impl SearchContext {
    /// Context with no deadline: exhaustive searches run to completion.
    pub fn unbounded() -> Self {
        SearchContext {
            deadline: None,
            cancel: CancelToken::new(),
            incumbent: Arc::new(AtomicU64::new(NO_BOUND)),
            floor: Arc::new(AtomicU64::new(0)),
            threads: None,
        }
    }

    /// Context whose deadline is `limit` from now.
    pub fn with_time_limit(limit: Duration) -> Self {
        SearchContext { deadline: Some(Instant::now() + limit), ..SearchContext::unbounded() }
    }

    /// Context with an absolute deadline.
    pub fn with_deadline(deadline: Instant) -> Self {
        SearchContext { deadline: Some(deadline), ..SearchContext::unbounded() }
    }

    /// The absolute deadline, if any.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// The shared cancellation token.
    pub fn cancel_token(&self) -> &CancelToken {
        &self.cancel
    }

    /// Returns this context with an explicit worker budget for parallel
    /// searches (the parallel exact solver sizes its subtree pool from it).
    /// The budget is per-clone data: capping a racer's clone does not
    /// affect the parent context.
    #[must_use]
    pub fn with_threads(mut self, threads: NonZeroUsize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// The explicit worker budget, if one was set via
    /// [`SearchContext::with_threads`].
    pub fn thread_budget(&self) -> Option<NonZeroUsize> {
        self.threads
    }

    /// The worker count a parallel search should use: the explicit budget,
    /// else [`std::thread::available_parallelism`] (1 when unknown).
    pub fn worker_count(&self) -> usize {
        match self.threads {
            Some(n) => n.get(),
            None => std::thread::available_parallelism().map(NonZeroUsize::get).unwrap_or(1),
        }
    }

    /// The shared incumbent slot, for lower-level searches that consume
    /// the bound directly.
    pub fn shared_incumbent(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.incumbent)
    }

    /// `true` once the deadline has passed.
    pub fn deadline_exceeded(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// `true` when the solver should stop searching: cancelled or past the
    /// deadline. Cheap enough to poll per search node.
    pub fn should_stop(&self) -> bool {
        self.cancel.is_cancelled() || self.deadline_exceeded()
    }

    /// The best objective published by any solver sharing this context
    /// ([`NO_BOUND`] when none has been published).
    pub fn incumbent_bound(&self) -> u64 {
        self.incumbent.load(Ordering::Relaxed)
    }

    /// Publishes `objective` as an achieved upper bound. The slot only
    /// ever decreases (`fetch_min` semantics). Returns `true` when the
    /// publication improved the shared bound.
    ///
    /// Only objectives **achieved by a feasible plan in hand** may be
    /// published — exhaustive racers prune everything at or above this
    /// bound and rely on some racer holding a plan that attains it.
    pub fn publish_incumbent(&self, objective: u64) -> bool {
        self.incumbent.fetch_min(objective, Ordering::Relaxed) > objective
    }

    /// The proven lower bound on the objective (0 when none was raised).
    ///
    /// A feasible plan whose objective reaches this floor is optimal by
    /// construction — no exhaustion proof needed.
    pub fn objective_floor(&self) -> u64 {
        self.floor.load(Ordering::Relaxed)
    }

    /// Raises the objective floor (`fetch_max` semantics — the slot only
    /// ever grows). Returns `true` when `bound` improved the floor.
    ///
    /// Only *proven* lower bounds over all feasible plans may be raised
    /// (e.g. a [`Precheck`](crate::precheck::Precheck) mandatory-cut
    /// certificate): racers treat a plan at the floor as optimal.
    pub fn raise_floor(&self, bound: u64) -> bool {
        self.floor.fetch_max(bound, Ordering::Relaxed) < bound
    }
}

/// Search effort counters attached to every [`SolveOutcome`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SolveStats {
    /// Branch-and-bound / DFS nodes visited (0 for constructive solvers).
    pub nodes_explored: u64,
    /// Wall-clock time the solver ran.
    pub wall: Duration,
    /// When `Some(b)`, the search *proved* that no plan with objective
    /// strictly below `b` exists (exhaustion certificate). Unlike
    /// `proven_optimal` this can certify another racer's plan.
    pub proven_bound: Option<u64>,
}

/// Uniform result of any [`Solver`].
#[derive(Debug, Clone, PartialEq)]
pub struct SolveOutcome {
    /// The best plan the solver found.
    pub plan: DeploymentPlan,
    /// Its `A_max` objective in bytes (Eq. 1) — always recomputed from the
    /// plan, whatever the solver's native objective is.
    pub objective: u64,
    /// `true` iff `plan` is proven `A_max`-optimal (by this solver alone
    /// or, for portfolio outcomes, by any racer's exhaustion certificate).
    pub proven_optimal: bool,
    /// Effort counters.
    pub stats: SolveStats,
}

impl SolveOutcome {
    /// Outcome of a constructive (one-shot) solver that built `plan`
    /// without searching: the objective is published as an incumbent, and
    /// optimality is proven only at zero bytes — a global lower bound.
    pub fn constructed(
        plan: DeploymentPlan,
        tdg: &Tdg,
        ctx: &SearchContext,
        start: Instant,
    ) -> SolveOutcome {
        let objective = plan.max_inter_switch_bytes(tdg);
        ctx.publish_incumbent(objective);
        SolveOutcome {
            plan,
            objective,
            proven_optimal: objective == 0,
            stats: SolveStats {
                nodes_explored: 0,
                wall: start.elapsed(),
                proven_bound: (objective == 0).then_some(0),
            },
        }
    }
}

/// The interface every deployment framework — Hermes, its exact and MILP
/// variants, and every baseline — implements, so experiments sweep
/// algorithms uniformly.
///
/// Implementors must honour the context: poll
/// [`SearchContext::should_stop`] during long searches, prune against
/// [`SearchContext::incumbent_bound`] when exhaustive, and publish every
/// improved feasible objective via [`SearchContext::publish_incumbent`].
pub trait Solver: Send + Sync {
    /// Short display name used in experiment tables (e.g. `"Hermes"`).
    fn name(&self) -> &str;

    /// `true` for solver-backed frameworks whose running time explodes
    /// with instance size (ILP solvers, exhaustive search). Experiment
    /// harnesses cap their reported times the way the paper caps its
    /// execution-time bars at two hours.
    fn is_exhaustive(&self) -> bool {
        false
    }

    /// Runs the search under `ctx` and returns the best outcome found.
    ///
    /// # Errors
    ///
    /// Returns [`DeployError`] when no feasible plan was found — including
    /// [`DeployError::NoImprovementProven`] when an exhaustive racer
    /// finished without beating the shared bound (a proof, not a failure).
    fn solve(
        &self,
        tdg: &Tdg,
        net: &Network,
        eps: &Epsilon,
        ctx: &SearchContext,
    ) -> Result<SolveOutcome, DeployError>;

    /// Produces a deployment of `tdg` onto `net` under the ε-bounds:
    /// [`solve`](Self::solve) under a fresh [`DEFAULT_DEPLOY_BUDGET`]
    /// context. Callers needing another budget, a worker cap, or a shared
    /// incumbent call `solve` with their own context.
    ///
    /// # Errors
    ///
    /// Returns [`DeployError`] when no feasible deployment was found.
    fn deploy(
        &self,
        tdg: &Tdg,
        net: &Network,
        eps: &Epsilon,
    ) -> Result<DeploymentPlan, DeployError> {
        let ctx = SearchContext::with_time_limit(DEFAULT_DEPLOY_BUDGET);
        self.solve(tdg, net, eps, &ctx).map(|o| o.plan)
    }
}

/// Per-racer entry of a [`RaceReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct RacerReport {
    /// The racer's display name.
    pub name: String,
    /// Objective it achieved (`None` when it returned an error).
    pub objective: Option<u64>,
    /// Whether the racer itself claimed optimality.
    pub proven_optimal: bool,
    /// Exhaustion certificate (see [`SolveStats::proven_bound`]) — also
    /// extracted from [`DeployError::NoImprovementProven`] errors.
    pub proven_bound: Option<u64>,
    /// Search nodes the racer visited.
    pub nodes_explored: u64,
    /// Wall-clock time the racer ran before returning.
    pub wall: Duration,
    /// The error message when the racer failed.
    pub error: Option<String>,
}

/// Result of [`Portfolio::race`]: the winning outcome plus per-racer
/// telemetry (objective-over-time summaries for the bench harness).
#[derive(Debug, Clone, PartialEq)]
pub struct RaceReport {
    /// Index into `reports` of the winning racer.
    pub winner: usize,
    /// The winning outcome, with `proven_optimal` upgraded by any racer's
    /// exhaustion certificate.
    pub outcome: SolveOutcome,
    /// Wall-clock time of the whole race.
    pub wall: Duration,
    /// One entry per racer, in priority order.
    pub reports: Vec<RacerReport>,
}

/// Anytime portfolio runner: races solvers on std threads against one
/// shared [`SearchContext`].
///
/// Priority (for deterministic tie-breaking) is the order racers are
/// passed in — put the deterministic heuristic first.
pub struct Portfolio {
    label: String,
    racers: Vec<Box<dyn Solver>>,
    exact_workers: Option<NonZeroUsize>,
}

impl std::fmt::Debug for Portfolio {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Portfolio")
            .field("label", &self.label)
            .field("racers", &self.racers.iter().map(|r| r.name().to_owned()).collect::<Vec<_>>())
            .field("exact_workers", &self.exact_workers)
            .finish()
    }
}

impl Portfolio {
    /// Portfolio over `racers` in priority order.
    pub fn new(label: impl Into<String>, racers: Vec<Box<dyn Solver>>) -> Self {
        Portfolio { label: label.into(), racers, exact_workers: None }
    }

    /// Pins the per-racer worker budget handed to parallel racers (the
    /// exact search) instead of deriving it from the race context.
    #[must_use]
    pub fn with_worker_budget(mut self, workers: NonZeroUsize) -> Self {
        self.exact_workers = Some(workers);
        self
    }

    /// The pinned per-racer worker budget, if any (set by
    /// [`Portfolio::standard`] and [`Portfolio::with_worker_budget`]).
    pub fn worker_budget(&self) -> Option<NonZeroUsize> {
        self.exact_workers
    }

    /// The worker budget each racer's child context will carry in
    /// [`Portfolio::race`]: the pinned budget when set, otherwise the
    /// context's thread count minus one OS thread per *other* racer, so
    /// racers × workers never exceeds the requested total. Every racer but
    /// the parallel exact search is single-threaded, so reserving one
    /// thread each is exact, not an estimate.
    pub fn planned_workers(&self, ctx: &SearchContext) -> NonZeroUsize {
        self.exact_workers.unwrap_or_else(|| {
            let spare = ctx.worker_count().saturating_sub(self.racers.len().saturating_sub(1));
            NonZeroUsize::new(spare.max(1)).expect("max(1) is nonzero")
        })
    }

    /// The default deterministic pairing: the greedy heuristic publishes
    /// an incumbent within milliseconds, the bare exact search (no
    /// internal heuristic seed) prunes against it.
    pub fn greedy_exact() -> Self {
        Portfolio::new(
            "Portfolio",
            vec![
                Box::new(crate::heuristic::GreedyHeuristic::new()),
                Box::new(crate::exact::OptimalSolver::bare()),
            ],
        )
    }

    /// Preset sized to `threads` total OS threads: 1 → greedy; 2 → greedy
    /// + exact; 3 → + MILP; 4 and up → + balanced-split greedy.
    ///
    /// The exact racer's internal worker pool is budgeted so racers ×
    /// workers ≤ `threads`: one OS thread per single-threaded racer, the
    /// remainder to the parallel exact search (never below 1).
    pub fn standard(threads: usize) -> Self {
        use crate::heuristic::{GreedyHeuristic, SplitStrategy};
        let mut racers: Vec<Box<dyn Solver>> = vec![Box::new(GreedyHeuristic::new())];
        if threads >= 2 {
            racers.push(Box::new(crate::exact::OptimalSolver::bare()));
        }
        if threads >= 3 {
            racers.push(Box::new(crate::milp_formulation::MilpHermes::default()));
        }
        if threads >= 4 {
            racers.push(Box::new(GreedyHeuristic::with_strategy(SplitStrategy::Balanced)));
        }
        let workers = threads.saturating_sub(racers.len().saturating_sub(1)).max(1);
        Portfolio::new(format!("Portfolio(x{})", racers.len()), racers)
            .with_worker_budget(NonZeroUsize::new(workers).expect("max(1) is nonzero"))
    }

    /// The racers' names, in priority order.
    pub fn racer_names(&self) -> Vec<&str> {
        self.racers.iter().map(|r| r.name()).collect()
    }

    /// Races every solver on its own thread under clones of `ctx` and
    /// returns the deterministic winner plus per-racer telemetry.
    ///
    /// A racer that finishes with a proven-optimal outcome cancels the
    /// rest. Racer panics are demoted to per-racer errors.
    ///
    /// # Errors
    ///
    /// Returns the highest-priority racer error when no racer produced a
    /// plan.
    pub fn race(
        &self,
        tdg: &Tdg,
        net: &Network,
        eps: &Epsilon,
        ctx: &SearchContext,
    ) -> Result<RaceReport, DeployError> {
        if self.racers.is_empty() {
            return Err(DeployError::NoFeasiblePlacement {
                reason: "portfolio has no racers".to_owned(),
            });
        }
        // Pre-solve bounds: a proven-infeasible instance returns instantly
        // (certificate in hand) instead of burning the budget; a proven
        // A_max floor seeds the shared context so a racer reaching it is
        // optimal without an exhaustion proof.
        let precheck = crate::precheck::Precheck::run(tdg, net, eps);
        if let Some(cert) = precheck.infeasible() {
            return Err(DeployError::ProvenInfeasible { certificate: cert.clone() });
        }
        ctx.raise_floor(precheck.amax_floor());
        // Cap every racer's internal worker pool so the race as a whole
        // respects the requested thread budget (racers × workers ≤ total).
        let workers = self.planned_workers(ctx);
        let start = Instant::now();
        let results: Vec<Result<SolveOutcome, DeployError>> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .racers
                .iter()
                .map(|racer| {
                    let child = ctx.clone().with_threads(workers);
                    scope.spawn(move || {
                        let result = racer.solve(tdg, net, eps, &child);
                        if let Ok(outcome) = &result {
                            // Belt and braces: solvers publish themselves,
                            // but the race must never lose a bound.
                            child.publish_incumbent(outcome.objective);
                            // A plan at the proven objective floor cannot
                            // be beaten — stop the other racers too.
                            if outcome.proven_optimal
                                || outcome.objective <= child.objective_floor()
                            {
                                child.cancel_token().cancel();
                            }
                        }
                        result
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join().unwrap_or_else(|_| {
                        Err(DeployError::NoFeasiblePlacement {
                            reason: "solver thread panicked".to_owned(),
                        })
                    })
                })
                .collect()
        });
        let wall = start.elapsed();

        let reports: Vec<RacerReport> = self
            .racers
            .iter()
            .zip(&results)
            .map(|(racer, result)| match result {
                Ok(o) => RacerReport {
                    name: racer.name().to_owned(),
                    objective: Some(o.objective),
                    proven_optimal: o.proven_optimal,
                    proven_bound: o.stats.proven_bound,
                    nodes_explored: o.stats.nodes_explored,
                    wall: o.stats.wall,
                    error: None,
                },
                Err(e) => RacerReport {
                    name: racer.name().to_owned(),
                    objective: None,
                    proven_optimal: false,
                    proven_bound: match e {
                        DeployError::NoImprovementProven { bound } => Some(*bound),
                        _ => None,
                    },
                    nodes_explored: 0,
                    wall,
                    error: Some(e.to_string()),
                },
            })
            .collect();

        // Deterministic winner: lowest objective, then racer priority.
        let winner = match results
            .iter()
            .enumerate()
            .filter_map(|(i, r)| r.as_ref().ok().map(|o| (o.objective, i)))
            .min()
        {
            Some((_, i)) => i,
            None => {
                // No plan anywhere: surface the highest-priority hard
                // error (a pure exhaustion proof means the bound came
                // from outside this race).
                let err = results
                    .into_iter()
                    .map(|r| r.expect_err("no Ok result"))
                    .find(|e| !matches!(e, DeployError::NoImprovementProven { .. }))
                    .unwrap_or(DeployError::NoFeasiblePlacement {
                        reason: "every racer proved the external bound unimprovable".to_owned(),
                    });
                return Err(err);
            }
        };
        let mut outcome = results.into_iter().nth(winner).expect("winner index").expect("is Ok");
        // Any racer's exhaustion certificate at or above the winning
        // objective — or the precheck's proven floor — certifies the
        // winner optimal.
        if reports.iter().filter_map(|r| r.proven_bound).any(|b| outcome.objective <= b)
            || outcome.objective <= ctx.objective_floor()
        {
            outcome.proven_optimal = true;
        }
        Ok(RaceReport { winner, outcome, wall, reports })
    }
}

impl Solver for Portfolio {
    fn name(&self) -> &str {
        &self.label
    }

    fn is_exhaustive(&self) -> bool {
        self.racers.iter().any(|r| r.is_exhaustive())
    }

    fn solve(
        &self,
        tdg: &Tdg,
        net: &Network,
        eps: &Epsilon,
        ctx: &SearchContext,
    ) -> Result<SolveOutcome, DeployError> {
        let race = self.race(tdg, net, eps, ctx)?;
        let mut outcome = race.outcome;
        outcome.stats = SolveStats {
            nodes_explored: race.reports.iter().map(|r| r.nodes_explored).sum(),
            wall: race.wall,
            proven_bound: race.reports.iter().filter_map(|r| r.proven_bound).max(),
        };
        Ok(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::OptimalSolver;
    use crate::heuristic::GreedyHeuristic;
    use crate::test_support::{chain_tdg, tiny_switches};

    #[test]
    fn context_publish_is_monotone() {
        let ctx = SearchContext::unbounded();
        assert_eq!(ctx.incumbent_bound(), NO_BOUND);
        assert!(ctx.publish_incumbent(10));
        assert!(!ctx.publish_incumbent(12), "larger bound must not stick");
        assert_eq!(ctx.incumbent_bound(), 10);
        assert!(ctx.publish_incumbent(3));
        assert_eq!(ctx.incumbent_bound(), 3);
    }

    #[test]
    fn cancel_token_is_shared_by_clones() {
        let ctx = SearchContext::unbounded();
        let clone = ctx.clone();
        assert!(!ctx.should_stop());
        clone.cancel_token().cancel();
        assert!(ctx.should_stop());
    }

    #[test]
    fn deadline_in_the_past_stops_immediately() {
        let ctx = SearchContext::with_time_limit(Duration::ZERO);
        assert!(ctx.should_stop());
    }

    #[test]
    fn portfolio_matches_exact_and_proves() {
        let tdg = chain_tdg(&[1, 4], 0.5);
        let net = tiny_switches(2, 2, 0.5);
        let eps = Epsilon::loose();
        let race = Portfolio::greedy_exact()
            .race(&tdg, &net, &eps, &SearchContext::with_time_limit(Duration::from_secs(10)))
            .unwrap();
        assert_eq!(race.outcome.objective, 1);
        assert!(race.outcome.proven_optimal, "{:?}", race.reports);
    }

    #[test]
    fn portfolio_never_worse_than_greedy_alone() {
        let tdg = chain_tdg(&[3, 1, 4, 1, 5], 0.5);
        let net = tiny_switches(3, 2, 0.5);
        let eps = Epsilon::loose();
        let greedy = GreedyHeuristic::new()
            .solve(&tdg, &net, &eps, &SearchContext::unbounded())
            .unwrap()
            .objective;
        let portfolio = Portfolio::greedy_exact()
            .solve(&tdg, &net, &eps, &SearchContext::with_time_limit(Duration::from_secs(10)))
            .unwrap()
            .objective;
        assert!(portfolio <= greedy, "portfolio {portfolio} > greedy {greedy}");
    }

    #[test]
    fn shared_bound_prunes_the_exact_search() {
        // The same instance explored bare vs with a pre-published greedy
        // bound: the bound must strictly reduce the node count.
        let tdg = chain_tdg(&[1, 2, 3, 4, 5, 6], 0.5);
        let net = tiny_switches(4, 2, 0.5);
        let eps = Epsilon::loose();
        let bare = OptimalSolver::bare()
            .solve(&tdg, &net, &eps, &SearchContext::unbounded())
            .unwrap()
            .stats
            .nodes_explored;
        let seeded_ctx = SearchContext::unbounded();
        let greedy = GreedyHeuristic::new().solve(&tdg, &net, &eps, &seeded_ctx).unwrap().objective;
        assert!(seeded_ctx.incumbent_bound() <= greedy);
        let bounded = OptimalSolver::bare()
            .solve(&tdg, &net, &eps, &seeded_ctx)
            .map(|o| o.stats.nodes_explored)
            .unwrap_or(0);
        assert!(bounded < bare, "bound did not prune: {bounded} >= {bare}");
    }

    #[test]
    fn empty_portfolio_is_an_error() {
        let tdg = chain_tdg(&[1], 0.5);
        let net = tiny_switches(2, 2, 0.5);
        let err = Portfolio::new("empty", Vec::new())
            .race(&tdg, &net, &Epsilon::loose(), &SearchContext::unbounded())
            .unwrap_err();
        assert!(matches!(err, DeployError::NoFeasiblePlacement { .. }));
    }

    #[test]
    fn deploy_solves_under_the_default_budget() {
        let tdg = chain_tdg(&[1, 4], 0.5);
        let net = tiny_switches(2, 2, 0.5);
        let algo = OptimalSolver::default();
        assert_eq!(algo.name(), "Optimal");
        assert!(algo.is_exhaustive());
        let plan = algo.deploy(&tdg, &net, &Epsilon::loose()).unwrap();
        assert_eq!(plan.max_inter_switch_bytes(&tdg), 1);
    }

    #[test]
    fn constructed_outcome_publishes_and_proves_only_zero() {
        // Three 0.5 MATs cannot share one 2-stage switch: the plan splits.
        let tdg = chain_tdg(&[3, 1], 0.5);
        let net = tiny_switches(2, 2, 0.5);
        let plan = GreedyHeuristic::new().deploy(&tdg, &net, &Epsilon::loose()).unwrap();
        let ctx = SearchContext::unbounded();
        let split = SolveOutcome::constructed(plan, &tdg, &ctx, Instant::now());
        assert!(split.objective > 0);
        assert!(!split.proven_optimal);
        assert_eq!(split.stats.proven_bound, None);
        assert_eq!(ctx.incumbent_bound(), split.objective);
        let zero = SolveOutcome::constructed(DeploymentPlan::new(), &tdg, &ctx, Instant::now());
        assert!(zero.proven_optimal);
        assert_eq!(zero.stats.proven_bound, Some(0));
        assert_eq!(ctx.incumbent_bound(), 0);
    }

    #[test]
    fn standard_presets_scale_with_threads() {
        assert_eq!(Portfolio::standard(1).racer_names().len(), 1);
        assert_eq!(Portfolio::standard(2).racer_names().len(), 2);
        assert_eq!(Portfolio::standard(4).racer_names().len(), 4);
        assert_eq!(Portfolio::standard(16).racer_names().len(), 4);
    }

    #[test]
    fn standard_presets_budget_workers_within_requested_threads() {
        // racers × workers ≤ requested: every single-threaded racer
        // reserves one OS thread, the exact racer gets the remainder.
        for (threads, racers, workers) in
            [(1, 1, 1), (2, 2, 1), (3, 3, 1), (4, 4, 1), (8, 4, 5), (16, 4, 13)]
        {
            let p = Portfolio::standard(threads);
            assert_eq!(p.racer_names().len(), racers, "racers at {threads}");
            let budget = p.worker_budget().expect("standard pins a budget").get();
            assert_eq!(budget, workers, "workers at {threads}");
            assert!(budget + racers - 1 <= threads.max(1), "oversubscribed at {threads}");
            // The pinned budget wins over whatever the race context says.
            let ctx = SearchContext::unbounded()
                .with_threads(std::num::NonZeroUsize::new(64).expect("nonzero"));
            assert_eq!(p.planned_workers(&ctx).get(), workers);
        }
        // Without a pinned budget the context's thread count is split.
        let p = Portfolio::new("P", vec![]);
        let ctx = SearchContext::unbounded()
            .with_threads(std::num::NonZeroUsize::new(6).expect("nonzero"));
        assert_eq!(p.planned_workers(&ctx).get(), 6);
    }

    #[test]
    fn context_floor_is_monotone_and_shared() {
        let ctx = SearchContext::unbounded();
        assert_eq!(ctx.objective_floor(), 0);
        assert!(ctx.raise_floor(7));
        assert!(!ctx.raise_floor(5), "lower floor must not stick");
        let clone = ctx.clone();
        assert_eq!(clone.objective_floor(), 7);
        assert!(clone.raise_floor(9));
        assert_eq!(ctx.objective_floor(), 9);
    }

    #[test]
    fn portfolio_returns_proven_infeasible_instantly() {
        // eps2 = 1 but the 4 x 0.5 MATs need two 1.0-capacity switches:
        // the precheck settles it without consuming the 10 s budget.
        let tdg = chain_tdg(&[1, 1, 1], 0.5);
        let net = tiny_switches(3, 2, 0.5);
        let eps = Epsilon::new(f64::INFINITY, 1);
        let start = Instant::now();
        let err = Portfolio::greedy_exact()
            .race(&tdg, &net, &eps, &SearchContext::with_time_limit(Duration::from_secs(10)))
            .unwrap_err();
        assert!(matches!(err, DeployError::ProvenInfeasible { .. }), "{err}");
        assert!(start.elapsed() < Duration::from_millis(100), "{:?}", start.elapsed());
    }

    #[test]
    fn mandatory_cut_floor_certifies_the_winner() {
        // Two 0.7 MATs cannot share a 1.0-capacity switch, so A_max >= 9;
        // any plan achieving 9 is optimal via the floor alone.
        let tdg = chain_tdg(&[9], 0.7);
        let net = tiny_switches(2, 2, 0.5);
        let ctx = SearchContext::with_time_limit(Duration::from_secs(10));
        let race = Portfolio::greedy_exact().race(&tdg, &net, &Epsilon::loose(), &ctx).unwrap();
        assert_eq!(ctx.objective_floor(), 9);
        assert_eq!(race.outcome.objective, 9);
        assert!(race.outcome.proven_optimal);
    }

    #[test]
    fn race_is_deterministic_on_small_instances() {
        let tdg = chain_tdg(&[2, 7, 1, 8, 2], 0.5);
        let net = tiny_switches(3, 2, 0.5);
        let eps = Epsilon::loose();
        let run = || {
            let race = Portfolio::greedy_exact()
                .race(&tdg, &net, &eps, &SearchContext::with_time_limit(Duration::from_secs(10)))
                .unwrap();
            (race.winner, race.outcome.objective, race.outcome.plan)
        };
        let first = run();
        for _ in 0..3 {
            assert_eq!(run(), first);
        }
    }
}
