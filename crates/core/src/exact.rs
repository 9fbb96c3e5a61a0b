//! The "Optimal" solver: exact minimization of `A_max`.
//!
//! Plays the role of the paper's Gurobi-based Hermes variant. Rather than
//! feeding the full stage-level MILP to the LP-based solver (see
//! [`crate::milp_formulation`] for that encoding), this solver branches
//! directly over MAT → switch assignments in topological order with
//! aggressive incumbent pruning:
//!
//! - the running `A_max` is monotone in the partial assignment, so any
//!   partial plan at or above the incumbent is cut;
//! - all per-step bookkeeping (pair bytes, the running `A_max`, per-switch
//!   occupancy, switch-order acyclicity) lives in one per-worker
//!   [`IncrementalEval`] updated in O(delta) per place/unplace;
//! - each candidate switch carries a live incremental pipeline packing
//!   with exact-snapshot undo (`Packing::push_logged` / `revert`): because
//!   nodes are assigned in topological order, the per-switch packed state
//!   is exactly the prefix of a full repack, so pushing the node *is* the
//!   stage-feasibility check and rejects precisely the subtrees whose
//!   leaves would fail stage assignment — no accepted leaf changes;
//! - under an infinite latency bound with fully routable candidates,
//!   leaves are accepted from the evaluator's running objective alone,
//!   without materializing a plan;
//! - identical switches under loose ε-bounds are interchangeable, so the
//!   search only ever opens one fresh switch at a time (symmetry breaking);
//! - the pruning bound combines the subtree's own best leaf, the incumbent
//!   captured at solve entry, and the live shared incumbent of the
//!   [`SearchContext`] — in a [`crate::solver::Portfolio`] race the greedy
//!   racer's early bound prunes this search;
//! - in stand-alone (seeded) mode the greedy heuristic provides the
//!   initial incumbent.
//!
//! # Parallel search
//!
//! The DFS is sharded into **work-stealing subtree tasks**: a breadth-first
//! frontier expansion (in exact DFS candidate order) splits the tree at a
//! depth where enough independent subtree roots exist to feed the worker
//! pool, the roots are dealt round-robin to per-worker deques, and each
//! scoped worker runs an iterative DFS over its claimed subtrees with its
//! own reversible [`IncrementalEval`] + stage-packing state (reset and
//! replayed per root — no cross-worker sharing of mutable state). Idle
//! workers steal from the back of a victim's deque. Search frames live in
//! a per-worker arena (`Vec<Frame>`) that is reused across subtrees, so
//! steady-state search allocates nothing.
//!
//! **Determinism:** results are byte-identical to the sequential search
//! regardless of worker count or timing. Each worker accepts a leaf only
//! when it strictly beats `min(its subtree's best, the incumbent bound
//! captured at solve entry)` — both timing-independent quantities — while
//! the *live* shared incumbent is only used to cut subtrees whose partial
//! objective strictly exceeds it (which can never contain a leaf matching
//! the global optimum, since every published incumbent is a feasible
//! objective). The final answer is the lexicographic minimum over
//! `(objective, canonical subtree index)`, i.e. the lowest-index optimal
//! solution — exactly the leaf the sequential DFS would have accepted
//! last. `NoImprovementProven` certificates are only issued when the
//! frontier enumeration and every subtree ran to completion.
//!
//! The [`SearchContext`] deadline bounds the worst case (polled per
//! worker); the outcome reports whether optimality was proven, which the
//! execution-time experiment (Exp#3) uses to flag timed-out ILP-style
//! runs.

use crate::deployment::{DeployError, DeploymentPlan, Epsilon, PlanRoute};
use crate::eval::IncrementalEval;
use crate::heuristic::GreedyHeuristic;
use crate::solver::{SearchContext, SolveOutcome, SolveStats, Solver};
use crate::stage_assign::{assign_stages, Packing};
use hermes_net::{shortest_path, Network, SwitchId};
use hermes_tdg::{NodeId, Tdg};
use std::collections::{BTreeSet, VecDeque};
use std::sync::Mutex;
use std::time::Instant;

/// Exact `A_max` minimizer driven entirely by a [`SearchContext`] (no
/// private time budget).
#[derive(Debug, Clone)]
pub struct OptimalSolver {
    /// When `true` (the default), the greedy heuristic seeds the incumbent
    /// before the search, so a deadline expiry still returns a plan. A
    /// portfolio uses [`OptimalSolver::bare`] instead — the greedy racer
    /// already publishes that incumbent, and re-deriving it here would
    /// erase the portfolio's wall-clock advantage.
    pub seed_with_heuristic: bool,
    /// Target number of subtree roots per worker when splitting the search
    /// tree (the frontier deepens until `workers × roots_per_worker` roots
    /// exist or the tree is exhausted). More roots smooth work-stealing
    /// load balance at the cost of more prefix replays. Clamped to ≥ 1.
    pub roots_per_worker: usize,
}

impl Default for OptimalSolver {
    fn default() -> Self {
        OptimalSolver { seed_with_heuristic: true, roots_per_worker: 8 }
    }
}

impl OptimalSolver {
    /// The stand-alone configuration (greedy-seeded incumbent).
    pub fn new() -> Self {
        OptimalSolver::default()
    }

    /// The portfolio configuration: no internal heuristic seed; the
    /// incumbent bound arrives through the shared [`SearchContext`].
    pub fn bare() -> Self {
        OptimalSolver { seed_with_heuristic: false, ..OptimalSolver::default() }
    }

    /// Like [`Solver::solve`], but also reports parallel-search telemetry
    /// (worker/steal/prune counters) alongside the outcome. Telemetry is
    /// zeroed on the trivial early-out paths that never start a search.
    pub fn solve_instrumented(
        &self,
        tdg: &Tdg,
        net: &Network,
        eps: &Epsilon,
        ctx: &SearchContext,
    ) -> (Result<SolveOutcome, DeployError>, ParallelStats) {
        let start = Instant::now();
        let candidates = net.programmable_switches();
        if candidates.is_empty() {
            return (Err(DeployError::NoProgrammableSwitch), ParallelStats::default());
        }
        if tdg.node_count() == 0 {
            ctx.publish_incumbent(0);
            return (
                Ok(SolveOutcome {
                    plan: DeploymentPlan::new(),
                    objective: 0,
                    proven_optimal: true,
                    stats: SolveStats {
                        nodes_explored: 0,
                        wall: start.elapsed(),
                        proven_bound: Some(0),
                    },
                }),
                ParallelStats::default(),
            );
        }

        // Stand-alone mode: seed with the heuristic so deadline expiry
        // still has a plan to return.
        let mut seed_plan: Option<(u64, DeploymentPlan)> = None;
        if self.seed_with_heuristic {
            if let Ok(plan) = GreedyHeuristic::new().deploy(tdg, net, eps) {
                let objective = plan.max_inter_switch_bytes(tdg);
                ctx.publish_incumbent(objective);
                if objective == 0 {
                    // A zero-overhead incumbent is already optimal.
                    return (
                        Ok(SolveOutcome {
                            plan,
                            objective: 0,
                            proven_optimal: true,
                            stats: SolveStats {
                                nodes_explored: 0,
                                wall: start.elapsed(),
                                proven_bound: Some(0),
                            },
                        }),
                        ParallelStats::default(),
                    );
                }
                seed_plan = Some((objective, plan));
            }
        }
        if ctx.incumbent_bound() == 0 {
            // Nothing can beat a zero bound published elsewhere.
            return (
                match seed_plan {
                    Some((objective, plan)) => Ok(SolveOutcome {
                        plan,
                        objective,
                        proven_optimal: false,
                        stats: SolveStats {
                            nodes_explored: 0,
                            wall: start.elapsed(),
                            proven_bound: Some(0),
                        },
                    }),
                    None => Err(DeployError::NoImprovementProven { bound: 0 }),
                },
                ParallelStats::default(),
            );
        }

        let order = tdg.topo_order().expect("TDGs are DAGs");
        let q = candidates.len();
        assert!(q <= usize::from(u16::MAX), "candidate index must fit u16");
        let symmetric = eps.max_latency_us.is_infinite()
            && candidates.windows(2).all(|w| {
                net.switch(w[0]).target_model().symmetric_to(&net.switch(w[1]).target_model())
            });

        // Leaf fast path precondition: with no latency bound and every
        // ordered candidate pair routable, a stage-feasible full assignment
        // is always materializable, so leaves can be scored from the
        // evaluator's running objective without building a plan.
        let all_pairs_routable = (0..q).all(|a| {
            (0..q).all(|b| a == b || shortest_path(net, candidates[a], candidates[b]).is_some())
        });
        let total_caps: Vec<f64> =
            candidates.iter().map(|&id| net.switch(id).total_capacity()).collect();

        let shared = SharedSearch {
            tdg,
            net,
            eps,
            order: &order,
            candidates: &candidates,
            symmetric,
            fast_leaves: eps.max_latency_us.is_infinite() && all_pairs_routable,
            total_caps,
            // The acceptance ceiling every worker prunes and records
            // against. Read once, after seed publication, so it is a
            // deterministic function of the solver's inputs — the live
            // incumbent may drop below it mid-search but only ever
            // tightens the (timing-safe) strict cut in `Explorer::cut`.
            entry_bound: ctx.incumbent_bound(),
            ctx,
        };

        let requested_workers = ctx.worker_count().max(1);
        let target_roots = requested_workers * self.roots_per_worker.max(1);

        // Phase 1: deterministic frontier enumeration (single-threaded,
        // exact DFS candidate order) splitting the tree into independent
        // subtree roots.
        let mut enumerator = Explorer::new(&shared);
        let frontier = build_frontier(&mut enumerator, target_roots);
        let enum_explored = enumerator.explored;
        let enum_stopped = enumerator.stopped;
        drop(enumerator);

        // Phase 2: work-stealing subtree execution.
        let workers = if enum_stopped || frontier.count == 0 {
            0
        } else {
            requested_workers.min(frontier.count)
        };
        let queues: Vec<Mutex<VecDeque<u32>>> = (0..workers.max(1))
            .map(|w| {
                Mutex::new(
                    (0..frontier.count as u32)
                        .filter(|r| *r as usize % workers.max(1) == w)
                        .collect(),
                )
            })
            .collect();
        let outs: Vec<WorkerOut> = if workers <= 1 {
            if workers == 1 {
                vec![run_worker(&shared, &frontier, &queues, 0)]
            } else {
                Vec::new()
            }
        } else {
            std::thread::scope(|scope| {
                let shared = &shared;
                let frontier = &frontier;
                let queues = &queues;
                let handles: Vec<_> = (0..workers)
                    .map(|w| scope.spawn(move || run_worker(shared, frontier, queues, w)))
                    .collect();
                handles.into_iter().map(|h| h.join().expect("worker thread panicked")).collect()
            })
        };

        // Phase 3: deterministic reduction — the lexicographic minimum
        // over (objective, canonical subtree index), i.e. the lowest-index
        // optimal solution, exactly what the sequential DFS returns.
        let mut best: Option<(u64, u32)> = None;
        let mut best_assign: Option<Vec<usize>> = None;
        let mut explored = enum_explored;
        let mut bound_prunes = 0u64;
        let mut steals = 0u64;
        let mut worker_stopped = false;
        for out in outs {
            explored += out.explored;
            bound_prunes += out.bound_prunes;
            steals += out.steals;
            worker_stopped |= out.stopped;
            if let Some(key) = out.best {
                if best.is_none_or(|b| key < b) {
                    best = Some(key);
                    best_assign = Some(out.best_assign);
                }
            }
        }
        let exhausted = !enum_stopped && !worker_stopped;
        let mut own_best = seed_plan.as_ref().map(|(obj, _)| *obj).unwrap_or(u64::MAX);
        if let Some((obj, _)) = best {
            own_best = own_best.min(obj);
        }
        let pstats = ParallelStats {
            workers,
            frontier_depth: frontier.depth,
            subtree_roots: frontier.count,
            steals,
            bound_prunes,
        };

        let mut best_plan = seed_plan;
        if let Some(assign) = best_assign {
            if let Some(plan) = materialize(tdg, net, &candidates, &assign) {
                best_plan = Some((plan.max_inter_switch_bytes(tdg).min(own_best), plan));
            }
        }
        // Exhaustion proves that no plan strictly below the final
        // effective bound (own best ∧ shared bound) was missed.
        let shared_bound = ctx.incumbent_bound();
        let proven_bound = exhausted.then_some(own_best.min(shared_bound));
        let result = match best_plan {
            Some((objective, plan)) => Ok(SolveOutcome {
                plan,
                objective,
                proven_optimal: exhausted && objective <= shared_bound,
                stats: SolveStats { nodes_explored: explored, wall: start.elapsed(), proven_bound },
            }),
            None if exhausted && shared_bound != crate::solver::NO_BOUND => {
                Err(DeployError::NoImprovementProven { bound: shared_bound })
            }
            None => Err(DeployError::NoFeasiblePlacement {
                reason: if exhausted {
                    "exhausted assignment search without a feasible plan".to_owned()
                } else {
                    "search budget expired before any feasible plan".to_owned()
                },
            }),
        };
        (result, pstats)
    }
}

impl Solver for OptimalSolver {
    fn name(&self) -> &str {
        "Optimal"
    }

    fn is_exhaustive(&self) -> bool {
        true
    }

    fn solve(
        &self,
        tdg: &Tdg,
        net: &Network,
        eps: &Epsilon,
        ctx: &SearchContext,
    ) -> Result<SolveOutcome, DeployError> {
        self.solve_instrumented(tdg, net, eps, ctx).0
    }
}

/// Telemetry of one parallel exact solve (see
/// [`OptimalSolver::solve_instrumented`]). Unlike
/// [`SolveStats`], these counters are *not* part of the deterministic
/// outcome: steal counts and live-bound prune counts depend on thread
/// timing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ParallelStats {
    /// Worker threads the subtree pool actually ran with.
    pub workers: usize,
    /// Depth of the subtree-splitting frontier.
    pub frontier_depth: usize,
    /// Number of independent subtree roots dealt to the pool.
    pub subtree_roots: usize,
    /// Subtree roots claimed from another worker's deque.
    pub steals: u64,
    /// Nodes cut by the incumbent bound (entry or live).
    pub bound_prunes: u64,
}

/// Immutable per-solve state shared (by reference) across workers.
struct SharedSearch<'a> {
    tdg: &'a Tdg,
    net: &'a Network,
    eps: &'a Epsilon,
    order: &'a [NodeId],
    candidates: &'a [SwitchId],
    symmetric: bool,
    /// Leaves may be scored from `eval.amax()` without materializing.
    fast_leaves: bool,
    /// Per-candidate [`hermes_net::TargetModel::total_capacity`] (budget
    /// clamp included).
    total_caps: Vec<f64>,
    /// Incumbent bound captured once at solve entry (after seed
    /// publication): the deterministic acceptance ceiling.
    entry_bound: u64,
    ctx: &'a SearchContext,
}

/// Sentinel candidate index for "nothing placed at this frame".
const NO_CANDIDATE: u32 = u32::MAX;

/// One level of the iterative DFS, in the per-worker frame arena.
#[derive(Debug, Clone, Copy)]
struct Frame {
    /// Next candidate index to try at this depth.
    next_c: u32,
    /// Candidate currently placed at this depth ([`NO_CANDIDATE`] = none).
    placed_c: u32,
    /// Undo-log base of the current placement's `push_logged`.
    log_base: u32,
    /// Symmetry-break cap (occupied switches at frame entry).
    used_switches: u32,
}

/// The deterministic subtree frontier: `count` prefixes of length `depth`
/// flattened into `prefixes` (stride = `depth`), in exact DFS candidate
/// order. The prefix index is the canonical subtree index used for
/// tie-breaking.
struct Frontier {
    prefixes: Vec<u16>,
    count: usize,
    depth: usize,
}

impl Frontier {
    fn prefix(&self, root: u32) -> &[u16] {
        let base = root as usize * self.depth;
        &self.prefixes[base..base + self.depth]
    }
}

/// Expands the search tree breadth-first (in DFS candidate order, applying
/// only deterministic prunes) until at least `target` independent subtree
/// roots exist, the tree bottoms out, or the context stops the search.
/// A level that expands to zero prefixes proves the tree has no feasible
/// leaves below the entry bound.
fn build_frontier(ex: &mut Explorer<'_>, target: usize) -> Frontier {
    let n = ex.sh.order.len();
    let mut level: Vec<u16> = Vec::new();
    let mut count = 1usize; // depth 0: the single empty prefix
    let mut depth = 0usize;
    while depth < n && count < target && count > 0 {
        let mut next: Vec<u16> = Vec::with_capacity(count.saturating_mul(depth + 2));
        let mut next_count = 0usize;
        for i in 0..count {
            let prefix = &level[i * depth..(i + 1) * depth];
            next_count += ex.expand(prefix, &mut next);
            if ex.stopped {
                return Frontier { prefixes: Vec::new(), count: 0, depth };
            }
        }
        level = next;
        count = next_count;
        depth += 1;
    }
    Frontier { prefixes: level, count, depth }
}

/// Claims the next subtree root for worker `me`: own deque front first
/// (preserving canonical order), then steal from the back of the first
/// non-empty victim.
fn claim(queues: &[Mutex<VecDeque<u32>>], me: usize, steals: &mut u64) -> Option<u32> {
    if let Some(r) = queues[me].lock().expect("queue lock").pop_front() {
        return Some(r);
    }
    for off in 1..queues.len() {
        let victim = (me + off) % queues.len();
        if let Some(r) = queues[victim].lock().expect("queue lock").pop_back() {
            *steals += 1;
            return Some(r);
        }
    }
    None
}

/// Per-worker result, merged by the deterministic reduction.
struct WorkerOut {
    /// Best `(objective, canonical subtree index)` this worker accepted.
    best: Option<(u64, u32)>,
    best_assign: Vec<usize>,
    explored: u64,
    bound_prunes: u64,
    steals: u64,
    stopped: bool,
}

fn run_worker(
    sh: &SharedSearch<'_>,
    frontier: &Frontier,
    queues: &[Mutex<VecDeque<u32>>],
    me: usize,
) -> WorkerOut {
    let mut ex = Explorer::new(sh);
    let mut steals = 0u64;
    while !ex.stopped {
        let Some(root) = claim(queues, me, &mut steals) else { break };
        ex.run_root(root, frontier.prefix(root));
    }
    WorkerOut {
        best: ex.best,
        best_assign: ex.best_assign,
        explored: ex.explored,
        bound_prunes: ex.bound_prunes,
        steals,
        stopped: ex.stopped,
    }
}

/// A worker's private search state: one reversible evaluator + packing
/// set, reset and replayed per claimed subtree, plus the reusable frame
/// arena of the iterative DFS. Nothing here is shared across workers.
struct Explorer<'a> {
    sh: &'a SharedSearch<'a>,
    eval: IncrementalEval,
    /// Per-candidate incremental pipeline state: nodes reach each switch
    /// in topological order, so the packed state always equals the prefix
    /// state of a full repack — pushing is the exact stage-feasibility
    /// check for the grown set, with O(slices) undo.
    packings: Vec<Packing>,
    /// Shared undo log for [`Packing::push_logged`]; each DFS frame
    /// remembers its base index and reverts to it.
    stage_log: Vec<(u32, f64)>,
    /// Frame arena of the iterative DFS, reused across subtrees.
    frames: Vec<Frame>,
    /// Best objective in the subtree currently being explored.
    root_best: u64,
    root_found: bool,
    /// Assignment of the current subtree's best leaf.
    root_assign: Vec<usize>,
    /// Best `(objective, subtree index)` across this worker's subtrees.
    best: Option<(u64, u32)>,
    best_assign: Vec<usize>,
    explored: u64,
    bound_prunes: u64,
    stopped: bool,
}

impl<'a> Explorer<'a> {
    fn new(sh: &'a SharedSearch<'a>) -> Self {
        let n = sh.tdg.node_count();
        Explorer {
            sh,
            eval: IncrementalEval::new(sh.tdg, sh.candidates.len()),
            packings: sh
                .candidates
                .iter()
                .map(|&id| Packing::new(&sh.net.switch(id).target_model(), n))
                .collect(),
            stage_log: Vec::with_capacity(64),
            frames: Vec::with_capacity(n),
            root_best: u64::MAX,
            root_found: false,
            root_assign: Vec::with_capacity(n),
            best: None,
            best_assign: Vec::new(),
            explored: 0,
            bound_prunes: 0,
            stopped: false,
        }
    }

    /// Restores pristine evaluator/packing state (allocation-free) before
    /// replaying the next subtree prefix.
    fn reset_state(&mut self) {
        self.eval.reset();
        for p in &mut self.packings {
            p.reset();
        }
        self.stage_log.clear();
    }

    /// The incumbent cut. The first disjunct is deterministic (subtree
    /// best ∧ entry bound, both timing-independent); the second uses the
    /// live shared incumbent but only *strictly* above it, so a subtree
    /// containing a globally optimal leaf (whose partial objective never
    /// exceeds the optimum ≤ every published incumbent) is never cut.
    fn cut(&self, amax: u64) -> bool {
        amax >= self.root_best.min(self.sh.entry_bound) || amax > self.sh.ctx.incumbent_bound()
    }

    /// Node-entry prologue shared by every depth: count, poll the deadline
    /// (amortized — `Instant::now` costs more than a whole branch step),
    /// apply the incumbent cut, accept leaves. Returns `true` when the
    /// node's children should be explored.
    fn enter(&mut self, depth: usize) -> bool {
        self.explored += 1;
        if (self.explored == 1 || self.explored & 0x3F == 0) && self.sh.ctx.should_stop() {
            self.stopped = true;
            return false;
        }
        if self.cut(self.eval.amax()) {
            self.bound_prunes += 1;
            return false;
        }
        if depth == self.sh.order.len() {
            self.accept_leaf();
            return false;
        }
        true
    }

    /// Runs every feasibility check for placing the depth-`depth` node on
    /// candidate `c`; on success the node stays placed and the packing
    /// undo-log base is returned for the later revert.
    fn try_place(&mut self, depth: usize, c: usize) -> Option<u32> {
        let node = self.sh.order[depth];
        let resource = self.sh.tdg.node(node).mat.resource();
        if self.eval.used_capacity(c) + resource > self.sh.total_caps[c] + 1e-9 {
            return None;
        }
        // ε₂: opening a new switch must stay within the bound.
        if self.eval.nodes_on(c) == 0 && self.eval.occupied() + 1 > self.sh.eps.max_switches {
            return None;
        }
        // Stage-feasibility prune: pushing onto the switch's live packing
        // is the exact check (its state equals the prefix state of a full
        // repack), cutting precisely the subtrees whose leaves would fail
        // `materialize`. A failed push rolls itself back and leaves the
        // log untouched.
        let log_base = u32::try_from(self.stage_log.len()).expect("log fits u32");
        if !self.packings[c].push_logged(self.sh.tdg, node, &mut self.stage_log) {
            return None;
        }
        self.eval.place(node.index(), c);
        // The switch DAG must stay acyclic (no packet recirculation
        // through a switch).
        if !self.eval.is_acyclic() {
            self.eval.unplace(node.index());
            self.packings[c].revert(node, &mut self.stage_log, log_base as usize);
            return None;
        }
        Some(log_base)
    }

    fn undo(&mut self, depth: usize, c: usize, log_base: u32) {
        let node = self.sh.order[depth];
        self.eval.unplace(node.index());
        self.packings[c].revert(node, &mut self.stage_log, log_base as usize);
    }

    /// Appends every viable one-node extension of `prefix` (in candidate
    /// order, deterministic prunes only) to `out`; returns how many.
    /// Used by the frontier builder.
    fn expand(&mut self, prefix: &[u16], out: &mut Vec<u16>) -> usize {
        self.reset_state();
        for (k, &c) in prefix.iter().enumerate() {
            if self.try_place(k, c as usize).is_none() {
                debug_assert!(false, "frontier prefix must replay cleanly");
                return 0;
            }
        }
        let depth = prefix.len();
        let q = self.sh.candidates.len();
        let used_switches = if self.sh.symmetric { self.eval.occupied() } else { 0 };
        let mut added = 0usize;
        for c in 0..q {
            // Symmetry breaking: only the first unused switch may be
            // opened.
            if self.sh.symmetric && c > used_switches {
                break;
            }
            let Some(log_base) = self.try_place(depth, c) else { continue };
            self.explored += 1;
            if (self.explored & 0x3F == 0) && self.sh.ctx.should_stop() {
                self.stopped = true;
                return added;
            }
            // Child-entry incumbent cut, deterministic part only: the
            // frontier (and with it the canonical subtree indexing) must
            // not depend on live-incumbent timing.
            if self.eval.amax() < self.sh.entry_bound {
                out.extend_from_slice(prefix);
                out.push(u16::try_from(c).expect("candidate fits u16"));
                added += 1;
            } else {
                self.bound_prunes += 1;
            }
            self.undo(depth, c, log_base);
        }
        added
    }

    /// Explores one claimed subtree: reset, replay the prefix, run the
    /// iterative DFS below it, then fold the subtree's best leaf into the
    /// worker's `(objective, subtree index)` minimum.
    fn run_root(&mut self, root: u32, prefix: &[u16]) {
        self.reset_state();
        for (k, &c) in prefix.iter().enumerate() {
            if self.try_place(k, c as usize).is_none() {
                debug_assert!(false, "frontier prefix must replay cleanly");
                return;
            }
        }
        self.root_best = u64::MAX;
        self.root_found = false;
        self.run_subtree(prefix.len());
        if self.root_found {
            let key = (self.root_best, root);
            if self.best.is_none_or(|b| key < b) {
                self.best = Some(key);
                std::mem::swap(&mut self.best_assign, &mut self.root_assign);
            }
        }
    }

    /// Iterative DFS below an already-replayed prefix of length `base`,
    /// using the reusable frame arena instead of the call stack. Mirrors
    /// the recursive formulation exactly: undo-before-advance, candidate
    /// order, symmetric break, and poll/prune/leaf checks via `enter`.
    /// On stop the state is left dirty — `reset_state` runs before any
    /// reuse.
    fn run_subtree(&mut self, base: usize) {
        if !self.enter(base) {
            return;
        }
        self.frames.clear();
        self.frames.push(self.fresh_frame());
        while let Some(top) = self.frames.len().checked_sub(1) {
            if self.stopped {
                return;
            }
            let depth = base + top;
            // Undo the placement left by the previous descent, if any.
            let Frame { placed_c, log_base, used_switches, .. } = self.frames[top];
            if placed_c != NO_CANDIDATE {
                self.undo(depth, placed_c as usize, log_base);
                self.frames[top].placed_c = NO_CANDIDATE;
            }
            // Advance to the next viable candidate at this depth.
            let q = self.sh.candidates.len();
            let mut descended = false;
            loop {
                let c = self.frames[top].next_c as usize;
                if c >= q || (self.sh.symmetric && c > used_switches as usize) {
                    break;
                }
                self.frames[top].next_c += 1;
                let Some(log_base) = self.try_place(depth, c) else { continue };
                self.frames[top].placed_c = c as u32;
                self.frames[top].log_base = log_base;
                if self.enter(depth + 1) {
                    let frame = self.fresh_frame();
                    self.frames.push(frame);
                    descended = true;
                }
                // When `enter` declined (prune/leaf/stop) the placement
                // stays until the next loop iteration undoes it — the
                // same order as the recursive undo.
                break;
            }
            if !descended && self.frames[top].placed_c == NO_CANDIDATE {
                self.frames.pop();
            }
        }
    }

    fn fresh_frame(&self) -> Frame {
        Frame {
            next_c: 0,
            placed_c: NO_CANDIDATE,
            log_base: 0,
            used_switches: if self.sh.symmetric { self.eval.occupied() as u32 } else { 0 },
        }
    }

    fn accept_leaf(&mut self) {
        // Acceptance ceiling: subtree best ∧ entry bound — both
        // deterministic, so which leaves each subtree records never
        // depends on other workers' timing.
        let ceiling = self.root_best.min(self.sh.entry_bound);
        if self.sh.fast_leaves {
            // Stage feasibility was enforced on every step and all routes
            // exist, so the assignment is materializable by construction
            // and the evaluator's running maximum *is* the plan objective.
            let objective = self.eval.amax();
            if objective < ceiling {
                self.record(objective);
            }
            return;
        }
        // Full assignment below the ceiling: validate stages + routes.
        let Some(plan) =
            materialize(self.sh.tdg, self.sh.net, self.sh.candidates, self.eval.assignment())
        else {
            return;
        };
        if plan.end_to_end_latency_us() > self.sh.eps.max_latency_us {
            return;
        }
        let objective = plan.max_inter_switch_bytes(self.sh.tdg);
        if objective < ceiling {
            self.record(objective);
        }
    }

    fn record(&mut self, objective: u64) {
        self.root_best = objective;
        self.root_found = true;
        self.root_assign.clear();
        self.root_assign.extend_from_slice(self.eval.assignment());
        self.sh.ctx.publish_incumbent(objective);
    }
}

/// Builds a full plan (stage placements + routes) from a switch-level
/// assignment: `assign[node] = index into candidates` (`usize::MAX` =
/// unplaced). Returns `None` when stage assignment or routing fails.
///
/// Shared by the exact solver, the MILP front end, and the baseline
/// frameworks — every algorithm in the workspace goes through the same
/// stage assigner and router, so plans differ only in their placement
/// decisions.
pub fn materialize(
    tdg: &Tdg,
    net: &Network,
    candidates: &[SwitchId],
    assign: &[usize],
) -> Option<DeploymentPlan> {
    let mut plan = DeploymentPlan::new();
    for (c, &switch) in candidates.iter().enumerate() {
        let nodes: BTreeSet<NodeId> = tdg.node_ids().filter(|id| assign[id.index()] == c).collect();
        if nodes.is_empty() {
            continue;
        }
        let model = net.switch(switch).target_model();
        let placements = assign_stages(tdg, &nodes, switch, &model).ok()?;
        for p in placements {
            plan.place(p);
        }
    }
    // One route per dependent cross-switch pair.
    let mut pairs: BTreeSet<(SwitchId, SwitchId)> = BTreeSet::new();
    for e in tdg.edges() {
        let (u, v) = (assign[e.from.index()], assign[e.to.index()]);
        if u == usize::MAX || v == usize::MAX || u == v {
            continue;
        }
        pairs.insert((candidates[u], candidates[v]));
    }
    for (u, v) in pairs {
        let path = shortest_path(net, u, v)?;
        plan.route(PlanRoute { from: u, to: v, path });
    }
    Some(plan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{chain_tdg, tiny_switches};
    use hermes_dataplane::action::Action;
    use hermes_dataplane::fields::Field;
    use hermes_dataplane::mat::{Mat, MatchKind};
    use hermes_dataplane::program::Program;
    use hermes_net::Switch;
    use hermes_tdg::AnalysisMode;
    use std::num::NonZeroUsize;
    use std::time::Duration;

    fn solve_default(tdg: &Tdg, net: &Network, eps: &Epsilon) -> Result<SolveOutcome, DeployError> {
        OptimalSolver::default().solve(
            tdg,
            net,
            eps,
            &SearchContext::with_time_limit(Duration::from_secs(30)),
        )
    }

    #[test]
    fn finds_figure1_optimum() {
        // a -1-> b -4-> c, two switches of two MATs each: optimum cuts the
        // 1-byte edge.
        let tdg = chain_tdg(&[1, 4], 0.5);
        let net = tiny_switches(2, 2, 0.5);
        let out = solve_default(&tdg, &net, &Epsilon::loose()).unwrap();
        assert!(out.proven_optimal);
        assert_eq!(out.objective, 1);
        assert_eq!(out.plan.max_inter_switch_bytes(&tdg), 1);
    }

    #[test]
    fn zero_overhead_when_everything_fits() {
        let tdg = chain_tdg(&[8, 8], 0.2);
        let net = tiny_switches(2, 12, 1.0);
        let out = solve_default(&tdg, &net, &Epsilon::loose()).unwrap();
        assert_eq!(out.objective, 0);
        assert!(out.proven_optimal);
    }

    #[test]
    fn optimal_never_worse_than_heuristic() {
        // Non-chain TDG where a greedy prefix split can be suboptimal.
        let tdg = {
            let m = |n: &str, s: u32| Field::metadata(format!("x.{n}"), s);
            let a = Mat::builder("a")
                .action(Action::writing("w", [m("ab", 9), m("ac", 2)]))
                .resource(0.5)
                .build()
                .unwrap();
            let b = Mat::builder("b")
                .match_field(m("ab", 9), MatchKind::Exact)
                .action(Action::writing("w", [m("bd", 3)]))
                .resource(0.5)
                .build()
                .unwrap();
            let c = Mat::builder("c")
                .match_field(m("ac", 2), MatchKind::Exact)
                .action(Action::writing("w", [m("cd", 7)]))
                .resource(0.5)
                .build()
                .unwrap();
            let d = Mat::builder("d")
                .match_field(m("bd", 3), MatchKind::Exact)
                .match_field(m("cd", 7), MatchKind::Exact)
                .action(Action::new("noop"))
                .resource(0.5)
                .build()
                .unwrap();
            let p = Program::builder("p").table(a).table(b).table(c).table(d).build().unwrap();
            Tdg::from_program(&p, AnalysisMode::Intersection)
        };
        let net = tiny_switches(3, 2, 0.5);
        let eps = Epsilon::loose();
        let heuristic =
            GreedyHeuristic::new().deploy(&tdg, &net, &eps).unwrap().max_inter_switch_bytes(&tdg);
        let out = solve_default(&tdg, &net, &eps).unwrap();
        assert!(out.proven_optimal);
        assert!(out.objective <= heuristic, "optimal {} > heuristic {heuristic}", out.objective);
    }

    #[test]
    fn plan_verifies_clean() {
        let tdg = chain_tdg(&[1, 4, 2, 8], 0.5);
        let net = tiny_switches(3, 2, 0.5);
        let eps = Epsilon::loose();
        let out = solve_default(&tdg, &net, &eps).unwrap();
        let violations = crate::verify::verify(&tdg, &net, &out.plan, &eps);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn respects_epsilon2() {
        let tdg = chain_tdg(&[1, 1, 1], 0.5);
        let net = tiny_switches(3, 2, 0.5);
        let eps = Epsilon::new(f64::INFINITY, 2);
        let out = solve_default(&tdg, &net, &eps).unwrap();
        assert!(out.plan.occupied_switch_count() <= 2);
    }

    #[test]
    fn expired_deadline_reports_unproven() {
        // A larger instance with a 0 ms budget still returns the heuristic
        // incumbent but cannot prove optimality. (Plenty of switches: the
        // greedy splitter may oversegment a monotone chain.)
        let tdg = chain_tdg(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11], 0.5);
        let net = tiny_switches(12, 2, 0.5);
        let ctx = SearchContext::with_time_limit(Duration::ZERO);
        let out = OptimalSolver::default().solve(&tdg, &net, &Epsilon::loose(), &ctx).unwrap();
        assert!(!out.proven_optimal);
        assert!(!out.plan.placements().is_empty());
    }

    #[test]
    fn bare_solver_with_expired_deadline_has_no_plan() {
        let tdg = chain_tdg(&[1, 2, 3], 0.5);
        let net = tiny_switches(3, 2, 0.5);
        let ctx = SearchContext::with_time_limit(Duration::ZERO);
        let err = OptimalSolver::bare().solve(&tdg, &net, &Epsilon::loose(), &ctx).unwrap_err();
        assert!(matches!(err, DeployError::NoFeasiblePlacement { .. }));
    }

    #[test]
    fn bare_solver_proves_an_external_bound() {
        // Publish the true optimum externally: the bare search exhausts
        // without improving on it and returns the proof.
        let tdg = chain_tdg(&[1, 4], 0.5);
        let net = tiny_switches(2, 2, 0.5);
        let ctx = SearchContext::unbounded();
        ctx.publish_incumbent(1);
        let err = OptimalSolver::bare().solve(&tdg, &net, &Epsilon::loose(), &ctx).unwrap_err();
        assert_eq!(err, DeployError::NoImprovementProven { bound: 1 });
    }

    #[test]
    fn no_programmable_switch_is_an_error() {
        let mut net = Network::new();
        net.add_switch(Switch::legacy("l"));
        let tdg = chain_tdg(&[1], 0.5);
        let err = solve_default(&tdg, &net, &Epsilon::loose()).unwrap_err();
        assert_eq!(err, DeployError::NoProgrammableSwitch);
    }

    #[test]
    fn empty_tdg_trivial() {
        let tdg = Tdg::new(AnalysisMode::PaperLiteral);
        let net = tiny_switches(2, 2, 0.5);
        let out = solve_default(&tdg, &net, &Epsilon::loose()).unwrap();
        assert_eq!(out.objective, 0);
        assert!(out.proven_optimal);
    }

    #[test]
    fn deploy_api_still_works() {
        let tdg = chain_tdg(&[1, 4], 0.5);
        let net = tiny_switches(2, 2, 0.5);
        let plan = OptimalSolver::default().deploy(&tdg, &net, &Epsilon::loose()).unwrap();
        assert_eq!(plan.max_inter_switch_bytes(&tdg), 1);
    }

    #[test]
    fn outcome_is_identical_across_worker_counts() {
        let tdg = chain_tdg(&[1, 4, 2, 8, 3], 0.5);
        let net = tiny_switches(3, 3, 0.5);
        let eps = Epsilon::loose();
        let reference = OptimalSolver::default()
            .solve(
                &tdg,
                &net,
                &eps,
                &SearchContext::unbounded().with_threads(NonZeroUsize::new(1).unwrap()),
            )
            .unwrap();
        for workers in 2..=8 {
            let ctx = SearchContext::unbounded().with_threads(NonZeroUsize::new(workers).unwrap());
            let out = OptimalSolver::default().solve(&tdg, &net, &eps, &ctx).unwrap();
            assert_eq!(out.plan, reference.plan, "plan diverged at {workers} workers");
            assert_eq!(out.objective, reference.objective);
            assert_eq!(out.proven_optimal, reference.proven_optimal);
            assert_eq!(out.stats.proven_bound, reference.stats.proven_bound);
        }
    }

    #[test]
    fn instrumented_solve_reports_frontier_telemetry() {
        // Bare solver, no incumbent: the frontier cannot be pruned away
        // during enumeration, so subtree roots must reach the pool.
        let tdg = chain_tdg(&[1, 4, 2, 8], 0.5);
        let net = tiny_switches(3, 2, 0.5);
        let ctx = SearchContext::unbounded().with_threads(NonZeroUsize::new(4).unwrap());
        let (result, stats) =
            OptimalSolver::bare().solve_instrumented(&tdg, &net, &Epsilon::loose(), &ctx);
        let out = result.unwrap();
        assert!(out.proven_optimal);
        assert!(stats.workers >= 1 && stats.workers <= 4, "{stats:?}");
        assert!(stats.subtree_roots >= stats.workers, "{stats:?}");
        assert!(stats.frontier_depth >= 1, "{stats:?}");
    }

    #[test]
    fn seed_proven_optimal_by_enumeration_alone_reports_zero_roots() {
        // When the greedy seed is already optimal the frontier expansion
        // prunes every child against the entry bound: the enumeration is
        // the exhaustion proof and no subtree ever reaches the pool.
        let tdg = chain_tdg(&[1, 4, 2, 8], 0.5);
        let net = tiny_switches(3, 2, 0.5);
        let ctx = SearchContext::unbounded().with_threads(NonZeroUsize::new(4).unwrap());
        let (result, stats) =
            OptimalSolver::default().solve_instrumented(&tdg, &net, &Epsilon::loose(), &ctx);
        let out = result.unwrap();
        assert!(out.proven_optimal);
        assert!(stats.subtree_roots == 0 || stats.workers >= 1, "{stats:?}");
    }
}
