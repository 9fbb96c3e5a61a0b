//! ILP-based comparison frameworks: Min-Stage, Sonata, SPEED, MTP,
//! Flightplan, and P4All.
//!
//! Each framework keeps its published optimization objective but — like
//! the paper's re-implementations — runs on the same solver (here
//! `hermes-milp` in place of Gurobi) over the same switch-granularity
//! assignment encoding that [`hermes_core::build_p1`] uses, minus the
//! `A_max` objective none of them optimizes:
//!
//! | Framework | Objective encoded |
//! |---|---|
//! | Min-Stage (MS) | pack MATs into the lowest-indexed switches (stage-count proxy) |
//! | Sonata | per-program sequential pack-left ILPs |
//! | SPEED | minimize end-to-end coordination latency |
//! | MTP | SPEED + rule-capacity balance term (control-plane load) |
//! | Flightplan (FP) | minimize the number of cut dependency edges |
//! | P4All | minimize the maximum per-switch load (elastic headroom) |
//!
//! Exactly as in the paper, these solvers blow up on large instances;
//! every framework therefore (a) stops at the [`SearchContext`] deadline
//! and uses its incumbent and (b) carries a documented greedy *surrogate*
//! used when the model would not even fit in memory (`size_guard`). Exp#3
//! measures the ILP attempt time; overhead experiments consume the
//! decisions.

use hermes_core::{
    materialize, DeployError, DeploymentPlan, Epsilon, GreedyHeuristic, SearchContext,
    SolveOutcome, Solver, SplitStrategy,
};
use hermes_milp::{
    solve_with_controls, Direction, LinExpr, Model, Sense, SolveControls, SolveStatus,
    SolverConfig, VarId,
};
use hermes_net::{shortest_path, Network, SwitchId};
use hermes_tdg::{NodeId, Tdg};
use std::time::Instant;

use crate::greedy::{FirstFitByLevel, FirstFitByLevelAndSize};

/// Which published objective an [`IlpBaseline`] encodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IlpObjective {
    /// Min-Stage: pack into the lowest switch indexes.
    PackLeft,
    /// SPEED: minimize summed coordination latency.
    MinLatency,
    /// MTP: latency plus a rule-capacity balance epigraph.
    LatencyAndRuleBalance,
    /// Flightplan: minimize the number of cross-switch dependency edges.
    MinCutEdges,
    /// P4All: minimize the maximum per-switch resource load.
    BalanceLoad,
}

/// Size guards of the ILP frameworks (the solve budget comes from the
/// [`SearchContext`]).
#[derive(Debug, Clone)]
pub struct IlpConfig {
    /// Skip the ILP (use the surrogate) above this many binary variables.
    pub max_binaries: usize,
    /// Skip the ILP above this many rank-linearization cells
    /// (`edges x switches²`) — the dense simplex tableau grows with the
    /// constraint count, and past this point one LP relaxation would not
    /// even fit in memory.
    pub max_rank_cells: usize,
}

impl Default for IlpConfig {
    fn default() -> Self {
        IlpConfig { max_binaries: 4_000, max_rank_cells: 2_500 }
    }
}

/// An ILP-based deployment framework.
#[derive(Debug, Clone)]
pub struct IlpBaseline {
    name: &'static str,
    objective: IlpObjective,
    config: IlpConfig,
}

impl IlpBaseline {
    /// Min-Stage \[8\] extended network-wide.
    pub fn min_stage(config: IlpConfig) -> Self {
        IlpBaseline { name: "MS", objective: IlpObjective::PackLeft, config }
    }

    /// SPEED \[6\].
    pub fn speed(config: IlpConfig) -> Self {
        IlpBaseline { name: "SPEED", objective: IlpObjective::MinLatency, config }
    }

    /// MTP \[57\].
    pub fn mtp(config: IlpConfig) -> Self {
        IlpBaseline { name: "MTP", objective: IlpObjective::LatencyAndRuleBalance, config }
    }

    /// Flightplan \[7\].
    pub fn flightplan(config: IlpConfig) -> Self {
        IlpBaseline { name: "FP", objective: IlpObjective::MinCutEdges, config }
    }

    /// P4All \[59\].
    pub fn p4all(config: IlpConfig) -> Self {
        IlpBaseline { name: "P4All", objective: IlpObjective::BalanceLoad, config }
    }

    /// The configured objective.
    pub fn objective(&self) -> IlpObjective {
        self.objective
    }
}

impl Solver for IlpBaseline {
    fn name(&self) -> &str {
        self.name
    }

    fn is_exhaustive(&self) -> bool {
        true
    }

    /// These frameworks optimize their own published objective, not
    /// `A_max`, so only a zero-overhead plan is ever proven optimal.
    fn solve(
        &self,
        tdg: &Tdg,
        net: &Network,
        eps: &Epsilon,
        ctx: &SearchContext,
    ) -> Result<SolveOutcome, DeployError> {
        let start = Instant::now();
        let plan = self.deploy_inner(tdg, net, eps, ctx)?;
        Ok(SolveOutcome::constructed(plan, tdg, ctx, start))
    }
}

impl IlpBaseline {
    fn deploy_inner(
        &self,
        tdg: &Tdg,
        net: &Network,
        eps: &Epsilon,
        ctx: &SearchContext,
    ) -> Result<DeploymentPlan, DeployError> {
        let component = net.largest_component();
        let candidates: Vec<SwitchId> =
            net.programmable_switches().into_iter().filter(|s| component.contains(s)).collect();
        if candidates.is_empty() {
            return Err(DeployError::NoProgrammableSwitch);
        }
        if tdg.node_count() == 0 {
            return Ok(DeploymentPlan::new());
        }
        let q = candidates.len();
        let binaries = tdg.node_count() * q;
        let rank_cells = tdg.edge_count() * q * q;
        if binaries > self.config.max_binaries || rank_cells > self.config.max_rank_cells {
            return self.surrogate(tdg, net, eps);
        }
        // The shared incumbent is NOT passed down — it bounds A_max, which
        // is not what these models minimize.
        let controls = SolveControls {
            deadline: ctx.deadline(),
            stop: Some(ctx.cancel_token().as_flag()),
            upper_bound: None,
        };
        match solve_assignment(tdg, net, eps, &candidates, self.objective, &controls) {
            Some(assign) => materialize(tdg, net, &candidates, &assign)
                .filter(|p| p.end_to_end_latency_us() <= eps.max_latency_us)
                .map(Ok)
                .unwrap_or_else(|| self.surrogate(tdg, net, eps)),
            None => self.surrogate(tdg, net, eps),
        }
    }

    /// Greedy fallback used beyond the size guard or when the ILP returns
    /// nothing within budget. Each surrogate mimics the objective's shape.
    fn surrogate(
        &self,
        tdg: &Tdg,
        net: &Network,
        eps: &Epsilon,
    ) -> Result<DeploymentPlan, DeployError> {
        match self.objective {
            IlpObjective::PackLeft => FirstFitByLevel.deploy(tdg, net, eps),
            IlpObjective::MinLatency | IlpObjective::LatencyAndRuleBalance => {
                FirstFitByLevelAndSize.deploy(tdg, net, eps)
            }
            IlpObjective::MinCutEdges => {
                // Flightplan: split where the fewest edges cross, not the
                // fewest bytes — plan on a unit-weight clone of the TDG.
                let unit = tdg.with_uniform_edge_bytes(1);
                GreedyHeuristic::new().deploy(&unit, net, eps)
            }
            IlpObjective::BalanceLoad => {
                GreedyHeuristic::with_strategy(SplitStrategy::Balanced).deploy(tdg, net, eps)
            }
        }
    }
}

/// Builds and solves the assignment model, returning `assign[node] ->
/// candidate index` or `None` when no incumbent was found in budget.
#[allow(clippy::needless_range_loop)] // candidate-column index `c` is semantic in the encoding
fn solve_assignment(
    tdg: &Tdg,
    net: &Network,
    eps: &Epsilon,
    candidates: &[SwitchId],
    objective: IlpObjective,
    controls: &SolveControls,
) -> Option<Vec<usize>> {
    let q = candidates.len();
    let n = tdg.node_count();
    let mut model = Model::new("baseline-assignment");
    let nodes: Vec<NodeId> = tdg.node_ids().collect();

    let z: Vec<Vec<VarId>> =
        (0..n).map(|a| (0..q).map(|c| model.binary(format!("z_{a}_{c}"))).collect()).collect();

    for (a, vars) in z.iter().enumerate() {
        model.add_constraint(
            format!("place_{a}"),
            LinExpr::sum(vars.iter().map(|&v| (v, 1.0))),
            Sense::Eq,
            1.0,
        );
    }
    for (c, &sw) in candidates.iter().enumerate() {
        let cap = net.switch(sw).total_capacity();
        let load = LinExpr::sum((0..n).map(|a| (z[a][c], tdg.node(nodes[a]).mat.resource())));
        model.add_constraint(format!("cap_{c}"), load, Sense::Le, cap);
    }

    // Chainability ranks (same encoding as P#1).
    let big_m = (q + 1) as f64;
    let ranks: Vec<VarId> =
        (0..q).map(|c| model.continuous(format!("r_{c}"), 0.0, q as f64)).collect();
    for (ei, e) in tdg.edges().iter().enumerate() {
        for u in 0..q {
            for v in 0..q {
                if u == v {
                    continue;
                }
                model.add_constraint(
                    format!("rank_{ei}_{u}_{v}"),
                    LinExpr::from(ranks[u]) - LinExpr::from(ranks[v])
                        + LinExpr::from(z[e.from.index()][u]) * big_m
                        + LinExpr::from(z[e.to.index()][v]) * big_m,
                    Sense::Le,
                    2.0 * big_m - 1.0,
                );
            }
        }
    }

    // ε₂ (only when binding).
    if eps.max_switches < q {
        let occ: Vec<VarId> = (0..q).map(|c| model.binary(format!("occ_{c}"))).collect();
        for (a, vars) in z.iter().enumerate() {
            for c in 0..q {
                model.add_constraint(
                    format!("occ_{a}_{c}"),
                    LinExpr::from(occ[c]) - LinExpr::from(vars[c]),
                    Sense::Ge,
                    0.0,
                );
            }
        }
        model.add_constraint(
            "eps2",
            LinExpr::sum(occ.iter().map(|&v| (v, 1.0))),
            Sense::Le,
            eps.max_switches as f64,
        );
    }

    // Objective-specific machinery.
    match objective {
        IlpObjective::PackLeft => {
            let obj = LinExpr::sum(
                z.iter()
                    .flat_map(|vars| vars.iter().enumerate().map(|(c, &v)| (v, (c + 1) as f64))),
            );
            model.set_objective(Direction::Minimize, obj);
        }
        IlpObjective::MinLatency | IlpObjective::LatencyAndRuleBalance => {
            // cut edge (e, u, v) contributes shortest-path latency.
            let mut obj = LinExpr::new();
            for (ei, e) in tdg.edges().iter().enumerate() {
                for u in 0..q {
                    for v in 0..q {
                        if u == v {
                            continue;
                        }
                        let Some(p) = shortest_path(net, candidates[u], candidates[v]) else {
                            continue;
                        };
                        let w = model.continuous(format!("w_{ei}_{u}_{v}"), 0.0, 1.0);
                        model.add_constraint(
                            format!("wlin_{ei}_{u}_{v}"),
                            LinExpr::from(w)
                                - LinExpr::from(z[e.from.index()][u])
                                - LinExpr::from(z[e.to.index()][v]),
                            Sense::Ge,
                            -1.0,
                        );
                        obj += LinExpr::from(w) * p.latency_us;
                    }
                }
            }
            if objective == IlpObjective::LatencyAndRuleBalance {
                // Control-plane balance: epigraph over per-switch rule
                // capacity, lightly weighted against latency.
                let l = model.continuous("rule_load_max", 0.0, f64::INFINITY);
                for c in 0..q {
                    let load = LinExpr::sum(
                        (0..n).map(|a| (z[a][c], tdg.node(nodes[a]).mat.capacity() as f64)),
                    );
                    model.add_constraint(
                        format!("bal_{c}"),
                        LinExpr::from(l) - load,
                        Sense::Ge,
                        0.0,
                    );
                }
                obj += LinExpr::from(l) * 1e-3;
            }
            model.set_objective(Direction::Minimize, obj);
        }
        IlpObjective::MinCutEdges => {
            let mut obj = LinExpr::new();
            for (ei, e) in tdg.edges().iter().enumerate() {
                let cut = model.continuous(format!("cut_{ei}"), 0.0, 1.0);
                for c in 0..q {
                    // cut >= z(a,c) - z(b,c): 1 whenever endpoints differ.
                    model.add_constraint(
                        format!("cut_{ei}_{c}"),
                        LinExpr::from(cut) - LinExpr::from(z[e.from.index()][c])
                            + LinExpr::from(z[e.to.index()][c]),
                        Sense::Ge,
                        0.0,
                    );
                }
                obj += LinExpr::from(cut);
            }
            model.set_objective(Direction::Minimize, obj);
        }
        IlpObjective::BalanceLoad => {
            let l = model.continuous("load_max", 0.0, f64::INFINITY);
            for c in 0..q {
                let load =
                    LinExpr::sum((0..n).map(|a| (z[a][c], tdg.node(nodes[a]).mat.resource())));
                model.add_constraint(format!("bal_{c}"), LinExpr::from(l) - load, Sense::Ge, 0.0);
            }
            model.set_objective(Direction::Minimize, LinExpr::from(l));
        }
    }

    let solution = solve_with_controls(&model, &SolverConfig::default(), controls).ok()?;
    match solution.status {
        SolveStatus::Optimal | SolveStatus::Feasible => {}
        _ => return None,
    }
    Some((0..n).map(|a| (0..q).find(|&c| solution.value(z[a][c]) > 0.5).expect("placed")).collect())
}

/// Sonata \[4\]: deploys programs one at a time, each through its own small
/// pack-left ILP against the capacity left by earlier programs.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sonata;

impl Solver for Sonata {
    fn name(&self) -> &str {
        "Sonata"
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
        let start = Instant::now();
        let plan = sonata_deploy(tdg, net, eps)?;
        Ok(SolveOutcome::constructed(plan, tdg, ctx, start))
    }
}

/// Sonata's program-by-program placement.
fn sonata_deploy(tdg: &Tdg, net: &Network, eps: &Epsilon) -> Result<DeploymentPlan, DeployError> {
    let component = net.largest_component();
    let candidates: Vec<SwitchId> =
        net.programmable_switches().into_iter().filter(|s| component.contains(s)).collect();
    if candidates.is_empty() {
        return Err(DeployError::NoProgrammableSwitch);
    }
    if tdg.node_count() == 0 {
        return Ok(DeploymentPlan::new());
    }
    // Program order: first occurrence over node indexes.
    let mut programs: Vec<String> = Vec::new();
    for id in tdg.node_ids() {
        for p in &tdg.node(id).programs {
            if !programs.contains(p) {
                programs.push(p.clone());
            }
        }
    }
    let q = candidates.len();
    let mut assign = vec![usize::MAX; tdg.node_count()];
    let mut used = vec![0.0f64; q];
    for prog in &programs {
        let members: Vec<NodeId> = tdg
            .node_ids()
            .filter(|&id| assign[id.index()] == usize::MAX)
            .filter(|&id| tdg.node(id).programs.contains(prog))
            .collect();
        if members.is_empty() {
            continue;
        }
        let partial = solve_program_packing(tdg, net, &candidates, &members, &assign, &used)
            .ok_or_else(|| DeployError::NoFeasiblePlacement {
                reason: format!("sonata could not place program `{prog}`"),
            })?;
        for (&id, &c) in members.iter().zip(&partial) {
            assign[id.index()] = c;
            used[c] += tdg.node(id).mat.resource();
        }
    }
    materialize(tdg, net, &candidates, &assign)
        .filter(|p| {
            p.end_to_end_latency_us() <= eps.max_latency_us
                && p.occupied_switch_count() <= eps.max_switches
        })
        .ok_or_else(|| DeployError::NoFeasiblePlacement {
            reason: "sonata placement violated ε-bounds or staging".to_owned(),
        })
}

/// Greedy pack-left of one program's nodes given fixed prior placements.
/// (Sonata's per-query planning is tiny, so a direct greedy matching its
/// pack-left ILP optimum is used; the network-wide ILPs above exercise the
/// solver.)
fn solve_program_packing(
    tdg: &Tdg,
    net: &Network,
    candidates: &[SwitchId],
    members: &[NodeId],
    assign: &[usize],
    used: &[f64],
) -> Option<Vec<usize>> {
    let q = candidates.len();
    let mut used = used.to_vec();
    let mut local_assign = assign.to_vec();
    // Current node sets per switch (for stage-feasibility checks).
    let mut on_switch: Vec<std::collections::BTreeSet<NodeId>> = vec![Default::default(); q];
    for id in tdg.node_ids() {
        let c = local_assign[id.index()];
        if c != usize::MAX {
            on_switch[c].insert(id);
        }
    }
    let mut out = Vec::with_capacity(members.len());
    // Members arrive in node-id order == topological order per program.
    for &id in members {
        let resource = tdg.node(id).mat.resource();
        // Earliest switch after every placed predecessor (chain order).
        let min_c = tdg
            .in_edges(id)
            .map(|e| local_assign[e.from.index()])
            .filter(|&c| c != usize::MAX)
            .max()
            .unwrap_or(0);
        let c = (min_c..q).find(|&c| {
            let model = net.switch(candidates[c]).target_model();
            if used[c] + resource > model.total_capacity() + 1e-9 {
                return false;
            }
            let mut attempt = on_switch[c].clone();
            attempt.insert(id);
            hermes_core::stage_feasible(tdg, &attempt, &model)
        })?;
        used[c] += resource;
        local_assign[id.index()] = c;
        on_switch[c].insert(id);
        out.push(c);
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermes_core::verify;
    use hermes_dataplane::library;
    use std::time::Duration;

    /// Solves under a 5 s context: enough for the tiny testbed models.
    fn fast_deploy(solver: &dyn Solver, tdg: &Tdg, net: &Network) -> DeploymentPlan {
        let ctx = SearchContext::with_time_limit(Duration::from_secs(5));
        solver
            .solve(tdg, net, &Epsilon::loose(), &ctx)
            .unwrap_or_else(|e| panic!("{}: {e}", solver.name()))
            .plan
    }

    fn small_inputs() -> (Tdg, Network) {
        // Three programs keep the ILPs tiny enough for exact solves.
        hermes_core::test_support::linear_testbed(&[
            library::l3_router(),
            library::acl(),
            library::cm_sketch(),
        ])
    }

    #[test]
    fn every_ilp_baseline_produces_verified_plans() {
        let (tdg, net) = small_inputs();
        let eps = Epsilon::loose();
        let baselines: Vec<IlpBaseline> = vec![
            IlpBaseline::min_stage(IlpConfig::default()),
            IlpBaseline::speed(IlpConfig::default()),
            IlpBaseline::mtp(IlpConfig::default()),
            IlpBaseline::flightplan(IlpConfig::default()),
            IlpBaseline::p4all(IlpConfig::default()),
        ];
        for b in baselines {
            let plan = fast_deploy(&b, &tdg, &net);
            let violations = verify(&tdg, &net, &plan, &eps);
            assert!(violations.is_empty(), "{}: {violations:?}", b.name());
        }
    }

    #[test]
    fn sonata_places_programs_sequentially() {
        let (tdg, net) = small_inputs();
        let eps = Epsilon::loose();
        let plan = Sonata.deploy(&tdg, &net, &eps).unwrap();
        let violations = verify(&tdg, &net, &plan, &eps);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn size_guard_falls_back_to_surrogate() {
        let (tdg, net) = small_inputs();
        let eps = Epsilon::loose();
        let tiny_guard = IlpConfig { max_binaries: 1, ..Default::default() };
        let plan = fast_deploy(&IlpBaseline::min_stage(tiny_guard), &tdg, &net);
        assert!(verify(&tdg, &net, &plan, &eps).is_empty());
    }

    #[test]
    fn hermes_no_worse_than_any_baseline_on_testbed() {
        let (tdg, net) = small_inputs();
        let eps = Epsilon::loose();
        let hermes = GreedyHeuristic::new().deploy(&tdg, &net, &eps).unwrap();
        let h = hermes.max_inter_switch_bytes(&tdg);
        for plan in [
            fast_deploy(&IlpBaseline::min_stage(IlpConfig::default()), &tdg, &net),
            Sonata.deploy(&tdg, &net, &eps).unwrap(),
        ] {
            assert!(h <= plan.max_inter_switch_bytes(&tdg));
        }
    }

    #[test]
    fn p4all_balances_load() {
        let (tdg, net) = small_inputs();
        let plan = fast_deploy(&IlpBaseline::p4all(IlpConfig::default()), &tdg, &net);
        // The balanced objective should occupy more than one switch even
        // though everything could fit on one.
        assert!(plan.occupied_switch_count() >= 2);
    }

    #[test]
    fn min_stage_packs_left() {
        let (tdg, net) = small_inputs();
        let plan = fast_deploy(&IlpBaseline::min_stage(IlpConfig::default()), &tdg, &net);
        // Everything fits the first switch (total R small), so pack-left
        // should use exactly one switch.
        assert_eq!(plan.occupied_switch_count(), 1);
        assert_eq!(plan.max_inter_switch_bytes(&tdg), 0);
    }
}
