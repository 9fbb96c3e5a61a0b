//! The MILP formulation of problem **P#1** (paper §V-A–§V-C).
//!
//! Encodes deployment as a mixed-integer program over `hermes-milp`:
//!
//! - binaries `z(a, u)` place MAT `a` on programmable switch `u`
//!   (the switch-level aggregation of the paper's `x(a, i, u)` — stage
//!   indices are recovered afterwards by the deterministic stage assigner,
//!   which is exact because per-switch stage feasibility is independent of
//!   the inter-switch objective);
//! - continuous `w(e, u, v) ≥ z(a,u) + z(b,v) − 1` linearize the products
//!   in Eq. 1, and the epigraph variable `A_max ≥ Σ_e A(e)·w(e, u, v)`
//!   per ordered switch pair yields Obj#1;
//! - rank variables `r(u)` with big-M order constraints keep the
//!   switch-level dependency graph acyclic (the chainability implied by
//!   Eq. 7);
//! - optional knapsack rows enforce per-switch resources (Eq. 9 in
//!   aggregate) and the ε-bounds (Eq. 4–5).
//!
//! Solved exactly on small instances; on large ones the branch-and-bound
//! runs to its time budget and returns the incumbent — the behaviour the
//! execution-time experiment (Exp#3) measures.

use crate::deployment::{DeployError, DeploymentPlan, Epsilon};
use crate::exact::materialize;
use crate::solver::{SearchContext, SolveOutcome, SolveStats, Solver, NO_BOUND};
use hermes_milp::{
    solve_with_controls, Direction, LinExpr, Model, Sense, SolveControls, SolveStatus,
    SolverConfig, VarId,
};
use hermes_net::{shortest_path, Network, SwitchId};
use hermes_tdg::Tdg;
use std::time::Instant;

/// Variable handles of a built P#1 model.
#[derive(Debug, Clone)]
pub struct P1Variables {
    /// `z[a][c]`: node `a` on candidate switch index `c`.
    pub placement: Vec<Vec<VarId>>,
    /// The epigraph variable for `A_max`.
    pub a_max: VarId,
    /// The candidate (programmable) switches, indexing the inner `Vec`s.
    pub candidates: Vec<SwitchId>,
}

/// Builds the P#1 model for `tdg` on `net` under the ε-bounds.
///
/// # Panics
///
/// Panics if the network has no programmable switch; callers check first.
pub fn build_p1(tdg: &Tdg, net: &Network, eps: &Epsilon) -> (Model, P1Variables) {
    let candidates = net.programmable_switches();
    assert!(!candidates.is_empty(), "P#1 needs at least one programmable switch");
    let q = candidates.len();
    let n = tdg.node_count();
    let mut model = Model::new("hermes-p1");

    // z(a, u) — Eq. 6 output variables at switch granularity.
    let placement: Vec<Vec<VarId>> =
        (0..n).map(|a| (0..q).map(|c| model.binary(format!("z_{a}_{c}"))).collect()).collect();
    let a_max = model.continuous("A_max", 0.0, f64::INFINITY);

    // Eq. 6: every MAT on exactly one switch.
    for (a, vars) in placement.iter().enumerate() {
        model.add_constraint(
            format!("place_{a}"),
            LinExpr::sum(vars.iter().map(|&v| (v, 1.0))),
            Sense::Eq,
            1.0,
        );
    }

    // Eq. 9 (aggregate): per-switch resource capacity.
    for (c, &sw) in candidates.iter().enumerate() {
        let cap = net.switch(sw).total_capacity();
        let load = LinExpr::sum(
            (0..n).map(|a| (placement[a][c], tdg.node(hermes_node(tdg, a)).mat.resource())),
        );
        model.add_constraint(format!("cap_{c}"), load, Sense::Le, cap);
    }

    // Linearized pair products + the A_max epigraph (Eq. 1).
    let edges: Vec<_> = tdg.edges().to_vec();
    let mut pair_terms: Vec<Vec<(VarId, f64)>> = vec![Vec::new(); q * q];
    let mut w_vars: Vec<Vec<VarId>> = Vec::new();
    for (ei, e) in edges.iter().enumerate() {
        let mut per_edge = Vec::with_capacity(q * q);
        for u in 0..q {
            for v in 0..q {
                if u == v {
                    continue;
                }
                let w = model.continuous(format!("w_{ei}_{u}_{v}"), 0.0, 1.0);
                // w >= z(a,u) + z(b,v) - 1
                model.add_constraint(
                    format!("wlin_{ei}_{u}_{v}"),
                    LinExpr::from(w)
                        - LinExpr::from(placement[e.from.index()][u])
                        - LinExpr::from(placement[e.to.index()][v]),
                    Sense::Ge,
                    -1.0,
                );
                if e.bytes > 0 {
                    pair_terms[u * q + v].push((w, f64::from(e.bytes)));
                }
                per_edge.push(w);
            }
        }
        w_vars.push(per_edge);
    }
    for u in 0..q {
        for v in 0..q {
            if u == v || pair_terms[u * q + v].is_empty() {
                continue;
            }
            model.add_constraint(
                format!("amax_{u}_{v}"),
                LinExpr::from(a_max) - LinExpr::sum(pair_terms[u * q + v].iter().copied()),
                Sense::Ge,
                0.0,
            );
        }
    }

    // Chainability (Eq. 7): ranks keep the switch dependency graph acyclic.
    let big_m = (q + 1) as f64;
    let ranks: Vec<VarId> =
        (0..q).map(|c| model.continuous(format!("r_{c}"), 0.0, q as f64)).collect();
    for (ei, e) in edges.iter().enumerate() {
        for u in 0..q {
            for v in 0..q {
                if u == v {
                    continue;
                }
                // r_u + 1 <= r_v + M(2 - z(a,u) - z(b,v))
                model.add_constraint(
                    format!("rank_{ei}_{u}_{v}"),
                    LinExpr::from(ranks[u]) - LinExpr::from(ranks[v])
                        + LinExpr::from(placement[e.from.index()][u]) * big_m
                        + LinExpr::from(placement[e.to.index()][v]) * big_m,
                    Sense::Le,
                    2.0 * big_m - 1.0,
                );
            }
        }
    }

    // Eq. 4: latency bound over shortest-path pair latencies (only when
    // finite — the experiments run with loose bounds).
    if eps.max_latency_us.is_finite() {
        let mut latency_terms: Vec<(VarId, f64)> = Vec::new();
        for (ei, _) in edges.iter().enumerate() {
            let mut idx = 0usize;
            for u in 0..q {
                for v in 0..q {
                    if u == v {
                        continue;
                    }
                    if let Some(p) = shortest_path(net, candidates[u], candidates[v]) {
                        latency_terms.push((w_vars[ei][idx], p.latency_us));
                    }
                    idx += 1;
                }
            }
        }
        model.add_constraint("eps1", LinExpr::sum(latency_terms), Sense::Le, eps.max_latency_us);
    }

    // Eq. 5: occupied-switch bound (only when binding).
    if eps.max_switches < q {
        let occ: Vec<VarId> = (0..q).map(|c| model.binary(format!("occ_{c}"))).collect();
        for (a, vars) in placement.iter().enumerate() {
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

    model.set_objective(Direction::Minimize, LinExpr::from(a_max));
    (model, P1Variables { placement, a_max, candidates })
}

fn hermes_node(tdg: &Tdg, index: usize) -> hermes_tdg::NodeId {
    tdg.node_ids().nth(index).expect("dense node index")
}

/// Hermes solved through the MILP formulation — the "Optimal (Gurobi)"
/// configuration of the paper, backed by `hermes-milp`.
#[derive(Debug, Clone, Default)]
pub struct MilpHermes {
    /// Branch-and-bound knobs (node limit, gap, tolerances). Its
    /// `time_limit` is ignored: the [`SearchContext`] owns the budget.
    pub config: SolverConfig,
}

impl MilpHermes {
    /// MILP-backed Hermes with the given branch-and-bound knobs.
    pub fn new(config: SolverConfig) -> Self {
        MilpHermes { config }
    }
}

impl Solver for MilpHermes {
    fn name(&self) -> &str {
        "Hermes-MILP"
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
        if net.programmable_switches().is_empty() {
            return Err(DeployError::NoProgrammableSwitch);
        }
        if tdg.node_count() == 0 {
            ctx.publish_incumbent(0);
            return Ok(SolveOutcome {
                plan: DeploymentPlan::new(),
                objective: 0,
                proven_optimal: true,
                stats: SolveStats {
                    nodes_explored: 0,
                    wall: start.elapsed(),
                    proven_bound: Some(0),
                },
            });
        }
        let (model, vars) = build_p1(tdg, net, eps);
        // The context owns the budget: a configured time limit never applies.
        let mut config = self.config.clone();
        config.time_limit = None;
        let controls = SolveControls {
            deadline: ctx.deadline(),
            stop: Some(ctx.cancel_token().as_flag()),
            upper_bound: Some(ctx.shared_incumbent()),
        };
        let solution = solve_with_controls(&model, &config, &controls)
            .map_err(|e| DeployError::NoFeasiblePlacement { reason: format!("milp error: {e}") })?;
        let nodes_explored = solution.nodes_explored as u64;
        match solution.status {
            SolveStatus::Optimal | SolveStatus::Feasible => {
                let assign: Vec<usize> = (0..tdg.node_count())
                    .map(|a| {
                        (0..vars.candidates.len())
                            .find(|&c| solution.value(vars.placement[a][c]) > 0.5)
                            .expect("Eq. 6 places every node")
                    })
                    .collect();
                let plan = materialize(tdg, net, &vars.candidates, &assign).ok_or_else(|| {
                    DeployError::NoFeasiblePlacement {
                        reason: "stage assignment failed for the MILP placement".to_owned(),
                    }
                })?;
                let objective = plan.max_inter_switch_bytes(tdg);
                ctx.publish_incumbent(objective);
                let proven_optimal = solution.status == SolveStatus::Optimal;
                let proven_bound = if proven_optimal {
                    Some(objective)
                } else if solution.exhausted {
                    // Exhausted, but the externally published bound undercut
                    // our incumbent: nothing below the shared bound exists.
                    Some(ctx.incumbent_bound().min(objective))
                } else {
                    None
                };
                Ok(SolveOutcome {
                    plan,
                    objective,
                    proven_optimal,
                    stats: SolveStats { nodes_explored, wall: start.elapsed(), proven_bound },
                })
            }
            SolveStatus::LimitReached if solution.exhausted => {
                // The tree was fully explored under an externally published
                // bound without finding an incumbent of our own: the bound
                // is a certificate, not a failure.
                let bound = ctx.incumbent_bound();
                if bound == NO_BOUND {
                    Err(DeployError::NoFeasiblePlacement {
                        reason: "milp search exhausted without an incumbent".to_owned(),
                    })
                } else {
                    Err(DeployError::NoImprovementProven { bound })
                }
            }
            other => Err(DeployError::NoFeasiblePlacement {
                reason: format!("milp terminated with {other:?}"),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::OptimalSolver;
    use crate::test_support::{chain_tdg, tiny_switches};
    use std::time::Duration;

    #[test]
    fn milp_matches_exact_on_figure1() {
        let tdg = chain_tdg(&[1, 4], 0.5);
        let net = tiny_switches(2, 2, 0.5);
        let eps = Epsilon::loose();
        let milp_plan = MilpHermes::default().deploy(&tdg, &net, &eps).unwrap();
        let exact = OptimalSolver::default()
            .solve(&tdg, &net, &eps, &SearchContext::with_time_limit(Duration::from_secs(30)))
            .unwrap();
        assert_eq!(milp_plan.max_inter_switch_bytes(&tdg), exact.objective);
        assert_eq!(milp_plan.max_inter_switch_bytes(&tdg), 1);
    }

    #[test]
    fn milp_solve_reports_proven_optimality() {
        let tdg = chain_tdg(&[1, 4], 0.5);
        let net = tiny_switches(2, 2, 0.5);
        let ctx = SearchContext::with_time_limit(Duration::from_secs(30));
        let outcome = MilpHermes::default().solve(&tdg, &net, &Epsilon::loose(), &ctx).unwrap();
        assert!(outcome.proven_optimal);
        assert_eq!(outcome.objective, 1);
        assert_eq!(outcome.stats.proven_bound, Some(1));
        assert_eq!(ctx.incumbent_bound(), 1, "the milp publishes its incumbent");
    }

    #[test]
    fn milp_proves_an_externally_published_optimum() {
        // Publishing the known optimum up front leaves the MILP nothing to
        // improve: it must exhaust and certify the bound, not fail.
        let tdg = chain_tdg(&[1, 4], 0.5);
        let net = tiny_switches(2, 2, 0.5);
        let ctx = SearchContext::with_time_limit(Duration::from_secs(30));
        ctx.publish_incumbent(1);
        let err = MilpHermes::default().solve(&tdg, &net, &Epsilon::loose(), &ctx).unwrap_err();
        assert_eq!(err, DeployError::NoImprovementProven { bound: 1 });
    }

    #[test]
    fn milp_plan_verifies() {
        let tdg = chain_tdg(&[3, 1, 2], 0.5);
        let net = tiny_switches(2, 2, 0.5);
        let eps = Epsilon::loose();
        let plan = MilpHermes::default().deploy(&tdg, &net, &eps).unwrap();
        let violations = crate::verify::verify(&tdg, &net, &plan, &eps);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn model_shape_is_as_documented() {
        let tdg = chain_tdg(&[1, 4], 0.5);
        let net = tiny_switches(2, 2, 0.5);
        let (model, vars) = build_p1(&tdg, &net, &Epsilon::loose());
        // 3 nodes * 2 switches binaries + A_max + 2 edges * 2 pairs w + 2 ranks.
        assert_eq!(vars.placement.len(), 3);
        assert_eq!(model.variables().len(), 6 + 1 + 4 + 2);
        assert!(model.validate().is_ok());
    }

    #[test]
    fn zero_overhead_when_one_switch_suffices() {
        let tdg = chain_tdg(&[9, 9], 0.2);
        let net = tiny_switches(2, 12, 1.0);
        let plan = MilpHermes::default().deploy(&tdg, &net, &Epsilon::loose()).unwrap();
        assert_eq!(plan.max_inter_switch_bytes(&tdg), 0);
    }

    #[test]
    fn infeasible_capacity_is_reported() {
        // 3 x 0.5 units on a single 1-stage/0.5-capacity switch network.
        let tdg = chain_tdg(&[1, 1], 0.5);
        let net = tiny_switches(1, 1, 0.5);
        let err = MilpHermes::default().deploy(&tdg, &net, &Epsilon::loose()).unwrap_err();
        assert!(matches!(err, DeployError::NoFeasiblePlacement { .. }));
    }
}
