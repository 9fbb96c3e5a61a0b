//! Deployment plan verification against the paper's constraint system.
//!
//! Checks every constraint of §V-B/§V-C on a concrete plan: node deployment
//! (Eq. 6), edge deployment across switches (Eq. 7) and within a switch
//! (Eq. 8), per-stage resource capacity (Eq. 9), and the ε-bounds on
//! latency (Eq. 4) and occupied switches (Eq. 5). Every algorithm in the
//! workspace — Hermes, Optimal, and all baselines — is validated through
//! this single checker in tests and experiments.

use crate::deployment::{DeploymentPlan, Epsilon};
use hermes_net::{Network, SwitchId};
use hermes_tdg::{relaxed_type, StateClassification, Tdg};
use std::collections::BTreeMap;
use std::fmt;

/// One violated constraint.
#[derive(Debug, Clone, PartialEq)]
pub enum Violation {
    /// Eq. 6: a MAT was not placed anywhere.
    NodeUnplaced {
        /// Program-qualified MAT name.
        node: String,
    },
    /// A MAT was placed on two different switches.
    NodeOnMultipleSwitches {
        /// Program-qualified MAT name.
        node: String,
    },
    /// A MAT was placed on a non-programmable switch.
    NonProgrammableHost {
        /// Program-qualified MAT name.
        node: String,
        /// The offending switch name.
        switch: String,
    },
    /// A MAT was placed on a failed (down) switch.
    DownHost {
        /// Program-qualified MAT name.
        node: String,
        /// The offending switch name.
        switch: String,
    },
    /// A placement references a stage outside the switch's pipeline.
    StageOutOfRange {
        /// Program-qualified MAT name.
        node: String,
        /// The stage index used.
        stage: usize,
        /// Stages the switch actually has.
        stages: usize,
    },
    /// The fractions placed for a MAT do not sum to its requirement.
    ResourceShortfall {
        /// Program-qualified MAT name.
        node: String,
        /// Total fraction placed.
        placed: f64,
        /// Required `R(a)`.
        required: f64,
    },
    /// Eq. 7: a cross-switch dependency has no route installed.
    MissingRoute {
        /// Upstream switch name.
        from: String,
        /// Downstream switch name.
        to: String,
    },
    /// A route's path does not actually run from its `from` to its `to`
    /// over existing links.
    BrokenRoute {
        /// Upstream switch name.
        from: String,
        /// Downstream switch name.
        to: String,
    },
    /// Eq. 8: a same-switch dependency is not stage-ordered.
    StageOrder {
        /// Upstream MAT.
        upstream: String,
        /// Downstream MAT.
        downstream: String,
    },
    /// Eq. 9: a stage holds more than its capacity.
    StageOverload {
        /// Switch name.
        switch: String,
        /// Stage index.
        stage: usize,
        /// Load placed on it.
        load: f64,
        /// Its capacity.
        capacity: f64,
    },
    /// Eq. 4: total coordination latency exceeds ε₁.
    LatencyBound {
        /// Plan latency (µs).
        latency_us: f64,
        /// The bound ε₁ (µs).
        bound_us: f64,
    },
    /// Eq. 5: occupied switches exceed ε₂.
    SwitchBound {
        /// Occupied switch count.
        occupied: usize,
        /// The bound ε₂.
        bound: usize,
    },
    /// A switch with a finite total-resource budget (SmartNIC-style
    /// target) holds more load across all stages than its budget allows.
    TargetBudgetExceeded {
        /// Switch name.
        switch: String,
        /// Total load placed on the switch (all stages).
        used: f64,
        /// The switch's total-resource budget.
        budget: f64,
    },
    /// An edge claims a relaxed dependency type that the state-access
    /// classifier, re-run from scratch over the final node set, does not
    /// certify. Relaxed edges waive Eq. 7 routing and Eq. 8 ordering, so
    /// an uncertified relaxation would silently drop real constraints.
    UncertifiedRelaxation {
        /// Upstream MAT.
        upstream: String,
        /// Downstream MAT.
        downstream: String,
        /// The relaxed type the edge claims (display form).
        claimed: String,
    },
}

impl Violation {
    /// Stable diagnostic code (`HV4xx` block), so violations re-emit
    /// unchanged through the `hermes-analysis` diagnostics framework.
    pub fn code(&self) -> &'static str {
        match self {
            Violation::NodeUnplaced { .. } => "HV401",
            Violation::NodeOnMultipleSwitches { .. } => "HV402",
            Violation::NonProgrammableHost { .. } => "HV403",
            Violation::DownHost { .. } => "HV404",
            Violation::StageOutOfRange { .. } => "HV405",
            Violation::ResourceShortfall { .. } => "HV406",
            Violation::MissingRoute { .. } => "HV407",
            Violation::BrokenRoute { .. } => "HV408",
            Violation::StageOrder { .. } => "HV409",
            Violation::StageOverload { .. } => "HV410",
            Violation::LatencyBound { .. } => "HV411",
            Violation::SwitchBound { .. } => "HV412",
            Violation::TargetBudgetExceeded { .. } => "HV413",
            Violation::UncertifiedRelaxation { .. } => "HV414",
        }
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::NodeUnplaced { node } => write!(f, "node `{node}` unplaced (Eq. 6)"),
            Violation::NodeOnMultipleSwitches { node } => {
                write!(f, "node `{node}` on multiple switches")
            }
            Violation::NonProgrammableHost { node, switch } => {
                write!(f, "node `{node}` on non-programmable `{switch}`")
            }
            Violation::DownHost { node, switch } => {
                write!(f, "node `{node}` on failed switch `{switch}`")
            }
            Violation::StageOutOfRange { node, stage, stages } => {
                write!(f, "node `{node}` on stage {stage} of a {stages}-stage switch")
            }
            Violation::ResourceShortfall { node, placed, required } => {
                write!(f, "node `{node}` placed {placed:.3}/{required:.3} units")
            }
            Violation::MissingRoute { from, to } => {
                write!(f, "no route `{from}` -> `{to}` (Eq. 7)")
            }
            Violation::BrokenRoute { from, to } => write!(f, "broken route `{from}` -> `{to}`"),
            Violation::StageOrder { upstream, downstream } => {
                write!(f, "`{upstream}` must finish before `{downstream}` begins (Eq. 8)")
            }
            Violation::StageOverload { switch, stage, load, capacity } => {
                write!(
                    f,
                    "stage {stage} of `{switch}` overloaded: {load:.3} > {capacity:.3} (Eq. 9)"
                )
            }
            Violation::LatencyBound { latency_us, bound_us } => {
                write!(f, "latency {latency_us:.1} us exceeds eps1 = {bound_us:.1} us (Eq. 4)")
            }
            Violation::SwitchBound { occupied, bound } => {
                write!(f, "{occupied} occupied switches exceed eps2 = {bound} (Eq. 5)")
            }
            Violation::TargetBudgetExceeded { switch, used, budget } => {
                write!(f, "`{switch}` holds {used:.3} units against a total budget of {budget:.3}")
            }
            Violation::UncertifiedRelaxation { upstream, downstream, claimed } => write!(
                f,
                "`{upstream}` -> `{downstream}` claims `{claimed}` but the state-access \
                 classifier does not certify the relaxation"
            ),
        }
    }
}

const TOL: f64 = 1e-6;

/// Checks `plan` against every constraint; an empty vector means valid.
///
/// Runs in one pass over the placement list: placements are grouped by node
/// up front, so the per-node checks and the per-edge endpoint lookups cost
/// O(nodes + placements + edges) instead of rescanning the whole plan for
/// every node and edge. Names are borrowed throughout and cloned only when
/// a violation is actually emitted.
pub fn verify(tdg: &Tdg, net: &Network, plan: &DeploymentPlan, eps: &Epsilon) -> Vec<Violation> {
    let mut out = Vec::new();

    // Group placements by node once; `host`/`span` feed the edge checks.
    let n = tdg.node_count();
    let mut per_node: Vec<Vec<&crate::deployment::StagePlacement>> = vec![Vec::new(); n];
    for p in plan.placements() {
        per_node[p.node.index()].push(p);
    }
    let mut host: Vec<Option<SwitchId>> = vec![None; n];
    let mut span: Vec<Option<(usize, usize)>> = vec![None; n];

    // Node deployment (Eq. 6) + single-switch + host programmability +
    // stage ranges + resource completeness.
    for id in tdg.node_ids() {
        let name = &tdg.node(id).name;
        let group = &per_node[id.index()];
        let Some(first) = group.first() else {
            out.push(Violation::NodeUnplaced { node: name.clone() });
            continue;
        };
        let mut placed = 0.0;
        let (mut lo, mut hi) = (usize::MAX, 0usize);
        let mut multi = false;
        for p in group {
            placed += p.fraction;
            lo = lo.min(p.stage);
            hi = hi.max(p.stage);
            multi |= p.switch != first.switch;
        }
        host[id.index()] = Some(first.switch);
        span[id.index()] = Some((lo, hi));
        if multi {
            out.push(Violation::NodeOnMultipleSwitches { node: name.clone() });
            continue;
        }
        let sw = net.switch(first.switch);
        if !sw.programmable {
            out.push(Violation::NonProgrammableHost {
                node: name.clone(),
                switch: sw.name.clone(),
            });
        }
        if !net.is_switch_up(first.switch) {
            out.push(Violation::DownHost { node: name.clone(), switch: sw.name.clone() });
        }
        for p in group {
            if p.stage >= sw.stages {
                out.push(Violation::StageOutOfRange {
                    node: name.clone(),
                    stage: p.stage,
                    stages: sw.stages,
                });
            }
        }
        let required = tdg.node(id).mat.resource();
        if (placed - required).abs() > TOL {
            out.push(Violation::ResourceShortfall { node: name.clone(), placed, required });
        }
    }

    // Edge deployment (Eq. 7 across switches, Eq. 8 within a switch).
    // Relaxed edges waive both: replicable and commutative state needs
    // neither a metadata route nor stage ordering. Whether each relaxation
    // is actually justified is certified separately below.
    for e in tdg.edges() {
        if e.dep.is_relaxed() {
            continue;
        }
        let (Some(u), Some(v)) = (host[e.from.index()], host[e.to.index()]) else {
            continue; // unplaced endpoints already reported
        };
        if u != v {
            match plan.route_between(u, v) {
                None => out.push(Violation::MissingRoute {
                    from: net.switch(u).name.clone(),
                    to: net.switch(v).name.clone(),
                }),
                Some(route) => {
                    let hops = &route.path.hops;
                    let endpoints_ok = hops.first() == Some(&u) && hops.last() == Some(&v);
                    let links_ok = hops.windows(2).all(|w| net.link_between(w[0], w[1]).is_some());
                    if !endpoints_ok || !links_ok {
                        out.push(Violation::BrokenRoute {
                            from: net.switch(u).name.clone(),
                            to: net.switch(v).name.clone(),
                        });
                    }
                }
            }
        } else {
            let (Some((_, end_a)), Some((begin_b, _))) = (span[e.from.index()], span[e.to.index()])
            else {
                continue;
            };
            if end_a >= begin_b {
                out.push(Violation::StageOrder {
                    upstream: tdg.node(e.from).name.clone(),
                    downstream: tdg.node(e.to).name.clone(),
                });
            }
        }
    }

    // Per-stage resources (Eq. 9).
    let mut loads: BTreeMap<(SwitchId, usize), f64> = BTreeMap::new();
    for p in plan.placements() {
        *loads.entry((p.switch, p.stage)).or_insert(0.0) += p.fraction;
    }
    for ((switch, stage), load) in &loads {
        let cap = net.switch(*switch).stage_capacity;
        if *load > cap + TOL {
            out.push(Violation::StageOverload {
                switch: net.switch(*switch).name.clone(),
                stage: *stage,
                load: *load,
                capacity: cap,
            });
        }
    }

    // Per-switch total-resource budgets (targets with a finite budget only;
    // the default pipeline target has an infinite budget, so this emits
    // nothing on pre-target topologies).
    let mut switch_used: BTreeMap<SwitchId, f64> = BTreeMap::new();
    for ((switch, _), load) in &loads {
        *switch_used.entry(*switch).or_insert(0.0) += load;
    }
    for (switch, used) in switch_used {
        let budget = net.switch(switch).total_budget;
        if budget.is_finite() && used > budget + TOL {
            out.push(Violation::TargetBudgetExceeded {
                switch: net.switch(switch).name.clone(),
                used,
                budget,
            });
        }
    }

    // Relaxation certification: an edge may carry a relaxed type only if
    // the state-access classifier, recomputed from scratch over the final
    // node set, would grant exactly that relaxation. This catches both
    // hand-crafted unsound relaxations and stale ones that survived a
    // merge which introduced a conflicting writer.
    if tdg.edges().iter().any(|e| e.dep.is_relaxed()) {
        let class = StateClassification::of_mats(tdg.nodes().iter().map(|n| &n.mat));
        for e in tdg.edges() {
            if !e.dep.is_relaxed() {
                continue;
            }
            let (a, b) = (tdg.node(e.from), tdg.node(e.to));
            if relaxed_type(&a.mat, &b.mat, e.dep, &class) != Some(e.dep) {
                out.push(Violation::UncertifiedRelaxation {
                    upstream: a.name.clone(),
                    downstream: b.name.clone(),
                    claimed: e.dep.to_string(),
                });
            }
        }
    }

    // ε-bounds (Eq. 4–5).
    let latency = plan.end_to_end_latency_us();
    if latency > eps.max_latency_us {
        out.push(Violation::LatencyBound { latency_us: latency, bound_us: eps.max_latency_us });
    }
    let occupied = plan.occupied_switch_count();
    if occupied > eps.max_switches {
        out.push(Violation::SwitchBound { occupied, bound: eps.max_switches });
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deployment::StagePlacement;
    use crate::heuristic::GreedyHeuristic;
    use crate::solver::Solver;
    use hermes_dataplane::library;
    use hermes_net::topology;
    use hermes_tdg::{merge_all, AnalysisMode, Tdg};

    fn merged() -> Tdg {
        merge_all(
            library::real_programs()
                .iter()
                .map(|p| Tdg::from_program(p, AnalysisMode::PaperLiteral))
                .collect(),
        )
    }

    #[test]
    fn heuristic_plans_verify_clean() {
        let tdg = merged();
        let net = topology::linear(3, 10.0);
        let eps = Epsilon::loose();
        let plan = GreedyHeuristic::new().deploy(&tdg, &net, &eps).unwrap();
        let violations = verify(&tdg, &net, &plan, &eps);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn empty_plan_reports_every_node() {
        let tdg = merged();
        let net = topology::linear(3, 10.0);
        let violations = verify(&tdg, &net, &DeploymentPlan::new(), &Epsilon::loose());
        let unplaced =
            violations.iter().filter(|v| matches!(v, Violation::NodeUnplaced { .. })).count();
        assert_eq!(unplaced, tdg.node_count());
    }

    #[test]
    fn missing_route_detected() {
        let tdg = merged();
        let net = topology::linear(3, 10.0);
        let eps = Epsilon::loose();
        let plan = GreedyHeuristic::new().deploy(&tdg, &net, &eps).unwrap();
        if plan.routes().is_empty() {
            // Single-switch plan: force a split by shrinking the pipeline.
            return;
        }
        let mut stripped = DeploymentPlan::new();
        for p in plan.placements() {
            stripped.place(p.clone());
        }
        let violations = verify(&tdg, &net, &stripped, &eps);
        assert!(violations.iter().any(|v| matches!(v, Violation::MissingRoute { .. })));
    }

    #[test]
    fn stage_order_violation_detected() {
        // Place a dependent pair in the wrong stage order on one switch.
        let tdg = Tdg::from_program(&library::l3_router(), AnalysisMode::PaperLiteral);
        let net = topology::linear(1, 10.0);
        let s = net.switch_ids().next().unwrap();
        let ids: Vec<_> = tdg.node_ids().collect();
        let mut plan = DeploymentPlan::new();
        for (i, &id) in ids.iter().enumerate() {
            plan.place(StagePlacement {
                node: id,
                switch: s,
                // Reverse order: downstream tables get earlier stages.
                stage: ids.len() - 1 - i,
                fraction: tdg.node(id).mat.resource(),
            });
        }
        let violations = verify(&tdg, &net, &plan, &Epsilon::loose());
        assert!(violations.iter().any(|v| matches!(v, Violation::StageOrder { .. })));
    }

    #[test]
    fn stage_overload_detected() {
        let tdg = Tdg::from_program(&library::acl(), AnalysisMode::PaperLiteral);
        let net = topology::linear(1, 10.0);
        let s = net.switch_ids().next().unwrap();
        let mut plan = DeploymentPlan::new();
        // Dump everything on stage 0 regardless of capacity (ACL classify
        // is 0.5 + stats 0.1 <= 1.0, so inflate by duplicating fractions).
        for id in tdg.node_ids() {
            plan.place(StagePlacement { node: id, switch: s, stage: 0, fraction: 0.8 });
        }
        let violations = verify(&tdg, &net, &plan, &Epsilon::loose());
        assert!(violations.iter().any(|v| matches!(v, Violation::StageOverload { .. })));
    }

    #[test]
    fn epsilon_bounds_reported() {
        let tdg = merged();
        let net = topology::linear(3, 10.0);
        let plan = GreedyHeuristic::new().deploy(&tdg, &net, &Epsilon::loose()).unwrap();
        let tight = Epsilon::new(0.0, 0);
        let violations = verify(&tdg, &net, &plan, &tight);
        assert!(violations.iter().any(|v| matches!(v, Violation::SwitchBound { .. })));
    }

    #[test]
    fn target_budget_violation_detected() {
        // A switch with a finite total budget rejects a plan whose combined
        // load exceeds it even though every stage individually fits.
        let tdg = Tdg::from_program(&library::acl(), AnalysisMode::PaperLiteral);
        let mut net = topology::linear(1, 10.0);
        let s = net.switch_ids().next().unwrap();
        net.switch_mut(s).total_budget = 0.3;
        let mut plan = DeploymentPlan::new();
        for (i, id) in tdg.node_ids().enumerate() {
            plan.place(StagePlacement {
                node: id,
                switch: s,
                stage: i,
                fraction: tdg.node(id).mat.resource(),
            });
        }
        let violations = verify(&tdg, &net, &plan, &Epsilon::loose());
        let budget = violations
            .iter()
            .find(|v| matches!(v, Violation::TargetBudgetExceeded { .. }))
            .expect("budget violation");
        assert_eq!(budget.code(), "HV413");
        // No budget set => no violation, regardless of load.
        net.switch_mut(s).total_budget = f64::INFINITY;
        let clean = verify(&tdg, &net, &plan, &Epsilon::loose());
        assert!(!clean.iter().any(|v| matches!(v, Violation::TargetBudgetExceeded { .. })));
    }

    fn fold_mat(name: &str, capacity: usize) -> hermes_dataplane::mat::Mat {
        use hermes_dataplane::action::{Action, FoldOp, PrimitiveOp};
        use hermes_dataplane::fields::Field;
        hermes_dataplane::mat::Mat::builder(name)
            .resource(0.2)
            .capacity(capacity)
            .action(Action::new(format!("fold_{name}")).with_op(PrimitiveOp::Fold {
                dst: Field::metadata("acc", 4),
                srcs: vec![Field::header("v", 4)],
                op: FoldOp::Add,
            }))
            .build()
            .unwrap()
    }

    #[test]
    fn certified_relaxed_edge_waives_route_and_order() {
        use hermes_tdg::DependencyType;
        // Two commutative folders of one accumulator: the relaxed edge is
        // certified, so placing them on separate switches with no route —
        // and in reversed stage order — is still a valid plan.
        let tdg = Tdg::from_mats_and_edges(
            vec![("p.f0".into(), fold_mat("f0", 8)), ("p.f1".into(), fold_mat("f1", 16))],
            vec![(0, 1, DependencyType::RelaxedMatch)],
            AnalysisMode::RelaxedState,
        );
        let net = topology::linear(2, 10.0);
        let switches: Vec<_> = net.switch_ids().collect();
        let ids: Vec<_> = tdg.node_ids().collect();
        let mut plan = DeploymentPlan::new();
        for (i, &id) in ids.iter().enumerate() {
            plan.place(StagePlacement {
                node: id,
                switch: switches[i],
                stage: 0,
                fraction: tdg.node(id).mat.resource(),
            });
        }
        let violations = verify(&tdg, &net, &plan, &Epsilon::loose());
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn uncertified_relaxation_rejected() {
        use hermes_dataplane::action::Action;
        use hermes_dataplane::fields::Field;
        use hermes_dataplane::mat::{Mat, MatchKind};
        use hermes_tdg::DependencyType;
        // A plain setter feeding a matcher is SingleWriter state; claiming
        // a relaxed match on that edge must be flagged even though the
        // placement itself is otherwise legal.
        let writer = Mat::builder("w")
            .resource(0.2)
            .action(Action::writing("set", vec![Field::metadata("x", 4)]))
            .build()
            .unwrap();
        let reader = Mat::builder("r")
            .resource(0.2)
            .match_field(Field::metadata("x", 4), MatchKind::Exact)
            .action(Action::writing("nop", vec![]))
            .build()
            .unwrap();
        let tdg = Tdg::from_mats_and_edges(
            vec![("p.w".into(), writer), ("p.r".into(), reader)],
            vec![(0, 1, DependencyType::RelaxedMatch)],
            AnalysisMode::RelaxedState,
        );
        let net = topology::linear(1, 10.0);
        let s = net.switch_ids().next().unwrap();
        let mut plan = DeploymentPlan::new();
        for (i, id) in tdg.node_ids().enumerate() {
            plan.place(StagePlacement {
                node: id,
                switch: s,
                stage: i,
                fraction: tdg.node(id).mat.resource(),
            });
        }
        let violations = verify(&tdg, &net, &plan, &Epsilon::loose());
        let bad = violations
            .iter()
            .find(|v| matches!(v, Violation::UncertifiedRelaxation { .. }))
            .expect("HV414 violation");
        assert_eq!(bad.code(), "HV414");
        // No stage-order or route complaints: the relaxed edge is exempt
        // from Eq. 7/8 either way; only the certification fails.
        assert!(!violations.iter().any(|v| matches!(v, Violation::StageOrder { .. })));
        assert!(!violations.iter().any(|v| matches!(v, Violation::MissingRoute { .. })));
    }

    #[test]
    fn resource_shortfall_detected() {
        let tdg = Tdg::from_program(&library::acl(), AnalysisMode::PaperLiteral);
        let net = topology::linear(1, 10.0);
        let s = net.switch_ids().next().unwrap();
        let mut plan = DeploymentPlan::new();
        for (i, id) in tdg.node_ids().enumerate() {
            plan.place(StagePlacement { node: id, switch: s, stage: i, fraction: 0.01 });
        }
        let violations = verify(&tdg, &net, &plan, &Epsilon::loose());
        assert!(violations.iter().any(|v| matches!(v, Violation::ResourceShortfall { .. })));
    }
}
