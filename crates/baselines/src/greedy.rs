//! First-fit greedy baselines: FFL and FFLS (Jose et al. \[8\], as extended
//! by the paper to deploy on switches one by one).
//!
//! Both walk the merged TDG level by level and pack MATs into the current
//! switch until it cannot take the next one, then move to the next
//! programmable switch. They never look at metadata amounts, so dependency
//! edges get cut wherever capacity happens to run out — exactly the
//! behaviour Hermes improves on.

use hermes_core::{
    materialize, stage_feasible, DeployError, DeploymentPlan, Epsilon, SearchContext, SolveOutcome,
    Solver,
};
use hermes_net::Network;
use hermes_tdg::{NodeId, Tdg};
use std::collections::BTreeSet;
use std::time::Instant;

/// Tie-breaking order inside a dependency level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LevelOrder {
    /// FFL: plain topological/level order.
    ByLevel,
    /// FFLS: within a level, largest resource first.
    ByLevelAndSize,
}

/// First fit by level.
#[derive(Debug, Clone, Copy, Default)]
pub struct FirstFitByLevel;

/// First fit by level and size.
#[derive(Debug, Clone, Copy, Default)]
pub struct FirstFitByLevelAndSize;

impl Solver for FirstFitByLevel {
    fn name(&self) -> &str {
        "FFL"
    }

    fn solve(
        &self,
        tdg: &Tdg,
        net: &Network,
        eps: &Epsilon,
        ctx: &SearchContext,
    ) -> Result<SolveOutcome, DeployError> {
        let start = Instant::now();
        let plan = first_fit(tdg, net, eps, LevelOrder::ByLevel)?;
        Ok(SolveOutcome::constructed(plan, tdg, ctx, start))
    }
}

impl Solver for FirstFitByLevelAndSize {
    fn name(&self) -> &str {
        "FFLS"
    }

    fn solve(
        &self,
        tdg: &Tdg,
        net: &Network,
        eps: &Epsilon,
        ctx: &SearchContext,
    ) -> Result<SolveOutcome, DeployError> {
        let start = Instant::now();
        let plan = first_fit(tdg, net, eps, LevelOrder::ByLevelAndSize)?;
        Ok(SolveOutcome::constructed(plan, tdg, ctx, start))
    }
}

/// Dependency level of each node: longest path from a root, the classic
/// FFL level function.
fn levels(tdg: &Tdg) -> Vec<usize> {
    let order = tdg.topo_order().expect("TDGs are DAGs");
    let mut level = vec![0usize; tdg.node_count()];
    for &id in &order {
        for e in tdg.out_edges(id) {
            level[e.to.index()] = level[e.to.index()].max(level[id.index()] + 1);
        }
    }
    level
}

fn first_fit(
    tdg: &Tdg,
    net: &Network,
    eps: &Epsilon,
    order_kind: LevelOrder,
) -> Result<DeploymentPlan, DeployError> {
    // Restrict to the largest component so routing between consecutive
    // fill switches always exists (Table III topology 5 is disconnected).
    let component = net.largest_component();
    let candidates: Vec<_> =
        net.programmable_switches().into_iter().filter(|s| component.contains(s)).collect();
    if candidates.is_empty() {
        return Err(DeployError::NoProgrammableSwitch);
    }
    if tdg.node_count() == 0 {
        return Ok(DeploymentPlan::new());
    }

    // Order nodes by (level, tie-break), preserving dependency legality:
    // a node's level strictly exceeds all its predecessors', so a level
    // sort is a topological sort.
    let level = levels(tdg);
    let mut nodes: Vec<NodeId> = tdg.node_ids().collect();
    nodes.sort_by(|&a, &b| {
        let key_a = level[a.index()];
        let key_b = level[b.index()];
        key_a.cmp(&key_b).then_with(|| match order_kind {
            LevelOrder::ByLevel => a.cmp(&b),
            LevelOrder::ByLevelAndSize => tdg
                .node(b)
                .mat
                .resource()
                .partial_cmp(&tdg.node(a).mat.resource())
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b)),
        })
    });

    // Pack greedily: try the current switch; on failure advance. Never
    // returns to an earlier switch, matching one-by-one deployment.
    let mut assign = vec![usize::MAX; tdg.node_count()];
    let mut current = 0usize;
    let mut on_current: BTreeSet<NodeId> = BTreeSet::new();
    for &id in &nodes {
        loop {
            if current >= candidates.len() || current >= eps.max_switches {
                return Err(DeployError::NoFeasiblePlacement {
                    reason: format!(
                        "first-fit ran out of switches after {current} (eps2 = {})",
                        eps.max_switches
                    ),
                });
            }
            let model = net.switch(candidates[current]).target_model();
            let mut attempt = on_current.clone();
            attempt.insert(id);
            if stage_feasible(tdg, &attempt, &model) {
                on_current = attempt;
                assign[id.index()] = current;
                break;
            }
            // A single MAT that fits no empty switch can never be placed.
            if on_current.is_empty() {
                return Err(DeployError::MatTooLarge {
                    mat: tdg.node(id).name.clone(),
                    resource: tdg.node(id).mat.resource(),
                });
            }
            current += 1;
            on_current.clear();
        }
    }

    let plan = materialize(tdg, net, &candidates, &assign).ok_or_else(|| {
        DeployError::NoFeasiblePlacement { reason: "routing failed for first-fit plan".to_owned() }
    })?;
    if plan.end_to_end_latency_us() > eps.max_latency_us {
        return Err(DeployError::NoFeasiblePlacement {
            reason: "first-fit plan exceeds eps1".to_owned(),
        });
    }
    Ok(plan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermes_core::{verify, GreedyHeuristic, ProgramAnalyzer};
    use hermes_dataplane::library;

    fn testbed_inputs() -> (Tdg, Network) {
        hermes_core::test_support::linear_testbed(&library::real_programs())
    }

    #[test]
    fn ffl_places_everything_and_verifies() {
        let (tdg, net) = testbed_inputs();
        let eps = Epsilon::loose();
        let plan = FirstFitByLevel.deploy(&tdg, &net, &eps).unwrap();
        let violations = verify(&tdg, &net, &plan, &eps);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn ffls_places_everything_and_verifies() {
        let (tdg, net) = testbed_inputs();
        let eps = Epsilon::loose();
        let plan = FirstFitByLevelAndSize.deploy(&tdg, &net, &eps).unwrap();
        let violations = verify(&tdg, &net, &plan, &eps);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn first_fit_is_overhead_oblivious() {
        // On the testbed workload, Hermes should never be worse than FFL.
        let (tdg, net) = testbed_inputs();
        let eps = Epsilon::loose();
        let ffl = FirstFitByLevel.deploy(&tdg, &net, &eps).unwrap();
        let hermes = hermes_core::GreedyHeuristic::new().deploy(&tdg, &net, &eps).unwrap();
        assert!(
            hermes.max_inter_switch_bytes(&tdg) <= ffl.max_inter_switch_bytes(&tdg),
            "hermes {} vs ffl {}",
            hermes.max_inter_switch_bytes(&tdg),
            ffl.max_inter_switch_bytes(&tdg)
        );
        let _ = GreedyHeuristic::new();
    }

    #[test]
    fn levels_respect_dependencies() {
        let tdg = ProgramAnalyzer::new().analyze(&[library::l3_router()]);
        let l = levels(&tdg);
        for e in tdg.edges() {
            assert!(l[e.from.index()] < l[e.to.index()]);
        }
    }

    #[test]
    fn no_programmable_switch_errors() {
        let tdg = ProgramAnalyzer::new().analyze(&[library::acl()]);
        let mut net = Network::new();
        net.add_switch(hermes_net::Switch::legacy("l"));
        assert!(matches!(
            FirstFitByLevel.deploy(&tdg, &net, &Epsilon::loose()),
            Err(DeployError::NoProgrammableSwitch)
        ));
    }

    #[test]
    fn eps2_limits_switch_usage() {
        let (tdg, net) = testbed_inputs();
        let eps = Epsilon::new(f64::INFINITY, 1);
        // Ten merged programs do not fit one switch.
        let result = FirstFitByLevel.deploy(&tdg, &net, &eps);
        if let Ok(plan) = result {
            assert!(plan.occupied_switch_count() <= 1);
        }
    }
}
