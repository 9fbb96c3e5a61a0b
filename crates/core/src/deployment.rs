//! Deployment plans: the decision variables of the paper's §V-A.
//!
//! A [`DeploymentPlan`] materializes both variable families: `x(a, i, u)`
//! (MAT `a` occupies stage `i` of switch `u`, possibly fractionally when a
//! large table spans several stages) and `y(u, v, p)` (switch `u` forwards
//! coordinated packets to `v` along path `p`), plus the derived metrics
//! the objectives are written over: `A_max`, `t_e2e`, and `Q_occ`.

use hermes_net::{Path, SwitchId};
use hermes_tdg::{NodeId, Tdg};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// One `x(a, i, u)` assignment: a slice of MAT `a` on stage `stage` of
/// switch `switch` consuming `fraction` of that stage's capacity.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StagePlacement {
    /// The MAT (TDG node) being placed.
    pub node: NodeId,
    /// Hosting switch.
    pub switch: SwitchId,
    /// Pipeline stage index (0-based, `< C_stage`).
    pub stage: usize,
    /// Fraction of the stage's capacity consumed (`0 < fraction`).
    pub fraction: f64,
}

/// One `y(u, v, p)` route: the path coordinated packets take from the
/// segment on `from` to the segment on `to`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlanRoute {
    /// Upstream switch.
    pub from: SwitchId,
    /// Downstream switch.
    pub to: SwitchId,
    /// The chosen path (starts at `from`, ends at `to`).
    pub path: Path,
}

/// A complete deployment decision.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct DeploymentPlan {
    placements: Vec<StagePlacement>,
    routes: Vec<PlanRoute>,
}

impl DeploymentPlan {
    /// Creates an empty plan.
    pub fn new() -> Self {
        DeploymentPlan::default()
    }

    /// Adds a stage placement.
    pub fn place(&mut self, placement: StagePlacement) {
        self.placements.push(placement);
    }

    /// Adds a coordination route.
    pub fn route(&mut self, route: PlanRoute) {
        self.routes.push(route);
    }

    /// All `x(a, i, u)` placements.
    pub fn placements(&self) -> &[StagePlacement] {
        &self.placements
    }

    /// All `y(u, v, p)` routes.
    pub fn routes(&self) -> &[PlanRoute] {
        &self.routes
    }

    /// The switch hosting `node`, if placed. A node split across stages is
    /// still on exactly one switch.
    pub fn switch_of(&self, node: NodeId) -> Option<SwitchId> {
        self.placements.iter().find(|p| p.node == node).map(|p| p.switch)
    }

    /// First (ρ_begin) and last (ρ_end) stage occupied by `node`.
    pub fn stage_span(&self, node: NodeId) -> Option<(usize, usize)> {
        let stages: Vec<usize> =
            self.placements.iter().filter(|p| p.node == node).map(|p| p.stage).collect();
        Some((*stages.iter().min()?, *stages.iter().max()?))
    }

    /// The set of switches hosting at least one MAT (`Q_occ` counts these).
    pub fn occupied_switches(&self) -> BTreeSet<SwitchId> {
        self.placements.iter().map(|p| p.switch).collect()
    }

    /// Nodes placed on `switch`.
    pub fn nodes_on(&self, switch: SwitchId) -> BTreeSet<NodeId> {
        self.placements.iter().filter(|p| p.switch == switch).map(|p| p.node).collect()
    }

    /// The route installed from `from` to `to`, if any.
    pub fn route_between(&self, from: SwitchId, to: SwitchId) -> Option<&PlanRoute> {
        self.routes.iter().find(|r| r.from == from && r.to == to)
    }

    /// The full node -> switch mapping as a dense array indexed by
    /// [`NodeId::index`] (`None` = unplaced), built in one pass over the
    /// placements. Callers that look up many nodes should use this instead
    /// of per-node [`DeploymentPlan::switch_of`] scans.
    pub fn switch_assignment(&self, node_count: usize) -> Vec<Option<SwitchId>> {
        let mut assign = vec![None; node_count];
        for p in &self.placements {
            let slot = &mut assign[p.node.index()];
            if slot.is_none() {
                *slot = Some(p.switch);
            }
        }
        assign
    }

    /// Per ordered switch pair `(u, v)`, the metadata bytes delivered from
    /// MATs on `u` to dependent MATs on `v` (the inner sum of Eq. 1).
    pub fn inter_switch_bytes(&self, tdg: &Tdg) -> BTreeMap<(SwitchId, SwitchId), u64> {
        let mut by_pair = BTreeMap::new();
        self.inter_switch_bytes_into(tdg, &mut by_pair);
        by_pair
    }

    /// [`DeploymentPlan::inter_switch_bytes`] into a caller-owned map:
    /// `out` is cleared and refilled, so probe-heavy paths reuse one
    /// allocation across calls. The node -> switch mapping is resolved once
    /// up front instead of per edge endpoint.
    pub fn inter_switch_bytes_into(
        &self,
        tdg: &Tdg,
        out: &mut BTreeMap<(SwitchId, SwitchId), u64>,
    ) {
        out.clear();
        let assign = self.switch_assignment(tdg.node_count());
        for e in tdg.edges() {
            let (Some(u), Some(v)) = (assign[e.from.index()], assign[e.to.index()]) else {
                continue;
            };
            if u != v {
                *out.entry((u, v)).or_insert(0) += u64::from(e.bytes);
            }
        }
    }

    /// `A_max` — the maximum metadata bytes any packet carries between a
    /// pair of switches (objective Obj#1, Eq. 1).
    pub fn max_inter_switch_bytes(&self, tdg: &Tdg) -> u64 {
        self.inter_switch_bytes(tdg).values().copied().max().unwrap_or(0)
    }

    /// `t_e2e` — the summed latency of all coordination paths (Obj#2,
    /// Eq. 2), in microseconds.
    pub fn end_to_end_latency_us(&self) -> f64 {
        self.routes.iter().map(|r| r.path.latency_us).sum()
    }

    /// `Q_occ` — the number of occupied programmable switches (Obj#3,
    /// Eq. 3).
    pub fn occupied_switch_count(&self) -> usize {
        self.occupied_switches().len()
    }

    /// Stable content fingerprint of the plan (FNV-1a over the canonical
    /// JSON serialization; see [`crate::fingerprint`]). The durability
    /// layer journals this alongside serialized plans so recovery can
    /// cross-check intent against what the operator re-supplied.
    pub fn fingerprint(&self) -> u64 {
        crate::fingerprint::json_fingerprint(self)
    }

    /// Total resource placed on each stage of each switch, keyed by
    /// `(switch, stage)` — the left side of Eq. 9.
    pub fn stage_loads(&self) -> BTreeMap<(SwitchId, usize), f64> {
        let mut loads = BTreeMap::new();
        for p in &self.placements {
            *loads.entry((p.switch, p.stage)).or_insert(0.0) += p.fraction;
        }
        loads
    }

    /// Summary of all three objective values against a TDG.
    pub fn metrics(&self, tdg: &Tdg) -> PlanMetrics {
        PlanMetrics {
            max_overhead_bytes: self.max_inter_switch_bytes(tdg),
            total_latency_us: self.end_to_end_latency_us(),
            occupied_switches: self.occupied_switch_count(),
        }
    }
}

impl fmt::Display for DeploymentPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Plan({} placements on {} switches, {} routes)",
            self.placements.len(),
            self.occupied_switch_count(),
            self.routes.len()
        )
    }
}

/// The three objective values of a plan.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PlanMetrics {
    /// `A_max` in bytes.
    pub max_overhead_bytes: u64,
    /// `t_e2e` in microseconds.
    pub total_latency_us: f64,
    /// `Q_occ`.
    pub occupied_switches: usize,
}

impl fmt::Display for PlanMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "A_max={} B, t_e2e={:.1} us, Q_occ={}",
            self.max_overhead_bytes, self.total_latency_us, self.occupied_switches
        )
    }
}

/// The ε-constraint bounds administrators submit (paper Eq. 4–5).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Epsilon {
    /// `ε₁` — upper bound on `t_e2e` in microseconds.
    pub max_latency_us: f64,
    /// `ε₂` — upper bound on `Q_occ`.
    pub max_switches: usize,
}

impl Epsilon {
    /// Loose bounds (the setting the paper's experiments use).
    pub fn loose() -> Self {
        Epsilon { max_latency_us: f64::INFINITY, max_switches: usize::MAX }
    }

    /// Explicit bounds.
    pub fn new(max_latency_us: f64, max_switches: usize) -> Self {
        Epsilon { max_latency_us, max_switches }
    }
}

impl Default for Epsilon {
    fn default() -> Self {
        Epsilon::loose()
    }
}

/// `eps1=<us> us, eps2=<n>`, with `unbounded` for the loose sentinels.
impl fmt::Display for Epsilon {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.max_latency_us == f64::INFINITY {
            f.write_str("eps1=unbounded")?;
        } else {
            write!(f, "eps1={} us", self.max_latency_us)?;
        }
        if self.max_switches == usize::MAX {
            f.write_str(", eps2=unbounded")
        } else {
            write!(f, ", eps2={}", self.max_switches)
        }
    }
}

/// Errors shared by every deployment algorithm.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum DeployError {
    /// A single MAT exceeds the total capacity of every candidate switch.
    MatTooLarge {
        /// Program-qualified MAT name.
        mat: String,
        /// Its resource requirement.
        resource: f64,
    },
    /// No placement satisfying resources, dependencies, and ε-bounds was
    /// found.
    NoFeasiblePlacement {
        /// Human-readable explanation.
        reason: String,
    },
    /// The network has no programmable switch.
    NoProgrammableSwitch,
    /// An exhaustive search finished its whole space without beating the
    /// incumbent bound published by another solver: that bound is thereby
    /// *proven optimal*, but this solver holds no plan of its own. A
    /// portfolio turns this into an optimality certificate for the
    /// bound-holder's plan.
    NoImprovementProven {
        /// The externally published bound proven unimprovable.
        bound: u64,
    },
    /// A pre-solve bound proved the instance infeasible before any search
    /// ran (see [`crate::precheck::Precheck`]): not a search failure but a
    /// proof object, returned in well under the time budget.
    ProvenInfeasible {
        /// The certificate establishing infeasibility.
        certificate: crate::precheck::Certificate,
    },
}

impl fmt::Display for DeployError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeployError::MatTooLarge { mat, resource } => {
                write!(f, "MAT `{mat}` (R={resource:.2}) exceeds every switch's capacity")
            }
            DeployError::NoFeasiblePlacement { reason } => {
                write!(f, "no feasible placement: {reason}")
            }
            DeployError::NoProgrammableSwitch => f.write_str("network has no programmable switch"),
            DeployError::NoImprovementProven { bound } => {
                write!(f, "search exhausted: the published bound of {bound} B is optimal")
            }
            DeployError::ProvenInfeasible { certificate } => {
                write!(f, "proven infeasible before search [{}]: {certificate}", certificate.code())
            }
        }
    }
}

impl std::error::Error for DeployError {}

#[cfg(test)]
mod tests {
    use super::*;
    use hermes_net::topology;
    use hermes_tdg::AnalysisMode;

    /// Paper-literal chain with the plan-metrics tests' 0.2-unit MATs.
    fn chain_tdg(bytes: &[u32]) -> Tdg {
        crate::test_support::chain_tdg_mode(bytes, 0.2, AnalysisMode::PaperLiteral)
    }

    /// NodeIds are dense program-order indices for a single-program TDG;
    /// fetch the i-th one through the public iterator.
    fn node_id(i: usize) -> NodeId {
        let tdg = chain_tdg(&[1, 1, 1, 1, 1, 1, 1]);
        let id = tdg.node_ids().nth(i).expect("index in range");
        id
    }

    fn place(plan: &mut DeploymentPlan, node: usize, switch: SwitchId, stage: usize) {
        plan.place(StagePlacement { node: node_id(node), switch, stage, fraction: 0.2 });
    }

    #[test]
    fn amax_is_max_over_pairs() {
        // t0 -1B-> t1 -4B-> t2 ; t0,t1 on s0 ; t2 on s1 => only 4B crosses.
        let tdg = chain_tdg(&[1, 4]);
        let net = topology::linear(2, 10.0);
        let ids: Vec<SwitchId> = net.switch_ids().collect();
        let mut plan = DeploymentPlan::new();
        place(&mut plan, 0, ids[0], 0);
        place(&mut plan, 1, ids[0], 1);
        place(&mut plan, 2, ids[1], 0);
        assert_eq!(plan.max_inter_switch_bytes(&tdg), 4);
        let pairs = plan.inter_switch_bytes(&tdg);
        assert_eq!(pairs.len(), 1);
        assert_eq!(pairs[&(ids[0], ids[1])], 4);
    }

    #[test]
    fn figure1_example() {
        // Paper Fig. 1: a -1B-> b -4B-> c. Existing solutions put (a,b)|(c)
        // …wait, they put (a,b) on S1 and c needs b's 4 bytes: overhead 4.
        // Hermes puts (a)|(b,c): overhead 1.
        let tdg = chain_tdg(&[1, 4]);
        let net = topology::linear(2, 10.0);
        let ids: Vec<SwitchId> = net.switch_ids().collect();

        let mut naive = DeploymentPlan::new();
        place(&mut naive, 0, ids[0], 0);
        place(&mut naive, 1, ids[0], 1);
        place(&mut naive, 2, ids[1], 0);
        assert_eq!(naive.max_inter_switch_bytes(&tdg), 4);

        let mut hermes = DeploymentPlan::new();
        place(&mut hermes, 0, ids[0], 0);
        place(&mut hermes, 1, ids[1], 0);
        place(&mut hermes, 2, ids[1], 1);
        assert_eq!(hermes.max_inter_switch_bytes(&tdg), 1);
    }

    #[test]
    fn same_switch_edges_cost_nothing() {
        let tdg = chain_tdg(&[100]);
        let net = topology::linear(1, 10.0);
        let s = net.switch_ids().next().unwrap();
        let mut plan = DeploymentPlan::new();
        place(&mut plan, 0, s, 0);
        place(&mut plan, 1, s, 1);
        assert_eq!(plan.max_inter_switch_bytes(&tdg), 0);
        assert_eq!(plan.occupied_switch_count(), 1);
    }

    #[test]
    fn stage_span_tracks_splits() {
        let net = topology::linear(1, 10.0);
        let s = net.switch_ids().next().unwrap();
        let mut plan = DeploymentPlan::new();
        let n = node_id(0);
        plan.place(StagePlacement { node: n, switch: s, stage: 2, fraction: 0.5 });
        plan.place(StagePlacement { node: n, switch: s, stage: 3, fraction: 0.5 });
        assert_eq!(plan.stage_span(n), Some((2, 3)));
        assert_eq!(plan.stage_loads()[&(s, 2)], 0.5);
    }

    #[test]
    fn latency_sums_routes() {
        let net = topology::linear(3, 10.0);
        let ids: Vec<SwitchId> = net.switch_ids().collect();
        let mut plan = DeploymentPlan::new();
        let p01 = hermes_net::shortest_path(&net, ids[0], ids[1]).unwrap();
        let p12 = hermes_net::shortest_path(&net, ids[1], ids[2]).unwrap();
        let expect = p01.latency_us + p12.latency_us;
        plan.route(PlanRoute { from: ids[0], to: ids[1], path: p01 });
        plan.route(PlanRoute { from: ids[1], to: ids[2], path: p12 });
        assert_eq!(plan.end_to_end_latency_us(), expect);
        assert!(plan.route_between(ids[0], ids[1]).is_some());
        assert!(plan.route_between(ids[1], ids[0]).is_none());
    }

    #[test]
    fn epsilon_defaults_are_loose() {
        let eps = Epsilon::default();
        assert!(eps.max_latency_us.is_infinite());
        assert_eq!(eps.max_switches, usize::MAX);
    }

    #[test]
    fn metrics_display() {
        let tdg = chain_tdg(&[1]);
        let plan = DeploymentPlan::new();
        let m = plan.metrics(&tdg);
        assert_eq!(m.max_overhead_bytes, 0);
        assert!(m.to_string().contains("A_max=0 B"));
    }
}
