//! End-to-end simulation of a concrete deployment.
//!
//! The bench harness evaluates plans on the abstract five-hop testbed of
//! §II-B. This module instead simulates the *actual* deployment: the flow
//! follows the plan's switch visit order, traverses every intermediate
//! switch of the installed coordination paths with the network's real
//! per-link latencies, and carries the piggyback load the emulator
//! derives for the plan (the paper's measurement: the maximum metadata
//! between any switch pair rides every packet).

use crate::config::DeploymentArtifacts;
use crate::emulator::{run_distributed, test_packet};
use hermes_core::DeploymentPlan;
use hermes_net::{shortest_path, Network, SwitchId};
use hermes_sim::engine::{FlowStats, SimFlow, SimLink, SimNode, Simulation};
use hermes_tdg::Tdg;

/// Flow parameters for a deployment simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanFlowConfig {
    /// Packets in the flow.
    pub packets: u64,
    /// Application packet size in bytes (headers included, metadata not).
    pub packet_size: u32,
    /// Protocol header bytes within `packet_size`.
    pub header_bytes: u32,
    /// Line rate of every link, Gbit/s (the substrate model carries
    /// latencies but not rates; Tofino ports are 100 G).
    pub rate_gbps: f64,
}

impl Default for PlanFlowConfig {
    fn default() -> Self {
        PlanFlowConfig { packets: 5_000, packet_size: 1024, header_bytes: 54, rate_gbps: 100.0 }
    }
}

/// Result of simulating one flow through a deployment.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanSimResult {
    /// Stats of the flow carrying the plan's metadata.
    pub loaded: FlowStats,
    /// Stats of the identical flow with zero metadata (baseline).
    pub baseline: FlowStats,
    /// Metadata bytes carried per packet (the emulator's max wire load).
    pub overhead_bytes: u32,
    /// Every switch the flow traverses, coordination path hops included.
    pub traversed: Vec<SwitchId>,
}

impl PlanSimResult {
    /// `FCT(loaded) / FCT(baseline)`.
    pub fn fct_ratio(&self) -> f64 {
        self.loaded.fct_us / self.baseline.fct_us
    }

    /// `goodput(loaded) / goodput(baseline)`.
    pub fn goodput_ratio(&self) -> f64 {
        self.loaded.goodput_gbps / self.baseline.goodput_gbps
    }
}

/// Simulates a flow through the deployment's coordination chain.
///
/// Returns `None` when the plan occupies no switch or a coordination hop
/// has no path (never the case for verified plans on connected components).
pub fn simulate_plan(
    tdg: &Tdg,
    net: &Network,
    plan: &DeploymentPlan,
    artifacts: &DeploymentArtifacts,
    config: &PlanFlowConfig,
) -> Option<PlanSimResult> {
    let order = artifacts.switch_visit_order(tdg, plan)?;
    if order.is_empty() {
        return None;
    }
    // Expand the visit order into the physical switch sequence: installed
    // route hops where available, shortest paths otherwise.
    let mut traversed: Vec<SwitchId> = vec![order[0]];
    for w in order.windows(2) {
        let hops = match plan.route_between(w[0], w[1]) {
            Some(r) => r.path.hops.clone(),
            None => shortest_path(net, w[0], w[1])?.hops,
        };
        traversed.extend(hops.into_iter().skip(1));
    }

    // The realized per-packet metadata load (pass-through included).
    let trace = run_distributed(tdg, plan, artifacts, test_packet(0));
    let overhead = trace.max_wire_bytes();

    let run = |overhead: u32| -> FlowStats {
        let mut sim = Simulation::new();
        let src = sim.add_node(SimNode { latency_us: 0.0 });
        let mut nodes = vec![src];
        for &s in &traversed {
            nodes.push(sim.add_node(SimNode { latency_us: net.switch(s).latency_us }));
        }
        let dst = sim.add_node(SimNode { latency_us: 0.0 });
        nodes.push(dst);
        for (i, w) in nodes.windows(2).enumerate() {
            // Host links get a nominal 1 us; switch-switch links use the
            // substrate latency.
            let delay = if i == 0 || i + 2 == nodes.len() {
                1.0
            } else {
                net.link_between(traversed[i - 1], traversed[i]).map_or(1.0, |l| l.latency_us)
            };
            sim.add_link(SimLink {
                from: w[0],
                to: w[1],
                rate_gbps: config.rate_gbps,
                delay_us: delay,
            });
        }
        sim.add_flow(SimFlow::constant(
            nodes,
            config.packets,
            config.packet_size + overhead,
            config.packet_size - config.header_bytes,
        ));
        sim.run().expect("chain flows are valid")[0]
    };

    Some(PlanSimResult {
        loaded: run(overhead),
        baseline: run(0),
        overhead_bytes: overhead,
        traversed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::generate;
    use hermes_core::{Epsilon, GreedyHeuristic, ProgramAnalyzer, Solver};
    use hermes_dataplane::library;
    use hermes_net::topology;

    fn deployed() -> (Tdg, Network, DeploymentPlan, DeploymentArtifacts) {
        let tdg = ProgramAnalyzer::new().analyze(&library::real_programs());
        let net = topology::linear(3, 10.0);
        let plan = GreedyHeuristic::new().deploy(&tdg, &net, &Epsilon::loose()).unwrap();
        let art = generate(&tdg, &net, &plan);
        (tdg, net, plan, art)
    }

    #[test]
    fn simulates_the_whole_coordination_chain() {
        let (tdg, net, plan, art) = deployed();
        let config = PlanFlowConfig { packets: 500, ..Default::default() };
        let result = simulate_plan(&tdg, &net, &plan, &art, &config).unwrap();
        assert_eq!(result.loaded.packets, 500);
        assert!(result.traversed.len() >= plan.occupied_switch_count());
        assert!(result.fct_ratio() >= 1.0);
        assert!(result.goodput_ratio() <= 1.0);
    }

    #[test]
    fn zero_overhead_plan_shows_no_degradation() {
        let tdg = ProgramAnalyzer::new().analyze(&[library::l3_router()]);
        let net = topology::linear(2, 10.0);
        let plan = GreedyHeuristic::new().deploy(&tdg, &net, &Epsilon::loose()).unwrap();
        let art = generate(&tdg, &net, &plan);
        let config = PlanFlowConfig { packets: 200, ..Default::default() };
        let result = simulate_plan(&tdg, &net, &plan, &art, &config).unwrap();
        assert_eq!(result.overhead_bytes, 0);
        assert!((result.fct_ratio() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn heavier_plans_degrade_more() {
        // Compare the heuristic against a deliberately bad (balanced)
        // split on the same workload and network.
        use hermes_core::SplitStrategy;
        let tdg = ProgramAnalyzer::new().analyze(&library::real_programs());
        let net = topology::linear(3, 10.0);
        let eps = Epsilon::loose();
        let config = PlanFlowConfig { packets: 500, ..Default::default() };

        let good_plan = GreedyHeuristic::new().deploy(&tdg, &net, &eps).unwrap();
        let good_art = generate(&tdg, &net, &good_plan);
        let good = simulate_plan(&tdg, &net, &good_plan, &good_art, &config).unwrap();

        let bad_plan = GreedyHeuristic::with_strategy(SplitStrategy::Balanced)
            .deploy(&tdg, &net, &eps)
            .unwrap();
        let bad_art = generate(&tdg, &net, &bad_plan);
        let bad = simulate_plan(&tdg, &net, &bad_plan, &bad_art, &config).unwrap();

        assert!(good.overhead_bytes <= bad.overhead_bytes);
        assert!(good.fct_ratio() <= bad.fct_ratio() + 1e-9);
    }
}
