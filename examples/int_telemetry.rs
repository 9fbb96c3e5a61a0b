//! In-band network telemetry: heavyweight metadata meets the MTU.
//!
//! INT stamps every packet with switch id (4 B), timestamps (12 B), and
//! queue lengths (6 B) — the heaviest rows of the paper's Table I. This
//! example deploys INT alongside routing and load balancing on a k=4
//! fat-tree, then pushes flows through the packet-level simulator to show
//! how the chosen deployment's byte overhead translates into flow
//! completion time and goodput.
//!
//! Run with: `cargo run --example int_telemetry`

use hermes::baselines::FirstFitByLevel;
use hermes::core::{Epsilon, GreedyHeuristic, ProgramAnalyzer, Solver};
use hermes::dataplane::library;
use hermes::net::topology;
use hermes::sim::testbed::{normalized_impact, TestbedConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // INT plus the forwarding functions it rides on.
    let programs = vec![
        library::int_telemetry(),
        library::l3_router(),
        library::ecmp_lb(),
        library::qos_meter(),
    ];
    let tdg = ProgramAnalyzer::new().analyze(&programs);
    println!(
        "workload: INT + routing + ECMP + QoS = {} MATs, max single dependency {} B",
        tdg.node_count(),
        tdg.max_edge_bytes()
    );

    // A k=4 fat-tree of Tofino-like switches with 10 us DCN links.
    let net = topology::fat_tree(4, 10.0);
    println!("network: k=4 fat-tree, {} switches / {} links", net.switch_count(), net.link_count());

    let eps = Epsilon::loose();
    let hermes = GreedyHeuristic::new().deploy(&tdg, &net, &eps)?;
    let naive = FirstFitByLevel.deploy(&tdg, &net, &eps)?;

    // Translate each plan's byte overhead into end-to-end impact.
    let sim = TestbedConfig { packets: 20_000, ..Default::default() };
    println!("\n{:<10} {:>12} {:>10} {:>12}", "algo", "overhead (B)", "FCT x", "goodput x");
    for (name, plan) in [("Hermes", &hermes), ("first-fit", &naive)] {
        let bytes = plan.max_inter_switch_bytes(&tdg) as u32;
        let perf = normalized_impact(&sim, 1024, bytes);
        println!(
            "{:<10} {:>12} {:>10.3} {:>12.3}",
            name, bytes, perf.fct_ratio, perf.goodput_ratio
        );
    }
    assert!(
        hermes.max_inter_switch_bytes(&tdg) <= naive.max_inter_switch_bytes(&tdg),
        "Hermes never carries more telemetry bytes between switches"
    );
    Ok(())
}
