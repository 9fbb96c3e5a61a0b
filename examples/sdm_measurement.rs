//! Software-defined measurement: the paper's motivating scenario.
//!
//! Ten sketch algorithms must run concurrently, but together they exhaust
//! a single switch. This example shows the whole Hermes pipeline on that
//! workload: TDG merging deduplicates the 5-tuple hash every sketch
//! invokes, the heuristic splits the merged TDG across a three-switch
//! testbed, and the resulting coordination overhead is compared with the
//! overhead-oblivious baselines.
//!
//! Run with: `cargo run --example sdm_measurement`

use hermes::baselines::{FirstFitByLevel, FirstFitByLevelAndSize};
use hermes::core::{verify, Epsilon, GreedyHeuristic, ProgramAnalyzer, Solver};
use hermes::dataplane::library::sketches;
use hermes::net::topology;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let programs = sketches::all();
    let standalone: f64 = programs.iter().map(|p| p.total_resource()).sum();
    println!(
        "deploying {} sketches (standalone resource: {standalone:.1} stage units)",
        programs.len()
    );

    // Step 1 — program analysis (Algorithm 1): merge + annotate.
    let tdg = ProgramAnalyzer::new().analyze(&programs);
    println!(
        "merged TDG: {} MATs / {} dependencies, {:.1} units after deduplicating the shared hash",
        tdg.node_count(),
        tdg.edge_count(),
        tdg.total_resource()
    );

    // Step 2/3 — deploy on the Tofino-like 3-switch testbed.
    let net = topology::linear(3, 10.0);
    let eps = Epsilon::loose();
    let algorithms: Vec<Box<dyn Solver>> = vec![
        Box::new(GreedyHeuristic::new()),
        Box::new(FirstFitByLevel),
        Box::new(FirstFitByLevelAndSize),
    ];
    println!("\n{:<8} {:>14} {:>10} {:>12}", "algo", "overhead (B)", "switches", "latency (us)");
    for algo in &algorithms {
        let plan = algo.deploy(&tdg, &net, &eps)?;
        assert!(verify(&tdg, &net, &plan, &eps).is_empty(), "{} plan invalid", algo.name());
        println!(
            "{:<8} {:>14} {:>10} {:>12.1}",
            algo.name(),
            plan.max_inter_switch_bytes(&tdg),
            plan.occupied_switch_count(),
            plan.end_to_end_latency_us()
        );
    }

    // The Exp#6 finding: deployment adds no switch logic beyond the
    // merged TDG itself.
    let hermes_plan = GreedyHeuristic::new().deploy(&tdg, &net, &eps)?;
    let deployed: f64 = hermes_plan.placements().iter().map(|p| p.fraction).sum();
    println!(
        "\nresources: standalone {standalone:.1} -> merged {:.1} -> deployed {deployed:.1} units \
         (merging saved {:.1}, deployment added {:.2})",
        tdg.total_resource(),
        standalone - tdg.total_resource(),
        deployed - tdg.total_resource()
    );
    Ok(())
}
