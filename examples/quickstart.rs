//! Quickstart: the paper's Figure 1 in code.
//!
//! Three dependent MATs — `a` passes 1 byte to `b`, `b` passes 4 bytes to
//! `c` — must be split across two switches that hold two MATs each.
//! Cutting between `a` and `b` costs 1 byte per packet; cutting between
//! `b` and `c` costs 4. Hermes finds the 1-byte cut, the overhead-oblivious
//! first-fit baseline takes whatever capacity dictates.
//!
//! Run with: `cargo run --example quickstart`

use hermes::baselines::FirstFitByLevel;
use hermes::core::{verify, Epsilon, GreedyHeuristic, Solver};
use hermes::dataplane::action::Action;
use hermes::dataplane::fields::Field;
use hermes::dataplane::mat::{Mat, MatchKind};
use hermes::dataplane::program::Program;
use hermes::net::{Network, Switch};
use hermes::tdg::{AnalysisMode, Tdg};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- The program of Figure 1 -------------------------------------
    let idx = Field::metadata("meta.index", 1); // a -> b: 1 byte
    let result = Field::metadata("meta.result", 4); // b -> c: 4 bytes
    let a = Mat::builder("a")
        .action(Action::writing("compute_index", [idx.clone()]))
        .resource(0.5)
        .build()?;
    let b = Mat::builder("b")
        .match_field(idx, MatchKind::Exact)
        .action(Action::writing("update_counter", [result.clone()]))
        .resource(0.5)
        .build()?;
    let c = Mat::builder("c")
        .match_field(result, MatchKind::Exact)
        .action(Action::new("export"))
        .resource(0.5)
        .build()?;
    let program = Program::builder("figure1").table(a).table(b).table(c).build()?;

    // --- A two-switch network, two MATs per switch -------------------
    let mut net = Network::new();
    let small = |name: &str| Switch { stages: 2, stage_capacity: 0.5, ..Switch::tofino(name) };
    let s1 = net.add_switch(small("s1"));
    let s2 = net.add_switch(small("s2"));
    net.add_link(s1, s2, 10.0)?;

    // --- Analyze and deploy ------------------------------------------
    let tdg = Tdg::from_program(&program, AnalysisMode::PaperLiteral);
    println!("merged TDG: {tdg}");
    for e in tdg.edges() {
        println!(
            "  {} -> {} [{}]: {} bytes",
            tdg.node(e.from).name,
            tdg.node(e.to).name,
            e.dep,
            e.bytes
        );
    }

    let eps = Epsilon::loose();
    let hermes = GreedyHeuristic::new().deploy(&tdg, &net, &eps)?;
    let naive = FirstFitByLevel.deploy(&tdg, &net, &eps)?;

    println!("\nHermes plan:   {hermes}");
    for p in hermes.placements() {
        println!(
            "  {} -> {} stage {} ({:.0}%)",
            tdg.node(p.node).name,
            net.switch(p.switch).name,
            p.stage,
            p.fraction * 100.0
        );
    }
    assert!(verify(&tdg, &net, &hermes, &eps).is_empty());

    println!(
        "\nper-packet byte overhead: Hermes = {} B, first-fit = {} B",
        hermes.max_inter_switch_bytes(&tdg),
        naive.max_inter_switch_bytes(&tdg)
    );
    assert_eq!(hermes.max_inter_switch_bytes(&tdg), 1, "Hermes cuts the 1-byte edge");
    Ok(())
}
