//! Exp#6: switch resource consumption.
//!
//! Deploys the ten measurement sketches with SPEED and Hermes on the
//! testbed and compares the switch resources their plans consume against
//! the ground truth (the summed standalone consumption of each sketch).
//! The paper's finding — Hermes inserts no additional logic, so beyond
//! the baseline cost of inter-switch coordination it uses no extra
//! resources — shows up here as `deployed == merged-TDG` resource, with
//! the merge's redundancy elimination actually *saving* resources versus
//! the standalone ground truth.

use hermes_baselines::{IlpBaseline, IlpConfig};
use hermes_bench::report::{maybe_json, Table};
use hermes_bench::{analyze, ilp_budget};
use hermes_core::{Epsilon, GreedyHeuristic, SearchContext, Solver};
use hermes_dataplane::library::sketches;
use hermes_net::topology;
use serde::Serialize;

#[derive(Serialize)]
struct Exp6Report {
    ground_truth_units: f64,
    merged_tdg_units: f64,
    hermes_deployed_units: f64,
    speed_deployed_units: f64,
    hermes_extra_units: f64,
    speed_extra_units: f64,
}

fn main() {
    let programs = sketches::all();
    let ground_truth: f64 = programs.iter().map(|p| p.total_resource()).sum();
    let tdg = analyze(&programs);
    let merged = tdg.total_resource();
    let net = topology::linear(3, 10.0);
    let eps = Epsilon::loose();

    let deployed_units = |plan: &hermes_core::DeploymentPlan| -> f64 {
        plan.placements().iter().map(|p| p.fraction).sum()
    };
    let hermes_plan = GreedyHeuristic::new().deploy(&tdg, &net, &eps).expect("sketches deploy");
    let speed_plan = IlpBaseline::speed(IlpConfig::default())
        .solve(&tdg, &net, &eps, &SearchContext::with_time_limit(ilp_budget(5)))
        .expect("sketches deploy")
        .plan;

    // Clamp float dust: a deployment cannot consume negative extras.
    let extra = |deployed: f64| -> f64 {
        let delta = deployed - merged;
        if delta.abs() < 1e-9 {
            0.0
        } else {
            delta
        }
    };
    let report = Exp6Report {
        ground_truth_units: ground_truth,
        merged_tdg_units: merged,
        hermes_deployed_units: deployed_units(&hermes_plan),
        speed_deployed_units: deployed_units(&speed_plan),
        hermes_extra_units: extra(deployed_units(&hermes_plan)),
        speed_extra_units: extra(deployed_units(&speed_plan)),
    };
    if maybe_json(&report) {
        return;
    }

    println!("Exp#6 — switch resource consumption, ten sketches on the testbed\n");
    let mut t = Table::new(["quantity", "stage-capacity units"]);
    t.row(["ground truth (10 standalone sketches)", &format!("{ground_truth:.2}")]);
    t.row(["merged TDG (shared 5-tuple hash deduplicated)", &format!("{merged:.2}")]);
    t.row(["deployed by Hermes", &format!("{:.2}", report.hermes_deployed_units)]);
    t.row(["deployed by SPEED", &format!("{:.2}", report.speed_deployed_units)]);
    t.row(["Hermes extra vs merged TDG", &format!("{:.2}", report.hermes_extra_units)]);
    t.row(["SPEED extra vs merged TDG", &format!("{:.2}", report.speed_extra_units)]);
    println!("{}", t.render());
    println!(
        "finding: Hermes deploys exactly the merged TDG's resources ({:.2} extra units) —\n\
         no additional switch logic is inserted by the coordination.",
        report.hermes_extra_units
    );
}
