//! Exp#3 (Figure 7): execution time at scale.
//!
//! Same setup as Exp#2; reports per-framework wall-clock deployment time.
//! Solver-backed frameworks whose instance exceeds the practical size
//! guard are reported at the 10⁷ ms cap, exactly like the paper's bars
//! for runs exceeding two hours.

use hermes_baselines::standard_suite;
use hermes_bench::report::{fmt_ms, maybe_json, Table};
use hermes_bench::{analyze, ilp_budget, run_suite, workload, Measurement, RunConfig};
use hermes_net::topology::{table3_wan, TABLE3};
use serde::Serialize;

#[derive(Serialize)]
struct Exp3Point {
    topology: usize,
    results: Vec<Measurement>,
}

fn main() {
    let budget = ilp_budget(3);
    let programs: usize =
        std::env::var("HERMES_PROGRAMS").ok().and_then(|s| s.parse().ok()).unwrap_or(50);
    let tdg = analyze(&workload(programs));
    let config = RunConfig::default();

    let points: Vec<Exp3Point> = (0..TABLE3.len())
        .map(|i| {
            let net = table3_wan(i);
            let suite = standard_suite();
            Exp3Point { topology: i + 1, results: run_suite(&tdg, &net, &suite, budget, &config) }
        })
        .collect();
    if maybe_json(&points) {
        return;
    }

    println!("Exp#3 (Figure 7) — execution time (ms), {programs} programs, 10 WANs");
    println!("(capped entries mirror the paper's 10^7 ms bars for >2 h ILP runs)\n");
    let algos: Vec<String> = points[0].results.iter().map(|r| r.algorithm.clone()).collect();
    let mut t = Table::new(
        std::iter::once("algorithm".to_owned())
            .chain(points.iter().map(|p| format!("T{}", p.topology))),
    );
    for (i, name) in algos.iter().enumerate() {
        t.row(
            std::iter::once(name.clone()).chain(
                points.iter().map(|p| fmt_ms(p.results[i].reported_ms, p.results[i].capped)),
            ),
        );
    }
    println!("{}", t.render());

    let hermes_ms: f64 = points
        .iter()
        .filter_map(|p| p.results.iter().find(|m| m.algorithm == "Hermes"))
        .map(|m| m.measured_ms)
        .sum::<f64>()
        / points.len() as f64;
    println!(
        "headline: the Hermes heuristic averages {:.1} ms — orders of magnitude below the ILP cap",
        hermes_ms
    );
}
