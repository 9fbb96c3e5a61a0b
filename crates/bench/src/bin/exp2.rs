//! Exp#2 (Figure 6): per-packet byte overhead at scale.
//!
//! Deploys 50 concurrent programs (10 real + 40 synthetic) on each of the
//! ten Table III WAN topologies with every framework and reports `A_max`.
//!
//! `HERMES_PROGRAMS` overrides the workload size (default 50);
//! `HERMES_ILP_BUDGET_SECS` bounds the exhaustive solvers (default 3).

use hermes_baselines::standard_suite;
use hermes_bench::report::{maybe_json, Table};
use hermes_bench::{analyze, ilp_budget, run_suite, workload, Measurement, RunConfig};
use hermes_net::topology::{table3_wan, TABLE3};
use serde::Serialize;

#[derive(Serialize)]
struct Exp2Point {
    topology: usize,
    results: Vec<Measurement>,
}

fn program_count() -> usize {
    std::env::var("HERMES_PROGRAMS").ok().and_then(|s| s.parse().ok()).unwrap_or(50)
}

fn main() {
    let budget = ilp_budget(3);
    let programs = program_count();
    let tdg = analyze(&workload(programs));
    let config = RunConfig::default();

    let points: Vec<Exp2Point> = (0..TABLE3.len())
        .map(|i| {
            let net = table3_wan(i);
            let suite = standard_suite();
            Exp2Point { topology: i + 1, results: run_suite(&tdg, &net, &suite, budget, &config) }
        })
        .collect();
    if maybe_json(&points) {
        return;
    }

    println!("Exp#2 (Figure 6) — per-packet byte overhead, {programs} programs, 10 WANs\n");
    let algos: Vec<String> = points[0].results.iter().map(|r| r.algorithm.clone()).collect();
    let mut t = Table::new(
        std::iter::once("algorithm".to_owned())
            .chain(points.iter().map(|p| format!("T{}", p.topology))),
    );
    for (i, name) in algos.iter().enumerate() {
        t.row(
            std::iter::once(name.clone()).chain(
                points
                    .iter()
                    .map(|p| p.results[i].overhead_bytes.map_or("-".into(), |b| b.to_string())),
            ),
        );
    }
    println!("{}", t.render());

    // Headline: Hermes vs the best non-Hermes framework, averaged.
    let avg = |name: &str| -> f64 {
        let vals: Vec<u64> = points
            .iter()
            .filter_map(|p| {
                p.results.iter().find(|m| m.algorithm == name).and_then(|m| m.overhead_bytes)
            })
            .collect();
        vals.iter().sum::<u64>() as f64 / vals.len().max(1) as f64
    };
    let hermes = avg("Hermes");
    let others: Vec<f64> =
        algos.iter().filter(|a| *a != "Hermes" && *a != "Optimal").map(|a| avg(a)).collect();
    let mean_other = others.iter().sum::<f64>() / others.len().max(1) as f64;
    if mean_other > 0.0 {
        println!(
            "headline: Hermes reduces the overhead by {:.0}% vs the mean of the other frameworks \
             (FP's cut-count objective can tie Hermes when zero-byte cuts exist)",
            (1.0 - hermes / mean_other) * 100.0
        );
    }
    let optimal = avg("Optimal");
    if optimal > 0.0 {
        println!(
            "heuristic vs Optimal(incumbent): {:.0}% higher on average",
            (hermes / optimal - 1.0) * 100.0
        );
    }
}
