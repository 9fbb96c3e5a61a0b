//! Exp#4 (Figure 8): impact on end-to-end performance at scale.
//!
//! Takes the Exp#2 deployments and pushes a 1024-byte-packet flow carrying
//! each framework's `A_max` through the testbed simulator, reporting
//! normalized FCT and goodput per topology.

use hermes_baselines::standard_suite;
use hermes_bench::report::{maybe_json, Table};
use hermes_bench::{analyze, ilp_budget, run_suite, workload, Measurement, RunConfig};
use hermes_net::topology::{table3_wan, TABLE3};
use serde::Serialize;

#[derive(Serialize)]
struct Exp4Point {
    topology: usize,
    results: Vec<Measurement>,
}

fn main() {
    let budget = ilp_budget(3);
    let programs: usize =
        std::env::var("HERMES_PROGRAMS").ok().and_then(|s| s.parse().ok()).unwrap_or(50);
    let tdg = analyze(&workload(programs));
    let config = RunConfig::default();

    let points: Vec<Exp4Point> = (0..TABLE3.len())
        .map(|i| {
            let net = table3_wan(i);
            let suite = standard_suite();
            Exp4Point { topology: i + 1, results: run_suite(&tdg, &net, &suite, budget, &config) }
        })
        .collect();
    if maybe_json(&points) {
        return;
    }

    println!(
        "Exp#4 (Figure 8) — end-to-end impact of {programs}-program deployments (1024 B packets)\n"
    );
    let algos: Vec<String> = points[0].results.iter().map(|r| r.algorithm.clone()).collect();
    let header = std::iter::once("algorithm".to_owned())
        .chain(points.iter().map(|p| format!("T{}", p.topology)));

    let mut fct = Table::new(header.clone());
    let mut goodput = Table::new(header);
    for (i, name) in algos.iter().enumerate() {
        fct.row(std::iter::once(name.clone()).chain(
            points.iter().map(|p| p.results[i].fct_ratio.map_or("-".into(), |f| format!("{f:.3}"))),
        ));
        goodput.row(
            std::iter::once(name.clone()).chain(
                points
                    .iter()
                    .map(|p| p.results[i].goodput_ratio.map_or("-".into(), |g| format!("{g:.3}"))),
            ),
        );
    }
    println!("(a) normalized FCT\n{}", fct.render());
    println!("(b) normalized goodput\n{}", goodput.render());

    // Headline: FCT overhead (ratio - 1) of the worst framework vs Hermes.
    let mean_overhead = |name: &str| -> f64 {
        let vals: Vec<f64> = points
            .iter()
            .filter_map(|p| p.results.iter().find(|m| m.algorithm == name))
            .filter_map(|m| m.fct_ratio)
            .map(|f| f - 1.0)
            .collect();
        vals.iter().sum::<f64>() / vals.len().max(1) as f64
    };
    let hermes = mean_overhead("Hermes");
    let worst = algos.iter().map(|a| mean_overhead(a)).fold(0.0, f64::max);
    if hermes > 0.0 {
        println!(
            "headline: worst framework's FCT overhead is {:.0}% higher than Hermes's",
            (worst / hermes - 1.0) * 100.0
        );
    } else {
        println!("headline: Hermes adds no measurable FCT overhead on this workload");
    }
}
