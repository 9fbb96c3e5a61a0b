//! Exp#5 (Figure 9): scalability.
//!
//! Varies the number of concurrently deployed programs from 10 to 50 on
//! the 10th Table III topology and reports all four panels (overhead,
//! execution time, FCT, goodput) per framework.

use hermes_baselines::standard_suite;
use hermes_bench::report::{fmt_ms, maybe_json, Table};
use hermes_bench::{analyze, ilp_budget, run_suite, workload, Measurement, RunConfig};
use hermes_net::topology::table3_wan;
use serde::Serialize;

#[derive(Serialize)]
struct Exp5Point {
    programs: usize,
    results: Vec<Measurement>,
}

fn main() {
    let budget = ilp_budget(3);
    let net = table3_wan(9); // the 10th topology
    let config = RunConfig::default();
    let counts = [10usize, 20, 30, 40, 50];

    let points: Vec<Exp5Point> = counts
        .iter()
        .map(|&n| {
            let tdg = analyze(&workload(n));
            let suite = standard_suite();
            Exp5Point { programs: n, results: run_suite(&tdg, &net, &suite, budget, &config) }
        })
        .collect();
    if maybe_json(&points) {
        return;
    }

    println!("Exp#5 (Figure 9) — scalability on topology 10, 10..50 programs\n");
    let algos: Vec<String> = points[0].results.iter().map(|r| r.algorithm.clone()).collect();
    let header =
        std::iter::once("algorithm".to_owned()).chain(counts.iter().map(|n| format!("{n} progs")));

    let panel = |title: &str, cell: &dyn Fn(&Measurement) -> String| {
        let mut t = Table::new(header.clone());
        for (i, name) in algos.iter().enumerate() {
            t.row(std::iter::once(name.clone()).chain(points.iter().map(|p| cell(&p.results[i]))));
        }
        println!("({title})\n{}", t.render());
    };

    panel("a) per-packet byte overhead, bytes", &|m| {
        m.overhead_bytes.map_or("-".into(), |b| b.to_string())
    });
    panel("b) execution time, ms", &|m| fmt_ms(m.reported_ms, m.capped));
    panel("c) normalized FCT", &|m| m.fct_ratio.map_or("-".into(), |f| format!("{f:.3}")));
    panel("d) normalized goodput", &|m| m.goodput_ratio.map_or("-".into(), |g| format!("{g:.3}")));

    // Headline: Hermes execution time grows with the program count but
    // stays in milliseconds.
    let hermes: Vec<f64> = points
        .iter()
        .filter_map(|p| p.results.iter().find(|m| m.algorithm == "Hermes"))
        .map(|m| m.measured_ms)
        .collect();
    println!(
        "headline: Hermes heuristic time grows {:.1} ms -> {:.1} ms from 10 to 50 programs",
        hermes.first().copied().unwrap_or(0.0),
        hermes.last().copied().unwrap_or(0.0)
    );
}
