//! Exp#1 (Figure 5): testbed experiments.
//!
//! Deploys 2–10 concurrent real programs on the three-switch linear
//! testbed with every framework, reporting the four panels: (a) per-packet
//! byte overhead, (b) execution time, (c) normalized FCT, (d) normalized
//! goodput (1024 B packets through the testbed simulator).
//!
//! `HERMES_ILP_BUDGET_SECS` bounds each ILP/exhaustive solve (default 5).

use hermes_baselines::standard_suite;
use hermes_bench::report::{fmt_ms, maybe_json, Table};
use hermes_bench::{analyze, ilp_budget, run_suite, workload, Measurement, RunConfig};
use hermes_net::topology;
use serde::Serialize;

#[derive(Serialize)]
struct Exp1Point {
    programs: usize,
    results: Vec<Measurement>,
}

fn main() {
    let budget = ilp_budget(5);
    let net = topology::linear(3, 10.0);
    let config = RunConfig::default();
    let counts = [2usize, 4, 6, 8, 10];

    let points: Vec<Exp1Point> = counts
        .iter()
        .map(|&n| {
            let tdg = analyze(&workload(n));
            let suite = standard_suite();
            Exp1Point { programs: n, results: run_suite(&tdg, &net, &suite, budget, &config) }
        })
        .collect();
    if maybe_json(&points) {
        return;
    }

    println!("Exp#1 (Figure 5) — testbed: 3-switch linear topology, 2..10 real programs");
    println!("(ILP/exhaustive budget: {budget:?}; override via HERMES_ILP_BUDGET_SECS)\n");

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
    panel("c) normalized FCT (1024 B packets)", &|m| {
        m.fct_ratio.map_or("-".into(), |f| format!("{f:.3}"))
    });
    panel("d) normalized goodput (1024 B packets)", &|m| {
        m.goodput_ratio.map_or("-".into(), |g| format!("{g:.3}"))
    });

    // Headline: Hermes vs the worst baseline at 10 programs.
    let last = &points.last().expect("non-empty").results;
    let hermes =
        last.iter().find(|m| m.algorithm == "Hermes").and_then(|m| m.overhead_bytes).unwrap_or(0);
    let worst = last.iter().filter_map(|m| m.overhead_bytes).max().unwrap_or(0);
    println!(
        "headline: at 10 programs Hermes saves {} bytes vs the worst framework",
        worst - hermes
    );
}
