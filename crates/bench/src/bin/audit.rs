//! Audit-engine bench: pass timings, oracle equivalence, and the
//! certificate fast-path.
//!
//! Three claims back the audit engine, and this binary measures all of
//! them instead of asserting them:
//!
//! - **Bitset dataflow tracks the oracle** — the production pass
//!   ([`dataflow_diagnostics`]) must emit byte-identical findings to the
//!   naive `BTreeSet` reference on every workload, and do so faster.
//! - **Audit cost is negligible** — the full workload audit (lints +
//!   dataflow + graph soundness + precheck) should cost milliseconds even
//!   at several times the paper's workload size, so running it in front of
//!   every solve is free.
//! - **Certificates beat the search budget** — on a provably infeasible
//!   instance the portfolio must return `ProvenInfeasible` in well under
//!   1 % of its wall-clock budget (the pre-solve bound replaces the
//!   exhaustive race).
//!
//! Modes: default prints text tables; `--json` emits the same data as
//! JSON (recorded as `results/BENCH_audit.json`); `--smoke` runs the fast
//! deterministic equivalence + fast-path probes for CI.

use hermes_analysis::{audit_instance, dataflow_diagnostics, dataflow_reference};
use hermes_bench::report::{maybe_json, Table};
use hermes_bench::{analyze, workload};
use hermes_core::test_support::{chain_tdg, tiny_switches};
use hermes_core::{
    DeployError, Epsilon, GreedyHeuristic, Portfolio, ProgramAnalyzer, SearchContext, Solver,
};
use hermes_dataplane::library::aggregation;
use hermes_dataplane::Mat;
use hermes_net::topology;
use hermes_tdg::{AnalysisMode, StateClassification};
use serde::Serialize;
use std::time::{Duration, Instant};

/// Repetitions per timing; the minimum is kept.
const REPS: usize = 5;
/// The search budget the certificate fast-path is measured against.
const BUDGET: Duration = Duration::from_secs(10);

fn min_wall(mut f: impl FnMut()) -> Duration {
    (0..REPS)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed()
        })
        .min()
        .unwrap_or_default()
}

#[derive(Serialize)]
struct WorkloadRow {
    programs: usize,
    tdg_nodes: usize,
    tdg_edges: usize,
    diagnostics: usize,
    audit_ms: f64,
    dataflow_fast_ms: f64,
    dataflow_oracle_ms: f64,
    dataflow_speedup: f64,
}

#[derive(Serialize)]
struct CertRow {
    instance: String,
    budget_ms: f64,
    verdict_ms: f64,
    budget_fraction: f64,
    certificate: String,
}

#[derive(Serialize)]
struct StateRow {
    programs: usize,
    fields: usize,
    classify_fast_ms: f64,
    classify_oracle_ms: f64,
    classify_speedup: f64,
}

#[derive(Serialize)]
struct RelaxRow {
    workload: String,
    amax_conservative: u64,
    amax_relaxed: u64,
}

#[derive(Serialize)]
struct Report {
    reps: usize,
    workloads: Vec<WorkloadRow>,
    certificates: Vec<CertRow>,
    state: Vec<StateRow>,
    relaxation: Vec<RelaxRow>,
}

fn bench_workload(programs: usize) -> WorkloadRow {
    let progs = workload(programs);
    let tdg = analyze(&progs);
    let net = topology::fat_tree(4, 10.0);
    let eps = Epsilon::loose();

    let fast = dataflow_diagnostics(&tdg);
    let oracle = dataflow_reference(&tdg);
    assert_eq!(fast, oracle, "bitset dataflow diverged from the oracle");

    let report = audit_instance(&progs, &net, &eps, tdg.mode());
    let audit_ms = min_wall(|| {
        std::hint::black_box(audit_instance(&progs, &net, &eps, tdg.mode()));
    });
    let fast_ms = min_wall(|| {
        std::hint::black_box(dataflow_diagnostics(&tdg));
    });
    let oracle_ms = min_wall(|| {
        std::hint::black_box(dataflow_reference(&tdg));
    });
    WorkloadRow {
        programs,
        tdg_nodes: tdg.node_count(),
        tdg_edges: tdg.edge_count(),
        diagnostics: report.diagnostics.len(),
        audit_ms: audit_ms.as_secs_f64() * 1000.0,
        dataflow_fast_ms: fast_ms.as_secs_f64() * 1000.0,
        dataflow_oracle_ms: oracle_ms.as_secs_f64() * 1000.0,
        dataflow_speedup: oracle_ms.as_secs_f64() / fast_ms.as_secs_f64().max(f64::EPSILON),
    }
}

/// Asserts fast-classifier/oracle agreement on `mats` and returns the
/// field count.
fn assert_classifier_agreement(mats: &[&Mat]) -> usize {
    let fast = StateClassification::of_mats(mats.iter().copied());
    let oracle = hermes_analysis::oracle_classification(mats.iter().copied());
    assert_eq!(fast.len(), oracle.len(), "classified field sets diverge");
    for (field, verdict) in &oracle {
        assert_eq!(fast.class(field), *verdict, "verdict diverges on `{}`", field.name());
    }
    oracle.len()
}

fn bench_state(programs: usize) -> StateRow {
    let progs = workload(programs);
    let mats: Vec<&Mat> = progs.iter().flat_map(|p| p.tables()).collect();
    let fields = assert_classifier_agreement(&mats);
    let fast_ms = min_wall(|| {
        std::hint::black_box(StateClassification::of_mats(mats.iter().copied()));
    });
    let oracle_ms = min_wall(|| {
        std::hint::black_box(hermes_analysis::oracle_classification(mats.iter().copied()));
    });
    StateRow {
        programs,
        fields,
        classify_fast_ms: fast_ms.as_secs_f64() * 1000.0,
        classify_oracle_ms: oracle_ms.as_secs_f64() * 1000.0,
        classify_speedup: oracle_ms.as_secs_f64() / fast_ms.as_secs_f64().max(f64::EPSILON),
    }
}

/// Greedy `A_max` of the aggregation exemplars under the conservative and
/// relaxed analysis modes — the headline the relaxation pays for.
fn bench_relaxation() -> Vec<RelaxRow> {
    let eps = Epsilon::loose();
    [
        // Two switches force the all-reduce workers apart; the full suite
        // needs a third for its extra segments.
        ("allreduce", vec![aggregation::allreduce()], 2),
        ("aggregation suite", aggregation::all(), 3),
    ]
    .into_iter()
    .map(|(name, programs, switches)| {
        let net = topology::linear(switches, 10.0);
        let amax = |mode: AnalysisMode| {
            let tdg = ProgramAnalyzer::with_mode(mode).analyze(&programs);
            let plan = GreedyHeuristic::new()
                .deploy(&tdg, &net, &eps)
                .unwrap_or_else(|e| panic!("{name} deploys greedily: {e}"));
            plan.max_inter_switch_bytes(&tdg)
        };
        RelaxRow {
            workload: name.to_owned(),
            amax_conservative: amax(AnalysisMode::PaperLiteral),
            amax_relaxed: amax(AnalysisMode::RelaxedState),
        }
    })
    .collect()
}

/// Races the portfolio on a provably infeasible instance and reports how
/// fast the certificate settles it relative to the full budget.
fn bench_certificate() -> Vec<CertRow> {
    let cases = [
        // Four 0.5-resource MATs need two 1.0-capacity switches; eps2 = 1.
        (
            "switch-floor vs eps2",
            chain_tdg(&[1, 1, 1], 0.5),
            tiny_switches(3, 2, 0.5),
            Epsilon::new(f64::INFINITY, 1),
        ),
        // 3 x 0.8 = 2.4 demand over 2 x 1.0 capacity.
        (
            "total demand vs capacity",
            chain_tdg(&[1, 1], 0.8),
            tiny_switches(2, 2, 0.5),
            Epsilon::loose(),
        ),
    ];
    cases
        .into_iter()
        .map(|(name, tdg, net, eps)| {
            let mut verdict = Duration::MAX;
            let mut certificate = String::new();
            for _ in 0..REPS {
                let ctx = SearchContext::with_time_limit(BUDGET);
                let start = Instant::now();
                let outcome = Portfolio::greedy_exact().race(&tdg, &net, &eps, &ctx);
                let wall = start.elapsed();
                match outcome {
                    Err(DeployError::ProvenInfeasible { certificate: cert }) => {
                        verdict = verdict.min(wall);
                        certificate = format!("{} [{}]", cert, cert.code());
                    }
                    other => panic!("{name}: expected ProvenInfeasible, got {other:?}"),
                }
            }
            CertRow {
                instance: name.to_owned(),
                budget_ms: BUDGET.as_secs_f64() * 1000.0,
                verdict_ms: verdict.as_secs_f64() * 1000.0,
                budget_fraction: verdict.as_secs_f64() / BUDGET.as_secs_f64(),
                certificate,
            }
        })
        .collect()
}

/// Deterministic CI probes: oracle equivalence across seeds and sizes,
/// clean library audit, and the sub-1 % certificate fast-path.
fn smoke() {
    // Equivalence over the real library, merged workloads, and a spread of
    // synthetic seeds.
    let mut checked = 0u32;
    for programs in [1, 5, 10, 14] {
        let tdg = analyze(&workload(programs));
        assert_eq!(
            dataflow_diagnostics(&tdg),
            dataflow_reference(&tdg),
            "dataflow diverged on workload({programs})"
        );
        checked += 1;
    }
    for p in hermes_dataplane::library::real_programs() {
        let tdg = hermes_tdg::Tdg::from_program(&p, hermes_tdg::AnalysisMode::PaperLiteral);
        assert_eq!(
            dataflow_diagnostics(&tdg),
            dataflow_reference(&tdg),
            "dataflow diverged on {}",
            p.name()
        );
        checked += 1;
    }

    // The library workload audits clean of errors on a roomy topology.
    let progs = workload(10);
    let report = audit_instance(
        &progs,
        &topology::fat_tree(4, 10.0),
        &Epsilon::loose(),
        hermes_tdg::AnalysisMode::PaperLiteral,
    );
    assert!(!report.has_errors(), "library workload audit found errors: {report}");

    // State-access classifier: fast pass ≡ oracle on the library, the
    // synthetic extension, and the fold-heavy aggregation suite.
    let mut state_fields = 0usize;
    for programs in [1, 5, 10] {
        let progs = workload(programs);
        let mats: Vec<&Mat> = progs.iter().flat_map(|p| p.tables()).collect();
        state_fields = state_fields.max(assert_classifier_agreement(&mats));
    }
    let agg = aggregation::all();
    let agg_mats: Vec<&Mat> = agg.iter().flat_map(|p| p.tables()).collect();
    state_fields = state_fields.max(assert_classifier_agreement(&agg_mats));

    // Relaxation headline: strictly lower greedy A_max on the all-reduce.
    let relax = bench_relaxation();
    let allreduce = &relax[0];
    assert!(
        allreduce.amax_relaxed < allreduce.amax_conservative,
        "relaxation must strictly lower A_max on allreduce ({} B vs {} B)",
        allreduce.amax_relaxed,
        allreduce.amax_conservative
    );

    // Certificate fast-path: proven infeasible in < 1 % of the budget.
    let certs = bench_certificate();
    for c in &certs {
        assert!(
            c.budget_fraction < 0.01,
            "{}: verdict took {:.1} ms of a {:.0} ms budget",
            c.instance,
            c.verdict_ms,
            c.budget_ms
        );
    }

    println!(
        "{{\"equivalence_workloads\":{checked},\"library_audit_errors\":{},\
         \"state_fields\":{state_fields},\"allreduce_amax\":[{},{}],\
         \"certificate_max_budget_fraction\":{:.6},\"ok\":true}}",
        report.summary.errors,
        allreduce.amax_conservative,
        allreduce.amax_relaxed,
        certs.iter().map(|c| c.budget_fraction).fold(0.0, f64::max)
    );
}

fn main() {
    if std::env::args().any(|a| a == "--smoke") {
        smoke();
        return;
    }

    let report = Report {
        reps: REPS,
        workloads: [5, 10, 20, 40].into_iter().map(bench_workload).collect(),
        certificates: bench_certificate(),
        state: [5, 10, 20, 40].into_iter().map(bench_state).collect(),
        relaxation: bench_relaxation(),
    };
    if maybe_json(&report) {
        return;
    }

    println!("Audit-engine bench — workload audit cost and certificate fast-path\n");
    let mut t = Table::new([
        "programs",
        "nodes",
        "edges",
        "findings",
        "audit ms",
        "dataflow ms",
        "oracle ms",
        "speedup",
    ]);
    for w in &report.workloads {
        t.row([
            w.programs.to_string(),
            w.tdg_nodes.to_string(),
            w.tdg_edges.to_string(),
            w.diagnostics.to_string(),
            format!("{:.2}", w.audit_ms),
            format!("{:.3}", w.dataflow_fast_ms),
            format!("{:.3}", w.dataflow_oracle_ms),
            format!("{:.1}x", w.dataflow_speedup),
        ]);
    }
    println!("(a) full-audit cost by workload size\n{}", t.render());

    let mut c = Table::new(["instance", "budget ms", "verdict ms", "fraction", "certificate"]);
    for row in &report.certificates {
        c.row([
            row.instance.clone(),
            format!("{:.0}", row.budget_ms),
            format!("{:.2}", row.verdict_ms),
            format!("{:.5}", row.budget_fraction),
            row.certificate.clone(),
        ]);
    }
    println!("(b) proven-infeasible fast-path vs search budget\n{}", c.render());

    let mut s = Table::new(["programs", "fields", "fast ms", "oracle ms", "speedup"]);
    for row in &report.state {
        s.row([
            row.programs.to_string(),
            row.fields.to_string(),
            format!("{:.3}", row.classify_fast_ms),
            format!("{:.3}", row.classify_oracle_ms),
            format!("{:.1}x", row.classify_speedup),
        ]);
    }
    println!("(c) state-access classification cost by workload size\n{}", s.render());

    let mut r = Table::new(["workload", "A_max conservative", "A_max relaxed"]);
    for row in &report.relaxation {
        r.row([
            row.workload.clone(),
            format!("{} B", row.amax_conservative),
            format!("{} B", row.amax_relaxed),
        ]);
    }
    println!("(d) greedy A_max, conservative vs relaxed analysis mode\n{}", r.render());
}
