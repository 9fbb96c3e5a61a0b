//! Golden pin of the SPEED-style merge (`merge_all`) on the benchmark's
//! program sets: for every input set × analysis mode, the merged TDG's
//! `tdg_fingerprint` (FNV-1a of its serde JSON) and its node and edge
//! counts must match `tests/fixtures/merge_golden.json`.
//!
//! Inputs: the ten library programs; the live set of the `churn` workload
//! (library + the first 15 synthetic programs of generator seed 7); and
//! the program set of `scale-wan` (library + 40 synthetic, seed 42).
//! `REGEN_GOLDEN=1` rewrites the fixture instead of failing.

use hermes::core::tdg_fingerprint;
use hermes::dataplane::library;
use hermes::dataplane::synthetic::{SyntheticConfig, SyntheticGenerator};
use hermes::dataplane::Program;
use hermes::tdg::{merge_all, AnalysisMode, Tdg};

fn library_plus_synthetic(seed: u64, synthetic: usize) -> Vec<Program> {
    let mut programs = library::real_programs();
    programs.extend(SyntheticGenerator::new(seed, SyntheticConfig::default()).programs(synthetic));
    programs
}

fn inputs() -> Vec<(&'static str, Vec<Program>)> {
    // `churn` generates 30 programs and keeps the first 15 live (the
    // other 15 are the swap replacements).
    let mut churn = library_plus_synthetic(7, 30);
    churn.truncate(library::real_programs().len() + 15);
    vec![
        ("library", library::real_programs()),
        ("churn-live", churn),
        ("scale-wan", library_plus_synthetic(42, 40)),
    ]
}

/// One JSON object per line, in a fixed key order.
fn golden() -> String {
    let modes = [
        ("paper-literal", AnalysisMode::PaperLiteral),
        ("intersection", AnalysisMode::Intersection),
        ("relaxed-state", AnalysisMode::RelaxedState),
    ];
    let mut records = Vec::new();
    for (name, programs) in inputs() {
        for (mode_name, mode) in modes {
            let merged = merge_all(programs.iter().map(|p| Tdg::from_program(p, mode)).collect());
            records.push(format!(
                "  {{\"input\": \"{name}\", \"programs\": {}, \"mode\": \"{mode_name}\", \
                 \"tdg_fingerprint\": \"{:016x}\", \"nodes\": {}, \"edges\": {}}}",
                programs.len(),
                tdg_fingerprint(&merged),
                merged.node_count(),
                merged.edge_count()
            ));
        }
    }
    format!("[\n{}\n]\n", records.join(",\n"))
}

#[test]
fn merged_tdgs_match_the_golden_fixture() {
    let text = golden();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/merge_golden.json");
    if std::env::var_os("REGEN_GOLDEN").is_some_and(|v| v == "1") {
        std::fs::write(path, &text).expect("fixture is writable");
    }
    let fixture = std::fs::read_to_string(path).expect("run with REGEN_GOLDEN=1 to create");
    assert_eq!(
        text, fixture,
        "merged TDGs drifted from tests/fixtures/merge_golden.json; \
         re-generate with REGEN_GOLDEN=1 if the change is intentional"
    );
}
