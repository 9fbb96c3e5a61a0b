//! Soundness suite for the state-access classification pass and the
//! `RelaxedState` analysis mode built on it.
//!
//! Three pillars, per the pass's contract:
//!
//! 1. **Oracle equivalence** — the fast single-pass classifier in
//!    `hermes_tdg::stateaccess` agrees field-for-field with the naive
//!    per-field rescan oracle in `hermes_analysis::stateaccess` on
//!    arbitrary workloads (property-tested over a generator that emits
//!    every primitive-op shape, fold kinds included).
//! 2. **Relaxed plans stay sound** — any plan computed from a
//!    `RelaxedState` TDG passes the full hard-constraint verifier, which
//!    independently re-certifies every relaxed edge against a fresh
//!    classification (HV414 on failure).
//! 3. **The default mode is untouched** — conservative-mode TDGs contain
//!    no relaxed edges, and every solver in the portfolio produces
//!    byte-identical plan serializations run-to-run; on fold-free
//!    workloads the relaxed mode is a byte-level no-op.

use hermes::analysis::oracle_classification;
use hermes::baselines::{FirstFitByLevel, FirstFitByLevelAndSize, Sonata};
use hermes::core::{
    verify, DeployError, DeploymentPlan, Epsilon, GreedyHeuristic, MilpHermes, OptimalSolver,
    Portfolio, ProgramAnalyzer, SearchContext, Solver,
};
use hermes::dataplane::action::{Action, FoldOp, PrimitiveOp};
use hermes::dataplane::fields::Field;
use hermes::dataplane::library::{self, aggregation};
use hermes::dataplane::mat::{Mat, MatchKind};
use hermes::dataplane::synthetic::{SyntheticConfig, SyntheticGenerator};
use hermes::net::{topology, Network};
use hermes::tdg::{AnalysisMode, StateClassification, Tdg};
use proptest::prelude::*;
use std::time::Duration;

/// The small, fixed pool of fields random MATs draw from: enough aliasing
/// that generated workloads share accumulators and contend on state.
fn field_pool() -> Vec<Field> {
    vec![
        Field::header("pkt.h0", 2),
        Field::header("pkt.h1", 4),
        Field::metadata("meta.m0", 4),
        Field::metadata("meta.m1", 2),
        Field::metadata("meta.m2", 4),
    ]
}

/// One primitive op, decoded from proptest-drawn indices.
fn decode_op(kind: usize, dst: usize, src: usize, fold: usize) -> PrimitiveOp {
    let pool = field_pool();
    let dst = pool[dst % pool.len()].clone();
    let src_f = pool[src % pool.len()].clone();
    let fold_op = [FoldOp::Add, FoldOp::Max, FoldOp::Min, FoldOp::Or][fold % 4];
    match kind % 7 {
        0 => PrimitiveOp::SetConst { dst },
        1 => PrimitiveOp::Copy { dst, src: src_f },
        2 => PrimitiveOp::Compute { dst, srcs: vec![src_f] },
        3 => PrimitiveOp::Hash { dst, srcs: vec![src_f] },
        4 => PrimitiveOp::RegisterOp { index: src_f, out: Some(dst) },
        5 => PrimitiveOp::Fold { dst, srcs: vec![src_f], op: fold_op },
        // Fold with two sources, one of which may alias the accumulator —
        // the self-consuming case the commutativity rule must reject.
        _ => PrimitiveOp::Fold { dst: dst.clone(), srcs: vec![src_f, dst], op: fold_op },
    }
}

/// Builds a random MAT: an optional exact match (`match_on == 5` means
/// matchless) plus up to three ops.
fn decode_mat(i: usize, match_on: usize, ops: &[(usize, usize, usize, usize)]) -> Mat {
    let pool = field_pool();
    let mut action = Action::new(format!("a{i}"));
    for &(kind, dst, src, fold) in ops {
        action = action.with_op(decode_op(kind, dst, src, fold));
    }
    let mut builder = Mat::builder(format!("t{i}")).action(action).resource(0.3).capacity(8 + i);
    if match_on < pool.len() {
        builder = builder.match_field(pool[match_on].clone(), MatchKind::Exact);
    }
    builder.build().expect("generated MATs are structurally valid")
}

type MatSpec = (usize, Vec<(usize, usize, usize, usize)>);

fn mat_spec() -> impl Strategy<Value = MatSpec> {
    (0usize..6, proptest::collection::vec((0usize..7, 0usize..5, 0usize..5, 0usize..4), 0..3))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Pillar 1: fast classifier ≡ naive oracle, field for field, on
    /// workloads drawn from the full op grammar.
    #[test]
    fn fast_classifier_agrees_with_oracle(specs in proptest::collection::vec(mat_spec(), 1..7)) {
        let mats: Vec<Mat> = specs
            .iter()
            .enumerate()
            .map(|(i, (m, ops))| decode_mat(i, *m, ops))
            .collect();
        let fast = StateClassification::of_mats(mats.iter());
        let oracle = oracle_classification(mats.iter());
        prop_assert_eq!(fast.len(), oracle.len(), "field sets diverge");
        for (field, verdict) in &oracle {
            prop_assert_eq!(
                fast.class(field),
                *verdict,
                "verdict diverges on `{}`",
                field.name()
            );
        }
    }

    /// Pillar 2 (random workloads): whatever the generator produces,
    /// relaxed-mode plans must satisfy the verifier — including its
    /// per-edge re-certification of every claimed relaxation.
    #[test]
    fn relaxed_plans_verify_on_synthetic_workloads(seed in 0u64..1_000, programs in 1usize..5) {
        let mut generator = SyntheticGenerator::new(seed, SyntheticConfig::default());
        let programs = generator.programs(programs);
        let tdg = ProgramAnalyzer::with_mode(AnalysisMode::RelaxedState).analyze(&programs);
        let net = topology::fat_tree(4, 10.0);
        let eps = Epsilon::loose();
        if let Ok(plan) = GreedyHeuristic::new().deploy(&tdg, &net, &eps) {
            let violations = verify(&tdg, &net, &plan, &eps);
            prop_assert!(violations.is_empty(), "{violations:?}");
        }
    }

    /// Pillar 3 (random workloads): the default mode never relaxes.
    #[test]
    fn conservative_mode_has_no_relaxed_edges(seed in 0u64..1_000, programs in 1usize..5) {
        let mut generator = SyntheticGenerator::new(seed, SyntheticConfig::default());
        let tdg = ProgramAnalyzer::new().analyze(&generator.programs(programs));
        prop_assert!(tdg.edges().iter().all(|e| !e.dep.is_relaxed()));
    }
}

/// The solver roster the byte-identity gate runs: the seven distinct
/// engines behind the CLI's `--solver` names.
fn solver_roster() -> Vec<Box<dyn Solver>> {
    vec![
        Box::new(GreedyHeuristic::new()),
        Box::new(OptimalSolver::default()),
        Box::new(MilpHermes::default()),
        Box::new(Portfolio::greedy_exact()),
        Box::new(FirstFitByLevel),
        Box::new(FirstFitByLevelAndSize),
        Box::new(Sonata),
    ]
}

/// Plans under the roster's 5 s budget.
fn deploy_within_budget(
    solver: &dyn Solver,
    tdg: &Tdg,
    net: &Network,
    eps: &Epsilon,
) -> Result<DeploymentPlan, DeployError> {
    let ctx = SearchContext::with_time_limit(Duration::from_secs(5));
    solver.solve(tdg, net, eps, &ctx).map(|o| o.plan)
}

/// Pillar 2 (library workloads): every solver's relaxed-mode plan on the
/// aggregation exemplars passes the verifier, relaxed edges included.
/// The workload pairs the commutative-fold program with the replicated-
/// config one so both relaxation families appear, and stays small enough
/// for the roster's exhaustive engines (the MILP is dense-tableau-capped).
#[test]
fn relaxed_aggregation_plans_verify_under_every_solver() {
    let programs = vec![aggregation::allreduce(), aggregation::replicated_config()];
    let tdg = ProgramAnalyzer::with_mode(AnalysisMode::RelaxedState).analyze(&programs);
    assert!(
        tdg.edges().iter().any(|e| e.dep.is_relaxed()),
        "the aggregation suite must exercise at least one relaxed edge"
    );
    // Small topology on purpose: the dense-tableau MILP in the roster is
    // size-capped, and three switches already force cross-switch traffic.
    let net = topology::linear(3, 10.0);
    let eps = Epsilon::loose();
    for solver in solver_roster() {
        let plan = deploy_within_budget(solver.as_ref(), &tdg, &net, &eps)
            .unwrap_or_else(|e| panic!("{} failed on the relaxed TDG: {e}", solver.name()));
        let violations = verify(&tdg, &net, &plan, &eps);
        assert!(violations.is_empty(), "{}: {violations:?}", solver.name());
    }
}

/// Pillar 3 (library workloads): the default mode never relaxes, even on
/// the fold-heavy aggregation suite — relaxation is strictly opt-in.
#[test]
fn conservative_mode_never_relaxes_the_library() {
    for programs in [library::real_programs(), aggregation::all()] {
        let tdg = ProgramAnalyzer::new().analyze(&programs);
        assert!(tdg.edges().iter().all(|e| !e.dep.is_relaxed()));
    }
}

/// Pillar 3 (library workloads): run-to-run byte identity of every
/// solver's conservative-mode plan, and zero relaxed edges to begin with.
/// Small classic workload for the same reason as the relaxed roster test:
/// the exhaustive engines only fit small instances.
#[test]
fn conservative_plans_are_byte_identical_across_runs() {
    let programs = vec![library::l3_router(), library::acl()];
    let net = topology::linear(3, 10.0);
    let eps = Epsilon::loose();
    for solver in solver_roster() {
        let serialize = || {
            let tdg = ProgramAnalyzer::new().analyze(&programs);
            assert!(tdg.edges().iter().all(|e| !e.dep.is_relaxed()), "{}", solver.name());
            let plan = deploy_within_budget(solver.as_ref(), &tdg, &net, &eps)
                .expect("library workload deploys");
            serde_json::to_string(&plan).expect("plans serialize")
        };
        assert_eq!(serialize(), serialize(), "{} is not reproducible", solver.name());
    }
}

/// Pillar 3 (no-op guarantee): on a workload with nothing to relax, the
/// relaxed mode produces a byte-identical TDG serialization and plan.
#[test]
fn relaxed_mode_is_a_noop_without_relaxable_state() {
    // The classic library programs carry register state and read-write
    // metadata chains; select the ones whose TDGs relax nothing.
    let programs = vec![library::l3_router(), library::acl(), library::nat()];
    let literal = ProgramAnalyzer::with_mode(AnalysisMode::PaperLiteral).analyze(&programs);
    let relaxed = ProgramAnalyzer::with_mode(AnalysisMode::RelaxedState).analyze(&programs);
    if relaxed.edges().iter().any(|e| e.dep.is_relaxed()) {
        // Workload gained relaxable state — this test's premise is gone.
        panic!("expected a fold-free control workload with no relaxable edges");
    }
    let net = topology::linear(3, 10.0);
    let eps = Epsilon::loose();
    let plan_l = GreedyHeuristic::new().deploy(&literal, &net, &eps).expect("deploys");
    let plan_r = GreedyHeuristic::new().deploy(&relaxed, &net, &eps).expect("deploys");
    assert_eq!(
        serde_json::to_string(&plan_l).unwrap(),
        serde_json::to_string(&plan_r).unwrap(),
        "relaxed mode must be a byte-level no-op when nothing qualifies"
    );
}

/// The headline claim: on the all-reduce aggregation workload, relaxing
/// the commutative accumulator strictly lowers A_max on a topology that
/// forces the workers apart — and the cheaper plan still verifies.
#[test]
fn relaxation_strictly_lowers_amax_on_allreduce() {
    let programs = vec![aggregation::allreduce()];
    // Three 5.0-unit workers + emit cannot share one 12-stage Tofino:
    // at least one worker lands on the second switch.
    let net = topology::linear(2, 10.0);
    let eps = Epsilon::loose();

    let conservative = ProgramAnalyzer::with_mode(AnalysisMode::PaperLiteral).analyze(&programs);
    let relaxed = ProgramAnalyzer::with_mode(AnalysisMode::RelaxedState).analyze(&programs);

    let plan_c = GreedyHeuristic::new().deploy(&conservative, &net, &eps).expect("deploys");
    let plan_r = GreedyHeuristic::new().deploy(&relaxed, &net, &eps).expect("deploys");

    assert!(verify(&conservative, &net, &plan_c, &eps).is_empty());
    assert!(verify(&relaxed, &net, &plan_r, &eps).is_empty());

    let amax_c = plan_c.max_inter_switch_bytes(&conservative);
    let amax_r = plan_r.max_inter_switch_bytes(&relaxed);
    assert!(
        amax_r < amax_c,
        "relaxation must strictly lower A_max (conservative {amax_c} B, relaxed {amax_r} B)"
    );
}

/// A hand-crafted unsound relaxation — a plain setter feeding an exact
/// matcher, claimed relaxed — is rejected by the verifier with HV414.
#[test]
fn uncertified_relaxation_is_rejected_end_to_end() {
    use hermes::tdg::DependencyType;
    let flag = Field::metadata("meta.flag", 4);
    let setter = Mat::builder("setter")
        .action(Action::new("set").with_op(PrimitiveOp::SetConst { dst: flag.clone() }))
        .resource(0.2)
        .capacity(4)
        .build()
        .unwrap();
    let reader = Mat::builder("reader")
        .match_field(flag, MatchKind::Exact)
        .action(Action::new("use"))
        .resource(0.2)
        .capacity(8)
        .build()
        .unwrap();
    // meta.flag has one writer and one reader: not ReadMostlyReplicable,
    // not CommutativeUpdate — the claimed RelaxedMatch is a lie.
    let tdg = Tdg::from_mats_and_edges(
        vec![("setter".to_owned(), setter), ("reader".to_owned(), reader)],
        vec![(0, 1, DependencyType::RelaxedMatch)],
        AnalysisMode::RelaxedState,
    );
    let net = topology::linear(2, 10.0);
    let eps = Epsilon::loose();
    let plan = GreedyHeuristic::new().deploy(&tdg, &net, &eps).expect("deploys");
    let violations = verify(&tdg, &net, &plan, &eps);
    assert!(
        violations.iter().any(|v| v.code() == "HV414"),
        "expected HV414 for the uncertified relaxation, got {violations:?}"
    );
}
