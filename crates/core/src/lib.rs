//! Hermes: network-wide data plane program deployment that minimizes the
//! per-packet byte overhead of inter-switch coordination.
//!
//! Reproduction of *"Toward Low-Overhead Inter-Switch Coordination in
//! Network-Wide Data Plane Program Deployment"* (ICDCS 2022). The crate
//! implements the paper's two components:
//!
//! - the **program analyzer** ([`analyzer`], Algorithm 1): programs →
//!   per-program TDGs → SPEED-merged TDG with per-edge metadata amounts;
//! - the **optimization framework**: the MILP formulation of problem P#1
//!   ([`milp_formulation`]), an exact combinatorial solver playing the
//!   Gurobi role ([`exact`]), and the paper's greedy heuristic
//!   ([`heuristic`], Algorithm 2), all producing [`DeploymentPlan`]s whose
//!   constraints are checked by a single verifier ([`verify()`]).
//!
//! Every solver implements the [`Solver`] trait ([`solver`]): it takes a
//! [`SearchContext`] carrying a deadline, a cooperative cancel token, and
//! a shared incumbent bound, and returns a uniform [`SolveOutcome`]. The
//! [`Portfolio`] runner races several solvers on threads — the heuristic
//! publishes incumbents early, the exact searches prune against them —
//! and picks a deterministic winner.
//!
//! # Quick start
//!
//! ```
//! use hermes_core::{Epsilon, GreedyHeuristic, ProgramAnalyzer, Solver};
//! use hermes_dataplane::library;
//! use hermes_net::topology;
//!
//! // 1. Analyze ten real programs into a merged TDG.
//! let tdg = ProgramAnalyzer::new().analyze(&library::real_programs());
//! // 2. Deploy on a three-switch testbed with loose ε-bounds.
//! let net = topology::linear(3, 10.0);
//! let plan = GreedyHeuristic::new().deploy(&tdg, &net, &Epsilon::loose())?;
//! // 3. Inspect the per-packet byte overhead the deployment costs.
//! println!("A_max = {} bytes", plan.max_inter_switch_bytes(&tdg));
//! # Ok::<(), hermes_core::DeployError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod analyzer;
pub mod deployment;
pub mod eval;
pub mod exact;
pub mod fingerprint;
pub mod heuristic;
pub mod incremental;
pub mod migrate;
pub mod milp_formulation;
pub mod precheck;
pub mod refine;
pub mod report;
pub mod solver;
pub mod stage_assign;
pub mod stage_cache;
pub mod test_support;
pub mod verify;

pub use analyzer::ProgramAnalyzer;
pub use deployment::{
    DeployError, DeploymentPlan, Epsilon, PlanMetrics, PlanRoute, StagePlacement,
};
pub use eval::IncrementalEval;
pub use exact::{materialize, OptimalSolver};
pub use fingerprint::{fnv1a64, json_fingerprint, tdg_fingerprint};
pub use heuristic::{placement_order, GreedyHeuristic, SplitStrategy};
pub use incremental::{IncrementalDeployer, IncrementalOutcome, RedeployOptions};
pub use migrate::{
    all_at_once_peak, MigrateError, MigrationOrder, MigrationProblem, MigrationSchedule,
    MigrationScheduler, MigrationStep,
};
pub use milp_formulation::{build_p1, MilpHermes, P1Variables};
pub use precheck::{Certificate, Precheck};
pub use refine::refine;
pub use report::{diff, explain, PlanDiff};
pub use solver::{
    CancelToken, Portfolio, RaceReport, RacerReport, SearchContext, SolveOutcome, SolveStats,
    Solver, DEFAULT_DEPLOY_BUDGET, NO_BOUND,
};
pub use stage_assign::{assign_stages, fits_total_capacity, stage_feasible, StageAssignError};
pub use stage_cache::{StageCacheStats, StageFeasCache};
pub use verify::{verify, Violation};
