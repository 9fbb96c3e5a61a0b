//! Comparison deployment frameworks for the Hermes evaluation.
//!
//! Implements the two classes of solutions the paper compares against
//! (§VI-A):
//!
//! 1. **ILP-based frameworks** ([`ilp`]): Min-Stage, Sonata, SPEED, MTP,
//!    Flightplan, and P4All, each keeping its published objective but
//!    running on the workspace's `hermes-milp` solver in place of Gurobi.
//! 2. **Heuristic frameworks** ([`greedy`]): first fit by level (FFL) and
//!    first fit by level and size (FFLS).
//!
//! All implement [`hermes_core::Solver`], the one solver trait, so
//! experiments iterate over one uniform suite (see [`standard_suite`]) and
//! bound every solve with the same [`hermes_core::SearchContext`] budget.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod greedy;
pub mod ilp;

pub use greedy::{FirstFitByLevel, FirstFitByLevelAndSize};
pub use ilp::{IlpBaseline, IlpConfig, IlpObjective, Sonata};

use hermes_core::{GreedyHeuristic, OptimalSolver, Solver};

/// The full algorithm suite of the paper's evaluation, in its figure
/// order: MS, Sonata, SPEED, MTP, FP, P4All, FFL, FFLS, Hermes, Optimal.
///
/// The suite carries no budget: callers bound each solve through the
/// [`hermes_core::SearchContext`] they pass to [`Solver::solve`], the way
/// the paper caps its Gurobi runs at two hours.
pub fn standard_suite() -> Vec<Box<dyn Solver>> {
    let config = IlpConfig::default();
    vec![
        Box::new(IlpBaseline::min_stage(config.clone())),
        Box::new(Sonata),
        Box::new(IlpBaseline::speed(config.clone())),
        Box::new(IlpBaseline::mtp(config.clone())),
        Box::new(IlpBaseline::flightplan(config.clone())),
        Box::new(IlpBaseline::p4all(config)),
        Box::new(FirstFitByLevel),
        Box::new(FirstFitByLevelAndSize),
        Box::new(GreedyHeuristic::new()),
        Box::new(OptimalSolver::default()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_ten_algorithms_with_unique_names() {
        let suite = standard_suite();
        assert_eq!(suite.len(), 10);
        let names: std::collections::BTreeSet<&str> = suite.iter().map(|a| a.name()).collect();
        assert_eq!(names.len(), 10);
        assert!(names.contains("Hermes"));
        assert!(names.contains("Optimal"));
    }
}
