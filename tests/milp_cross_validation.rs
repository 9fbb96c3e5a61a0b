//! Cross-validation of the three solvers on randomized small instances:
//! the P#1 MILP (`MilpHermes`), the combinatorial exact search
//! (`OptimalSolver`), and the greedy heuristic must agree that
//! `Optimal == MILP <= Hermes`.

use hermes::core::{
    verify, Epsilon, GreedyHeuristic, MilpHermes, OptimalSolver, SearchContext, Solver,
};
use hermes::dataplane::action::Action;
use hermes::dataplane::fields::Field;
use hermes::dataplane::mat::{Mat, MatchKind};
use hermes::dataplane::program::Program;
use hermes::net::{Network, Switch};
use hermes::tdg::{AnalysisMode, Tdg};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::time::Duration;

/// A random 4–6-node DAG program with random metadata sizes.
fn random_instance(seed: u64) -> (Tdg, Network) {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.random_range(4..=6usize);
    let mut fields: Vec<Vec<Field>> = vec![Vec::new(); n];
    let mut builder = Program::builder("rand");
    #[allow(clippy::needless_range_loop)] // paired (i, j) indices drive the dependency draws
    for i in 0..n {
        let mut mat = Mat::builder(format!("t{i}")).resource(0.5);
        for f in &fields[i] {
            mat = mat.match_field(f.clone(), MatchKind::Exact);
        }
        let mut writes = Vec::new();
        for j in (i + 1)..n {
            if rng.random_bool(0.4) {
                let size = rng.random_range(1..=12u32);
                let f = Field::metadata(format!("m{i}_{j}"), size);
                writes.push(f.clone());
                fields[j].push(f);
            }
        }
        mat = mat.action(Action::writing("w", writes));
        builder = builder.table(mat.build().unwrap());
    }
    let tdg = Tdg::from_program(&builder.build().unwrap(), AnalysisMode::Intersection);

    let mut net = Network::new();
    let switches = rng.random_range(2..=3usize);
    let ids: Vec<_> = (0..switches)
        .map(|i| {
            net.add_switch(Switch {
                stages: 3,
                stage_capacity: 0.5,
                ..Switch::tofino(format!("s{i}"))
            })
        })
        .collect();
    for w in ids.windows(2) {
        net.add_link(w[0], w[1], 10.0).unwrap();
    }
    (tdg, net)
}

#[test]
fn solvers_agree_on_random_small_instances() {
    let eps = Epsilon::loose();
    let mut compared = 0;
    for seed in 0..8u64 {
        let (tdg, net) = random_instance(seed);
        let ctx = SearchContext::with_time_limit(Duration::from_secs(20));
        let exact = match OptimalSolver::new().solve(&tdg, &net, &eps, &ctx) {
            Ok(o) => o,
            Err(_) => continue, // instance infeasible: nothing to compare
        };
        assert!(exact.proven_optimal, "seed {seed} should be tiny enough to prove");

        let milp =
            MilpHermes::default().deploy(&tdg, &net, &eps).expect("milp agrees on feasibility");
        assert_eq!(
            milp.max_inter_switch_bytes(&tdg),
            exact.objective,
            "seed {seed}: MILP vs exact"
        );
        assert!(verify(&tdg, &net, &milp, &eps).is_empty());

        if let Ok(heuristic) = GreedyHeuristic::new().deploy(&tdg, &net, &eps) {
            assert!(
                heuristic.max_inter_switch_bytes(&tdg) >= exact.objective,
                "seed {seed}: heuristic beat the proven optimum?!"
            );
        }
        compared += 1;
    }
    assert!(compared >= 4, "too few feasible instances ({compared}) — generator broken?");
}
