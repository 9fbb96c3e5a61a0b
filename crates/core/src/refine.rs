//! Local-search refinement of deployment plans.
//!
//! The splitting phase of Algorithm 2 restricts placements to contiguous
//! ranges of one topological linearization. When capacity is tight that
//! restriction leaves easy wins on the table: moving a single MAT across
//! the worst switch pair often removes the pair's crossing metadata
//! entirely. This pass hill-climbs on the exact objective — per move it
//! requires strictly smaller `A_max` and full feasibility (per-switch
//! stage assignment, switch-DAG acyclicity, ε-bounds) — so it terminates
//! and can only improve a plan. It refines *any* plan, including the
//! first-fit feasibility fallback.

use crate::deployment::{DeploymentPlan, Epsilon};
use crate::eval::IncrementalEval;
use crate::exact::materialize;
use crate::stage_cache::StageFeasCache;
use hermes_net::{Network, SwitchId, TargetModel};
use hermes_tdg::{NodeId, Tdg};
use std::collections::{BTreeMap, BTreeSet};

/// Refines `plan` by single-node moves between its occupied switches.
/// Returns the improved plan, or the original when no strictly improving
/// move exists (or the plan has unplaced nodes).
///
/// Each trial move is evaluated through the shared hot-path machinery: the
/// [`IncrementalEval`] updates the objective and switch-DAG acyclicity in
/// O(degree) per move/revert, and per-switch stage feasibility goes through
/// a memoized [`StageFeasCache`] — re-probing a set seen in an earlier
/// trial is a hash hit instead of a repack.
pub fn refine(
    tdg: &Tdg,
    net: &Network,
    plan: DeploymentPlan,
    eps: &Epsilon,
    max_moves: usize,
) -> DeploymentPlan {
    let candidates: Vec<SwitchId> = plan.occupied_switches().into_iter().collect();
    if candidates.len() < 2 {
        return plan;
    }
    let index: BTreeMap<SwitchId, usize> =
        candidates.iter().enumerate().map(|(i, &s)| (s, i)).collect();
    let mut assign: Vec<usize> = Vec::with_capacity(tdg.node_count());
    for id in tdg.node_ids() {
        match plan.switch_of(id).and_then(|s| index.get(&s)) {
            Some(&c) => assign.push(c),
            None => return plan, // partial plans are not refined
        }
    }

    let q = candidates.len();
    let shapes: Vec<TargetModel> =
        candidates.iter().map(|&id| net.switch(id).target_model()).collect();
    let mut eval = IncrementalEval::new(tdg, q);
    let mut cache = StageFeasCache::new(tdg);
    let word_len = cache.word_len();
    let mut switch_words = vec![vec![0u64; word_len]; q];
    for (node, &c) in assign.iter().enumerate() {
        eval.place(node, c);
        switch_words[c][node / 64] |= 1u64 << (node % 64);
    }

    let mut current = eval.amax();
    let mut moves = 0usize;
    while current > 0 && moves < max_moves {
        // The worst pair and the nodes whose edges feed it.
        let worst = (0..q * q).max_by_key(|&k| eval.pair_bytes(k / q, k % q)).expect("q >= 2");
        let (wu, wv) = (worst / q, worst % q);
        // Candidate movers: endpoints of edges crossing (wu, wv).
        let mut movers: BTreeSet<NodeId> = BTreeSet::new();
        for e in tdg.edges() {
            if assign[e.from.index()] == wu && assign[e.to.index()] == wv {
                movers.insert(e.from);
                movers.insert(e.to);
            }
        }
        let mut improved = false;
        'search: for &node in &movers {
            let n = node.index();
            let home = assign[n];
            for target in 0..q {
                if target == home {
                    continue;
                }
                // Trial: move the node, score, and check feasibility; on
                // rejection the move is reverted in O(degree).
                eval.unplace(n);
                eval.place(n, target);
                switch_words[home][n / 64] &= !(1u64 << (n % 64));
                switch_words[target][n / 64] |= 1u64 << (n % 64);
                let gain = eval.amax();
                let accept = gain < current
                    && cache.feasible_words(tdg, &shapes[home], &switch_words[home])
                    && cache.feasible_words(tdg, &shapes[target], &switch_words[target])
                    && eval.is_acyclic();
                if !accept {
                    eval.unplace(n);
                    eval.place(n, home);
                    switch_words[target][n / 64] &= !(1u64 << (n % 64));
                    switch_words[home][n / 64] |= 1u64 << (n % 64);
                    continue;
                }
                assign[n] = target;
                current = gain;
                improved = true;
                moves += 1;
                break 'search;
            }
        }
        if !improved {
            break;
        }
    }

    // Rebuild; if materialization or ε-bounds fail, keep the original.
    match materialize(tdg, net, &candidates, &assign) {
        Some(refined)
            if refined.end_to_end_latency_us() <= eps.max_latency_us
                && refined.occupied_switch_count() <= eps.max_switches
                && refined.max_inter_switch_bytes(tdg) <= plan.max_inter_switch_bytes(tdg) =>
        {
            refined
        }
        _ => plan,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyzer::ProgramAnalyzer;
    use crate::heuristic::GreedyHeuristic;
    use crate::solver::Solver;
    use crate::verify::verify;
    use hermes_dataplane::library;
    use hermes_net::topology;

    #[test]
    fn refinement_never_worsens_and_verifies() {
        let tdg = ProgramAnalyzer::new().analyze(&library::real_programs());
        let net = topology::linear(3, 10.0);
        let eps = Epsilon::loose();
        let plan = GreedyHeuristic::new().deploy(&tdg, &net, &eps).unwrap();
        let before = plan.max_inter_switch_bytes(&tdg);
        let refined = refine(&tdg, &net, plan, &eps, 1_000);
        assert!(refined.max_inter_switch_bytes(&tdg) <= before);
        assert!(verify(&tdg, &net, &refined, &eps).is_empty());
    }

    #[test]
    fn single_switch_plans_pass_through() {
        let tdg = ProgramAnalyzer::new().analyze(&[library::l3_router()]);
        let net = topology::linear(2, 10.0);
        let eps = Epsilon::loose();
        let plan = GreedyHeuristic::new().deploy(&tdg, &net, &eps).unwrap();
        let refined = refine(&tdg, &net, plan.clone(), &eps, 100);
        assert_eq!(refined, plan);
    }

    #[test]
    fn zero_moves_budget_is_identity_quality() {
        let tdg = ProgramAnalyzer::new().analyze(&library::real_programs());
        let net = topology::linear(3, 10.0);
        let eps = Epsilon::loose();
        let plan = GreedyHeuristic::new().deploy(&tdg, &net, &eps).unwrap();
        let before = plan.max_inter_switch_bytes(&tdg);
        let refined = refine(&tdg, &net, plan, &eps, 0);
        assert_eq!(refined.max_inter_switch_bytes(&tdg), before);
    }
}
