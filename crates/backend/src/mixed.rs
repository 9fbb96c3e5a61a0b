//! Reitblatt-style per-packet consistency across a mixed-epoch window.
//!
//! When the runtime commits a new deployment switch by switch over a
//! lossy control channel, acks land at different virtual times: for a
//! while the network serves a *mix* of the old and the new epoch. During
//! that window traffic still follows the **old** plan's coordinated route
//! (routes flip atomically when the controller activates the new epoch),
//! but each visited switch executes whichever config it currently serves
//! — new if its commit already landed, old otherwise.
//!
//! Per-packet consistency demands that a packet crossing that window is
//! indistinguishable from one processed end to end by a single epoch.
//! [`check_transition`] replays the deterministic packet seeds against
//! every prefix of the intended commit order and compares the mixed
//! execution's observable outcome (headers + drop status) to the
//! reference program semantics; the runtime refuses to issue the first
//! commit — rolling the transaction back — when any window would diverge.
//!
//! Transitions that keep every MAT on its switch are trivially
//! consistent; transitions that move a MAT generally are not (the window
//! double-executes or skips it), which is exactly the class of rollouts
//! that must be rolled back rather than committed gradually.

use crate::config::DeploymentArtifacts;
use crate::emulator::{
    execute_switch, run_reference, same_observable, test_packet, transitive_piggyback, Packet,
    Registers,
};
use hermes_core::DeploymentPlan;
use hermes_net::SwitchId;
use hermes_tdg::Tdg;
use std::collections::BTreeSet;
use std::fmt;

/// The old and new sides of one epoch transition, borrowed from the
/// runtime's active deployment and the transaction being committed.
#[derive(Debug, Clone, Copy)]
pub struct EpochTransition<'a> {
    /// The program both epochs realize.
    pub tdg: &'a Tdg,
    /// The plan serving before the transition.
    pub old_plan: &'a DeploymentPlan,
    /// Per-switch configs of the old plan.
    pub old_artifacts: &'a DeploymentArtifacts,
    /// The plan being committed.
    pub new_plan: &'a DeploymentPlan,
    /// Per-switch configs of the new plan.
    pub new_artifacts: &'a DeploymentArtifacts,
}

/// Why a mixed-epoch window is inconsistent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MixedEpochViolation {
    /// With exactly `committed` switches on the new epoch, `packet_seed`'s
    /// observable outcome diverges from the single-epoch reference.
    Divergence {
        /// The diverging packet seed.
        packet_seed: u64,
        /// The committed set of the violating window.
        committed: Vec<SwitchId>,
    },
    /// The old plan's switch dependency graph has no topological order,
    /// so no window can be replayed (never the case for a plan that
    /// passed verification).
    UnorderedOldPlan,
}

impl fmt::Display for MixedEpochViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MixedEpochViolation::Divergence { packet_seed, committed } => write!(
                f,
                "packet seed {packet_seed} observes both epochs with {} switch(es) committed ({:?})",
                committed.len(),
                committed
            ),
            MixedEpochViolation::UnorderedOldPlan => {
                f.write_str("old plan has a cyclic switch dependency graph")
            }
        }
    }
}

impl std::error::Error for MixedEpochViolation {}

/// Runs one packet through the mixed window: old-plan route, per-switch
/// epoch chosen by the committed set, egress stripping per the serving
/// epoch's piggyback contract.
fn run_mixed(
    t: &EpochTransition<'_>,
    committed: &BTreeSet<SwitchId>,
    mut pkt: Packet,
) -> Result<Packet, MixedEpochViolation> {
    let order = t
        .old_artifacts
        .switch_visit_order(t.tdg, t.old_plan)
        .ok_or(MixedEpochViolation::UnorderedOldPlan)?;
    let mut regs = Registers::default();
    for (i, &switch) in order.iter().enumerate() {
        let serving_new =
            committed.contains(&switch) && t.new_artifacts.switches.contains_key(&switch);
        let (config, plan) = if serving_new {
            (&t.new_artifacts.switches[&switch], t.new_plan)
        } else {
            (&t.old_artifacts.switches[&switch], t.old_plan)
        };
        execute_switch(t.tdg, config, &mut pkt, &mut regs);
        // Egress keeps what the *serving* epoch believes later switches
        // still consume — a committed switch applies its new append
        // contract even though traffic still follows the old route.
        let piggyback = transitive_piggyback(t.tdg, plan, &order[..=i], &order[i + 1..]);
        pkt.retain_for_wire(&piggyback);
    }
    Ok(pkt)
}

/// Checks one window: with exactly `committed` switches serving the new
/// epoch, every packet seed must be observably identical to the
/// single-epoch reference execution.
///
/// # Errors
///
/// Returns the first [`MixedEpochViolation`] found.
pub fn check_window(
    t: &EpochTransition<'_>,
    committed: &BTreeSet<SwitchId>,
    packet_seeds: &[u64],
) -> Result<(), MixedEpochViolation> {
    for &seed in packet_seeds {
        let mixed = run_mixed(t, committed, test_packet(seed))?;
        let reference = run_reference(t.tdg, test_packet(seed));
        if !same_observable(&mixed, &reference) {
            return Err(MixedEpochViolation::Divergence {
                packet_seed: seed,
                committed: committed.iter().copied().collect(),
            });
        }
    }
    Ok(())
}

/// Checks every window the intended `commit_order` can realize: after
/// each prefix of commits has landed (including the full set, which is
/// the state just before routes flip at activation), packets must stay
/// per-packet consistent. Returns the number of windows checked.
///
/// The runtime calls this *before issuing the first commit*: a violating
/// order means the transition cannot be committed gradually and must
/// roll back instead.
///
/// # Errors
///
/// Returns the first violating window's [`MixedEpochViolation`] — the
/// same window the sequential prefix loop would report. Windows are
/// replayed in parallel (they are independent of each other); the scan
/// over the collected results stays in commit order, so the outcome is
/// deterministic regardless of thread scheduling.
pub fn check_transition(
    t: &EpochTransition<'_>,
    commit_order: &[SwitchId],
    packet_seeds: &[u64],
) -> Result<usize, MixedEpochViolation> {
    let prefixes: Vec<BTreeSet<SwitchId>> =
        (1..=commit_order.len()).map(|n| commit_order[..n].iter().copied().collect()).collect();
    if prefixes.is_empty() {
        return Ok(0);
    }
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get()).min(prefixes.len());
    let mut results: Vec<Result<(), MixedEpochViolation>> = vec![Ok(()); prefixes.len()];
    if workers <= 1 {
        for (slot, committed) in results.iter_mut().zip(&prefixes) {
            *slot = check_window(t, committed, packet_seeds);
        }
    } else {
        let chunk = prefixes.len().div_ceil(workers);
        std::thread::scope(|scope| {
            for (res_chunk, pre_chunk) in results.chunks_mut(chunk).zip(prefixes.chunks(chunk)) {
                scope.spawn(move || {
                    for (slot, committed) in res_chunk.iter_mut().zip(pre_chunk) {
                        *slot = check_window(t, committed, packet_seeds);
                    }
                });
            }
        });
    }
    for r in results {
        r?;
    }
    Ok(prefixes.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::generate;
    use hermes_core::{Epsilon, GreedyHeuristic, ProgramAnalyzer, Solver, StagePlacement};
    use hermes_dataplane::action::{Action, PrimitiveOp};
    use hermes_dataplane::fields::{headers, Field};
    use hermes_dataplane::library;
    use hermes_dataplane::mat::{Mat, MatchKind};
    use hermes_dataplane::program::Program;
    use hermes_net::{paths, topology, Network};
    use hermes_tdg::AnalysisMode;

    /// Two-MAT chain: `a` hashes a header into metadata, `b` copies the
    /// metadata into a header — the canonical dependency whose placement
    /// is observable.
    fn chain_tdg() -> Tdg {
        let idx = Field::metadata("meta.idx", 4);
        let a =
            Mat::builder("a")
                .action(Action::new("hash").with_op(PrimitiveOp::Hash {
                    dst: idx.clone(),
                    srcs: vec![headers::ipv4_src()],
                }))
                .resource(0.5)
                .build()
                .unwrap();
        let b = Mat::builder("b")
            .match_field(idx.clone(), MatchKind::Exact)
            .action(
                Action::new("stamp")
                    .with_op(PrimitiveOp::Copy { dst: headers::ipv4_dst(), src: idx }),
            )
            .resource(0.5)
            .build()
            .unwrap();
        let p = Program::builder("p").table(a).table(b).build().unwrap();
        Tdg::from_program(&p, AnalysisMode::PaperLiteral)
    }

    /// Places node 0 on `home_a` and node 1 on `home_b` (with a route when
    /// they differ).
    fn chain_plan(net: &Network, home_a: SwitchId, home_b: SwitchId, tdg: &Tdg) -> DeploymentPlan {
        let order = tdg.topo_order().unwrap();
        let mut plan = DeploymentPlan::new();
        plan.place(StagePlacement { node: order[0], switch: home_a, stage: 0, fraction: 0.5 });
        plan.place(StagePlacement { node: order[1], switch: home_b, stage: 1, fraction: 0.5 });
        if home_a != home_b {
            let path = paths::shortest_path(net, home_a, home_b).unwrap();
            plan.route(hermes_core::PlanRoute { from: home_a, to: home_b, path });
        }
        plan
    }

    #[test]
    fn identity_transition_is_consistent_in_every_window() {
        let tdg = ProgramAnalyzer::new().analyze(&library::real_programs());
        let net = topology::linear(3, 10.0);
        let plan = GreedyHeuristic::new().deploy(&tdg, &net, &Epsilon::loose()).unwrap();
        let art = generate(&tdg, &net, &plan);
        let t = EpochTransition {
            tdg: &tdg,
            old_plan: &plan,
            old_artifacts: &art,
            new_plan: &plan,
            new_artifacts: &art,
        };
        let order: Vec<SwitchId> = plan.occupied_switches().into_iter().collect();
        let windows = check_transition(&t, &order, &[0, 1, 2, 3]).expect("identity is consistent");
        assert_eq!(windows, order.len());
    }

    #[test]
    fn empty_window_equals_the_old_deployment() {
        let tdg = ProgramAnalyzer::new().analyze(&library::real_programs());
        let net = topology::linear(3, 10.0);
        let plan = GreedyHeuristic::new().deploy(&tdg, &net, &Epsilon::loose()).unwrap();
        let art = generate(&tdg, &net, &plan);
        let t = EpochTransition {
            tdg: &tdg,
            old_plan: &plan,
            old_artifacts: &art,
            new_plan: &plan,
            new_artifacts: &art,
        };
        // Zero commits landed: the mixed execution IS the old deployment,
        // which passed validation — so the empty window must check clean.
        check_window(&t, &BTreeSet::new(), &[0, 1, 2, 3]).expect("old deployment is consistent");
    }

    #[test]
    fn moving_a_mat_violates_some_window() {
        // Old epoch: a@s0, b@s1. New epoch: both on s0. When s0's commit
        // lands first, a packet on the old route runs (a, b) on s0 under
        // the new config — stripping meta.idx per the new (single-switch)
        // contract — then runs the OLD b again on s1 with the metadata
        // gone: it observed both epochs and diverges.
        let tdg = chain_tdg();
        let net = topology::linear(2, 10.0);
        let ids: Vec<SwitchId> = net.switch_ids().collect();
        let old_plan = chain_plan(&net, ids[0], ids[1], &tdg);
        let new_plan = chain_plan(&net, ids[0], ids[0], &tdg);
        let old_art = generate(&tdg, &net, &old_plan);
        let new_art = generate(&tdg, &net, &new_plan);
        let t = EpochTransition {
            tdg: &tdg,
            old_plan: &old_plan,
            old_artifacts: &old_art,
            new_plan: &new_plan,
            new_artifacts: &new_art,
        };
        let err = check_transition(&t, &[ids[0]], &[0, 1, 2, 3])
            .expect_err("a moved MAT must break some window");
        match err {
            MixedEpochViolation::Divergence { committed, .. } => {
                assert_eq!(committed, vec![ids[0]]);
            }
            other => panic!("unexpected violation: {other}"),
        }
    }

    #[test]
    fn violation_renders_usefully() {
        let v = MixedEpochViolation::Divergence { packet_seed: 7, committed: vec![] };
        assert!(v.to_string().contains("packet seed 7"), "{v}");
    }
}
