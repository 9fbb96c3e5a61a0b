//! The per-window / per-seed packet replay the compiled emulator replaced,
//! kept as a test-only oracle: it recomputes the visit order, the
//! reference run and every hop's piggyback set for every packet. The
//! equivalence tests below pin the compiled paths to it.

use crate::config::{generate, DeploymentArtifacts, SwitchConfig};
use crate::emulator::{execute_mat, same_observable, test_packet, Packet, Registers, Trace};
use crate::mixed::{EpochTransition, MixedEpochViolation};
use crate::validate::{ValidationFailure, ValidationReport};
use hermes_core::{verify, DeploymentPlan, Epsilon};
use hermes_dataplane::fields::Field;
use hermes_net::{Network, SwitchId};
use hermes_tdg::{NodeId, Tdg};
use std::collections::BTreeSet;

fn execute_switch(tdg: &Tdg, config: &SwitchConfig, pkt: &mut Packet, regs: &mut Registers) {
    let mut executed: BTreeSet<NodeId> = Default::default();
    let mut items: Vec<(usize, &crate::config::StageEntry)> = config
        .stages
        .iter()
        .flat_map(|(stage, list)| list.iter().map(move |e| (*stage, e)))
        .collect();
    items.sort_by_key(|(stage, e)| (*stage, e.node));
    for (_, entry) in items {
        if executed.insert(entry.node) {
            let mat = &tdg.node(entry.node).mat;
            execute_mat(mat, &entry.table, pkt, regs);
        }
    }
}

fn transitive_piggyback(
    tdg: &Tdg,
    plan: &DeploymentPlan,
    visited: &[SwitchId],
    remaining: &[SwitchId],
) -> BTreeSet<Field> {
    let mut out = BTreeSet::new();
    if remaining.is_empty() {
        return out;
    }
    for e in tdg.edges() {
        let (Some(u), Some(v)) = (plan.switch_of(e.from), plan.switch_of(e.to)) else {
            continue;
        };
        if visited.contains(&u) && remaining.contains(&v) {
            out.extend(tdg.node(e.from).mat.written_metadata());
        }
    }
    out
}

pub(crate) fn run_distributed(
    tdg: &Tdg,
    plan: &DeploymentPlan,
    artifacts: &DeploymentArtifacts,
    mut pkt: Packet,
) -> Trace {
    let order =
        artifacts.switch_visit_order(tdg, plan).expect("verified plans have an acyclic switch DAG");
    let mut regs = Registers::default();
    let mut visits = Vec::with_capacity(order.len());
    let mut wire_bytes = Vec::with_capacity(order.len());
    for (i, &switch) in order.iter().enumerate() {
        visits.push(switch);
        execute_switch(tdg, &artifacts.switches[&switch], &mut pkt, &mut regs);
        let remaining: Vec<SwitchId> = order[i + 1..].to_vec();
        let piggyback = transitive_piggyback(tdg, plan, &order[..=i], &remaining);
        pkt.retain_for_wire(&piggyback);
        wire_bytes.push(piggyback.iter().map(Field::size_bytes).sum());
    }
    Trace { packet: pkt, visits, wire_bytes }
}

pub(crate) fn run_reference(tdg: &Tdg, mut pkt: Packet) -> Packet {
    let mut regs = Registers::default();
    for id in tdg.topo_order().expect("TDGs are DAGs") {
        let node = tdg.node(id);
        execute_mat(&node.mat, &node.name, &mut pkt, &mut regs);
    }
    pkt
}

pub(crate) fn validate_plan(
    tdg: &Tdg,
    net: &Network,
    plan: &DeploymentPlan,
    eps: &Epsilon,
    packet_seeds: &[u64],
) -> (ValidationReport, DeploymentArtifacts) {
    let mut failures: Vec<ValidationFailure> = verify(tdg, net, plan, eps)
        .into_iter()
        .map(|v| ValidationFailure::Constraint { violation: v.to_string() })
        .collect();
    let artifacts = generate(tdg, net, plan);
    if failures.is_empty() {
        for &seed in packet_seeds {
            let reference = run_reference(tdg, test_packet(seed));
            let distributed = run_distributed(tdg, plan, &artifacts, test_packet(seed));
            if !same_observable(&reference, &distributed.packet) {
                failures.push(ValidationFailure::Divergence { packet_seed: seed });
            }
        }
    }
    (ValidationReport { failures, packets_checked: packet_seeds.len() }, artifacts)
}

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
        let piggyback = transitive_piggyback(t.tdg, plan, &order[..=i], &order[i + 1..]);
        pkt.retain_for_wire(&piggyback);
    }
    Ok(pkt)
}

fn check_window(
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

/// The sequential prefix loop: the first violating window in commit order.
pub(crate) fn check_transition(
    t: &EpochTransition<'_>,
    commit_order: &[SwitchId],
    packet_seeds: &[u64],
) -> Result<usize, MixedEpochViolation> {
    for n in 1..=commit_order.len() {
        let committed: BTreeSet<SwitchId> = commit_order[..n].iter().copied().collect();
        check_window(t, &committed, packet_seeds)?;
    }
    Ok(commit_order.len())
}

mod tests {
    use super::*;
    use crate::emulator;
    use hermes_core::{
        Epsilon, GreedyHeuristic, IncrementalDeployer, ProgramAnalyzer, RedeployOptions, Solver,
    };
    use hermes_dataplane::library;
    use hermes_dataplane::synthetic::{SyntheticConfig, SyntheticGenerator};
    use hermes_net::topology;
    use proptest::prelude::*;

    const SEEDS: [u64; 4] = [0, 1, 2, 3];

    /// Tallies of the gate verdicts a sweep compared.
    #[derive(Default)]
    struct Verdicts {
        consistent: usize,
        refused: usize,
    }

    /// Compares every compiled path with its reference on one deployment.
    fn assert_deployment_matches(tdg: &Tdg, net: &Network, plan: &DeploymentPlan, eps: &Epsilon) {
        let compiled = crate::validate_plan(tdg, net, plan, eps, &SEEDS);
        assert_eq!(compiled, validate_plan(tdg, net, plan, eps, &SEEDS), "validate_plan");
        let tight = Epsilon::new(0.0, usize::MAX);
        assert_eq!(
            crate::validate_plan(tdg, net, plan, &tight, &SEEDS),
            validate_plan(tdg, net, plan, &tight, &SEEDS),
            "validate_plan under a violated epsilon"
        );
        let artifacts = compiled.1;
        for seed in SEEDS {
            assert_eq!(
                emulator::run_distributed(tdg, plan, &artifacts, test_packet(seed)),
                run_distributed(tdg, plan, &artifacts, test_packet(seed)),
                "run_distributed trace, packet seed {seed}"
            );
            assert_eq!(
                emulator::run_reference(tdg, test_packet(seed)),
                run_reference(tdg, test_packet(seed))
            );
        }
    }

    /// Deploys `programs` greedily, then redeploys excluding each occupied
    /// switch in turn and compares both gate paths on every transition,
    /// under the rollout's commit order (switch order) and a shuffled one.
    fn sweep(programs: &[hermes_dataplane::Program], net: &Network, shuffle: u64) -> Verdicts {
        let tdg = ProgramAnalyzer::new().analyze(programs);
        let eps = Epsilon::loose();
        let mut verdicts = Verdicts::default();
        let Ok(old_plan) = GreedyHeuristic::new().deploy(&tdg, net, &eps) else {
            return verdicts;
        };
        assert_deployment_matches(&tdg, net, &old_plan, &eps);
        let old_artifacts = generate(&tdg, net, &old_plan);
        for drained in old_plan.occupied_switches() {
            let opts = RedeployOptions::excluding([drained]);
            let Ok(outcome) =
                IncrementalDeployer::new().redeploy_with(&tdg, &old_plan, &tdg, net, &eps, &opts)
            else {
                continue;
            };
            let new_plan = outcome.plan;
            assert_deployment_matches(&tdg, net, &new_plan, &eps);
            let new_artifacts = generate(&tdg, net, &new_plan);
            let t = EpochTransition {
                tdg: &tdg,
                old_plan: &old_plan,
                old_artifacts: &old_artifacts,
                new_plan: &new_plan,
                new_artifacts: &new_artifacts,
            };
            let sorted: Vec<SwitchId> = new_artifacts.switches.keys().copied().collect();
            let mut shuffled = sorted.clone();
            let mut state = shuffle ^ u64::from(drained.index() as u32);
            for i in (1..shuffled.len()).rev() {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                shuffled.swap(i, (state >> 33) as usize % (i + 1));
            }
            // Every window's mixed packet, not only the verdict.
            let gate = crate::mixed::MixedGate::new(&t, &SEEDS).expect("verified old plan");
            for n in 0..=shuffled.len() {
                let committed: BTreeSet<SwitchId> = shuffled[..n].iter().copied().collect();
                for seed in SEEDS {
                    assert_eq!(
                        gate.run_mixed(&committed, test_packet(seed)),
                        run_mixed(&t, &committed, test_packet(seed)).unwrap(),
                        "drain {drained}, window {committed:?}, packet seed {seed}"
                    );
                }
            }
            for order in [&sorted, &shuffled] {
                let compiled = crate::check_transition(&t, order, &SEEDS);
                assert_eq!(compiled, check_transition(&t, order, &SEEDS), "drain {drained}");
                match compiled {
                    Ok(_) => verdicts.consistent += 1,
                    Err(_) => verdicts.refused += 1,
                }
            }
        }
        verdicts
    }

    fn with_synthetic(seed: u64, count: usize) -> Vec<hermes_dataplane::Program> {
        let mut programs = library::real_programs();
        programs.extend(SyntheticGenerator::new(seed, SyntheticConfig::default()).programs(count));
        programs
    }

    #[test]
    fn compiled_gate_matches_reference_on_drains_including_refusals() {
        let mut total = Verdicts::default();
        for (programs, net) in [
            (library::real_programs(), topology::linear(4, 10.0)),
            (with_synthetic(7, 6), topology::table3_wan(9)),
        ] {
            let v = sweep(&programs, &net, 11);
            total.consistent += v.consistent;
            total.refused += v.refused;
        }
        assert!(total.consistent > 0, "no transition passed the gate");
        assert!(total.refused > 0, "no transition was refused by the gate");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        #[test]
        fn compiled_gate_matches_reference_on_random_drains(
            seed in 0u64..100_000,
            synthetic in 0usize..=5,
            wan in any::<bool>(),
        ) {
            let net = if wan { topology::table3_wan((seed % 10) as usize) } else { topology::linear(3 + (seed % 3) as usize, 10.0) };
            sweep(&with_synthetic(seed, synthetic), &net, seed);
        }
    }
}
