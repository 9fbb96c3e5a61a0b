//! SPEED-style TDG merging (paper §IV, Algorithm 1 lines 4–8).
//!
//! Different programs exhibit redundancy — the canonical example is every
//! measurement sketch invoking the same 5-tuple hash. Merging unions the
//! node and edge sets of the per-program TDGs and then removes as many
//! *redundant* MATs (structurally identical per
//! [`Mat::signature`](hermes_dataplane::Mat::signature)) as possible while
//! (a) preserving every dependency edge and (b) never introducing a cycle.
//! A merge candidate that would create a cycle is skipped, exactly the
//! "remove as many ... while preserving the edges" behaviour the paper
//! describes.
//!
//! [`merge_all`] folds the programs in one at a time, in submission order,
//! into an accumulator that keeps everything a step needs across steps:
//! each node's signature group, its [`MatProfile`] on one shared
//! [`FieldTable`], a per-field index of the writers and matchers already
//! merged, the edge list, and adjacency lists. A step therefore costs what
//! the incoming program touches, not the size of the graph so far:
//!
//! - **Folds.** Signature groups with two or more live members are tried
//!   in signature order, head first (the oldest member), duplicates in
//!   arrival order — including duplicates whose fold an earlier step
//!   skipped. Contracting `dup` into `head` closes a cycle iff a path of
//!   length ≥ 2 joins them, which is a reachability query around `dup`.
//! - **Cross-program inference.** Merging composes the programs
//!   sequentially (the graph so far upstream of the incoming program), so
//!   two MATs touching the same fields across the boundary are as
//!   interdependent as within one program. Only the incoming program's
//!   survivors and the older nodes that are not shared with it pair up;
//!   the field index yields exactly the pairs that [`classify_profiles`]
//!   types, visited in ascending `(old, new)` order. An inferred edge
//!   `from → to` closes a cycle iff `to ⇝ from`, and is then skipped,
//!   mirroring the fold-skipping rule.
//! - **Edges.** After the folds, edges are remapped onto the surviving
//!   heads, self-loops dropped, and parallel edges collapsed to the one
//!   with the largest metadata amount (the first on equal bytes), sorted
//!   by `(from, to)`; the step's inferred edges follow in inference order.
//!
//! The result is the same graph, byte for byte, as folding the programs
//! pairwise with a full re-merge per step: a property test in this module
//! pins the accumulator to that fold, kept as a test-only oracle.

use crate::analysis::{classify_profiles, metadata_amount_profiles, AnalysisMode, MatProfile};
use crate::graph::{NodeId, Tdg, TdgEdge, TdgNode};
use hermes_dataplane::mat::MatSignature;
use hermes_dataplane::FieldTable;
use std::collections::{BTreeMap, BTreeSet};

/// Merges all TDGs into one (the `TDG_MERGING` loop of Algorithm 1).
///
/// Returns an empty TDG when `tdgs` is empty and the single input
/// unchanged when there is one. The analysis mode of the first graph is
/// used for the result; callers mixing modes should [`Tdg::reanalyze`]
/// afterwards.
///
/// Relaxed edges are restored to their conservative base types before
/// merging and the relaxation pass runs once on the merged result: a
/// field's verdict is a property of the *final* node set (merging can add
/// writers and demote it), so per-input relaxations must not survive
/// as-is.
pub fn merge_all(tdgs: Vec<Tdg>) -> Tdg {
    let mut iter = tdgs.into_iter();
    let Some(first) = iter.next() else {
        return Tdg::new(AnalysisMode::PaperLiteral);
    };
    let Some(second) = iter.next() else {
        return first;
    };
    let mut merged = Accumulator::new(first);
    merged.fold_in(second);
    for next in iter {
        merged.fold_in(next);
    }
    merged.finish()
}

/// The merged TDG under construction. Nodes keep a stable id for the whole
/// merge (the order of arrival); a folded duplicate stays in `nodes` but is
/// no longer `alive`. Stable ids order exactly like the dense indexes of the
/// graph the merge returns, so every order the merge depends on — edge
/// sorting, inference pairs, group members — is decided on stable ids.
struct Accumulator {
    mode: AnalysisMode,
    nodes: Vec<TdgNode>,
    alive: Vec<bool>,
    /// `rep[i]`: the node `i` was folded into, or `i` itself. Heads never
    /// fold (a head is its group's oldest member), so there are no chains.
    rep: Vec<u32>,
    profiles: Vec<MatProfile>,
    fields: FieldTable,
    /// Live members of each signature group, oldest first.
    groups: BTreeMap<MatSignature, Vec<u32>>,
    /// Groups left with two or more live members by a skipped fold; the
    /// next step retries them.
    retry: BTreeSet<MatSignature>,
    /// Per interned field: the merged nodes that write / match it.
    writers: Vec<Vec<u32>>,
    matchers: Vec<Vec<u32>>,
    /// All edges over stable ids, in the order the merge returns them.
    edges: Vec<TdgEdge>,
    /// Adjacency of the current (contracted) graph. May hold repeats.
    out: Vec<Vec<u32>>,
    inn: Vec<Vec<u32>>,
    /// DFS scratch: `seen[v] == stamp` marks `v` visited by the current
    /// search.
    seen: Vec<u32>,
    stamp: u32,
    stack: Vec<u32>,
}

fn id(i: usize) -> u32 {
    u32::try_from(i).expect("merged TDGs have fewer than 2^32 nodes")
}

impl Accumulator {
    fn new(first: Tdg) -> Self {
        let mut acc = Accumulator {
            mode: first.mode(),
            nodes: Vec::new(),
            alive: Vec::new(),
            rep: Vec::new(),
            profiles: Vec::new(),
            fields: FieldTable::new(),
            groups: BTreeMap::new(),
            retry: BTreeSet::new(),
            writers: Vec::new(),
            matchers: Vec::new(),
            edges: Vec::new(),
            out: Vec::new(),
            inn: Vec::new(),
            seen: Vec::new(),
            stamp: 0,
            stack: Vec::new(),
        };
        // The first graph's own duplicates are fold candidates of the
        // first step, exactly like a later program's.
        acc.retry = acc.append(first);
        acc.index_fields(0);
        acc
    }

    /// Adds `t`'s nodes and edges under fresh stable ids (after the ids so
    /// far) and returns the signatures of the groups that now have two or
    /// more live members.
    fn append(&mut self, mut t: Tdg) -> BTreeSet<MatSignature> {
        if self.mode.relaxes_state() {
            t.restore_base_edges();
        }
        let offset = self.nodes.len();
        let (nodes, edges, _) = t.into_parts();
        let mut candidates = BTreeSet::new();
        for (k, node) in nodes.into_iter().enumerate() {
            let i = id(offset + k);
            self.profiles.push(MatProfile::build(&node.mat, &mut self.fields));
            let signature = node.mat.signature();
            let members = self.groups.entry(signature).or_default();
            members.push(i);
            if members.len() == 2 {
                candidates.insert(node.mat.signature());
            }
            self.nodes.push(node);
            self.alive.push(true);
            self.rep.push(i);
            self.out.push(Vec::new());
            self.inn.push(Vec::new());
            self.seen.push(0);
        }
        for e in edges {
            let (from, to) = (e.from.index() + offset, e.to.index() + offset);
            self.out[from].push(id(to));
            self.inn[to].push(id(from));
            self.edges.push(TdgEdge { from: NodeId(from), to: NodeId(to), ..e });
        }
        candidates
    }

    /// One step of the merge: folds `t` into the graph so far.
    fn fold_in(&mut self, t: Tdg) {
        let offset = self.nodes.len();
        let mut candidates = self.append(t);
        candidates.append(&mut self.retry);

        // Folds, group by group in signature order.
        let mut folded = false;
        let mut shared = vec![false; offset];
        for signature in candidates {
            let members = self.groups.remove(&signature).expect("candidate groups exist");
            let head = members[0];
            let mut kept = vec![head];
            for &dup in &members[1..] {
                if self.joined_by_long_path(head, dup) {
                    kept.push(dup); // this fold would break the DAG
                    continue;
                }
                self.contract(head, dup);
                folded = true;
                if dup as usize >= offset && (head as usize) < offset {
                    shared[head as usize] = true;
                }
            }
            if kept.len() >= 2 {
                self.retry.insert(signature.clone());
            }
            self.groups.insert(signature, kept);
        }

        // Remap onto the heads, drop self-loops, collapse parallel edges.
        if folded {
            let rep = &self.rep;
            self.edges.retain_mut(|e| {
                e.from = NodeId(rep[e.from.index()] as usize);
                e.to = NodeId(rep[e.to.index()] as usize);
                e.from != e.to
            });
        }
        self.edges.sort_by_key(|e| (e.from, e.to)); // stable: keeps arrival order
        let mut deduped: Vec<TdgEdge> = Vec::with_capacity(self.edges.len());
        for e in self.edges.drain(..) {
            match deduped.last_mut() {
                Some(last) if (last.from, last.to) == (e.from, e.to) => {
                    if e.bytes > last.bytes {
                        *last = e;
                    }
                }
                _ => deduped.push(e),
            }
        }
        self.edges = deduped;

        self.infer_cross_program(offset, &shared);

        self.index_fields(offset);
    }

    /// Adds the live nodes from stable id `from` on to the per-field
    /// writer / matcher index, which later steps' inference reads.
    fn index_fields(&mut self, from: usize) {
        for j in from..self.nodes.len() {
            if !self.alive[j] {
                continue;
            }
            let profile = &self.profiles[j];
            for f in profile.written.iter() {
                index_push(&mut self.writers, f.index(), id(j));
            }
            for f in profile.matched.iter() {
                index_push(&mut self.matchers, f.index(), id(j));
            }
        }
    }

    /// Cross-program inference between the older nodes not shared with the
    /// incoming program (`< offset`) and the incoming program's survivors.
    fn infer_cross_program(&mut self, offset: usize, shared: &[bool]) {
        let mut pairs: Vec<(u32, u32)> = Vec::new();
        for j in offset..self.nodes.len() {
            if !self.alive[j] {
                continue;
            }
            let b = &self.profiles[j];
            let older = |i: &u32| self.alive[*i as usize] && !shared[*i as usize];
            // 𝕄 / 𝔸: an older writer of a field `j` consumes or writes.
            for f in b.consumed.iter().chain(b.written.iter()) {
                if let Some(list) = self.writers.get(f.index()) {
                    pairs.extend(list.iter().filter(|i| older(i)).map(|&i| (i, id(j))));
                }
            }
            // ℝ: an older matcher of a field `j` writes.
            for f in b.written.iter() {
                if let Some(list) = self.matchers.get(f.index()) {
                    pairs.extend(list.iter().filter(|i| older(i)).map(|&i| (i, id(j))));
                }
            }
        }
        pairs.sort_unstable();
        pairs.dedup();

        let sorted = self.edges.len();
        for (i, j) in pairs {
            let (from, to) = (NodeId(i as usize), NodeId(j as usize));
            if self.edges[..sorted].binary_search_by_key(&(from, to), |e| (e.from, e.to)).is_ok() {
                continue;
            }
            let (a, b) = (&self.profiles[i as usize], &self.profiles[j as usize]);
            let Some(dep) = classify_profiles(a, b, false) else {
                continue;
            };
            let bytes = metadata_amount_profiles(&self.fields, a, b, dep, self.mode);
            if self.reaches(j, i) {
                continue; // from → to would close a cycle
            }
            self.out[i as usize].push(j);
            self.inn[j as usize].push(i);
            self.edges.push(TdgEdge { from, to, dep, bytes });
        }
    }

    /// Whether contracting `dup` into `head` would close a cycle: a path of
    /// length ≥ 2 joins them (a direct edge becomes a dropped self-loop).
    /// Searched from `dup`'s side, which is where the new program sits.
    fn joined_by_long_path(&mut self, head: u32, dup: u32) -> bool {
        let preds: Vec<u32> =
            self.inn[dup as usize].iter().copied().filter(|&p| p != head).collect();
        if self.search(&preds, head, false) {
            return true;
        }
        let succs: Vec<u32> =
            self.out[dup as usize].iter().copied().filter(|&s| s != head).collect();
        self.search(&succs, head, true)
    }

    /// Whether `target` is reachable from `from` (`from ⇝ target`).
    fn reaches(&mut self, from: u32, target: u32) -> bool {
        self.search(&[from], target, true)
    }

    /// DFS from `starts` for `target`, along out-edges when `forward`,
    /// along in-edges otherwise.
    fn search(&mut self, starts: &[u32], target: u32, forward: bool) -> bool {
        self.stamp += 1;
        self.stack.clear();
        for &s in starts {
            if self.seen[s as usize] != self.stamp {
                self.seen[s as usize] = self.stamp;
                self.stack.push(s);
            }
        }
        while let Some(v) = self.stack.pop() {
            if v == target {
                return true;
            }
            let next = if forward { &self.out[v as usize] } else { &self.inn[v as usize] };
            for &w in next {
                if self.seen[w as usize] != self.stamp {
                    self.seen[w as usize] = self.stamp;
                    self.stack.push(w);
                }
            }
        }
        false
    }

    /// Folds `dup` into `head`: provenance, adjacency and `rep`.
    fn contract(&mut self, head: u32, dup: u32) {
        let (h, d) = (head as usize, dup as usize);
        let programs = std::mem::take(&mut self.nodes[d].programs);
        self.nodes[h].programs.extend(programs);
        self.alive[d] = false;
        self.rep[d] = head;
        for x in std::mem::take(&mut self.out[d]) {
            if x == head {
                self.inn[h].retain(|&y| y != dup);
            } else {
                replace(&mut self.inn[x as usize], dup, head);
                self.out[h].push(x);
            }
        }
        for x in std::mem::take(&mut self.inn[d]) {
            if x == head {
                self.out[h].retain(|&y| y != dup);
            } else {
                replace(&mut self.out[x as usize], dup, head);
                self.inn[h].push(x);
            }
        }
    }

    /// The merged TDG: live nodes in stable-id order, edges re-indexed
    /// densely, relaxation run once on the final node set.
    fn finish(self) -> Tdg {
        let mut dense = vec![usize::MAX; self.nodes.len()];
        let mut nodes = Vec::with_capacity(self.nodes.len());
        for (i, node) in self.nodes.into_iter().enumerate() {
            if self.alive[i] {
                dense[i] = nodes.len();
                nodes.push(node);
            }
        }
        let edges = self
            .edges
            .into_iter()
            .map(|e| TdgEdge {
                from: NodeId(dense[e.from.index()]),
                to: NodeId(dense[e.to.index()]),
                ..e
            })
            .collect();
        let mut merged = Tdg::from_parts(nodes, edges, self.mode);
        debug_assert!(merged.is_dag(), "merge must preserve acyclicity");
        if self.mode.relaxes_state() {
            merged.relax_edges();
        }
        merged
    }
}

fn index_push(index: &mut Vec<Vec<u32>>, field: usize, node: u32) {
    if index.len() <= field {
        index.resize_with(field + 1, Vec::new);
    }
    index[field].push(node);
}

fn replace(list: &mut [u32], old: u32, new: u32) {
    for v in list.iter_mut().filter(|v| **v == old) {
        *v = new;
    }
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{AnalysisMode, DependencyType};
    use crate::graph::Tdg;
    use hermes_dataplane::action::Action;
    use hermes_dataplane::fields::Field;
    use hermes_dataplane::library;
    use hermes_dataplane::mat::{Mat, MatchKind};
    use hermes_dataplane::program::Program;

    fn tdg(p: &Program) -> Tdg {
        Tdg::from_program(p, AnalysisMode::PaperLiteral)
    }

    #[test]
    fn merge_eliminates_shared_hash() {
        let a = tdg(&library::ecmp_lb());
        let b = tdg(&library::stateful_firewall());
        let before = a.node_count() + b.node_count();
        let merged = merge_all(vec![a, b]);
        assert_eq!(merged.node_count(), before - 1, "one redundant hash removed");
        assert!(merged.is_dag());
        // The shared node now serves both programs.
        let hash =
            merged.nodes().iter().find(|n| n.name.ends_with("hash_5tuple")).expect("hash survives");
        assert!(hash.programs.contains("ecmp_lb"));
        assert!(hash.programs.contains("stateful_firewall"));
    }

    #[test]
    fn merge_all_sketches_shares_one_hash() {
        let tdgs: Vec<Tdg> = library::sketches::all().iter().map(tdg).collect();
        let total: usize = tdgs.iter().map(Tdg::node_count).sum();
        let merged = merge_all(tdgs);
        // Ten identical hash tables collapse to one: 9 nodes saved.
        assert_eq!(merged.node_count(), total - 9);
        assert!(merged.is_dag());
    }

    #[test]
    fn merge_without_redundancy_is_disjoint_union() {
        let a = tdg(&library::l3_router());
        let b = tdg(&library::acl());
        let (na, ea) = (a.node_count(), a.edge_count());
        let (nb, eb) = (b.node_count(), b.edge_count());
        let merged = merge_all(vec![a, b]);
        assert_eq!(merged.node_count(), na + nb);
        assert_eq!(merged.edge_count(), ea + eb);
    }

    #[test]
    fn merge_preserves_edges_of_folded_nodes() {
        let a = tdg(&library::ecmp_lb());
        let b = tdg(&library::stateful_firewall());
        let merged = merge_all(vec![a, b]);
        let hash = merged.node_by_name("ecmp_lb/hash_5tuple").expect("kept first name");
        // Hash must still feed both the ECMP group and the firewall state.
        let downstream: Vec<&str> =
            merged.out_edges(hash).map(|e| merged.node(e.to).name.as_str()).collect();
        assert!(downstream.iter().any(|n| n.ends_with("ecmp_group")));
        assert!(downstream.iter().any(|n| n.ends_with("conn_state")));
    }

    #[test]
    fn cycle_inducing_merge_is_skipped() {
        // P1: x -> y ; P2: y' -> x' with x ≡ x' and y ≡ y'. Folding both
        // pairs would create x -> y -> x; the merge must keep >= 3 nodes.
        let f = Field::metadata("meta.f", 4);
        let g = Field::metadata("meta.g", 4);
        let x = Mat::builder("x")
            .match_field(g.clone(), MatchKind::Exact)
            .action(Action::writing("w", [f.clone()]))
            .resource(0.1)
            .build()
            .unwrap();
        let y = Mat::builder("y")
            .match_field(f, MatchKind::Exact)
            .action(Action::writing("w", [g]))
            .resource(0.1)
            .build()
            .unwrap();
        let p1 = Program::builder("p1").table(x.clone()).table(y.clone()).build().unwrap();
        let p2 = Program::builder("p2").table(y).table(x).build().unwrap();
        let merged = merge_all(vec![tdg(&p1), tdg(&p2)]);
        assert!(merged.is_dag());
        assert!(merged.node_count() >= 3, "folding both pairs would cycle");
    }

    #[test]
    fn parallel_edges_deduplicated_keeping_max_bytes() {
        // Two identical programs fold completely onto each other.
        let p = library::cm_sketch();
        let merged = merge_all(vec![tdg(&p), tdg(&p)]);
        let single = tdg(&p);
        assert_eq!(merged.node_count(), single.node_count());
        assert_eq!(merged.edge_count(), single.edge_count());
        for (a, b) in merged.edges().iter().zip(single.edges()) {
            assert_eq!(a.bytes, b.bytes);
        }
    }

    #[test]
    fn cross_program_dependency_inferred() {
        // Program A writes meta.count; program B matches it. Merging must
        // produce a dependency edge carrying the 4-byte field.
        let count = Field::metadata("meta.count", 4);
        let writer = Mat::builder("w")
            .action(Action::writing("bump", [count.clone()]))
            .resource(0.1)
            .build()
            .unwrap();
        let reader = Mat::builder("r")
            .match_field(count, MatchKind::Exact)
            .action(Action::new("noop"))
            .resource(0.1)
            .build()
            .unwrap();
        let pa = Program::builder("a").table(writer).build().unwrap();
        let pb = Program::builder("b").table(reader).build().unwrap();
        let merged = merge_all(vec![tdg(&pa), tdg(&pb)]);
        assert_eq!(merged.edge_count(), 1);
        let e = merged.edges()[0];
        assert_eq!(e.dep, DependencyType::Match);
        assert_eq!(e.bytes, 4);
        assert_eq!(merged.node(e.from).name, "a/w");
        assert_eq!(merged.node(e.to).name, "b/r");
    }

    #[test]
    fn cross_program_inference_skips_shared_nodes() {
        // Shared hash: the only edges from it should be the remapped
        // intra-program ones, not duplicated cross inferences.
        let a = tdg(&library::ecmp_lb());
        let b = tdg(&library::stateful_firewall());
        let merged = merge_all(vec![a, b]);
        let hash = merged.node_by_name("ecmp_lb/hash_5tuple").unwrap();
        let to_conn = merged
            .out_edges(hash)
            .filter(|e| merged.node(e.to).name.ends_with("conn_state"))
            .count();
        assert_eq!(to_conn, 1, "exactly one edge to the firewall consumer");
    }

    #[test]
    fn merging_a_conflicting_writer_demotes_relaxations() {
        // Program A: two same-kind folders — their edge relaxes.
        let acc = Field::metadata("meta.acc", 4);
        let src = Field::header("pkt.v", 4);
        // Distinct capacities keep the folders structurally different, so
        // signature folding leaves both nodes (and their edge) in place.
        let folder = |name: &str, cap: usize| {
            Mat::builder(name.to_owned())
                .action(Action::new("f").with_op(hermes_dataplane::action::PrimitiveOp::Fold {
                    dst: acc.clone(),
                    srcs: vec![src.clone()],
                    op: hermes_dataplane::action::FoldOp::Add,
                }))
                .capacity(cap)
                .resource(0.1)
                .build()
                .unwrap()
        };
        let pa =
            Program::builder("a").table(folder("f1", 8)).table(folder("f2", 16)).build().unwrap();
        let ta = Tdg::from_program(&pa, AnalysisMode::RelaxedState);
        assert!(ta.edges().iter().all(|e| e.dep.is_relaxed() && e.bytes == 0));

        // Program B: a plain overwriter of the same accumulator. Merged,
        // the field is no longer all-folds: every relaxation must vanish.
        let setter = Mat::builder("s")
            .action(Action::writing("w", [acc.clone()]))
            .resource(0.1)
            .build()
            .unwrap();
        let pb = Program::builder("b").table(setter).build().unwrap();
        let tb = Tdg::from_program(&pb, AnalysisMode::RelaxedState);
        let merged = merge_all(vec![ta, tb]);
        assert!(
            merged.edges().iter().all(|e| !e.dep.is_relaxed()),
            "demoted verdict must un-relax: {:?}",
            merged.edges()
        );
        // And the restored folder edge carries its conservative bytes again.
        let f1 = merged.node_by_name("a/f1").unwrap();
        let f2 = merged.node_by_name("a/f2").unwrap();
        let e = merged.edges().iter().find(|e| e.from == f1 && e.to == f2).unwrap();
        assert_eq!(e.dep, DependencyType::Match);
        assert_eq!(e.bytes, 4);
    }

    #[test]
    fn merge_all_of_nothing_is_empty() {
        let merged = merge_all(Vec::new());
        assert_eq!(merged.node_count(), 0);
    }

    #[test]
    fn merge_all_real_programs_is_dag_and_smaller() {
        let tdgs: Vec<Tdg> = library::real_programs().iter().map(tdg).collect();
        let total: usize = tdgs.iter().map(Tdg::node_count).sum();
        let merged = merge_all(tdgs);
        assert!(merged.is_dag());
        assert!(merged.node_count() < total, "library shares the 5-tuple hash");
        // Edge types survive the merge.
        assert!(merged.edges().iter().any(|e| e.dep == DependencyType::Match));
    }

    // ---- Equivalence with the pairwise fold (the test-only oracle) ----

    use hermes_dataplane::synthetic::{SyntheticConfig, SyntheticGenerator};
    use proptest::prelude::*;

    const MODES: [AnalysisMode; 3] =
        [AnalysisMode::PaperLiteral, AnalysisMode::Intersection, AnalysisMode::RelaxedState];

    /// Asserts that the accumulator and the pairwise fold produce the same
    /// serde JSON for `programs` under every analysis mode.
    fn assert_matches_pairwise(programs: &[Program]) -> Result<(), TestCaseError> {
        for mode in MODES {
            let tdgs = || programs.iter().map(|p| Tdg::from_program(p, mode)).collect::<Vec<_>>();
            let fast = serde_json::to_string(&merge_all(tdgs())).unwrap();
            let slow = serde_json::to_string(&reference::merge_all(tdgs())).unwrap();
            prop_assert!(fast == slow, "{mode:?}: accumulator diverged from the pairwise fold");
        }
        Ok(())
    }

    /// SplitMix64 step: the tests' own deterministic stream.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn shuffle<T>(items: &mut [T], state: &mut u64) {
        for i in (1..items.len()).rev() {
            items.swap(i, (next(state) % (i as u64 + 1)) as usize);
        }
    }

    /// `count` programs: up to `count` library programs drawn with
    /// repetition (a repeat folds completely) plus synthetic ones, in a
    /// random submission order.
    fn library_and_synthetic(seed: u64, count: usize, libs: usize) -> Vec<Program> {
        let mut state = seed;
        let library = library::real_programs();
        let libs = libs.min(count);
        let mut programs: Vec<Program> = (0..libs)
            .map(|_| library[(next(&mut state) % library.len() as u64) as usize].clone())
            .collect();
        programs.extend(
            SyntheticGenerator::new(seed, SyntheticConfig::default()).programs(count - libs),
        );
        shuffle(&mut programs, &mut state);
        programs
    }

    /// A pool of six MATs over three metadata fields, each matching one
    /// field and writing another (or folding into it): programs drawn from
    /// it repeat signatures in conflicting orders, so folds are skipped,
    /// retried and cross-program edges refused for cycles.
    fn alphabet() -> Vec<Mat> {
        use hermes_dataplane::action::{FoldOp, PrimitiveOp};
        let f = [
            Field::metadata("meta.f", 4),
            Field::metadata("meta.g", 2),
            Field::metadata("meta.h", 8),
        ];
        let mut pool = Vec::new();
        for (k, (m, w)) in [(0, 1), (1, 2), (2, 0), (1, 0)].into_iter().enumerate() {
            pool.push(
                Mat::builder(format!("a{k}"))
                    .match_field(f[m].clone(), MatchKind::Exact)
                    .action(Action::writing("w", [f[w].clone()]))
                    .resource(0.1)
                    .build()
                    .unwrap(),
            );
        }
        for (k, src) in [0, 2].into_iter().enumerate() {
            pool.push(
                Mat::builder(format!("fold{k}"))
                    .action(Action::new("acc").with_op(PrimitiveOp::Fold {
                        dst: f[1].clone(),
                        srcs: vec![f[src].clone()],
                        op: FoldOp::Add,
                    }))
                    .resource(0.1)
                    .build()
                    .unwrap(),
            );
        }
        pool
    }

    fn alphabet_programs(seed: u64, count: usize) -> Vec<Program> {
        let pool = alphabet();
        let mut state = seed;
        (0..count)
            .map(|p| {
                let len = 2 + (next(&mut state) % 4) as usize;
                let mut b = Program::builder(format!("p{p}"));
                for t in 0..len {
                    let mat = &pool[(next(&mut state) % pool.len() as u64) as usize];
                    let mut named = Mat::builder(format!("t{t}")).resource(mat.resource());
                    for spec in mat.match_specs() {
                        named = named.match_field(spec.field.clone(), spec.kind);
                    }
                    for action in mat.actions() {
                        named = named.action(action.clone());
                    }
                    b = b.table(named.build().unwrap());
                }
                if len >= 3 && next(&mut state).is_multiple_of(2) {
                    b = b.gate("t0", format!("t{}", len - 1));
                }
                b.build().unwrap()
            })
            .collect()
    }

    proptest! {
        // Few cases: the pairwise oracle re-merges the whole graph per
        // program, which takes seconds on 40 programs in a debug build.
        #![proptest_config(ProptestConfig::with_cases(8))]

        #[test]
        fn accumulator_matches_pairwise_on_library_and_synthetic_sets(
            seed in 0u64..1_000_000,
            count in 1usize..=40,
            libs in 0usize..=12,
        ) {
            assert_matches_pairwise(&library_and_synthetic(seed, count, libs))?;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn accumulator_matches_pairwise_on_conflicting_orders(
            seed in 0u64..1_000_000,
            count in 2usize..=8,
        ) {
            assert_matches_pairwise(&alphabet_programs(seed, count))?;
        }
    }

    fn chain(name: &str, order: &[&Mat]) -> Program {
        let mut b = Program::builder(name.to_owned());
        for (k, mat) in order.iter().enumerate() {
            let mut named = Mat::builder(format!("t{k}")).resource(mat.resource());
            for spec in mat.match_specs() {
                named = named.match_field(spec.field.clone(), spec.kind);
            }
            for action in mat.actions() {
                named = named.action(action.clone());
            }
            b = b.table(named.build().unwrap());
        }
        b.build().unwrap()
    }

    #[test]
    fn skipped_folds_across_three_programs_match_pairwise() {
        // x matches g and writes f; y matches f and writes g. `x, y` and
        // `y, x` orders conflict: folding both pairs would close x→y→x.
        let pool = alphabet();
        let (x, y, z) = (&pool[3], &pool[0], &pool[1]);
        let cases: Vec<Vec<Program>> = vec![
            vec![chain("p1", &[x, y]), chain("p2", &[y, x]), chain("p3", &[x, y])],
            vec![chain("p1", &[x, y]), chain("p2", &[y, x]), chain("p3", &[y, x])],
            vec![chain("p1", &[x, y, z]), chain("p2", &[z, y, x]), chain("p3", &[y, z, x])],
            vec![chain("p1", &[x]), chain("p2", &[y, x]), chain("p3", &[x, y]), chain("p4", &[y])],
        ];
        for programs in &cases {
            assert_matches_pairwise(programs).unwrap();
            let merged = merge_all(programs.iter().map(tdg).collect());
            assert!(merged.is_dag());
            let signatures: BTreeSet<_> =
                merged.nodes().iter().map(|n| n.mat.signature()).collect();
            assert!(signatures.len() < merged.node_count(), "a fold was skipped for a cycle");
        }
    }

    #[test]
    fn equal_byte_parallel_edges_keep_the_first() {
        // `a` matches a header `b` rewrites and writes no metadata: gated,
        // the pair is a zero-byte successor edge; ungated, a zero-byte
        // reverse match. Folded together, the first program's edge wins.
        use hermes_dataplane::fields::headers;
        let a = Mat::builder("a")
            .match_field(headers::ipv4_dscp(), MatchKind::Exact)
            .action(Action::new("noop"))
            .resource(0.1)
            .build()
            .unwrap();
        let b = Mat::builder("b")
            .action(Action::writing("mark", [headers::ipv4_dscp()]))
            .resource(0.1)
            .build()
            .unwrap();
        let gated =
            Program::builder("g").table(a.clone()).table(b.clone()).gate("a", "b").build().unwrap();
        let plain = Program::builder("p").table(a).table(b).build().unwrap();
        for (first, second, kept) in [
            (&gated, &plain, DependencyType::Successor),
            (&plain, &gated, DependencyType::ReverseMatch),
        ] {
            let programs = [first.clone(), second.clone()];
            assert_matches_pairwise(&programs).unwrap();
            let merged = merge_all(programs.iter().map(tdg).collect());
            assert_eq!(merged.edge_count(), 1);
            assert_eq!((merged.edges()[0].dep, merged.edges()[0].bytes), (kept, 0));
        }
    }
}
