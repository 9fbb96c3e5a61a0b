//! The pairwise SPEED-style merge the accumulating [`super::merge_all`]
//! replaced, kept verbatim as a test oracle: every property test asserts
//! that the accumulator's output is serde-identical to this fold.

use crate::analysis::{classify, metadata_amount};
use crate::graph::{NodeId, Tdg, TdgEdge, TdgNode};
use std::collections::{BTreeMap, BTreeSet};

/// Merges all TDGs into one (the `TDG_MERGING` loop of Algorithm 1).
///
/// Returns an empty TDG when `tdgs` is empty. The analysis mode of the
/// first graph is used for the result; callers mixing modes should
/// [`Tdg::reanalyze`] afterwards.
pub fn merge_all(tdgs: Vec<Tdg>) -> Tdg {
    let mut iter = tdgs.into_iter();
    let Some(mut merged) = iter.next() else {
        return Tdg::new(crate::analysis::AnalysisMode::PaperLiteral);
    };
    for next in iter {
        merged = merge_pair(merged, next);
    }
    merged
}

/// Merges two TDGs, eliminating redundant MATs across them.
///
/// Relaxed edges are restored to their conservative base types before
/// merging and the relaxation pass reruns on the merged result: a field's
/// verdict is a property of the *final* node set (merging can add writers
/// and demote it), so per-input relaxations must not survive as-is.
pub fn merge_pair(mut t1: Tdg, mut t2: Tdg) -> Tdg {
    let mode = t1.mode();
    if mode.relaxes_state() {
        t1.restore_base_edges();
        t2.restore_base_edges();
    }
    let offset = t1.node_count();

    let mut nodes: Vec<TdgNode> = t1.nodes().to_vec();
    nodes.extend(t2.nodes().iter().cloned());
    let mut edges: Vec<TdgEdge> = t1.edges().to_vec();
    edges.extend(t2.edges().iter().map(|e| TdgEdge {
        from: NodeId(e.from.index() + offset),
        to: NodeId(e.to.index() + offset),
        ..*e
    }));

    // Group nodes by structural signature; node order keeps determinism.
    let mut groups: BTreeMap<_, Vec<usize>> = BTreeMap::new();
    for (i, n) in nodes.iter().enumerate() {
        groups.entry(n.mat.signature()).or_default().push(i);
    }

    // rep[i] = the surviving node index i is folded into (itself initially).
    let mut rep: Vec<usize> = (0..nodes.len()).collect();
    for group in groups.values() {
        let head = group[0];
        for &dup in &group[1..] {
            rep[dup] = head;
            if has_cycle(nodes.len(), &edges, &rep) {
                rep[dup] = dup; // undo: this elimination would break the DAG
            }
        }
    }

    // Compact surviving nodes and merge provenance of folded duplicates.
    let mut new_index = vec![usize::MAX; nodes.len()];
    let mut out_nodes: Vec<TdgNode> = Vec::new();
    for i in 0..nodes.len() {
        if rep[i] == i {
            new_index[i] = out_nodes.len();
            out_nodes.push(nodes[i].clone());
        }
    }
    for i in 0..nodes.len() {
        if rep[i] != i {
            let programs = nodes[i].programs.clone();
            out_nodes[new_index[rep[i]]].programs.extend(programs);
        }
    }

    // Remap edges, drop self-loops, and deduplicate parallel edges keeping
    // the largest metadata amount (endpoint signatures are equal, so the
    // dependency types of folded parallels agree).
    let mut dedup: BTreeMap<(usize, usize), TdgEdge> = BTreeMap::new();
    for e in &edges {
        let from = new_index[rep[e.from.index()]];
        let to = new_index[rep[e.to.index()]];
        if from == to {
            continue;
        }
        let remapped = TdgEdge { from: NodeId(from), to: NodeId(to), ..*e };
        dedup
            .entry((from, to))
            .and_modify(|existing| {
                if remapped.bytes > existing.bytes {
                    *existing = remapped;
                }
            })
            .or_insert(remapped);
    }

    // Cross-program dependencies: merging composes the programs
    // sequentially (`t1` upstream of `t2`), so two MATs touching the same
    // fields across the program boundary are as interdependent as within
    // one program — e.g. one program's counter table feeding another
    // program's policer through a shared metadata field. Shared
    // (deduplicated) nodes already carry both sides' edges, so inference
    // runs only between t1-only and t2-only survivors; an edge that would
    // close a cycle through a shared node is skipped, mirroring the
    // fold-skipping rule above.
    let shared: BTreeSet<usize> =
        (offset..nodes.len()).filter(|&i| rep[i] < offset).map(|i| new_index[rep[i]]).collect();
    let mut out_edges: Vec<TdgEdge> = dedup.into_values().collect();
    for i in 0..offset {
        if rep[i] != i || shared.contains(&new_index[i]) {
            continue;
        }
        for j in offset..nodes.len() {
            if rep[j] != j {
                continue;
            }
            let (from, to) = (new_index[i], new_index[j]);
            if out_edges.iter().any(|e| e.from.index() == from && e.to.index() == to) {
                continue;
            }
            let (a, b) = (&nodes[i].mat, &nodes[j].mat);
            if let Some(dep) = classify(a, b, false) {
                let bytes = metadata_amount(a, b, dep, mode);
                let edge = TdgEdge { from: NodeId(from), to: NodeId(to), dep, bytes };
                out_edges.push(edge);
                if !is_acyclic(out_nodes.len(), &out_edges) {
                    out_edges.pop();
                }
            }
        }
    }

    let mut merged = Tdg::from_parts(out_nodes, out_edges, mode);
    debug_assert!(merged.is_dag(), "merge must preserve acyclicity");
    if mode.relaxes_state() {
        merged.relax_edges();
    }
    merged
}

/// Plain Kahn acyclicity check on dense node indexes.
fn is_acyclic(n: usize, edges: &[TdgEdge]) -> bool {
    let mut indegree = vec![0usize; n];
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for e in edges {
        adj[e.from.index()].push(e.to.index());
        indegree[e.to.index()] += 1;
    }
    let mut stack: Vec<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
    let mut seen = 0usize;
    while let Some(u) = stack.pop() {
        seen += 1;
        for &v in &adj[u] {
            indegree[v] -= 1;
            if indegree[v] == 0 {
                stack.push(v);
            }
        }
    }
    seen == n
}

/// Cycle check on the graph obtained by contracting every node into its
/// representative. O(V + E) Kahn.
fn has_cycle(n: usize, edges: &[TdgEdge], rep: &[usize]) -> bool {
    let mut indegree = vec![0usize; n];
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut m = 0usize;
    for e in edges {
        let (f, t) = (rep[e.from.index()], rep[e.to.index()]);
        if f != t {
            adj[f].push(t);
            indegree[t] += 1;
            m += 1;
        }
    }
    let mut stack: Vec<usize> = (0..n).filter(|&i| rep[i] == i && indegree[i] == 0).collect();
    let mut seen = 0usize;
    let mut removed_edges = 0usize;
    while let Some(u) = stack.pop() {
        seen += 1;
        for &v in &adj[u] {
            removed_edges += 1;
            indegree[v] -= 1;
            if indegree[v] == 0 {
                stack.push(v);
            }
        }
    }
    let live_nodes = (0..n).filter(|&i| rep[i] == i).count();
    seen < live_nodes || removed_edges < m
}
