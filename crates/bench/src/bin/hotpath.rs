//! Hot-path bench for the exact search's evaluation core.
//!
//! The exact solver's branch step runs on the shared [`IncrementalEval`]
//! (O(delta) objective / acyclicity maintenance) and the memoized
//! [`StageFeasCache`]. This binary measures:
//!
//! - **nodes/sec of the bare exact search** ([`OptimalSolver::bare`]);
//! - **heap allocations per branch step**, via a counting global
//!   allocator (the steady-state branch step allocates nothing);
//! - **time-to-proven-optimal** of the seeded solver and the 2-thread
//!   portfolio race;
//! - **evaluator micro-ops** — `place`/`unplace` pairs per second against
//!   a from-scratch rescoring of the same assignment;
//! - **thread scaling** of the work-stealing parallel exact search.
//!
//! The before/after speedup of the evaluation-core rewrite was measured
//! against the pre-rewrite search, which this binary once embedded.
//! `results/BENCH_hotpath.json` keeps that comparison as the historical
//! record; it is no longer re-run.
//!
//! Modes: default prints text tables; `--json` emits the same data as JSON
//! (recorded as `results/BENCH_hotpath.json`); `--smoke` runs fast
//! deterministic equivalence probes (incremental evaluator vs scratch
//! references, feasibility cache vs direct packing) for CI.

use hermes_bench::report::{maybe_json, Table};
use hermes_bench::{analyze, workload};
use hermes_core::{
    stage_feasible, Epsilon, IncrementalEval, OptimalSolver, Portfolio, SearchContext, Solver,
    StageFeasCache,
};
use hermes_net::{topology, Network};
use hermes_tdg::{NodeId, Tdg};
use serde::Serialize;
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeSet;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Counts every heap allocation so the bench can report allocations per
/// explored search node — the "zero allocations per branch step" claim is
/// measured, not asserted.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates verbatim to `System`; the counter is a relaxed atomic.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn allocs_now() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Wall-clock budget for the bare (unseeded) searches; nodes/sec is a
/// rate, so a capped run measures it just as well as an exhausted one.
const BARE_BUDGET: Duration = Duration::from_secs(3);
/// Minimum cumulative wall per throughput measurement; solves repeat
/// until this much search time has accumulated (see [`sustained`]).
const MEASURE_FLOOR: Duration = Duration::from_millis(500);
/// Repetitions for the seeded wall-time measurements (minimum is kept).
const REPS: usize = 3;

#[derive(Serialize)]
struct BareRun {
    nodes_explored: u64,
    wall_ms: f64,
    nodes_per_sec: f64,
    /// Heap allocations during the search divided by nodes explored.
    allocs_per_node: f64,
    objective: Option<u64>,
    exhausted: bool,
}

#[derive(Serialize)]
struct Scenario {
    topology: String,
    tdg_nodes: usize,
    /// Bare search ([`OptimalSolver::bare`]).
    after_bare: BareRun,
    /// Seeded [`OptimalSolver`] to proven optimality.
    after_seeded_ms: f64,
    /// 2-thread portfolio's earliest proven-optimal moment.
    after_portfolio_proven_ms: Option<f64>,
}

#[derive(Serialize)]
struct MicroOps {
    ops: u64,
    /// One op = `place` + `unplace` of a random node on [`IncrementalEval`].
    incremental_ns_per_op: f64,
    incremental_allocs_per_op: f64,
    /// The same op scored by a from-scratch edge scan.
    scratch_ns_per_op: f64,
    speedup: f64,
}

/// One worker count on the thread-scaling curve of the work-stealing
/// parallel exact search.
#[derive(Serialize)]
struct ThreadPoint {
    workers: usize,
    nodes_explored: u64,
    wall_ms: f64,
    nodes_per_sec: f64,
    /// Throughput relative to the 1-worker point of the same curve.
    speedup_vs_1: f64,
    steals: u64,
    bound_prunes: u64,
    subtree_roots: usize,
    frontier_depth: usize,
    objective: Option<u64>,
    exhausted: bool,
}

/// Thread-scaling curve of the bare parallel exact search. `speedup_vs_1`
/// only means anything relative to `host_parallelism`: on a 1-core host
/// every point time-slices the same CPU and the curve is honestly flat.
#[derive(Serialize)]
struct ThreadScaling {
    topology: String,
    host_parallelism: usize,
    points: Vec<ThreadPoint>,
}

#[derive(Serialize)]
struct Report {
    workload_programs: usize,
    bare_budget_secs: u64,
    reps: usize,
    scenarios: Vec<Scenario>,
    evaluator_microops: MicroOps,
    thread_scaling: ThreadScaling,
}

/// Repeats one bare solve until the cumulative wall crosses
/// [`MEASURE_FLOOR`], accumulating nodes / wall / allocations — a single
/// pruned search can exhaust a scenario in well under a millisecond, where
/// one-shot numbers are dominated by setup and timer noise.
fn sustained(
    mut solve_once: impl FnMut() -> (u64, Option<u64>, bool),
) -> (u64, Duration, u64, Option<u64>, bool) {
    let (mut nodes, mut wall, mut allocs) = (0u64, Duration::ZERO, 0u64);
    let (mut objective, mut exhausted) = (None, false);
    let mut first = true;
    while first || wall < MEASURE_FLOOR {
        let a0 = allocs_now();
        let start = Instant::now();
        let (n, obj, ex) = solve_once();
        wall += start.elapsed();
        allocs += allocs_now() - a0;
        nodes += n;
        if first {
            objective = obj;
            exhausted = ex;
            first = false;
        }
    }
    (nodes, wall, allocs, objective, exhausted)
}

fn bare_after(tdg: &Tdg, net: &Network, eps: &Epsilon) -> BareRun {
    let (nodes, wall, allocs, objective, exhausted) = sustained(|| {
        let ctx = SearchContext::with_time_limit(BARE_BUDGET);
        match OptimalSolver::bare().solve(tdg, net, eps, &ctx) {
            Ok(o) => (o.stats.nodes_explored, Some(o.objective), o.stats.proven_bound.is_some()),
            Err(_) => (0, None, false),
        }
    });
    run_stats(nodes, wall, allocs, objective, exhausted)
}

fn run_stats(
    explored: u64,
    wall: Duration,
    allocs: u64,
    objective: Option<u64>,
    exhausted: bool,
) -> BareRun {
    let secs = wall.as_secs_f64().max(f64::EPSILON);
    BareRun {
        nodes_explored: explored,
        wall_ms: secs * 1000.0,
        nodes_per_sec: explored as f64 / secs,
        allocs_per_node: allocs as f64 / (explored.max(1)) as f64,
        objective,
        exhausted,
    }
}

fn min_wall_ms(mut run: impl FnMut() -> Duration) -> f64 {
    (0..REPS).map(|_| run()).min().unwrap_or_default().as_secs_f64() * 1000.0
}

/// Scales every switch's per-stage capacity so packing the ten-program
/// workload actually binds — with stock Tofino capacity the independent
/// programs admit a zero-objective placement on four switches and the
/// pruned search exhausts in a few hundred nodes, leaving little to
/// measure. (The three-switch chain stays at stock capacity: tighter and
/// the greedy seeder needs a fourth segment.)
fn tighten(mut net: Network, stage_capacity: f64) -> Network {
    let ids: Vec<_> = net.switch_ids().collect();
    for id in ids {
        net.switch_mut(id).stage_capacity = stage_capacity;
    }
    net
}

fn bench_scenario(name: &str, net: &Network) -> Scenario {
    let tdg = analyze(&workload(10));
    let eps = Epsilon::loose();

    let after_bare = bare_after(&tdg, net, &eps);
    let after_seeded_ms = min_wall_ms(|| {
        OptimalSolver::new()
            .solve(&tdg, net, &eps, &SearchContext::with_time_limit(Duration::from_secs(60)))
            .expect("workload is feasible")
            .stats
            .wall
    });
    let mut proven: Option<Duration> = None;
    for _ in 0..REPS {
        let race = Portfolio::greedy_exact()
            .race(&tdg, net, &eps, &SearchContext::with_time_limit(Duration::from_secs(60)))
            .expect("workload is feasible");
        let t = race.reports.iter().filter(|r| r.proven_optimal).map(|r| r.wall).min();
        proven = match (proven, t) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
    }

    Scenario {
        topology: name.to_owned(),
        tdg_nodes: tdg.node_count(),
        after_bare,
        after_seeded_ms,
        after_portfolio_proven_ms: proven.map(|d| d.as_secs_f64() * 1000.0),
    }
}

/// Measures the work-stealing parallel exact search at 1/2/4/8 workers on
/// the binding linear-4 scenario, via [`OptimalSolver::solve_instrumented`]
/// for the steal / frontier telemetry. Nodes/sec uses the same sustained
/// accumulation as the bare runs.
fn bench_thread_scaling() -> ThreadScaling {
    let tdg = analyze(&workload(10));
    let net = tighten(topology::linear(4, 10.0), 0.97);
    let eps = Epsilon::loose();
    let solver = OptimalSolver::bare();
    let mut points: Vec<ThreadPoint> = Vec::new();
    for workers in [1usize, 2, 4, 8] {
        let (mut nodes, mut wall) = (0u64, Duration::ZERO);
        let (mut steals, mut prunes) = (0u64, 0u64);
        let (mut roots, mut depth) = (0usize, 0usize);
        let (mut objective, mut exhausted) = (None, false);
        let mut first = true;
        while first || wall < MEASURE_FLOOR {
            let ctx = SearchContext::with_time_limit(BARE_BUDGET)
                .with_threads(NonZeroUsize::new(workers).expect("worker counts are nonzero"));
            let start = Instant::now();
            let (result, stats) = solver.solve_instrumented(&tdg, &net, &eps, &ctx);
            wall += start.elapsed();
            steals += stats.steals;
            prunes += stats.bound_prunes;
            if let Ok(o) = &result {
                nodes += o.stats.nodes_explored;
            }
            if first {
                roots = stats.subtree_roots;
                depth = stats.frontier_depth;
                if let Ok(o) = &result {
                    objective = Some(o.objective);
                    exhausted = o.stats.proven_bound.is_some();
                }
                first = false;
            }
        }
        let secs = wall.as_secs_f64().max(f64::EPSILON);
        let rate = nodes as f64 / secs;
        let base = points.first().map_or(rate, |p: &ThreadPoint| p.nodes_per_sec);
        points.push(ThreadPoint {
            workers,
            nodes_explored: nodes,
            wall_ms: secs * 1000.0,
            nodes_per_sec: rate,
            speedup_vs_1: rate / base.max(f64::EPSILON),
            steals,
            bound_prunes: prunes,
            subtree_roots: roots,
            frontier_depth: depth,
            objective,
            exhausted,
        });
    }
    ThreadScaling {
        topology: "linear-4".to_owned(),
        host_parallelism: std::thread::available_parallelism().map_or(1, NonZeroUsize::get),
        points,
    }
}

/// Splitmix64 — deterministic op streams without a rand dependency.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// From-scratch `A_max` of an assignment — the per-probe cost of a
/// `max_inter_switch_bytes` recomputation.
fn scratch_amax(tdg: &Tdg, assign: &[usize], q: usize) -> u64 {
    let mut pair = vec![0u64; q * q];
    for e in tdg.edges() {
        let (u, v) = (assign[e.from.index()], assign[e.to.index()]);
        if u != usize::MAX && v != usize::MAX && u != v {
            pair[u * q + v] += u64::from(e.bytes);
        }
    }
    pair.into_iter().max().unwrap_or(0)
}

fn bench_microops() -> MicroOps {
    let tdg = analyze(&workload(10));
    let n = tdg.node_count();
    let q = 3usize;
    const OPS: u64 = 200_000;

    // Fully place, then each op moves one random node to a random switch
    // (an unplace + place pair), mirroring the solver's branch step.
    let mut eval = IncrementalEval::new(&tdg, q);
    let mut assign = vec![0usize; n];
    for (node, slot) in assign.iter_mut().enumerate() {
        *slot = node % q;
        eval.place(node, *slot);
    }
    let mut rng = 0x5EED_u64;
    let a0 = allocs_now();
    let start = Instant::now();
    let mut sink = 0u64;
    for _ in 0..OPS {
        let node = (splitmix64(&mut rng) as usize) % n;
        let to = (splitmix64(&mut rng) as usize) % q;
        eval.unplace(node);
        eval.place(node, to);
        assign[node] = to;
        sink ^= eval.amax();
    }
    let inc_wall = start.elapsed();
    let inc_allocs = allocs_now() - a0;

    // The same op stream scored from scratch each time.
    let mut rng = 0x5EED_u64;
    let mut scratch_assign: Vec<usize> = (0..n).map(|i| i % q).collect();
    let start = Instant::now();
    for _ in 0..OPS {
        let node = (splitmix64(&mut rng) as usize) % n;
        let to = (splitmix64(&mut rng) as usize) % q;
        scratch_assign[node] = to;
        sink ^= scratch_amax(&tdg, &scratch_assign, q);
    }
    let scr_wall = start.elapsed();
    assert_eq!(assign, scratch_assign, "op streams diverged");
    std::hint::black_box(sink);

    let per_op = |d: Duration| d.as_secs_f64() * 1e9 / OPS as f64;
    MicroOps {
        ops: OPS,
        incremental_ns_per_op: per_op(inc_wall),
        incremental_allocs_per_op: inc_allocs as f64 / OPS as f64,
        scratch_ns_per_op: per_op(scr_wall),
        speedup: per_op(scr_wall) / per_op(inc_wall).max(f64::EPSILON),
    }
}

/// Deterministic equivalence probes for CI: the incremental evaluator and
/// the feasibility cache must agree exactly with from-scratch references.
fn smoke() {
    let tdg = analyze(&workload(10));
    let n = tdg.node_count();
    let q = 3usize;

    // 2000 random place/unplace steps cross-checked against scratch A_max
    // and scratch switch-DAG acyclicity.
    let scratch_acyclic = |assign: &[usize]| -> bool {
        let mut edge = vec![false; q * q];
        for e in tdg.edges() {
            let (u, v) = (assign[e.from.index()], assign[e.to.index()]);
            if u != usize::MAX && v != usize::MAX && u != v {
                edge[u * q + v] = true;
            }
        }
        let mut indegree = vec![0u32; q];
        for u in 0..q {
            for (v, d) in indegree.iter_mut().enumerate() {
                if edge[u * q + v] {
                    *d += 1;
                }
            }
        }
        let mut stack: Vec<usize> = (0..q).filter(|&v| indegree[v] == 0).collect();
        let mut seen = 0;
        while let Some(u) = stack.pop() {
            seen += 1;
            for v in 0..q {
                if edge[u * q + v] {
                    indegree[v] -= 1;
                    if indegree[v] == 0 {
                        stack.push(v);
                    }
                }
            }
        }
        seen == q
    };
    let mut eval = IncrementalEval::new(&tdg, q);
    let mut assign = vec![usize::MAX; n];
    let mut rng = 0xC0FFEE_u64;
    let steps = 2000u32;
    for _ in 0..steps {
        let node = (splitmix64(&mut rng) as usize) % n;
        if assign[node] == usize::MAX {
            let c = (splitmix64(&mut rng) as usize) % q;
            eval.place(node, c);
            assign[node] = c;
        } else {
            eval.unplace(node);
            assign[node] = usize::MAX;
        }
        assert_eq!(eval.amax(), scratch_amax(&tdg, &assign, q), "A_max diverged");
        assert_eq!(eval.is_acyclic(), scratch_acyclic(&assign), "acyclicity diverged");
    }

    // Cache vs direct stage packing over every subset of the first 10 nodes.
    let ids: Vec<NodeId> = tdg.node_ids().take(10).collect();
    let shape = {
        let net = topology::linear(3, 10.0);
        net.switch(net.programmable_switches()[0]).target_model()
    };
    let mut cache = StageFeasCache::new(&tdg);
    let mut probes = 0u32;
    for mask in 0u32..(1 << ids.len()) {
        let set: BTreeSet<NodeId> = ids
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, &id)| id)
            .collect();
        let expect = stage_feasible(&tdg, &set, &shape);
        assert_eq!(
            cache.feasible_set(&tdg, &shape, &set),
            expect,
            "cache diverged on mask {mask:#x}"
        );
        probes += 1;
    }

    // Parallel determinism probe: the work-stealing search must return
    // the exact same plan, objective, optimality proof, and proven bound
    // at every worker count, run after run. Only deterministic fields are
    // compared (never node counts or wall clock), so CI can byte-diff two
    // full `--smoke` outputs. Stock linear-3 is the probe scenario: its
    // optimum (objective 1) beats the greedy seed, so the parallel engine
    // actually searches instead of early-outing on a zero-objective seed.
    let net = topology::linear(3, 10.0);
    let eps = Epsilon::loose();
    let solve = |workers: usize| {
        let ctx = SearchContext::with_time_limit(Duration::from_secs(60))
            .with_threads(NonZeroUsize::new(workers).expect("worker counts are nonzero"));
        OptimalSolver::new().solve(&tdg, &net, &eps, &ctx).expect("workload is feasible")
    };
    let reference = solve(1);
    let mut parallel_runs = 0u32;
    for workers in [1usize, 2, 4, 8] {
        for _ in 0..2 {
            let o = solve(workers);
            assert_eq!(o.plan, reference.plan, "plan diverged at {workers} workers");
            assert_eq!(o.objective, reference.objective, "objective diverged at {workers} workers");
            assert_eq!(
                o.proven_optimal, reference.proven_optimal,
                "optimality proof diverged at {workers} workers"
            );
            assert_eq!(
                o.stats.proven_bound, reference.stats.proven_bound,
                "proven bound diverged at {workers} workers"
            );
            parallel_runs += 1;
        }
    }

    println!(
        "{{\"evaluator_steps\":{steps},\"evaluator_ok\":true,\"cache_probes\":{probes},\"cache_ok\":true,\"parallel_runs\":{parallel_runs},\"parallel_objective\":{},\"parallel_proven\":{},\"parallel_ok\":true}}",
        reference.objective, reference.proven_optimal
    );
}

fn main() {
    if std::env::args().any(|a| a == "--smoke") {
        smoke();
        return;
    }

    let scenarios: Vec<Scenario> = [
        ("linear-3", topology::linear(3, 10.0)),
        ("linear-4", tighten(topology::linear(4, 10.0), 0.97)),
        ("star-3", tighten(topology::star(3, 10.0), 0.97)),
    ]
    .iter()
    .map(|(name, net)| bench_scenario(name, net))
    .collect();
    let report = Report {
        workload_programs: 10,
        bare_budget_secs: BARE_BUDGET.as_secs(),
        reps: REPS,
        scenarios,
        evaluator_microops: bench_microops(),
        thread_scaling: bench_thread_scaling(),
    };
    if maybe_json(&report) {
        return;
    }

    println!("Hot-path bench — ten-program library, bare budget {BARE_BUDGET:?}\n");
    let mut t = Table::new(["topology", "nodes/s", "allocs/node"]);
    for s in &report.scenarios {
        t.row([
            s.topology.clone(),
            format!("{:.0}", s.after_bare.nodes_per_sec),
            format!("{:.3}", s.after_bare.allocs_per_node),
        ]);
    }
    println!("(a) bare exact search throughput\n{}", t.render());

    let mut p = Table::new(["topology", "seeded ms", "portfolio ms"]);
    for s in &report.scenarios {
        p.row([
            s.topology.clone(),
            format!("{:.2}", s.after_seeded_ms),
            s.after_portfolio_proven_ms.map_or("-".into(), |ms| format!("{ms:.2}")),
        ]);
    }
    println!("(b) time-to-proven-optimal\n{}", p.render());

    let m = &report.evaluator_microops;
    println!(
        "(c) evaluator micro-ops: {:.0} ns/op incremental ({:.3} allocs/op) vs {:.0} ns/op scratch — {:.1}x",
        m.incremental_ns_per_op, m.incremental_allocs_per_op, m.scratch_ns_per_op, m.speedup
    );

    let ts = &report.thread_scaling;
    let mut w = Table::new(["workers", "nodes/s", "speedup", "steals", "roots", "depth"]);
    for p in &ts.points {
        w.row([
            p.workers.to_string(),
            format!("{:.0}", p.nodes_per_sec),
            format!("{:.2}x", p.speedup_vs_1),
            p.steals.to_string(),
            p.subtree_roots.to_string(),
            p.frontier_depth.to_string(),
        ]);
    }
    println!(
        "\n(d) work-stealing thread scaling — {} (host parallelism {})\n{}",
        ts.topology,
        ts.host_parallelism,
        w.render()
    );
}
