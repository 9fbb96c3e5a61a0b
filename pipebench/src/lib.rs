//! Closed-loop benchmark of the Hermes deployment pipeline.
//!
//! One client (an operator) submits a request, waits until the network
//! has committed it, and submits the next. A run sets its workload up,
//! makes a reference pass (the requests that define the deterministic
//! metrics and the digest), then measures requests for the requested
//! time, with timed set-ups spread among them. See `pipebench/README.md`
//! for the workloads and the metric definitions.

pub mod trace;
pub mod workload;

use hermes_core::fnv1a64;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};
pub use trace::LAYERS;
use trace::{self_times, Tracer};
use workload::{Outcome, Request, Workload, WorkloadKind};

/// Fewest measured requests a run makes, whatever its time budget, so
/// that `op_tail_ms` always has ten samples beyond it.
pub const MIN_MEASURED: usize = 12;

/// Timed set-ups per pass over the pool (one before every request when
/// the pool is smaller), spread evenly among its requests.
pub const SETUPS_PER_PASS: usize = 5;

/// When a run stops measuring.
#[derive(Debug, Clone, Copy)]
pub enum Limit {
    /// Measure until this much time has passed, at least
    /// [`MIN_MEASURED`] requests were made, and the last pass over the
    /// workload's pool is whole.
    Time(Duration),
    /// Measure exactly this many requests (the self-test's smoke runs).
    Requests(usize),
}

/// What one run measured.
#[derive(Debug)]
pub struct RunReport {
    /// The workload.
    pub workload: WorkloadKind,
    /// Its seed.
    pub seed: u64,
    /// Whether tracing was on for half of the measured requests.
    pub traced: bool,
    /// Wall time of each set-up.
    pub setups: Vec<Duration>,
    /// Program generation and topology construction of each set-up.
    pub setup_splits: Vec<(Duration, Duration)>,
    /// Worker threads the solver was given.
    pub solver_threads: usize,
    /// The reference pass, in order.
    pub reference: Vec<Request>,
    /// Measured requests, in order, with whether each was traced.
    pub measured: Vec<(Request, bool)>,
    /// Spans of the traced requests, indexed by request number.
    pub spans: Vec<trace::Span>,
    /// Request number of the first measured request.
    pub first_measured: usize,
    /// Peak resident set of the process, MiB.
    pub peak_rss_mb: f64,
}

/// Runs `workload` with `seed`; with `traced`, every other pass of the
/// measured phase is traced.
pub fn run(
    workload: WorkloadKind,
    seed: u64,
    limit: Limit,
    traced: bool,
) -> Result<RunReport, String> {
    let mut w = Workload::setup(workload, seed)?;

    // Reference pass: untimed for latency, and it warms the process up
    // (the first request of a process is markedly slower).
    let mut tracer = Tracer::new(false);
    let reference: Vec<Request> =
        (0..w.pass_len()).map(|k| w.run_request(k, &mut tracer)).collect();

    let first_measured = reference.len();
    let pass = w.pass_len();
    let setup_stride = pass.div_ceil(SETUPS_PER_PASS);
    let (mut setups, mut setup_splits) = (Vec::new(), Vec::new());
    let mut measured = Vec::new();
    let start = Instant::now();
    let mut k = first_measured;
    loop {
        let done = measured.len();
        let more = match limit {
            Limit::Time(budget) => {
                done < MIN_MEASURED || start.elapsed() < budget || done % pass != 0
            }
            Limit::Requests(n) => done < n,
        };
        if !more {
            break;
        }
        if done % pass % setup_stride == 0 {
            // Set-ups are spread among the requests, so that they sample
            // the host across the whole run as the requests do: the
            // host's speed drifts by up to 40% over tens of seconds, and
            // set-ups timed back to back spread by 30-40% between runs.
            let start = Instant::now();
            let again = Workload::setup(workload, seed)?;
            setups.push(start.elapsed());
            setup_splits.push(again.setup_split);
        }
        let traced_now = traced && ((k - first_measured) / pass) % 2 == 1;
        tracer.set_on(traced_now);
        let r = w.run_request(k, &mut tracer);
        measured.push((r, traced_now));
        k += 1;
    }
    Ok(RunReport {
        workload,
        seed,
        traced,
        setups,
        setup_splits,
        solver_threads: w.solver_threads(),
        reference,
        measured,
        spans: tracer.spans().to_vec(),
        first_measured,
        peak_rss_mb: peak_rss_mb()?,
    })
}

/// Peak resident set (`VmHWM`) of this process, MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// Median of `values` (which must be non-empty).
fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest percentile of `values` with at least ten samples beyond
/// it: the 11th-largest value, with its percentile rank. `None` with
/// fewer than eleven samples.
fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 11 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = n - 10;
    Some((v[rank - 1], 100.0 * rank as f64 / n as f64))
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// A metric value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// The value as measured.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// Per-layer metrics of the traced run, in `BENCHMARK.json` order, with
/// their units. Times are medians over the traced requests that made the
/// call, except the `*.self_ms` means; counts and ratios are means.
pub const PER_LAYER: [(&str, &str); 42] = [
    ("tdg.analyze_ms", "ms"),
    ("tdg.build_ms", "ms"),
    ("tdg.merge_ms", "ms"),
    ("tdg.input_mats", "count"),
    ("tdg.merged_nodes", "count"),
    ("tdg.merged_edges", "count"),
    ("tdg.dedup_ratio", "ratio"),
    ("backend.validate_ms", "ms"),
    ("backend.validate_packets", "count"),
    ("backend.generate_ms", "ms"),
    ("backend.mixed_epoch_ms", "ms"),
    ("backend.config_entries", "count"),
    ("runtime.rollout_ms", "ms"),
    ("runtime.migrate_ms", "ms"),
    ("runtime.events", "count"),
    ("runtime.messages", "count"),
    ("runtime.retries", "count"),
    ("runtime.drain_refusals", "count"),
    ("core.solve_ms", "ms"),
    ("core.solve_nodes", "count"),
    ("core.solve_nodes_per_s", "1/s"),
    ("core.solve_proven_frac", "ratio"),
    ("core.exact_steals", "count"),
    ("core.exact_bound_prunes", "count"),
    ("core.exact_subtree_roots", "count"),
    ("core.incremental_ms", "ms"),
    ("core.incremental_reused_ratio", "ratio"),
    ("core.incremental_full_frac", "ratio"),
    ("core.migrate_plan_ms", "ms"),
    ("core.migrate_steps", "count"),
    ("core.precheck_ms", "ms"),
    ("core.precheck_floor_bytes", "bytes"),
    ("core.verify_ms", "ms"),
    ("core.verify_violations", "count"),
    ("dataplane.gen_ms", "ms"),
    ("net.topology_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
    ("tdg.self_ms", "ms"),
    ("core.self_ms", "ms"),
    ("backend.self_ms", "ms"),
    ("runtime.self_ms", "ms"),
    ("harness.self_ms", "ms"),
];

/// Span name → per-layer time metric. `tdg.merge_ms` has no span of its
/// own: it is an `analyze` span minus the re-run of its TDG build.
const SPAN_METRICS: [(&str, &str); 12] = [
    ("analyze", "tdg.analyze_ms"),
    ("build", "tdg.build_ms"),
    ("precheck", "core.precheck_ms"),
    ("solve", "core.solve_ms"),
    ("verify", "core.verify_ms"),
    ("incremental", "core.incremental_ms"),
    ("rollout", "runtime.rollout_ms"),
    ("migrate", "runtime.migrate_ms"),
    ("validate", "backend.validate_ms"),
    ("generate", "backend.generate_ms"),
    ("mixed_epoch", "backend.mixed_epoch_ms"),
    ("migrate_plan", "core.migrate_plan_ms"),
];

impl RunReport {
    fn all_requests(&self) -> impl Iterator<Item = &Request> {
        self.reference.iter().chain(self.measured.iter().map(|(r, _)| r))
    }

    /// Requests attempted, reference pass included.
    pub fn attempted(&self) -> usize {
        self.reference.len() + self.measured.len()
    }

    /// Requests per outcome.
    pub fn outcomes(&self) -> BTreeMap<Outcome, usize> {
        let mut counts = BTreeMap::new();
        for r in self.all_requests() {
            *counts.entry(r.outcome).or_insert(0) += 1;
        }
        counts
    }

    /// Attempts that requests gave up on before their last one, per
    /// outcome (drains whose first target was refused).
    pub fn abandoned_outcomes(&self) -> BTreeMap<Outcome, usize> {
        let mut counts = BTreeMap::new();
        for o in self.all_requests().flat_map(|r| &r.abandoned) {
            *counts.entry(*o).or_insert(0) += 1;
        }
        counts
    }

    /// Requests that did not end [`Outcome::Ok`].
    pub fn failed(&self) -> usize {
        self.all_requests().filter(|r| r.outcome != Outcome::Ok).count()
    }

    /// `true` unless some output failed a correctness check.
    pub fn correct(&self) -> bool {
        self.all_requests().all(|r| r.outcome != Outcome::CheckFailed)
    }

    /// The first failed request with its number and reason.
    pub fn first_failure(&self) -> Option<(usize, &Request)> {
        self.all_requests().enumerate().find(|(_, r)| r.outcome != Outcome::Ok)
    }

    /// Wall times of the measured requests that committed, ms (untraced
    /// ones only when the run traced half of them).
    fn latencies(&self, traced: bool) -> Vec<f64> {
        self.measured
            .iter()
            .filter(|(r, t)| *t == traced && r.outcome == Outcome::Ok)
            .map(|(r, _)| ms(r.wall))
            .collect()
    }

    /// Means of the deterministic outputs over the committed requests of
    /// the reference pass: `a_max_bytes`, `occupied_switches`,
    /// `reconfig_us`, `control_msgs`, `transient_a_max_bytes`.
    fn deterministic(&self) -> [f64; 5] {
        let committed: Vec<_> = self.reference.iter().filter_map(|r| r.committed).collect();
        let n = committed.len().max(1) as f64;
        let mean = |f: fn(&workload::Committed) -> f64| committed.iter().map(f).sum::<f64>() / n;
        [
            mean(|c| c.a_max as f64),
            mean(|c| c.occupied as f64),
            mean(|c| c.reconfig_us as f64),
            mean(|c| c.messages as f64),
            mean(|c| c.transient_a_max as f64),
        ]
    }

    /// FNV-1a digest of the deterministic metrics and of every reference
    /// request's outcome and plan fingerprint. Equal across runs of one
    /// seed, whatever the host's speed.
    pub fn digest(&self) -> u64 {
        let mut text = format!("{}|{}|{:?}", self.workload.name(), self.seed, self.deterministic());
        for r in &self.reference {
            let fp = r.committed.map_or(0, |c| c.fingerprint);
            text.push_str(&format!("|{}:{}:{fp:016x}", r.kind, r.outcome.name()));
        }
        fnv1a64(text.as_bytes())
    }

    /// The end-to-end metrics (untraced requests only).
    pub fn end_to_end(&self) -> Result<Vec<(&'static str, Metric)>, String> {
        let setup: Vec<f64> = self.setups.iter().map(Duration::as_secs_f64).collect();
        let lat = self.latencies(false);
        if lat.is_empty() {
            return Err("no measured request committed".to_owned());
        }
        let (tail_ms, _) = self.tail_of(&lat)?;
        let [a_max, occupied, reconfig, msgs, transient] = self.deterministic();
        let m = |value, unit| Metric { value, unit };
        Ok(vec![
            ("setup_s", m(median(&setup), "s")),
            ("op_p50_ms", m(median(&lat), "ms")),
            ("op_tail_ms", m(tail_ms, "ms")),
            ("peak_rss_mb", m(self.peak_rss_mb, "MiB")),
            ("a_max_bytes", m(a_max, "bytes")),
            ("occupied_switches", m(occupied, "count")),
            ("reconfig_us", m(reconfig, "virtual_us")),
            ("control_msgs", m(msgs, "count")),
            ("transient_a_max_bytes", m(transient, "bytes")),
        ])
    }

    fn tail_of(&self, lat: &[f64]) -> Result<(f64, f64), String> {
        tail(lat).ok_or_else(|| format!("{} committed samples: too few for a tail", lat.len()))
    }

    /// Percentile behind `op_tail_ms` and the samples it was taken over.
    pub fn tail_percentile(&self) -> Option<(f64, usize)> {
        let lat = self.latencies(false);
        tail(&lat).map(|(_, p)| (p, lat.len()))
    }

    /// Traced requests: (request number, request).
    fn traced_requests(&self) -> impl Iterator<Item = (usize, &Request)> {
        self.measured
            .iter()
            .enumerate()
            .filter(|(_, (r, t))| *t && r.outcome == Outcome::Ok)
            .map(|(i, (r, _))| (self.first_measured + i, r))
    }

    /// Mean self time per layer over the traced requests, ms, in
    /// [`LAYERS`] order; the entries sum to the mean traced latency.
    pub fn layer_self_ms(&self) -> [f64; 5] {
        let mut per_layer: [Vec<f64>; 5] = Default::default();
        for (k, r) in self.traced_requests() {
            for (i, d) in self_times(&self.spans, k, r.wall).into_iter().enumerate() {
                per_layer[i].push(ms(d));
            }
        }
        per_layer.map(|v| v.iter().sum::<f64>() / v.len().max(1) as f64)
    }

    /// The layer with the largest mean self time.
    pub fn dominant_layer(&self) -> &'static str {
        let selfs = self.layer_self_ms();
        let (i, _) =
            selfs.iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1)).expect("five layers");
        LAYERS[i]
    }

    /// Share of the traced requests' wall time that the four pipeline
    /// layers' self times cover; the rest is the harness's own glue.
    pub fn layer_coverage(&self) -> f64 {
        let (mut covered, mut wall) = (0.0, 0.0);
        for (k, r) in self.traced_requests() {
            let selfs = self_times(&self.spans, k, r.wall);
            covered += selfs[..4].iter().map(|d| ms(*d)).sum::<f64>();
            wall += ms(r.wall);
        }
        if wall > 0.0 {
            covered / wall
        } else {
            0.0
        }
    }

    /// The per-layer metrics of a traced run, in [`PER_LAYER`] order.
    pub fn per_layer(&self) -> Result<Vec<(&'static str, Metric)>, String> {
        let mut samples: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        for (k, r) in self.traced_requests() {
            for s in self.spans.iter().filter(|s| s.request == k) {
                let name = SPAN_METRICS
                    .iter()
                    .find(|(span, _)| *span == s.name)
                    .map(|(_, m)| *m)
                    .ok_or_else(|| format!("span `{}` has no metric", s.name))?;
                samples.entry(name).or_default().push(ms(s.dur));
            }
            for (&name, &v) in &r.counters {
                samples.entry(name).or_default().push(v);
            }
            let span = |name: &str| self.spans.iter().find(|s| s.request == k && s.name == name);
            if let (Some(analyze), Some(build)) = (span("analyze"), span("build")) {
                let merge = analyze.dur.saturating_sub(build.dur);
                samples.entry("tdg.merge_ms").or_default().push(ms(merge));
            }
            if let (Some(s), Some(&nodes)) = (span("solve"), r.counters.get("core.solve_nodes")) {
                samples
                    .entry("core.solve_nodes_per_s")
                    .or_default()
                    .push(nodes / s.dur.as_secs_f64().max(1e-9));
            }
        }
        let gen: Vec<f64> = self.setup_splits.iter().map(|s| ms(s.0)).collect();
        let topo: Vec<f64> = self.setup_splits.iter().map(|s| ms(s.1)).collect();
        samples.insert("dataplane.gen_ms", gen);
        samples.insert("net.topology_ms", topo);
        let (traced, untraced) = (self.latencies(true), self.latencies(false));
        if traced.is_empty() || untraced.is_empty() {
            return Err("a traced run needs traced and untraced requests".to_owned());
        }
        let overhead = median(&traced) / median(&untraced) - 1.0;
        samples.insert("trace.overhead_frac", vec![overhead]);
        for (layer, v) in LAYERS.iter().zip(self.layer_self_ms()) {
            samples.insert(self_metric(layer), vec![v]);
        }

        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let value = match samples.get(name) {
                    None => 0.0,
                    Some(v) if unit == "ms" || unit == "1/s" => median(v),
                    Some(v) => v.iter().sum::<f64>() / v.len() as f64,
                };
                Ok((name, Metric { value, unit }))
            })
            .collect()
    }

    /// Samples behind each reported metric.
    pub fn sample_counts(&self) -> BTreeMap<&'static str, usize> {
        let committed_ref = self.reference.iter().filter(|r| r.committed.is_some()).count();
        let mut counts = BTreeMap::new();
        counts.insert("setup_s", self.setups.len());
        counts.insert("op_latency", self.latencies(false).len());
        counts.insert("deterministic", committed_ref);
        counts.insert("peak_rss_mb", 1);
        if self.traced {
            counts.insert("traced_requests", self.traced_requests().count());
        }
        counts
    }
}

fn self_metric(layer: &str) -> &'static str {
    match layer {
        "tdg" => "tdg.self_ms",
        "core" => "core.self_ms",
        "backend" => "backend.self_ms",
        "runtime" => "runtime.self_ms",
        _ => "harness.self_ms",
    }
}
