//! Spans recorded around the benchmark's calls into each layer.
//!
//! The benchmark, not the program, owns every span: a span brackets one
//! call from the benchmark's own code into a layer's public function.
//! Top-level spans cover the calls a request makes; *nested* spans come
//! from a separate attribution pass that re-runs the functions a
//! top-level call makes internally (`validate_plan` and `generate` inside
//! `rollout`; the schedule search, `validate_plan`, `generate` and the
//! mixed-epoch gate inside `migrate`), so that a layer's self time can
//! be split out without instrumenting the program.

use std::time::{Duration, Instant};

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Request the span belongs to.
    pub request: usize,
    /// Layer (crate) the call enters: `tdg`, `core`, `backend`, `runtime`.
    pub layer: &'static str,
    /// The call, e.g. `merge` for `merge_all`.
    pub name: &'static str,
    /// Wall time of the call.
    pub dur: Duration,
    /// Index of the top-level span this nested span re-times, if any.
    pub parent: Option<usize>,
}

/// In-memory span recorder. When off, [`Tracer::time`] only calls the
/// closure.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    request: usize,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder that records only when `on`.
    pub fn new(on: bool) -> Self {
        Tracer { on, request: 0, spans: Vec::new() }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Switches recording on or off for the following calls.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Marks the start of request `request`.
    pub fn begin_request(&mut self, request: usize) {
        self.request = request;
    }

    /// Times `f` as a top-level call of the current request.
    pub fn time<T>(&mut self, layer: &'static str, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.record(layer, name, None, f)
    }

    /// Times `f` as a re-run of part of the top-level span `parent`.
    pub fn nested<T>(
        &mut self,
        parent: usize,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        self.record(layer, name, Some(parent), f)
    }

    fn record<T>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        let out = f();
        let dur = start.elapsed();
        self.spans.push(Span { request: self.request, layer, name, dur, parent });
        out
    }

    /// Index of the most recent top-level span named `name` in the
    /// current request.
    pub fn last_top(&self, name: &str) -> Option<usize> {
        self.spans
            .iter()
            .rposition(|s| s.request == self.request && s.parent.is_none() && s.name == name)
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Layers a request's wall time is attributed to, in report order.
pub const LAYERS: [&str; 5] = ["tdg", "core", "backend", "runtime", "harness"];

/// Self time per layer of one traced request, in [`LAYERS`] order.
///
/// A top-level span's self time is its duration minus the nested spans
/// re-timing the work it did in other layers; nested spans count towards
/// their own layer. `harness` is whatever the request's wall time leaves
/// after the top-level spans (the benchmark's own glue: runtime
/// construction, plan clones). The entries therefore sum to `wall`,
/// except where a nested re-run took longer than its parent, in which
/// case the parent's self time is clamped to zero.
pub fn self_times(spans: &[Span], request: usize, wall: Duration) -> [Duration; 5] {
    let layer_index = |layer: &str| LAYERS.iter().position(|&l| l == layer).expect("known layer");
    let mut out = [Duration::ZERO; 5];
    let mut top_total = Duration::ZERO;
    for (i, s) in spans.iter().enumerate().filter(|(_, s)| s.request == request) {
        if s.parent.is_some() {
            continue;
        }
        top_total += s.dur;
        let children: Vec<&Span> =
            spans.iter().filter(|c| c.parent == Some(i) && !is_inner(spans, c)).collect();
        let child_total: Duration = children.iter().map(|c| c.dur).sum();
        out[layer_index(s.layer)] += s.dur.saturating_sub(child_total);
        for c in children {
            out[layer_index(c.layer)] += c.dur;
        }
    }
    out[layer_index("harness")] = wall.saturating_sub(top_total);
    out
}

/// `generate` runs inside `validate_plan`, which is itself nested: it is
/// reported on its own but not subtracted twice.
fn is_inner(spans: &[Span], span: &Span) -> bool {
    span.name == "generate" && spans.iter().any(|s| s.parent == span.parent && s.name == "validate")
}
