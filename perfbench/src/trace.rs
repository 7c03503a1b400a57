//! In-memory span recorder and the interval arithmetic the per-layer
//! metrics are computed with.
//!
//! A span is `(id, parent, layer, name, start, end)` in nanoseconds since
//! the recorder's origin. Spans are pushed into one `Vec` behind a mutex
//! and analysed only after the measured window ends. Parents come from a
//! thread-local "current span": a span opened while another is open on
//! the same thread is its child, and [`Tracer::adopt`] lets a worker
//! thread inherit the span that fanned it out (so two workers' job spans
//! are both children of one `exec.map` span).
//!
//! A disabled recorder records nothing and its guards are inert, so the
//! same wrapped code path serves the untraced and the traced run.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// The crate a span's time is attributed to. (`mdp` and `acasx` are
/// timed outside spans: the set-up solve, and the replay's avoider.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// `uavca-sim`: simulation jobs.
    Sim,
    /// `uavca-exec`: fan-out over worker threads.
    Exec,
    /// `uavca-validation`: campaign planning, absorption, job sources.
    Core,
    /// `uavca-serve`: wire, coordinator, shards, control plane.
    Serve,
    /// `uavca-evo`: the genetic algorithm around its fitness closure.
    Evo,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 5] = [
        Layer::Sim,
        Layer::Exec,
        Layer::Core,
        Layer::Serve,
        Layer::Evo,
    ];
}

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Unique id (≥ 1).
    pub id: u64,
    /// The span that caused this one, if any.
    pub parent: Option<u64>,
    /// Attributed layer.
    pub layer: Layer,
    /// What the span covers (e.g. `"map"`, `"plan_round"`).
    pub name: &'static str,
    /// Start, ns since the recorder origin.
    pub start: u64,
    /// End, ns since the recorder origin.
    pub end: u64,
}

impl Span {
    /// Duration in ns.
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

thread_local! {
    static CURRENT: Cell<Option<u64>> = const { Cell::new(None) };
}

/// The span recorder. Cheap to share by reference across threads.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A recorder; `enabled = false` makes every call a no-op.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// A process-wide recorder that records nothing.
    pub fn off() -> &'static Tracer {
        static OFF: OnceLock<Tracer> = OnceLock::new();
        OFF.get_or_init(|| Tracer::new(false))
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Nanoseconds since the recorder's origin.
    pub fn now(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span that closes when the guard drops. Its parent is the
    /// span currently open on this thread.
    pub fn span(&self, layer: Layer, name: &'static str) -> SpanGuard<'_> {
        if !self.enabled {
            return SpanGuard {
                tracer: self,
                id: 0,
                parent: None,
                layer,
                name,
                start: 0,
            };
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = CURRENT.with(|c| c.replace(Some(id)));
        SpanGuard {
            tracer: self,
            id,
            parent,
            layer,
            name,
            start: self.now(),
        }
    }

    /// The span currently open on this thread (to hand to workers).
    pub fn current(&self) -> Option<u64> {
        if self.enabled {
            CURRENT.with(Cell::get)
        } else {
            None
        }
    }

    /// Makes `parent` this thread's current span until the guard drops:
    /// how a worker thread's spans become children of the span that
    /// fanned the work out.
    pub fn adopt(&self, parent: Option<u64>) -> AdoptGuard {
        if !self.enabled {
            return AdoptGuard {
                prev: None,
                active: false,
            };
        }
        let prev = CURRENT.with(|c| c.replace(parent));
        AdoptGuard { prev, active: true }
    }

    /// Records a span whose bounds were measured elsewhere (e.g. a shard
    /// busy interval between two transport calls).
    pub fn record(
        &self,
        layer: Layer,
        name: &'static str,
        parent: Option<u64>,
        start: u64,
        end: u64,
    ) {
        if !self.enabled {
            return;
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.push(Span {
            id,
            parent,
            layer,
            name,
            start,
            end: end.max(start),
        });
    }

    fn push(&self, span: Span) {
        self.spans
            .lock()
            .expect("span buffer lock poisoned by a panicking recorder")
            .push(span);
    }

    /// Every span recorded so far, in completion order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span buffer lock poisoned by a panicking recorder")
            .clone()
    }
}

/// An open span; records itself on drop.
#[derive(Debug)]
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    id: u64,
    parent: Option<u64>,
    layer: Layer,
    name: &'static str,
    start: u64,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if self.id == 0 {
            return;
        }
        let end = self.tracer.now();
        CURRENT.with(|c| c.set(self.parent));
        self.tracer.push(Span {
            id: self.id,
            parent: self.parent,
            layer: self.layer,
            name: self.name,
            start: self.start,
            end,
        });
    }
}

/// Restores the thread's previous current span on drop.
#[derive(Debug)]
pub struct AdoptGuard {
    prev: Option<u64>,
    active: bool,
}

impl Drop for AdoptGuard {
    fn drop(&mut self) {
        if self.active {
            CURRENT.with(|c| c.set(self.prev));
        }
    }
}

/// Total length of the union of half-open intervals `[start, end)`.
/// Overlaps count once.
pub fn union_len(intervals: &[(u64, u64)]) -> u64 {
    let mut v: Vec<(u64, u64)> = intervals.iter().copied().filter(|(s, e)| e > s).collect();
    v.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in v {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Length of `[start, end)` covered by the union of `intervals`.
pub fn covered_len(start: u64, end: u64, intervals: &[(u64, u64)]) -> u64 {
    let clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .collect();
    union_len(&clipped)
}

/// Self time of every span: its duration minus the part of it that the
/// union of its children covers. Children running on two workers at once
/// overlap and are subtracted once.
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start, s.end));
        }
    }
    spans
        .iter()
        .map(|s| {
            let covered = children
                .get(&s.id)
                .map_or(0, |c| covered_len(s.start, s.end, c));
            (s.id, s.duration() - covered)
        })
        .collect()
}

/// Self time summed per layer, in ns.
pub fn layer_self_ns(spans: &[Span]) -> BTreeMap<Layer, u64> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<Layer, u64> = Layer::ALL.iter().map(|&l| (l, 0)).collect();
    for s in spans {
        *out.entry(s.layer).or_default() += selfs[&s.id];
    }
    out
}

/// Share of the window `[start, end)` that no span covers: wall time
/// not inside any layer's self time (every covered instant is the self
/// time of the innermost span covering it).
pub fn unattributed_frac(spans: &[Span], start: u64, end: u64) -> f64 {
    if end <= start {
        return 0.0;
    }
    let all: Vec<(u64, u64)> = spans.iter().map(|s| (s.start, s.end)).collect();
    1.0 - covered_len(start, end, &all) as f64 / (end - start) as f64
}

/// The `p`-quantile (0 ≤ p ≤ 1) of `values` by the nearest-rank rule on
/// the sorted sample; `NaN` for an empty sample.
pub fn quantile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// The highest of the standard tail percentiles (99, 90, 75, 50) that
/// still has at least `min_tail` samples beyond it in a sample of `n`;
/// `None` when even the median has fewer.
pub fn tail_percentile(n: usize, min_tail: usize) -> Option<u32> {
    [99u32, 90, 75, 50]
        .into_iter()
        .find(|&p| n as f64 * f64::from(100 - p) / 100.0 >= min_tail as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, layer: Layer, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            layer,
            name: "t",
            start,
            end,
        }
    }

    #[test]
    fn union_counts_overlap_once() {
        assert_eq!(union_len(&[]), 0);
        assert_eq!(union_len(&[(0, 10), (5, 15)]), 15);
        assert_eq!(union_len(&[(0, 10), (10, 20)]), 20);
        assert_eq!(union_len(&[(20, 30), (0, 5), (2, 4)]), 15);
        assert_eq!(union_len(&[(3, 3), (5, 4)]), 0);
        assert_eq!(covered_len(10, 20, &[(0, 12), (18, 40)]), 4);
    }

    #[test]
    fn self_time_subtracts_overlapping_children_once() {
        // A 100 ns map span fans out to two workers whose job spans
        // overlap on [20, 60): the union they cover is [10, 90) = 80 ns.
        let spans = [
            span(1, None, Layer::Exec, 0, 100),
            span(2, Some(1), Layer::Sim, 10, 60),
            span(3, Some(1), Layer::Sim, 20, 90),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 20);
        assert_eq!(selfs[&2], 50);
        assert_eq!(selfs[&3], 70);
        let layers = layer_self_ns(&spans);
        assert_eq!(layers[&Layer::Exec], 20);
        assert_eq!(layers[&Layer::Sim], 120);
        assert_eq!(layers[&Layer::Core], 0);
    }

    #[test]
    fn child_outside_parent_is_clipped() {
        let spans = [
            span(1, None, Layer::Core, 100, 200),
            span(2, Some(1), Layer::Serve, 50, 150),
        ];
        assert_eq!(self_times(&spans)[&1], 50);
    }

    #[test]
    fn unattributed_is_window_minus_span_union() {
        let spans = [
            span(1, None, Layer::Core, 0, 40),
            span(2, Some(1), Layer::Sim, 10, 30),
            span(3, None, Layer::Core, 60, 80),
        ];
        // Covered: [0, 40) and [60, 80) of a [0, 100) window.
        assert!((unattributed_frac(&spans, 0, 100) - 0.4).abs() < 1e-12);
        assert_eq!(unattributed_frac(&[], 0, 100), 1.0);
        assert_eq!(unattributed_frac(&spans, 5, 5), 0.0);
    }

    #[test]
    fn tail_percentile_needs_ten_beyond() {
        assert_eq!(tail_percentile(1000, 10), Some(99));
        assert_eq!(tail_percentile(999, 10), Some(90));
        assert_eq!(tail_percentile(100, 10), Some(90));
        assert_eq!(tail_percentile(99, 10), Some(75));
        assert_eq!(tail_percentile(40, 10), Some(75));
        assert_eq!(tail_percentile(39, 10), Some(50));
        assert_eq!(tail_percentile(20, 10), Some(50));
        assert_eq!(tail_percentile(19, 10), None);
    }

    #[test]
    fn quantiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 5.0);
        assert_eq!(quantile(&v, 0.9), 9.0);
        assert_eq!(quantile(&v, 1.0), 10.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert!(quantile(&[], 0.5).is_nan());
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        {
            let _g = t.span(Layer::Core, "x");
            assert_eq!(t.current(), None);
            t.record(Layer::Serve, "y", None, 0, 10);
        }
        assert!(t.spans().is_empty());
        assert_eq!(t.current(), None);
    }

    #[test]
    fn nested_and_adopted_spans_get_parents() {
        let t = Tracer::new(true);
        let outer_id;
        {
            let _outer = t.span(Layer::Exec, "map");
            outer_id = t.current();
            {
                let _inner = t.span(Layer::Sim, "job");
            }
            let parent = t.current();
            std::thread::scope(|s| {
                s.spawn(|| {
                    let _adopt = t.adopt(parent);
                    let _job = t.span(Layer::Sim, "job");
                });
            });
        }
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        let jobs: Vec<&Span> = spans.iter().filter(|s| s.name == "job").collect();
        assert!(jobs.iter().all(|s| s.parent == outer_id));
        assert_eq!(t.current(), None, "the outer span restored the empty stack");
    }
}
