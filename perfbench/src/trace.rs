//! Benchmark-owned tracing: spans recorded around the benchmark's own
//! calls into each layer's public functions (the program itself is not
//! instrumented).
//!
//! A span has a name, a start and end, the span that caused it (its
//! parent) and the request it belongs to. Spans stay in memory until the
//! run ends. A span's *self time* is its duration minus the part of that
//! interval its child spans cover. The stage-sum check compares, per
//! request, the self times of all spans of that request with the wall
//! time the workload's own timer measured for it: the spans must account
//! for the blocking path, with nothing large left outside them and no
//! overlapping children counted twice.

use costream::graph::JointGraph;
use costream::search::{PlacementScores, Scorer};
use costream_dsps::CostMetric;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Request id of spans outside any timed request (set-up, DES checks):
/// they count toward layer totals but not toward the stage-sum check.
pub const UNTIMED: u64 = u64::MAX;

/// One recorded span.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub req: u64,
    pub name: &'static str,
    pub start: Instant,
    pub end: Instant,
}

impl Span {
    fn secs(&self) -> f64 {
        self.end.duration_since(self.start).as_secs_f64()
    }
}

/// Span store. When disabled, [`Tracer::span`] only runs its closure.
pub struct Tracer {
    enabled: bool,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
    walls: Mutex<Vec<(u64, f64)>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            walls: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` inside a span named `name`; `f` receives the span's id
    /// (`None` when tracing is off) so it can parent nested spans.
    pub fn span<T>(&self, name: &'static str, parent: Option<u64>, req: u64, f: impl FnOnce(Option<u64>) -> T) -> T {
        if !self.enabled {
            return f(None);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start = Instant::now();
        let out = f(Some(id));
        self.push(id, parent, req, name, start, Instant::now());
        out
    }

    /// Records a span measured by the caller (for stages delimited by
    /// timestamps taken on different threads).
    pub fn record(&self, name: &'static str, parent: Option<u64>, req: u64, start: Instant, end: Instant) {
        if self.enabled {
            let id = self.next_id.fetch_add(1, Ordering::Relaxed);
            self.push(id, parent, req, name, start, end);
        }
    }

    fn push(&self, id: u64, parent: Option<u64>, req: u64, name: &'static str, start: Instant, end: Instant) {
        let span = Span {
            id,
            parent,
            req,
            name,
            start,
            end,
        };
        self.spans.lock().unwrap_or_else(|e| e.into_inner()).push(span);
    }

    /// Registers the wall time the workload's own timer measured for
    /// request `req`; the stage-sum check covers exactly these requests.
    pub fn wall(&self, req: u64, secs: f64) {
        if self.enabled {
            self.walls.lock().unwrap_or_else(|e| e.into_inner()).push((req, secs));
        }
    }

    fn spans(&self) -> Vec<Span> {
        self.spans.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// Total duration of all spans named `name`, seconds.
    pub fn total(&self, name: &str) -> f64 {
        self.spans().iter().filter(|s| s.name == name).map(Span::secs).sum()
    }

    /// Number of spans named `name`.
    pub fn count(&self, name: &str) -> usize {
        self.spans().iter().filter(|s| s.name == name).count()
    }

    /// Self time per span id: duration minus the union of its children's
    /// intervals, clipped to the span.
    fn self_times(spans: &[Span]) -> HashMap<u64, f64> {
        let mut children: HashMap<u64, Vec<(Instant, Instant)>> = HashMap::new();
        for s in spans {
            if let Some(p) = s.parent {
                children.entry(p).or_default().push((s.start, s.end));
            }
        }
        spans
            .iter()
            .map(|s| {
                let mut iv: Vec<(Instant, Instant)> = children
                    .get(&s.id)
                    .map(|c| {
                        c.iter()
                            .map(|&(a, b)| (a.max(s.start), b.min(s.end)))
                            .filter(|(a, b)| a < b)
                            .collect()
                    })
                    .unwrap_or_default();
                iv.sort();
                let mut covered = 0.0;
                let mut cur: Option<(Instant, Instant)> = None;
                for (a, b) in iv {
                    match cur {
                        Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                        Some((ca, cb)) => {
                            covered += cb.duration_since(ca).as_secs_f64();
                            cur = Some((a, b));
                        }
                        None => cur = Some((a, b)),
                    }
                }
                if let Some((ca, cb)) = cur {
                    covered += cb.duration_since(ca).as_secs_f64();
                }
                (s.id, s.secs() - covered)
            })
            .collect()
    }

    /// The stage-sum check: `|Σ self times − Σ walls| / Σ walls` over the
    /// requests registered with [`Tracer::wall`]. `0.0` when no request
    /// was registered.
    pub fn stage_sum_error(&self) -> f64 {
        let walls = self.walls.lock().unwrap_or_else(|e| e.into_inner()).clone();
        let spans = self.spans();
        let selfs = Self::self_times(&spans);
        let mut per_req: HashMap<u64, f64> = HashMap::new();
        for s in &spans {
            *per_req.entry(s.req).or_insert(0.0) += selfs[&s.id];
        }
        let wall: f64 = walls.iter().map(|w| w.1).sum();
        let staged: f64 = walls.iter().map(|(r, _)| per_req.get(r).copied().unwrap_or(0.0)).sum();
        if wall > 0.0 {
            (staged - wall).abs() / wall
        } else {
            0.0
        }
    }
}

/// A benchmark-owned [`Scorer`] wrapper: records a `core.search.score`
/// span around every batch the search hands its backend, parented to
/// the span set with [`TracedScorer::enter`], and counts calls and
/// graphs.
pub struct TracedScorer<'a> {
    inner: &'a dyn Scorer,
    tracer: &'a Tracer,
    parent: AtomicU64,
    req: AtomicU64,
    pub calls: AtomicU64,
    pub graphs: AtomicU64,
}

impl<'a> TracedScorer<'a> {
    pub fn new(inner: &'a dyn Scorer, tracer: &'a Tracer) -> Self {
        TracedScorer {
            inner,
            tracer,
            parent: AtomicU64::new(0),
            req: AtomicU64::new(0),
            calls: AtomicU64::new(0),
            graphs: AtomicU64::new(0),
        }
    }

    /// Parents subsequent score spans to span `parent` of request `req`.
    pub fn enter(&self, parent: Option<u64>, req: u64) {
        self.parent.store(parent.unwrap_or(0), Ordering::Relaxed);
        self.req.store(req, Ordering::Relaxed);
    }
}

impl Scorer for TracedScorer<'_> {
    fn target_metric(&self) -> CostMetric {
        self.inner.target_metric()
    }

    fn score_batch(&self, graphs: Vec<JointGraph>) -> Vec<PlacementScores> {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.graphs.fetch_add(graphs.len() as u64, Ordering::Relaxed);
        let parent = Some(self.parent.load(Ordering::Relaxed)).filter(|&p| p != 0);
        let req = self.req.load(Ordering::Relaxed);
        self.tracer
            .span("core.search.score", parent, req, |_| self.inner.score_batch(graphs))
    }
}
