//! In-memory span recording for the traced run.
//!
//! Spans are recorded from the benchmark's own files, around calls into
//! each layer's public API: timing adapters for [`GroundTruth`] and
//! [`Strategy`]/[`PreparedStrategy`], and explicit spans around engine
//! and HTTP calls. Each span carries a name, start, end, parent span and
//! op id; spans stay in memory until the run ends.

use std::cell::Cell;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use tass_core::plan::CycleOutcome;
use tass_core::select::Selection;
use tass_core::{PreparedStrategy, ProbePlan, Strategy};
use tass_model::corpus::CorpusError;
use tass_model::registry::SharedSource;
use tass_model::{GroundTruth, Protocol, Snapshot, Topology};

/// One timed interval at a layer boundary.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// A layer-specific detail (the month, for snapshot loads).
    pub arg: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    pub fn dur_ms(&self) -> f64 {
        self.dur_ns() as f64 / 1e6
    }
}

thread_local! {
    /// The calling thread's (parent span, op id): spans opened on this
    /// thread become children of the innermost open span.
    static CONTEXT: Cell<(Option<u64>, u64)> = const { Cell::new((None, 0)) };
}

/// The span store. Ids start at 1; the epoch is the tracer's creation.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    pub fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Run `f` as a span under the calling thread's current context.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.span_arg(name, 0, f)
    }

    pub fn span_arg<R>(&self, name: &'static str, arg: u64, f: impl FnOnce() -> R) -> R {
        let (parent, op) = CONTEXT.with(Cell::get);
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        CONTEXT.with(|c| c.set((Some(id), op)));
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        CONTEXT.with(|c| c.set((parent, op)));
        self.push(Span {
            id,
            parent,
            op,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            arg,
        });
        out
    }

    /// Run `f` as op `op`'s root span on the calling thread.
    pub fn op<R>(&self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
        let saved = CONTEXT.with(|c| c.replace((None, op)));
        let out = self.span(name, f);
        CONTEXT.with(|c| c.set(saved));
        out
    }

    /// Record an interval measured elsewhere (e.g. assembled from other
    /// spans after the fact).
    pub fn record(
        &self,
        name: &'static str,
        parent: Option<u64>,
        op: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> u64 {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.push(Span {
            id,
            parent,
            op,
            name,
            start_ns,
            end_ns,
            arg: 0,
        });
        id
    }

    fn push(&self, span: Span) {
        self.spans.lock().expect("span store poisoned").push(span);
    }

    /// Every span recorded so far, in id order.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self.spans.lock().expect("span store poisoned").clone();
        spans.sort_by_key(|s| s.id);
        spans
    }
}

/// Self time of every span: its duration minus the time its children
/// cover (the union of their intervals, since children on several
/// threads may overlap). A child that outlives its parent can push this
/// below zero, which is how broken nesting shows.
pub fn self_times(spans: &[Span]) -> HashMap<u64, i64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut kids = children.remove(&s.id).unwrap_or_default();
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, 0u64);
            for (a, b) in kids {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.id, s.dur_ns() as i64 - covered as i64)
        })
        .collect()
}

/// Write the spans as JSON lines, one span per line.
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write;
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            r#"{{"id":{},"parent":{},"op":{},"name":"{}","start_ns":{},"end_ns":{},"arg":{}}}"#,
            s.id,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
            s.op,
            s.name,
            s.start_ns,
            s.end_ns,
            s.arg
        )?;
    }
    out.flush()
}

/// Counters a [`TracedSource`] keeps beside its spans.
#[derive(Debug, Default)]
pub struct LoadCounters {
    pub loads: AtomicU64,
    pub bytes: AtomicU64,
    pub mapped: AtomicU64,
}

/// A timing [`GroundTruth`] adapter: every `load_snapshot` becomes a
/// `model.load_snapshot` span (argument: the month). It is itself a
/// [`SharedSource`] once wrapped in an `Arc`, so the daemon's registry
/// accepts it.
pub struct TracedSource {
    pub inner: SharedSource,
    pub tracer: Arc<Tracer>,
    pub counters: LoadCounters,
}

impl TracedSource {
    pub fn new(inner: SharedSource, tracer: Arc<Tracer>) -> TracedSource {
        TracedSource {
            inner,
            tracer,
            counters: LoadCounters::default(),
        }
    }
}

impl GroundTruth for TracedSource {
    fn topology(&self) -> &Topology {
        self.inner.topology()
    }

    fn months(&self) -> u32 {
        self.inner.months()
    }

    fn protocols(&self) -> Vec<Protocol> {
        self.inner.protocols()
    }

    fn load_snapshot(&self, month: u32, protocol: Protocol) -> Result<Arc<Snapshot>, CorpusError> {
        let snap = self
            .tracer
            .span_arg("model.load_snapshot", u64::from(month), || {
                self.inner.load_snapshot(month, protocol)
            })?;
        let c = &self.counters;
        c.loads.fetch_add(1, Ordering::Relaxed);
        c.bytes
            .fetch_add(snap.resident_bytes() as u64, Ordering::Relaxed);
        if snap.hosts.is_mapped() {
            c.mapped.fetch_add(1, Ordering::Relaxed);
        }
        Ok(snap)
    }
}

/// A timing [`Strategy`] adapter: `prepare` is a `core.strategy.prepare`
/// span and the prepared lifecycle times each `plan` and `observe`.
pub struct TracedStrategy {
    pub inner: Box<dyn Strategy>,
    pub tracer: Arc<Tracer>,
}

impl fmt::Debug for TracedStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TracedStrategy({:?})", self.inner)
    }
}

impl Strategy for TracedStrategy {
    fn label(&self) -> String {
        self.inner.label()
    }

    fn prepare(&self, topo: &Topology, t0: &Snapshot, seed: u64) -> Box<dyn PreparedStrategy> {
        let inner = self.tracer.span("core.strategy.prepare", || {
            self.inner.prepare(topo, t0, seed)
        });
        Box::new(TracedPrepared {
            inner,
            tracer: Arc::clone(&self.tracer),
        })
    }
}

struct TracedPrepared {
    inner: Box<dyn PreparedStrategy>,
    tracer: Arc<Tracer>,
}

impl fmt::Debug for TracedPrepared {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TracedPrepared({:?})", self.inner)
    }
}

impl PreparedStrategy for TracedPrepared {
    fn plan(&mut self, cycle: u32) -> ProbePlan {
        let inner = &mut self.inner;
        self.tracer
            .span_arg("core.strategy.plan", u64::from(cycle), || inner.plan(cycle))
    }

    fn observe(&mut self, cycle: u32, outcome: &CycleOutcome) {
        let inner = &mut self.inner;
        self.tracer
            .span_arg("core.strategy.observe", u64::from(cycle), || {
                inner.observe(cycle, outcome)
            })
    }

    fn wants_feedback(&self) -> bool {
        self.inner.wants_feedback()
    }

    fn selection(&self) -> Option<&Selection> {
        self.inner.selection()
    }
}

/// `f` inside a span when tracing, bare otherwise.
pub fn maybe_span<R>(tracer: Option<&Tracer>, name: &'static str, f: impl FnOnce() -> R) -> R {
    match tracer {
        Some(t) => t.span(name, f),
        None => f(),
    }
}

/// Median self time, in ms, of the spans called `name`.
pub fn self_ms_p50(spans: &[Span], selfs: &HashMap<u64, i64>, name: &str) -> f64 {
    let v: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| selfs[&s.id] as f64 / 1e6)
        .collect();
    crate::stats::median(&v)
}

/// Total duration, in ns, of the spans called `name`.
pub fn total_ns(spans: &[Span], name: &str) -> u64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::dur_ns)
        .sum()
}

/// Close a traced run: dump the spans next to the run's work directory
/// and report the span count and the spans whose self time came out
/// negative.
pub fn finish(
    report: &mut crate::Report,
    p: &crate::Params,
    workload: &str,
    spans: &[Span],
    selfs: &HashMap<u64, i64>,
) {
    let negative = selfs.values().filter(|&&v| v < 0).count();
    report.set("trace.spans", spans.len() as f64);
    report.set("trace.negative_self_spans", negative as f64);
    if let Some(dir) = p.work.parent() {
        let path = dir.join(format!("spans-{workload}-seed{}.jsonl", p.seed));
        if let Err(e) = write_spans(&path, spans) {
            eprintln!("tass-perfbench: writing {}: {e}", path.display());
        }
    }
}
