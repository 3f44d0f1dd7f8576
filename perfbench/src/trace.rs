//! In-memory span recorder for the traced runs.
//!
//! The benchmark wraps each call into a layer crate's public API in a span
//! (name, start, end, parent span, cell id). Spans stay in memory until the
//! run ends, then [`Tracer::write_jsonl`] writes them out and
//! [`Tracer::summary`] folds them into per-layer totals and self times. A
//! layer's self time is its span time minus the time its child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::Mutex;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Span id (unique within the run).
    pub id: u64,
    /// Enclosing span, if any.
    pub parent: Option<u64>,
    /// The cell the span belongs to.
    pub cell: u64,
    /// Layer call name, e.g. `video.quality.score`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Collects spans from any thread.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    state: Mutex<(u64, Vec<Span>)>,
}

/// Spans reserved up front. The span list never reallocates within this
/// capacity, so recording does not free large blocks mid-run — a freed
/// large block raises the allocator's trim threshold, which would make the
/// traced program allocate differently from the untraced one.
const SPAN_CAPACITY: usize = 1 << 16;

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            state: Mutex::new((0, Vec::with_capacity(SPAN_CAPACITY))),
        }
    }
}

/// Per-layer totals folded from the spans.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LayerTime {
    /// Spans of this name.
    pub calls: u64,
    /// Summed span time, seconds.
    pub total_s: f64,
    /// Summed self time (span time not covered by child spans), seconds.
    pub self_s: f64,
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Time `f` as a span named `name` under `parent` in `cell`. The closure
    /// receives the new span's id, for nesting.
    pub fn span<T>(
        &self,
        name: &'static str,
        cell: u64,
        parent: Option<u64>,
        f: impl FnOnce(u64) -> T,
    ) -> T {
        let id = {
            let mut st = self.state.lock().expect("tracer lock is not poisoned");
            st.0 += 1;
            st.0
        };
        let start_ns = self.now_ns();
        let out = f(id);
        let end_ns = self.now_ns();
        self.state
            .lock()
            .expect("tracer lock is not poisoned")
            .1
            .push(Span {
                id,
                parent,
                cell,
                name,
                start_ns,
                end_ns,
            });
        out
    }

    /// Every span recorded so far, in completion order.
    pub fn spans(&self) -> Vec<Span> {
        self.state
            .lock()
            .expect("tracer lock is not poisoned")
            .1
            .clone()
    }

    /// Fold spans into per-name totals and self times.
    pub fn summary(&self) -> BTreeMap<&'static str, LayerTime> {
        let spans = self.spans();
        let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
        for s in &spans {
            if let Some(p) = s.parent {
                *child_ns.entry(p).or_default() += s.dur_ns();
            }
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for s in &spans {
            let covered = child_ns.get(&s.id).copied().unwrap_or(0).min(s.dur_ns());
            let e = out.entry(s.name).or_default();
            e.calls += 1;
            e.total_s += s.dur_ns() as f64 * 1e-9;
            e.self_s += (s.dur_ns() - covered) as f64 * 1e-9;
        }
        out
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {parent}, \"cell\": {}, \"name\": \"{}\", \
                 \"start_ns\": {}, \"end_ns\": {}}}",
                s.id, s.cell, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Run `f` inside a span when a tracer is present, plainly otherwise.
pub fn maybe_span<T>(
    tracer: Option<&Tracer>,
    name: &'static str,
    cell: u64,
    parent: Option<u64>,
    f: impl FnOnce() -> T,
) -> T {
    match tracer {
        Some(t) => t.span(name, cell, parent, |_| f()),
        None => f(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let t = Tracer::default();
        t.span("outer", 0, None, |id| {
            std::thread::sleep(std::time::Duration::from_millis(5));
            t.span("inner", 0, Some(id), |_| {
                std::thread::sleep(std::time::Duration::from_millis(10))
            });
        });
        let s = t.summary();
        let (outer, inner) = (&s["outer"], &s["inner"]);
        assert_eq!((outer.calls, inner.calls), (1, 1));
        assert!(inner.total_s >= 0.010);
        assert!((outer.self_s - (outer.total_s - inner.total_s)).abs() < 1e-9);
        assert!(outer.self_s >= 0.005);
    }
}
