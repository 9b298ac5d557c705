//! In-memory spans recorded around calls into each layer.
//!
//! A span holds a name, start and end (nanoseconds since the tracer was
//! created), the index of the span that caused it and the id of the
//! operation (solve, request or batch) it belongs to. Nothing is written
//! while the benchmark measures; [`Tracer::write_jsonl`] dumps the spans
//! when the run ends. A span's *self time* is its duration minus the part
//! of its interval its children cover.

use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = usize;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name, e.g. `storage.load`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// The span this one ran inside.
    pub parent: Option<SpanId>,
    /// Operation id shared by every span of one solve, request or batch.
    pub request: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span recorder shared by the threads of one run.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose epoch is now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds since the epoch for an instant taken by the caller.
    fn at(&self, instant: Instant) -> u64 {
        instant.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished interval and returns its id.
    pub fn record(
        &self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<SpanId>,
        request: u64,
    ) -> SpanId {
        let span = Span {
            name,
            start_ns: self.at(start),
            end_ns: self.at(end),
            parent,
            request,
        };
        let mut spans = self.spans.lock().expect("tracer lock poisoned");
        spans.push(span);
        spans.len() - 1
    }

    /// Opens a span whose end is filled in by [`Tracer::close`]; lets
    /// children name their parent before the parent finishes.
    pub fn open(&self, name: &'static str, parent: Option<SpanId>, request: u64) -> SpanId {
        let now = Instant::now();
        self.record(name, now, now, parent, request)
    }

    /// Closes a span opened with [`Tracer::open`].
    pub fn close(&self, id: SpanId) {
        let end = self.at(Instant::now());
        let mut spans = self.spans.lock().expect("tracer lock poisoned");
        spans[id].end_ns = end;
    }

    /// Times `f` as a child span of `parent`.
    pub fn time<T>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let value = f();
        self.record(name, start, Instant::now(), parent, request);
        value
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("tracer lock poisoned").clone()
    }

    /// Writes one JSON object per span (after a header line) to `path`.
    pub fn write_jsonl(&self, path: &Path, header: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let spans = self.spans();
        let self_ns = self_times(&spans);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{header}")?;
        for (id, span) in spans.iter().enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{},\"self_ns\":{}}}",
                span.name, span.start_ns, span.end_ns, span.request, self_ns[id]
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the union of its children's
/// intervals clipped to it.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = span.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(cursor);
                let end = end.min(span.end_ns);
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            span.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// One operation's breakdown: its root span's request id and wall time,
/// and each layer's summed self time within it (the root's own first).
#[derive(Debug, Clone)]
pub struct Breakdown {
    /// Operation id of the root span.
    pub request: u64,
    /// Duration of the root span, nanoseconds.
    pub wall_ns: u64,
    /// Self time by layer name, nanoseconds.
    pub layers: Vec<(&'static str, u64)>,
}

impl Breakdown {
    /// Seconds of self time spent in layer `name`.
    pub fn layer_s(&self, name: &str) -> f64 {
        let ns: u64 = self
            .layers
            .iter()
            .filter(|(n, _)| *n == name)
            .map(|(_, ns)| ns)
            .sum();
        ns as f64 / 1e9
    }

    /// Share of the wall time the child layers' self times cover.
    pub fn phase_sum_ratio(&self) -> f64 {
        let children: u64 = self.layers.iter().skip(1).map(|(_, ns)| ns).sum();
        children as f64 / self.wall_ns.max(1) as f64
    }
}

/// Per-operation sums of self time by layer name: one [`Breakdown`] for
/// every root span (one solve, request or batch).
pub fn layer_breakdown(spans: &[Span]) -> Vec<Breakdown> {
    let self_ns = self_times(spans);
    let mut roots: Vec<Breakdown> = Vec::new();
    let mut root_of = vec![usize::MAX; spans.len()];
    for (id, span) in spans.iter().enumerate() {
        match span.parent {
            None => {
                root_of[id] = roots.len();
                roots.push(Breakdown {
                    request: span.request,
                    wall_ns: span.duration_ns(),
                    layers: vec![(span.name, self_ns[id])],
                });
            }
            // A parent is recorded (or opened) before its children, so its
            // root is already known.
            Some(parent) => root_of[id] = root_of[parent],
        }
    }
    for (id, span) in spans.iter().enumerate() {
        if span.parent.is_some() && root_of[id] != usize::MAX {
            let layers = &mut roots[root_of[id]].layers;
            match layers.iter_mut().find(|(name, _)| *name == span.name) {
                Some(entry) => entry.1 += self_ns[id],
                None => layers.push((span.name, self_ns[id])),
            }
        }
    }
    roots
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_intervals_once() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 30, 60, Some(0)),
            span("c", 90, 120, Some(0)),
        ];
        // Children cover 10..60 and 90..100 of the root: 60 ns.
        assert_eq!(self_times(&spans), vec![40, 30, 30, 30]);
        let breakdown = layer_breakdown(&spans);
        assert_eq!(breakdown.len(), 1);
        assert_eq!(breakdown[0].wall_ns, 100);
        assert_eq!(breakdown[0].layer_s("a"), 30e-9);
        assert!((breakdown[0].phase_sum_ratio() - 0.9).abs() < 1e-12);
    }
}
