//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's side of each public call into
//! a layer. They are kept in memory, turned into per-layer numbers at the
//! end of the run and written out as JSON lines when the process exits.

use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call, e.g. `core.vc`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// The request (or block) the span works for.
    pub request: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans from any thread.
pub struct Tracer {
    t0: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.t0).as_nanos() as u64
    }

    /// Records a finished span and returns its index.
    pub fn record(
        &self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        request: u64,
    ) -> usize {
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            request,
        };
        let mut spans = self.spans.lock().expect("no span writer panics");
        spans.push(span);
        spans.len() - 1
    }

    /// Opens a span now; close it with [`Tracer::close`]. Children
    /// recorded in between can name it as their parent.
    pub fn open(&self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        let now = Instant::now();
        self.record(name, now, now, parent, request)
    }

    /// Sets the end of an opened span to now.
    pub fn close(&self, index: usize) {
        let end = self.ns(Instant::now());
        self.spans.lock().expect("no span writer panics")[index].end_ns = end;
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(
        &self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, start, Instant::now(), parent, request);
        out
    }

    /// Self time of every span named `name`, in nanoseconds: its
    /// duration minus the time its child spans cover.
    pub fn self_ns(&self, name: &str) -> Vec<f64> {
        let spans = self.spans.lock().expect("no span writer panics");
        let mut children_ns = vec![0u64; spans.len()];
        for span in spans.iter() {
            if let Some(p) = span.parent {
                children_ns[p] += span.duration_ns();
            }
        }
        spans
            .iter()
            .zip(children_ns)
            .filter(|(s, _)| s.name == name)
            .map(|(s, c)| s.duration_ns().saturating_sub(c) as f64)
            .collect()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        use std::io::Write;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for span in self.spans.lock().expect("no span writer panics").iter() {
            let parent = span.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                r#"{{"name":"{}","start_ns":{},"end_ns":{},"parent":{},"request":{}}}"#,
                span.name, span.start_ns, span.end_ns, parent, span.request
            )?;
        }
        out.flush()
    }
}
