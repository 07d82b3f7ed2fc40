//! In-memory spans recorded around the benchmark's calls into the
//! program, written out as JSON lines when the run ends.
//!
//! Spans of one request share its `id` as their root; each child names
//! its parent. Threads collect spans in their own vectors and hand them
//! over once, so recording costs one push per span.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One timed interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique span id.
    pub id: u64,
    /// Id of the span that caused this one; `0` for a root.
    pub parent: u64,
    /// Layer boundary, e.g. `http.request` or `engine.wait`.
    pub name: &'static str,
    /// Start, nanoseconds since the trace epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the trace epoch.
    pub end_ns: u64,
}

/// A run's span sink; disabled in untraced runs.
pub struct Trace {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Trace {
    /// A sink that records only when `enabled`.
    pub fn new(enabled: bool) -> Trace {
        Trace {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records `[start, end]` into a thread's buffer and returns its id
    /// (`0` when tracing is off).
    pub fn span(
        &self,
        buf: &mut Vec<Span>,
        parent: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) -> u64 {
        if !self.enabled {
            return 0;
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        buf.push(Span {
            id,
            parent,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
        id
    }

    /// Hands a thread's buffer over to the sink.
    pub fn absorb(&self, buf: Vec<Span>) {
        if self.enabled && !buf.is_empty() {
            self.spans
                .lock()
                .expect("trace sink lock is never held across a panic")
                .extend(buf);
        }
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans
            .lock()
            .expect("trace sink lock is never held across a panic")
            .len()
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// Propagates file creation and write failures.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let spans = self
            .spans
            .lock()
            .expect("trace sink lock is never held across a panic");
        for s in spans.iter() {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}
