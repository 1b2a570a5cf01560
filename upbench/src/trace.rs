//! In-memory span recorder for the traced run, written out at the end as
//! Chrome trace-event JSON (opens in Perfetto and `chrome://tracing`).
//!
//! Spans are recorded from the benchmark's own files around calls into
//! the workspace's public functions: set-up phases, each workload call,
//! and one span per engine `execute` (see [`crate::probe`]).

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::clock::Stopwatch;

/// One closed span.
#[derive(Debug, Clone)]
struct Span {
    name: String,
    id: u64,
    parent: Option<u64>,
    tid: u64,
    start_us: f64,
    dur_us: f64,
    args: Vec<(&'static str, String)>,
}

/// A span that has started and not yet ended.
#[derive(Debug)]
pub struct OpenSpan {
    name: String,
    id: u64,
    parent: Option<u64>,
    start: Stopwatch,
}

static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// A small per-thread id for the trace's `tid` column (the standard
    /// library's thread ids have no stable integer form).
    static TID: Cell<u64> = const { Cell::new(0) };
}

fn current_tid() -> u64 {
    TID.with(|tid| {
        if tid.get() == 0 {
            // Statistic only: the id publishes no other data.
            tid.set(NEXT_TID.fetch_add(1, Ordering::Relaxed));
        }
        tid.get()
    })
}

/// Shared span store; cheap to clone into worker threads.
#[derive(Debug, Clone)]
pub struct Tracer {
    origin: Stopwatch,
    spans: Arc<Mutex<Vec<Span>>>,
    next_id: Arc<AtomicU64>,
    /// The span new `execute` spans hang under (0 = none).
    parent: Arc<AtomicU64>,
    /// Whether `execute` spans are recorded (paused for the untraced
    /// comparison pass of a traced run).
    recording: Arc<AtomicBool>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty trace whose time origin is now.
    pub fn new() -> Self {
        Self {
            origin: Stopwatch::start(),
            spans: Arc::new(Mutex::new(Vec::new())),
            next_id: Arc::new(AtomicU64::new(1)),
            parent: Arc::new(AtomicU64::new(0)),
            recording: Arc::new(AtomicBool::new(true)),
        }
    }

    /// Pauses or resumes recording of `execute` spans.
    pub fn set_recording(&self, on: bool) {
        self.recording.store(on, Ordering::SeqCst);
    }

    /// Whether `execute` spans are being recorded.
    pub fn recording(&self) -> bool {
        self.recording.load(Ordering::SeqCst)
    }

    /// Opens a span under `parent`.
    pub fn open(&self, name: impl Into<String>, parent: Option<u64>) -> OpenSpan {
        OpenSpan {
            name: name.into(),
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            start: Stopwatch::start(),
        }
    }

    /// Closes `span`, attaching `args`.
    pub fn close(&self, span: OpenSpan, args: Vec<(&'static str, String)>) {
        let dur_us = span.start.elapsed_s() * 1e6;
        let start_us = self.origin.offset_of(&span.start) * 1e6;
        let closed = Span {
            name: span.name,
            id: span.id,
            parent: span.parent,
            tid: current_tid(),
            start_us,
            dur_us,
            args,
        };
        self.spans
            .lock()
            .expect("a thread panicked while recording a span")
            .push(closed);
    }

    /// Runs `f` inside a span named `name` under `parent`.
    pub fn scope<T>(&self, name: &str, parent: Option<u64>, f: impl FnOnce() -> T) -> T {
        let span = self.open(name, parent);
        let out = f();
        self.close(span, Vec::new());
        out
    }

    /// Makes `span` the parent of every `execute` span recorded until the
    /// next call (or [`clear_parent`](Self::clear_parent)).
    pub fn set_parent(&self, span: &OpenSpan) {
        self.parent.store(span.id, Ordering::SeqCst);
    }

    /// Detaches `execute` spans from any workload span.
    pub fn clear_parent(&self) {
        self.parent.store(0, Ordering::SeqCst);
    }

    /// The current `execute` parent, if any.
    pub fn parent(&self) -> Option<u64> {
        match self.parent.load(Ordering::SeqCst) {
            0 => None,
            id => Some(id),
        }
    }

    /// Number of spans recorded so far.
    pub fn span_count(&self) -> usize {
        self.spans
            .lock()
            .expect("a thread panicked while recording a span")
            .len()
    }

    /// The trace as Chrome trace-event JSON: one complete (`"ph": "X"`)
    /// event per span, sorted by start time, with the span and parent ids
    /// in `args`.
    pub fn to_chrome_json(&self) -> String {
        let mut spans = self
            .spans
            .lock()
            .expect("a thread panicked while recording a span")
            .clone();
        spans.sort_by(|a, b| a.start_us.total_cmp(&b.start_us).then(a.id.cmp(&b.id)));
        let events: Vec<String> = spans
            .iter()
            .map(|s| {
                let mut args = vec![format!("\"span_id\": {}", s.id)];
                if let Some(p) = s.parent {
                    args.push(format!("\"parent_id\": {p}"));
                }
                for (key, value) in &s.args {
                    args.push(format!("\"{key}\": {}", json_string(value)));
                }
                format!(
                    "{{\"name\": {}, \"cat\": \"upbench\", \"ph\": \"X\", \"ts\": {:.3}, \
                     \"dur\": {:.3}, \"pid\": 1, \"tid\": {}, \"args\": {{{}}}}}",
                    json_string(&s.name),
                    s.start_us,
                    s.dur_us,
                    s.tid,
                    args.join(", ")
                )
            })
            .collect();
        format!(
            "{{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n{}\n]}}\n",
            events.join(",\n")
        )
    }
}

/// A JSON string literal for `s`.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
