//! In-memory spans around the benchmark's calls into each layer, written
//! out as Chrome trace-event JSON when the traced run ends.

use std::time::Instant;

use venn_serve::json::{obj, Value};

/// One timed call: name, start, end and the span that caused it.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start_us: f64,
    pub end_us: f64,
    pub parent: Option<usize>,
}

/// Span recorder. `begin`/`end` nest through an explicit stack, so a
/// span's parent is whatever was open when it began.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn us(&self, at: Instant) -> f64 {
        at.duration_since(self.origin).as_secs_f64() * 1e6
    }

    /// Opens a span under the currently open one.
    pub fn begin(&mut self, name: &str) -> usize {
        let start_us = self.us(Instant::now());
        self.spans.push(Span {
            name: name.to_string(),
            start_us,
            end_us: start_us,
            parent: self.open.last().copied(),
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        id
    }

    /// Closes span `id` (and anything left open inside it); returns its
    /// duration in seconds.
    pub fn end(&mut self, id: usize) -> f64 {
        let now = self.us(Instant::now());
        while let Some(top) = self.open.pop() {
            self.spans[top].end_us = now;
            if top == id {
                break;
            }
        }
        (self.spans[id].end_us - self.spans[id].start_us) / 1e6
    }

    /// Runs `f` inside a span; returns its result and the seconds it took.
    pub fn scope<R>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> R) -> (R, f64) {
        let id = self.begin(name);
        let out = f(self);
        let secs = self.end(id);
        (out, secs)
    }

    /// Records a span timed elsewhere (e.g. inside the scheduler
    /// wrapper) under the currently open span.
    pub fn add(&mut self, name: &str, start: Instant, end: Instant) {
        self.spans.push(Span {
            name: name.to_string(),
            start_us: self.us(start),
            end_us: self.us(end),
            parent: self.open.last().copied(),
        });
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Chrome trace-event JSON (`ph: "X"` complete events; the parent
    /// span's index rides in `args`).
    pub fn to_chrome_json(&self) -> String {
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                obj(vec![
                    ("name", Value::Str(s.name.clone())),
                    ("ph", Value::Str("X".into())),
                    ("ts", Value::Float(s.start_us)),
                    ("dur", Value::Float(s.end_us - s.start_us)),
                    ("pid", Value::Int(1)),
                    ("tid", Value::Int(1)),
                    (
                        "args",
                        obj(vec![
                            ("id", Value::Int(id as i64)),
                            (
                                "parent",
                                s.parent.map_or(Value::Null, |p| Value::Int(p as i64)),
                            ),
                        ]),
                    ),
                ])
            })
            .collect();
        obj(vec![("traceEvents", Value::Array(events))]).to_json()
    }
}
