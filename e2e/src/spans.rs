//! The benchmark's own wall-clock spans, kept in memory and written out as
//! a chrome trace when a traced trial ends. They are recorded from this
//! directory only, around calls into the program's public functions.

use psml_trace::json::{obj, JsonValue};
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span this one ran inside, if any.
    pub parent: Option<usize>,
    /// Which top-level op (or replayed op) the span belongs to.
    pub op: u64,
}

pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Spans::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, op: u64) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op,
        });
        self.spans.len() - 1
    }

    /// Closes a span and returns its duration in milliseconds.
    pub fn close(&mut self, id: usize) -> f64 {
        let end_ns = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        (end_ns - span.start_ns) as f64 / 1e6
    }

    /// Runs `f` inside a span; returns its result and milliseconds taken.
    pub fn timed<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        op: u64,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let id = self.open(name, parent, op);
        let out = f();
        let ms = self.close(id);
        (out, ms)
    }

    /// The spans as a chrome://tracing / Perfetto document.
    pub fn chrome_trace(&self) -> JsonValue {
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let mut args = vec![
                    ("id".to_string(), JsonValue::UInt(id as u64)),
                    ("op".to_string(), JsonValue::UInt(s.op)),
                ];
                if let Some(p) = s.parent {
                    args.push(("parent".to_string(), JsonValue::UInt(p as u64)));
                }
                obj([
                    ("name", JsonValue::Str(s.name.to_string())),
                    ("ph", JsonValue::Str("X".into())),
                    ("pid", JsonValue::UInt(1)),
                    // One lane per nesting depth keeps parents above children.
                    ("tid", JsonValue::UInt(self.depth(id))),
                    ("ts", JsonValue::Float(s.start_ns as f64 / 1e3)),
                    (
                        "dur",
                        JsonValue::Float((s.end_ns - s.start_ns) as f64 / 1e3),
                    ),
                    ("args", JsonValue::Object(args)),
                ])
            })
            .collect();
        obj([
            ("traceEvents", JsonValue::Array(events)),
            ("displayTimeUnit", JsonValue::Str("ms".into())),
        ])
    }

    fn depth(&self, mut id: usize) -> u64 {
        let mut d = 0;
        while let Some(p) = self.spans[id].parent {
            d += 1;
            id = p;
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_export() {
        let mut s = Spans::new();
        let op = s.open("op", None, 7);
        let ((), ms) = s.timed("layer", Some(op), 7, || std::hint::black_box(()));
        assert!(ms >= 0.0);
        s.close(op);
        let doc = s.chrome_trace();
        let events = doc.get("traceEvents").and_then(|e| e.as_array()).unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].get("tid").and_then(|t| t.as_u64()), Some(1));
        let args = events[1].get("args").unwrap();
        assert_eq!(args.get("parent").and_then(|p| p.as_u64()), Some(0));
        assert_eq!(args.get("op").and_then(|p| p.as_u64()), Some(7));
        // The document survives the shared JSON writer and parser.
        let back = psml_trace::json::parse(&doc.to_json()).unwrap();
        assert_eq!(
            back.get("traceEvents")
                .and_then(|e| e.as_array())
                .map(|e| e.len()),
            Some(2)
        );
    }
}
