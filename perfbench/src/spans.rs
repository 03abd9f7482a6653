//! In-memory span recorder for the traced run.
//!
//! The benchmark wraps each layer call it makes in a span named after
//! the per-layer metric it feeds. Spans are kept in memory and written
//! as JSONL when the run ends. With tracing off, opening and closing a
//! span reads no clock and records nothing.

use std::io::Write as _;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

struct Rec {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
    /// Calls the span covers (a span around a batch of calls reports
    /// its duration per call).
    items: u32,
}

pub struct Spans {
    on: bool,
    epoch: Instant,
    recs: Vec<Rec>,
    open: Vec<u32>,
}

/// Handle of an open span (`None` when tracing is off).
pub type SpanId = Option<u32>;

impl Spans {
    pub fn new(on: bool) -> Spans {
        Spans {
            on,
            epoch: Instant::now(),
            recs: Vec::with_capacity(if on { 1 << 16 } else { 0 }),
            open: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, name: &'static str) -> SpanId {
        if !self.on {
            return None;
        }
        let id = self.recs.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.now_ns();
        self.recs.push(Rec {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            items: 1,
        });
        self.open.push(id);
        Some(id)
    }

    pub fn close(&mut self, id: SpanId, items: usize) {
        if let Some(id) = id {
            let end_ns = self.now_ns();
            let rec = &mut self.recs[id as usize];
            rec.end_ns = end_ns;
            rec.items = items.max(1) as u32;
            let top = self.open.pop();
            debug_assert_eq!(top, Some(id), "spans must close in LIFO order");
        }
    }

    /// Run `f` inside a span of one call.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.open(name);
        let r = f();
        self.close(id, 1);
        r
    }

    /// Per-call durations (ns) of every span named `name`.
    pub fn per_call_ns(&self, name: &str) -> Vec<f64> {
        self.per_call_ns_since(name, 0)
    }

    /// [`Spans::per_call_ns`] over spans opened after the first `mark`
    /// (a [`Spans::len`] taken earlier).
    pub fn per_call_ns_since(&self, name: &str, mark: usize) -> Vec<f64> {
        self.recs[mark.min(self.recs.len())..]
            .iter()
            .filter(|r| r.name == name)
            .map(|r| (r.end_ns - r.start_ns) as f64 / r.items as f64)
            .collect()
    }

    /// Median per-call duration of spans named `name`, in ns; `None`
    /// when no such span was recorded.
    pub fn median_ns(&self, name: &str) -> Option<f64> {
        let v = self.per_call_ns(name);
        (!v.is_empty()).then(|| crate::stats::median(&v))
    }

    pub fn len(&self) -> usize {
        self.recs.len()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, r) in self.recs.iter().enumerate() {
            let parent = if r.parent == NO_PARENT {
                "null".to_string()
            } else {
                r.parent.to_string()
            };
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"items\":{}}}",
                r.name, r.start_ns, r.end_ns, r.items
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_records_nothing() {
        let mut s = Spans::new(false);
        let id = s.open("x");
        s.close(id, 1);
        assert_eq!(s.time("y", || 3), 3);
        assert_eq!(s.len(), 0);
        assert!(s.median_ns("x").is_none());
    }

    #[test]
    fn nesting_and_items() {
        let mut s = Spans::new(true);
        let outer = s.open("outer");
        let inner = s.open("inner");
        s.close(inner, 4);
        s.close(outer, 1);
        assert_eq!(s.recs[1].parent, 0);
        assert_eq!(s.recs[0].parent, NO_PARENT);
        assert_eq!(s.recs[1].items, 4);
        assert_eq!(s.per_call_ns("inner").len(), 1);
    }
}
