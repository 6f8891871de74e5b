//! An in-memory span recorder for the traced run.
//!
//! The benchmark wraps its own calls into each layer's public functions
//! in spans; nothing is recorded inside the program. Spans are held in
//! memory and written out once, when the run ends.

use std::collections::BTreeMap;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The request id: the batch seq for serve spans.
    pub req: Option<u64>,
}

impl SpanRecord {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Records nested spans. `begin` opens a span under the innermost open
/// one; `end` closes it and returns its duration in milliseconds.
pub struct Tracer {
    origin: Instant,
    spans: Vec<SpanRecord>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str, req: Option<u64>) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(SpanRecord {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            req,
        });
        self.open.push(id);
        id
    }

    pub fn end(&mut self, id: usize) -> f64 {
        let end_ns = self.now_ns();
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end_ns = end_ns;
        self.spans[id].ms()
    }

    /// Runs `f` inside a span.
    pub fn time<T>(&mut self, name: &'static str, req: Option<u64>, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, req);
        let out = f();
        self.end(id);
        out
    }

    /// Durations (ms) of every closed span named `name`, in order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(SpanRecord::ms)
            .collect()
    }

    /// Total and self time (ms) per span name: self time is a span's
    /// duration minus that of its direct children.
    pub fn self_times(&self) -> BTreeMap<&'static str, (f64, f64)> {
        let mut child_ms = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ms[p] += s.ms();
            }
        }
        let mut out: BTreeMap<&'static str, (f64, f64)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let e = out.entry(s.name).or_default();
            e.0 += s.ms();
            e.1 += s.ms() - child_ms[i];
        }
        out
    }

    /// The spans as JSON lines: one object per span, then one per name
    /// with its total and self time.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            out.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"req\":{}}}\n",
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.parent.map(|p| p as u64)),
                opt(s.req)
            ));
        }
        for (name, (total, own)) in self.self_times() {
            out.push_str(&format!(
                "{{\"summary\":\"{name}\",\"total_ms\":{total},\"self_ms\":{own}}}\n"
            ));
        }
        out
    }
}

fn opt(v: Option<u64>) -> String {
    v.map_or_else(|| "null".to_string(), |x| x.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new();
        let outer = t.begin("outer", Some(1));
        t.time("inner", Some(1), || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        t.end(outer);
        let st = t.self_times();
        let (outer_total, outer_self) = st["outer"];
        let (inner_total, _) = st["inner"];
        assert!(inner_total >= 5.0);
        assert!((outer_total - outer_self - inner_total).abs() < 1e-9);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.durations("inner").len(), 1);
        assert_eq!(t.to_json_lines().lines().count(), 4);
    }
}
