//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own files, around the calls it
//! makes into each layer's public functions; the program itself is not
//! instrumented. The traced run is single-threaded, so spans nest
//! strictly and a span's self time is its duration minus the durations of
//! its direct children.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

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

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open span.
    pub fn open(&mut self, name: &'static str) {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn close(&mut self) {
        let id = self.open.pop().expect("close without an open span");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.open(name);
        let out = f();
        self.close();
        out
    }

    /// Self time in seconds per span name, over the spans below the root
    /// spans named `root` (the root's own self time is excluded).
    pub fn self_seconds_under(&self, root: &str) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_ns[p] += span.end_ns - span.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (id, span) in self.spans.iter().enumerate() {
            if self.root_name(id) != root || span.parent.is_none() {
                continue;
            }
            let own = (span.end_ns - span.start_ns).saturating_sub(child_ns[id]);
            *out.entry(span.name).or_insert(0.0) += own as f64 * 1e-9;
        }
        out
    }

    /// Total duration in seconds of every span named `name`.
    pub fn total_seconds(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .sum()
    }

    /// Durations in seconds of each span named `name`, in order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .collect()
    }

    fn root_name(&self, mut id: usize) -> &'static str {
        while let Some(p) = self.spans[id].parent {
            id = p;
        }
        self.spans[id].name
    }

    /// Writes every span as JSON: `{"name", "start_us", "end_us",
    /// "parent"}` with `parent` the index of the enclosing span.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "  {{\"id\": {i}, \"name\": \"{}\", \"start_us\": {:.3}, \"end_us\": {:.3}, \"parent\": {parent}}}{}\n",
                s.name,
                s.start_ns as f64 / 1e3,
                s.end_ns as f64 / 1e3,
                if i + 1 == self.spans.len() { "" } else { "," }
            ));
        }
        out.push_str("]\n");
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_other_roots() {
        let mut t = Tracer::new();
        t.open("pass");
        t.open("outer");
        t.span("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(20))
        });
        t.close();
        t.close();
        t.span("other", || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        let selfs = t.self_seconds_under("pass");
        assert!(selfs["inner"] >= 0.02);
        assert!(selfs["outer"] < selfs["inner"]);
        assert!(!selfs.contains_key("pass") && !selfs.contains_key("other"));
    }
}
