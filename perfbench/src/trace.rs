//! In-memory span recording in the Dapper model: every span has a name, a start, an
//! end, the span that caused it and the run it belongs to. Spans are taken by the
//! benchmark around its own calls into each layer of the program; the program itself
//! is not instrumented.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::Instant;

/// One closed span. Times are wall nanoseconds since the tracer was created.
#[derive(Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans when enabled; when disabled every call is a cheap no-op, so the
/// untraced run executes the same code path.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    run_id: u64,
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Tracer {
    pub fn new(enabled: bool, run_id: u64) -> Self {
        Tracer {
            enabled,
            run_id,
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a span that closes when the returned guard drops. Its parent is the
    /// innermost span still open.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        if !self.enabled {
            return SpanGuard {
                tracer: self,
                index: None,
            };
        }
        let start_ns = self.now_ns();
        let mut spans = self.spans.borrow_mut();
        let mut open = self.open.borrow_mut();
        let index = spans.len();
        spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: open.last().copied(),
        });
        open.push(index);
        SpanGuard {
            tracer: self,
            index: Some(index),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn spans(&self) -> std::cell::Ref<'_, Vec<Span>> {
        self.spans.borrow()
    }

    /// Durations in milliseconds of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e6)
            .collect()
    }

    /// `(duration, self time)` in milliseconds of every span called `name`. Self
    /// time is the duration minus the time its children cover; spans recorded on one
    /// thread nest, so sibling children never overlap and their durations add.
    pub fn self_times_ms(&self, name: &str) -> Vec<(f64, f64)> {
        let spans = self.spans();
        let mut child_ns = vec![0u64; spans.len()];
        for span in spans.iter() {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.duration_ns();
            }
        }
        spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| {
                let total = s.duration_ns();
                (total as f64 / 1e6, (total - child_ns[i]) as f64 / 1e6)
            })
            .collect()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut out = String::new();
        for (id, s) in self.spans().iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"run\":{},\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                self.run_id, s.name, s.start_ns, s.end_ns
            )
            .expect("writing to a String cannot fail");
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// Closes its span on drop.
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    index: Option<usize>,
}

impl SpanGuard<'_> {
    /// Renames the open span, for calls whose outcome decides what they were.
    pub fn rename(&mut self, name: &'static str) {
        if let Some(index) = self.index {
            self.tracer.spans.borrow_mut()[index].name = name;
        }
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(index) = self.index {
            let end_ns = self.tracer.now_ns();
            self.tracer.spans.borrow_mut()[index].end_ns = end_ns;
            self.tracer.open.borrow_mut().pop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_are_subtracted_from_self_time() {
        let tracer = Tracer::new(true, 1);
        {
            let _step = tracer.span("step");
            {
                let _child = tracer.span("child");
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let spans = tracer.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[0].parent, None);
        drop(spans);
        let (total, own) = tracer.self_times_ms("step")[0];
        let child = tracer.durations_ms("child")[0];
        assert!((total - own - child).abs() < 1e-9);
        assert!(own >= 1.0 && child >= 2.0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false, 1);
        drop(tracer.span("step"));
        assert!(tracer.spans().is_empty());
    }
}
