//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! Spans are only recorded for traced operations; an untraced operation
//! runs the same code with a disabled [`Tracer`], which just calls the
//! closure. Nothing is written until the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Name of the root span of one operation.
pub const OP: &str = "op";
/// Name of the span around the benchmark's own output checks. Check time
/// is not operation time, so it is neither a layer nor a residual.
pub const CHECK: &str = "bench.check";

/// One closed span.
#[derive(Clone, Debug)]
pub struct Span {
    /// The layer metric this span feeds (or [`OP`] / [`CHECK`]).
    pub name: &'static str,
    /// Free-form label, e.g. the stage name.
    pub detail: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in [`Tracer::spans`].
    pub parent: Option<usize>,
    /// Operation index, or `None` for set-up spans.
    pub op: Option<usize>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans when enabled.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: Option<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            enabled: false,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: None,
        }
    }

    /// Turns recording on or off for the spans that follow.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    fn open(&mut self, name: &'static str, detail: String) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            detail,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op: self.op,
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        Some(id)
    }

    fn close(&mut self, id: Option<usize>) {
        if let Some(id) = id {
            let end_ns = self.now_ns();
            self.spans[id].end_ns = end_ns;
            let top = self.open.pop();
            debug_assert_eq!(top, Some(id), "spans close in LIFO order");
        }
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.span_with(name, String::new(), f)
    }

    /// Runs `f` inside a span carrying a detail label.
    pub fn span_with<R>(&mut self, name: &'static str, detail: String, f: impl FnOnce() -> R) -> R {
        let id = self.open(name, detail);
        let out = f();
        self.close(id);
        out
    }

    /// Opens the root span of operation `op`; every span until
    /// [`Tracer::end_op`] belongs to it.
    pub fn begin_op(&mut self, op: usize) {
        self.op = Some(op);
        let id = self.open(OP, String::new());
        debug_assert!(id.is_none() || self.open.len() == 1, "ops do not nest");
    }

    pub fn end_op(&mut self) {
        if self.enabled {
            let id = self.open.last().copied();
            self.close(id);
        }
        self.op = None;
    }

    /// Duration of span `id` minus the part of it its child spans cover.
    pub fn self_ns(&self, id: usize) -> u64 {
        let span = &self.spans[id];
        let mut children: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| (s.start_ns, s.end_ns))
            .collect();
        children.sort_unstable();
        let mut covered = 0;
        let mut reach = span.start_ns;
        for (start, end) in children {
            let start = start.max(reach);
            if end > start {
                covered += end - start;
                reach = end;
            }
        }
        span.duration_ns() - covered
    }

    /// Per traced operation: the summed self time of every layer span,
    /// in ms, by span name.
    pub fn layer_ms_by_op(&self) -> BTreeMap<usize, BTreeMap<&'static str, f64>> {
        let mut out: BTreeMap<usize, BTreeMap<&'static str, f64>> = BTreeMap::new();
        for (id, span) in self.spans.iter().enumerate() {
            let Some(op) = span.op else { continue };
            let per_op = out.entry(op).or_default();
            if span.name != OP && span.name != CHECK {
                *per_op.entry(span.name).or_default() += self.self_ns(id) as f64 / 1e6;
            }
        }
        out
    }

    /// Per traced operation: the share of its time (check spans excluded)
    /// that no layer span covers, in percent.
    pub fn residual_pct_by_op(&self) -> Vec<f64> {
        let mut out = Vec::new();
        for (id, span) in self.spans.iter().enumerate() {
            if span.name != OP {
                continue;
            }
            let checks: u64 = self
                .spans
                .iter()
                .filter(|s| s.parent == Some(id) && s.name == CHECK)
                .map(Span::duration_ns)
                .sum();
            let timed = span.duration_ns() - checks;
            if timed > 0 {
                out.push(100.0 * self.self_ns(id) as f64 / timed as f64);
            }
        }
        out
    }

    /// Set-up spans (outside any operation) named `name`, in ms.
    pub fn setup_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.op.is_none() && s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e6)
            .collect()
    }

    /// The spans as a Chrome trace (viewable in Perfetto), with the host
    /// fingerprint in the metadata.
    pub fn chrome_json(&self, fingerprint: &[(&str, String)]) -> String {
        let mut out = String::from("{\"traceEvents\": [\n");
        for (id, s) in self.spans.iter().enumerate() {
            let _ = write!(
                out,
                "{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": {:.3}, \
                 \"dur\": {:.3}, \"args\": {{\"id\": {id}, \"parent\": {}, \"op\": {}, \
                 \"detail\": \"{}\", \"self_us\": {:.3}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.duration_ns() as f64 / 1e3,
                s.parent.map_or("null".into(), |p| p.to_string()),
                s.op.map_or("null".into(), |o| o.to_string()),
                json_escape(&s.detail),
                self.self_ns(id) as f64 / 1e3,
            );
            out.push_str(if id + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("],\n\"metadata\": {");
        for (i, (k, v)) in fingerprint.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}\"{k}\": \"{}\"", json_escape(v));
        }
        out.push_str("}}\n");
        out
    }
}

/// Wall time of one operation, minus the time spent in excluded
/// sections (the output checks).
pub struct OpClock {
    start: Instant,
    excluded: Duration,
}

impl OpClock {
    pub fn start() -> Self {
        Self {
            start: Instant::now(),
            excluded: Duration::ZERO,
        }
    }

    /// Runs `f` without counting its time.
    pub fn exclude<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let out = f();
        self.excluded += t.elapsed();
        out
    }

    pub fn elapsed_ms(&self) -> f64 {
        (self.start.elapsed() - self.excluded).as_secs_f64() * 1e3
    }
}

pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut tr = Tracer::new();
        tr.set_enabled(true);
        tr.begin_op(0);
        tr.span("a", || std::thread::sleep(Duration::from_millis(2)));
        tr.span(CHECK, || std::thread::sleep(Duration::from_millis(2)));
        tr.end_op();
        let root = tr.spans().iter().position(|s| s.name == OP).unwrap();
        let children: u64 = tr.spans()[1..].iter().map(Span::duration_ns).sum();
        assert_eq!(tr.self_ns(root), tr.spans()[root].duration_ns() - children);
        let layers = tr.layer_ms_by_op();
        assert!(layers[&0]["a"] >= 2.0);
        assert!(!layers[&0].contains_key(CHECK));
        let residual = tr.residual_pct_by_op();
        assert_eq!(residual.len(), 1);
        assert!((0.0..100.0).contains(&residual[0]));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new();
        tr.begin_op(0);
        assert_eq!(tr.span("a", || 7), 7);
        tr.end_op();
        assert!(tr.spans().is_empty());
    }
}
