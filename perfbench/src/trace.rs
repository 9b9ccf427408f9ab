//! Wall-clock spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name (`<layer>.<call>`), a start and end on the host
//! clock, its parent span and the workload it belongs to. Spans are kept
//! in memory and written out once, when the run ends: as chrome-trace JSON
//! that Perfetto (or `chrome://tracing`) opens, and as a flat per-name
//! table of total and self time.
//!
//! Every timed call goes through [`Tracer::timed`], which measures with
//! [`Instant`] whether or not spans are recorded; a disabled tracer only
//! adds the measurement itself.

use serde::{Serialize, Value};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// One recorded span; offsets are from the tracer's origin.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start: Duration,
    end: Duration,
    parent: Option<usize>,
}

impl Span {
    fn secs(&self) -> f64 {
        self.end.saturating_sub(self.start).as_secs_f64()
    }
}

/// Span recorder for one workload run.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    workload: &'static str,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records spans of `workload` when `enabled`.
    pub fn new(enabled: bool, workload: &'static str) -> Tracer {
        Tracer {
            enabled,
            workload,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A tracer that records nothing: the untraced side of a comparison.
    pub fn off() -> Tracer {
        Tracer::new(false, "")
    }

    /// Runs `f`, returning its result and its host seconds. When enabled,
    /// records a span named `name` whose children are the spans `f`
    /// records through the tracer it is handed.
    pub fn timed<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> (R, f64) {
        if !self.enabled {
            let t = Instant::now();
            let r = f(self);
            return (r, t.elapsed().as_secs_f64());
        }
        let idx = self.spans.len();
        let start = self.origin.elapsed();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        let r = f(self);
        self.open.pop();
        let end = self.origin.elapsed();
        let span = &mut self.spans[idx];
        span.end = end;
        (r, span.secs())
    }

    /// Whether spans are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Per span name: `(count, total seconds, self seconds)`. Self time is
    /// a span's duration minus the part its child spans cover; children
    /// run inside their parent on the one benchmark thread, so they never
    /// overlap each other.
    pub fn layer_table(&self) -> BTreeMap<&'static str, (u64, f64, f64)> {
        let mut child_secs = vec![0.0; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_secs[p] += span.secs();
            }
        }
        let mut table: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_secs) {
            let row = table.entry(span.name).or_default();
            row.0 += 1;
            row.1 += span.secs();
            row.2 += (span.secs() - children).max(0.0);
        }
        table
    }

    /// The flat per-name table, largest self time first.
    pub fn render_table(&self) -> String {
        let mut rows: Vec<_> = self.layer_table().into_iter().collect();
        rows.sort_by(|a, b| b.1 .2.total_cmp(&a.1 .2));
        let mut out = format!(
            "{:<36} {:>6} {:>12} {:>12}\n",
            "span (host time)", "count", "total s", "self s"
        );
        for (name, (count, total, own)) in rows {
            out.push_str(&format!(
                "{name:<36} {count:>6} {total:>12.6} {own:>12.6}\n"
            ));
        }
        out
    }

    /// The spans as chrome-trace JSON (complete `X` events, microseconds).
    pub fn chrome_json(&self) -> Result<String, serde_json::Error> {
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, span)| ChromeEvent {
                name: span.name.to_string(),
                cat: span.name.split('.').next().unwrap_or("").to_string(),
                ph: "X".to_string(),
                ts: span.start.as_secs_f64() * 1e6,
                dur: span.secs() * 1e6,
                pid: 1,
                tid: 1,
                args: ChromeArgs {
                    workload: self.workload.to_string(),
                    span: id as u64,
                    parent: span.parent.map(|p| p as u64),
                },
            })
            .collect();
        serde_json::to_string(&ChromeTrace(events))
    }
}

/// The chrome-trace document: its keys are camel-case, which the derive
/// shim cannot rename to, so it is serialized by hand.
struct ChromeTrace(Vec<ChromeEvent>);

impl Serialize for ChromeTrace {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("traceEvents".to_string(), self.0.to_value()),
            ("displayTimeUnit".to_string(), Value::Str("ms".to_string())),
        ])
    }
}

#[derive(Serialize)]
struct ChromeEvent {
    name: String,
    cat: String,
    ph: String,
    ts: f64,
    dur: f64,
    pid: u64,
    tid: u64,
    args: ChromeArgs,
}

#[derive(Serialize)]
struct ChromeArgs {
    workload: String,
    span: u64,
    parent: Option<u64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true, "w");
        t.timed("a.outer", |t| {
            std::thread::sleep(Duration::from_millis(20));
            t.timed("b.inner", |_| std::thread::sleep(Duration::from_millis(30)));
        });
        let table = t.layer_table();
        let (n, total, own) = table["a.outer"];
        let (_, inner, _) = table["b.inner"];
        assert_eq!(n, 1);
        assert!((total - inner - own).abs() < 1e-9);
        assert!(own >= 0.019 && inner >= 0.029);
        let json = t.chrome_json().expect("serialize");
        assert!(json.contains("\"traceEvents\"") && json.contains("\"parent\":0"));
    }

    #[test]
    fn disabled_tracer_times_without_recording() {
        let mut t = Tracer::off();
        let (v, secs) = t.timed("a.x", |_| 7);
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        assert_eq!(t.len(), 0);
    }
}
