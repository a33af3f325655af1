//! Spans the benchmark records around each call into a layer, on a
//! `benchmark` worker of the traced run's own `TraceSink`, and the
//! per-layer self time computed from the sink's export.

use std::collections::BTreeMap;

use bso_telemetry::json::Json;
use bso_telemetry::{TraceSink, TraceWorker};

/// Records spans, each tagged with its layer, when on; otherwise every
/// call just runs `f`.
pub struct Tracer {
    worker: TraceWorker,
}

impl Tracer {
    pub fn off() -> Tracer {
        Tracer {
            worker: TraceWorker::disabled(),
        }
    }

    /// Records on a worker of `sink`, which keeps as many events as
    /// the sink's capacity allows.
    pub fn on(sink: &TraceSink) -> Tracer {
        Tracer {
            worker: sink.worker("benchmark"),
        }
    }

    /// Runs `f` inside a span named `name` with the argument
    /// `layer = layer`.
    pub fn span<R>(
        &mut self,
        layer: &'static str,
        name: &str,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        let mut span = self.worker.begin(name);
        span.arg("layer", layer);
        let out = f(self);
        span.end();
        out
    }
}

/// Nanoseconds from an exported microsecond field.
fn ns(e: &Json, key: &str) -> Option<u64> {
    Some((e.get(key)?.as_f64()? * 1e3).round() as u64)
}

/// Spans and self time in nanoseconds per layer, over the spans of an
/// exported trace that carry a `layer` argument: each span's duration
/// minus the part its direct children cover.
pub fn self_time_by_layer(doc: &Json) -> BTreeMap<String, (u64, u64)> {
    struct Span {
        tid: u64,
        start: u64,
        end: u64,
        layer: String,
    }
    let mut spans: Vec<Span> = doc
        .get("traceEvents")
        .and_then(Json::items)
        .unwrap_or(&[])
        .iter()
        .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
        .filter_map(|e| {
            let layer = e.get("args")?.get("layer")?.as_str()?.to_string();
            let start = ns(e, "ts")?;
            Some(Span {
                tid: e.get("tid")?.as_u64()?,
                start,
                end: start + ns(e, "dur")?,
                layer,
            })
        })
        .collect();
    // Parents before the children they contain.
    spans.sort_by_key(|s| (s.tid, s.start, std::cmp::Reverse(s.end)));
    let mut child_ns = vec![0u64; spans.len()];
    let mut open: Vec<usize> = Vec::new();
    for (i, s) in spans.iter().enumerate() {
        while let Some(&p) = open.last() {
            let parent = &spans[p];
            if parent.tid == s.tid && parent.start <= s.start && s.end <= parent.end {
                child_ns[p] += s.end - s.start;
                break;
            }
            open.pop();
        }
        open.push(i);
    }
    let mut by_layer: BTreeMap<String, (u64, u64)> = BTreeMap::new();
    for (s, child) in spans.iter().zip(child_ns) {
        let e = by_layer.entry(s.layer.clone()).or_default();
        e.0 += 1;
        e.1 += (s.end - s.start).saturating_sub(child);
    }
    by_layer
}

/// Writes a traced run's export as a Chrome trace and prints the
/// per-layer self time of the benchmark's spans to stderr.
pub fn finish(doc: &Json, path: &std::path::Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, doc.render())?;
    let by_layer = self_time_by_layer(doc);
    let total: u64 = by_layer.values().map(|(_, ns)| ns).sum();
    eprintln!(
        "self time by layer ({}; {} older program events dropped):",
        path.display(),
        doc.get("dropped").and_then(Json::as_u64).unwrap_or(0)
    );
    for (layer, (calls, ns)) in &by_layer {
        eprintln!(
            "  {layer:<22} {calls:>8} spans {:>10.1} ms {:>6.1} %",
            *ns as f64 / 1e6,
            100.0 * *ns as f64 / total.max(1) as f64
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_excludes_children() {
        let sink = TraceSink::with_capacity(16);
        let mut t = Tracer::on(&sink);
        t.span("outer", "o", |t| {
            std::thread::sleep(Duration::from_millis(2));
            t.span("inner", "i", |_| {
                std::thread::sleep(Duration::from_millis(5))
            });
        });
        t.span("outer", "o2", |_| ());
        let by = self_time_by_layer(&sink.export());
        let (outer, inner) = (by["outer"], by["inner"]);
        assert_eq!((outer.0, inner.0), (2, 1));
        assert!(inner.1 >= 5_000_000, "{inner:?}");
        assert!(
            outer.1 >= 2_000_000 && outer.1 < inner.1,
            "{outer:?} vs {inner:?}"
        );
    }

    #[test]
    fn spans_of_a_disabled_tracer_go_nowhere() {
        let mut t = Tracer::off();
        assert_eq!(t.span("l", "n", |_| 7), 7);
        assert!(self_time_by_layer(&TraceSink::disabled().export()).is_empty());
    }
}
