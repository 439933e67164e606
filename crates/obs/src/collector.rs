//! Pluggable sinks for span and custom events.

use crate::json::JsonWriter;
use crate::span::SpanEvent;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::Mutex;

/// Receives span exits and custom events from a [`crate::Tracer`].
///
/// Implementations must be thread-safe (the tracer is cloneable and may be
/// flushed from any thread) and must uphold the determinism rules of the
/// crate: whatever a collector persists, timing fields (`wall_nanos` and
/// friends) go **after** all deterministic fields, so deterministic prefixes
/// of serialized events stay bit-identical across runs.
pub trait Collector: Send + Sync {
    /// Called once per span occurrence, at exit.
    fn span(&self, event: &SpanEvent);

    /// Called for custom (non-span) events such as campaign progress or
    /// end-of-run summaries. `fields` arrive in their serialization order.
    fn event(&self, kind: &str, fields: &[(&str, String)]);

    /// Flushes buffered output, if any.
    fn flush(&self) {}
}

/// Discards everything. The default collector: tracing with it costs only
/// the per-boundary probe read and map update.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopCollector;

impl Collector for NoopCollector {
    fn span(&self, _event: &SpanEvent) {}
    fn event(&self, _kind: &str, _fields: &[(&str, String)]) {}
}

/// A custom event as recorded by [`MemoryCollector`]: the event kind plus
/// its key/value fields in emission order.
pub type RecordedEvent = (String, Vec<(String, String)>);

/// Records every event in memory, in arrival order — the deterministic
/// collector used by tests.
#[derive(Debug, Default)]
pub struct MemoryCollector {
    spans: Mutex<Vec<SpanEvent>>,
    events: Mutex<Vec<RecordedEvent>>,
}

impl MemoryCollector {
    /// Creates an empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// All span events recorded so far, in exit order.
    pub fn spans(&self) -> Vec<SpanEvent> {
        self.spans.lock().expect("collector poisoned").clone()
    }

    /// All custom events recorded so far, in emission order.
    pub fn events(&self) -> Vec<RecordedEvent> {
        self.events.lock().expect("collector poisoned").clone()
    }
}

impl Collector for MemoryCollector {
    fn span(&self, event: &SpanEvent) {
        self.spans
            .lock()
            .expect("collector poisoned")
            .push(event.clone());
    }

    fn event(&self, kind: &str, fields: &[(&str, String)]) {
        self.events.lock().expect("collector poisoned").push((
            kind.to_string(),
            fields
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
        ));
    }
}

/// Streams one flat JSON object per event to a file, in the inline
/// [`JsonWriter`] layout.
///
/// Span lines look like
///
/// ```json
/// {"event": "span", "seq": 3, "path": "optimize/screening", "depth": 1,
///  "simulations": 40, "cache_hits": 10, "evictions": 0, "wall_nanos": 81250}
/// ```
///
/// with `wall_nanos` — the only timing field — always last, exactly like the
/// campaign rows segregate `wall_time_ms`: stripping the final timing field
/// leaves a byte-stable deterministic record. Custom events serialize their
/// fields in emission order under their `event` kind; emitters keep timing
/// fields last there too.
#[derive(Debug)]
pub struct JsonlCollector {
    out: Mutex<BufWriter<File>>,
}

impl JsonlCollector {
    /// Creates (truncating) the JSONL stream at `path`.
    pub fn create(path: &Path) -> std::io::Result<Self> {
        Ok(Self {
            out: Mutex::new(BufWriter::new(File::create(path)?)),
        })
    }

    fn write_line(&self, line: &str) {
        let mut out = self.out.lock().expect("collector poisoned");
        // Profiling output is best-effort: a full disk should not abort the
        // run it is observing.
        let _ = writeln!(out, "{line}");
    }
}

impl Collector for JsonlCollector {
    fn span(&self, event: &SpanEvent) {
        let mut line = JsonWriter::inline();
        line.str("event", "span")
            .bare("seq", event.seq)
            .str("path", &event.path)
            .bare("depth", event.depth)
            .bare("simulations", event.simulations)
            .bare("cache_hits", event.cache_hits)
            .bare("evictions", event.evictions)
            .bare("wall_nanos", event.wall_nanos);
        self.write_line(&line.finish());
    }

    fn event(&self, kind: &str, fields: &[(&str, String)]) {
        let mut line = JsonWriter::inline();
        line.str("event", kind);
        for (key, value) in fields {
            line.number_or_str(key, value);
        }
        self.write_line(&line.finish());
    }

    fn flush(&self) {
        let _ = self.out.lock().expect("collector poisoned").flush();
    }
}

impl Drop for JsonlCollector {
    fn drop(&mut self) {
        Collector::flush(self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("moheco-obs-{}-{tag}.jsonl", std::process::id()))
    }

    fn sample_event() -> SpanEvent {
        SpanEvent {
            seq: 1,
            path: "optimize/screening".to_string(),
            depth: 1,
            simulations: 40,
            cache_hits: 10,
            evictions: 0,
            wall_nanos: 81_250,
        }
    }

    #[test]
    fn jsonl_span_lines_put_timing_last() {
        let path = temp_path("span");
        {
            let collector = JsonlCollector::create(&path).unwrap();
            collector.span(&sample_event());
            collector.event(
                "run_summary",
                &[
                    ("scenario", "margin_wall".to_string()),
                    ("simulations_run", "1234".to_string()),
                ],
            );
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        // Timing is the final field.
        assert_eq!(
            lines[0],
            "{\"event\": \"span\", \"seq\": 1, \"path\": \"optimize/screening\", \"depth\": 1, \
             \"simulations\": 40, \"cache_hits\": 10, \"evictions\": 0, \"wall_nanos\": 81250}"
        );
        assert!(lines[1].contains("\"event\": \"run_summary\""));
        assert!(lines[1].contains("\"scenario\": \"margin_wall\""));
        assert!(lines[1].contains("\"simulations_run\": 1234"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn memory_collector_is_deterministic_storage() {
        let collector = MemoryCollector::new();
        collector.span(&sample_event());
        collector.event("progress", &[("cell", "a/b".to_string())]);
        assert_eq!(collector.spans(), vec![sample_event()]);
        assert_eq!(
            collector.events(),
            vec![(
                "progress".to_string(),
                vec![("cell".to_string(), "a/b".to_string())]
            )]
        );
    }
}
