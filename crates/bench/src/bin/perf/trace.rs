//! The traced run's spans: kept in memory while the run measures,
//! written out and summarised afterwards.

use std::io::Write;
use std::path::Path;

use crate::drive::{Span, SpanName};
use crate::stats::Sorted;

/// Writes every span of the traced repetition as one JSON document:
/// `{trace_id, name, start_ns, end_ns, parent}` per span, spans of one
/// request sharing its `trace_id`.
pub fn write(path: &Path, workload: &str, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "{{\"workload\":\"{workload}\",\"spans\":[")?;
    for (i, span) in spans.iter().enumerate() {
        let parent = match span.parent {
            Some(parent) => format!("\"{}\"", parent.as_str()),
            None => "null".into(),
        };
        writeln!(
            out,
            "{}{{\"trace_id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
            if i == 0 { "" } else { "," },
            span.trace_id,
            span.name.as_str(),
            span.start_ns,
            span.end_ns,
        )?;
    }
    writeln!(out, "]}}")?;
    out.flush()
}

/// One row of the span summary.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRow {
    pub name: &'static str,
    pub count: usize,
    pub p50_us: f64,
    /// Median of the span's duration minus the part its children cover.
    pub self_p50_us: f64,
}

/// Per span name: how many, how long, and how much of that was the span's
/// own (not covered by a child span of the same request).
pub fn summarise(spans: &[Span]) -> Vec<SpanRow> {
    const NAMES: [SpanName; 9] = [
        SpanName::Request,
        SpanName::Lateness,
        SpanName::Call,
        SpanName::Wait,
        SpanName::Queue,
        SpanName::Search,
        SpanName::GenQueue,
        SpanName::Prefill,
        SpanName::Decode,
    ];
    let mut durations: Vec<Vec<f64>> = vec![Vec::new(); NAMES.len()];
    let mut selves: Vec<Vec<f64>> = vec![Vec::new(); NAMES.len()];
    // A request's spans are recorded together, so they are contiguous.
    for request in spans.chunk_by(|a, b| a.trace_id == b.trace_id) {
        for span in request {
            let duration = span.end_ns.saturating_sub(span.start_ns) as f64;
            let children: f64 = request
                .iter()
                .filter(|child| child.parent == Some(span.name))
                .map(|child| child.end_ns.saturating_sub(child.start_ns) as f64)
                .sum();
            let slot = NAMES
                .iter()
                .position(|n| *n == span.name)
                .expect("known span");
            durations[slot].push(duration / 1e3);
            selves[slot].push((duration - children) / 1e3);
        }
    }
    NAMES
        .iter()
        .zip(durations.into_iter().zip(selves))
        .filter(|(_, (d, _))| !d.is_empty())
        .map(|(name, (d, s))| SpanRow {
            name: name.as_str(),
            count: d.len(),
            p50_us: Sorted::new(d).median(),
            self_p50_us: Sorted::new(s).median(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use vlite_serve::http::json::Json;

    fn spans() -> Vec<Span> {
        let span = |trace_id, name, parent, start_ns, end_ns| Span {
            trace_id,
            name,
            parent,
            start_ns,
            end_ns,
        };
        vec![
            span(7, SpanName::Request, None, 0, 10_000),
            span(7, SpanName::Call, Some(SpanName::Request), 0, 1_000),
            span(7, SpanName::Wait, Some(SpanName::Request), 1_000, 10_000),
            span(7, SpanName::Queue, Some(SpanName::Wait), 0, 2_000),
            span(7, SpanName::Search, Some(SpanName::Wait), 2_000, 8_000),
        ]
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let rows = summarise(&spans());
        let row = |name: &str| rows.iter().find(|r| r.name == name).expect("row").clone();
        assert_eq!(row("request").self_p50_us, 0.0);
        assert_eq!(row("wait").p50_us, 9.0);
        assert_eq!(row("wait").self_p50_us, 1.0);
        assert_eq!(row("search").self_p50_us, 6.0);
        assert_eq!(rows.len(), 5);
    }

    #[test]
    fn trace_file_is_valid_json() {
        let dir = std::env::temp_dir().join(format!("perf-trace-test-{}", std::process::id()));
        let path = dir.join("trace.json");
        write(&path, "w", &spans()).expect("written");
        let text = std::fs::read_to_string(&path).expect("read back");
        std::fs::remove_dir_all(&dir).expect("cleaned up");
        let json = Json::parse(&text).expect("parses");
        let spans = json.get("spans").and_then(Json::as_array).expect("spans");
        assert_eq!(spans.len(), 5);
        assert_eq!(spans[0].get("parent"), Some(&Json::Null));
        assert_eq!(spans[4].get("name").and_then(Json::as_str), Some("search"));
        assert_eq!(spans[4].get("end_ns").and_then(Json::as_u64), Some(8_000));
    }
}
