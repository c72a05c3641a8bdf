//! Pluggable record sinks: where span/metric/event records go.
//!
//! The collector aggregates regardless of sink; the sink decides what
//! to do with the *stream* of records: drop them ([`NullSink`] — the
//! cheapest mode, aggregation only), pretty-print to stderr
//! ([`StderrSink`], the CLI's `--trace`), write one JSON object per
//! line ([`JsonlSink`], the CLI's `--metrics-out`), or keep them in
//! memory for assertions ([`CaptureSink`]).

use crate::{Report, Value};
use std::io::Write;
use std::sync::{Arc, Mutex};

/// One observation forwarded to the sink, timestamped in microseconds
/// since the collector was installed.
#[derive(Debug, Clone, PartialEq)]
pub enum Record {
    /// A span opened.
    SpanOpen {
        /// Span name.
        name: String,
        /// Nesting depth on the opening thread (0 = top level).
        depth: usize,
        /// Attributes captured at open.
        attrs: Vec<(String, Value)>,
    },
    /// A span closed.
    SpanClose {
        /// Span name.
        name: String,
        /// Nesting depth on the closing thread.
        depth: usize,
        /// Inclusive wall-clock nanoseconds (streamed as whole `incl_us`).
        incl_ns: u64,
        /// Exclusive (inclusive minus children) nanoseconds (streamed as
        /// whole `excl_us`).
        excl_ns: u64,
        /// Net bytes retained by this span exclusive of children
        /// (negative when the span frees more than it allocates).
        mem_self_bytes: i64,
        /// Process-wide live heap bytes at close.
        mem_live_bytes: u64,
        /// Process-wide peak live heap bytes at close (≥ live).
        mem_peak_bytes: u64,
        /// Allocation count attributed to this span (exclusive).
        mem_allocs: u64,
    },
    /// A counter was incremented.
    Counter {
        /// Counter name.
        name: String,
        /// The increment.
        delta: i64,
        /// The running total after the increment.
        total: i64,
    },
    /// A gauge was set.
    Gauge {
        /// Gauge name.
        name: String,
        /// The new value.
        value: f64,
    },
    /// Samples of one value were recorded into a histogram.
    Hist {
        /// Histogram name.
        name: String,
        /// The sample.
        value: u64,
        /// How many samples of `value` (1 for a single sample).
        count: u64,
    },
    /// A point-in-time structured event.
    Event {
        /// Event name.
        name: String,
        /// Event attributes.
        attrs: Vec<(String, Value)>,
    },
}

impl Record {
    /// Renders the record as one JSON object (the JSONL line body),
    /// with `us` carrying the supplied timestamp.
    pub fn to_json(&self, ts_us: u64) -> String {
        let attrs_json = |attrs: &[(String, Value)]| -> String {
            attrs
                .iter()
                .map(|(k, v)| format!("\"{}\":{}", json_escape(k), v.to_json()))
                .collect::<Vec<_>>()
                .join(",")
        };
        match self {
            Record::SpanOpen { name, depth, attrs } => {
                let a = attrs_json(attrs);
                format!(
                    "{{\"t\":\"span_open\",\"us\":{ts_us},\"name\":\"{}\",\"depth\":{depth},\"attrs\":{{{a}}}}}",
                    json_escape(name)
                )
            }
            Record::SpanClose {
                name,
                depth,
                incl_ns,
                excl_ns,
                mem_self_bytes,
                mem_live_bytes,
                mem_peak_bytes,
                mem_allocs,
            } => format!(
                "{{\"t\":\"span_close\",\"us\":{ts_us},\"name\":\"{}\",\"depth\":{depth},\"incl_us\":{},\"excl_us\":{},\"mem.self_bytes\":{mem_self_bytes},\"mem.live_bytes\":{mem_live_bytes},\"mem.peak_bytes\":{mem_peak_bytes},\"mem.allocs\":{mem_allocs}}}",
                json_escape(name),
                incl_ns / 1_000,
                excl_ns / 1_000
            ),
            Record::Counter { name, delta, total } => format!(
                "{{\"t\":\"counter\",\"us\":{ts_us},\"name\":\"{}\",\"delta\":{delta},\"total\":{total}}}",
                json_escape(name)
            ),
            Record::Gauge { name, value } => {
                let v = Value::Float(*value).to_json();
                format!(
                    "{{\"t\":\"gauge\",\"us\":{ts_us},\"name\":\"{}\",\"value\":{v}}}",
                    json_escape(name)
                )
            }
            Record::Hist { name, value, count } => {
                // A single sample keeps the one-sample line shape.
                let count = match count {
                    1 => String::new(),
                    n => format!(",\"count\":{n}"),
                };
                format!(
                    "{{\"t\":\"hist\",\"us\":{ts_us},\"name\":\"{}\",\"value\":{value}{count}}}",
                    json_escape(name)
                )
            }
            Record::Event { name, attrs } => {
                let a = attrs_json(attrs);
                format!(
                    "{{\"t\":\"event\",\"us\":{ts_us},\"name\":\"{}\",\"attrs\":{{{a}}}}}",
                    json_escape(name)
                )
            }
        }
    }
}

/// Escapes `s` for embedding inside a JSON string literal: quotes,
/// backslashes, and all control characters below U+0020.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// Where the record stream goes.
pub trait Sink {
    /// Consumes one record (timestamp in µs since collector install).
    fn record(&mut self, ts_us: u64, record: &Record);
    /// Consumes the final aggregate report (called once on
    /// [`crate::finish`]).
    fn summary(&mut self, _report: &Report) {}
    /// Flushes any buffered output.
    fn flush(&mut self) {}
}

/// Drops every record; aggregation still happens in the collector.
#[derive(Debug, Default)]
pub struct NullSink;

impl Sink for NullSink {
    fn record(&mut self, _ts_us: u64, _record: &Record) {}
}

/// Pretty-prints the record stream to stderr (the CLI's `--trace`):
/// spans indent with nesting depth, everything is `[lacr]`-prefixed.
#[derive(Debug, Default)]
pub struct StderrSink;

impl Sink for StderrSink {
    fn record(&mut self, ts_us: u64, record: &Record) {
        let ms = ts_us as f64 / 1000.0;
        match record {
            Record::SpanOpen { name, depth, attrs } => {
                let pad = "  ".repeat(*depth);
                let mut line = format!("[lacr] {ms:9.3}ms {pad}> {name}");
                for (k, v) in attrs {
                    line.push_str(&format!(" {k}={v}"));
                }
                eprintln!("{line}");
            }
            Record::SpanClose {
                name,
                depth,
                incl_ns,
                excl_ns,
                mem_self_bytes,
                ..
            } => {
                let pad = "  ".repeat(*depth);
                eprintln!(
                    "[lacr] {ms:9.3}ms {pad}< {name} {:.3}ms (excl {:.3}ms, mem {})",
                    (incl_ns / 1_000) as f64 / 1000.0,
                    (excl_ns / 1_000) as f64 / 1000.0,
                    crate::report::fmt_bytes_signed(*mem_self_bytes)
                );
            }
            Record::Counter { name, delta, total } => {
                eprintln!("[lacr] {ms:9.3}ms   {name} {delta:+} = {total}");
            }
            Record::Gauge { name, value } => {
                eprintln!("[lacr] {ms:9.3}ms   {name} = {value}");
            }
            Record::Hist {
                name,
                value,
                count: 1,
            } => {
                eprintln!("[lacr] {ms:9.3}ms   {name} ~ {value}");
            }
            Record::Hist { name, value, count } => {
                eprintln!("[lacr] {ms:9.3}ms   {name} ~ {value} x{count}");
            }
            Record::Event { name, attrs } => {
                let mut line = format!("[lacr] {ms:9.3}ms   ! {name}");
                for (k, v) in attrs {
                    line.push_str(&format!(" {k}={v}"));
                }
                eprintln!("{line}");
            }
        }
    }

    fn summary(&mut self, report: &Report) {
        eprintln!("{}", report.self_time_table());
    }
}

/// Writes one JSON object per line (the CLI's `--metrics-out`); the
/// summary aggregate goes out as a final `{"t":"summary",...}` line.
/// The stream is flushed whenever a top-level (depth 0) span closes, so
/// a long run that is killed or still going has every finished stage on
/// disk.
pub struct JsonlSink {
    out: Box<dyn Write + Send>,
}

impl JsonlSink {
    /// Wraps an arbitrary writer.
    pub fn new(out: Box<dyn Write + Send>) -> Self {
        Self { out }
    }

    /// Opens (and truncates) `path` as a buffered JSONL stream.
    pub fn create(path: &str) -> std::io::Result<Self> {
        let file = std::fs::File::create(path)?;
        Ok(Self::new(Box::new(std::io::BufWriter::new(file))))
    }
}

impl Sink for JsonlSink {
    fn record(&mut self, ts_us: u64, record: &Record) {
        let _ = writeln!(self.out, "{}", record.to_json(ts_us));
        if let Record::SpanClose { depth: 0, .. } = record {
            let _ = self.out.flush();
        }
    }

    fn summary(&mut self, report: &Report) {
        let _ = writeln!(
            self.out,
            "{{\"t\":\"summary\",\"schema_version\":{},{}}}",
            crate::SCHEMA_VERSION,
            report.json_fields()
        );
    }

    fn flush(&mut self) {
        let _ = self.out.flush();
    }
}

/// Fans the record stream out to several sinks (the CLI combines
/// `--metrics-out` and `--trace` this way: one collector, both views).
pub struct TeeSink {
    sinks: Vec<Box<dyn Sink + Send>>,
}

impl TeeSink {
    /// Wraps the given sinks; each receives every record, summary, and
    /// flush in construction order.
    pub fn new(sinks: Vec<Box<dyn Sink + Send>>) -> Self {
        Self { sinks }
    }
}

impl Sink for TeeSink {
    fn record(&mut self, ts_us: u64, record: &Record) {
        for s in &mut self.sinks {
            s.record(ts_us, record);
        }
    }

    fn summary(&mut self, report: &Report) {
        for s in &mut self.sinks {
            s.summary(report);
        }
    }

    fn flush(&mut self) {
        for s in &mut self.sinks {
            s.flush();
        }
    }
}

/// Buffers records in memory for test assertions; the store survives
/// the sink (the collector owns the sink, so tests hold the [`Arc`]).
#[derive(Debug)]
pub struct CaptureSink {
    store: Arc<Mutex<Vec<(u64, Record)>>>,
}

impl CaptureSink {
    /// Creates a capture sink and the shared store it appends to.
    #[allow(clippy::type_complexity)]
    pub fn new() -> (Self, Arc<Mutex<Vec<(u64, Record)>>>) {
        let store = Arc::new(Mutex::new(Vec::new()));
        (
            Self {
                store: Arc::clone(&store),
            },
            store,
        )
    }
}

impl Sink for CaptureSink {
    fn record(&mut self, ts_us: u64, record: &Record) {
        self.store
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push((ts_us, record.clone()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escape_handles_quotes_backslashes_and_controls() {
        assert_eq!(json_escape("plain"), "plain");
        assert_eq!(json_escape("a\"b"), "a\\\"b");
        assert_eq!(json_escape("a\\b"), "a\\\\b");
        assert_eq!(json_escape("a\nb\tc\r"), "a\\nb\\tc\\r");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
        assert_eq!(json_escape("naïve — ok"), "naïve — ok");
    }

    #[test]
    fn jsonl_lines_are_valid_objects() {
        let rec = Record::Event {
            name: "deg\"radation".into(),
            attrs: vec![
                ("stage".into(), Value::Str("lac".into())),
                ("n".into(), Value::Int(-2)),
                ("ok".into(), Value::Bool(false)),
            ],
        };
        assert_eq!(
            rec.to_json(17),
            "{\"t\":\"event\",\"us\":17,\"name\":\"deg\\\"radation\",\
             \"attrs\":{\"stage\":\"lac\",\"n\":-2,\"ok\":false}}"
        );
        let open = Record::SpanOpen {
            name: "plan".into(),
            depth: 0,
            attrs: vec![],
        };
        assert_eq!(
            open.to_json(0),
            "{\"t\":\"span_open\",\"us\":0,\"name\":\"plan\",\"depth\":0,\"attrs\":{}}"
        );
        let close = Record::SpanClose {
            name: "plan".into(),
            depth: 0,
            incl_ns: 120_400,
            excl_ns: 20_999,
            mem_self_bytes: -64,
            mem_live_bytes: 4096,
            mem_peak_bytes: 8192,
            mem_allocs: 3,
        };
        assert_eq!(
            close.to_json(120),
            "{\"t\":\"span_close\",\"us\":120,\"name\":\"plan\",\"depth\":0,\
             \"incl_us\":120,\"excl_us\":20,\"mem.self_bytes\":-64,\
             \"mem.live_bytes\":4096,\"mem.peak_bytes\":8192,\"mem.allocs\":3}"
        );
    }

    #[test]
    fn tee_sink_fans_out_to_every_branch() {
        let (a, store_a) = CaptureSink::new();
        let (b, store_b) = CaptureSink::new();
        let mut tee = TeeSink::new(vec![Box::new(a), Box::new(b)]);
        tee.record(
            5,
            &Record::Hist {
                name: "h".into(),
                value: 9,
                count: 1,
            },
        );
        tee.flush();
        for store in [store_a, store_b] {
            let got = store.lock().unwrap();
            assert_eq!(got.len(), 1);
            assert_eq!(got[0].0, 5);
        }
    }

    #[test]
    fn jsonl_sink_writes_one_line_per_record() {
        struct Shared(Arc<Mutex<Vec<u8>>>);
        impl Write for Shared {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let buf = Arc::new(Mutex::new(Vec::new()));
        let mut sink = JsonlSink::new(Box::new(Shared(Arc::clone(&buf))));
        sink.record(
            1,
            &Record::Counter {
                name: "c".into(),
                delta: 1,
                total: 1,
            },
        );
        sink.record(
            2,
            &Record::Gauge {
                name: "g".into(),
                value: 0.5,
            },
        );
        sink.flush();
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"t\":\"counter\""));
        assert!(lines[1].contains("\"value\":0.5"));
    }

    #[test]
    fn jsonl_file_sink_flushes_at_each_top_level_span_close() {
        let path =
            std::env::temp_dir().join(format!("lacr-jsonl-flush-{}.jsonl", std::process::id()));
        let path_str = path.to_str().expect("utf-8 temp path");
        let mut sink = JsonlSink::create(path_str).expect("create temp stream");
        let close = |depth| Record::SpanClose {
            name: "s".into(),
            depth,
            incl_ns: 1_000,
            excl_ns: 1_000,
            mem_self_bytes: 0,
            mem_live_bytes: 0,
            mem_peak_bytes: 0,
            mem_allocs: 0,
        };
        sink.record(1, &close(1));
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            "",
            "nested closes stay buffered"
        );
        sink.record(2, &close(0));
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(
            text.lines().count(),
            2,
            "a top-level close reaches the file: {text}"
        );
    }
}
