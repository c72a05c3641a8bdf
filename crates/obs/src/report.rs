//! Aggregated results: the self-time report.
//!
//! The collector and every request scope fold each span close and
//! metric update into a [`Report`] (`Report::fold`); a snapshot is a
//! copy of it. Its two renderings are the CLI's `--report` self-time
//! table (stages ranked by exclusive time, whose column sums to ≈ the
//! instrumented wall-clock) and the JSON object embedded in the JSONL
//! summary line and `BENCH_*.json` perf records.

use crate::hist::Histogram;
use crate::mem::MemStats;
use crate::sink::{json_escape, Record};
use std::collections::BTreeMap;

/// Aggregate timing and memory of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanStat {
    /// Times the span closed.
    pub count: u64,
    /// Total inclusive nanoseconds.
    pub incl_ns: u64,
    /// Total exclusive (inclusive minus children) nanoseconds.
    pub excl_ns: u64,
    /// Net bytes allocated exclusively in this span (inclusive minus
    /// children, worker-thread credit included); negative when the span
    /// frees more than it allocates.
    pub self_bytes: i64,
    /// Highest process-wide peak-live-bytes observed at any close of
    /// this span.
    pub peak_bytes: u64,
    /// Allocation events exclusively in this span.
    pub allocs: u64,
}

/// Every aggregate of one collector or scope: the one fold target for
/// the record stream.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Report {
    /// Span stats by name.
    pub spans: BTreeMap<String, SpanStat>,
    /// Counter totals by name.
    pub counters: BTreeMap<String, i64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, f64>,
    /// Histograms by name.
    pub hists: BTreeMap<String, Histogram>,
    /// Process-wide allocator counters at snapshot time (not reset by
    /// `take_snapshot` — live/peak/alloc counts are process totals).
    pub mem: MemStats,
}

impl Report {
    /// Folds one record into the aggregates: a span close, a counter
    /// delta, a gauge or a histogram sample. Span opens and events carry
    /// nothing to aggregate. A counter record's `total` is set to this
    /// report's running total.
    pub(crate) fn fold(&mut self, record: &mut Record) {
        match record {
            Record::SpanClose {
                name,
                incl_ns,
                excl_ns,
                mem_self_bytes,
                mem_peak_bytes,
                mem_allocs,
                ..
            } => {
                let stat = self.spans.entry(name.clone()).or_default();
                stat.count += 1;
                stat.incl_ns += *incl_ns;
                stat.excl_ns += *excl_ns;
                stat.self_bytes += *mem_self_bytes;
                stat.allocs += *mem_allocs;
                stat.peak_bytes = stat.peak_bytes.max(*mem_peak_bytes);
            }
            Record::Counter { name, delta, total } => {
                let sum = self.counters.entry(name.clone()).or_insert(0);
                *sum += *delta;
                *total = *sum;
            }
            Record::Gauge { name, value } => {
                self.gauges.insert(name.clone(), *value);
            }
            Record::Hist { name, value, count } => {
                self.hists
                    .entry(name.clone())
                    .or_default()
                    .record_n(*value, *count);
            }
            Record::SpanOpen { .. } | Record::Event { .. } => {}
        }
    }

    /// The aggregates with [`Report::mem`] set to the process-wide
    /// allocator counters now: what a collector or scope hands out.
    pub(crate) fn stamped(mut self) -> Self {
        self.mem = crate::mem::stats();
        self
    }

    /// The stat of a span name, if it ever closed.
    pub fn span(&self, name: &str) -> Option<SpanStat> {
        self.spans.get(name).copied()
    }

    /// A counter's total, if it was ever incremented.
    pub fn counter(&self, name: &str) -> Option<i64> {
        self.counters.get(name).copied()
    }

    /// A gauge's last value, if it was ever set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// A histogram by name.
    pub fn hist(&self, name: &str) -> Option<&Histogram> {
        self.hists.get(name)
    }

    /// Sum of exclusive time over all spans — the instrumented
    /// wall-clock (nanoseconds). Because every span's exclusive time
    /// excludes its children, nested spans never double-count.
    pub fn total_excl_ns(&self) -> u64 {
        self.spans.values().map(|s| s.excl_ns).sum()
    }

    /// Sum of exclusive (self) bytes over all spans — the net
    /// instrumented allocation. Same no-double-count property as
    /// [`total_excl_ns`](Self::total_excl_ns).
    pub fn total_self_bytes(&self) -> i64 {
        self.spans.values().map(|s| s.self_bytes).sum()
    }

    /// Renders the `--report` self-time table: one row per span name,
    /// ranked by exclusive time, with the share of the instrumented
    /// total, the span's exclusive (self) net bytes, and its exclusive
    /// allocation count. Exclusive times sum to ≈ the top-level spans'
    /// inclusive wall-clock; self bytes sum to the net instrumented
    /// allocation.
    pub fn self_time_table(&self) -> String {
        let mut rows: Vec<(&String, &SpanStat)> = self.spans.iter().collect();
        rows.sort_by(|a, b| b.1.excl_ns.cmp(&a.1.excl_ns).then(a.0.cmp(b.0)));
        let total = self.total_excl_ns().max(1);
        let name_w = rows
            .iter()
            .map(|(n, _)| n.len())
            .chain(std::iter::once("span".len()))
            .max()
            .unwrap_or(4);
        let mut out = String::new();
        out.push_str(&format!(
            "{:<name_w$}  {:>7}  {:>12}  {:>12}  {:>10}  {:>9}  {:>6}\n",
            "span", "count", "incl ms", "excl ms", "self mem", "allocs", "excl%"
        ));
        for (name, s) in &rows {
            out.push_str(&format!(
                "{:<name_w$}  {:>7}  {:>12.3}  {:>12.3}  {:>10}  {:>9}  {:>5.1}%\n",
                name,
                s.count,
                s.incl_ns as f64 / 1e6,
                s.excl_ns as f64 / 1e6,
                fmt_bytes_signed(s.self_bytes),
                s.allocs,
                100.0 * s.excl_ns as f64 / total as f64
            ));
        }
        out.push_str(&format!(
            "{:<name_w$}  {:>7}  {:>12}  {:>12.3}  {:>10}  {:>9}  100.0%",
            "total",
            "",
            "",
            total as f64 / 1e6,
            fmt_bytes_signed(self.total_self_bytes()),
            self.spans.values().map(|s| s.allocs).sum::<u64>()
        ));
        out.push_str(&format!(
            "\nmem: live {} peak {} ({} allocs, {} frees)",
            fmt_bytes_signed(self.mem.live_bytes as i64),
            fmt_bytes_signed(self.mem.peak_bytes as i64),
            self.mem.allocs,
            self.mem.deallocs
        ));
        if !self.hists.is_empty() {
            out.push_str("\n\n");
            out.push_str(&self.histogram_table());
        }
        out
    }

    /// Renders one row per histogram with count, mean and the
    /// p50/p95/p99 upper bounds (power-of-two bucket edges), appended
    /// to the `--report` output when any histogram was recorded.
    pub fn histogram_table(&self) -> String {
        let name_w = self
            .hists
            .keys()
            .map(String::len)
            .chain(std::iter::once("histogram".len()))
            .max()
            .unwrap_or(9);
        let mut out = String::new();
        out.push_str(&format!(
            "{:<name_w$}  {:>9}  {:>12}  {:>8}  {:>8}  {:>8}  {:>8}\n",
            "histogram", "count", "mean", "p50", "p95", "p99", "max"
        ));
        for (name, h) in &self.hists {
            out.push_str(&format!(
                "{:<name_w$}  {:>9}  {:>12.1}  {:>8}  {:>8}  {:>8}  {:>8}\n",
                name,
                h.count(),
                h.mean(),
                h.p50(),
                h.p95(),
                h.p99(),
                h.max()
            ));
        }
        out
    }

    /// The process-wide memory block as one JSON object: allocator
    /// counters from this snapshot plus the kernel's peak RSS (read at
    /// render time; 0 where `/proc` is unavailable). Shared by the
    /// summary line, `--report-json`, and the `RUN_*`/`BENCH_*`
    /// artifact writers.
    pub fn mem_json(&self) -> String {
        format!(
            "{{\"live_bytes\":{},\"peak_bytes\":{},\"allocs\":{},\"deallocs\":{},\"peak_rss_bytes\":{}}}",
            self.mem.live_bytes,
            self.mem.peak_bytes,
            self.mem.allocs,
            self.mem.deallocs,
            crate::mem::peak_rss_bytes().unwrap_or(0)
        )
    }

    /// The report's fields as a JSON fragment (no surrounding braces),
    /// ready to splice into a summary line or perf record.
    pub fn json_fields(&self) -> String {
        let spans = self
            .spans
            .iter()
            .map(|(n, s)| {
                format!(
                    "\"{}\":{{\"count\":{},\"incl_us\":{},\"excl_us\":{},\
                     \"self_bytes\":{},\"peak_bytes\":{},\"allocs\":{}}}",
                    json_escape(n),
                    s.count,
                    s.incl_ns / 1_000,
                    s.excl_ns / 1_000,
                    s.self_bytes,
                    s.peak_bytes,
                    s.allocs
                )
            })
            .collect::<Vec<_>>()
            .join(",");
        let counters = self
            .counters
            .iter()
            .map(|(n, v)| format!("\"{}\":{v}", json_escape(n)))
            .collect::<Vec<_>>()
            .join(",");
        let gauges = self
            .gauges
            .iter()
            .map(|(n, v)| {
                let v = crate::Value::Float(*v).to_json();
                format!("\"{}\":{v}", json_escape(n))
            })
            .collect::<Vec<_>>()
            .join(",");
        let hists = self
            .hists
            .iter()
            .map(|(n, h)| format!("\"{}\":{}", json_escape(n), h.to_json()))
            .collect::<Vec<_>>()
            .join(",");
        format!(
            "\"spans\":{{{spans}}},\"counters\":{{{counters}}},\
             \"gauges\":{{{gauges}}},\"hists\":{{{hists}}},\"mem\":{}",
            self.mem_json()
        )
    }

    /// The report as one standalone JSON object.
    pub fn to_json(&self) -> String {
        format!("{{{}}}", self.json_fields())
    }

    /// The machine-readable twin of [`Self::self_time_table`]
    /// (the CLI's `--report-json <path>`): a schema-versioned document
    /// with spans ranked by exclusive time — same order, same share
    /// arithmetic as the human table — plus per-histogram quantile
    /// bounds. Same versioning style as `RUN_*.json` artifacts.
    pub fn ranked_json(&self) -> String {
        let mut rows: Vec<(&String, &SpanStat)> = self.spans.iter().collect();
        rows.sort_by(|a, b| b.1.excl_ns.cmp(&a.1.excl_ns).then(a.0.cmp(b.0)));
        let total = self.total_excl_ns().max(1);
        let spans = rows
            .iter()
            .map(|(n, s)| {
                format!(
                    "{{\"name\":\"{}\",\"count\":{},\"incl_us\":{},\"excl_us\":{},\"excl_pct\":{},\
                     \"self_bytes\":{},\"peak_bytes\":{},\"allocs\":{}}}",
                    json_escape(n),
                    s.count,
                    s.incl_ns / 1_000,
                    s.excl_ns / 1_000,
                    crate::Value::Float(100.0 * s.excl_ns as f64 / total as f64).to_json(),
                    s.self_bytes,
                    s.peak_bytes,
                    s.allocs
                )
            })
            .collect::<Vec<_>>()
            .join(",");
        let hists = self
            .hists
            .iter()
            .map(|(n, h)| {
                format!(
                    "\"{}\":{{\"count\":{},\"mean\":{},\"p50\":{},\"p95\":{},\"p99\":{},\"max\":{}}}",
                    json_escape(n),
                    h.count(),
                    crate::Value::Float(h.mean()).to_json(),
                    h.p50(),
                    h.p95(),
                    h.p99(),
                    h.max()
                )
            })
            .collect::<Vec<_>>()
            .join(",");
        format!(
            "{{\"t\":\"report\",\"schema_version\":{},\"total_excl_us\":{},\
             \"total_self_bytes\":{},\"mem\":{},\
             \"spans\":[{spans}],\"hists\":{{{hists}}}}}",
            crate::SCHEMA_VERSION,
            self.total_excl_ns() / 1_000,
            self.total_self_bytes(),
            self.mem_json()
        )
    }
}

/// Human-readable bytes with a sign: `-1.5M`, `482`, `3.2G`. Used by
/// the self-time table's memory column, where per-stage values span
/// bytes to gigabytes.
pub fn fmt_bytes_signed(v: i64) -> String {
    let sign = if v < 0 { "-" } else { "" };
    let a = v.unsigned_abs() as f64;
    if a < 1024.0 {
        format!("{sign}{}", v.unsigned_abs())
    } else if a < 1024.0 * 1024.0 {
        format!("{sign}{:.1}K", a / 1024.0)
    } else if a < 1024.0 * 1024.0 * 1024.0 {
        format!("{sign}{:.1}M", a / (1024.0 * 1024.0))
    } else {
        format!("{sign}{:.1}G", a / (1024.0 * 1024.0 * 1024.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        let mut spans = BTreeMap::new();
        spans.insert(
            "plan.route".to_string(),
            SpanStat {
                count: 1,
                incl_ns: 3_000_000,
                excl_ns: 2_000_000,
                self_bytes: 2048,
                peak_bytes: 1 << 20,
                allocs: 12,
            },
        );
        spans.insert(
            "plan.lac".to_string(),
            SpanStat {
                count: 4,
                incl_ns: 9_000_000,
                excl_ns: 9_000_000,
                self_bytes: -512,
                peak_bytes: 1 << 21,
                allocs: 40,
            },
        );
        let mut counters = BTreeMap::new();
        counters.insert("mcmf.dijkstra_phases".to_string(), 7);
        let mut gauges = BTreeMap::new();
        gauges.insert("lac.alpha".to_string(), 0.5);
        let mut hists = BTreeMap::new();
        let mut h = Histogram::new();
        h.record(5);
        hists.insert("net_len".to_string(), h);
        Report {
            spans,
            counters,
            gauges,
            hists,
            mem: MemStats::default(),
        }
    }

    #[test]
    fn table_ranks_by_exclusive_time() {
        let r = sample();
        let table = r.self_time_table();
        let lac = table.find("plan.lac").unwrap();
        let route = table.find("plan.route").unwrap();
        assert!(
            lac < route,
            "lac (9ms excl) must rank above route:\n{table}"
        );
        assert!(table.contains("excl%"));
        assert!(
            table
                .lines()
                .any(|l| l.starts_with("total") && l.ends_with("100.0%")),
            "{table}"
        );
        assert_eq!(r.total_excl_ns(), 11_000_000);
        // The histogram quantile section follows the span table.
        assert!(table.contains("p50") && table.contains("p99"), "{table}");
        assert!(table.contains("net_len"), "{table}");
    }

    #[test]
    fn histogram_table_reports_quantile_bounds() {
        let mut hists = BTreeMap::new();
        let mut h = Histogram::new();
        for v in [1_u64, 2, 3, 100] {
            h.record(v);
        }
        hists.insert("quality.tile_occupancy_ff".to_string(), h);
        let r = Report {
            hists,
            ..Report::default()
        };
        let t = r.histogram_table();
        assert!(t.contains("quality.tile_occupancy_ff"), "{t}");
        // count 4, p50 in [2,4) bucket → bound 4, p99 covers 100 → 128.
        assert!(t.contains("4"), "{t}");
        assert!(t.contains("128"), "{t}");
        // No histograms → the span table stays bare.
        let bare = Report::default();
        assert!(!bare.self_time_table().contains("histogram"));
    }

    #[test]
    fn json_is_well_formed() {
        let r = sample();
        let json = r.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"mcmf.dijkstra_phases\":7"));
        assert!(json.contains("\"lac.alpha\":0.5"));
        assert!(json.contains("\"plan.lac\":{\"count\":4"));
        assert!(json.contains("\"net_len\":{\"count\":1"));
    }

    #[test]
    fn ranked_json_mirrors_the_human_table() {
        let r = sample();
        let json = r.ranked_json();
        assert!(json.starts_with("{\"t\":\"report\",\"schema_version\":"));
        assert!(json.contains("\"total_excl_us\":11000"), "{json}");
        // Same ranking as the table: lac (9ms excl) before route (2ms).
        let lac = json.find("\"name\":\"plan.lac\"").unwrap();
        let route = json.find("\"name\":\"plan.route\"").unwrap();
        assert!(lac < route, "{json}");
        assert!(json.contains("\"excl_pct\":"), "{json}");
        assert!(json.contains("\"net_len\":{\"count\":1"), "{json}");
        assert!(json.contains("\"p99\":"), "{json}");
    }

    #[test]
    fn accessors() {
        let r = sample();
        assert_eq!(r.counter("mcmf.dijkstra_phases"), Some(7));
        assert_eq!(r.counter("missing"), None);
        assert_eq!(r.gauge("lac.alpha"), Some(0.5));
        assert_eq!(r.span("plan.route").unwrap().count, 1);
        assert_eq!(r.hist("net_len").unwrap().count(), 1);
    }

    #[test]
    fn fold_sums_nanoseconds_and_sets_running_counter_totals() {
        let close = |incl_ns| Record::SpanClose {
            name: "s".into(),
            depth: 0,
            incl_ns,
            excl_ns: incl_ns,
            mem_self_bytes: 0,
            mem_live_bytes: 0,
            mem_peak_bytes: 0,
            mem_allocs: 0,
        };
        let counter = |delta| Record::Counter {
            name: "c".into(),
            delta,
            total: delta,
        };
        let mut records = [close(1_500), close(500), counter(2), counter(3)];
        let mut r = Report::default();
        for record in &mut records {
            r.fold(record);
        }
        // 1.5 µs + 0.5 µs: no sub-microsecond part is lost.
        assert_eq!(r.span("s").map(|s| (s.count, s.incl_ns)), Some((2, 2_000)));
        assert!(matches!(records[3], Record::Counter { total: 5, .. }));
    }

    #[test]
    fn a_counted_hist_record_folds_as_that_many_samples() {
        let hist = |value, count| Record::Hist {
            name: "h".into(),
            value,
            count,
        };
        let (mut counted, mut single) = (Report::default(), Report::default());
        for (value, count) in [(1, 561), (3, 339), (0, 1), (u64::MAX, 2)] {
            counted.fold(&mut hist(value, count));
            for _ in 0..count {
                single.fold(&mut hist(value, 1));
            }
        }
        assert_eq!(counted.hists, single.hists);
        assert_eq!(counted.hist("h").map(Histogram::count), Some(903));
    }

    #[test]
    fn memory_columns_and_blocks_are_rendered() {
        let r = sample();
        assert_eq!(r.total_self_bytes(), 2048 - 512);
        let table = r.self_time_table();
        assert!(table.contains("self mem"), "{table}");
        assert!(table.contains("allocs"), "{table}");
        assert!(table.contains("-512"), "lac frees net 512 B: {table}");
        assert!(table.contains("2.0K"), "route allocates 2 KiB: {table}");
        assert!(table.contains("\nmem: live "), "{table}");
        let json = r.to_json();
        assert!(json.contains("\"self_bytes\":2048"), "{json}");
        assert!(json.contains("\"self_bytes\":-512"), "{json}");
        assert!(json.contains("\"allocs\":40"), "{json}");
        assert!(json.contains("\"mem\":{\"live_bytes\":"), "{json}");
        assert!(json.contains("\"peak_rss_bytes\":"), "{json}");
        let ranked = r.ranked_json();
        assert!(ranked.contains("\"total_self_bytes\":1536"), "{ranked}");
        assert!(ranked.contains("\"mem\":{\"live_bytes\":"), "{ranked}");
        assert!(ranked.contains("\"self_bytes\":-512"), "{ranked}");
    }

    #[test]
    fn byte_formatting_covers_all_magnitudes() {
        assert_eq!(fmt_bytes_signed(0), "0");
        assert_eq!(fmt_bytes_signed(482), "482");
        assert_eq!(fmt_bytes_signed(-482), "-482");
        assert_eq!(fmt_bytes_signed(2048), "2.0K");
        assert_eq!(fmt_bytes_signed(-(3 << 20) / 2), "-1.5M");
        assert_eq!(fmt_bytes_signed(5 << 30), "5.0G");
    }
}
