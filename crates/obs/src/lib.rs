//! Zero-dependency observability for the whole planning pipeline.
//!
//! The planner is a stack of iterative searches — annealer moves, rip-up
//! routing passes, min-cost-flow augmentations, LAC re-weight rounds —
//! and tuning any of them needs to see where wall-clock goes and how
//! many iterations each stage burns. This crate provides that without
//! pulling in `tracing`/`metrics`/`serde`: like `lacr-prng`, it is
//! dependency-free by design so the workspace stays hermetic.
//!
//! Five pieces live here:
//!
//! * **Spans** — [`span!`] opens an RAII-timed region
//!   (`let _g = span!("lac.round", round = r);`). Nested spans track
//!   *exclusive* time (inclusive minus time spent in child spans) via a
//!   thread-local stack, so a self-time profile falls out of the
//!   aggregates.
//! * **Metrics** — [`counter!`] (monotonic sums), [`gauge!`] (last
//!   value wins) and [`histogram!`] (power-of-two buckets, see
//!   [`Histogram`]).
//! * **Sinks** — every span open/close, counter update and event is
//!   forwarded to a pluggable [`Sink`]: [`NullSink`] (aggregation
//!   only), [`StderrSink`] (`--trace` pretty-printer), [`JsonlSink`]
//!   (`--metrics-out` machine-readable stream) or [`CaptureSink`]
//!   (tests).
//! * **Diagnostics** — [`diag!`] replaces ad-hoc `eprintln!` progress
//!   messages: uniformly `[lacr]`-prefixed, and silenced wholesale by
//!   [`set_diag_level`]`(DiagLevel::Silent)` (the CLI's `--quiet`).
//! * **Flight recorder** — [`flight`] keeps a bounded, always-on ring
//!   of recent records (every diag line and event, plus the full record
//!   stream while a collector or a request [`scope`] records) and dumps
//!   it as a JSONL postmortem on panic, degraded exit, or budget expiry.
//!
//! Every record takes one path. The span guard and the metric and event
//! functions each build a [`Record`] and hand it to one private `emit`.
//! It folds the record into the request [`scope`] attached to the
//! current thread, then into the global collector, whose sink it
//! reaches next, and last pushes it to the flight ring. A scope and the
//! collector aggregate alike: each holds one [`Report`].
//!
//! The tracer is *globally* installed ([`init`] / [`finish`]) and
//! thread-safe (one mutexed collector). When neither a collector nor a
//! scope records, the span/counter/gauge/histogram macros reduce to a
//! relaxed atomic load and a thread-local read, so instrumentation left
//! in hot loops costs nothing in normal runs; [`event!`] and [`diag!`]
//! additionally feed the flight recorder (events are rare by contract —
//! round results, degradations, budget expiry — never per-iteration).

pub mod flight;
pub mod hist;
pub mod mem;
pub mod report;
pub mod scope;
pub mod sink;
pub mod window;

pub use hist::Histogram;
pub use mem::{MemDelta, MemStats};
pub use report::{Report, SpanStat};
pub use sink::{json_escape, CaptureSink, JsonlSink, NullSink, Record, Sink, StderrSink, TeeSink};
pub use window::{SlidingWindow, WindowSnapshot};

/// The counting allocator ([`mem`]) is installed here, in the crate
/// every workspace binary links, so live/peak/alloc counters and
/// per-thread attribution deltas are available everywhere without
/// per-binary ceremony.
#[global_allocator]
static GLOBAL_ALLOC: mem::CountingAlloc = mem::CountingAlloc;

/// Version stamped into every machine-readable artifact this workspace
/// emits — the JSONL summary line, `BENCH_*.json` / `RUN_*.json` perf
/// records, and flight-recorder postmortems. Consumers (`check_metrics`,
/// `bench_compare`) reject artifacts without it.
///
/// History: 1 = original span/quality schema; 2 = memory observability
/// (span records carry `mem.*` fields, reports/artifacts carry `mem`
/// blocks). Consumers accept artifacts at or below their own version,
/// so version-1 baselines stay comparable.
pub const SCHEMA_VERSION: u32 = 2;

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Instant;

/// A typed attribute value attached to spans and events.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Signed integer.
    Int(i64),
    /// Unsigned integer.
    Uint(u64),
    /// Floating point.
    Float(f64),
    /// Boolean.
    Bool(bool),
    /// String.
    Str(String),
}

impl std::fmt::Display for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Uint(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Bool(v) => write!(f, "{v}"),
            Value::Str(v) => write!(f, "{v}"),
        }
    }
}

impl Value {
    /// Renders the value as a JSON fragment (numbers and booleans bare,
    /// strings escaped and quoted; non-finite floats become `null`).
    pub fn to_json(&self) -> String {
        match self {
            Value::Int(v) => v.to_string(),
            Value::Uint(v) => v.to_string(),
            Value::Float(v) if v.is_finite() => v.to_string(),
            Value::Float(_) => "null".to_string(),
            Value::Bool(v) => v.to_string(),
            Value::Str(v) => format!("\"{}\"", json_escape(v)),
        }
    }
}

macro_rules! value_from {
    ($($ty:ty => $variant:ident as $conv:ty),* $(,)?) => {
        $(impl From<$ty> for Value {
            fn from(v: $ty) -> Self { Value::$variant(v as $conv) }
        })*
    };
}
value_from!(
    i32 => Int as i64,
    i64 => Int as i64,
    u32 => Uint as u64,
    u64 => Uint as u64,
    usize => Uint as u64,
    f32 => Float as f64,
    f64 => Float as f64,
);

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

// ---------------------------------------------------------------------
// Global collector
// ---------------------------------------------------------------------

/// Fast-path flag: `true` iff a collector is installed. Every macro
/// checks this first, so disabled instrumentation costs one relaxed
/// atomic load.
static ENABLED: AtomicBool = AtomicBool::new(false);

struct Collector {
    sink: Box<dyn Sink + Send>,
    start: Instant,
    agg: Report,
}

fn cell() -> &'static Mutex<Option<Collector>> {
    static CELL: OnceLock<Mutex<Option<Collector>>> = OnceLock::new();
    CELL.get_or_init(|| Mutex::new(None))
}

fn lock() -> MutexGuard<'static, Option<Collector>> {
    // A panic while holding the lock must not wedge every later run.
    cell().lock().unwrap_or_else(|e| e.into_inner())
}

/// Whether a collector is installed. The macros check this before
/// evaluating any attribute expressions.
#[inline]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Whether anything is recording right now: the global collector
/// ([`is_enabled`]) or a per-request [`scope`] attached to the current
/// thread. This is the macros' gate, so instrumentation fires for a
/// scoped request even when the process-wide collector is off (the
/// serve daemon's default), at the cost of one extra thread-local read
/// on the disabled fast path.
#[inline]
pub fn recording() -> bool {
    is_enabled() || scope::active()
}

/// Installs `sink` as the global collector and enables the macros.
/// Replaces (and finishes) any previously installed collector.
pub fn init(sink: Box<dyn Sink + Send>) {
    let mut guard = lock();
    if let Some(mut old) = guard.take() {
        old.sink.summary(&old.agg.stamped());
        old.sink.flush();
    }
    *guard = Some(Collector {
        sink,
        start: Instant::now(),
        agg: Report::default(),
    });
    ENABLED.store(true, Ordering::Relaxed);
}

/// Uninstalls the collector: emits the summary record to the sink,
/// flushes it, and returns the aggregated [`Report`] (`None` if no
/// collector was installed).
pub fn finish() -> Option<Report> {
    let mut guard = lock();
    ENABLED.store(false, Ordering::Relaxed);
    let mut collector = guard.take()?;
    let report = collector.agg.stamped();
    collector.sink.summary(&report);
    collector.sink.flush();
    Some(report)
}

/// Clones the current aggregates without uninstalling the collector.
pub fn snapshot() -> Option<Report> {
    lock().as_ref().map(|c| c.agg.clone().stamped())
}

/// Returns the current aggregates and resets them to zero, keeping the
/// sink installed. Bench drivers use this to carve per-circuit records
/// out of one long-lived collector.
pub fn take_snapshot() -> Option<Report> {
    let mut guard = lock();
    Some(std::mem::take(&mut guard.as_mut()?.agg).stamped())
}

/// The one record path: folds `record` into the current thread's
/// [`scope`] (if attached), then into the collector and its sink (if
/// installed), and pushes it to the [`flight`] ring.
fn emit(mut record: Record) {
    if let Some(scope) = scope::current() {
        scope.fold(&mut record);
    }
    if let Some(c) = lock().as_mut() {
        // Folded last, so a streamed counter `total` is the collector's.
        c.agg.fold(&mut record);
        let ts = c.start.elapsed().as_micros() as u64;
        c.sink.record(ts, &record);
    }
    flight::push(&record);
}

fn owned_attrs(attrs: &[(&'static str, Value)]) -> Vec<(String, Value)> {
    attrs
        .iter()
        .map(|(k, v)| (k.to_string(), v.clone()))
        .collect()
}

/// Adds `delta` to the named counter. Prefer the [`counter!`] macro,
/// which short-circuits when nothing is recording.
pub fn add_counter(name: &str, delta: i64) {
    emit(Record::Counter {
        name: name.to_string(),
        delta,
        total: delta,
    });
}

/// Sets the named gauge (last value wins). Prefer [`gauge!`].
pub fn set_gauge(name: &str, value: f64) {
    emit(Record::Gauge {
        name: name.to_string(),
        value,
    });
}

/// Records `count` samples of `value` into the named power-of-two
/// histogram. Prefer [`histogram!`].
pub fn record_hist(name: &str, value: u64, count: u64) {
    emit(Record::Hist {
        name: name.to_string(),
        value,
        count,
    });
}

/// Emits a point-in-time structured event. Prefer [`event!`], which
/// also fires when only the flight recorder is on — events are rare
/// and forensically dense (degradations, budget expiry, round results).
pub fn emit_event(name: &str, attrs: &[(&'static str, Value)]) {
    emit(Record::Event {
        name: name.to_string(),
        attrs: owned_attrs(attrs),
    });
}

/// Whether the flight recorder is capturing (see [`flight`]); the
/// [`event!`] macro checks this alongside [`is_enabled`].
#[inline]
pub fn flight_on() -> bool {
    flight::is_enabled()
}

// ---------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------

/// One open span's bookkeeping frame: child-inclusive accumulators for
/// time and memory, so the closing span can compute its exclusive
/// (self) share as `inclusive - children` — identical semantics for
/// nanoseconds and bytes.
#[derive(Default)]
struct SpanFrame {
    /// Inclusive nanoseconds of direct children.
    child_ns: u64,
    /// This thread's allocator counters when the span opened. They
    /// include worker bytes a parallel region credits to this thread
    /// ([`mem::credit_foreign`]).
    start_mem: Option<mem::ThreadMark>,
    /// Inclusive memory deltas of direct children.
    child_mem: MemDelta,
}

thread_local! {
    /// Per-thread stack of open spans: each frame accumulates the
    /// inclusive time and memory of its direct children, so a closing
    /// span can compute its exclusive share as `inclusive - children`.
    static SPAN_STACK: RefCell<Vec<SpanFrame>> = const { RefCell::new(Vec::new()) };
}

/// An RAII span guard: created by [`span!`], records inclusive and
/// exclusive wall-clock time into the aggregates when dropped.
#[must_use = "a span measures the region it is alive for; bind it to a variable"]
pub struct Span {
    name: &'static str,
    start: Option<Instant>,
}

impl Span {
    /// A no-op span (what [`span!`] returns when tracing is disabled).
    pub fn disabled() -> Self {
        Span {
            name: "",
            start: None,
        }
    }

    /// Opens a span: pushes a frame on the thread-local stack and emits
    /// a `span_open` record.
    pub fn enter(name: &'static str, attrs: &[(&'static str, Value)]) -> Self {
        if !recording() {
            return Self::disabled();
        }
        let depth = SPAN_STACK.with(|s| {
            let mut s = s.borrow_mut();
            s.push(SpanFrame {
                start_mem: Some(mem::thread_mark()),
                ..SpanFrame::default()
            });
            s.len() - 1
        });
        emit(Record::SpanOpen {
            name: name.to_string(),
            depth,
            attrs: owned_attrs(attrs),
        });
        Span {
            name,
            start: Some(Instant::now()),
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let incl_ns = start.elapsed().as_nanos() as u64;
        let (child_ns, self_mem, self_bytes, depth) = SPAN_STACK.with(|s| {
            let mut s = s.borrow_mut();
            let frame = s.pop().unwrap_or_default();
            // Inclusive memory is this thread's delta over the span
            // window (worker credit included); exclusive (self) memory
            // subtracts direct children, the same arithmetic as
            // exclusive time.
            let incl_mem = frame
                .start_mem
                .as_ref()
                .map(mem::ThreadMark::delta)
                .unwrap_or_default();
            let self_mem = incl_mem.saturating_sub(&frame.child_mem);
            let self_bytes = incl_mem.net_bytes() - frame.child_mem.net_bytes();
            if let Some(parent) = s.last_mut() {
                parent.child_ns += incl_ns;
                parent.child_mem.add(&incl_mem);
            }
            (frame.child_ns, self_mem, self_bytes, s.len())
        });
        // Live is loaded before peak so `peak >= live` holds within
        // this record (the peak counter only grows).
        let live = mem::live_bytes();
        emit(Record::SpanClose {
            name: self.name.to_string(),
            depth,
            incl_ns,
            excl_ns: incl_ns.saturating_sub(child_ns),
            mem_self_bytes: self_bytes,
            mem_live_bytes: live,
            mem_peak_bytes: mem::peak_bytes().max(live),
            mem_allocs: self_mem.allocs,
        });
    }
}

// ---------------------------------------------------------------------
// Macros
// ---------------------------------------------------------------------

/// Opens an RAII-timed span: `let _g = span!("plan.route");` or with
/// attributes, `let _g = span!("lac.round", round = r, n_foa = n);`.
/// Attribute expressions are not evaluated when tracing is disabled.
#[macro_export]
macro_rules! span {
    ($name:expr $(, $k:ident = $v:expr)* $(,)?) => {
        if $crate::recording() {
            $crate::Span::enter($name, &[$((stringify!($k), $crate::Value::from($v))),*])
        } else {
            $crate::Span::disabled()
        }
    };
}

/// Adds to a monotonic counter: `counter!("mcmf.ssp_iterations", n);`.
#[macro_export]
macro_rules! counter {
    ($name:expr, $delta:expr) => {
        if $crate::recording() {
            $crate::add_counter($name, ($delta) as i64);
        }
    };
}

/// Sets a gauge (last value wins): `gauge!("quality.route_overflow", ov);`.
#[macro_export]
macro_rules! gauge {
    ($name:expr, $value:expr) => {
        if $crate::recording() {
            $crate::set_gauge($name, ($value) as f64);
        }
    };
}

/// Records a sample into a power-of-two histogram,
/// `histogram!("req.size_us", us);`, or `count` samples of one value in
/// one record, `histogram!("quality.ff_relocation", lag, count);`.
#[macro_export]
macro_rules! histogram {
    ($name:expr, $value:expr) => {
        $crate::histogram!($name, $value, 1)
    };
    ($name:expr, $value:expr, $count:expr) => {
        if $crate::recording() {
            $crate::record_hist($name, ($value) as u64, ($count) as u64);
        }
    };
}

/// Emits a point-in-time structured event:
/// `event!("degradation", stage = "lac", reason = msg);`.
///
/// Events also feed the flight recorder, so they fire whenever either
/// the collector or the recorder is on. Keep them rare (round results,
/// degradations — never per inner iteration): unlike the other macros
/// their attributes are evaluated in default runs.
#[macro_export]
macro_rules! event {
    ($name:expr $(, $k:ident = $v:expr)* $(,)?) => {
        if $crate::recording() || $crate::flight_on() {
            $crate::emit_event($name, &[$((stringify!($k), $crate::Value::from($v))),*]);
        }
    };
}

// ---------------------------------------------------------------------
// Diagnostics (always-on progress/warning channel)
// ---------------------------------------------------------------------

/// How chatty the human-facing diagnostic channel is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum DiagLevel {
    /// Print nothing (`--quiet`).
    Silent = 0,
    /// Print progress and warnings (the default).
    Normal = 1,
}

static DIAG_LEVEL: AtomicU8 = AtomicU8::new(DiagLevel::Normal as u8);

/// Sets the global diagnostic level. The CLI maps `--quiet` to
/// [`DiagLevel::Silent`].
pub fn set_diag_level(level: DiagLevel) {
    DIAG_LEVEL.store(level as u8, Ordering::Relaxed);
}

/// Whether [`diag!`] currently prints.
#[inline]
pub fn diag_on() -> bool {
    DIAG_LEVEL.load(Ordering::Relaxed) >= DiagLevel::Normal as u8
}

#[doc(hidden)]
pub fn diag_print(args: std::fmt::Arguments<'_>) {
    let msg = args.to_string();
    flight::note(&msg);
    eprintln!("[lacr] {msg}");
}

/// Prints a uniformly `[lacr]`-prefixed diagnostic line to stderr,
/// unless the level is [`DiagLevel::Silent`]. This is the replacement
/// for ad-hoc `eprintln!` progress messages: formatting is skipped
/// entirely when silenced.
#[macro_export]
macro_rules! diag {
    ($($arg:tt)*) => {
        if $crate::diag_on() {
            $crate::diag_print(core::format_args!($($arg)*));
        }
    };
}

/// FNV-1a, 64-bit: the workspace's zero-dependency content hash (serve
/// cache keys, plan digests, pinned test digests). It is not collision
/// resistant: a caller that needs equality compares the full bytes.
pub fn fnv1a64(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

// ---------------------------------------------------------------------
// Test support
// ---------------------------------------------------------------------

/// Runs `f` with a [`CaptureSink`] installed and returns `f`'s result,
/// the captured records, and the final report. Captures are serialized
/// by an internal mutex so parallel tests do not interleave their
/// global collectors.
pub fn run_captured<T>(f: impl FnOnce() -> T) -> (T, Vec<(u64, Record)>, Report) {
    static CAPTURE_GATE: Mutex<()> = Mutex::new(());
    let _gate = CAPTURE_GATE.lock().unwrap_or_else(|e| e.into_inner());
    let (sink, store) = CaptureSink::new();
    init(Box::new(sink));
    let out = f();
    let report = finish().expect("collector was installed");
    let records = store.lock().unwrap_or_else(|e| e.into_inner()).clone();
    (out, records, report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a64_matches_the_reference_vectors() {
        assert_eq!(fnv1a64(*b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(*b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64("foobar".bytes()), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn empty_capture_records_nothing() {
        let (_, records, report) = run_captured(|| {
            // Disabled guards are inert and safe to drop.
            drop(Span::disabled());
        });
        assert!(records.is_empty());
        assert!(report.spans.is_empty());
        assert!(report.counters.is_empty());
    }

    #[test]
    fn counters_gauges_and_events_aggregate() {
        let ((), records, report) = run_captured(|| {
            counter!("a.count", 2);
            counter!("a.count", 3);
            gauge!("a.gauge", 1.5);
            gauge!("a.gauge", 2.5);
            event!("hello", who = "world", n = 3_u64);
        });
        assert_eq!(report.counter("a.count"), Some(5));
        assert_eq!(report.gauge("a.gauge"), Some(2.5));
        let ev = records
            .iter()
            .find_map(|(_, r)| match r {
                Record::Event { name, attrs } if name == "hello" => Some(attrs.clone()),
                _ => None,
            })
            .expect("event captured");
        assert_eq!(ev[0], ("who".to_string(), Value::Str("world".into())));
        assert_eq!(ev[1], ("n".to_string(), Value::Uint(3)));
    }

    #[test]
    fn nested_spans_account_exclusive_time() {
        let ((), _, report) = run_captured(|| {
            let _outer = span!("outer");
            std::thread::sleep(std::time::Duration::from_millis(4));
            {
                let _inner = span!("inner");
                std::thread::sleep(std::time::Duration::from_millis(8));
            }
        });
        let outer = report.span("outer").expect("outer recorded");
        let inner = report.span("inner").expect("inner recorded");
        assert_eq!(outer.count, 1);
        assert_eq!(inner.count, 1);
        // Inner has no children: exclusive == inclusive.
        assert_eq!(inner.incl_ns, inner.excl_ns);
        // Outer's inclusive covers the inner span; its exclusive does not.
        assert!(outer.incl_ns >= inner.incl_ns);
        assert_eq!(outer.excl_ns, outer.incl_ns - inner.incl_ns);
        // Exclusive times partition the total wall-clock.
        assert_eq!(outer.excl_ns + inner.excl_ns, outer.incl_ns);
    }

    #[test]
    fn sibling_spans_both_charge_the_parent() {
        let ((), _, report) = run_captured(|| {
            let _p = span!("p");
            for _ in 0..2 {
                let _c = span!("c");
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        });
        let p = report.span("p").expect("p");
        let c = report.span("c").expect("c");
        assert_eq!(c.count, 2);
        assert_eq!(p.excl_ns, p.incl_ns - c.incl_ns);
    }

    #[test]
    fn span_closes_carry_a_peak_at_least_live() {
        let ((), records, _) = run_captured(|| {
            let _outer = span!("outer");
            let kept = vec![0_u8; 1 << 16];
            {
                let _inner = span!("inner");
                std::hint::black_box(vec![1_u64; 1 << 12]);
            }
            std::hint::black_box(kept);
        });
        let closes: Vec<(u64, u64)> = records
            .iter()
            .filter_map(|(_, r)| match r {
                Record::SpanClose {
                    mem_live_bytes,
                    mem_peak_bytes,
                    ..
                } => Some((*mem_live_bytes, *mem_peak_bytes)),
                _ => None,
            })
            .collect();
        assert_eq!(closes.len(), 2);
        for (live, peak) in closes {
            assert!(peak >= live, "peak {peak} < live {live}");
        }
    }

    #[test]
    fn take_snapshot_resets_aggregates() {
        let ((), _, report) = run_captured(|| {
            counter!("x", 7);
            let mid = take_snapshot().expect("installed");
            assert_eq!(mid.counter("x"), Some(7));
            counter!("x", 1);
        });
        assert_eq!(report.counter("x"), Some(1));
    }

    #[test]
    fn value_json_fragments() {
        assert_eq!(Value::from(3_i64).to_json(), "3");
        assert_eq!(Value::from(true).to_json(), "true");
        assert_eq!(Value::from(f64::NAN).to_json(), "null");
        assert_eq!(Value::from("a\"b").to_json(), "\"a\\\"b\"");
    }
}
