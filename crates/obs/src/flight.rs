//! The flight recorder: a bounded, always-on ring of recent records.
//!
//! The collector ([`crate::init`]) is opt-in — normal runs fly blind,
//! which is exactly when a panic, a degraded exit or a budget expiry
//! leaves nothing to debug with. The flight recorder closes that gap:
//! a fixed-capacity ring buffer that keeps the most recent records —
//! every [`crate::diag!`] line and every [`crate::event!`], plus the
//! full span/counter/gauge/histogram stream whenever a collector or a
//! request [`crate::scope`] records — and can be dumped as a JSONL
//! postmortem artifact at the moment something goes wrong.
//!
//! Three triggers dump automatically once a dump path is [`arm`]ed:
//!
//! 1. **panic** — [`install_panic_hook`] chains a dumping hook in front
//!    of the default one;
//! 2. **degraded exit** — the CLI dumps before exiting 3;
//! 3. **budget expiry** — `Budget::expired` dumps when its sticky latch
//!    first trips.
//!
//! The dump format is JSONL: a header line
//! `{"t":"flight","schema_version":1,"reason":...,"events":N,"dropped":M,"capacity":C}`
//! followed by one [`Record`] per line (same shape as `--metrics-out`
//! streams, but truncated to the ring — span opens/closes need not
//! balance). `check_metrics --flight` validates the contract. The
//! header's `capacity` is the effective ring size, so a postmortem
//! records whether it was taken with a tuned `LACR_FLIGHT_CAP`.
//!
//! Recording costs one atomic load plus a short mutexed push; set the
//! `LACR_FLIGHT=off` environment variable (or call [`set_enabled`]) to
//! disable it entirely, e.g. when measuring instrumentation overhead.

use crate::sink::Record;
use crate::Value;
use std::collections::VecDeque;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, Once, OnceLock};
use std::time::Instant;

/// Default ring capacity (records). Generous enough to hold the tail of
/// a planning run — every diag line, every event, and the last few
/// thousand span/metric records when a collector streams into it.
/// Override at startup with the `LACR_FLIGHT_CAP` environment variable
/// (bounds-checked to [`MIN_CAPACITY`]..=[`MAX_CAPACITY`]).
pub const DEFAULT_CAPACITY: usize = 4096;

/// Smallest accepted `LACR_FLIGHT_CAP` — below this a postmortem can't
/// even hold one request's span tree.
pub const MIN_CAPACITY: usize = 16;

/// Largest accepted `LACR_FLIGHT_CAP` — the ring is resident memory in
/// a long-lived daemon, so the ceiling is deliberate.
pub const MAX_CAPACITY: usize = 1 << 20;

/// The ring capacity `LACR_FLIGHT_CAP` requests: unset or unparsable
/// falls back to [`DEFAULT_CAPACITY`] (with a stderr note for garbage),
/// out-of-range values are clamped into
/// [`MIN_CAPACITY`]..=[`MAX_CAPACITY`].
fn capacity_from_env() -> usize {
    parse_capacity(std::env::var("LACR_FLIGHT_CAP").ok().as_deref())
}

/// The bounds-checking behind [`capacity_from_env`], split out so the
/// policy is testable without mutating process environment.
fn parse_capacity(raw: Option<&str>) -> usize {
    match raw {
        None => DEFAULT_CAPACITY,
        Some(raw) => match raw.trim().parse::<usize>() {
            Ok(n) => n.clamp(MIN_CAPACITY, MAX_CAPACITY),
            Err(_) => {
                eprintln!(
                    "[lacr] flight recorder: ignoring unparsable LACR_FLIGHT_CAP={raw:?} \
                     (using default {DEFAULT_CAPACITY})"
                );
                DEFAULT_CAPACITY
            }
        },
    }
}

struct Ring {
    buf: VecDeque<(u64, Record)>,
    cap: usize,
    /// Total records ever pushed (evicted ones included).
    pushed: u64,
    /// Where [`dump`] writes, once armed.
    dump_path: Option<PathBuf>,
}

fn ring() -> &'static Mutex<Ring> {
    static CELL: OnceLock<Mutex<Ring>> = OnceLock::new();
    CELL.get_or_init(|| {
        let cap = capacity_from_env();
        Mutex::new(Ring {
            buf: VecDeque::with_capacity(cap.min(DEFAULT_CAPACITY)),
            cap,
            pushed: 0,
            dump_path: None,
        })
    })
}

/// Postmortems written so far (any trigger, any path) — a liveness
/// signal for the daemon's stats snapshot: a rising dump count means
/// requests are panicking or degrading right now.
fn dumps() -> &'static AtomicU64 {
    static DUMPS: AtomicU64 = AtomicU64::new(0);
    &DUMPS
}

/// How many postmortem dumps this process has written.
pub fn dump_count() -> u64 {
    dumps().load(Ordering::Relaxed)
}

/// The ring's current capacity (records).
pub fn capacity() -> usize {
    lock().cap
}

fn lock() -> MutexGuard<'static, Ring> {
    // A panic while holding the lock must not wedge the panic hook.
    ring().lock().unwrap_or_else(|e| e.into_inner())
}

fn flag() -> &'static AtomicBool {
    static ENABLED: OnceLock<AtomicBool> = OnceLock::new();
    ENABLED.get_or_init(|| {
        let off = std::env::var("LACR_FLIGHT").is_ok_and(|v| v == "0" || v == "off");
        AtomicBool::new(!off)
    })
}

/// Whether the flight recorder is capturing (default: yes, unless the
/// `LACR_FLIGHT=off` environment variable disabled it at startup).
#[inline]
pub fn is_enabled() -> bool {
    flag().load(Ordering::Relaxed)
}

/// Turns capturing on or off at runtime (the ring keeps its contents).
pub fn set_enabled(on: bool) {
    flag().store(on, Ordering::Relaxed);
}

/// Microseconds since the recorder's own epoch (first use). Flight
/// timestamps are independent of the collector's install time so ring
/// entries stay monotone across collector installs.
pub fn ts_us() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_micros() as u64
}

/// Appends one record to the ring, evicting the oldest at capacity.
pub fn push(record: &Record) {
    if !is_enabled() {
        return;
    }
    let mut r = lock();
    // Stamped under the lock, so concurrent writers keep the ring in
    // timestamp order.
    let ts = ts_us();
    if r.cap == 0 {
        return;
    }
    while r.buf.len() >= r.cap {
        r.buf.pop_front();
    }
    r.buf.push_back((ts, record.clone()));
    r.pushed += 1;
}

/// Records a diagnostic line (what [`crate::diag!`] printed) as a
/// `diag` event in the ring.
pub fn note(msg: &str) {
    if !is_enabled() {
        return;
    }
    push(&Record::Event {
        name: "diag".to_string(),
        attrs: vec![("msg".to_string(), Value::Str(msg.to_string()))],
    });
}

/// Arms automatic dumping: [`dump`] (and the panic / budget-expiry /
/// degraded-exit triggers) will write the postmortem to `path`.
pub fn arm(path: impl Into<PathBuf>) {
    lock().dump_path = Some(path.into());
}

/// Disarms automatic dumping, returning the previously armed path.
pub fn disarm() -> Option<PathBuf> {
    lock().dump_path.take()
}

/// The currently armed dump path, if any.
pub fn armed() -> Option<PathBuf> {
    lock().dump_path.clone()
}

/// Resizes the ring (tests use small capacities to exercise
/// wraparound), evicting the oldest entries if it shrinks.
pub fn set_capacity(cap: usize) {
    let mut r = lock();
    r.cap = cap;
    while r.buf.len() > cap {
        r.buf.pop_front();
    }
}

/// Empties the ring and resets the pushed-records counter.
pub fn clear() {
    let mut r = lock();
    r.buf.clear();
    r.pushed = 0;
}

/// A copy of the ring's current contents, oldest first.
pub fn snapshot() -> Vec<(u64, Record)> {
    lock().buf.iter().cloned().collect()
}

/// Writes the postmortem JSONL to `path`: the header line, then one
/// record per line, oldest first. Parent directories are created.
///
/// # Errors
///
/// Any I/O error from creating or writing the file.
pub fn dump_to(path: &Path, reason: &str) -> std::io::Result<()> {
    let (events, dropped, cap) = {
        let r = lock();
        let events: Vec<(u64, Record)> = r.buf.iter().cloned().collect();
        let dropped = r.pushed.saturating_sub(events.len() as u64);
        (events, dropped, r.cap)
    };
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    // Memory state at dump time: postmortems from budget-expiry or panic
    // must show whether the run was memory-bound without a rerun.
    let mem = crate::mem::stats();
    let rss = crate::mem::peak_rss_bytes().unwrap_or(0);
    writeln!(
        out,
        "{{\"t\":\"flight\",\"schema_version\":{},\"reason\":\"{}\",\"events\":{},\"dropped\":{},\"capacity\":{},\"peak_rss_bytes\":{},\"mem\":{{\"live_bytes\":{},\"peak_bytes\":{},\"allocs\":{},\"deallocs\":{}}}}}",
        crate::SCHEMA_VERSION,
        crate::json_escape(reason),
        events.len(),
        dropped,
        cap,
        rss,
        mem.live_bytes,
        mem.peak_bytes,
        mem.allocs,
        mem.deallocs
    )?;
    for (ts, rec) in &events {
        writeln!(out, "{}", rec.to_json(*ts))?;
    }
    out.flush()?;
    dumps().fetch_add(1, Ordering::Relaxed);
    Ok(())
}

/// Best-effort dump to the armed path (no-op when unarmed). Returns the
/// path written; I/O errors are reported on stderr, not propagated —
/// this runs from panic hooks and exit paths that must not fail.
pub fn dump(reason: &str) -> Option<PathBuf> {
    let path = armed()?;
    match dump_to(&path, reason) {
        Ok(()) => Some(path),
        Err(e) => {
            eprintln!(
                "[lacr] flight recorder: cannot write {}: {e}",
                path.display()
            );
            None
        }
    }
}

/// A filesystem-safe rendering of a request tag: `[A-Za-z0-9._-]` kept,
/// everything else replaced with `-`, capped at 64 bytes, never empty.
fn sanitize_tag(tag: &str) -> String {
    let mut out: String = tag
        .chars()
        .take(64)
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-') {
                c
            } else {
                '-'
            }
        })
        .collect();
    if out.is_empty() {
        out.push_str("request");
    }
    out
}

/// The path a [`dump_tagged`] postmortem for `tag` would be written to:
/// `req-<sanitized tag>.jsonl` next to the armed dump path. `None` when
/// unarmed — tagged dumps share the arming switch with plain dumps.
pub fn tagged_path(tag: &str) -> Option<PathBuf> {
    let armed = armed()?;
    let file = format!("req-{}.jsonl", sanitize_tag(tag));
    Some(match armed.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir.join(file),
        _ => PathBuf::from(file),
    })
}

/// Best-effort dump namespaced by a request tag, so concurrent requests'
/// postmortems never clobber each other (or the one-shot armed path).
/// No-op when unarmed; I/O errors go to stderr, as with [`dump`].
pub fn dump_tagged(tag: &str, reason: &str) -> Option<PathBuf> {
    let path = tagged_path(tag)?;
    match dump_to(&path, reason) {
        Ok(()) => Some(path),
        Err(e) => {
            eprintln!(
                "[lacr] flight recorder: cannot write {}: {e}",
                path.display()
            );
            None
        }
    }
}

/// Installs a panic hook (once per process, chaining the previous hook)
/// that records the panic as an event and dumps the ring before the
/// default hook prints the backtrace. When the panicking thread has a
/// [`crate::scope::Scope`] attached (a daemon request), the dump goes to
/// that request's tagged path so concurrent postmortems never collide;
/// otherwise it goes to the plain armed path.
pub fn install_panic_hook() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            push(&Record::Event {
                name: "panic".to_string(),
                attrs: vec![("info".to_string(), Value::Str(info.to_string()))],
            });
            let reason = format!("panic: {info}");
            let written = match crate::scope::current() {
                Some(scope) => dump_tagged(scope.label(), &reason),
                None => dump(&reason),
            };
            if let Some(path) = written {
                eprintln!("[lacr] flight recorder dumped to {}", path.display());
            }
            prev(info);
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes tests that reconfigure the global ring.
    fn gate() -> MutexGuard<'static, ()> {
        static GATE: Mutex<()> = Mutex::new(());
        GATE.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn marker(i: u64) -> Record {
        Record::Hist {
            name: "flight.test.marker".to_string(),
            value: i,
            count: 1,
        }
    }

    fn marker_values(snap: &[(u64, Record)]) -> Vec<u64> {
        snap.iter()
            .filter_map(|(_, r)| match r {
                Record::Hist { name, value, .. } if name == "flight.test.marker" => Some(*value),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn ring_wraps_and_keeps_the_most_recent() {
        let _g = gate();
        set_capacity(8);
        clear();
        for i in 0..100u64 {
            push(&marker(i));
        }
        let snap = snapshot();
        assert!(snap.len() <= 8, "ring exceeded capacity: {}", snap.len());
        let kept = marker_values(&snap);
        // The survivors are the most recent markers, in push order.
        assert_eq!(kept, (100 - kept.len() as u64..100).collect::<Vec<_>>());
        set_capacity(DEFAULT_CAPACITY);
    }

    #[test]
    fn concurrent_writers_never_exceed_capacity() {
        let _g = gate();
        set_capacity(64);
        clear();
        std::thread::scope(|s| {
            for t in 0..8u64 {
                s.spawn(move || {
                    for i in 0..500u64 {
                        push(&marker(t * 1_000 + i));
                    }
                });
            }
        });
        let snap = snapshot();
        assert!(snap.len() <= 64);
        // Timestamps are monotone non-decreasing, oldest first.
        assert!(snap.windows(2).all(|w| w[0].0 <= w[1].0));
        // Every writer's final marker is newer than anything evicted:
        // at least the last few pushes survived.
        assert!(!marker_values(&snap).is_empty());
        set_capacity(DEFAULT_CAPACITY);
    }

    #[test]
    fn dump_writes_header_and_records() {
        let _g = gate();
        set_capacity(16);
        clear();
        for i in 0..5u64 {
            push(&marker(i));
        }
        note("something interesting");
        let path = std::env::temp_dir().join(format!(
            "lacr_flight_unit_{}_{:?}.jsonl",
            std::process::id(),
            std::thread::current().id()
        ));
        dump_to(&path, "unit \"test\"").expect("dump writes");
        let text = std::fs::read_to_string(&path).expect("dump readable");
        let mut lines = text.lines();
        let header = lines.next().expect("header line");
        assert!(header.starts_with("{\"t\":\"flight\""), "{header}");
        assert!(header.contains("\"schema_version\":"), "{header}");
        assert!(header.contains("unit \\\"test\\\""), "{header}");
        // Postmortem memory state: allocator counters + peak RSS.
        assert!(header.contains("\"peak_rss_bytes\":"), "{header}");
        assert!(header.contains("\"mem\":{\"live_bytes\":"), "{header}");
        assert!(header.contains("\"peak_bytes\":"), "{header}");
        assert!(header.contains("\"allocs\":"), "{header}");
        // Header "events" count matches the body.
        let body: Vec<&str> = lines.collect();
        assert!(header.contains(&format!("\"events\":{}", body.len())));
        assert!(body.iter().any(|l| l.contains("flight.test.marker")));
        assert!(body.iter().any(|l| l.contains("something interesting")));
        let _ = std::fs::remove_file(&path);
        set_capacity(DEFAULT_CAPACITY);
    }

    #[test]
    fn env_capacity_is_bounds_checked() {
        assert_eq!(parse_capacity(None), DEFAULT_CAPACITY);
        assert_eq!(parse_capacity(Some("1024")), 1024);
        assert_eq!(parse_capacity(Some(" 64 ")), 64);
        // Out of range: clamped, not rejected.
        assert_eq!(parse_capacity(Some("1")), MIN_CAPACITY);
        assert_eq!(parse_capacity(Some("0")), MIN_CAPACITY);
        assert_eq!(parse_capacity(Some("999999999999")), MAX_CAPACITY);
        // Garbage: the default, never a panic.
        assert_eq!(parse_capacity(Some("lots")), DEFAULT_CAPACITY);
        assert_eq!(parse_capacity(Some("-5")), DEFAULT_CAPACITY);
        assert_eq!(parse_capacity(Some("")), DEFAULT_CAPACITY);
    }

    #[test]
    fn dump_header_records_effective_capacity_and_counts_dumps() {
        let _g = gate();
        set_capacity(32);
        clear();
        push(&marker(1));
        let path = std::env::temp_dir().join(format!(
            "lacr_flight_cap_{}_{:?}.jsonl",
            std::process::id(),
            std::thread::current().id()
        ));
        let before = dump_count();
        dump_to(&path, "capacity check").expect("dump writes");
        let text = std::fs::read_to_string(&path).expect("dump readable");
        let header = text.lines().next().expect("header line");
        assert!(header.contains("\"capacity\":32"), "{header}");
        assert_eq!(dump_count(), before + 1);
        let _ = std::fs::remove_file(&path);
        set_capacity(DEFAULT_CAPACITY);
    }

    #[test]
    fn disabled_recorder_drops_records() {
        let _g = gate();
        clear();
        set_enabled(false);
        push(&marker(1));
        note("invisible");
        assert!(marker_values(&snapshot()).is_empty());
        set_enabled(true);
        push(&marker(2));
        assert_eq!(marker_values(&snapshot()), vec![2]);
        clear();
    }

    #[test]
    fn tagged_dumps_for_two_requests_never_collide() {
        let _g = gate();
        clear();
        let dir = std::env::temp_dir().join(format!(
            "lacr_flight_collide_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        // Unarmed: tagged dumps are no-ops, like plain dumps.
        let saved = disarm();
        assert!(tagged_path("req-1").is_none());
        assert!(dump_tagged("req-1", "unarmed").is_none());
        arm(dir.join("last-run.jsonl"));

        push(&marker(1));
        let p1 = dump_tagged("req-1", "first request").expect("req-1 dump");
        push(&marker(2));
        let p2 = dump_tagged("req/2:odd id", "second request").expect("req-2 dump");
        assert_ne!(p1, p2, "two requests must get distinct postmortems");
        assert_eq!(p1, dir.join("req-req-1.jsonl"));
        assert_eq!(p2, dir.join("req-req-2-odd-id.jsonl"));

        // The first request's postmortem survives the second's dump.
        let t1 = std::fs::read_to_string(&p1).expect("req-1 readable");
        let t2 = std::fs::read_to_string(&p2).expect("req-2 readable");
        assert!(t1.contains("\"first request\""), "{t1}");
        assert!(t2.contains("\"second request\""), "{t2}");

        disarm();
        if let Some(p) = saved {
            arm(p);
        }
        let _ = std::fs::remove_dir_all(&dir);
        clear();
    }

    #[test]
    fn tag_sanitization_is_filesystem_safe() {
        assert_eq!(sanitize_tag("abc-123_X.y"), "abc-123_X.y");
        assert_eq!(sanitize_tag("../../etc/passwd"), "..-..-etc-passwd");
        assert_eq!(sanitize_tag(""), "request");
        assert!(sanitize_tag(&"x".repeat(200)).len() <= 64);
    }

    #[test]
    fn arm_disarm_roundtrip_and_unarmed_dump_is_noop() {
        let _g = gate();
        let _ = disarm(); // start clean
        assert!(dump("nothing armed").is_none());
        arm("/tmp/somewhere.jsonl");
        assert_eq!(armed(), Some(PathBuf::from("/tmp/somewhere.jsonl")));
        assert_eq!(disarm(), Some(PathBuf::from("/tmp/somewhere.jsonl")));
        assert!(armed().is_none());
    }
}
