//! `lacr serve` — a long-lived, fault-isolated planning daemon.
//!
//! The one-shot CLI plans a circuit and exits; this crate keeps the
//! planner resident and feeds it line-delimited JSON requests (see
//! [`protocol`]) from stdin or a Unix socket, answering one JSON line
//! per request. The three robustness layers, in admission order:
//!
//! 1. **Admission control** — requests are parsed on their connection's
//!    accept thread and submitted to a bounded [`lacr_par::Pool`]; a
//!    full queue sheds the request with `rejected: overloaded` instead
//!    of queueing unboundedly, and over-long lines are discarded unread
//!    (`rejected: oversized`). Each request's [`Budget`] deadline is
//!    created at admission, so time spent queued counts against it.
//! 2. **Fault isolation** — each request runs under `catch_unwind`
//!    with a [`lacr_obs::scope::Scope`] labelled by its id attached to
//!    the worker: spans, counters and `quality.*` gauges aggregate per
//!    request, and a panic dumps a flight-recorder postmortem to the
//!    request-tagged path (`req-<id>.jsonl`), answers `error:
//!    {kind: panic}`, and leaves the daemon (and its worker) alive.
//! 3. **Graceful shutdown** — EOF, `{"cmd":"shutdown"}`, SIGINT or
//!    SIGTERM stop admission, reject late arrivals with `rejected:
//!    shutting-down`, drain every admitted request to a response, flush
//!    and exit 0.
//!
//! **One pool, many connections.** In `--socket` mode every accepted
//! connection shares the *same* [`Pool`] and `Session`: connection
//! threads are thin readers that parse lines and submit jobs tagged
//! with their connection's output handle, so responses route back to
//! the stream that issued the request. `--workers` and `--queue-cap`
//! are therefore **global invariants** — N clients never multiply the
//! worker count by N, shed decisions reflect *total* load, and
//! shutdown drains exactly one pool. `--max-connections` bounds the
//! accept side the same way the queue bounds admission: an over-limit
//! connection is answered with one `rejected: connection-limit` line
//! and closed. A shed connection is a connection event, not a request:
//! it counts in `connections.shed_total` only, never in
//! `requests.received` or `requests.rejected`, so every snapshot keeps
//! `completed + rejected ≤ received`.
//!
//! **The plan cache.** Identical requests (same canonicalised netlist,
//! same effective seed and budget class) are answered from a bounded
//! LRU cache (see [`cache`]) with `cached: true` and the entry's age;
//! correctness is pinned by the cache key carrying the full canonical
//! netlist text, and only reproducible (non-degraded, fault-free)
//! results are stored.
//!
//! On top sits **live introspection**: a `{"cmd":"stats"}` line answers
//! (on the connection's accept thread, so it works even with every
//! worker wedged) with one daemon-wide telemetry snapshot — uptime,
//! requests by status, the shared pool's gauges and rolling latency
//! percentiles, cache and connection counters, and the flight
//! recorder's dump count — and `--stats-interval-ms` emits the same
//! snapshot to stderr on a drift-free timer (scheduled off the previous
//! deadline, not the previous emission). Status counts are kept under
//! one lock ([`protocol::StatusCounts`]), so a snapshot is always
//! internally consistent even while requests are in flight.
//!
//! Valid requests produce plan summaries byte-identical to the one-shot
//! `lacr plan` output: both front ends render the same
//! [`lacr_core::summary::PlanSummary`].

pub mod cache;
pub mod protocol;

use cache::{CachedPlan, PlanCache};
use lacr_core::planner::{try_build_physical_plan, try_plan_retimings, PlannerConfig};
use lacr_core::summary::{summarize, PlanSummary};
use lacr_core::Budget;
use lacr_netlist::{bench89, bench_format, Circuit};
use lacr_obs::scope::Scope;
use lacr_par::{Pool, PoolStats, SubmitError};
use protocol::{ConnCounts, LineRead, Parsed, Request, Spec, StatusCounts};
use std::collections::BTreeMap;
use std::io::{BufRead, Write};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Daemon sizing and limits.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Resident planner workers (shared by every connection).
    pub workers: usize,
    /// Bounded request queue (pending, not counting in-flight; shared).
    pub queue_capacity: usize,
    /// Budget applied to requests that don't carry `budget_ms`.
    pub default_budget_ms: Option<u64>,
    /// Request lines longer than this are shed unread.
    pub max_line_bytes: usize,
    /// Emit a stats snapshot line to stderr this often (off when
    /// `None`). The line is the same JSON as a `{"cmd":"stats"}`
    /// response, so operators can tail stderr into the same tooling.
    pub stats_interval_ms: Option<u64>,
    /// Plan-cache entry cap (0 disables the cache).
    pub cache_entries: usize,
    /// Plan-cache approximate byte cap (0 disables the cache).
    pub cache_bytes: usize,
    /// Socket-mode connection cap (0 = unlimited). Connections over the
    /// cap are answered `rejected: connection-limit` and closed.
    pub max_connections: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            workers: 4,
            queue_capacity: 64,
            default_budget_ms: None,
            max_line_bytes: protocol::DEFAULT_MAX_LINE_BYTES,
            stats_interval_ms: None,
            cache_entries: 128,
            cache_bytes: 16 << 20,
            max_connections: 64,
        }
    }
}

/// What one serve session did. Requests received, answered and shed
/// are in `counts`; requests admitted are `pool.completed_total`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Admitted requests that panicked (isolated, answered as errors).
    pub panics: u64,
    /// Whether the session ended on an explicit shutdown (command or
    /// signal) rather than plain end of input.
    pub shutdown: bool,
    /// Final per-status response counts (the same view `{"cmd":"stats"}`
    /// reports, frozen after the drain).
    pub counts: StatusCounts,
    /// The pool's telemetry after the drain — `queued` and `inflight`
    /// are 0 by the drain contract; the counters are session totals.
    pub pool: PoolStats,
    /// The plan cache's counters after the drain.
    pub cache: cache::CacheCounts,
}

/// Set by the SIGINT/SIGTERM handlers; polled by the accept loops.
static SHUTDOWN: AtomicBool = AtomicBool::new(false);

extern "C" fn on_signal(_sig: std::os::raw::c_int) {
    SHUTDOWN.store(true, Ordering::SeqCst);
}

/// Installs SIGINT/SIGTERM handlers that request a graceful drain.
/// `std` links libc, so the raw `signal(2)` symbol is already present —
/// no new dependency.
#[cfg(unix)]
pub fn install_signal_handlers() {
    extern "C" {
        fn signal(signum: std::os::raw::c_int, handler: usize) -> usize;
    }
    // SAFETY: on_signal only stores to an AtomicBool, which is
    // async-signal-safe; 2/15 are SIGINT/SIGTERM on every Unix.
    unsafe {
        signal(2, on_signal as extern "C" fn(std::os::raw::c_int) as usize);
        signal(15, on_signal as extern "C" fn(std::os::raw::c_int) as usize);
    }
}

#[cfg(not(unix))]
pub fn install_signal_handlers() {}

/// Whether a graceful shutdown has been requested (signal received).
pub fn shutdown_requested() -> bool {
    SHUTDOWN.load(Ordering::SeqCst)
}

/// One connection's response stream. Jobs capture a clone, so a
/// response always lands on the stream whose reader admitted it —
/// routing is by construction, not by lookup.
#[derive(Clone)]
struct ConnOut(Arc<Mutex<Box<dyn Write + Send>>>);

impl ConnOut {
    fn new(out: Box<dyn Write + Send>) -> Self {
        Self(Arc::new(Mutex::new(out)))
    }

    fn write_line(&self, line: &str) {
        let mut out = self.0.lock().unwrap_or_else(|e| e.into_inner());
        // A closed client pipe must not kill the daemon mid-drain.
        let _ = writeln!(out, "{line}");
        let _ = out.flush();
    }
}

/// Always-on connection telemetry (the `connections` stats block).
#[derive(Default)]
struct ConnTelemetry {
    active: AtomicU64,
    accepted_total: AtomicU64,
    shed_total: AtomicU64,
}

impl ConnTelemetry {
    fn open(&self) {
        self.accepted_total.fetch_add(1, Ordering::Relaxed);
        self.active.fetch_add(1, Ordering::Relaxed);
    }

    fn close(&self) {
        self.active.fetch_sub(1, Ordering::Relaxed);
    }

    fn shed(&self) {
        self.shed_total.fetch_add(1, Ordering::Relaxed);
    }

    fn active(&self) -> u64 {
        self.active.load(Ordering::Relaxed)
    }
}

/// Daemon-global state shared by every connection: the plan cache, the
/// status counts, and the stop latch. One `Session` exists per daemon,
/// regardless of how many streams are connected.
struct Session {
    /// The request-level plan cache.
    cache: PlanCache,
    default_budget_ms: Option<u64>,
    panics: AtomicU64,
    /// Session start — the stats snapshot's uptime epoch.
    started: Instant,
    /// Responses by status, updated together under one lock so a stats
    /// snapshot never sees a half-applied transition.
    counts: Mutex<StatusCounts>,
    /// Connection gauges for the stats snapshot.
    conns: ConnTelemetry,
    /// Configured connection cap (0 = unlimited), echoed in stats.
    max_connections: u64,
    /// Daemon-local stop latch: set by `{"cmd":"shutdown"}` on *any*
    /// connection; polled (alongside the process-global signal flag) by
    /// every connection loop and the socket accept loop.
    stop: AtomicBool,
}

impl Session {
    fn new(config: &ServeConfig) -> Self {
        Self {
            cache: PlanCache::new(config.cache_entries, config.cache_bytes),
            default_budget_ms: config.default_budget_ms,
            panics: AtomicU64::new(0),
            started: Instant::now(),
            counts: Mutex::new(StatusCounts::default()),
            conns: ConnTelemetry::default(),
            max_connections: config.max_connections as u64,
            stop: AtomicBool::new(false),
        }
    }

    /// Applies one consistent update to the status counts.
    fn count(&self, apply: impl FnOnce(&mut StatusCounts)) {
        apply(&mut self.counts.lock().unwrap_or_else(|e| e.into_inner()));
    }

    /// The current status counts, atomically.
    fn counts(&self) -> StatusCounts {
        *self.counts.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn request_stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
    }

    fn stopping(&self) -> bool {
        self.stop.load(Ordering::SeqCst) || shutdown_requested()
    }

    fn conn_counts(&self) -> ConnCounts {
        ConnCounts {
            active: self.conns.active(),
            accepted_total: self.conns.accepted_total.load(Ordering::Relaxed),
            shed_total: self.conns.shed_total.load(Ordering::Relaxed),
            max: self.max_connections,
        }
    }
}

/// The `--stats-interval-ms` scheduler. Deadlines advance off the
/// *previous deadline*, never off the emission instant, so lateness
/// (snapshot rendering, the dispatch loop sitting in a bounded
/// `recv_timeout`) does not accumulate as period drift. When emission
/// falls more than a whole interval behind, missed ticks are skipped
/// but the phase is kept.
struct Heartbeat {
    interval: Duration,
    next: Instant,
}

impl Heartbeat {
    fn new(interval: Duration) -> Self {
        Self {
            interval,
            next: Instant::now() + interval,
        }
    }

    /// Time until the next deadline (zero when already due) — the
    /// dispatch loop caps its poll timeout with this, so a heartbeat is
    /// never late by a full poll period.
    fn until_due(&self, now: Instant) -> Duration {
        self.next.saturating_duration_since(now)
    }

    /// Whether a snapshot is due at `now`; advances the deadline by
    /// whole intervals when it is.
    fn due(&mut self, now: Instant) -> bool {
        if now < self.next {
            return false;
        }
        self.next += self.interval;
        while self.next <= now {
            self.next += self.interval;
        }
        true
    }
}

/// Builds one `status: stats` snapshot line for the daemon (see
/// [`protocol::stats_line`] for the schema).
fn stats_snapshot_line(session: &Session, pool: &Pool, id: Option<&str>) -> String {
    protocol::stats_line(
        id,
        session.started.elapsed().as_micros() as u64,
        &session.counts(),
        &pool.stats(),
        &pool.queue_wait(),
        &pool.service(),
        &session.cache.counts(),
        &session.conn_counts(),
        &lacr_obs::mem::stats(),
        lacr_obs::mem::peak_rss_bytes().unwrap_or(0),
        lacr_obs::flight::dump_count(),
        lacr_obs::flight::capacity() as u64,
    )
}

/// A resolution or planning failure inside one request.
enum RequestError {
    /// The client's input was unusable (unknown circuit, bad netlist).
    BadRequest(String),
    /// The planner rejected the run with a typed error.
    Plan(String),
}

/// The request's netlist. A `bench_path` file is read and parsed on
/// every request, so an edited file is never answered from a stale
/// parse; true repeats still hit the plan cache, keyed by canonical
/// netlist text.
fn resolve_circuit(spec: &Spec) -> Result<Circuit, RequestError> {
    match spec {
        Spec::Circuit(name) => bench89::generate(name)
            .map_err(|e| RequestError::BadRequest(format!("circuit {name:?}: {e}"))),
        Spec::BenchPath(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| RequestError::BadRequest(format!("cannot read {path}: {e}")))?;
            let name = std::path::Path::new(path)
                .file_stem()
                .and_then(|s| s.to_str())
                .unwrap_or("netlist");
            parse_bench(name, &text, path)
        }
        Spec::BenchInline { name, text } => parse_bench(name, text, "inline bench"),
    }
}

fn parse_bench(name: &str, text: &str, origin: &str) -> Result<Circuit, RequestError> {
    let c = bench_format::parse(name, text)
        .map_err(|e| RequestError::BadRequest(format!("{origin}: {e}")))?;
    let problems = c.validate();
    if !problems.is_empty() {
        return Err(RequestError::BadRequest(format!(
            "{origin}: invalid netlist: {}",
            problems.join("; ")
        )));
    }
    Ok(c)
}

/// One request's planning outcome: the summary, its quality gauges, and
/// — when the cache answered — the entry's age in milliseconds.
type Planned = (PlanSummary, BTreeMap<String, f64>, Option<u64>);

/// Plans one admitted request, consulting the plan cache first. Runs on
/// a pool worker, inside the request's scope; panics escape to the
/// `catch_unwind` in [`run_request`].
fn execute(session: &Session, req: &Request, budget: Budget) -> Result<Planned, RequestError> {
    if req.fault.sleep_ms > 0 {
        std::thread::sleep(Duration::from_millis(req.fault.sleep_ms));
    }
    if req.fault.panic {
        panic!("injected fault (request {})", req.id);
    }
    let circuit = resolve_circuit(&req.spec)?;
    let mut config = PlannerConfig {
        budget,
        ..PlannerConfig::default()
    };
    if let Some(seed) = req.seed {
        config.seed = seed;
    }
    // The cache key: canonical netlist text (spec-shape independent) +
    // effective seed + effective budget class. Fault-injected requests
    // bypass the cache — they exist to exercise the worker, not skip it.
    let key = if req.fault == protocol::Fault::default() {
        let effective_budget = req.budget_ms.or(session.default_budget_ms);
        Some(PlanCache::key(
            &bench_format::write(&circuit),
            config.seed,
            effective_budget,
        ))
    } else {
        None
    };
    if let Some(key) = &key {
        if let Some(hit) = session.cache.lookup(key) {
            let age_ms = hit.inserted.elapsed().as_millis() as u64;
            return Ok((hit.summary, hit.quality, Some(age_ms)));
        }
    }
    let plan = try_build_physical_plan(&circuit, &config, &[])
        .map_err(|e| RequestError::Plan(e.to_string()))?;
    let report =
        try_plan_retimings(&plan, &config).map_err(|e| RequestError::Plan(e.to_string()))?;
    let summary = summarize(circuit.name(), &plan, &report);
    // The request's own quality gauges, read back from its scope.
    let quality: BTreeMap<String, f64> = lacr_obs::scope::current()
        .map(|scope| {
            scope
                .report()
                .gauges
                .into_iter()
                .filter(|(name, _)| name.starts_with("quality."))
                .collect()
        })
        .unwrap_or_default();
    // Memoise reproducible results only: a degraded plan is what the
    // budget happened to allow *this* run, not a function of the key.
    if let Some(key) = key {
        if !summary.is_degraded() {
            session.cache.insert(
                key,
                CachedPlan {
                    summary: summary.clone(),
                    quality: quality.clone(),
                    inserted: Instant::now(),
                },
            );
        }
    }
    Ok((summary, quality, None))
}

/// The isolation boundary: scope attach, `catch_unwind`, response line
/// routed to the issuing connection's stream.
fn run_request(session: &Session, out: &ConnOut, req: &Request, budget: Budget, enqueued: Instant) {
    let scope = Scope::new(req.id.as_str());
    let _guard = scope.attach();
    // The request's allocation volume: this thread's delta over the
    // planning call, which includes the worker bytes that parallel
    // regions inside it credit back to this thread.
    let mem_mark = lacr_obs::mem::thread_mark();
    let queue_ms = enqueued.elapsed().as_millis() as u64;
    let started = Instant::now();
    let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| execute(session, req, budget)));
    let plan_ms = started.elapsed().as_millis() as u64;
    let line = match outcome {
        Ok(Ok((summary, quality, cache_age_ms))) => {
            if summary.is_degraded() {
                session.count(|c| c.degraded += 1);
            } else {
                session.count(|c| c.ok += 1);
            }
            let mem_bytes = if cache_age_ms.is_some() {
                0 // a cache hit ran no planning; its clone is noise
            } else {
                mem_mark.delta().alloc_bytes
            };
            protocol::result_line(
                &req.id,
                &summary,
                &quality,
                queue_ms,
                plan_ms,
                mem_bytes,
                cache_age_ms,
            )
        }
        Ok(Err(RequestError::BadRequest(msg))) => {
            session.count(|c| c.error += 1);
            protocol::error_line(Some(&req.id), "bad-request", &msg, None)
        }
        Ok(Err(RequestError::Plan(msg))) => {
            session.count(|c| c.error += 1);
            protocol::error_line(Some(&req.id), "plan", &msg, None)
        }
        Err(panic) => {
            session.panics.fetch_add(1, Ordering::Relaxed);
            session.count(|c| c.error += 1);
            let msg = panic_message(&panic);
            // The panic hook already dumped the postmortem to the
            // request-tagged path (the scope is attached here); report
            // where, so clients can fetch it.
            let flight = lacr_obs::flight::tagged_path(&req.id)
                .filter(|p| p.is_file())
                .map(|p| p.display().to_string());
            protocol::error_line(Some(&req.id), "panic", &msg, flight.as_deref())
        }
    };
    out.write_line(&line);
}

fn panic_message(panic: &Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with a non-string payload".to_string()
    }
}

enum Feed {
    Line(LineRead),
    Eof,
    Io(std::io::Error),
}

/// What one connection loop did, merged into daemon totals by its
/// owner ([`serve`] or the socket accept loop).
#[derive(Default)]
struct ConnOutcome {
    /// This connection saw an explicit `{"cmd":"shutdown"}` or a
    /// signal-driven stop (as opposed to plain EOF).
    shutdown: bool,
    io_error: Option<std::io::Error>,
}

/// Runs one connection against the shared session and pool: reads
/// requests from `input` until EOF, a shutdown, or a stop request;
/// answers every line on `out`; sweeps late arrivals with `rejected:
/// shutting-down`. Does *not* drain the pool — in-flight jobs belong to
/// the daemon and keep routing their responses to `out` after this
/// returns (the jobs hold clones of the handle).
fn serve_connection(
    config: &ServeConfig,
    session: &Arc<Session>,
    pool: &Arc<Pool>,
    conn_id: u64,
    input: impl BufRead + Send + 'static,
    out: &ConnOut,
    mut heartbeat: Option<Heartbeat>,
) -> ConnOutcome {
    let mut outcome = ConnOutcome::default();

    // The reader thread turns blocking input into channel messages so
    // this loop can poll the stop latches between lines.
    let (tx, rx) = mpsc::channel::<Feed>();
    let max_line = config.max_line_bytes;
    let mut input = input;
    std::thread::Builder::new()
        .name(format!("lacr-serve-read-{conn_id}"))
        .spawn(move || loop {
            match protocol::read_bounded_line(&mut input, max_line) {
                Ok(LineRead::Eof) => {
                    let _ = tx.send(Feed::Eof);
                    break;
                }
                Ok(read) => {
                    if tx.send(Feed::Line(read)).is_err() {
                        break;
                    }
                }
                Err(e) => {
                    let _ = tx.send(Feed::Io(e));
                    break;
                }
            }
        })
        .expect("spawn reader thread");

    loop {
        if session.stopping() {
            outcome.shutdown = true;
            break;
        }
        // The periodic operator heartbeat (stdin front end only; the
        // socket accept loop owns it in socket mode): one stats
        // snapshot line to stderr, same JSON as a `{"cmd":"stats"}`
        // response, scheduled off the previous deadline.
        let mut timeout = Duration::from_millis(50);
        if let Some(h) = heartbeat.as_mut() {
            let now = Instant::now();
            if h.due(now) {
                eprintln!("{}", stats_snapshot_line(session, pool, None));
            }
            timeout = timeout.min(h.until_due(now));
        }
        match rx.recv_timeout(timeout) {
            Ok(Feed::Line(read)) => {
                session.count(|c| c.received += 1);
                if !admit(config, session, pool, out, read) {
                    outcome.shutdown = true;
                    break;
                }
            }
            Ok(Feed::Eof) | Err(RecvTimeoutError::Disconnected) => break,
            Ok(Feed::Io(e)) => {
                outcome.io_error = Some(e);
                break;
            }
            Err(RecvTimeoutError::Timeout) => {}
        }
    }

    // Shutdown sweep: reject anything still in the channel (admission
    // is closed for this connection).
    while let Ok(feed) = rx.try_recv() {
        if let Feed::Line(read) = feed {
            session.count(|c| {
                c.received += 1;
                c.rejected += 1;
            });
            let id = match &read {
                LineRead::Line(line) => match protocol::parse_line(line) {
                    Ok(Parsed::Request(req)) => Some(req.id),
                    _ => None,
                },
                _ => None,
            };
            out.write_line(&protocol::rejected_shutdown_line(id.as_deref()));
        }
    }
    outcome
}

/// Runs one serve session over stdin-style streams: a single connection
/// against its own daemon state (shared-pool machinery with exactly one
/// client). Reads requests from `input` until EOF, a shutdown command,
/// or a signal; answers every line on `output`; then drains in-flight
/// work and returns the session's stats.
///
/// # Errors
///
/// Only I/O errors from the input stream; client-side response-write
/// failures are swallowed (a gone client must not kill the daemon).
pub fn serve(
    config: &ServeConfig,
    input: impl BufRead + Send + 'static,
    output: impl Write + Send + 'static,
) -> std::io::Result<ServeStats> {
    let session = Arc::new(Session::new(config));
    let pool = Arc::new(Pool::new(
        "lacr-serve",
        config.workers,
        config.queue_capacity,
    ));
    let out = ConnOut::new(Box::new(output));
    let heartbeat = config
        .stats_interval_ms
        .map(|ms| Heartbeat::new(Duration::from_millis(ms)));
    session.conns.open();
    let outcome = serve_connection(config, &session, &pool, 0, input, &out, heartbeat);
    session.conns.close();
    pool.close_and_drain();
    log_done(&session);
    let stats = ServeStats {
        panics: session.panics.load(Ordering::Relaxed),
        shutdown: outcome.shutdown,
        counts: session.counts(),
        pool: pool.stats(),
        cache: session.cache.counts(),
    };
    match outcome.io_error {
        Some(e) => Err(e),
        None => Ok(stats),
    }
}

/// The shutdown diagnostic, one line shared by both front ends and read
/// from the daemon's own counts.
fn log_done(session: &Session) {
    let counts = session.counts();
    lacr_obs::diag!(
        "serve: done ({} received, {} completed, {} rejected, {} panics isolated, \
         {} connections, {} cache hits)",
        counts.received,
        counts.completed(),
        counts.rejected,
        session.panics.load(Ordering::Relaxed),
        session.conns.accepted_total.load(Ordering::Relaxed),
        session.cache.counts().hits
    );
}

/// Parses and admits one line. Returns `false` when the line asked for
/// shutdown (the daemon-wide stop latch is set before returning).
fn admit(
    config: &ServeConfig,
    session: &Arc<Session>,
    pool: &Arc<Pool>,
    out: &ConnOut,
    read: LineRead,
) -> bool {
    let line = match read {
        LineRead::Line(line) => line,
        LineRead::TooLong { dropped } => {
            session.count(|c| c.rejected += 1);
            out.write_line(&protocol::rejected_oversized_line(
                dropped,
                config.max_line_bytes,
            ));
            return true;
        }
        LineRead::Eof => return true,
    };
    let req = match protocol::parse_line(&line) {
        Ok(Parsed::Request(req)) => req,
        Ok(Parsed::Shutdown) => {
            // Stop every connection and the accept loop, not just this
            // stream: shutdown is a daemon-wide command.
            session.request_stop();
            return false;
        }
        Ok(Parsed::Stats { id }) => {
            // Answered inline on the connection thread: a stats probe
            // must stay live even when every worker is busy, and must
            // not consume a queue slot.
            out.write_line(&stats_snapshot_line(session, pool, id.as_deref()));
            return true;
        }
        Err(e) => {
            session.count(|c| c.error += 1);
            out.write_line(&protocol::error_line(
                e.id.as_deref(),
                "bad-request",
                &e.message,
                None,
            ));
            return true;
        }
    };
    // The budget starts now — queue wait counts against the deadline —
    // and is labelled with the request id so its expiry postmortem goes
    // to the request-tagged flight path.
    let enqueued = Instant::now();
    let deadline = req
        .budget_ms
        .or(session.default_budget_ms)
        .map(|ms| enqueued + Duration::from_millis(ms));
    let budget = Budget::new(deadline).labeled(req.id.as_str());
    let id = req.id.clone();
    let job_session = Arc::clone(session);
    let job_out = out.clone();
    match pool.submit(move || run_request(&job_session, &job_out, &req, budget, enqueued)) {
        Ok(()) => {}
        Err(SubmitError::Overloaded { queued, capacity }) => {
            session.count(|c| c.rejected += 1);
            out.write_line(&protocol::rejected_overloaded_line(&id, queued, capacity));
        }
        Err(SubmitError::Closed) => {
            session.count(|c| c.rejected += 1);
            out.write_line(&protocol::rejected_shutdown_line(Some(&id)));
        }
    }
    true
}

/// Binds the daemon's Unix socket without clobbering anything live: an
/// existing path is only unlinked when it is (a) a socket and (b)
/// *stale* — a probe connect fails, so no daemon is behind it. A
/// non-socket file at the path, or a live listener, is refused with a
/// descriptive error instead of being deleted.
#[cfg(unix)]
fn bind_unix_socket(path: &std::path::Path) -> std::io::Result<std::os::unix::net::UnixListener> {
    use std::os::unix::fs::FileTypeExt;
    use std::os::unix::net::{UnixListener, UnixStream};
    match std::fs::symlink_metadata(path) {
        Ok(meta) => {
            if !meta.file_type().is_socket() {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::AlreadyExists,
                    format!(
                        "{} exists and is not a socket; refusing to delete it",
                        path.display()
                    ),
                ));
            }
            match UnixStream::connect(path) {
                Ok(_) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::AddrInUse,
                        format!(
                            "{} already has a live daemon listening; \
                             refusing to replace it",
                            path.display()
                        ),
                    ));
                }
                Err(_) => {
                    // Socket file with nobody behind it: a previous
                    // daemon died without cleanup. Safe to reclaim.
                    lacr_obs::diag!("serve: removing stale socket {}", path.display());
                    std::fs::remove_file(path)?;
                }
            }
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => return Err(e),
    }
    UnixListener::bind(path)
}

/// Serves on a Unix socket: accepts connections until a shutdown is
/// requested (signal, or `{"cmd":"shutdown"}` on any connection), every
/// connection speaking the line protocol against **one shared pool and
/// session** — `--workers`/`--queue-cap` bound the whole daemon, not
/// each client. A client that merely disconnects (EOF) ends its
/// connection, not the daemon. Connections beyond `--max-connections`
/// are answered `rejected: connection-limit` and closed; finished
/// connection threads are reaped every accept pass, so a long-lived
/// daemon holds handles only for live connections.
///
/// # Errors
///
/// Binding or accepting on the socket (an existing non-socket file or a
/// live daemon at `path` refuses the bind — see the stale-socket rules
/// on `bind_unix_socket`). Per-connection I/O errors only end that
/// connection.
#[cfg(unix)]
pub fn serve_unix_socket(config: &ServeConfig, path: &std::path::Path) -> std::io::Result<()> {
    let listener = bind_unix_socket(path)?;
    listener.set_nonblocking(true)?;
    lacr_obs::diag!("serve: listening on {}", path.display());
    let session = Arc::new(Session::new(config));
    let pool = Arc::new(Pool::new(
        "lacr-serve",
        config.workers,
        config.queue_capacity,
    ));
    let mut heartbeat = config
        .stats_interval_ms
        .map(|ms| Heartbeat::new(Duration::from_millis(ms)));
    let mut connections: Vec<std::thread::JoinHandle<()>> = Vec::new();
    let mut next_conn_id = 0_u64;
    let result = loop {
        if session.stopping() {
            break Ok(());
        }
        let mut sleep = Duration::from_millis(50);
        if let Some(h) = heartbeat.as_mut() {
            let now = Instant::now();
            if h.due(now) {
                eprintln!("{}", stats_snapshot_line(&session, &pool, None));
            }
            sleep = sleep.min(h.until_due(now));
        }
        // Reap finished connection threads each pass: a long-lived
        // daemon must not accumulate one dead handle per past client.
        let mut live = Vec::with_capacity(connections.len());
        for handle in connections.drain(..) {
            if handle.is_finished() {
                let _ = handle.join();
            } else {
                live.push(handle);
            }
        }
        connections = live;
        match listener.accept() {
            Ok((stream, _)) => {
                if config.max_connections > 0
                    && session.conns.active() >= config.max_connections as u64
                {
                    // Admission control for connections mirrors the
                    // queue: shed with one structured line, then close.
                    // A shed connection sent no request, so it counts in
                    // `connections.shed_total` only.
                    session.conns.shed();
                    let out = ConnOut::new(Box::new(stream));
                    out.write_line(&protocol::rejected_connection_limit_line(
                        session.conns.active(),
                        config.max_connections as u64,
                    ));
                    lacr_obs::diag!(
                        "serve: connection shed ({} active, cap {})",
                        session.conns.active(),
                        config.max_connections
                    );
                    continue;
                }
                // A clone failure is this connection's problem, not the
                // daemon's: log, drop the stream, keep accepting.
                let reader = match stream.try_clone() {
                    Ok(reader) => reader,
                    Err(e) => {
                        lacr_obs::diag!("serve: cannot clone connection stream ({e}); dropping");
                        continue;
                    }
                };
                let conn_id = next_conn_id;
                next_conn_id += 1;
                session.conns.open();
                let config = config.clone();
                let conn_session = Arc::clone(&session);
                let conn_pool = Arc::clone(&pool);
                let handle = std::thread::Builder::new()
                    .name(format!("lacr-serve-conn-{conn_id}"))
                    .spawn(move || {
                        let input = std::io::BufReader::new(reader);
                        let out = ConnOut::new(Box::new(stream));
                        let outcome = serve_connection(
                            &config,
                            &conn_session,
                            &conn_pool,
                            conn_id,
                            input,
                            &out,
                            None,
                        );
                        conn_session.conns.close();
                        if let Some(e) = outcome.io_error {
                            lacr_obs::diag!("serve: connection {conn_id} error: {e}");
                        }
                    })
                    .expect("spawn connection thread");
                connections.push(handle);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(sleep.max(Duration::from_millis(1)));
            }
            Err(e) => break Err(e),
        }
    };
    // Daemon drain: stop every connection loop, join them, then run the
    // one shared pool dry — in-flight responses still route to their
    // issuing streams (jobs hold the output handles).
    session.request_stop();
    for handle in connections {
        let _ = handle.join();
    }
    pool.close_and_drain();
    log_done(&session);
    let _ = std::fs::remove_file(path);
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use lacr_bench::json::{parse_json, Json};
    use lacr_obs::Histogram;

    /// A response stream the test keeps reading while the daemon writes.
    struct SharedOut(Arc<Mutex<Vec<u8>>>);

    impl Write for SharedOut {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn run_lines_with_stats(config: &ServeConfig, lines: &[&str]) -> (Vec<String>, ServeStats) {
        let input = std::io::Cursor::new(lines.join("\n").into_bytes());
        let out: Arc<Mutex<Vec<u8>>> = Arc::new(Mutex::new(Vec::new()));
        let stats = serve(config, input, SharedOut(Arc::clone(&out))).expect("serve runs");
        let bytes = out.lock().unwrap().clone();
        let lines = String::from_utf8(bytes)
            .expect("utf8 output")
            .lines()
            .map(str::to_string)
            .collect();
        (lines, stats)
    }

    fn run_lines(config: &ServeConfig, lines: &[&str]) -> Vec<String> {
        run_lines_with_stats(config, lines).0
    }

    fn tiny_bench() -> &'static str {
        // tests/data/counter3.bench, JSON-escaped: a known-plannable
        // 3-bit counter.
        "INPUT(en)\\nOUTPUT(q0)\\nOUTPUT(q1)\\nOUTPUT(q2)\\nq0 = DFF(n0)\\nq1 = DFF(n1)\\n\
         q2 = DFF(n2)\\nn0 = XOR(q0, en)\\nc0 = AND(q0, en)\\nn1 = XOR(q1, c0)\\n\
         c1 = AND(q1, c0)\\nn2 = XOR(q2, c1)\\n"
    }

    #[test]
    fn responds_to_every_line_and_isolates_panics() {
        let lines = [
            format!(
                r#"{{"id":"ok-1","bench":"{}","name":"tiny"}}"#,
                tiny_bench()
            ),
            "garbage".to_string(),
            r#"{"id":"boom","circuit":"s27","fault":{"panic":true}}"#.to_string(),
            r#"{"id":"missing","bench_path":"/no/such/file.bench"}"#.to_string(),
            format!(
                r#"{{"id":"ok-2","bench":"{}","name":"tiny"}}"#,
                tiny_bench()
            ),
        ];
        let refs: Vec<&str> = lines.iter().map(String::as_str).collect();
        let out = run_lines(&ServeConfig::default(), &refs);
        assert_eq!(out.len(), refs.len(), "one response per request: {out:?}");
        let by_id = |id: &str| -> Json {
            out.iter()
                .map(|l| parse_json(l).expect("valid response JSON"))
                .find(|j| j.get("id").and_then(Json::as_str) == Some(id))
                .unwrap_or_else(|| panic!("no response for {id}: {out:?}"))
        };
        assert_eq!(
            by_id("ok-1").get("status").and_then(Json::as_str),
            Some("ok")
        );
        assert_eq!(
            by_id("ok-2").get("status").and_then(Json::as_str),
            Some("ok")
        );
        let boom = by_id("boom");
        assert_eq!(boom.get("status").and_then(Json::as_str), Some("error"));
        assert_eq!(
            boom.get("error")
                .and_then(|e| e.get("kind"))
                .and_then(Json::as_str),
            Some("panic")
        );
        let missing = by_id("missing");
        assert_eq!(
            missing
                .get("error")
                .and_then(|e| e.get("kind"))
                .and_then(Json::as_str),
            Some("bad-request")
        );
        // The malformed line got a structured error with a null id.
        assert!(out.iter().any(|l| {
            let j = parse_json(l).expect("valid JSON");
            j.get("id") == Some(&Json::Null)
                && j.get("status").and_then(Json::as_str) == Some("error")
        }));
        // Identical requests give identical plan text (determinism).
        assert_eq!(
            by_id("ok-1").get("plan").and_then(|p| p.get("text")),
            by_id("ok-2").get("plan").and_then(|p| p.get("text"))
        );
    }

    #[test]
    fn identical_requests_hit_the_plan_cache() {
        // One worker forces FIFO completion, so the cold request is
        // finished (and inserted) before the warm one runs.
        let config = ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        };
        // The display name is part of the plan text (and hence the
        // canonical key), so the file stem must match the inline name.
        let dir = std::env::temp_dir().join(format!("lacr_cache_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let tmp = dir.join("tiny.bench");
        std::fs::write(&tmp, tiny_bench().replace("\\n", "\n")).expect("write bench file");
        let lines = [
            format!(
                r#"{{"id":"cold","bench":"{}","name":"tiny"}}"#,
                tiny_bench()
            ),
            format!(
                r#"{{"id":"warm","bench":"{}","name":"tiny"}}"#,
                tiny_bench()
            ),
            // Same netlist content via a different spec shape: the
            // canonicalised key must still hit.
            format!(r#"{{"id":"path","bench_path":"{}"}}"#, tmp.display()),
            // A different seed is a different planning problem.
            format!(
                r#"{{"id":"reseeded","bench":"{}","name":"tiny","seed":99}}"#,
                tiny_bench()
            ),
        ];
        let refs: Vec<&str> = lines.iter().map(String::as_str).collect();
        let (out, stats) = run_lines_with_stats(&config, &refs);
        let _ = std::fs::remove_dir_all(&dir);
        let by_id = |id: &str| -> Json {
            out.iter()
                .map(|l| parse_json(l).expect("valid response JSON"))
                .find(|j| j.get("id").and_then(Json::as_str) == Some(id))
                .unwrap_or_else(|| panic!("no response for {id}: {out:?}"))
        };
        let (cold, warm, path, reseeded) = (
            by_id("cold"),
            by_id("warm"),
            by_id("path"),
            by_id("reseeded"),
        );
        assert_eq!(cold.get("cached"), Some(&Json::Bool(false)), "{cold:?}");
        assert_eq!(warm.get("cached"), Some(&Json::Bool(true)), "{warm:?}");
        assert!(
            warm.get("cache_age_ms").and_then(Json::as_num).is_some(),
            "warm hit reports its age: {warm:?}"
        );
        // Per-request memory attribution: the cold run planned (and
        // therefore allocated); the warm hit skipped planning entirely.
        assert!(
            cold.get("mem_bytes").and_then(Json::as_num).unwrap_or(0.0) > 0.0,
            "cold run reports its allocation volume: {cold:?}"
        );
        assert_eq!(
            warm.get("mem_bytes").and_then(Json::as_num),
            Some(0.0),
            "cache hits plan nothing: {warm:?}"
        );
        // Correctness: the warm hit is byte-identical to the cold run.
        assert_eq!(
            cold.get("plan").and_then(|p| p.get("text")),
            warm.get("plan").and_then(|p| p.get("text"))
        );
        // Spec shape does not matter, content does.
        assert_eq!(path.get("cached"), Some(&Json::Bool(true)), "{path:?}");
        assert_eq!(
            reseeded.get("cached"),
            Some(&Json::Bool(false)),
            "{reseeded:?}"
        );
        assert_eq!(stats.cache.hits, 2);
        assert_eq!(stats.cache.misses, 2);
        assert_eq!(stats.cache.entries, 2, "cold + reseeded entries resident");
    }

    #[test]
    fn a_rewritten_bench_file_is_planned_afresh() {
        // One request at a time against one session, with the file
        // rewritten in between: the second request names the same path
        // but a different netlist.
        let data = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/data");
        let dir = std::env::temp_dir().join(format!("lacr_rewrite_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("net.bench");
        let answer = |session: &Session, line: String| -> Json {
            let Ok(Parsed::Request(req)) = protocol::parse_line(&line) else {
                panic!("not a request: {line}");
            };
            let buf = Arc::new(Mutex::new(Vec::new()));
            let out = ConnOut::new(Box::new(SharedOut(Arc::clone(&buf))));
            run_request(session, &out, &req, Budget::unlimited(), Instant::now());
            let text = String::from_utf8(buf.lock().unwrap().clone()).expect("utf8");
            parse_json(text.trim()).expect("one response line")
        };
        let by_path = |id: &str| format!(r#"{{"id":"{id}","bench_path":"{}"}}"#, path.display());
        let session = Session::new(&ServeConfig::default());
        std::fs::copy(format!("{data}/counter3.bench"), &path).expect("write counter3");
        let first = answer(&session, by_path("first"));
        let fir_tap = std::fs::read_to_string(format!("{data}/fir_tap.bench")).expect("fir_tap");
        std::fs::write(&path, &fir_tap).expect("rewrite");
        let second = answer(&session, by_path("second"));
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(second.get("cached"), Some(&Json::Bool(false)), "{second:?}");
        assert_ne!(first.get("plan"), second.get("plan"));
        // The same text sent inline to a fresh daemon plans the same.
        let inline = answer(
            &Session::new(&ServeConfig::default()),
            format!(
                r#"{{"id":"inline","bench":"{}","name":"net"}}"#,
                fir_tap.replace('\n', "\\n")
            ),
        );
        assert_eq!(second.get("plan"), inline.get("plan"), "{second:?}");
    }

    #[test]
    fn degraded_results_are_not_cached() {
        let config = ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        };
        let lines = [
            format!(r#"{{"id":"d1","bench":"{}","budget_ms":0}}"#, tiny_bench()),
            format!(r#"{{"id":"d2","bench":"{}","budget_ms":0}}"#, tiny_bench()),
        ];
        let refs: Vec<&str> = lines.iter().map(String::as_str).collect();
        let (out, stats) = run_lines_with_stats(&config, &refs);
        for line in &out {
            let j = parse_json(line).expect("valid JSON");
            assert_eq!(j.get("status").and_then(Json::as_str), Some("degraded"));
            assert_eq!(j.get("cached"), Some(&Json::Bool(false)), "{j:?}");
        }
        assert_eq!(stats.cache.hits, 0);
        assert_eq!(stats.cache.entries, 0, "degraded plans are never stored");
    }

    #[test]
    fn overload_sheds_with_queue_depth() {
        // Two sleepers hold the single worker and fill the queue of 1;
        // with four back-to-back requests at least one must be shed
        // (which one depends on worker pickup timing, so the assertion
        // is on the shed's shape, not its id).
        let config = ServeConfig {
            workers: 1,
            queue_capacity: 1,
            ..ServeConfig::default()
        };
        let lines: Vec<String> = (0..4)
            .map(|i| {
                format!(
                    r#"{{"id":"req-{i}","bench":"{}","fault":{{"sleep_ms":300}}}}"#,
                    tiny_bench()
                )
            })
            .collect();
        let refs: Vec<&str> = lines.iter().map(String::as_str).collect();
        let out = run_lines(&config, &refs);
        assert_eq!(out.len(), 4, "{out:?}");
        let shed: Vec<Json> = out
            .iter()
            .map(|l| parse_json(l).expect("valid JSON"))
            .filter(|j| j.get("status").and_then(Json::as_str) == Some("rejected"))
            .collect();
        assert!(!shed.is_empty(), "no request was shed: {out:?}");
        for s in &shed {
            assert_eq!(s.get("reason").and_then(Json::as_str), Some("overloaded"));
            assert_eq!(s.get("capacity").and_then(Json::as_num), Some(1.0));
            assert!(s.get("queued").and_then(Json::as_num).is_some());
        }
    }

    #[test]
    fn shutdown_command_stops_after_draining() {
        let lines = [
            format!(r#"{{"id":"before","bench":"{}"}}"#, tiny_bench()),
            r#"{"cmd":"shutdown"}"#.to_string(),
            format!(r#"{{"id":"after","bench":"{}"}}"#, tiny_bench()),
        ];
        let refs: Vec<&str> = lines.iter().map(String::as_str).collect();
        let out = run_lines(&ServeConfig::default(), &refs);
        let statuses: BTreeMap<String, String> = out
            .iter()
            .map(|l| {
                let j = parse_json(l).expect("valid JSON");
                (
                    j.get("id")
                        .and_then(Json::as_str)
                        .unwrap_or("null")
                        .to_string(),
                    j.get("status").and_then(Json::as_str).unwrap().to_string(),
                )
            })
            .collect();
        assert_eq!(statuses.get("before").map(String::as_str), Some("ok"));
        // The post-shutdown request is either rejected (seen in the
        // drain sweep) or unanswered (reader hadn't delivered it yet) —
        // but never planned.
        if let Some(status) = statuses.get("after") {
            assert_eq!(status, "rejected");
        }
    }

    #[test]
    fn over_budget_requests_degrade_instead_of_failing() {
        let lines = [format!(
            r#"{{"id":"tight","bench":"{}","budget_ms":0}}"#,
            tiny_bench()
        )];
        let refs: Vec<&str> = lines.iter().map(String::as_str).collect();
        let out = run_lines(&ServeConfig::default(), &refs);
        assert_eq!(out.len(), 1, "{out:?}");
        let j = parse_json(&out[0]).expect("valid JSON");
        assert_eq!(j.get("status").and_then(Json::as_str), Some("degraded"));
        assert!(j
            .get("degradations")
            .and_then(Json::as_arr)
            .is_some_and(|a| !a.is_empty()));
    }

    #[test]
    fn oversized_lines_are_shed_unread() {
        let big = format!(r#"{{"id":"big","bench":"{}"}}"#, "x".repeat(4096));
        let small = format!(r#"{{"id":"small","bench":"{}"}}"#, tiny_bench());
        let config = ServeConfig {
            max_line_bytes: 1024,
            ..ServeConfig::default()
        };
        let out = run_lines(&config, &[big.as_str(), small.as_str()]);
        assert_eq!(out.len(), 2, "{out:?}");
        let oversized = out
            .iter()
            .map(|l| parse_json(l).expect("valid JSON"))
            .find(|j| j.get("reason").and_then(Json::as_str) == Some("oversized"))
            .expect("oversized rejection");
        assert_eq!(
            oversized.get("status").and_then(Json::as_str),
            Some("rejected")
        );
    }

    #[test]
    fn heartbeat_schedules_off_the_previous_deadline() {
        let interval = Duration::from_millis(100);
        let mut h = Heartbeat::new(interval);
        let t0 = h.next; // first deadline
        assert!(!h.due(t0 - Duration::from_millis(1)));
        // Emission runs 30 ms late (the loop sat in a recv_timeout):
        // the next deadline is t0 + interval, NOT late-instant +
        // interval — lateness does not shift the schedule.
        assert!(h.due(t0 + Duration::from_millis(30)));
        assert_eq!(h.next, t0 + interval);
        // On time for the second tick.
        assert!(h.due(t0 + interval));
        assert_eq!(h.next, t0 + 2 * interval);
        // Falling several intervals behind emits once and skips the
        // missed ticks, keeping the phase.
        assert!(h.due(t0 + 5 * interval + Duration::from_millis(50)));
        assert_eq!(h.next, t0 + 6 * interval);
        // until_due saturates at zero when already due.
        assert_eq!(h.until_due(t0 + 7 * interval), Duration::ZERO);
        assert_eq!(
            h.until_due(t0 + 6 * interval - Duration::from_millis(40)),
            Duration::from_millis(40)
        );
    }

    #[cfg(unix)]
    #[test]
    fn bind_refuses_non_socket_files_and_live_daemons() {
        let dir = std::env::temp_dir().join(format!("lacr_bind_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmp dir");

        // A regular file at the path is never deleted.
        let file = dir.join("not-a-socket");
        std::fs::write(&file, b"precious data").expect("write file");
        let err = bind_unix_socket(&file).expect_err("must refuse a regular file");
        assert_eq!(err.kind(), std::io::ErrorKind::AlreadyExists);
        assert_eq!(
            std::fs::read(&file).expect("file survives"),
            b"precious data"
        );

        // A live listener at the path is refused (probe connects).
        let live = dir.join("live.sock");
        let keep = std::os::unix::net::UnixListener::bind(&live).expect("bind live socket");
        let err = bind_unix_socket(&live).expect_err("must refuse a live daemon");
        assert_eq!(err.kind(), std::io::ErrorKind::AddrInUse);
        drop(keep);

        // A stale socket (file present, nobody listening) is reclaimed.
        assert!(live.exists(), "socket file survives the dead listener");
        let reclaimed = bind_unix_socket(&live).expect("stale socket reclaimed");
        drop(reclaimed);

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stats_command_returns_a_consistent_snapshot() {
        fn num(j: &Json, path: &[&str]) -> f64 {
            let mut cur = j;
            for k in path {
                cur = cur
                    .get(k)
                    .unwrap_or_else(|| panic!("missing key {path:?} in stats snapshot: {j:?}"));
            }
            cur.as_num()
                .unwrap_or_else(|| panic!("{path:?} is not a number: {j:?}"))
        }
        let lines = [
            format!(r#"{{"id":"a","bench":"{}"}}"#, tiny_bench()),
            "garbage".to_string(),
            format!(r#"{{"id":"b","bench":"{}"}}"#, tiny_bench()),
            r#"{"cmd":"stats","id":"probe"}"#.to_string(),
        ];
        let refs: Vec<&str> = lines.iter().map(String::as_str).collect();
        let config = ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        };
        let (out, stats) = run_lines_with_stats(&config, &refs);
        assert_eq!(out.len(), 4, "one response per line: {out:?}");
        let probe = out
            .iter()
            .map(|l| parse_json(l).expect("valid JSON"))
            .find(|j| j.get("status").and_then(Json::as_str) == Some("stats"))
            .expect("stats response present");
        assert_eq!(probe.get("id").and_then(Json::as_str), Some("probe"));
        assert_eq!(
            num(&probe, &["schema_version"]),
            f64::from(lacr_obs::SCHEMA_VERSION)
        );
        assert!(num(&probe, &["uptime_us"]) >= 0.0);
        // The snapshot races in-flight requests, so assert invariants,
        // not exact counts: status counts sum to completed, completed
        // plus rejected never exceeds received, gauges are sane.
        let ok = num(&probe, &["requests", "ok"]);
        let degraded = num(&probe, &["requests", "degraded"]);
        let error = num(&probe, &["requests", "error"]);
        let rejected = num(&probe, &["requests", "rejected"]);
        let received = num(&probe, &["requests", "received"]);
        let completed = num(&probe, &["requests", "completed"]);
        assert_eq!(completed, ok + degraded + error);
        assert!(completed + rejected <= received, "{probe:?}");
        assert_eq!(num(&probe, &["pool", "workers"]), 2.0);
        assert!(num(&probe, &["pool", "queued"]) <= num(&probe, &["pool", "capacity"]));
        assert!(num(&probe, &["pool", "inflight"]) >= 0.0);
        for block in ["queue_wait_us", "service_us"] {
            let p50 = num(&probe, &["latency", block, "p50"]);
            let p95 = num(&probe, &["latency", block, "p95"]);
            let p99 = num(&probe, &["latency", block, "p99"]);
            assert!(p50 <= p95 && p95 <= p99, "{block}: {p50} {p95} {p99}");
        }
        // The cache and connection blocks carry daemon-wide truth.
        assert!(num(&probe, &["cache", "entries"]) <= num(&probe, &["cache", "max_entries"]));
        assert!(num(&probe, &["cache", "hits"]) >= 0.0);
        assert!(num(&probe, &["cache", "misses"]) >= 0.0);
        assert_eq!(
            num(&probe, &["cache", "bytes_actual"]),
            num(&probe, &["cache", "bytes"]),
            "declared byte accounting drifted from the audit: {probe:?}"
        );
        // The mem block: allocator truth at snapshot time. Two requests
        // just planned, so the counters cannot be zero, and the peak
        // bound holds by the allocator's load ordering.
        let live = num(&probe, &["mem", "live_bytes"]);
        let peak = num(&probe, &["mem", "peak_bytes"]);
        assert!(live > 0.0 && peak >= live, "{probe:?}");
        assert!(num(&probe, &["mem", "allocs"]) > 0.0);
        assert_eq!(
            num(&probe, &["mem", "cache_bytes_actual"]),
            num(&probe, &["cache", "bytes_actual"])
        );
        assert_eq!(
            num(&probe, &["connections", "active"]),
            1.0,
            "the stdin front end is one connection"
        );
        assert!(num(&probe, &["connections", "accepted_total"]) >= 1.0);
        assert!(num(&probe, &["flight", "capacity"]) >= 16.0);
        // After drain the final stats agree with the wire transcript:
        // everything admitted finished, nothing is still in flight.
        assert_eq!(stats.pool.inflight, 0);
        assert_eq!(
            stats.counts.completed(),
            stats.counts.ok + stats.counts.degraded + stats.counts.error
        );
        assert_eq!(stats.counts.ok, 2);
        assert_eq!(stats.counts.error, 1);
        assert_eq!(stats.counts.received, 4);
    }

    #[test]
    fn scoped_collectors_and_pool_gauges_agree_under_concurrent_load() {
        // The satellite consistency check: many concurrent jobs, each
        // attaching its own scope exactly the way `run_request` does.
        // The per-request scopes must partition the global collector's
        // totals, and the pool gauges must return to rest after drain.
        const JOBS: u64 = 24;
        let scopes: Vec<Scope> = (0..JOBS).map(|i| Scope::new(format!("req-{i}"))).collect();
        let (pool_stats, _records, report) = lacr_obs::run_captured(|| {
            let pool = Pool::new("t-consistency", 4, JOBS as usize);
            let (tx, rx) = std::sync::mpsc::channel::<()>();
            for (i, scope) in scopes.iter().enumerate() {
                let scope = scope.clone();
                let tx = tx.clone();
                pool.submit(move || {
                    let _g = scope.attach();
                    lacr_obs::counter!("req.units", (i as u64) + 1);
                    lacr_obs::histogram!("req.size_us", 64_u64);
                    tx.send(()).unwrap();
                })
                .expect("capacity covers all jobs");
            }
            for _ in 0..JOBS {
                rx.recv().unwrap();
            }
            // A worker signals before its finish edge runs; wait for
            // the pool's own counters to settle before snapshotting.
            let deadline = Instant::now() + Duration::from_secs(5);
            loop {
                let s = pool.stats();
                if (s.completed_total == JOBS && s.inflight == 0) || Instant::now() > deadline {
                    break s;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
        });
        // Global totals equal the sum over per-request scopes.
        let scope_sum: i64 = scopes
            .iter()
            .map(|s| s.report().counter("req.units").unwrap_or(0))
            .sum();
        let expected: i64 = (1..=JOBS as i64).sum();
        assert_eq!(scope_sum, expected);
        assert_eq!(report.counter("req.units"), Some(expected));
        let scope_hist_count: u64 = scopes
            .iter()
            .map(|s| s.report().hist("req.size_us").map_or(0, Histogram::count))
            .sum();
        assert_eq!(scope_hist_count, JOBS);
        assert_eq!(report.hist("req.size_us").map(Histogram::count), Some(JOBS));
        // Pool telemetry settled: nothing in flight, everything counted.
        assert_eq!(pool_stats.inflight, 0);
        assert_eq!(pool_stats.completed_total, JOBS);
        assert_eq!(pool_stats.shed_total, 0);
        assert_eq!(pool_stats.panics, 0);
    }
}
