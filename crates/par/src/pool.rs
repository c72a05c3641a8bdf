//! A bounded job pool for long-lived services.
//!
//! [`Region`](crate::Region) covers the pipeline's fork/join kernels:
//! spawn, map, merge, return. A daemon needs the opposite shape — a
//! fixed set of resident workers fed from a **bounded** queue, where
//! submission is non-blocking and a full queue is an explicit,
//! load-sheddable outcome rather than unbounded memory growth. [`Pool`]
//! is that primitive:
//!
//! * **admission control** — [`Pool::submit`] never blocks; when the
//!   queue is at capacity it returns [`SubmitError::Overloaded`] with
//!   the queue depth, so callers can shed with a structured rejection;
//! * **fault isolation** — every job runs under `catch_unwind`, so a
//!   panicking job is counted (`pool.panics`) and its worker survives
//!   to take the next job. Jobs that must report a panic outcome do
//!   their own `catch_unwind` inside the job; the pool's is a backstop;
//! * **graceful drain** — [`Pool::close_and_drain`] stops admission,
//!   lets workers finish everything already queued, and joins them.
//!
//! Ordering: jobs start in submission order (one shared FIFO), but
//! completion order is up to job durations — callers that need ordered
//! output must sequence results themselves (the serve loop tags
//! responses with request ids instead).
//!
//! **Sharing.** Every method takes `&self`, so one `Arc<Pool>` can be
//! fed by any number of submitter threads concurrently — this is the
//! backbone of `lacr serve`'s socket mode, where all connection
//! readers submit into a single daemon-wide pool and `workers` /
//! `capacity` stay global invariants no matter how many clients are
//! connected. `close_and_drain` is idempotent and safe to call while
//! other threads are still submitting: they get
//! [`SubmitError::Closed`] and shed.
//!
//! **Telemetry.** The pool is the daemon's load-bearing wall, so it is
//! instrumented at every edge: submit, start, finish, shed. Two views
//! are maintained simultaneously:
//!
//! * **always-on atomics + sliding windows**, readable via
//!   [`Pool::stats`] / [`Pool::queue_wait`] / [`Pool::service`] even
//!   when no collector is installed — this is what `{"cmd":"stats"}`
//!   snapshots on a live daemon. The windows (one-minute rolling
//!   queue-wait and service-time histograms) are bounded memory; the
//!   rest is a handful of relaxed atomics per job.
//! * **lacr-obs gauges/counters/histograms** (`pool.queue_depth`,
//!   `pool.inflight`, `pool.shed_total`, `pool.completed_total`,
//!   `pool.panics`, `pool.queue_wait_us`, `pool.service_us`), emitted
//!   through the usual `recording()` gate so `--metrics-out` /
//!   `--trace-chrome` streams see the pool breathing, at zero cost when
//!   nothing is collecting.

use lacr_obs::window::{SlidingWindow, WindowSnapshot};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Rolling-window shape for the latency views: 12 × 5s = one minute.
const WINDOW_BUCKETS: usize = 12;
const WINDOW_BUCKET_WIDTH: Duration = Duration::from_secs(5);

struct Queue {
    /// Pending jobs with their enqueue instant (queue-wait epoch).
    jobs: VecDeque<(Instant, Job)>,
    /// Closed queues reject new jobs; workers exit once drained.
    closed: bool,
}

/// The always-on half of the pool's telemetry (see the module docs).
struct Telemetry {
    /// Jobs currently executing on a worker.
    inflight: AtomicUsize,
    /// Submissions rejected with [`SubmitError::Overloaded`].
    shed_total: AtomicU64,
    /// Jobs run to completion (panicked jobs included — they occupied
    /// a worker and were answered; `panics` counts them separately).
    completed_total: AtomicU64,
    /// Jobs whose panic the worker backstop caught.
    panics: AtomicU64,
    /// Rolling submit→start latency (µs).
    queue_wait_us: SlidingWindow,
    /// Rolling start→finish latency (µs).
    service_us: SlidingWindow,
}

impl Telemetry {
    fn new() -> Self {
        Self {
            inflight: AtomicUsize::new(0),
            shed_total: AtomicU64::new(0),
            completed_total: AtomicU64::new(0),
            panics: AtomicU64::new(0),
            queue_wait_us: SlidingWindow::new(WINDOW_BUCKETS, WINDOW_BUCKET_WIDTH),
            service_us: SlidingWindow::new(WINDOW_BUCKETS, WINDOW_BUCKET_WIDTH),
        }
    }
}

struct Shared {
    queue: Mutex<Queue>,
    /// Signals workers that a job arrived or the queue closed.
    ready: Condvar,
    capacity: usize,
    telemetry: Telemetry,
}

/// A point-in-time view of the pool's gauges and counters, readable
/// without any collector installed. Gauges (`queued`, `inflight`) are
/// instantaneous and can change the moment the snapshot returns;
/// counters (`shed_total`, `completed_total`, `panics`) are monotone
/// over the pool's lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Resident worker threads.
    pub workers: usize,
    /// Configured queue bound.
    pub capacity: usize,
    /// Jobs waiting in the queue right now.
    pub queued: usize,
    /// Jobs executing right now.
    pub inflight: usize,
    /// Submissions shed with `Overloaded` since startup.
    pub shed_total: u64,
    /// Jobs finished since startup.
    pub completed_total: u64,
    /// Panicking jobs caught by the worker backstop since startup.
    pub panics: u64,
}

/// A fixed-size worker pool over a bounded FIFO queue. See the module
/// docs for the admission / isolation / drain contract.
pub struct Pool {
    shared: Arc<Shared>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
    worker_count: usize,
    name: &'static str,
}

/// Why a [`Pool::submit`] was not accepted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The queue is at capacity; the job was dropped without running.
    /// Carries the depth observed and the configured capacity so the
    /// caller can report how overloaded the pool was.
    Overloaded { queued: usize, capacity: usize },
    /// The pool is closed (draining or drained); no new jobs run.
    Closed,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Overloaded { queued, capacity } => {
                write!(f, "pool overloaded ({queued}/{capacity} queued)")
            }
            Self::Closed => write!(f, "pool closed"),
        }
    }
}

impl Pool {
    /// Starts `workers` resident threads with a queue bounded at
    /// `queue_capacity` pending jobs (jobs already running don't count
    /// against the bound). Both are clamped to at least 1.
    pub fn new(name: &'static str, workers: usize, queue_capacity: usize) -> Self {
        let shared = Arc::new(Shared {
            queue: Mutex::new(Queue {
                jobs: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
            capacity: queue_capacity.max(1),
            telemetry: Telemetry::new(),
        });
        let worker_count = workers.max(1);
        let handles = (0..worker_count)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("{name}-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn pool worker")
            })
            .collect();
        Self {
            shared,
            workers: Mutex::new(handles),
            worker_count,
            name,
        }
    }

    /// The configured queue capacity.
    pub fn capacity(&self) -> usize {
        self.shared.capacity
    }

    /// Jobs currently waiting (not yet picked up by a worker).
    pub fn queued(&self) -> usize {
        self.lock().jobs.len()
    }

    /// A consistent-enough snapshot of the pool's live telemetry (see
    /// [`PoolStats`] for the gauge-vs-counter semantics). Never blocks
    /// on running jobs — one queue lock, then relaxed atomic loads.
    pub fn stats(&self) -> PoolStats {
        let t = &self.shared.telemetry;
        PoolStats {
            workers: self.worker_count,
            capacity: self.shared.capacity,
            queued: self.queued(),
            inflight: t.inflight.load(Ordering::Relaxed),
            shed_total: t.shed_total.load(Ordering::Relaxed),
            completed_total: t.completed_total.load(Ordering::Relaxed),
            panics: t.panics.load(Ordering::Relaxed),
        }
    }

    /// The rolling submit→start latency view (µs over the last minute).
    pub fn queue_wait(&self) -> WindowSnapshot {
        self.shared.telemetry.queue_wait_us.snapshot()
    }

    /// The rolling start→finish latency view (µs over the last minute).
    pub fn service(&self) -> WindowSnapshot {
        self.shared.telemetry.service_us.snapshot()
    }

    /// Enqueues a job without blocking.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Overloaded`] when the queue is at capacity (the
    /// job is dropped — shed it), [`SubmitError::Closed`] after
    /// [`close_and_drain`](Self::close_and_drain).
    pub fn submit(&self, job: impl FnOnce() + Send + 'static) -> Result<(), SubmitError> {
        let depth = {
            let mut q = self.lock();
            if q.closed {
                return Err(SubmitError::Closed);
            }
            if q.jobs.len() >= self.shared.capacity {
                let err = SubmitError::Overloaded {
                    queued: q.jobs.len(),
                    capacity: self.shared.capacity,
                };
                drop(q);
                self.shared
                    .telemetry
                    .shed_total
                    .fetch_add(1, Ordering::Relaxed);
                lacr_obs::counter!("pool.shed_total", 1_u64);
                return Err(err);
            }
            q.jobs.push_back((Instant::now(), Box::new(job)));
            q.jobs.len()
        };
        self.shared.ready.notify_one();
        lacr_obs::gauge!("pool.queue_depth", depth);
        Ok(())
    }

    /// Stops admission, runs every already-queued job to completion,
    /// and joins the workers. Idempotent; takes `&self` so an
    /// `Arc<Pool>` shared with producers can still be drained.
    pub fn close_and_drain(&self) {
        self.lock().closed = true;
        self.shared.ready.notify_all();
        let handles = std::mem::take(&mut *self.workers.lock().unwrap_or_else(|e| e.into_inner()));
        for h in handles {
            if h.join().is_err() {
                // Worker loops catch job panics; a panic here is a pool
                // bug, but drain must still not propagate it.
                eprintln!("[lacr] {}: worker thread panicked", self.name);
            }
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Queue> {
        self.shared.queue.lock().unwrap_or_else(|e| e.into_inner())
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.close_and_drain();
    }
}

fn worker_loop(shared: &Shared) {
    let t = &shared.telemetry;
    loop {
        let (enqueued, job, depth_after) = {
            let mut q = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some((enqueued, job)) = q.jobs.pop_front() {
                    break (enqueued, job, q.jobs.len());
                }
                if q.closed {
                    return;
                }
                q = shared.ready.wait(q).unwrap_or_else(|e| e.into_inner());
            }
        };
        // Start edge: the job left the queue and occupies this worker.
        let wait_us = enqueued.elapsed().as_micros() as u64;
        t.queue_wait_us.record(wait_us);
        let inflight = t.inflight.fetch_add(1, Ordering::Relaxed) + 1;
        lacr_obs::gauge!("pool.queue_depth", depth_after);
        lacr_obs::gauge!("pool.inflight", inflight);
        lacr_obs::histogram!("pool.queue_wait_us", wait_us);
        let started = Instant::now();
        // Isolation backstop: a panicking job must not take its worker
        // (and with it, a slot of the pool) down.
        if std::panic::catch_unwind(std::panic::AssertUnwindSafe(job)).is_err() {
            t.panics.fetch_add(1, Ordering::Relaxed);
            lacr_obs::counter!("pool.panics", 1_u64);
        }
        // Finish edge: panicked or not, the job consumed a service slot
        // and was answered — it counts as completed.
        let service_us = started.elapsed().as_micros() as u64;
        t.service_us.record(service_us);
        let inflight = t.inflight.fetch_sub(1, Ordering::Relaxed) - 1;
        t.completed_total.fetch_add(1, Ordering::Relaxed);
        lacr_obs::gauge!("pool.inflight", inflight);
        lacr_obs::counter!("pool.completed_total", 1_u64);
        lacr_obs::histogram!("pool.service_us", service_us);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lacr_obs::Histogram;
    use std::sync::mpsc;

    /// Held by every test that runs a pool: workers write the process-wide
    /// `pool.*` gauges, which one test captures and checks, and tests run
    /// on parallel threads.
    fn pool_gauge_lock() -> std::sync::MutexGuard<'static, ()> {
        static POOL_GAUGES: std::sync::Mutex<()> = std::sync::Mutex::new(());
        POOL_GAUGES.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn jobs_run_and_drain_completes() {
        let _gauges = pool_gauge_lock();
        let pool = Pool::new("t-basic", 3, 64);
        let done = Arc::new(AtomicUsize::new(0));
        for _ in 0..50 {
            let done = Arc::clone(&done);
            pool.submit(move || {
                done.fetch_add(1, Ordering::Relaxed);
            })
            .expect("submit");
        }
        pool.close_and_drain();
        assert_eq!(done.load(Ordering::Relaxed), 50);
    }

    #[test]
    fn full_queue_rejects_with_overloaded() {
        let _gauges = pool_gauge_lock();
        let pool = Pool::new("t-full", 1, 2);
        let (block_tx, block_rx) = mpsc::channel::<()>();
        let (started_tx, started_rx) = mpsc::channel::<()>();
        // One job occupies the single worker until released...
        pool.submit(move || {
            started_tx.send(()).unwrap();
            block_rx.recv().unwrap();
        })
        .expect("blocker");
        started_rx
            .recv_timeout(Duration::from_secs(5))
            .expect("worker picked up blocker");
        // ...so these two fill the queue...
        pool.submit(|| {}).expect("fits");
        pool.submit(|| {}).expect("fits");
        // ...and the next is shed with the observed depth.
        match pool.submit(|| {}) {
            Err(SubmitError::Overloaded { queued, capacity }) => {
                assert_eq!((queued, capacity), (2, 2));
            }
            other => panic!("expected Overloaded, got {other:?}"),
        }
        block_tx.send(()).unwrap();
        pool.close_and_drain();
    }

    #[test]
    fn panicking_job_does_not_kill_its_worker() {
        let _gauges = pool_gauge_lock();
        let pool = Pool::new("t-panic", 1, 16);
        let done = Arc::new(AtomicUsize::new(0));
        pool.submit(|| panic!("injected"))
            .expect("submit panic job");
        let d = Arc::clone(&done);
        pool.submit(move || {
            d.fetch_add(1, Ordering::Relaxed);
        })
        .expect("submit after panic");
        pool.close_and_drain();
        // The single worker survived the panic and ran the second job.
        assert_eq!(done.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn closed_pool_rejects_and_drain_is_idempotent() {
        let _gauges = pool_gauge_lock();
        let pool = Pool::new("t-closed", 2, 8);
        let done = Arc::new(AtomicUsize::new(0));
        let d = Arc::clone(&done);
        pool.submit(move || {
            d.fetch_add(1, Ordering::Relaxed);
        })
        .expect("submit");
        pool.close_and_drain();
        assert_eq!(pool.submit(|| {}), Err(SubmitError::Closed));
        pool.close_and_drain(); // idempotent
        assert_eq!(done.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn stats_track_the_submit_start_finish_shed_edges() {
        let _gauges = pool_gauge_lock();
        let pool = Pool::new("t-stats", 2, 4);
        let s = pool.stats();
        assert_eq!((s.workers, s.capacity), (2, 4));
        assert_eq!((s.queued, s.inflight), (0, 0));
        assert_eq!((s.shed_total, s.completed_total, s.panics), (0, 0, 0));

        // Saturate: 2 blockers occupy both workers, 4 fill the queue.
        let (block_tx, block_rx) = mpsc::channel::<()>();
        let block_rx = Arc::new(Mutex::new(block_rx));
        let (started_tx, started_rx) = mpsc::channel::<()>();
        for _ in 0..2 {
            let rx = Arc::clone(&block_rx);
            let started = started_tx.clone();
            pool.submit(move || {
                started.send(()).unwrap();
                rx.lock().unwrap().recv().unwrap();
            })
            .expect("blocker");
        }
        for _ in 0..2 {
            started_rx
                .recv_timeout(Duration::from_secs(5))
                .expect("blockers running");
        }
        for _ in 0..4 {
            pool.submit(|| {}).expect("queue has room");
        }
        assert!(pool.submit(|| {}).is_err(), "queue full");
        assert!(pool.submit(|| {}).is_err());
        let s = pool.stats();
        assert_eq!(s.inflight, 2, "both workers busy");
        assert_eq!(s.queued, 4, "queue full");
        assert_eq!(s.shed_total, 2, "two submissions shed");

        // Release and drain: everything completes, nothing in flight.
        block_tx.send(()).unwrap();
        block_tx.send(()).unwrap();
        pool.close_and_drain();
        let s = pool.stats();
        assert_eq!((s.queued, s.inflight), (0, 0), "drained");
        assert_eq!(s.completed_total, 6, "2 blockers + 4 queued");
        assert_eq!(s.shed_total, 2, "counters survive the drain");
        // Each completed job recorded one sample in each rolling window.
        assert_eq!(pool.queue_wait().count, 6);
        assert_eq!(pool.service().count, 6);
        let w = pool.service();
        assert!(w.p50 <= w.p95 && w.p95 <= w.p99);
    }

    #[test]
    fn panicking_jobs_count_as_completed_and_panicked() {
        let _gauges = pool_gauge_lock();
        let pool = Pool::new("t-stats-panic", 1, 8);
        pool.submit(|| panic!("injected")).expect("submit");
        pool.submit(|| {}).expect("submit");
        pool.close_and_drain();
        let s = pool.stats();
        assert_eq!(s.completed_total, 2, "panicked job still completed");
        assert_eq!(s.panics, 1);
        assert_eq!(s.inflight, 0);
    }

    #[test]
    fn pool_edges_emit_obs_metrics_when_collecting() {
        let _gauges = pool_gauge_lock();
        let ((), _records, report) = lacr_obs::run_captured(|| {
            let pool = Pool::new("t-stats-obs", 1, 2);
            let (block_tx, block_rx) = mpsc::channel::<()>();
            let (started_tx, started_rx) = mpsc::channel::<()>();
            pool.submit(move || {
                started_tx.send(()).unwrap();
                block_rx.recv().unwrap();
            })
            .expect("blocker");
            started_rx
                .recv_timeout(Duration::from_secs(5))
                .expect("blocker running");
            pool.submit(|| {}).expect("fits");
            pool.submit(|| {}).expect("fits");
            let _ = pool.submit(|| {}); // shed
            block_tx.send(()).unwrap();
            pool.close_and_drain();
        });
        assert_eq!(report.counter("pool.completed_total"), Some(3));
        assert_eq!(report.counter("pool.shed_total"), Some(1));
        assert_eq!(
            report.gauge("pool.inflight"),
            Some(0.0),
            "last write is the drain"
        );
        assert!(report.gauge("pool.queue_depth").is_some());
        assert_eq!(
            report.hist("pool.queue_wait_us").map(Histogram::count),
            Some(3)
        );
        assert_eq!(
            report.hist("pool.service_us").map(Histogram::count),
            Some(3)
        );
    }

    #[test]
    fn one_shared_pool_accepts_submitters_from_many_threads() {
        let _gauges = pool_gauge_lock();
        // The serve socket mode's shape: N connection threads submit
        // into one Arc<Pool>. Admission stays globally bounded (either
        // run or shed with a structured depth, never lost), and the
        // drain accounts for every job exactly once.
        const SUBMITTERS: usize = 8;
        const PER_THREAD: usize = 50;
        let pool = Arc::new(Pool::new("t-shared", 2, 16));
        let done = Arc::new(AtomicUsize::new(0));
        let shed = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..SUBMITTERS)
            .map(|_| {
                let pool = Arc::clone(&pool);
                let done = Arc::clone(&done);
                let shed = Arc::clone(&shed);
                std::thread::spawn(move || {
                    for _ in 0..PER_THREAD {
                        let done = Arc::clone(&done);
                        match pool.submit(move || {
                            std::thread::sleep(Duration::from_micros(20));
                            done.fetch_add(1, Ordering::Relaxed);
                        }) {
                            Ok(()) => {}
                            Err(SubmitError::Overloaded { queued, capacity }) => {
                                assert!(queued <= capacity, "{queued} > {capacity}");
                                shed.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(SubmitError::Closed) => panic!("pool closed early"),
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("submitter finishes");
        }
        pool.close_and_drain();
        let stats = pool.stats();
        assert_eq!(
            done.load(Ordering::Relaxed) + shed.load(Ordering::Relaxed),
            SUBMITTERS * PER_THREAD,
            "every submission either ran or shed"
        );
        assert_eq!(stats.completed_total as usize, done.load(Ordering::Relaxed));
        assert_eq!(stats.shed_total as usize, shed.load(Ordering::Relaxed));
        assert_eq!(stats.workers, 2, "worker count is a global invariant");
        assert_eq!((stats.inflight, stats.queued), (0, 0), "drained to rest");
    }

    #[test]
    fn drain_runs_every_queued_job() {
        let _gauges = pool_gauge_lock();
        let pool = Pool::new("t-drain", 2, 256);
        let done = Arc::new(AtomicUsize::new(0));
        for _ in 0..200 {
            let done = Arc::clone(&done);
            pool.submit(move || {
                std::thread::sleep(Duration::from_micros(50));
                done.fetch_add(1, Ordering::Relaxed);
            })
            .expect("submit");
        }
        pool.close_and_drain();
        assert_eq!(done.load(Ordering::Relaxed), 200);
    }
}
