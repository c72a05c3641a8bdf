//! Memory observability: the counting global allocator.
//!
//! Time and quality have been first-class telemetry since the first
//! observability PRs; this module makes *bytes* the third measured
//! quantity. A zero-dependency [`CountingAlloc`] wraps
//! [`std::alloc::System`] and maintains, with relaxed atomics:
//!
//! * **live bytes** — currently allocated and not yet freed;
//! * **peak live bytes** — the high-water mark of live bytes (CAS-max);
//! * **alloc / dealloc counts** — monotone event counters.
//!
//! Alongside the process-wide counters, every thread keeps monotone
//! *thread-local* counters (allocated bytes, freed bytes, allocation
//! count). Those are what make attribution possible: a [`ThreadMark`]
//! snapshots them, and the delta between two marks is the allocation
//! activity of *this thread* over that window — immune to concurrent
//! allocation on other threads, which is why per-span and per-request
//! deltas stay correct in the serve daemon. A `lacr_par::Region`
//! fan-out is the one hand-off: each worker measures its own delta, and
//! the forking thread adds their sum to its own counters
//! ([`credit_foreign`]; see `Region::map_indexed_with`), so its open
//! marks count the workers' bytes once.
//!
//! Cost model: when tracking is disabled ([`set_tracking`]`(false)`, or
//! the `LACR_MEM=off` environment variable via
//! [`init_tracking_from_env`]) every allocator call pays **one relaxed
//! atomic load** and falls through to the system allocator. When
//! enabled (the default) each call adds a handful of relaxed
//! atomic/thread-local increments — well inside the workspace's <2%
//! disabled-instrumentation budget, since the span attribution path
//! still gates on [`crate::recording`]. Toggling tracking
//! mid-run skews the live counter (frees of blocks allocated while
//! off); the toggle exists for overhead measurement, not steady-state
//! use, and the live counter is clamped at zero rather than allowed to
//! wrap.
//!
//! The allocator is installed by `lacr-obs` itself (`#[global_allocator]`
//! in `lib.rs`), so every binary, test, and bench in the workspace
//! counts the same way without per-crate ceremony.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};

/// Live bytes: signed so a mid-run tracking toggle can transiently
/// drive it negative without wrapping to 2^64; reads clamp at zero.
static LIVE: AtomicI64 = AtomicI64::new(0);
/// High-water mark of [`LIVE`] (maintained by a CAS-max loop).
static PEAK: AtomicI64 = AtomicI64::new(0);
/// Monotone count of allocation events (alloc, alloc_zeroed, realloc).
static ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Monotone count of deallocation events (dealloc, realloc).
static DEALLOCS: AtomicU64 = AtomicU64::new(0);
/// The one-relaxed-load fast-path gate.
static TRACKING: AtomicBool = AtomicBool::new(true);

thread_local! {
    // Const-initialised `Cell`s: no lazy init, no destructor, so these
    // are safe to touch from inside the global allocator even during
    // thread teardown.
    static TL_ALLOC_BYTES: Cell<u64> = const { Cell::new(0) };
    static TL_DEALLOC_BYTES: Cell<u64> = const { Cell::new(0) };
    static TL_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// The counting wrapper around [`System`]. Installed process-wide by
/// this crate's `#[global_allocator]`.
pub struct CountingAlloc;

#[inline]
fn on_alloc(size: usize) {
    let live = LIVE.fetch_add(size as i64, Ordering::Relaxed) + size as i64;
    raise(live);
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    let _ = TL_ALLOC_BYTES.try_with(|c| c.set(c.get() + size as u64));
    let _ = TL_ALLOCS.try_with(|c| c.set(c.get() + 1));
}

#[inline]
fn on_dealloc(size: usize) {
    LIVE.fetch_sub(size as i64, Ordering::Relaxed);
    DEALLOCS.fetch_add(1, Ordering::Relaxed);
    let _ = TL_DEALLOC_BYTES.try_with(|c| c.set(c.get() + size as u64));
}

// SAFETY: delegates every operation verbatim to `System`; the counters
// are relaxed atomics and const-init thread-locals, neither of which
// allocates, so there is no reentrancy into the allocator itself.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() && TRACKING.load(Ordering::Relaxed) {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() && TRACKING.load(Ordering::Relaxed) {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        if TRACKING.load(Ordering::Relaxed) {
            on_dealloc(layout.size());
        }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() && TRACKING.load(Ordering::Relaxed) {
            // One dealloc of the old block plus one alloc of the new:
            // keeps live exact and both event counters monotone.
            on_dealloc(layout.size());
            on_alloc(new_size);
        }
        p
    }
}

/// A point-in-time copy of the process-wide allocator counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemStats {
    /// Bytes currently allocated (clamped at zero).
    pub live_bytes: u64,
    /// High-water mark of `live_bytes` since process start.
    pub peak_bytes: u64,
    /// Allocation events since process start (monotone).
    pub allocs: u64,
    /// Deallocation events since process start (monotone).
    pub deallocs: u64,
}

/// Current process-wide counters. `live_bytes` is loaded before
/// `peak_bytes`, so within one snapshot `peak_bytes >= live_bytes`
/// always holds (peak only grows).
pub fn stats() -> MemStats {
    let live = live_bytes();
    let peak = peak_bytes();
    MemStats {
        live_bytes: live,
        peak_bytes: peak.max(live),
        allocs: ALLOCS.load(Ordering::Relaxed),
        deallocs: DEALLOCS.load(Ordering::Relaxed),
    }
}

/// Bytes currently allocated (clamped at zero).
#[inline]
pub fn live_bytes() -> u64 {
    LIVE.load(Ordering::Relaxed).max(0) as u64
}

/// High-water mark of live bytes since process start, or since the last
/// [`reset_peak`].
#[inline]
pub fn peak_bytes() -> u64 {
    PEAK.load(Ordering::Relaxed).max(0) as u64
}

/// Lifts the high-water mark to `bytes` if it is lower.
pub fn raise_peak(bytes: u64) {
    raise(i64::try_from(bytes).unwrap_or(i64::MAX));
}

/// The CAS-max behind [`raise_peak`] and every counted allocation.
#[inline]
fn raise(live: i64) {
    let mut peak = PEAK.load(Ordering::Relaxed);
    while live > peak {
        match PEAK.compare_exchange_weak(peak, live, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => break,
            Err(p) => peak = p,
        }
    }
}

/// Lowers the high-water mark to the current live bytes, so the next
/// [`peak_bytes`] reads the peak of what runs from here on, and returns
/// the mark it replaced.
///
/// Call it only where no other thread allocates (between the circuits
/// of a bench bin, no parallel region open): an allocation racing the
/// reset could leave the peak below live bytes. Library code never
/// calls it, so a process that does not is left with the whole run's
/// peak. A caller that resets must fold the returned marks (and the
/// final one) back with [`raise_peak`] before it reports a process
/// peak.
pub fn reset_peak() -> u64 {
    PEAK.swap(LIVE.load(Ordering::Relaxed), Ordering::Relaxed)
        .max(0) as u64
}

/// Turns allocator counting on or off at runtime. Off reduces every
/// allocator call to one relaxed load; see the module docs for the
/// accuracy caveat when toggling mid-run.
pub fn set_tracking(on: bool) {
    TRACKING.store(on, Ordering::Relaxed);
}

/// Whether allocator counting is currently on.
#[inline]
pub fn tracking() -> bool {
    TRACKING.load(Ordering::Relaxed)
}

/// Applies the `LACR_MEM` environment variable (`0` / `off` disables
/// counting). Called from the CLI / bench observability installers —
/// the allocator itself never reads the environment (reading it
/// allocates, which would recurse).
pub fn init_tracking_from_env() {
    if std::env::var("LACR_MEM").is_ok_and(|v| v == "0" || v == "off") {
        set_tracking(false);
    }
}

/// A snapshot of the *current thread's* monotone allocation counters.
/// The difference between two marks on the same thread is exactly that
/// thread's allocation activity in between.
#[derive(Debug, Clone, Copy)]
pub struct ThreadMark {
    alloc_bytes: u64,
    dealloc_bytes: u64,
    allocs: u64,
}

/// Allocation activity between a [`ThreadMark`] and now (or between two
/// marks), on one thread.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemDelta {
    /// Bytes allocated in the window (gross, monotone).
    pub alloc_bytes: u64,
    /// Bytes freed in the window (gross, monotone).
    pub dealloc_bytes: u64,
    /// Allocation events in the window.
    pub allocs: u64,
}

impl MemDelta {
    /// Net bytes: allocated minus freed (negative when the window freed
    /// more than it allocated).
    pub fn net_bytes(&self) -> i64 {
        self.alloc_bytes as i64 - self.dealloc_bytes as i64
    }

    /// Component-wise sum.
    pub fn add(&mut self, other: &MemDelta) {
        self.alloc_bytes += other.alloc_bytes;
        self.dealloc_bytes += other.dealloc_bytes;
        self.allocs += other.allocs;
    }

    /// Component-wise saturating difference (used for child exclusion:
    /// `self - children` on the same thread's monotone counters).
    pub fn saturating_sub(&self, other: &MemDelta) -> MemDelta {
        MemDelta {
            alloc_bytes: self.alloc_bytes.saturating_sub(other.alloc_bytes),
            dealloc_bytes: self.dealloc_bytes.saturating_sub(other.dealloc_bytes),
            allocs: self.allocs.saturating_sub(other.allocs),
        }
    }
}

/// Snapshots the current thread's counters.
pub fn thread_mark() -> ThreadMark {
    ThreadMark {
        alloc_bytes: TL_ALLOC_BYTES.with(Cell::get),
        dealloc_bytes: TL_DEALLOC_BYTES.with(Cell::get),
        allocs: TL_ALLOCS.with(Cell::get),
    }
}

impl ThreadMark {
    /// The thread's allocation activity since this mark.
    pub fn delta(&self) -> MemDelta {
        let now = thread_mark();
        MemDelta {
            alloc_bytes: now.alloc_bytes.saturating_sub(self.alloc_bytes),
            dealloc_bytes: now.dealloc_bytes.saturating_sub(self.dealloc_bytes),
            allocs: now.allocs.saturating_sub(self.allocs),
        }
    }
}

/// Credits allocation done on *other* threads (a parallel region's
/// workers) to the current thread's own counters, so every
/// [`ThreadMark`] open here counts those bytes: the enclosing spans and
/// a serve request alike. The process-wide counters already hold them
/// and are left alone.
pub fn credit_foreign(delta: &MemDelta) {
    TL_ALLOC_BYTES.with(|c| c.set(c.get() + delta.alloc_bytes));
    TL_DEALLOC_BYTES.with(|c| c.set(c.get() + delta.dealloc_bytes));
    TL_ALLOCS.with(|c| c.set(c.get() + delta.allocs));
}

/// The process peak resident set size in bytes (`VmHWM` from
/// `/proc/self/status`), or `None` where that interface is unavailable.
pub fn peak_rss_bytes() -> Option<u64> {
    proc_status_kb("VmHWM:").map(|kb| kb * 1024)
}

#[cfg(target_os = "linux")]
fn proc_status_kb(key: &str) -> Option<u64> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix(key) {
            return rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<u64>()
                .ok();
        }
    }
    None
}

#[cfg(not(target_os = "linux"))]
fn proc_status_kb(_key: &str) -> Option<u64> {
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_counters_observe_a_forced_allocation() {
        let before = stats();
        let v: Vec<u8> = Vec::with_capacity(1 << 16);
        let mid = stats();
        assert!(
            mid.allocs > before.allocs,
            "allocs must tick: {before:?} -> {mid:?}"
        );
        assert!(mid.peak_bytes >= mid.live_bytes.min(1 << 16));
        drop(v);
        let after = stats();
        assert!(after.deallocs > mid.deallocs.saturating_sub(1));
        // Peak never decreases.
        assert!(after.peak_bytes >= mid.peak_bytes);
    }

    #[test]
    fn peak_is_at_least_live_in_every_snapshot() {
        for i in 0..64 {
            let _v: Vec<u8> = Vec::with_capacity(1024 * (i + 1));
            let s = stats();
            assert!(
                s.peak_bytes >= s.live_bytes,
                "peak {} < live {}",
                s.peak_bytes,
                s.live_bytes
            );
        }
    }

    #[test]
    fn thread_deltas_track_this_thread_exactly() {
        let mark = thread_mark();
        let size = 1 << 14;
        let v: Vec<u8> = Vec::with_capacity(size);
        let d = mark.delta();
        assert!(d.allocs >= 1, "at least the Vec's allocation: {d:?}");
        assert!(d.alloc_bytes >= size as u64, "{d:?}");
        drop(v);
        let d2 = mark.delta();
        assert!(d2.dealloc_bytes >= size as u64, "{d2:?}");
        assert!(d2.net_bytes() < d.net_bytes());
    }

    #[test]
    fn thread_deltas_ignore_other_threads() {
        let mark = thread_mark();
        std::thread::scope(|s| {
            s.spawn(|| {
                let _big: Vec<u8> = Vec::with_capacity(1 << 20);
            });
        });
        let d = mark.delta();
        // The spawned thread's megabyte is invisible to this thread's
        // counters (scope/join bookkeeping allocates far less).
        assert!(d.alloc_bytes < 1 << 20, "{d:?}");
    }

    // No test here may call `set_tracking` or `reset_peak`: both act
    // process-wide and these tests run in parallel. Their tests are in
    // `tests/tracking_toggle.rs` and `tests/reset_peak.rs`.

    #[test]
    fn mem_delta_arithmetic() {
        let mut a = MemDelta {
            alloc_bytes: 100,
            dealloc_bytes: 30,
            allocs: 5,
        };
        assert_eq!(a.net_bytes(), 70);
        a.add(&MemDelta {
            alloc_bytes: 10,
            dealloc_bytes: 50,
            allocs: 1,
        });
        assert_eq!(a.net_bytes(), 30);
        let sub = a.saturating_sub(&MemDelta {
            alloc_bytes: 200,
            dealloc_bytes: 10,
            allocs: 2,
        });
        assert_eq!(sub.alloc_bytes, 0);
        assert_eq!(sub.dealloc_bytes, 70);
        assert_eq!(sub.allocs, 4);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn peak_rss_is_readable_and_plausible() {
        let rss = peak_rss_bytes().expect("VmHWM readable on Linux");
        // A running test binary holds at least a megabyte.
        assert!(rss > 1 << 20, "implausible peak RSS {rss}");
    }
}
