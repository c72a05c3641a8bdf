//! Deterministic scoped parallelism for the planning pipeline.
//!
//! The pipeline's hot kernels (per-source W/D Dijkstras, per-net routing,
//! test-case fan-out) are index-parallel: item `i`'s
//! result depends only on item `i` and on state frozen before the region
//! starts. [`Region::map_indexed`] runs such a map across a scoped worker
//! pool and returns the results **in input order, bit-identical to the
//! sequential path at any thread count**:
//!
//! * work is claimed in fixed-size chunks off one atomic cursor, so
//!   scheduling varies run to run — but each worker tags results with
//!   their input index and the merge sorts by that unique key, so the
//!   caller never observes scheduling order;
//! * the item function receives no shared mutable state; per-worker
//!   scratch comes from an `init` closure ([`Region::map_indexed_with`]),
//!   mirroring the scratch-buffer reuse of the sequential loops;
//! * with one effective thread the region runs inline on the caller's
//!   stack — no pool, no atomics, byte-for-byte the sequential code path.
//!
//! Thread-count resolution, strongest first: [`set_threads`] (the CLI's
//! `--threads`), the `LACR_THREADS` environment variable, then
//! [`std::thread::available_parallelism`]. A region whose
//! [`deadline`](Region::deadline) has expired runs inline: once the
//! planner's `Budget` latch trips, no new worker threads are spawned and
//! the degraded path stays single-threaded and deterministic.
//!
//! Every region emits a `par.region` span plus the `par.tasks` /
//! `par.steal` counter pair (items executed / chunks claimed beyond each
//! worker's first).
//!
//! # Examples
//!
//! ```
//! use lacr_par::Region;
//!
//! let squares = Region::new("docs.squares").map_indexed(&[1u64, 2, 3, 4], |_, &x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

pub mod pool;
pub use pool::{Pool, PoolStats, SubmitError};

/// Process-wide override installed by the CLI's `--threads` flag.
/// Zero means "not set".
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Cached `LACR_THREADS` / `available_parallelism` resolution.
static THREAD_DEFAULT: OnceLock<usize> = OnceLock::new();

/// Installs a process-wide thread-count override (the CLI's `--threads`).
/// A value of 0 clears the override, falling back to `LACR_THREADS` or
/// the machine's available parallelism.
pub fn set_threads(n: usize) {
    THREAD_OVERRIDE.store(n, Ordering::Relaxed);
}

/// The maximum number of worker threads a region may use: the
/// [`set_threads`] override if installed, else `LACR_THREADS` if set to a
/// positive integer, else [`std::thread::available_parallelism`].
pub fn max_threads() -> usize {
    let explicit = THREAD_OVERRIDE.load(Ordering::Relaxed);
    if explicit > 0 {
        return explicit;
    }
    *THREAD_DEFAULT.get_or_init(|| {
        match std::env::var("LACR_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
        {
            Some(n) if n > 0 => n,
            _ => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        }
    })
}

/// A named parallel region: a label for observability plus the budget
/// deadline the region honors before spawning workers.
#[derive(Debug, Clone, Copy)]
pub struct Region<'a> {
    name: &'a str,
    deadline: Option<Instant>,
}

impl<'a> Region<'a> {
    /// A region with no deadline.
    pub fn new(name: &'a str) -> Self {
        Self {
            name,
            deadline: None,
        }
    }

    /// Attaches the planner budget's deadline: once it has expired the
    /// region runs inline on the calling thread (the sticky-latch
    /// degradation contract — an expired budget never fans out).
    pub fn deadline(mut self, deadline: Option<Instant>) -> Self {
        self.deadline = deadline;
        self
    }

    /// Worker count for `items` work items: capped by [`max_threads`],
    /// never more than one thread per item, and 1 once the deadline has
    /// expired.
    pub fn effective_threads(&self, items: usize) -> usize {
        if let Some(d) = self.deadline {
            if Instant::now() >= d {
                return 1;
            }
        }
        max_threads().min(items).max(1)
    }

    /// Maps `f` over `items`, returning results in input order.
    ///
    /// `f` must be a pure function of its index and item (plus state
    /// frozen before the call) — that is what makes the output
    /// thread-count invariant.
    pub fn map_indexed<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        self.map_indexed_with(items, || (), move |(), i, item| f(i, item))
    }

    /// Like [`map_indexed`](Self::map_indexed), with per-worker scratch
    /// state: each worker calls `init` once and threads the value through
    /// its items, so sequential scratch-buffer reuse survives
    /// parallelisation. `f` must leave no observable state in the scratch
    /// between items (results must not depend on which items shared a
    /// worker).
    pub fn map_indexed_with<S, T, R, I, F>(&self, items: &[T], init: I, f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, usize, &T) -> R + Sync,
    {
        let n = items.len();
        let threads = self.effective_threads(n);
        let _span = lacr_obs::span!(
            "par.region",
            region = self.name,
            items = n,
            threads = threads
        );
        lacr_obs::counter!("par.tasks", n as u64);
        if threads <= 1 {
            let mut state = init();
            return items
                .iter()
                .enumerate()
                .map(|(i, item)| f(&mut state, i, item))
                .collect();
        }
        // Chunked self-scheduling off one shared cursor: small enough
        // chunks to balance uneven items, large enough to keep the cursor
        // cold. Results carry their input index; the merge below restores
        // input order exactly.
        let chunk = (n / (threads * 8)).max(1);
        let cursor = AtomicUsize::new(0);
        // Carry the caller's request scope (if any) onto every worker so
        // spans and counters from the fan-out stay attributed to it.
        let obs_scope = lacr_obs::scope::current();
        let mut indexed: Vec<(usize, R)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    scope.spawn(|| {
                        let _scope_guard = obs_scope.as_ref().map(|s| s.attach());
                        // Snapshot the worker's allocation counters so the
                        // fan-out's memory can be credited to the forking
                        // thread after the join.
                        let mem_mark = lacr_obs::mem::thread_mark();
                        let mut state = init();
                        let mut local: Vec<(usize, R)> = Vec::new();
                        let mut claims = 0_u64;
                        loop {
                            let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                            if start >= n {
                                break;
                            }
                            claims += 1;
                            for (i, item) in items
                                .iter()
                                .enumerate()
                                .take((start + chunk).min(n))
                                .skip(start)
                            {
                                local.push((i, f(&mut state, i, item)));
                            }
                        }
                        // The worker state is freed here, so its bytes
                        // leave the delta they entered.
                        drop(state);
                        let mem = mem_mark.delta();
                        (local, claims, mem)
                    })
                })
                .collect();
            let mut all: Vec<(usize, R)> = Vec::with_capacity(n);
            let mut steals = 0_u64;
            let mut mem = lacr_obs::MemDelta::default();
            let mut panic: Option<Box<dyn std::any::Any + Send>> = None;
            for h in handles {
                match h.join() {
                    Ok((local, claims, worker_mem)) => {
                        steals += claims.saturating_sub(1);
                        mem.add(&worker_mem);
                        all.extend(local);
                    }
                    Err(e) => panic = Some(e),
                }
            }
            if let Some(e) = panic {
                // Propagate the worker panic on the caller's thread, as
                // the sequential loop would have.
                std::panic::resume_unwind(e);
            }
            lacr_obs::counter!("par.steal", steals);
            // Credit the workers' allocations to this thread's own
            // counters while `par.region` is still open, so the span,
            // its enclosing spans and any request mark count them once.
            lacr_obs::mem::credit_foreign(&mem);
            all
        });
        indexed.sort_unstable_by_key(|&(i, _)| i);
        debug_assert!(indexed.iter().enumerate().all(|(k, &(i, _))| k == i));
        indexed.into_iter().map(|(_, r)| r).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    /// Runs `f` under a temporary thread override, restoring the previous
    /// override afterwards. Tests in this crate are the only callers of
    /// `set_threads`, and each test serialises its own override changes.
    fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
        let prev = THREAD_OVERRIDE.load(Ordering::Relaxed);
        set_threads(n);
        let r = f();
        set_threads(prev);
        r
    }

    #[test]
    fn results_arrive_in_input_order_at_any_thread_count() {
        let items: Vec<u64> = (0..257).collect();
        let expected: Vec<u64> = items.iter().map(|&x| x * x + 1).collect();
        for threads in [1, 2, 3, 8, 32] {
            let got = with_threads(threads, || {
                Region::new("test.square").map_indexed(&items, |_, &x| x * x + 1)
            });
            assert_eq!(got, expected, "threads = {threads}");
        }
    }

    #[test]
    fn uneven_items_still_merge_in_order() {
        // Make late indices cheap and early ones expensive so workers
        // finish out of order.
        let items: Vec<u64> = (0..64).collect();
        let got = with_threads(4, || {
            Region::new("test.uneven").map_indexed(&items, |i, &x| {
                let mut acc = x;
                for _ in 0..(64 - i) * 1000 {
                    acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
                }
                (i as u64, acc)
            })
        });
        let seq: Vec<(u64, u64)> = items
            .iter()
            .enumerate()
            .map(|(i, &x)| {
                let mut acc = x;
                for _ in 0..(64 - i) * 1000 {
                    acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
                }
                (i as u64, acc)
            })
            .collect();
        assert_eq!(got, seq);
    }

    #[test]
    fn per_worker_state_is_initialised_per_worker() {
        // The scratch is a counter; every item sees a value < items-len,
        // and the total number of init calls is at most the thread count.
        let inits = AtomicU64::new(0);
        let items: Vec<u32> = (0..100).collect();
        let got = with_threads(4, || {
            Region::new("test.state").map_indexed_with(
                &items,
                || {
                    inits.fetch_add(1, Ordering::Relaxed);
                    Vec::<u32>::new()
                },
                |scratch, _, &x| {
                    scratch.push(x);
                    x
                },
            )
        });
        assert_eq!(got, items);
        assert!(inits.load(Ordering::Relaxed) <= 4);
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let got: Vec<u8> = Region::new("test.empty").map_indexed(&[] as &[u8], |_, &x| x);
        assert!(got.is_empty());
    }

    #[test]
    fn expired_deadline_runs_inline() {
        let region = Region::new("test.deadline").deadline(Some(Instant::now()));
        assert_eq!(region.effective_threads(1024), 1);
        // And still produces correct results.
        let got = region.map_indexed(&[1u8, 2, 3], |_, &x| x + 1);
        assert_eq!(got, vec![2, 3, 4]);
    }

    #[test]
    fn worker_panic_propagates() {
        let items: Vec<u32> = (0..50).collect();
        let r = std::panic::catch_unwind(|| {
            with_threads(2, || {
                Region::new("test.panic").map_indexed(&items, |_, &x| {
                    assert!(x != 25, "boom");
                    x
                })
            })
        });
        assert!(r.is_err());
    }

    #[test]
    fn region_workers_record_into_the_callers_scope() {
        let scope = lacr_obs::scope::Scope::new("par-test");
        let items: Vec<u64> = (0..64).collect();
        let got = with_threads(4, || {
            let _g = scope.attach();
            Region::new("test.scoped").map_indexed(&items, |_, &x| {
                lacr_obs::counter!("par.scope.items", 1_u64);
                x
            })
        });
        assert_eq!(got, items);
        // Every worker thread saw the attached scope, so all 64 item
        // ticks (plus the region's own par.tasks) landed in it.
        assert_eq!(scope.report().counter("par.scope.items"), Some(64));
        assert_eq!(scope.report().counter("par.tasks"), Some(64));
        assert!(scope.report().span("par.region").is_some());
    }

    #[test]
    fn fan_out_memory_is_credited_to_the_region_span() {
        // Satellite: Σ per-task allocation deltas must show up in the
        // global allocator counters and in the `par.region` span's memory
        // attribution. Strict equality is impossible here — other cargo
        // test threads allocate concurrently — so the assertions are
        // one-sided: the global delta and the span's attributed allocs
        // must both be at least the work we forced.
        const ITEMS: usize = 64;
        const BYTES_PER_ITEM: usize = 1 << 14; // 16 KiB
        let scope = lacr_obs::scope::Scope::new("par-mem-test");
        let before = lacr_obs::mem::stats();
        let items: Vec<u64> = (0..ITEMS as u64).collect();
        let got = with_threads(4, || {
            let _g = scope.attach();
            Region::new("test.mem").map_indexed(&items, |_, &x| {
                let buf = vec![x as u8; BYTES_PER_ITEM];
                buf.iter().map(|&b| b as u64).sum::<u64>()
            })
        });
        assert_eq!(got.len(), ITEMS);
        let after = lacr_obs::mem::stats();
        // Global counters saw every per-task allocation (≥: concurrent
        // test threads only add to the delta, never subtract).
        assert!(
            after.allocs - before.allocs >= ITEMS as u64,
            "global allocs delta {} < {ITEMS}",
            after.allocs - before.allocs
        );
        // The workers' deltas were credited to the region span while it
        // was still open, so its attribution carries the fan-out's
        // allocation count and byte volume.
        let span = scope.report().span("par.region").expect("region span");
        assert!(
            span.allocs >= ITEMS as u64,
            "span allocs {} < {ITEMS}",
            span.allocs
        );
        assert!(span.peak_bytes >= span.self_bytes.max(0) as u64);
    }

    #[test]
    fn fan_out_bytes_reach_marks_on_the_forking_thread() {
        // Workers' allocation is credited to the forking thread's own
        // counters, so a mark taken there before the region (a serve
        // request's, an enclosing span's) counts it, with no span or
        // scope open.
        const ITEMS: usize = 64;
        const BYTES_PER_ITEM: usize = 1 << 14; // 16 KiB
        let items: Vec<u64> = (0..ITEMS as u64).collect();
        let mark = lacr_obs::mem::thread_mark();
        let got = with_threads(4, || {
            Region::new("test.ledger").map_indexed(&items, |_, &x| {
                std::hint::black_box(vec![x as u8; BYTES_PER_ITEM]).len()
            })
        });
        let seen = mark.delta();
        assert_eq!(got, vec![BYTES_PER_ITEM; ITEMS]);
        assert!(
            seen.alloc_bytes >= (ITEMS * BYTES_PER_ITEM) as u64,
            "{seen:?}"
        );
        assert!(seen.allocs >= ITEMS as u64, "{seen:?}");
    }

    #[test]
    fn effective_threads_caps_at_item_count() {
        with_threads(16, || {
            assert_eq!(Region::new("test.cap").effective_threads(3), 3);
            assert_eq!(Region::new("test.cap").effective_threads(0), 1);
        });
    }
}
