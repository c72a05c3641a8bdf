//! Scoped per-request collectors for concurrent pipelines.
//!
//! The global collector ([`crate::init`] / [`crate::finish`]) is one
//! process-wide aggregate — exactly right for the one-shot CLI, and
//! exactly wrong for a daemon running many plans at once: spans and
//! counters from concurrent requests would merge into one unattributable
//! blob. A [`Scope`] fixes that: a label and its own [`Report`],
//! attached to the *current thread* for the duration of a request.
//! While attached, every span close, counter, gauge and histogram
//! recorded on that thread (and, via `lacr-par`'s scope propagation, on
//! any worker thread a parallel region spawns for it) is folded into
//! the scope's report by the same fold that then feeds the global
//! collector, if one is installed.
//!
//! A scope counts no bytes of its own. A request's allocation volume is
//! a [`crate::mem::ThreadMark`] delta on the thread that runs it:
//! parallel regions credit their workers' bytes to the forking thread
//! ([`crate::mem::credit_foreign`]), so the mark sees them too.
//!
//! ```
//! use lacr_obs::scope::Scope;
//!
//! let scope = Scope::new("req-42");
//! {
//!     let _g = scope.attach();
//!     lacr_obs::counter!("demo.items", 3);
//! }
//! assert_eq!(scope.report().counter("demo.items"), Some(3));
//! ```
//!
//! Scopes nest (the innermost attached scope records); a handle is
//! cheaply cloneable and thread-safe, so a worker pool can attach the
//! same scope on whichever thread executes the request. The guard is
//! deliberately `!Send`: attach/detach must happen on one thread.

use crate::report::Report;
use crate::sink::Record;
use std::cell::{Cell, RefCell};
use std::marker::PhantomData;
use std::sync::{Arc, Mutex};

struct Inner {
    label: String,
    agg: Mutex<Report>,
}

/// A cloneable handle to one scoped collector. All clones share the
/// same aggregates; [`Scope::report`] snapshots them at any time.
#[derive(Clone)]
pub struct Scope {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for Scope {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scope")
            .field("label", &self.inner.label)
            .finish_non_exhaustive()
    }
}

thread_local! {
    /// Innermost-wins stack of scopes attached to this thread.
    static STACK: RefCell<Vec<Scope>> = const { RefCell::new(Vec::new()) };
    /// Fast-path mirror of `!STACK.is_empty()`, read by the recording
    /// macros without borrowing the stack.
    static ACTIVE: Cell<bool> = const { Cell::new(false) };
}

/// Whether a scope is attached to the current thread. One thread-local
/// read; the macros check this alongside [`crate::is_enabled`].
#[inline]
pub fn active() -> bool {
    ACTIVE.with(Cell::get)
}

/// The innermost scope attached to the current thread, if any. Parallel
/// regions capture this before spawning workers and [`Scope::attach`]
/// the clone on each of them.
pub fn current() -> Option<Scope> {
    if !active() {
        return None;
    }
    STACK.with(|s| s.borrow().last().cloned())
}

/// Detaches the innermost scope when dropped. Not `Send`: a guard must
/// be dropped on the thread that created it.
#[must_use = "the scope detaches when this guard drops; bind it to a variable"]
pub struct ScopeGuard {
    _not_send: PhantomData<*const ()>,
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            s.pop();
            ACTIVE.with(|a| a.set(!s.is_empty()));
        });
    }
}

impl Scope {
    /// A fresh scope labelled `label` (the serve loop uses the request
    /// id, so postmortems and reports can name their request).
    pub fn new(label: impl Into<String>) -> Self {
        Self {
            inner: Arc::new(Inner {
                label: label.into(),
                agg: Mutex::new(Report::default()),
            }),
        }
    }

    /// The label given at construction.
    pub fn label(&self) -> &str {
        &self.inner.label
    }

    /// Attaches this scope to the current thread until the guard drops.
    pub fn attach(&self) -> ScopeGuard {
        STACK.with(|s| s.borrow_mut().push(self.clone()));
        ACTIVE.with(|a| a.set(true));
        ScopeGuard {
            _not_send: PhantomData,
        }
    }

    /// Snapshot of everything recorded while attached.
    pub fn report(&self) -> Report {
        self.lock().clone().stamped()
    }

    /// Folds one record into this scope's aggregates.
    pub(crate) fn fold(&self, record: &mut Record) {
        self.lock().fold(record);
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Report> {
        // A panicking request must not wedge its own postmortem path.
        self.inner.agg.lock().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hist::Histogram;

    #[test]
    fn records_route_to_the_attached_scope_only_while_attached() {
        let scope = Scope::new("t1");
        assert!(!active());
        crate::add_counter("scope.t1.outside", 1);
        {
            let _g = scope.attach();
            assert!(active());
            assert_eq!(current().unwrap().label(), "t1");
            crate::add_counter("scope.t1.inside", 2);
            crate::set_gauge("scope.t1.g", 1.5);
            crate::record_hist("scope.t1.h", 8, 1);
        }
        assert!(!active());
        let r = scope.report();
        assert_eq!(r.counter("scope.t1.inside"), Some(2));
        assert_eq!(r.counter("scope.t1.outside"), None);
        assert_eq!(r.gauge("scope.t1.g"), Some(1.5));
        assert_eq!(r.hist("scope.t1.h").map(Histogram::count), Some(1));
    }

    #[test]
    fn innermost_scope_wins_when_nested() {
        let outer = Scope::new("outer");
        let inner = Scope::new("inner");
        let _go = outer.attach();
        crate::add_counter("scope.nest", 1);
        {
            let _gi = inner.attach();
            assert_eq!(current().unwrap().label(), "inner");
            crate::add_counter("scope.nest", 10);
        }
        assert_eq!(current().unwrap().label(), "outer");
        crate::add_counter("scope.nest", 100);
        assert_eq!(outer.report().counter("scope.nest"), Some(101));
        assert_eq!(inner.report().counter("scope.nest"), Some(10));
    }

    #[test]
    fn spans_aggregate_into_the_scope_without_a_global_collector() {
        let scope = Scope::new("spans");
        {
            let _g = scope.attach();
            assert!(crate::recording());
            let _outer = crate::Span::enter("scope.span.outer", &[]);
            {
                let _inner = crate::Span::enter("scope.span.inner", &[]);
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        }
        let r = scope.report();
        let outer = r.span("scope.span.outer").expect("outer recorded");
        let inner = r.span("scope.span.inner").expect("inner recorded");
        assert_eq!(outer.count, 1);
        assert_eq!(inner.count, 1);
        assert!(outer.incl_ns >= inner.incl_ns);
        assert_eq!(outer.excl_ns, outer.incl_ns - inner.incl_ns);
    }

    #[test]
    fn same_scope_attached_on_many_threads_merges() {
        let scope = Scope::new("mt");
        std::thread::scope(|s| {
            for _ in 0..4 {
                let scope = scope.clone();
                s.spawn(move || {
                    let _g = scope.attach();
                    for _ in 0..100 {
                        crate::add_counter("scope.mt", 1);
                    }
                });
            }
        });
        assert_eq!(scope.report().counter("scope.mt"), Some(400));
    }
}
