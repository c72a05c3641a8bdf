//! Wall-clock budgets for the planning pipeline.
//!
//! A [`Budget`] is threaded from `PlannerConfig` into every unbounded
//! search loop — the floorplan annealer's move loop, the router's
//! rip-up passes, the LAC re-weight rounds — so an expired budget makes
//! each stage return its best-so-far result (tagged with a
//! `Degradation`) instead of running open-ended.
//!
//! # Determinism
//!
//! [`Budget::expired`] is *sticky*: the first poll that observes the
//! deadline in the past latches the budget as expired, and every later
//! poll returns `true` without consulting the clock again. Stages poll
//! only at round boundaries (annealer cooling steps, router rip-up
//! passes, LAC re-weight rounds), never per inner move. Together these
//! two rules make the degradation path a monotone function of *which
//! round boundary* first saw the deadline pass — tracing overhead can
//! shift that boundary, but it can never make the pipeline flip back
//! and forth between "expired" and "not expired" decisions within one
//! run, which previously produced inconsistent degradation reports
//! under `--trace`. Every clock poll is counted by [`Budget::checks`],
//! and the `budget.expired` event carries the count.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Interior latch shared by all clones of one [`Budget`].
#[derive(Debug, Default)]
struct BudgetState {
    /// Set once the deadline has been observed in the past; never reset.
    expired: AtomicBool,
    /// Number of times the wall clock was actually polled.
    checks: AtomicU64,
}

/// The wall-clock limit of one planning run. The default is unlimited, which
/// preserves the historical behaviour exactly.
///
/// Cloning a `Budget` shares its expiry latch: once any clone observes
/// the deadline pass, every clone reports expired.
#[derive(Debug, Clone, Default)]
pub struct Budget {
    /// Wall-clock deadline. Stages poll it at round boundaries and stop
    /// early (keeping their best-so-far result) once it passes.
    pub deadline: Option<Instant>,
    /// Owner tag for postmortems (the serve loop sets the request id).
    /// A labelled budget's expiry dump goes to the request-tagged flight
    /// path instead of the shared armed path, so concurrent requests
    /// never clobber each other's dumps.
    label: Option<Arc<str>>,
    state: Arc<BudgetState>,
}

impl PartialEq for Budget {
    /// Budgets compare by their deadline; the runtime latch state is not
    /// part of the value.
    fn eq(&self, other: &Self) -> bool {
        self.deadline == other.deadline
    }
}

impl Eq for Budget {}

impl Budget {
    /// A budget with an explicit deadline (absent means unlimited).
    pub fn new(deadline: Option<Instant>) -> Self {
        Self {
            deadline,
            label: None,
            state: Arc::default(),
        }
    }

    /// Tags this budget with an owner label (e.g. a request id). On
    /// expiry the flight-recorder postmortem is written to the label's
    /// tagged path (`req-<label>.jsonl`) instead of the shared armed
    /// path. Labels are identity metadata: they don't affect equality.
    #[must_use]
    pub fn labeled(mut self, label: impl Into<String>) -> Self {
        self.label = Some(Arc::from(label.into()));
        self
    }

    /// The owner label, if one was set via [`Budget::labeled`].
    pub fn label(&self) -> Option<&str> {
        self.label.as_deref()
    }

    /// No limits (the default).
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// A deadline `timeout` from now.
    pub fn with_timeout(timeout: Duration) -> Self {
        Self::new(Some(Instant::now() + timeout))
    }

    /// Whether the wall-clock deadline has passed.
    ///
    /// Sticky: the first `true` latches, so later calls return `true`
    /// without polling the clock. Each real clock poll increments
    /// [`Self::checks`].
    pub fn expired(&self) -> bool {
        let Some(deadline) = self.deadline else {
            return false;
        };
        if self.state.expired.load(Ordering::Relaxed) {
            return true;
        }
        self.state.checks.fetch_add(1, Ordering::Relaxed);
        if Instant::now() >= deadline {
            self.state.expired.store(true, Ordering::Relaxed);
            lacr_obs::event!("budget.expired", checks = self.checks());
            // The latch trips exactly once per budget, so this is the
            // natural postmortem moment: dump the flight recorder (a
            // no-op unless a dump path is armed, e.g. by the CLI).
            // Labelled budgets dump to their own request-tagged path.
            let path = match self.label.as_deref() {
                Some(label) => lacr_obs::flight::dump_tagged(label, "budget expiry"),
                None => lacr_obs::flight::dump("budget expiry"),
            };
            if let Some(path) = path {
                lacr_obs::diag!(
                    "budget expired; flight recorder dumped to {}",
                    path.display()
                );
            }
            true
        } else {
            false
        }
    }

    /// Number of times the wall clock has actually been polled via
    /// [`Budget::expired`] (latched short-circuits are not counted).
    pub fn checks(&self) -> u64 {
        self.state.checks.load(Ordering::Relaxed)
    }

    /// The earlier of this budget's deadline and `other` (either may be
    /// absent). Used to merge the planner-level deadline into stage
    /// configs without overriding a tighter stage-local one.
    pub fn min_deadline(&self, other: Option<Instant>) -> Option<Instant> {
        match (self.deadline, other) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Held by every test that trips a budget: an expiry dumps the flight
    /// recorder to the process-wide armed path, which one test arms and
    /// checks, and tests run on parallel threads.
    fn flight_path_lock() -> std::sync::MutexGuard<'static, ()> {
        static FLIGHT_PATH: std::sync::Mutex<()> = std::sync::Mutex::new(());
        FLIGHT_PATH.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn unlimited_never_expires() {
        let b = Budget::unlimited();
        assert!(!b.expired());
        assert_eq!(Budget::default(), Budget::unlimited());
        // No deadline means the clock is never polled.
        assert_eq!(b.checks(), 0);
    }

    #[test]
    fn zero_timeout_expires_immediately() {
        let _flight = flight_path_lock();
        assert!(Budget::with_timeout(Duration::ZERO).expired());
    }

    #[test]
    fn generous_timeout_not_yet_expired() {
        assert!(!Budget::with_timeout(Duration::from_secs(3600)).expired());
    }

    #[test]
    fn expiry_is_sticky_and_shared_between_clones() {
        let _flight = flight_path_lock();
        // A deadline in the past: the first poll latches.
        let b = Budget::new(Some(Instant::now() - Duration::from_secs(1)));
        let clone = b.clone();
        assert!(b.expired());
        assert!(clone.expired(), "clones share the latch");
        assert!(b.expired(), "stays expired");
        // Only the first poll touched the clock; the latched calls did not.
        assert_eq!(b.checks(), 1);
    }

    #[test]
    fn checks_count_real_polls_only() {
        let b = Budget::with_timeout(Duration::from_secs(3600));
        for _ in 0..5 {
            assert!(!b.expired());
        }
        assert_eq!(b.checks(), 5);
    }

    #[test]
    fn equality_ignores_latch_state() {
        let _flight = flight_path_lock();
        let past = Instant::now() - Duration::from_secs(1);
        let a = Budget::new(Some(past));
        let b = Budget::new(Some(past));
        assert!(a.expired());
        assert_eq!(a, b, "latched vs fresh budgets with equal deadlines");
    }

    #[test]
    fn sequential_budgets_do_not_inherit_expiry() {
        let _flight = flight_path_lock();
        // The latch lives in per-instance Arc state: two requests built
        // back to back (as the serve loop does) must each start fresh,
        // even after the first one has tripped.
        let first = Budget::with_timeout(Duration::ZERO);
        assert!(first.expired());
        let second = Budget::with_timeout(Duration::from_secs(3600));
        assert!(!second.expired(), "fresh budget inherited a tripped latch");
        assert!(first.expired(), "first budget stays latched");
        // And the fresh instance polled its own clock, not the latch.
        assert_eq!(second.checks(), 1);
    }

    #[test]
    fn labels_tag_without_affecting_limits_or_equality() {
        let b = Budget::with_timeout(Duration::from_secs(3600)).labeled("req-9");
        assert_eq!(b.label(), Some("req-9"));
        assert_eq!(b.clone().label(), Some("req-9"));
        assert_eq!(Budget::unlimited().label(), None);
        let past = Instant::now() - Duration::from_secs(1);
        let plain = Budget::new(Some(past));
        let tagged = Budget::new(Some(past)).labeled("req-9");
        assert_eq!(plain, tagged, "labels are identity metadata");
    }

    #[test]
    fn labeled_budget_expiry_dumps_to_the_tagged_path() {
        let _flight = flight_path_lock();
        let dir = std::env::temp_dir().join(format!(
            "lacr_budget_tagged_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let saved = lacr_obs::flight::disarm();
        lacr_obs::flight::arm(dir.join("last-run.jsonl"));
        let b = Budget::with_timeout(Duration::ZERO).labeled("budget-test");
        assert!(b.expired());
        let tagged = dir.join("req-budget-test.jsonl");
        assert!(tagged.is_file(), "expected tagged postmortem at {tagged:?}");
        assert!(
            !dir.join("last-run.jsonl").exists(),
            "labelled expiry must not clobber the shared armed path"
        );
        lacr_obs::flight::disarm();
        if let Some(p) = saved {
            lacr_obs::flight::arm(p);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn min_deadline_picks_earlier() {
        let now = Instant::now();
        let later = now + Duration::from_secs(10);
        let b = Budget::new(Some(now));
        assert_eq!(b.min_deadline(Some(later)), Some(now));
        assert_eq!(b.min_deadline(None), Some(now));
        assert_eq!(Budget::unlimited().min_deadline(Some(later)), Some(later));
        assert_eq!(Budget::unlimited().min_deadline(None), None);
    }
}
