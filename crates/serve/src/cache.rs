//! Request-level plan cache: identical netlist + effective config →
//! memoised plan.
//!
//! The serving workload the daemon targets (see PAPERS.md: planners
//! re-queried across many near-identical design iterations) repeats the
//! same request over and over; a cache turns those repeats into O(1)
//! lookups. Correctness comes from the key, not from trust:
//!
//! * the netlist component is the **canonicalised** `.bench` text
//!   (`bench_format::write` of the parsed circuit), so two requests that
//!   differ only in whitespace, comments or delivery route (`circuit` /
//!   `bench_path` / inline `bench`) still share an entry, while any
//!   semantic difference changes the key;
//! * the config component is the **effective** planner seed and budget
//!   class (the request's `budget_ms` after the daemon default is
//!   applied, or `none` for unlimited) — a different seed or deadline is
//!   a different planning problem;
//! * entries are matched on the **full key string** (the content hash
//!   only buckets), so a hash collision degrades to a miss, never to a
//!   wrong plan.
//!
//! Only *reproducible* results are stored: degraded plans (budget
//! expiry is timing-dependent) and fault-injected requests bypass the
//! cache entirely, so a warm hit is byte-identical to what a cold run
//! would produce.
//!
//! The cache is bounded two ways — entry count and approximate resident
//! bytes (key + plan text + quality gauges) — and evicts least recently
//! used. Counters (`hits`/`misses`/`evictions`) surface in
//! `{"cmd":"stats"}`.

use lacr_core::summary::PlanSummary;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One memoised plan: everything a response line needs.
#[derive(Debug, Clone)]
pub struct CachedPlan {
    /// The plan summary (renders the exact `plan.text` lines).
    pub summary: PlanSummary,
    /// The request's `quality.*` gauges from the cold run.
    pub quality: BTreeMap<String, f64>,
    /// When the entry was inserted — age is reported on every hit.
    pub inserted: Instant,
}

struct Entry {
    plan: CachedPlan,
    /// Recency stamp: larger = used more recently.
    last_used: u64,
    /// Approximate resident size (key + text + gauges).
    bytes: usize,
}

struct Inner {
    /// Full key string → entry. Matching on the whole key means a
    /// content-hash collision can only cost a miss.
    map: BTreeMap<String, Entry>,
    bytes: usize,
    tick: u64,
}

/// A point-in-time view of the cache for `{"cmd":"stats"}`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounts {
    /// Entries resident right now.
    pub entries: u64,
    /// Declared resident bytes right now (the running total the byte
    /// cap is enforced against).
    pub bytes: u64,
    /// Resident bytes recomputed from the live entries at snapshot time
    /// — the audit figure. Always equals `bytes` unless the incremental
    /// accounting has drifted.
    pub bytes_actual: u64,
    /// Configured entry cap (0 = cache disabled).
    pub max_entries: u64,
    /// Configured byte cap (0 = cache disabled).
    pub max_bytes: u64,
    /// Lookups answered from the cache since startup.
    pub hits: u64,
    /// Lookups that missed since startup.
    pub misses: u64,
    /// Entries evicted to respect the caps since startup.
    pub evictions: u64,
}

/// A bounded, LRU, thread-safe plan cache. `max_entries == 0` or
/// `max_bytes == 0` disables it (every lookup misses, inserts are
/// dropped) — the daemon still counts the misses so operators can see a
/// disabled cache working as configured.
pub struct PlanCache {
    inner: Mutex<Inner>,
    max_entries: usize,
    max_bytes: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl PlanCache {
    pub fn new(max_entries: usize, max_bytes: usize) -> Self {
        Self {
            inner: Mutex::new(Inner {
                map: BTreeMap::new(),
                bytes: 0,
                tick: 0,
            }),
            max_entries,
            max_bytes,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn enabled(&self) -> bool {
        self.max_entries > 0 && self.max_bytes > 0
    }

    /// Builds the cache key for one planning problem. The netlist part
    /// must be the *canonical* `.bench` text, not the request's raw
    /// input. A short content hash prefixes the key so `BTreeMap`
    /// comparisons between near-identical netlists stay cheap; the full
    /// text follows, so equality is exact.
    pub fn key(canonical_bench: &str, seed: u64, budget_ms: Option<u64>) -> String {
        let budget = match budget_ms {
            Some(ms) => format!("{ms}"),
            None => "none".to_string(),
        };
        format!(
            "{:016x}\x00seed={seed}\x00budget={budget}\x00{canonical_bench}",
            lacr_obs::fnv1a64(canonical_bench.bytes())
        )
    }

    /// Looks the key up, bumping recency and the hit/miss counters.
    pub fn lookup(&self, key: &str) -> Option<CachedPlan> {
        let found = if self.enabled() {
            let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
            inner.tick += 1;
            let tick = inner.tick;
            inner.map.get_mut(key).map(|e| {
                e.last_used = tick;
                e.plan.clone()
            })
        } else {
            None
        };
        match &found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// Inserts (or refreshes) an entry, then evicts least-recently-used
    /// entries until both caps hold. An entry that alone exceeds
    /// `max_bytes` is not stored.
    pub fn insert(&self, mut key: String, plan: CachedPlan) {
        if !self.enabled() {
            return;
        }
        // Shrink so the key's `len` is its allocation — `entry_bytes`
        // sizes it exactly without carrying capacities around.
        key.shrink_to_fit();
        let bytes = entry_bytes(&key, &plan);
        if bytes > self.max_bytes {
            return;
        }
        let mut evicted = 0_u64;
        {
            let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
            inner.tick += 1;
            let tick = inner.tick;
            if let Some(old) = inner.map.insert(
                key,
                Entry {
                    plan,
                    last_used: tick,
                    bytes,
                },
            ) {
                inner.bytes -= old.bytes;
            }
            inner.bytes += bytes;
            while inner.map.len() > self.max_entries || inner.bytes > self.max_bytes {
                let lru = inner
                    .map
                    .iter()
                    .min_by_key(|(_, e)| e.last_used)
                    .map(|(k, _)| k.clone())
                    .expect("non-empty map while over a cap");
                let gone = inner.map.remove(&lru).expect("lru key present");
                inner.bytes -= gone.bytes;
                evicted += 1;
            }
        }
        if evicted > 0 {
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
        }
    }

    /// The cache's counters and gauges, for `{"cmd":"stats"}`.
    pub fn counts(&self) -> CacheCounts {
        let (entries, bytes, bytes_actual) = {
            let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
            let actual: usize = inner.map.iter().map(|(k, e)| entry_bytes(k, &e.plan)).sum();
            (inner.map.len() as u64, inner.bytes as u64, actual as u64)
        };
        CacheCounts {
            entries,
            bytes,
            bytes_actual,
            max_entries: self.max_entries as u64,
            max_bytes: self.max_bytes as u64,
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }
}

/// Amortised per-element share of a `BTreeMap` node's header and parent
/// pointers (nodes hold up to 11 elements; the header is ~2 words plus
/// edge pointers). A small flat constant, stable across allocator and
/// std versions, so tests can predict entry sizes exactly.
const MAP_NODE_OVERHEAD: usize = 16;

/// Exact resident size of one entry: every heap block the entry keeps
/// alive plus its inline slots in the cache's map.
///
/// * the key's bytes (`insert` shrinks the key first, so `len` *is* the
///   allocation) plus its inline `String` header and the `Entry` value
///   slot in the map node, plus [`MAP_NODE_OVERHEAD`];
/// * the summary's heap: circuit name and degradation reasons at their
///   allocated *capacities*, and the degradation vector's buffer;
/// * the quality map: per gauge, the name's capacity plus the inline
///   `String` + `f64` element slots and the node-overhead share.
///
/// [`PlanCache::counts`] recomputes this over the live map
/// (`bytes_actual`) so any drift in the incremental `bytes` accounting
/// is visible in stats rather than silently corrupting the byte cap.
fn entry_bytes(key: &str, plan: &CachedPlan) -> usize {
    let summary = &plan.summary;
    let degradations: usize = summary
        .degradations
        .iter()
        .map(|d| d.reason.capacity())
        .sum::<usize>()
        + summary.degradations.capacity() * std::mem::size_of::<lacr_core::Degradation>();
    let quality: usize = plan
        .quality
        .keys()
        .map(|k| {
            k.capacity()
                + std::mem::size_of::<String>()
                + std::mem::size_of::<f64>()
                + MAP_NODE_OVERHEAD
        })
        .sum();
    key.len()
        + std::mem::size_of::<String>()
        + std::mem::size_of::<Entry>()
        + MAP_NODE_OVERHEAD
        + summary.circuit.capacity()
        + degradations
        + quality
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(circuit: &str) -> CachedPlan {
        CachedPlan {
            summary: PlanSummary {
                circuit: circuit.to_string(),
                t_init: 1000,
                t_min: 500,
                t_clk: 600,
                min_area_n_foa: 1,
                min_area_n_f: 2,
                min_area_n_fn: 3,
                lac_n_foa: 0,
                lac_n_f: 2,
                lac_n_fn: 3,
                lac_rounds: 2,
                degradations: Vec::new(),
            },
            quality: BTreeMap::new(),
            inserted: Instant::now(),
        }
    }

    #[test]
    fn keys_separate_netlist_seed_and_budget() {
        let a = PlanCache::key("INPUT(a)\n", 1, None);
        assert_eq!(a, PlanCache::key("INPUT(a)\n", 1, None));
        assert_ne!(a, PlanCache::key("INPUT(b)\n", 1, None));
        assert_ne!(a, PlanCache::key("INPUT(a)\n", 2, None));
        assert_ne!(a, PlanCache::key("INPUT(a)\n", 1, Some(500)));
        assert_ne!(
            PlanCache::key("INPUT(a)\n", 1, Some(500)),
            PlanCache::key("INPUT(a)\n", 1, Some(501))
        );
    }

    #[test]
    fn hit_after_insert_and_counters_track() {
        let cache = PlanCache::new(8, 1 << 20);
        let key = PlanCache::key("net", 1, None);
        assert!(cache.lookup(&key).is_none());
        cache.insert(key.clone(), plan("c1"));
        let hit = cache.lookup(&key).expect("hit");
        assert_eq!(hit.summary.circuit, "c1");
        let c = cache.counts();
        assert_eq!((c.hits, c.misses, c.evictions), (1, 1, 0));
        assert_eq!(c.entries, 1);
        assert!(c.bytes > 0);
    }

    #[test]
    fn entry_cap_evicts_least_recently_used() {
        let cache = PlanCache::new(2, 1 << 20);
        let (ka, kb, kc) = (
            PlanCache::key("a", 0, None),
            PlanCache::key("b", 0, None),
            PlanCache::key("c", 0, None),
        );
        cache.insert(ka.clone(), plan("a"));
        cache.insert(kb.clone(), plan("b"));
        // Touch a so b is the LRU, then overflow with c.
        assert!(cache.lookup(&ka).is_some());
        cache.insert(kc.clone(), plan("c"));
        assert!(cache.lookup(&kb).is_none(), "LRU entry b evicted");
        assert!(cache.lookup(&ka).is_some());
        assert!(cache.lookup(&kc).is_some());
        assert_eq!(cache.counts().evictions, 1);
        assert_eq!(cache.counts().entries, 2);
    }

    #[test]
    fn byte_cap_bounds_residency_and_rejects_oversized_entries() {
        let one = entry_bytes(&PlanCache::key("x", 0, None), &plan("x"));
        // Room for two entries, not three.
        let cache = PlanCache::new(64, one * 2 + one / 2);
        for (i, k) in ["a", "b", "c"].iter().enumerate() {
            cache.insert(PlanCache::key(k, 0, None), plan(k));
            assert!(cache.counts().entries <= 2, "over byte cap at insert {i}");
        }
        let c = cache.counts();
        assert_eq!(c.evictions, 1);
        assert!(c.bytes <= c.max_bytes);
        // A single entry larger than the whole cap is never stored.
        let tiny = PlanCache::new(64, 8);
        tiny.insert(PlanCache::key("big", 0, None), plan("big"));
        assert_eq!(tiny.counts().entries, 0);
    }

    #[test]
    fn byte_cap_eviction_trips_at_the_predicted_boundary() {
        // Entries built from same-length inputs size identically, so the
        // eviction boundary is exactly predictable from `entry_bytes`.
        let one = entry_bytes(&PlanCache::key("q", 0, None), &plan("q"));
        let cache = PlanCache::new(64, one * 3);
        for k in ["a", "b", "c"] {
            cache.insert(PlanCache::key(k, 0, None), plan(k));
        }
        // Exactly at the cap: three entries fit, nothing evicted.
        let c = cache.counts();
        assert_eq!((c.entries, c.evictions), (3, 0), "cap {} bytes", one * 3);
        assert_eq!(c.bytes, (one * 3) as u64, "declared == 3 × predicted");
        assert_eq!(c.bytes_actual, c.bytes, "audit matches declared");
        // One more byte of demand trips exactly one eviction.
        cache.insert(PlanCache::key("d", 0, None), plan("d"));
        let c = cache.counts();
        assert_eq!((c.entries, c.evictions), (3, 1));
        assert_eq!(c.bytes, (one * 3) as u64);
        assert_eq!(c.bytes_actual, c.bytes);
    }

    #[test]
    fn declared_bytes_never_exceed_allocator_truth() {
        // Audit the accounting against the counting allocator: everything
        // an entry declares as resident was heap-allocated on this thread
        // after the mark, so declared bytes must be bounded by the gross
        // allocation delta (which also covers temporaries and map nodes).
        let cache = PlanCache::new(64, 1 << 20);
        let mark = lacr_obs::mem::thread_mark();
        for k in ["a", "b", "c", "d", "e"] {
            cache.insert(PlanCache::key(k, 0, None), plan(k));
        }
        let delta = mark.delta();
        let c = cache.counts();
        assert_eq!(c.entries, 5);
        assert!(
            c.bytes <= delta.alloc_bytes,
            "declared {} > allocated {}",
            c.bytes,
            delta.alloc_bytes
        );
        assert_eq!(c.bytes_actual, c.bytes);
    }

    #[test]
    fn reinserting_a_key_replaces_without_leaking_bytes() {
        let cache = PlanCache::new(8, 1 << 20);
        let key = PlanCache::key("net", 1, None);
        cache.insert(key.clone(), plan("v1"));
        let before = cache.counts().bytes;
        cache.insert(key.clone(), plan("v2"));
        let c = cache.counts();
        assert_eq!(c.entries, 1);
        assert_eq!(c.bytes, before, "replacement accounts the old entry out");
        assert_eq!(cache.lookup(&key).expect("hit").summary.circuit, "v2");
    }

    #[test]
    fn zero_caps_disable_the_cache() {
        for cache in [PlanCache::new(0, 1 << 20), PlanCache::new(8, 0)] {
            let key = PlanCache::key("net", 1, None);
            cache.insert(key.clone(), plan("c"));
            assert!(cache.lookup(&key).is_none());
            let c = cache.counts();
            assert_eq!((c.entries, c.hits), (0, 0));
            assert_eq!(c.misses, 1, "disabled caches still count misses");
        }
    }
}
