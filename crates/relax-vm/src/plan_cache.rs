//! Shape-keyed LRU cache of compiled kernel plans, shareable across VMs.
//!
//! `CallTir` launches are keyed by `(function name, concrete argument
//! dims)`; the first launch of a key pays one plan compilation, every
//! subsequent launch at the same shapes reuses the cached
//! [`KernelPlan`]. Functions the planner cannot express are cached as
//! [`CachedPlan::Unplannable`] so the interpreter fallback does not
//! recompile (and re-fail) per launch.
//!
//! The cache is a [`SharedPlanCache`]: a cheap `Clone` handle over one
//! `Mutex`-guarded map, so a pool of serving workers can share one cache —
//! one worker's compile warms every other worker. The map is keyed by
//! function name, then by shapes, so a probe borrows `(&str,
//! &[Vec<usize>])` and allocates nothing. Every probe and insert takes
//! the one lock (instrumented as the `vm.plan_cache` lock site) and
//! stamps the entry from one tick counter, so eviction is exact
//! least-recently-used across every VM sharing the cache, and the
//! counters satisfy `hits + misses == probes` at every instant.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use relax_tir::KernelPlan;
use relax_trace::LockSite;

/// Default number of `(function, shapes)` specializations kept.
pub(crate) const DEFAULT_CAPACITY: usize = 64;

static CACHE_SITE: LockSite = LockSite::new("vm.plan_cache");

/// A cache entry: a compiled plan, or a negative result.
#[derive(Debug, Clone)]
pub enum CachedPlan {
    /// A compiled shape-specialized plan, shared by every VM that hits
    /// this key.
    Ready(Arc<KernelPlan>),
    /// The planner refused this function; callers fall back to the
    /// interpreter without recompiling (and re-failing) per launch.
    Unplannable,
}

/// Point-in-time counters of a [`SharedPlanCache`]. When the cache is
/// shared, these aggregate over every VM using it (per-VM counts live in
/// [`crate::Telemetry`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Lookups that found a cached plan.
    pub hits: u64,
    /// Lookups that found nothing (each triggers one compilation).
    pub misses: u64,
    /// Total counted lookups (always `hits + misses`).
    pub probes: u64,
    /// Entries evicted, least recently used first.
    pub evictions: u64,
    /// Entries currently cached (including negative entries).
    pub len: usize,
    /// Maximum entries kept.
    pub capacity: usize,
}

impl PlanCacheStats {
    /// Fraction of lookups that hit, in `[0, 1]`; `0` before any lookup.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A cached plan plus the tick of its last touch.
#[derive(Debug)]
struct Entry {
    touched: u64,
    plan: CachedPlan,
}

/// Everything behind the lock.
#[derive(Debug, Default)]
struct Inner {
    /// Function name, then concrete argument dims.
    map: HashMap<String, HashMap<Vec<Vec<usize>>, Entry>>,
    /// Last tick handed out; every probe and insert takes the next one.
    tick: u64,
    capacity: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl Inner {
    fn next_tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    fn len(&self) -> usize {
        self.map.values().map(HashMap::len).sum()
    }

    /// Evicts least-recently-touched entries until `len <= capacity`.
    /// Returns how many were evicted.
    fn evict_to_capacity(&mut self) -> u64 {
        let mut evicted = 0;
        while self.len() > self.capacity {
            let oldest = self
                .map
                .iter()
                .flat_map(|(func, shapes)| shapes.iter().map(move |(s, e)| (e.touched, func, s)))
                .min_by_key(|&(touched, _, _)| touched)
                .map(|(_, func, shapes)| (func.clone(), shapes.clone()));
            let Some((func, shapes)) = oldest else { break };
            let by_shape = self.map.get_mut(&func).expect("oldest key is cached");
            by_shape.remove(&shapes);
            if by_shape.is_empty() {
                self.map.remove(&func);
            }
            self.evictions += 1;
            evicted += 1;
        }
        evicted
    }
}

/// A shape-keyed LRU plan cache that any number of VMs can share.
///
/// `Clone` is a cheap handle copy: all clones see the same entries and
/// counters, so a worker pool built from clones of one cache shares every
/// compiled plan. A `Vm` created with [`crate::Vm::new`] gets a private
/// cache; [`crate::Vm::from_parts`] accepts a shared one.
#[derive(Debug, Clone)]
pub struct SharedPlanCache {
    inner: Arc<Mutex<Inner>>,
}

impl SharedPlanCache {
    /// Creates a cache holding at most `capacity` specializations
    /// (`0` disables caching entirely).
    pub fn new(capacity: usize) -> Self {
        SharedPlanCache {
            inner: Arc::new(Mutex::new(Inner {
                capacity,
                ..Inner::default()
            })),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        CACHE_SITE.lock(&self.inner)
    }

    /// `true` if this handle and `other` share the same underlying cache.
    pub fn shares_with(&self, other: &SharedPlanCache) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    /// `false` means planning is disabled entirely (capacity 0).
    pub(crate) fn enabled(&self) -> bool {
        self.capacity() > 0
    }

    /// Maximum number of entries kept.
    pub fn capacity(&self) -> usize {
        self.lock().capacity
    }

    /// Number of plans (and negative entries) currently cached.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// `true` when no entries are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Aggregate counters (across every VM sharing the cache).
    pub fn stats(&self) -> PlanCacheStats {
        let inner = self.lock();
        PlanCacheStats {
            hits: inner.hits,
            misses: inner.misses,
            probes: inner.hits + inner.misses,
            evictions: inner.evictions,
            len: inner.len(),
            capacity: inner.capacity,
        }
    }

    /// Changes the capacity, evicting least-recently-used entries if the
    /// cache is now over budget. Returns how many entries were evicted.
    pub fn set_capacity(&self, capacity: usize) -> u64 {
        let mut inner = self.lock();
        inner.capacity = capacity;
        inner.evict_to_capacity()
    }

    /// Looks up `(func, shapes)`, marking a found entry most recently
    /// used. A disabled cache (capacity 0) finds nothing and counts
    /// nothing.
    pub fn lookup(&self, func: &str, shapes: &[Vec<usize>]) -> Option<CachedPlan> {
        let found = {
            let mut inner = self.lock();
            if inner.capacity == 0 {
                return None;
            }
            let tick = inner.next_tick();
            let found = inner
                .map
                .get_mut(func)
                .and_then(|by_shape| by_shape.get_mut(shapes))
                .map(|entry| {
                    entry.touched = tick;
                    entry.plan.clone()
                });
            if found.is_some() {
                inner.hits += 1;
            } else {
                inner.misses += 1;
            }
            found
        };
        relax_trace::instant(
            "vm",
            || format!("plan_cache:{func}"),
            || relax_trace::Payload::Kernel {
                kernel: func.to_string(),
                shapes: relax_trace::shape_sig(shapes),
                cache: Some(if found.is_some() {
                    relax_trace::CacheOutcome::Hit
                } else {
                    relax_trace::CacheOutcome::Miss
                }),
            },
        );
        found
    }

    /// Inserts a freshly compiled (or refused) plan as the most recently
    /// used entry, evicting least-recently-used entries once the cache is
    /// over capacity. Replacing a key that is already cached is *not*
    /// growth and evicts nothing. Returns how many entries were evicted.
    pub fn insert(&self, func: &str, shapes: &[Vec<usize>], plan: CachedPlan) -> u64 {
        let mut inner = self.lock();
        if inner.capacity == 0 {
            return 0;
        }
        let touched = inner.next_tick();
        let by_shape = inner.map.entry(func.to_string()).or_default();
        if let Some(entry) = by_shape.get_mut(shapes) {
            *entry = Entry { touched, plan };
            return 0;
        }
        by_shape.insert(shapes.to_vec(), Entry { touched, plan });
        inner.evict_to_capacity()
    }
}

impl Default for SharedPlanCache {
    fn default() -> Self {
        SharedPlanCache::new(DEFAULT_CAPACITY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_evicts_least_recently_touched() {
        let c = SharedPlanCache::new(2);
        c.insert("a", &[vec![1]], CachedPlan::Unplannable);
        c.insert("b", &[vec![1]], CachedPlan::Unplannable);
        assert!(c.lookup("a", &[vec![1]]).is_some()); // refresh a
        c.insert("c", &[vec![1]], CachedPlan::Unplannable); // evicts b
        assert_eq!(c.stats().evictions, 1);
        assert!(c.lookup("a", &[vec![1]]).is_some());
        assert!(c.lookup("b", &[vec![1]]).is_none());
        assert!(c.lookup("c", &[vec![1]]).is_some());
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn zero_capacity_disables() {
        let c = SharedPlanCache::new(0);
        assert!(!c.enabled());
        c.insert("a", &[vec![1]], CachedPlan::Unplannable);
        assert!(c.lookup("a", &[vec![1]]).is_none());
        assert_eq!(c.len(), 0);
        assert_eq!(c.stats().misses, 0); // disabled lookups are not counted
    }

    #[test]
    fn shrinking_capacity_evicts() {
        let c = SharedPlanCache::new(4);
        for name in ["a", "b", "c", "d"] {
            c.insert(name, &[vec![2, 2]], CachedPlan::Unplannable);
        }
        let evicted = c.set_capacity(1);
        assert_eq!(evicted, 3);
        assert_eq!(c.len(), 1);
        assert_eq!(c.stats().evictions, 3);
        // The survivor is the most recently inserted.
        assert!(c.lookup("d", &[vec![2, 2]]).is_some());
    }

    /// Regression: replacing an existing key while at capacity must not
    /// evict anything — replacement is not growth. The old code evicted
    /// the LRU entry first, which at capacity 1 was the very entry being
    /// replaced.
    #[test]
    fn replacing_existing_key_at_capacity_evicts_nothing() {
        let c = SharedPlanCache::new(1);
        c.insert("a", &[vec![4]], CachedPlan::Unplannable);
        let evicted = c.insert("a", &[vec![4]], CachedPlan::Unplannable);
        assert_eq!(evicted, 0);
        assert_eq!(c.stats().evictions, 0);
        assert_eq!(c.len(), 1);
        assert!(c.lookup("a", &[vec![4]]).is_some());

        // Same at capacity 2 with a second live entry: the untouched
        // neighbour must survive the replacement.
        let c = SharedPlanCache::new(2);
        c.insert("a", &[vec![4]], CachedPlan::Unplannable);
        c.insert("b", &[vec![8]], CachedPlan::Unplannable);
        c.insert("a", &[vec![4]], CachedPlan::Unplannable);
        assert_eq!(c.stats().evictions, 0);
        assert!(c.lookup("b", &[vec![8]]).is_some());
    }

    /// Same function, different shapes, are distinct entries; evicting
    /// the last shape of a function forgets the function.
    #[test]
    fn shapes_of_one_function_are_separate_entries() {
        let c = SharedPlanCache::new(2);
        c.insert("f", &[vec![1]], CachedPlan::Unplannable);
        c.insert("f", &[vec![2]], CachedPlan::Unplannable);
        assert_eq!(c.len(), 2);
        assert!(c.lookup("f", &[vec![1]]).is_some());
        c.insert("g", &[vec![1]], CachedPlan::Unplannable); // evicts f[2]
        assert!(c.lookup("f", &[vec![2]]).is_none());
        c.insert("h", &[vec![1]], CachedPlan::Unplannable); // evicts f[1]
        assert!(c.lookup("f", &[vec![1]]).is_none());
        assert_eq!(c.len(), 2);
        assert_eq!(c.stats().evictions, 2);
    }

    #[test]
    fn clones_share_entries_and_counters() {
        let a = SharedPlanCache::new(4);
        let b = a.clone();
        assert!(a.shares_with(&b));
        a.insert("f", &[vec![2]], CachedPlan::Unplannable);
        assert!(b.lookup("f", &[vec![2]]).is_some());
        assert!(b.lookup("g", &[vec![2]]).is_none());
        let s = a.stats();
        assert_eq!((s.hits, s.misses, s.probes), (1, 1, 2));
        assert_eq!(s.len, 1);
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn concurrent_lookups_and_inserts_stay_consistent() {
        let c = SharedPlanCache::new(8);
        std::thread::scope(|s| {
            for t in 0..4 {
                let c = c.clone();
                s.spawn(move || {
                    for i in 0..200usize {
                        let shapes = vec![vec![i % 16]];
                        let name = if t % 2 == 0 { "even" } else { "odd" };
                        if c.lookup(name, &shapes).is_none() {
                            c.insert(name, &shapes, CachedPlan::Unplannable);
                        }
                    }
                });
            }
        });
        assert!(c.len() <= 8);
        let s = c.stats();
        assert_eq!(s.hits + s.misses, 800);
        assert_eq!(s.probes, s.hits + s.misses);
    }
}
