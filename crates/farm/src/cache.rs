//! Build-once cache for shared immutable job state.
//!
//! A sweep's jobs repeatedly need the same expensive immutable artifact —
//! for the simulation farm, a prepared program (decoded IR + initial memory
//! image). [`PreparedCache`] memoizes such builds by string key: the first
//! job to ask builds (fallibly), every later job — on any worker thread —
//! gets the shared [`Arc`]. A concurrent second requester for the same key
//! blocks until the first build finishes instead of duplicating it; errors
//! are memoized too, so a broken preparation fails every dependent job with
//! one message instead of rebuilding per job.
//!
//! The cache also answers the accounting question the engine cannot: how
//! much wall-time went into one-time builds versus simulation, and how often
//! sharing actually happened ([`PreparedCache::stats`]).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

struct Entry<T> {
    slot: Mutex<Option<Result<Arc<T>, String>>>,
    build_nanos: AtomicU64,
}

/// Hit/miss/build-time counters of a [`PreparedCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from an existing entry.
    pub hits: usize,
    /// Lookups that had to build.
    pub misses: usize,
    /// Total wall nanoseconds spent inside build closures.
    pub build_nanos: u128,
}

/// A thread-safe, string-keyed, build-once cache of `Arc<T>` values.
pub struct PreparedCache<T> {
    entries: Mutex<HashMap<String, Arc<Entry<T>>>>,
    hits: AtomicUsize,
    misses: AtomicUsize,
}

impl<T> Default for PreparedCache<T> {
    fn default() -> Self {
        PreparedCache::new()
    }
}

impl<T> PreparedCache<T> {
    /// An empty cache.
    #[must_use]
    pub fn new() -> Self {
        PreparedCache {
            entries: Mutex::new(HashMap::new()),
            hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
        }
    }

    /// Returns the cached value for `key`, building it with `build` on the
    /// first request. The build runs under the entry's lock: concurrent
    /// requesters of the *same* key wait for one build; different keys never
    /// contend past the map lookup.
    ///
    /// # Errors
    ///
    /// Returns the build error, which is memoized: later requesters of the
    /// same key get the same error without re-running `build`.
    pub fn try_get_or_build(
        &self,
        key: &str,
        build: impl FnOnce() -> Result<T, String>,
    ) -> Result<Arc<T>, String> {
        let entry = {
            let mut map = self.entries.lock().expect("cache map poisoned");
            Arc::clone(map.entry(key.to_string()).or_insert_with(|| {
                Arc::new(Entry {
                    slot: Mutex::new(None),
                    build_nanos: AtomicU64::new(0),
                })
            }))
        };
        let mut slot = entry.slot.lock().expect("cache entry poisoned");
        if let Some(ready) = &*slot {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return ready.clone();
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let started = Instant::now();
        let built = build().map(Arc::new);
        let nanos = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        entry.build_nanos.store(nanos, Ordering::Relaxed);
        *slot = Some(built.clone());
        built
    }

    /// Hit/miss/build-time counters.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        let map = self.entries.lock().expect("cache map poisoned");
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            build_nanos: map
                .values()
                .map(|e| u128::from(e.build_nanos.load(Ordering::Relaxed)))
                .sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_once_and_shares() {
        let cache: PreparedCache<Vec<u8>> = PreparedCache::new();
        let a = cache.try_get_or_build("k", || Ok(vec![1, 2, 3]));
        let b = cache.try_get_or_build("k", || panic!("must not rebuild"));
        assert!(Arc::ptr_eq(&a.unwrap(), &b.unwrap()));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn errors_are_memoized() {
        let cache: PreparedCache<u32> = PreparedCache::new();
        let e1 = cache.try_get_or_build("bad", || Err("boom".to_string()));
        let e2: Result<Arc<u32>, String> =
            cache.try_get_or_build("bad", || panic!("must not rebuild after error"));
        assert_eq!(e1.unwrap_err(), "boom");
        assert_eq!(e2.unwrap_err(), "boom");
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn concurrent_requesters_build_exactly_once() {
        use std::sync::atomic::AtomicUsize;
        let cache: Arc<PreparedCache<usize>> = Arc::new(PreparedCache::new());
        let builds = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|s| {
            for _ in 0..8 {
                let cache = Arc::clone(&cache);
                let builds = Arc::clone(&builds);
                s.spawn(move || {
                    let v = cache.try_get_or_build("shared", || {
                        builds.fetch_add(1, Ordering::Relaxed);
                        std::thread::sleep(std::time::Duration::from_millis(2));
                        Ok(7usize)
                    });
                    assert_eq!(v.as_deref(), Ok(&7));
                });
            }
        });
        assert_eq!(builds.load(Ordering::Relaxed), 1);
        assert_eq!(cache.stats().misses, 1);
        assert_eq!(cache.stats().hits, 7);
    }
}
