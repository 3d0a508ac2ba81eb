//! The template cache: compiled access paths, reused across queries.
//!
//! §3: "RAW consults a template cache to determine whether this specific
//! access path has been requested before … The \[compiled\] library is also
//! registered in the template cache to be reused later in case the same
//! query is resubmitted." §4.2 reports ~2 s of GCC time on the first query.
//!
//! Here a "compiled library" is a format-specific program object (e.g.
//! [`crate::csv::CsvProgram`]) behind `Arc<dyn Any>`. Real derivation cost is
//! measured, and an optional *simulated compile latency* models the paper's
//! external-compiler overhead for experiments that include it (off by
//! default).

use std::any::Any;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

/// Cache statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found a compiled template.
    pub hits: u64,
    /// Lookups that had to compile.
    pub misses: u64,
    /// Total wall time spent compiling (including simulated latency).
    pub compile_time: Duration,
}

/// A cache of compiled access-path templates keyed by
/// [`crate::AccessPathSpec::fingerprint`].
pub struct TemplateCache {
    entries: Mutex<HashMap<u64, Arc<dyn Any + Send + Sync>>>,
    stats: Mutex<CacheStats>,
    simulated_compile_latency: Duration,
}

impl Default for TemplateCache {
    fn default() -> Self {
        TemplateCache::new()
    }
}

impl TemplateCache {
    /// An empty cache with no simulated compile latency.
    pub fn new() -> TemplateCache {
        TemplateCache {
            entries: Mutex::new(HashMap::new()),
            stats: Mutex::new(CacheStats::default()),
            simulated_compile_latency: Duration::ZERO,
        }
    }

    /// Model an external compiler: every miss additionally sleeps this long
    /// (the paper's first-query GCC cost, ~2 s at paper scale).
    pub fn with_simulated_compile_latency(latency: Duration) -> TemplateCache {
        TemplateCache { simulated_compile_latency: latency, ..TemplateCache::new() }
    }

    /// Fetch the template for `fingerprint`, or build it with `compile`.
    /// Returns the template and whether it was a cache hit.
    pub fn get_or_compile<T, F>(&self, fingerprint: u64, compile: F) -> (Arc<T>, bool)
    where
        T: Any + Send + Sync,
        F: FnOnce() -> T,
    {
        if let Some(entry) = self.entries.lock().get(&fingerprint) {
            if let Ok(t) = Arc::clone(entry).downcast::<T>() {
                self.stats.lock().hits += 1;
                return (t, true);
            }
        }
        let start = Instant::now();
        if !self.simulated_compile_latency.is_zero() {
            std::thread::sleep(self.simulated_compile_latency);
        }
        let compiled = Arc::new(compile());
        let elapsed = start.elapsed();
        {
            let mut stats = self.stats.lock();
            stats.misses += 1;
            stats.compile_time += elapsed;
        }
        self.entries
            .lock()
            .insert(fingerprint, Arc::clone(&compiled) as Arc<dyn Any + Send + Sync>);
        (compiled, false)
    }

    /// Current statistics.
    pub fn stats(&self) -> CacheStats {
        *self.stats.lock()
    }

    /// Number of cached templates.
    pub fn len(&self) -> usize {
        self.entries.lock().len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.lock().is_empty()
    }

    /// Drop all templates (tests; simulating engine restart).
    pub fn clear(&self) {
        self.entries.lock().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    #[test]
    fn compiles_once_per_fingerprint() {
        let cache = TemplateCache::new();
        let calls = AtomicU32::new(0);
        let make = || {
            calls.fetch_add(1, Ordering::SeqCst);
            "program".to_owned()
        };
        let (a, hit_a) = cache.get_or_compile(42, make);
        assert!(!hit_a);
        let (b, hit_b) = cache.get_or_compile(42, || {
            calls.fetch_add(1, Ordering::SeqCst);
            "other".to_owned()
        });
        assert!(hit_b);
        assert_eq!(calls.load(Ordering::SeqCst), 1);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().misses, 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn distinct_fingerprints_compile_separately() {
        let cache = TemplateCache::new();
        cache.get_or_compile(1, || 10u32);
        cache.get_or_compile(2, || 20u32);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn clear_forces_recompile() {
        let cache = TemplateCache::new();
        cache.get_or_compile(7, || 1u8);
        cache.clear();
        assert!(cache.is_empty());
        let (_, hit) = cache.get_or_compile(7, || 2u8);
        assert!(!hit);
    }

    #[test]
    fn simulated_latency_counts_in_compile_time() {
        let cache = TemplateCache::with_simulated_compile_latency(Duration::from_millis(15));
        cache.get_or_compile(9, || ());
        assert!(cache.stats().compile_time >= Duration::from_millis(15));
        // Hits pay nothing.
        let before = cache.stats().compile_time;
        cache.get_or_compile(9, || ());
        assert_eq!(cache.stats().compile_time, before);
    }

    #[test]
    fn type_mismatch_recompiles() {
        // Same fingerprint, different type: treated as a miss (defensive —
        // the engine derives fingerprints such that this cannot happen).
        let cache = TemplateCache::new();
        cache.get_or_compile(5, || 1u32);
        let (v, hit) = cache.get_or_compile(5, || "x".to_owned());
        assert!(!hit);
        assert_eq!(*v, "x");
    }
}
