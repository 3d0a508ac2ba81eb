//! The column-shred pool (§3, §5.1).
//!
//! "RAW maintains a pool of previously created column shreds. A shred is
//! used by an upcoming query if the values it contains subsume the values
//! requested. The replacement policy we use for this cache is LRU."
//!
//! Entries are [`SparseColumn`]s keyed by (table, column): full columns are
//! shreds whose loaded mask is all-ones. Insertions *merge* (the pool
//! accumulates coverage across queries); eviction is LRU by byte budget.
//!
//! # Concurrency
//!
//! The pool is shared by every [`Session`](crate::Session) of an engine, so
//! all methods take `&self`:
//!
//! - Lookups (`get` / `get_full` / `peek`) hold the entry map's **read**
//!   lock; the LRU touch and hit/miss counters are relaxed atomics, so
//!   concurrent readers never serialize on a write lock.
//! - Publications (`insert_merge` / `insert_full`) hold the **write** lock
//!   and *merge* coverage into any resident shred (union of loaded rows),
//!   so two queries publishing shreds for the same column both land — the
//!   merge-on-publish protocol in CONCURRENCY.md.
//! - `total_bytes` is a running total maintained on insert/merge/evict/
//!   clear, so staying under budget costs one LRU scan per *eviction*
//!   rather than a full-map byte sum per loop iteration.
//!
//! All atomics here are `Relaxed`: each is an independent statistic or an
//! LRU timestamp, and every structural map change is ordered by the
//! `RwLock` itself.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;
use raw_columnar::{Column, SparseColumn};

/// Pool statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShredPoolStats {
    /// Lookups that found a usable shred.
    pub hits: u64,
    /// Lookups that found nothing (or insufficient coverage).
    pub misses: u64,
    /// Shreds evicted to stay within budget.
    pub evictions: u64,
}

struct Entry {
    shred: Arc<SparseColumn>,
    last_used: AtomicU64,
    bytes: usize,
}

/// LRU pool of column shreds, shareable across concurrent sessions.
pub struct ShredPool {
    entries: RwLock<HashMap<(String, String), Entry>>,
    budget_bytes: usize,
    /// Running sum of every entry's `bytes` — kept exact under the write
    /// lock so eviction never has to re-sum the map.
    total_bytes: AtomicUsize,
    clock: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

fn shred_bytes(s: &SparseColumn) -> usize {
    // The loaded-mask is one bit per row: round *up* so short shreds
    // (and any non-multiple-of-8 length) are not undercounted.
    s.dense().heap_bytes() + s.len().div_ceil(8)
}

impl ShredPool {
    /// A pool that evicts LRU entries beyond `budget_bytes`.
    pub fn new(budget_bytes: usize) -> ShredPool {
        ShredPool {
            entries: RwLock::new(HashMap::new()),
            budget_bytes,
            total_bytes: AtomicUsize::new(0),
            clock: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Current statistics. Every lookup contributes exactly one net hit or
    /// miss, so `hits + misses` equals the number of lookups even under
    /// contention.
    pub fn stats(&self) -> ShredPoolStats {
        ShredPoolStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }

    /// Total bytes held (running total, not a map scan).
    pub fn heap_bytes(&self) -> usize {
        self.total_bytes.load(Ordering::Relaxed)
    }

    /// Number of cached shreds.
    pub fn len(&self) -> usize {
        self.entries.read().len()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.read().is_empty()
    }

    /// Drop everything.
    pub fn clear(&self) {
        let mut entries = self.entries.write();
        entries.clear();
        self.total_bytes.store(0, Ordering::Relaxed);
    }

    /// Fetch the shred for (`table`, `column`) regardless of coverage,
    /// touching LRU. Callers check coverage themselves ([`SparseColumn`]
    /// exposes `covers_rows` / `is_full`).
    pub fn get(&self, table: &str, column: &str) -> Option<Arc<SparseColumn>> {
        let now = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
        let key = (table.to_owned(), column.to_owned());
        let entries = self.entries.read();
        match entries.get(&key) {
            Some(e) => {
                e.last_used.store(now, Ordering::Relaxed);
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(Arc::clone(&e.shred))
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Look up the shred for (`table`, `column`) without counting a hit or
    /// miss and without touching LRU: the engine's own planning probes use
    /// it, so the counters see only lookups that serve a scan.
    pub fn peek(&self, table: &str, column: &str) -> Option<Arc<SparseColumn>> {
        let key = (table.to_owned(), column.to_owned());
        self.entries.read().get(&key).map(|e| Arc::clone(&e.shred))
    }

    /// Fetch only if the shred covers the *entire* column of `len` rows
    /// (used by bottom scans, which need every row).
    pub fn get_full(&self, table: &str, column: &str, len: u64) -> Option<Arc<SparseColumn>> {
        let shred = self.get(table, column)?;
        if shred.len() as u64 >= len && shred.is_full() {
            Some(shred)
        } else {
            // The partial hit is not usable as a full column: reclassify
            // the lookup (net effect stays one miss).
            self.hits.fetch_sub(1, Ordering::Relaxed);
            self.misses.fetch_add(1, Ordering::Relaxed);
            None
        }
    }

    /// Merge `incoming` into the pool entry for (`table`, `column`). If an
    /// entry exists, the union of loaded rows is kept (incoming wins on
    /// overlap); otherwise the shred is inserted as-is.
    pub fn insert_merge(
        &self,
        table: &str,
        column: &str,
        incoming: SparseColumn,
    ) -> raw_columnar::Result<()> {
        let now = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
        let key = (table.to_owned(), column.to_owned());
        let mut entries = self.entries.write();
        match entries.get_mut(&key) {
            Some(e) => {
                // Grow the resident shred if the incoming one is longer.
                let merged = Arc::make_mut(&mut e.shred);
                if incoming.len() > merged.len() {
                    merged.grow_to(incoming.len());
                }
                merged.absorb(&incoming)?;
                let new_bytes = shred_bytes(merged);
                if new_bytes >= e.bytes {
                    self.total_bytes.fetch_add(new_bytes - e.bytes, Ordering::Relaxed);
                } else {
                    self.total_bytes.fetch_sub(e.bytes - new_bytes, Ordering::Relaxed);
                }
                e.bytes = new_bytes;
                e.last_used.store(now, Ordering::Relaxed);
            }
            None => {
                let bytes = shred_bytes(&incoming);
                self.total_bytes.fetch_add(bytes, Ordering::Relaxed);
                entries.insert(
                    key,
                    Entry { shred: Arc::new(incoming), last_used: AtomicU64::new(now), bytes },
                );
            }
        }
        self.evict_to_budget(&mut entries);
        Ok(())
    }

    /// Convenience: cache a fully-loaded column.
    pub fn insert_full(
        &self,
        table: &str,
        column: &str,
        column_data: Column,
    ) -> raw_columnar::Result<()> {
        self.insert_merge(table, column, SparseColumn::full(column_data))
    }

    fn evict_to_budget(&self, entries: &mut HashMap<(String, String), Entry>) {
        while self.total_bytes.load(Ordering::Relaxed) > self.budget_bytes && !entries.is_empty() {
            let victim = entries
                .iter()
                .min_by_key(|(_, e)| e.last_used.load(Ordering::Relaxed))
                .map(|(k, _)| k.clone());
            let Some(victim) = victim else { break };
            if let Some(e) = entries.remove(&victim) {
                self.total_bytes.fetch_sub(e.bytes, Ordering::Relaxed);
            }
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use raw_columnar::{DataType, Value};

    fn shred(rows: &[usize], len: usize) -> SparseColumn {
        let mut s = SparseColumn::new(DataType::Int64, len);
        for &r in rows {
            s.store(r, &Value::Int64(r as i64 * 10)).unwrap();
        }
        s
    }

    #[test]
    fn insert_get_and_coverage() {
        let pool = ShredPool::new(1 << 20);
        pool.insert_merge("t", "col11", shred(&[1, 3], 10)).unwrap();
        let s = pool.get("t", "col11").unwrap();
        assert!(s.covers_rows(&[1, 3]));
        assert!(!s.covers_rows(&[2]));
        assert!(pool.get("t", "colX").is_none());
        assert_eq!(pool.stats().hits, 1);
        assert_eq!(pool.stats().misses, 1);
    }

    #[test]
    fn merge_accumulates_coverage() {
        let pool = ShredPool::new(1 << 20);
        pool.insert_merge("t", "c", shred(&[1], 10)).unwrap();
        pool.insert_merge("t", "c", shred(&[4, 5], 10)).unwrap();
        let s = pool.get("t", "c").unwrap();
        assert!(s.covers_rows(&[1, 4, 5]));
        assert_eq!(pool.len(), 1, "merged, not duplicated");
    }

    #[test]
    fn merge_grows_shorter_entry() {
        let pool = ShredPool::new(1 << 20);
        pool.insert_merge("t", "c", shred(&[1], 4)).unwrap();
        pool.insert_merge("t", "c", shred(&[7], 10)).unwrap();
        let s = pool.get("t", "c").unwrap();
        assert_eq!(s.len(), 10);
        assert!(s.covers_rows(&[1, 7]));
    }

    #[test]
    fn get_full_requires_full_coverage() {
        let pool = ShredPool::new(1 << 20);
        pool.insert_merge("t", "c", shred(&[0, 1, 2], 3)).unwrap();
        assert!(pool.get_full("t", "c", 3).is_some());
        assert!(pool.get_full("t", "c", 5).is_none(), "file longer than shred");
        pool.insert_merge("t", "d", shred(&[0], 3)).unwrap();
        assert!(pool.get_full("t", "d", 3).is_none(), "partial");
    }

    #[test]
    fn full_column_roundtrip() {
        let pool = ShredPool::new(1 << 20);
        pool.insert_full("t", "c", vec![1i64, 2, 3].into()).unwrap();
        let s = pool.get_full("t", "c", 3).unwrap();
        assert_eq!(s.dense().as_i64().unwrap(), &[1, 2, 3]);
    }

    #[test]
    fn lru_eviction_respects_budget() {
        // Each 100-row i64 shred is ~813 bytes; budget of 2000 holds two.
        let pool = ShredPool::new(2000);
        pool.insert_full("t", "a", vec![0i64; 100].into()).unwrap();
        pool.insert_full("t", "b", vec![0i64; 100].into()).unwrap();
        assert_eq!(pool.len(), 2);
        // Touch "a" so "b" becomes LRU, then insert "c".
        pool.get("t", "a");
        pool.insert_full("t", "c", vec![0i64; 100].into()).unwrap();
        assert_eq!(pool.len(), 2);
        assert!(pool.get("t", "b").is_none(), "b was evicted");
        assert!(pool.get("t", "a").is_some());
        assert!(pool.get("t", "c").is_some());
        assert_eq!(pool.stats().evictions, 1);
    }

    #[test]
    fn peek_counts_nothing_and_leaves_lru_alone() {
        let pool = ShredPool::new(2000);
        pool.insert_full("t", "a", vec![0i64; 100].into()).unwrap();
        pool.insert_full("t", "b", vec![0i64; 100].into()).unwrap();
        assert!(pool.peek("t", "a").is_some_and(|s| s.is_full()));
        assert!(pool.peek("t", "x").is_none());
        assert_eq!(pool.stats(), ShredPoolStats::default());
        // The peek did not refresh "a": it is still the LRU entry.
        pool.insert_full("t", "c", vec![0i64; 100].into()).unwrap();
        assert!(pool.peek("t", "a").is_none(), "a was evicted");
        assert!(pool.peek("t", "b").is_some());
    }

    #[test]
    fn running_total_tracks_map_contents() {
        let pool = ShredPool::new(1 << 20);
        assert_eq!(pool.heap_bytes(), 0);
        pool.insert_merge("t", "a", shred(&[1], 4)).unwrap();
        let after_insert = pool.heap_bytes();
        assert!(after_insert > 0);
        // Merging a longer shred grows the entry; the total follows.
        pool.insert_merge("t", "a", shred(&[9], 100)).unwrap();
        let after_merge = pool.heap_bytes();
        assert!(after_merge > after_insert);
        // The running total matches a fresh sum over the entries.
        let summed: usize = pool.entries.read().values().map(|e| e.bytes).sum();
        assert_eq!(after_merge, summed);
        pool.clear();
        assert_eq!(pool.heap_bytes(), 0);
    }

    #[test]
    fn mask_bytes_round_up() {
        // 3 rows => 1 mask byte, not 0; 9 rows => 2, not 1.
        let s3 = shred(&[0], 3);
        let s9 = shred(&[0], 9);
        assert_eq!(shred_bytes(&s3), s3.dense().heap_bytes() + 1);
        assert_eq!(shred_bytes(&s9), s9.dense().heap_bytes() + 2);
    }

    #[test]
    fn type_conflict_on_merge_errors() {
        let pool = ShredPool::new(1 << 20);
        pool.insert_full("t", "c", vec![1i64].into()).unwrap();
        let wrong = SparseColumn::full(vec![1.0f64].into());
        assert!(pool.insert_merge("t", "c", wrong).is_err());
    }

    #[test]
    fn clear_empties() {
        let pool = ShredPool::new(1 << 20);
        pool.insert_full("t", "c", vec![1i64].into()).unwrap();
        pool.clear();
        assert!(pool.is_empty());
        assert_eq!(pool.heap_bytes(), 0);
    }
}
