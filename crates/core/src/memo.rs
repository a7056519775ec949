//! Per-function memoization tables (paper §V-B, extended for implicit
//! workflows in §V-D).
//!
//! Each function keeps a table of `{input → output}` pairs observed on
//! *committed* executions. When the controller is about to launch a
//! function with inputs present in the table, it retrieves the predicted
//! outputs and speculatively launches the successor with them. For
//! implicit workflows, each row additionally stores the input values the
//! function passed to each of its callees, so callees can be launched
//! speculatively alongside the caller.
//!
//! Tables are LRU-bounded: the paper reports that a modest 50-entry table
//! reaches a 96 % average hit rate on TrainTicket, and that the combined
//! tables of an application occupy only 1.5–30 KB.

use std::collections::hash_map::Entry;

use specfaas_sim::hash::FxHashMap;
use specfaas_sim::stats::HitRate;
use specfaas_storage::Value;

/// One memoization row: the outputs observed for a given input, plus the
/// observed callee inputs (in call order) for implicit workflows.
#[derive(Debug, Clone, PartialEq)]
pub struct MemoEntry {
    /// The output the function produced for this input.
    pub output: Value,
    /// Input documents passed to each callee, in call order (empty for
    /// leaf functions and explicit workflows).
    pub callee_inputs: Vec<Value>,
    lru_tick: u64,
}

/// The memoization table of one function.
///
/// # Example
///
/// ```
/// use specfaas_core::MemoTable;
/// use specfaas_storage::Value;
///
/// let mut t = MemoTable::new(50);
/// t.insert(Value::Int(1), Value::Int(10), vec![]);
/// assert_eq!(t.lookup(&Value::Int(1)).map(|e| &e.output), Some(&Value::Int(10)));
/// assert!(t.lookup(&Value::Int(2)).is_none());
/// ```
#[derive(Debug, Clone)]
pub struct MemoTable {
    entries: FxHashMap<Value, MemoEntry>,
    capacity: usize,
    tick: u64,
    stats: HitRate,
}

impl MemoTable {
    /// Creates an empty table holding at most `capacity` rows.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "memo table capacity must be positive");
        MemoTable {
            entries: FxHashMap::default(),
            capacity,
            tick: 0,
            stats: HitRate::new(),
        }
    }

    /// Looks up the row for `input`, updating LRU recency and hit-rate
    /// statistics.
    pub fn lookup(&mut self, input: &Value) -> Option<&MemoEntry> {
        self.tick += 1;
        let tick = self.tick;
        match self.entries.get_mut(input) {
            Some(e) => {
                e.lru_tick = tick;
                self.stats.record(true);
                Some(&*e)
            }
            None => {
                self.stats.record(false);
                None
            }
        }
    }

    /// Looks up without touching statistics or recency (used by
    /// validation paths that should not distort the hit rate).
    pub fn peek(&self, input: &Value) -> Option<&MemoEntry> {
        self.entries.get(input)
    }

    /// Inserts or replaces the row for `input`. Only ever called at
    /// commit time with validated, non-speculative values (§V-E).
    pub fn insert(&mut self, input: Value, output: Value, callee_inputs: Vec<Value>) {
        self.tick += 1;
        let row = MemoEntry {
            output,
            callee_inputs,
            lru_tick: self.tick,
        };
        match self.entries.entry(input) {
            Entry::Occupied(mut e) => {
                e.insert(row);
            }
            Entry::Vacant(e) => {
                e.insert(row);
                if self.entries.len() > self.capacity {
                    // Evict the least recently used row. Ticks are
                    // distinct and the new row's is the largest, so
                    // exactly one older row goes.
                    let oldest = self.entries.values().map(|e| e.lru_tick).min();
                    self.entries.retain(|_, e| Some(e.lru_tick) != oldest);
                }
            }
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Maximum number of rows (the LRU bound).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// True if the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Lookup hit-rate statistics.
    pub fn hit_rate(&self) -> HitRate {
        self.stats
    }

    /// Approximate memory footprint in bytes (§V-B sizes tables this way).
    pub fn approx_size_bytes(&self) -> usize {
        self.entries
            .iter()
            .map(|(k, e)| {
                k.approx_size_bytes()
                    + e.output.approx_size_bytes()
                    + e.callee_inputs
                        .iter()
                        .map(Value::approx_size_bytes)
                        .sum::<usize>()
                    + 16
            })
            .sum()
    }
}

/// The memoization tables of all functions in an application, indexed by
/// function id.
#[derive(Debug, Clone)]
pub struct MemoTables {
    tables: Vec<MemoTable>,
}

impl MemoTables {
    /// One table per function, each with `capacity` rows.
    pub fn new(functions: usize, capacity: usize) -> Self {
        MemoTables {
            tables: (0..functions).map(|_| MemoTable::new(capacity)).collect(),
        }
    }

    /// The table of function `func`.
    ///
    /// # Panics
    /// Panics if `func` is out of range.
    pub fn table_mut(&mut self, func: u32) -> &mut MemoTable {
        &mut self.tables[func as usize]
    }

    /// Shared access to the table of function `func`.
    ///
    /// # Panics
    /// Panics if `func` is out of range.
    pub fn table(&self, func: u32) -> &MemoTable {
        &self.tables[func as usize]
    }

    /// Aggregate hit rate across all functions.
    pub fn hit_rate(&self) -> HitRate {
        let mut agg = HitRate::new();
        for t in &self.tables {
            agg.merge(t.hit_rate());
        }
        agg
    }

    /// Combined approximate size in bytes (the paper reports 1.5–30 KB
    /// per application).
    pub fn approx_size_bytes(&self) -> usize {
        self.tables.iter().map(MemoTable::approx_size_bytes).sum()
    }

    /// Entries resident across all tables — the memo-occupancy gauge.
    pub fn total_entries(&self) -> usize {
        self.tables.iter().map(MemoTable::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_lookup_roundtrip() {
        let mut t = MemoTable::new(4);
        t.insert(Value::Int(1), Value::str("a"), vec![Value::Int(9)]);
        let e = t.lookup(&Value::Int(1)).unwrap();
        assert_eq!(e.output, Value::str("a"));
        assert_eq!(e.callee_inputs, vec![Value::Int(9)]);
    }

    #[test]
    fn replace_updates_output() {
        let mut t = MemoTable::new(4);
        t.insert(Value::Int(1), Value::str("old"), vec![]);
        t.insert(Value::Int(1), Value::str("new"), vec![]);
        assert_eq!(t.len(), 1);
        assert_eq!(t.lookup(&Value::Int(1)).unwrap().output, Value::str("new"));
    }

    #[test]
    fn lru_evicts_coldest() {
        let mut t = MemoTable::new(2);
        t.insert(Value::Int(1), Value::Int(10), vec![]);
        t.insert(Value::Int(2), Value::Int(20), vec![]);
        t.lookup(&Value::Int(1)); // refresh 1
        t.insert(Value::Int(3), Value::Int(30), vec![]);
        assert!(t.peek(&Value::Int(1)).is_some(), "recently used survives");
        assert!(t.peek(&Value::Int(2)).is_none(), "LRU victim evicted");
        assert!(t.peek(&Value::Int(3)).is_some());
    }

    #[test]
    fn hit_rate_accounting() {
        let mut t = MemoTable::new(4);
        t.insert(Value::Int(1), Value::Int(1), vec![]);
        t.lookup(&Value::Int(1));
        t.lookup(&Value::Int(2));
        assert!((t.hit_rate().rate() - 0.5).abs() < 1e-12);
        // peek does not count.
        t.peek(&Value::Int(2));
        assert_eq!(t.hit_rate().total(), 2);
    }

    #[test]
    fn size_estimate_within_paper_band() {
        // ~100 modest entries should land in the paper's 1.5KB-30KB band.
        let mut tables = MemoTables::new(10, 50);
        for f in 0..10u32 {
            for i in 0..10 {
                tables.table_mut(f).insert(
                    Value::map([("user", Value::Int(i))]),
                    Value::map([("result", Value::Int(i * 7))]),
                    vec![],
                );
            }
        }
        let bytes = tables.approx_size_bytes();
        assert!(
            (1_500..=30_000).contains(&bytes),
            "combined tables {bytes}B outside the paper's band"
        );
    }

    #[test]
    fn tables_aggregate_hit_rate() {
        let mut ts = MemoTables::new(2, 4);
        ts.table_mut(0).insert(Value::Int(1), Value::Int(1), vec![]);
        ts.table_mut(0).lookup(&Value::Int(1));
        ts.table_mut(1).lookup(&Value::Int(1));
        assert!((ts.hit_rate().rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        MemoTable::new(0);
    }

    /// A crash-retry re-commits the same (input, output) row. Duplicate
    /// inserts at capacity must replace in place, never evict a third
    /// party or grow the table.
    #[test]
    fn faulted_reinsert_at_capacity_does_not_evict() {
        let mut t = MemoTable::new(2);
        t.insert(Value::Int(1), Value::Int(10), vec![]);
        t.insert(Value::Int(2), Value::Int(20), vec![]);
        // Retried commit of key 1 (same row, arriving again after a fault).
        t.insert(Value::Int(1), Value::Int(10), vec![]);
        assert_eq!(t.len(), 2);
        assert!(t.peek(&Value::Int(1)).is_some());
        assert!(t.peek(&Value::Int(2)).is_some());
    }

    /// Interleaves a stream of fresh inserts with fault-retry duplicates
    /// and hot-key lookups: the table stays LRU-bounded, the hot key
    /// survives, and duplicates never inflate occupancy.
    #[test]
    fn eviction_bounded_under_interleaved_faulted_inserts() {
        let mut t = MemoTable::new(4);
        t.insert(Value::Int(0), Value::Int(0), vec![]); // hot key
        for i in 1..30i64 {
            t.lookup(&Value::Int(0)); // keep the hot key recent
            t.insert(Value::Int(i), Value::Int(i * 10), vec![]);
            if i % 3 == 0 {
                // A faulted execution retries and re-commits its row.
                t.insert(Value::Int(i), Value::Int(i * 10), vec![]);
            }
        }
        assert_eq!(t.len(), 4, "capacity bound must hold");
        assert!(
            t.peek(&Value::Int(0)).is_some(),
            "hot key must survive 29 eviction rounds"
        );
        assert!(t.peek(&Value::Int(29)).is_some(), "newest row present");
    }

    /// Same interleaved faulted-insert sequence twice ⇒ identical
    /// surviving rows: every entry has a distinct LRU tick, so victim
    /// selection never depends on hash-map iteration order.
    #[test]
    fn eviction_order_is_deterministic() {
        let run = || {
            let mut t = MemoTable::new(3);
            for i in 0..40i64 {
                t.insert(Value::Int(i % 7), Value::Int(i), vec![]);
                if i % 4 == 0 {
                    t.lookup(&Value::Int((i + 2) % 7));
                }
                if i % 5 == 0 {
                    t.insert(Value::Int(i % 7), Value::Int(i), vec![]); // retry
                }
            }
            let mut alive: Vec<i64> = (0..7)
                .filter(|k| t.peek(&Value::Int(*k)).is_some())
                .collect();
            alive.sort_unstable();
            alive
        };
        let a = run();
        assert_eq!(a.len(), 3);
        assert_eq!(a, run());
    }
}
