//! Deterministic Space-Saving top-K heavy-hitter sketch.
//!
//! [`SpaceSaving`] answers "which keys account for the most weight?"
//! (requests per function, squashed core-time per function, …) while
//! tracking at most `k` keys — constant memory however many distinct keys
//! the stream contains. It is the classic Space-Saving algorithm of
//! Metwally, Agrawal & El Abbadi (2005): when a new key arrives and the
//! sketch is full, the key with the *minimum* counter is evicted and the
//! newcomer inherits its count (recording that inherited amount as the
//! entry's error bound).
//!
//! # Guarantees
//!
//! With capacity `k` over a stream of total weight `n`:
//! - every entry's true weight `t` satisfies `count - error ≤ t ≤ count`;
//! - any key whose true weight exceeds `n / k` is guaranteed to be
//!   present in the sketch (the classic heavy-hitter guarantee the
//!   property tests assert).
//!
//! # Determinism
//!
//! Entries live in a `Vec` sorted by key, and every scan (min-eviction,
//! [`SpaceSaving::top`] ordering) breaks count ties by key order. Two
//! sketches fed the same stream — or merged from the same shards in any
//! order-insensitive way the caller arranges — render identically, which
//! keeps `--jobs` output byte-stable.
//!
//! # Layout
//!
//! The at most `k` keys sit in one key-sorted `Vec` and their entries in
//! a parallel one, so a lookup is a binary search and the eviction that
//! every miss on a full sketch pays is a scan over `k` contiguous entries
//! rather than a tree walk.

use std::borrow::Borrow;

/// One tracked entry: an over-estimate `count` and the inherited
/// over-estimation bound `error` (true weight is in `[count-error, count]`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TopEntry {
    /// Estimated (never under-) weight of the key.
    pub count: u64,
    /// Maximum over-estimation: weight inherited from evicted keys.
    pub error: u64,
}

/// Deterministic Space-Saving sketch over keys of type `K`.
///
/// See the [module documentation](self) for guarantees and the
/// determinism argument.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpaceSaving<K: Ord + Clone> {
    /// Tracked keys, ascending.
    keys: Vec<K>,
    /// `entries[i]` belongs to `keys[i]`.
    entries: Vec<TopEntry>,
    capacity: usize,
    total: u64,
}

impl<K: Ord + Clone> SpaceSaving<K> {
    /// Creates a sketch tracking at most `k` keys.
    ///
    /// # Panics
    /// Panics if `k` is zero.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "SpaceSaving capacity must be positive");
        SpaceSaving {
            keys: Vec::new(),
            entries: Vec::new(),
            capacity: k,
            total: 0,
        }
    }

    /// Capacity `k` the sketch was created with.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total weight of the stream seen so far (including evicted keys).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of keys currently tracked (≤ `k`).
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True if no weight has been added.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Index of `key` if tracked, else where it would be inserted.
    fn find<Q: Ord + ?Sized>(&self, key: &Q) -> Result<usize, usize>
    where
        K: Borrow<Q>,
    {
        self.keys.binary_search_by(|k| k.borrow().cmp(key))
    }

    /// Adds weight 1 to `key`.
    pub fn add(&mut self, key: K) {
        self.add_weight(key, 1);
    }

    /// Adds weight `w` to `key`. If the sketch is full and `key` is new,
    /// the minimum-count entry (ties broken by smallest key) is evicted
    /// and `key` inherits its count as both offset and error bound.
    pub fn add_weight(&mut self, key: K, w: u64) {
        if w == 0 {
            return;
        }
        self.total += w;
        match self.find(&key) {
            Ok(i) => self.entries[i].count += w,
            Err(at) => self.insert_new(at, key, w),
        }
    }

    /// Starts tracking `key`, which sorts at `at`, with weight `w`,
    /// evicting the minimum-count entry first if the sketch is full.
    fn insert_new(&mut self, at: usize, key: K, w: u64) {
        if self.keys.len() < self.capacity {
            self.keys.insert(at, key);
            self.entries.insert(at, TopEntry { count: w, error: 0 });
            return;
        }
        // `min_by_key` returns the first of equal minima, and the entries
        // are in key order, so the smallest key wins count ties.
        let (victim, min) = self
            .entries
            .iter()
            .enumerate()
            .min_by_key(|(_, e)| e.count)
            .map(|(i, e)| (i, e.count))
            .expect("capacity > 0, sketch full");
        // Shift the entries between the victim and the newcomer's place
        // by one, so the victim's slot lands where the newcomer sorts.
        let at = if victim < at {
            self.keys[victim..at].rotate_left(1);
            self.entries[victim..at].rotate_left(1);
            at - 1
        } else {
            self.keys[at..=victim].rotate_right(1);
            self.entries[at..=victim].rotate_right(1);
            at
        };
        self.keys[at] = key;
        self.entries[at] = TopEntry {
            count: min + w,
            error: min,
        };
    }

    /// The tracked entries sorted by descending count, count ties broken
    /// by ascending key — a total, deterministic order.
    pub fn top(&self) -> Vec<(K, TopEntry)> {
        let mut v: Vec<(K, TopEntry)> = self
            .keys
            .iter()
            .cloned()
            .zip(self.entries.iter().copied())
            .collect();
        v.sort_by(|(ka, ea), (kb, eb)| eb.count.cmp(&ea.count).then_with(|| ka.cmp(kb)));
        v
    }

    /// The estimated count for `key`, if tracked.
    pub fn get(&self, key: &K) -> Option<TopEntry> {
        self.find(key).ok().map(|i| self.entries[i])
    }

    /// Folds another sketch into this one by replaying its entries as
    /// weighted additions in key order (each entry keeps its own error,
    /// plus any inherited on eviction). The result depends only on the
    /// multiset of shard entries fed in a fixed fold order — callers that
    /// merge shards in submission order (as `run_cells` returns them) get
    /// byte-identical output at any job count.
    pub fn merge(&mut self, other: &SpaceSaving<K>) {
        self.total += other.total;
        for (k, e) in other.keys.iter().zip(&other.entries) {
            self.total -= e.count; // add_weight re-adds it below
            let prior_err = self.get(k).map_or(0, |mine| mine.error);
            self.add_weight(k.clone(), e.count);
            if let Ok(i) = self.find(k) {
                // Propagate the shard's own over-estimation bound on top of
                // whatever this sketch already attributed to the key.
                let mine = &mut self.entries[i];
                mine.error = mine.error.max(prior_err) + e.error;
            }
        }
    }
}

impl SpaceSaving<String> {
    /// [`SpaceSaving::add_weight`] by borrowed key: allocation-free when
    /// `key` is already tracked (the per-event hot path in the metrics
    /// registry), cloning only on first sight or eviction.
    pub fn add_weight_str(&mut self, key: &str, w: u64) {
        if w == 0 {
            return;
        }
        self.total += w;
        match self.find(key) {
            Ok(i) => self.entries[i].count += w,
            Err(at) => self.insert_new(at, key.to_string(), w),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracks_exact_counts_under_capacity() {
        let mut s = SpaceSaving::new(4);
        for _ in 0..5 {
            s.add("a");
        }
        for _ in 0..3 {
            s.add("b");
        }
        let top = s.top();
        assert_eq!(top[0], ("a", TopEntry { count: 5, error: 0 }));
        assert_eq!(top[1], ("b", TopEntry { count: 3, error: 0 }));
        assert_eq!(s.total(), 8);
    }

    #[test]
    fn eviction_inherits_min_count_as_error() {
        let mut s = SpaceSaving::new(2);
        s.add_weight("a", 10);
        s.add_weight("b", 3);
        s.add_weight("c", 1); // evicts b (min), inherits 3
        let c = s.get(&"c").unwrap();
        assert_eq!(c, TopEntry { count: 4, error: 3 });
        assert!(s.get(&"b").is_none());
        assert_eq!(s.total(), 14);
    }

    #[test]
    fn count_ties_evict_smallest_key() {
        let mut s = SpaceSaving::new(2);
        s.add_weight("x", 2);
        s.add_weight("y", 2);
        s.add_weight("z", 1);
        // x and y tie at 2; x (smaller key) is the deterministic victim.
        assert!(s.get(&"x").is_none());
        assert!(s.get(&"y").is_some());
        assert_eq!(s.get(&"z"), Some(TopEntry { count: 3, error: 2 }));
    }

    #[test]
    fn heavy_hitter_guarantee_smoke() {
        // 1000 total, k=10: anything above 100 must survive arbitrary noise.
        let mut s = SpaceSaving::new(10);
        for i in 0..850u64 {
            s.add(format!("noise-{}", i % 97));
        }
        for _ in 0..150 {
            s.add("whale".to_string());
        }
        let e = s.get(&"whale".to_string()).expect("heavy hitter evicted");
        assert!(e.count >= 150, "count {} underestimates", e.count);
        assert!(e.count - e.error <= 150);
    }

    #[test]
    fn top_order_is_total_and_deterministic() {
        let mut s = SpaceSaving::new(8);
        for k in ["d", "b", "a", "c"] {
            s.add_weight(k, 7);
        }
        let keys: Vec<&str> = s.top().into_iter().map(|(k, _)| k).collect();
        assert_eq!(keys, ["a", "b", "c", "d"]);
    }

    #[test]
    fn merge_preserves_totals_and_bounds() {
        let mut a = SpaceSaving::new(4);
        let mut b = SpaceSaving::new(4);
        for _ in 0..6 {
            a.add("x");
        }
        for _ in 0..4 {
            b.add("x");
        }
        b.add_weight("y", 9);
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.total(), a.total() + b.total());
        let x = merged.get(&"x").unwrap();
        assert!(x.count >= 10, "merged count {} lost weight", x.count);
    }
}
