//! Property tests for the streaming observability primitives: the
//! mergeable [`LogHistogram`] and the [`SpaceSaving`] heavy-hitter
//! sketch (DESIGN.md, "Streaming observability").
//!
//! These are hand-rolled property sweeps over seeded [`SimRng`] streams
//! (the workspace carries no property-testing dependency): each test
//! fixes a family of adversarial-ish distributions and asserts the
//! documented algebraic or accuracy guarantee over every seed in a range.

use specfaas_sim::{LogHistogram, SimRng, SpaceSaving};

/// A value stream of `n` samples from one of several shapes — uniform,
/// exponential-ish (product of uniforms), heavy-tailed, constant, and
/// tiny values exercising the exact linear region.
fn stream(seed: u64, n: usize) -> Vec<u64> {
    let mut rng = SimRng::seed(seed);
    let shape = seed % 5;
    (0..n)
        .map(|_| match shape {
            0 => rng.uniform_u64(1_000_000),
            1 => 1 + rng.uniform_u64(1_000) * rng.uniform_u64(1_000),
            2 => 1u64 << rng.uniform_u64(40),
            3 => 42,
            _ => rng.uniform_u64(64), // linear region only
        })
        .collect()
}

fn hist_of(values: &[u64]) -> LogHistogram {
    let mut h = LogHistogram::new();
    for &v in values {
        h.record(v);
    }
    h
}

/// Exact quantile with the same rank convention the histogram documents:
/// rank = ceil(q·n) clamped to [1, n], value = rank-th smallest.
fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
    let n = sorted.len() as u64;
    let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
    sorted[(rank - 1) as usize]
}

#[test]
fn merge_is_associative_and_commutative() {
    for seed in 0..20u64 {
        let a = hist_of(&stream(seed * 3 + 1, 400));
        let b = hist_of(&stream(seed * 3 + 2, 300));
        let c = hist_of(&stream(seed * 3 + 3, 500));

        // (a ∪ b) ∪ c
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        // a ∪ (b ∪ c)
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        assert_eq!(left, right, "merge not associative at seed {seed}");

        // b ∪ a == a ∪ b
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba, "merge not commutative at seed {seed}");
    }
}

#[test]
fn sharded_merge_is_order_independent_like_jobs_fanout() {
    // The property `--jobs` determinism rests on: however a stream is
    // sharded, and whatever order the shards are folded in, the merged
    // histogram is identical to recording the stream whole.
    for seed in 0..10u64 {
        let values = stream(seed + 77, 1_200);
        let whole = hist_of(&values);
        for shards in [2usize, 3, 7] {
            let parts: Vec<LogHistogram> = values
                .chunks(values.len().div_ceil(shards))
                .map(hist_of)
                .collect();
            // Forward fold order.
            let mut fwd = LogHistogram::new();
            for p in &parts {
                fwd.merge(p);
            }
            // Reverse fold order (a different jobs interleaving).
            let mut rev = LogHistogram::new();
            for p in parts.iter().rev() {
                rev.merge(p);
            }
            assert_eq!(fwd, whole, "sharded merge != whole at seed {seed}");
            assert_eq!(rev, whole, "fold order changed merge at seed {seed}");
        }
    }
}

#[test]
fn quantiles_are_monotone_in_q() {
    for seed in 0..20u64 {
        let h = hist_of(&stream(seed, 700));
        let mut prev = 0u64;
        for i in 0..=100u64 {
            let q = i as f64 / 100.0;
            let v = h.quantile(q);
            assert!(
                v >= prev,
                "quantile({q}) = {v} < quantile({}) = {prev} at seed {seed}",
                (i as f64 - 1.0) / 100.0
            );
            prev = v;
        }
        assert_eq!(h.quantile(1.0), h.max().unwrap());
    }
}

/// The one-rank bucket scan `quantile` used before the batched
/// [`LogHistogram::quantiles`], over the public bucket view: extreme ranks
/// answer the exact min/max, interior ranks the clamped bucket midpoint.
fn scan_quantile(h: &LogHistogram, q: f64) -> u64 {
    let n = h.count();
    if n == 0 {
        return 0;
    }
    let (min, max) = (h.min().unwrap(), h.max().unwrap());
    let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
    if rank == 1 {
        return min;
    }
    if rank == n {
        return max;
    }
    let mut seen = 0;
    for (lo, hi, c) in h.nonzero_buckets() {
        seen += c;
        if seen >= rank {
            return (lo + (hi - lo) / 2).clamp(min, max);
        }
    }
    max
}

#[test]
fn batched_quantiles_equal_single_quantiles() {
    let mut rng = SimRng::seed(0x9_0a11);
    let mut hists: Vec<LogHistogram> = vec![LogHistogram::new(), hist_of(&[12_345])];
    for seed in 0..40u64 {
        // Ties inside one bucket: every value lands in [1000, 1008).
        let ties: Vec<u64> = (0..1 + rng.uniform_u64(50))
            .map(|_| 1_000 + rng.uniform_u64(8))
            .collect();
        hists.push(hist_of(&ties));
        hists.push(hist_of(&stream(seed, 1 + rng.uniform_u64(900) as usize)));
    }
    for h in &hists {
        for _ in 0..25 {
            // Unsorted, with repeats and both extremes.
            let mut qs = [0.0, 1.0, 0.5, 0.99, 0.999, 0.0, 0.0];
            for q in &mut qs[5..] {
                *q = rng.uniform_f64();
            }
            rng.shuffle(&mut qs);
            let batch = h.quantiles(qs);
            for (q, got) in qs.iter().zip(batch) {
                assert_eq!(got, h.quantile(*q), "quantiles vs quantile at q={q}");
                assert_eq!(
                    got,
                    scan_quantile(h, *q),
                    "quantiles vs bucket scan at q={q}"
                );
            }
        }
        assert_eq!(h.quantiles([]), []);
    }
}

#[test]
fn quantiles_track_exact_within_documented_relative_error() {
    for seed in 0..20u64 {
        let mut values = stream(seed + 1, 5_000);
        let h = hist_of(&values);
        values.sort_unstable();
        for q in [0.01, 0.10, 0.50, 0.90, 0.99, 0.999] {
            let exact = exact_quantile(&values, q) as f64;
            let approx = h.quantile(q) as f64;
            // ±1 absorbs the integer midpoint rounding of one-wide buckets.
            let bound = exact * LogHistogram::RELATIVE_ERROR + 1.0;
            assert!(
                (approx - exact).abs() <= bound,
                "q={q} seed={seed}: histogram {approx} vs exact {exact} (bound {bound})"
            );
        }
    }
}

#[test]
fn histogram_memory_is_constant_in_stream_length() {
    let mut h = LogHistogram::new();
    let mut rng = SimRng::seed(9);
    for _ in 0..200_000 {
        h.record(1 + rng.uniform_u64(u64::MAX / 2));
    }
    assert_eq!(h.count(), 200_000);
    assert!(
        h.bucket_storage() <= LogHistogram::MAX_BUCKETS,
        "bucket storage {} exceeds the documented cap {}",
        h.bucket_storage(),
        LogHistogram::MAX_BUCKETS
    );
}

#[test]
fn space_saving_reports_every_heavy_hitter() {
    // Classic guarantee: with capacity k over total weight n, any key of
    // true weight > n/k is present in the sketch, with
    // count - error <= true <= count.
    for seed in 0..20u64 {
        let mut rng = SimRng::seed(seed ^ 0x70b0);
        let k = 16usize;
        let mut sketch = SpaceSaving::new(k);
        let mut truth = std::collections::BTreeMap::<String, u64>::new();
        // 3 whales buried in a wide noise floor of 200 distinct keys.
        for _ in 0..6_000 {
            let key = if rng.uniform_u64(100) < 30 {
                format!("whale-{}", rng.uniform_u64(3))
            } else {
                format!("noise-{}", rng.uniform_u64(200))
            };
            *truth.entry(key.clone()).or_insert(0) += 1;
            sketch.add(key);
        }
        let total = sketch.total();
        assert_eq!(total, 6_000);
        let threshold = total / k as u64;
        for (key, &true_count) in &truth {
            if true_count > threshold {
                let e = sketch
                    .get(key)
                    .unwrap_or_else(|| panic!("heavy hitter {key} ({true_count}) evicted"));
                assert!(e.count >= true_count, "{key}: count underestimates");
                assert!(e.count - e.error <= true_count, "{key}: bound violated");
            }
        }
    }
}

#[test]
fn space_saving_merge_keeps_heavy_hitters_across_shards() {
    // Shard a stream, sketch each shard, fold the shards in submission
    // order (the scoreboard's fleet aggregation): the global whale must
    // survive with a sound bound, and the fold must be deterministic for
    // a fixed order.
    for seed in 0..10u64 {
        let mut rng = SimRng::seed(seed ^ 0x5a5a);
        let shards = 4usize;
        let mut sketches = vec![SpaceSaving::new(16); shards];
        let mut whale_true = 0u64;
        for i in 0..8_000usize {
            let key = if rng.uniform_u64(10) < 2 {
                whale_true += 1;
                "whale".to_string()
            } else {
                format!("noise-{}", rng.uniform_u64(300))
            };
            sketches[i % shards].add(key);
        }
        let mut merged = SpaceSaving::new(16);
        for s in &sketches {
            merged.merge(s);
        }
        let mut merged2 = SpaceSaving::new(16);
        for s in &sketches {
            merged2.merge(s);
        }
        assert_eq!(merged, merged2, "same-order fold not deterministic");
        assert_eq!(merged.total(), 8_000);
        let e = merged
            .get(&"whale".to_string())
            .expect("whale lost in merge");
        assert!(e.count >= whale_true, "merged count underestimates whale");
    }
}

/// The Space-Saving sketch as it was kept before its entries moved into a
/// key-sorted `Vec`: a `BTreeMap` walked for the minimum on every miss of
/// a full sketch. The reference the sketch must match operation by
/// operation.
#[derive(Clone)]
struct TreeSketch<K: Ord + Clone> {
    entries: std::collections::BTreeMap<K, specfaas_sim::topk::TopEntry>,
    capacity: usize,
    total: u64,
}

impl<K: Ord + Clone> TreeSketch<K> {
    fn new(capacity: usize) -> Self {
        TreeSketch {
            entries: std::collections::BTreeMap::new(),
            capacity,
            total: 0,
        }
    }

    fn add_weight(&mut self, key: K, w: u64) {
        use specfaas_sim::topk::TopEntry;
        if w == 0 {
            return;
        }
        self.total += w;
        if let Some(e) = self.entries.get_mut(&key) {
            e.count += w;
            return;
        }
        if self.entries.len() < self.capacity {
            self.entries.insert(key, TopEntry { count: w, error: 0 });
            return;
        }
        let victim = self
            .entries
            .iter()
            .min_by_key(|(_, e)| e.count)
            .map(|(k, e)| (k.clone(), e.count))
            .expect("full sketch");
        self.entries.remove(&victim.0);
        self.entries.insert(
            key,
            TopEntry {
                count: victim.1 + w,
                error: victim.1,
            },
        );
    }

    fn top(&self) -> Vec<(K, specfaas_sim::topk::TopEntry)> {
        let mut v: Vec<_> = self.entries.iter().map(|(k, e)| (k.clone(), *e)).collect();
        v.sort_by(|(ka, ea), (kb, eb)| eb.count.cmp(&ea.count).then_with(|| ka.cmp(kb)));
        v
    }

    fn merge(&mut self, other: &TreeSketch<K>) {
        self.total += other.total;
        for (k, e) in &other.entries {
            self.total -= e.count;
            let prior_err = self.entries.get(k).map(|mine| mine.error).unwrap_or(0);
            self.add_weight(k.clone(), e.count);
            if let Some(mine) = self.entries.get_mut(k) {
                mine.error = mine.error.max(prior_err) + e.error;
            }
        }
    }
}

/// Asserts that `sketch` reads exactly like `reference`: `top()`,
/// `total()`, `len()` and `get()` of every key in `0..universe`.
fn assert_sketch_matches(
    sketch: &SpaceSaving<u32>,
    reference: &TreeSketch<u32>,
    universe: u32,
    what: &str,
) {
    assert_eq!(sketch.top(), reference.top(), "{what}: top");
    assert_eq!(sketch.total(), reference.total, "{what}: total");
    assert_eq!(sketch.len(), reference.entries.len(), "{what}: len");
    for key in 0..universe {
        assert_eq!(
            sketch.get(&key),
            reference.entries.get(&key).copied(),
            "{what}: get({key})"
        );
    }
}

#[test]
fn space_saving_matches_the_tree_reference_on_weighted_streams() {
    // Few distinct weights over small key universes make count ties (and
    // so the smallest-key eviction rule) common; capacities from 1 up to
    // past the universe cover the never-full and always-full sketches.
    for seed in 0..60u64 {
        let mut rng = SimRng::seed(seed ^ 0x7c0b);
        let k = 1 + rng.uniform_u64(12) as usize;
        let universe = 2 + rng.uniform_u64(40) as u32;
        let max_w = 1 + rng.uniform_u64(4);
        let mut sketch = SpaceSaving::new(k);
        let mut reference = TreeSketch::new(k);
        for step in 0..600 {
            let key = rng.uniform_u64(u64::from(universe)) as u32;
            let w = rng.uniform_u64(max_w + 1); // includes zero weights
            sketch.add_weight(key, w);
            reference.add_weight(key, w);
            if step % 37 == 0 {
                assert_sketch_matches(
                    &sketch,
                    &reference,
                    universe,
                    &format!("seed {seed} step {step}"),
                );
            }
        }
        assert_sketch_matches(&sketch, &reference, universe, &format!("seed {seed}"));
    }
}

#[test]
fn space_saving_merges_match_the_tree_reference() {
    for seed in 0..40u64 {
        let mut rng = SimRng::seed(seed ^ 0x3e26);
        let k = 1 + rng.uniform_u64(10) as usize;
        let universe = 2 + rng.uniform_u64(30) as u32;
        let shards = 2 + rng.uniform_u64(4) as usize;
        let mut sketches = vec![SpaceSaving::new(k); shards];
        let mut references = vec![TreeSketch::new(k); shards];
        for i in 0..900usize {
            let key = rng.uniform_u64(u64::from(universe)) as u32;
            let w = 1 + rng.uniform_u64(3);
            sketches[i % shards].add_weight(key, w);
            references[i % shards].add_weight(key, w);
        }
        // Fold into a sketch that already holds weight of its own, so
        // merged keys both hit and miss, with and without eviction.
        let mut merged = sketches[0].clone();
        let mut merged_ref = references[0].clone();
        for (s, r) in sketches.iter().zip(&references).skip(1) {
            merged.merge(s);
            merged_ref.merge(r);
            assert_sketch_matches(&merged, &merged_ref, universe, &format!("seed {seed}"));
        }
    }
}

#[test]
fn space_saving_borrowed_string_adds_match_the_tree_reference() {
    // `add_weight_str` is the registry's path: it must evict and insert
    // exactly as `add_weight` with an owned key does.
    for seed in 0..20u64 {
        let mut rng = SimRng::seed(seed ^ 0x51a7);
        let k = 1 + rng.uniform_u64(8) as usize;
        let mut sketch = SpaceSaving::new(k);
        let mut reference = TreeSketch::new(k);
        for _ in 0..500 {
            let key = format!("app/f{}", rng.uniform_u64(25));
            let w = rng.uniform_u64(4);
            sketch.add_weight_str(&key, w);
            reference.add_weight(key, w);
        }
        assert_eq!(sketch.top(), reference.top(), "seed {seed}");
        assert_eq!(sketch.total(), reference.total, "seed {seed}");
    }
}
