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
