//! Seeded random number generation and the distributions the experiments
//! need.
//!
//! The paper models request inter-arrival times with a Poisson process
//! (§VII) and draws function service times, branch outcomes, and dataset
//! values from skewed distributions. Everything here is built on a
//! deterministic, splittable seeded generator so experiment runs are
//! reproducible.
//!
//! The generator is a self-contained xoshiro256++ (public domain, Blackman
//! & Vigna) seeded through SplitMix64, so the simulator carries no external
//! RNG dependency — important because the build environment is offline.

use std::sync::OnceLock;

/// A deterministic random source for one simulation run.
///
/// Wraps a xoshiro256++ state with the handful of draw helpers used across
/// the reproduction. Use [`SimRng::split`] to derive independent streams
/// (e.g. one per application instance, or one for the fault injector)
/// without correlating them.
///
/// # Example
///
/// ```
/// use specfaas_sim::SimRng;
///
/// let mut a = SimRng::seed(42);
/// let mut b = SimRng::seed(42);
/// assert_eq!(a.uniform_u64(100), b.uniform_u64(100));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimRng {
    state: [u64; 4],
}

/// SplitMix64 step, used to expand a 64-bit seed into the 256-bit state.
fn splitmix64(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed(seed: u64) -> Self {
        let mut x = seed;
        SimRng {
            state: [
                splitmix64(&mut x),
                splitmix64(&mut x),
                splitmix64(&mut x),
                splitmix64(&mut x),
            ],
        }
    }

    /// One xoshiro256++ output.
    fn next_u64(&mut self) -> u64 {
        let s = &mut self.state;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Derives an independent child generator.
    ///
    /// The child's stream is fully determined by the parent state at the
    /// time of the split, so overall determinism is preserved.
    pub fn split(&mut self) -> SimRng {
        SimRng::seed(self.next_u64())
    }

    /// Uniform integer in `[0, bound)`, unbiased (Lemire's method).
    ///
    /// # Panics
    /// Panics if `bound == 0`.
    pub fn uniform_u64(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "uniform_u64 bound must be positive");
        let mut x = self.next_u64();
        let mut m = (x as u128) * (bound as u128);
        let mut lo = m as u64;
        if lo < bound {
            let threshold = bound.wrapping_neg() % bound;
            while lo < threshold {
                x = self.next_u64();
                m = (x as u128) * (bound as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform integer in `[lo, hi]` inclusive.
    ///
    /// # Panics
    /// Panics if `lo > hi`.
    pub fn uniform_range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "uniform_range requires lo <= hi");
        let span = hi - lo;
        if span == u64::MAX {
            self.next_u64()
        } else {
            lo + self.uniform_u64(span + 1)
        }
    }

    /// Uniform float in `[0, 1)` with 53 bits of precision.
    pub fn uniform_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform float in `(0, 1)` — never exactly zero, safe for `ln()`.
    ///
    /// Public so hot paths that have hoisted a distribution's constants
    /// (e.g. an exponential's precomputed mean) can reproduce
    /// [`SimRng::exponential`] bit-for-bit without re-paying its per-call
    /// assertion and division.
    pub fn uniform_f64_open(&mut self) -> f64 {
        loop {
            let u = self.uniform_f64();
            if u > 0.0 {
                return u;
            }
        }
    }

    /// Bernoulli trial: true with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        let p = p.clamp(0.0, 1.0);
        self.uniform_f64() < p
    }

    /// Exponentially distributed value with the given mean.
    ///
    /// Used for Poisson inter-arrival times: a Poisson process with rate
    /// `lambda` has exponential gaps with mean `1 / lambda`.
    ///
    /// # Panics
    /// Panics if `mean` is not finite and positive.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        assert!(
            mean.is_finite() && mean > 0.0,
            "exponential mean must be positive"
        );
        let u = self.uniform_f64_open();
        -mean * u.ln()
    }

    /// A value from a truncated normal distribution (Box–Muller), clamped
    /// to `[min, max]`.
    ///
    /// Used for service-time jitter around the calibrated means.
    pub fn normal_clamped(&mut self, mean: f64, std_dev: f64, min: f64, max: f64) -> f64 {
        let u1 = self.uniform_f64_open();
        let u2 = self.uniform_f64();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        (mean + z * std_dev).clamp(min, max)
    }

    /// Picks one index according to a slice of non-negative weights.
    ///
    /// # Panics
    /// Panics if `weights` is empty or sums to zero.
    pub fn weighted_index(&mut self, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().sum();
        assert!(
            !weights.is_empty() && total > 0.0,
            "weighted_index requires positive total weight"
        );
        scan(weights, self.uniform_f64() * total)
    }

    /// Shuffles a slice in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.uniform_range(0, i as u64) as usize;
            items.swap(i, j);
        }
    }
}

/// Inverse-CDF lookup shared by [`SimRng::weighted_index`] and
/// [`Zipf::sample`]: subtracts the weights from `target` in order and
/// returns the first index at which it reaches zero (the last index if
/// rounding leaves it positive).
fn scan(weights: &[f64], mut target: f64) -> usize {
    for (i, w) in weights.iter().enumerate() {
        target -= w;
        if target <= 0.0 {
            return i;
        }
    }
    weights.len() - 1
}

/// A Zipf distribution over the indices `[0, n)`: index `k - 1` has weight
/// `k^-s`.
///
/// The dataset generators draw their keys (user ids, routes, products,
/// blobs) from it: real-world keys are heavily skewed, which is what
/// gives the memoization tables their high hit rates (paper §VIII-B).
///
/// The first draw computes the `n` weights and their sum; every draw is
/// then one [`SimRng::uniform_f64`] and an inverse-CDF scan from the head
/// that stops at the drawn index: no `powf`, and for the skewed exponents
/// the generators use, only the head of the table is visited. Computing
/// the table at the first draw rather than in [`Zipf::new`] keeps
/// generators whose inputs are never drawn free: the fleet builds every
/// app bundle only to take its spec. The scan subtracts the weights from
/// the scaled uniform one at a time, in index order, rather than
/// binary-searching running sums as [`ZipfTable`](crate::ZipfTable)
/// does: the two round differently, and the subtraction order is the one
/// every generated workload, golden and recorded figure was drawn with.
/// Build one per generator and share it across draws.
///
/// # Example
///
/// ```
/// use specfaas_sim::{SimRng, Zipf};
///
/// let users = Zipf::new(200, 1.2);
/// let mut rng = SimRng::seed(7);
/// let id = users.sample(&mut rng);
/// assert!(id < users.len());
/// ```
#[derive(Debug, Clone)]
pub struct Zipf {
    n: usize,
    s: f64,
    /// `k^-s` for `k = 1..=n`, and their sum added in index order.
    table: OnceLock<(Box<[f64]>, f64)>,
}

impl Zipf {
    /// The distribution over `[0, n)` with exponent `s`.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "zipf support must be non-empty");
        Zipf {
            n,
            s,
            table: OnceLock::new(),
        }
    }

    /// Draws an index in `[0, n)`.
    pub fn sample(&self, rng: &mut SimRng) -> usize {
        let (weights, total) = self.table();
        scan(weights, rng.uniform_f64() * total)
    }

    /// The weights and their sum, computed on first use.
    fn table(&self) -> (&[f64], f64) {
        let (weights, total) = self.table.get_or_init(|| {
            let weights: Box<[f64]> = (1..=self.n).map(|k| (k as f64).powf(-self.s)).collect();
            let total = weights.iter().sum();
            (weights, total)
        });
        (weights, *total)
    }

    /// Size `n` of the support.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Always false: the support is non-empty by construction.
    pub fn is_empty(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn determinism_same_seed_same_stream() {
        let mut a = SimRng::seed(7);
        let mut b = SimRng::seed(7);
        for _ in 0..100 {
            assert_eq!(a.uniform_u64(1_000_000), b.uniform_u64(1_000_000));
        }
    }

    #[test]
    fn split_streams_diverge() {
        let mut parent = SimRng::seed(7);
        let mut c1 = parent.split();
        let mut c2 = parent.split();
        let s1: Vec<u64> = (0..10).map(|_| c1.uniform_u64(1_000_000)).collect();
        let s2: Vec<u64> = (0..10).map(|_| c2.uniform_u64(1_000_000)).collect();
        assert_ne!(s1, s2);
    }

    #[test]
    fn uniform_u64_stays_in_bounds() {
        let mut rng = SimRng::seed(23);
        for bound in [1u64, 2, 3, 7, 100, 1 << 40] {
            for _ in 0..1_000 {
                assert!(rng.uniform_u64(bound) < bound);
            }
        }
    }

    #[test]
    fn uniform_u64_is_roughly_uniform() {
        let mut rng = SimRng::seed(29);
        let mut counts = [0usize; 8];
        for _ in 0..80_000 {
            counts[rng.uniform_u64(8) as usize] += 1;
        }
        for c in counts {
            assert!((8_000..12_000).contains(&c), "bucket count {c} off uniform");
        }
    }

    #[test]
    fn uniform_range_full_span_does_not_overflow() {
        let mut rng = SimRng::seed(31);
        // Must not panic or loop: span + 1 would overflow u64.
        let _ = rng.uniform_range(0, u64::MAX);
        assert_eq!(rng.uniform_range(5, 5), 5);
    }

    #[test]
    fn exponential_mean_is_close() {
        let mut rng = SimRng::seed(11);
        let n = 20_000;
        let mean = 4.0;
        let sum: f64 = (0..n).map(|_| rng.exponential(mean)).sum();
        let empirical = sum / n as f64;
        assert!(
            (empirical - mean).abs() < 0.15,
            "empirical mean {empirical} too far from {mean}"
        );
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::seed(3);
        assert!((0..100).all(|_| rng.chance(1.0)));
        assert!((0..100).all(|_| !rng.chance(0.0)));
        // Out-of-range probabilities clamp rather than panic.
        assert!(rng.chance(2.0));
        assert!(!rng.chance(-1.0));
    }

    #[test]
    fn zipf_is_skewed_toward_low_indices() {
        let mut rng = SimRng::seed(5);
        let zipf = Zipf::new(10, 1.2);
        let mut counts = [0usize; 10];
        for _ in 0..10_000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[9] * 3, "zipf head should dominate tail");
    }

    /// The per-draw search `Zipf` replaces, kept verbatim as the reference
    /// it must reproduce.
    fn reference_zipf(rng: &mut SimRng, n: usize, s: f64) -> usize {
        assert!(n > 0, "zipf support must be non-empty");
        // Finite support: normalize sum_{k=1..n} k^-s and invert.
        // n is small (hundreds) in all our uses, so linear scan is fine.
        let norm: f64 = (1..=n).map(|k| (k as f64).powf(-s)).sum();
        let mut target = rng.uniform_f64() * norm;
        for k in 1..=n {
            target -= (k as f64).powf(-s);
            if target <= 0.0 {
                return k - 1;
            }
        }
        n - 1
    }

    /// Draws `draws` indices from both and asserts that each draw returns
    /// the same index and leaves the generator in the same state.
    fn assert_matches_reference(n: usize, s: f64, seed: u64, draws: usize) {
        let zipf = Zipf::new(n, s);
        let mut a = SimRng::seed(seed);
        let mut b = SimRng::seed(seed);
        for i in 0..draws {
            let want = reference_zipf(&mut a, n, s);
            assert_eq!(
                zipf.sample(&mut b),
                want,
                "n={n} s={s} seed={seed} draw {i}"
            );
            assert_eq!(a, b, "n={n} s={s} seed={seed}: state after draw {i}");
        }
        assert_eq!(a.uniform_f64().to_bits(), b.uniform_f64().to_bits());
    }

    #[test]
    fn zipf_matches_the_per_draw_search() {
        let mut params = SimRng::seed(0x21bf);
        for _ in 0..40 {
            let n = params.uniform_range(1, 6_000) as usize;
            let s = 0.3 + 2.7 * params.uniform_f64();
            let seed = params.uniform_u64(u64::MAX);
            assert_matches_reference(n, s, seed, 50);
        }
        // The suite's own supports and exponents, the largest included.
        for (n, s) in [(5_000, 1.1), (4_000, 1.1), (2_000, 1.1), (7, 2.0), (3, 1.5)] {
            assert_matches_reference(n, s, 1, 200);
        }
        assert_matches_reference(1, 1.2, 9, 20);
    }

    #[test]
    fn zipf_builds_its_table_at_the_first_draw() {
        let zipf = Zipf::new(5_000, 1.1);
        assert!(zipf.table.get().is_none(), "new must not build the table");
        zipf.sample(&mut SimRng::seed(1));
        assert_eq!(zipf.table.get().map(|(w, _)| w.len()), Some(5_000));
    }

    #[test]
    fn zipf_single_point_support_always_draws_zero() {
        let zipf = Zipf::new(1, 1.7);
        let mut rng = SimRng::seed(4);
        assert!((0..100).all(|_| zipf.sample(&mut rng) == 0));
        assert_eq!(zipf.len(), 1);
    }

    #[test]
    fn zipf_falls_through_to_the_last_index() {
        // From this state xoshiro256++ outputs u64::MAX, so the uniform is
        // the largest one, 1 - 2^-53. At n = 15, s = 1 rounding then leaves
        // the target positive after every weight is subtracted, and both
        // searches fall through to `n - 1`.
        let rng = SimRng {
            state: [0, 0, 0, u64::MAX],
        };
        let u = 1.0 - f64::EPSILON / 2.0;
        assert_eq!(rng.clone().uniform_f64(), u);
        let zipf = Zipf::new(15, 1.0);
        let (weights, total) = zipf.table();
        let remainder = weights.iter().fold(u * total, |t, w| t - w);
        assert!(
            remainder > 0.0,
            "remainder {remainder} should stay positive"
        );
        let (mut a, mut b) = (rng.clone(), rng);
        assert_eq!(reference_zipf(&mut a, 15, 1.0), 14);
        assert_eq!(zipf.sample(&mut b), 14);
        assert_eq!(a, b);
    }

    #[test]
    fn weighted_index_respects_weights() {
        let mut rng = SimRng::seed(13);
        let mut hits = [0usize; 3];
        for _ in 0..9_000 {
            hits[rng.weighted_index(&[0.0, 1.0, 2.0])] += 1;
        }
        assert_eq!(hits[0], 0);
        assert!(hits[2] > hits[1]);
    }

    #[test]
    fn normal_clamped_bounds() {
        let mut rng = SimRng::seed(17);
        for _ in 0..1_000 {
            let v = rng.normal_clamped(10.0, 100.0, 0.0, 20.0);
            assert!((0.0..=20.0).contains(&v));
        }
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = SimRng::seed(19);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }
}
