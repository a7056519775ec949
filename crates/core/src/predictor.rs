//! The software branch predictor (paper §V-A).
//!
//! Each branch point (a `when`/`while` condition in an explicit workflow,
//! or a "does function f call function g?" decision in an implicit
//! workflow) gets a predictor entry. Because the paper finds that the path
//! of functions executed from the start of the application typically
//! determines the branch outcome, each entry holds one sub-entry per
//! observed *path history* reaching the branch.
//!
//! A sub-entry stores taken/not-taken counts; the predictor speculates
//! only when the empirical probability is confidently away from 50 %
//! (§VI, "Configurability"). A forced-accuracy oracle mode reproduces the
//! controlled sweep of Fig. 14.

use specfaas_sim::hash::FxHashMap;
use specfaas_sim::stats::HitRate;
use specfaas_sim::SimRng;

/// A compact encoding of "the sequence of functions executed so far" —
/// the path history that keys predictor sub-entries.
///
/// Implemented as an order-sensitive 64-bit rolling hash: `extend` is
/// cheap and two different prefixes collide with negligible probability
/// at application scale (tens of functions).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct PathHistory(u64);

impl PathHistory {
    /// The empty path (application entry).
    pub fn start() -> Self {
        PathHistory(0xcbf2_9ce4_8422_2325)
    }

    /// Returns the path extended by one executed function.
    #[must_use]
    pub fn extend(self, func: u32) -> PathHistory {
        let mut h = self.0 ^ u64::from(func).wrapping_add(0x9e37_79b9_7f4a_7c15);
        h = h.wrapping_mul(0x100_0000_01b3);
        h ^= h >> 29;
        PathHistory(h)
    }
}

/// A branch-point identifier: an explicit workflow entry index, or an
/// implicit (caller, call-site) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BranchSite {
    /// Branch at a compiled-workflow entry.
    Entry(usize),
    /// "Does `caller` invoke its `site`-th learned callee?" decision.
    Call {
        /// Caller function id.
        caller: u32,
        /// Call-site index within the caller's learned callee list.
        site: usize,
    },
}

/// The outcome of consulting the predictor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Prediction {
    /// Speculate down the taken path.
    Taken,
    /// Speculate down the not-taken path.
    NotTaken,
    /// Do not speculate (no history, or probability too close to 50 %).
    NoSpeculation,
}

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Counts {
    taken: u64,
    not_taken: u64,
}

impl Counts {
    fn total(&self) -> u64 {
        self.taken + self.not_taken
    }
    fn p_taken(&self) -> f64 {
        if self.total() == 0 {
            0.5
        } else {
            self.taken as f64 / self.total() as f64
        }
    }
}

/// The per-application branch predictor table.
///
/// # Example
///
/// ```
/// use specfaas_core::predictor::{BranchPredictor, BranchSite, PathHistory, Prediction};
///
/// let mut bp = BranchPredictor::new(0.10);
/// let site = BranchSite::Entry(2);
/// let path = PathHistory::start().extend(0).extend(1);
/// assert_eq!(bp.predict(site, path, None), Prediction::NoSpeculation);
/// for _ in 0..10 {
///     bp.update(site, path, true);
/// }
/// assert_eq!(bp.predict(site, path, None), Prediction::Taken);
/// ```
#[derive(Debug, Clone, Default)]
pub struct BranchPredictor {
    entries: FxHashMap<(BranchSite, PathHistory), Counts>,
    /// Per-site sum over all path sub-entries, maintained incrementally by
    /// `update` so the unseen-path fallback in `predict` is O(1) instead
    /// of a scan over the whole entry table.
    site_totals: FxHashMap<BranchSite, Counts>,
    confidence_window: f64,
    accuracy: HitRate,
}

impl BranchPredictor {
    /// Creates a predictor with the given no-speculate half-window around
    /// 50 % (§VI).
    ///
    /// # Panics
    /// Panics if `confidence_window` is not in `[0, 0.5)`.
    pub fn new(confidence_window: f64) -> Self {
        assert!(
            (0.0..0.5).contains(&confidence_window),
            "window must be in [0, 0.5)"
        );
        BranchPredictor {
            entries: FxHashMap::default(),
            site_totals: FxHashMap::default(),
            confidence_window,
            accuracy: HitRate::new(),
        }
    }

    /// Consults the predictor for a branch at `site` reached via `path`.
    ///
    /// When `oracle` is supplied (forced-accuracy mode, Fig. 14), it is
    /// `(actual_outcome, accuracy, rng)` — the prediction equals the
    /// actual outcome with probability `accuracy`, bypassing the learned
    /// counts entirely.
    pub fn predict(
        &self,
        site: BranchSite,
        path: PathHistory,
        oracle: Option<(bool, f64, &mut SimRng)>,
    ) -> Prediction {
        if let Some((actual, acc, rng)) = oracle {
            let correct = rng.chance(acc);
            let predicted = if correct { actual } else { !actual };
            return if predicted {
                Prediction::Taken
            } else {
                Prediction::NotTaken
            };
        }
        // Prefer the path-specific sub-entry; fall back to the cached
        // per-site aggregate (first visits via a new path).
        let counts = self.entries.get(&(site, path)).copied().or_else(|| {
            self.site_totals
                .get(&site)
                .copied()
                .filter(|agg| agg.total() > 0)
        });
        match counts {
            None => Prediction::NoSpeculation,
            Some(c) => {
                let p = c.p_taken();
                if (p - 0.5).abs() <= self.confidence_window {
                    Prediction::NoSpeculation
                } else if p > 0.5 {
                    Prediction::Taken
                } else {
                    Prediction::NotTaken
                }
            }
        }
    }

    /// Records a resolved branch outcome. Only ever called with
    /// *committed* (non-speculative) outcomes (§V-E).
    pub fn update(&mut self, site: BranchSite, path: PathHistory, taken: bool) {
        let c = self.entries.entry((site, path)).or_default();
        let agg = self.site_totals.entry(site).or_default();
        if taken {
            c.taken += 1;
            agg.taken += 1;
        } else {
            c.not_taken += 1;
            agg.not_taken += 1;
        }
    }

    /// Records whether a speculated prediction turned out correct, for the
    /// hit-rate statistics reported in §VIII-B.
    pub fn record_outcome(&mut self, correct: bool) {
        self.accuracy.record(correct);
    }

    /// Prediction accuracy over speculated branches.
    pub fn hit_rate(&self) -> HitRate {
        self.accuracy
    }

    /// Number of (site, path) sub-entries stored.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the predictor holds no (site, path) sub-entries. Because
    /// sub-entries are only created by [`BranchPredictor::update`], which
    /// records exactly one outcome, this is equivalent to "no outcomes
    /// were ever recorded via `update`" — oracle-mode predictions and
    /// [`BranchPredictor::record_outcome`] accuracy samples do not count.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    #[cfg(test)]
    fn recomputed_site_aggregate(&self, site: BranchSite) -> Counts {
        let mut agg = Counts::default();
        for ((s, _), c) in &self.entries {
            if *s == site {
                agg.taken += c.taken;
                agg.not_taken += c.not_taken;
            }
        }
        agg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn site() -> BranchSite {
        BranchSite::Entry(1)
    }

    #[test]
    fn cold_predictor_abstains() {
        let bp = BranchPredictor::new(0.1);
        assert_eq!(
            bp.predict(site(), PathHistory::start(), None),
            Prediction::NoSpeculation
        );
    }

    #[test]
    fn learns_biased_branch() {
        let mut bp = BranchPredictor::new(0.1);
        let p = PathHistory::start();
        for i in 0..20 {
            bp.update(site(), p, i % 10 != 0); // 90% taken
        }
        assert_eq!(bp.predict(site(), p, None), Prediction::Taken);
    }

    #[test]
    fn near_50_percent_abstains() {
        let mut bp = BranchPredictor::new(0.1);
        let p = PathHistory::start();
        for i in 0..20 {
            bp.update(site(), p, i % 2 == 0); // 50%
        }
        assert_eq!(bp.predict(site(), p, None), Prediction::NoSpeculation);
    }

    #[test]
    fn path_sensitivity() {
        // Same branch, two paths with opposite biases (the f0/f1 vs f0'/f1'
        // example of §V-A).
        let mut bp = BranchPredictor::new(0.1);
        let p1 = PathHistory::start().extend(0).extend(1);
        let p2 = PathHistory::start().extend(0).extend(9);
        for _ in 0..10 {
            bp.update(site(), p1, true);
            bp.update(site(), p2, false);
        }
        assert_eq!(bp.predict(site(), p1, None), Prediction::Taken);
        assert_eq!(bp.predict(site(), p2, None), Prediction::NotTaken);
    }

    #[test]
    fn unseen_path_falls_back_to_aggregate() {
        let mut bp = BranchPredictor::new(0.1);
        let seen = PathHistory::start().extend(3);
        for _ in 0..10 {
            bp.update(site(), seen, true);
        }
        let unseen = PathHistory::start().extend(4);
        assert_eq!(bp.predict(site(), unseen, None), Prediction::Taken);
    }

    /// The incrementally-maintained per-site aggregate must stay equal to
    /// a recomputation from scratch under interleaved updates across many
    /// sites and paths.
    #[test]
    fn cached_site_aggregate_matches_recomputation() {
        let mut bp = BranchPredictor::new(0.1);
        let sites = [
            BranchSite::Entry(0),
            BranchSite::Entry(1),
            BranchSite::Call { caller: 3, site: 0 },
        ];
        for i in 0..200u32 {
            let s = sites[(i % 3) as usize];
            let path = PathHistory::start().extend(i % 5);
            bp.update(s, path, i % 7 < 4);
            if i % 13 == 0 {
                // Interleave predictions; they must not disturb the cache.
                let _ = bp.predict(s, PathHistory::start().extend(99), None);
            }
        }
        for s in sites {
            assert_eq!(
                bp.site_totals.get(&s).copied().unwrap_or_default(),
                bp.recomputed_site_aggregate(s),
                "cached aggregate diverged for {s:?}"
            );
        }
    }

    #[test]
    fn oracle_mode_hits_requested_accuracy() {
        let bp = BranchPredictor::new(0.1);
        let mut rng = SimRng::seed(42);
        let n = 10_000;
        let mut correct = 0;
        for i in 0..n {
            let actual = i % 3 == 0;
            let pred = bp.predict(site(), PathHistory::start(), Some((actual, 0.9, &mut rng)));
            let predicted_taken = pred == Prediction::Taken;
            if predicted_taken == actual {
                correct += 1;
            }
        }
        let acc = correct as f64 / n as f64;
        assert!((acc - 0.9).abs() < 0.02, "oracle accuracy {acc}");
    }

    #[test]
    fn path_history_is_order_sensitive() {
        let a = PathHistory::start().extend(1).extend(2);
        let b = PathHistory::start().extend(2).extend(1);
        assert_ne!(a, b);
        assert_eq!(a, PathHistory::start().extend(1).extend(2));
    }

    #[test]
    fn call_sites_are_distinct() {
        let mut bp = BranchPredictor::new(0.1);
        let p = PathHistory::start();
        let s0 = BranchSite::Call { caller: 5, site: 0 };
        let s1 = BranchSite::Call { caller: 5, site: 1 };
        for _ in 0..10 {
            bp.update(s0, p, true);
            bp.update(s1, p, false);
        }
        assert_eq!(bp.predict(s0, p, None), Prediction::Taken);
        assert_eq!(bp.predict(s1, p, None), Prediction::NotTaken);
    }

    #[test]
    fn hit_rate_tracking() {
        let mut bp = BranchPredictor::new(0.1);
        bp.record_outcome(true);
        bp.record_outcome(true);
        bp.record_outcome(false);
        assert!((bp.hit_rate().rate() - 2.0 / 3.0).abs() < 1e-12);
    }
}
