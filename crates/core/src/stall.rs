//! Squash minimization: the stall list (paper §V-C, "Minimizing the
//! frequency of squashes").
//!
//! When the controller observes that a consumer function is repeatedly
//! squashed because it prematurely reads a record that a producer
//! function later updates, it remembers the (producer, consumer, record)
//! triple. From then on, when the consumer tries to read that record
//! while the producer is still in progress and has not yet written it,
//! the consumer's read *stalls* instead of proceeding optimistically —
//! eliminating the squash.

use specfaas_sim::hash::FxHashMap;
use specfaas_workflow::FuncId;

/// The remembered producer→consumer record dependences of one
/// application (shared across invocations, like the memoization tables).
///
/// # Example
///
/// ```
/// use specfaas_core::StallList;
/// use specfaas_workflow::FuncId;
///
/// let mut sl = StallList::new(2);
/// let (p, c) = (FuncId(0), FuncId(1));
/// assert!(!sl.should_stall(p, c, "seat"));
/// sl.record_squash(p, c, "seat");
/// sl.record_squash(p, c, "seat");
/// assert!(sl.should_stall(p, c, "seat"));
/// ```
#[derive(Debug, Clone, Default)]
pub struct StallList {
    squashes: FxHashMap<(FuncId, FuncId, String), u32>,
    threshold: u32,
    stalls_avoided: u64,
}

impl StallList {
    /// Creates a stall list that engages after `threshold` squashes of
    /// the same triple.
    pub fn new(threshold: u32) -> Self {
        StallList {
            squashes: FxHashMap::default(),
            threshold: threshold.max(1),
            stalls_avoided: 0,
        }
    }

    /// Records that `consumer` was squashed for prematurely reading
    /// `record` later written by `producer`.
    pub fn record_squash(&mut self, producer: FuncId, consumer: FuncId, record: &str) {
        *self
            .squashes
            .entry((producer, consumer, record.to_owned()))
            .or_insert(0) += 1;
    }

    /// True if reads of `record` by `consumer` should stall while
    /// `producer` is in progress.
    pub fn should_stall(&self, producer: FuncId, consumer: FuncId, record: &str) -> bool {
        self.squashes
            .get(&(producer, consumer, record.to_owned()))
            .map(|n| *n >= self.threshold)
            .unwrap_or(false)
    }

    /// Producers that `consumer` must watch for `record` (any producer
    /// over threshold).
    pub fn producers_for(&self, consumer: FuncId, record: &str) -> Vec<FuncId> {
        self.squashes
            .iter()
            .filter(|((_, c, r), n)| *c == consumer && r == record && **n >= self.threshold)
            .map(|((p, _, _), _)| *p)
            .collect()
    }

    /// Bumps the count of squashes avoided by stalling (statistics).
    pub fn record_stall(&mut self) {
        self.stalls_avoided += 1;
    }

    /// Number of stalls taken instead of squashes.
    pub fn stalls_avoided(&self) -> u64 {
        self.stalls_avoided
    }

    /// Number of remembered triples.
    pub fn len(&self) -> usize {
        self.squashes.len()
    }

    /// True if nothing has been remembered.
    pub fn is_empty(&self) -> bool {
        self.squashes.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engages_only_after_threshold() {
        let mut sl = StallList::new(3);
        let (p, c) = (FuncId(1), FuncId(2));
        sl.record_squash(p, c, "k");
        sl.record_squash(p, c, "k");
        assert!(!sl.should_stall(p, c, "k"));
        sl.record_squash(p, c, "k");
        assert!(sl.should_stall(p, c, "k"));
    }

    #[test]
    fn triples_are_independent() {
        let mut sl = StallList::new(1);
        sl.record_squash(FuncId(1), FuncId(2), "k");
        assert!(sl.should_stall(FuncId(1), FuncId(2), "k"));
        assert!(!sl.should_stall(FuncId(1), FuncId(2), "other"));
        assert!(!sl.should_stall(FuncId(3), FuncId(2), "k"));
        assert!(!sl.should_stall(FuncId(1), FuncId(4), "k"));
    }

    #[test]
    fn producers_for_lists_watchlist() {
        let mut sl = StallList::new(1);
        sl.record_squash(FuncId(1), FuncId(9), "k");
        sl.record_squash(FuncId(2), FuncId(9), "k");
        sl.record_squash(FuncId(3), FuncId(9), "other");
        let mut ps = sl.producers_for(FuncId(9), "k");
        ps.sort();
        assert_eq!(ps, vec![FuncId(1), FuncId(2)]);
    }

    #[test]
    fn zero_threshold_clamps_to_one() {
        let mut sl = StallList::new(0);
        sl.record_squash(FuncId(1), FuncId(2), "k");
        assert!(sl.should_stall(FuncId(1), FuncId(2), "k"));
    }

    #[test]
    fn stall_statistics() {
        let mut sl = StallList::new(1);
        sl.record_stall();
        sl.record_stall();
        assert_eq!(sl.stalls_avoided(), 2);
    }
}
