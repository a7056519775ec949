//! Container lifecycle: cold starts, warm pools, and the
//! initializer/handler process model.
//!
//! Each (node, function) pair owns a pool of containers. A container is
//! *cold* until it has been created (container creation + runtime setup,
//! the two large bars of Fig. 3); afterwards its initializer process stays
//! resident and the container is *warm*: subsequent invocations fork a
//! fresh handler process at negligible cost (§VI).
//!
//! Squash mechanisms interact with the pool differently:
//! * **process kill** — the handler dies (~1 ms) but the container stays
//!   warm and immediately reusable;
//! * **container kill** — the container is destroyed; the next invocation
//!   pays a full cold start;
//! * **lazy squash** — the handler keeps running to natural completion,
//!   holding its container (and core) hostage until then.
//!
//! Which idle containers *survive* is not the pool's decision: it asks
//! the installed [`KeepAliveChoice`] (kept at all? expired yet?) and
//! applies the answer lazily at acquire/release time, and it bounds each
//! function's idle stock by [`PER_FUNC_IDLE_CAP`]. Idle containers are
//! held newest-last with their release instants, so TTL expiry pops the
//! front and warm reuse pops the back — an expired container can never
//! be handed out, because staleness is checked before any warm handout.
//! The pool also tracks *warming* containers (creations begun ahead of
//! demand by seq-table prewarm, [`crate::policy::SeqTablePrewarm`]): an
//! acquisition that finds one in-flight pays only the remaining creation
//! time instead of a full cold start.
//!
//! A node's pool is dense: one record per function id in a `Vec`, grown
//! on demand, holding that function's idle and warming containers, its
//! busy count and its lifecycle counters.

use std::collections::VecDeque;

use specfaas_sim::{SimDuration, SimTime};
use specfaas_workflow::FuncId;

use crate::overheads::OverheadModel;
use crate::policy::{KeepAliveChoice, PER_FUNC_IDLE_CAP};

/// Result of asking the pool for a container.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ContainerAcquire {
    /// A warm container was available; the handler can fork immediately.
    Warm,
    /// No warm container: a new one must be created first, taking the
    /// returned duration (container creation + runtime setup — or the
    /// shorter remainder when a prewarm creation is already in flight).
    Cold(SimDuration),
}

/// Per-function container-lifecycle counters: how often this function
/// paid a cold start, was served warm, and had idle containers reclaimed
/// by the keep-alive policy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FuncContainerStats {
    /// Acquisitions that paid a (full or partial) cold start.
    pub cold: u64,
    /// Acquisitions served from the warm pool.
    pub warm: u64,
    /// Idle containers reclaimed by keep-alive (TTL expiry, cap
    /// pressure, or no-keep-alive teardown). Engine-driven destruction
    /// (container-kill squashes) is not counted here.
    pub evicted: u64,
}

/// One function's containers on one node.
#[derive(Debug, Clone, Default)]
struct FuncPool {
    /// Release instants of idle warm containers, ascending (front
    /// oldest).
    idle: VecDeque<SimTime>,
    /// Ready instants of containers being created ahead of demand,
    /// ascending.
    warming: VecDeque<SimTime>,
    /// Containers currently executing a handler.
    busy: u32,
    /// Lifecycle counters; the pool's totals are their sums.
    stats: FuncContainerStats,
}

/// The container pool of one node: one record per function id, holding
/// its idle and warming containers, busy count and lifecycle counters.
///
/// Containers consume memory, not execution slots — but how many idle
/// ones survive is the [`KeepAliveChoice`]'s call, and creation is never
/// free.
#[derive(Debug, Clone, Default)]
pub struct ContainerPool {
    /// Indexed by function id; functions past the end have no containers.
    funcs: Vec<FuncPool>,
    /// Sum of the idle queues' lengths, kept up to date at every site
    /// that changes a queue so the warm-pool gauge never walks the pool.
    idle_total: u64,
    prewarm_hits: u64,
}

impl ContainerPool {
    /// Creates an empty (fully cold) pool.
    pub fn new() -> Self {
        ContainerPool::default()
    }

    /// Creates a pool pre-warmed with `count` containers for each listed
    /// function — the paper's default warmed-up environment (§IV assumes
    /// start-up overheads have been removed by prior techniques). The
    /// stock is stamped idle-since-time-zero, so a TTL keep-alive decays
    /// it like any other idle container.
    pub fn prewarmed(funcs: impl IntoIterator<Item = FuncId>, count: u32) -> Self {
        let mut pool = ContainerPool::new();
        for f in funcs {
            pool.func_mut(f).idle = (0..count).map(|_| SimTime::ZERO).collect();
        }
        pool.idle_total = pool.funcs.iter().map(|p| p.idle.len() as u64).sum();
        pool
    }

    /// The record of `func`, growing the pool to reach it.
    fn func_mut(&mut self, func: FuncId) -> &mut FuncPool {
        let i = func.0 as usize;
        if i >= self.funcs.len() {
            self.funcs.resize_with(i + 1, FuncPool::default);
        }
        &mut self.funcs[i]
    }

    /// The record of `func`, if the pool has reached it.
    fn func(&self, func: FuncId) -> Option<&FuncPool> {
        self.funcs.get(func.0 as usize)
    }

    /// Moves warming containers whose creation finished by `now` into
    /// the idle set (idle since their ready instant). The per-function
    /// idle cap is enforced after a promotion so prewarm promotions can
    /// never grow the pool past it (warming is only ever populated by
    /// seq-table prewarm, so this is unreachable under the defaults).
    fn promote_ready(&mut self, func: FuncId, now: SimTime) {
        let p = self.func_mut(func);
        let mut promoted = 0;
        while p.warming.front().is_some_and(|ready| *ready <= now) {
            let ready = p.warming.pop_front().expect("checked front");
            // Promotions can interleave with ordinary releases, so keep
            // the queue sorted by idle-since instant.
            let at = p.idle.partition_point(|t| *t <= ready);
            p.idle.insert(at, ready);
            promoted += 1;
        }
        if promoted > 0 {
            self.idle_total += promoted;
            self.evict_over_cap(func);
        }
    }

    /// Reclaims the oldest idle containers of `func` beyond
    /// [`PER_FUNC_IDLE_CAP`].
    fn evict_over_cap(&mut self, func: FuncId) {
        let p = self.func_mut(func);
        let excess = p.idle.len().saturating_sub(PER_FUNC_IDLE_CAP as usize);
        p.idle.drain(..excess);
        p.stats.evicted += excess as u64;
        self.idle_total -= excess as u64;
    }

    /// Reclaims idle containers of `func` that expired by `now` (oldest
    /// first, so they form a prefix of the idle queue).
    fn expire(&mut self, func: FuncId, now: SimTime, policy: &KeepAliveChoice) {
        let p = self.func_mut(func);
        let mut expired = 0;
        while p
            .idle
            .front()
            .is_some_and(|&released| policy.expired(released, now))
        {
            p.idle.pop_front();
            expired += 1;
        }
        p.stats.evicted += expired;
        self.idle_total -= expired;
    }

    /// Acquires a container for `func` at `now`, preferring warm ones,
    /// then in-flight prewarm creations, then a fresh cold start. The
    /// keep-alive policy is consulted first so expired idle containers
    /// are reclaimed, never handed out.
    pub fn acquire(
        &mut self,
        func: FuncId,
        now: SimTime,
        model: &OverheadModel,
        policy: &KeepAliveChoice,
    ) -> ContainerAcquire {
        self.promote_ready(func, now);
        self.expire(func, now, policy);
        let p = self.func_mut(func);
        p.busy += 1;
        if p.idle.pop_back().is_some() {
            p.stats.warm += 1;
            self.idle_total -= 1;
            return ContainerAcquire::Warm;
        }
        p.stats.cold += 1;
        let warming = p.warming.pop_front();
        if let Some(ready) = warming {
            // A prewarm creation is already in flight: piggyback on it
            // and pay only the remaining creation time.
            self.prewarm_hits += 1;
            return ContainerAcquire::Cold(ready.saturating_since(now));
        }
        ContainerAcquire::Cold(model.cold_start())
    }

    /// Releases a container after its handler finished or was squashed.
    ///
    /// `reusable == true` (normal completion or process-kill squash)
    /// offers it back to the warm pool — the keep-alive policy decides
    /// whether it survives; `false` (container-kill squash) destroys it.
    ///
    /// # Panics
    /// Panics if no container for `func` is busy.
    pub fn release(
        &mut self,
        func: FuncId,
        now: SimTime,
        reusable: bool,
        policy: &KeepAliveChoice,
    ) {
        let p = self
            .funcs
            .get_mut(func.0 as usize)
            .filter(|p| p.busy > 0)
            .expect("release of a container that was never acquired");
        p.busy -= 1;
        if !reusable {
            return;
        }
        if !policy.keep_idle() {
            p.stats.evicted += 1;
            return;
        }
        p.idle.push_back(now);
        self.idle_total += 1;
        self.expire(func, now, policy);
        self.evict_over_cap(func);
    }

    /// Starts creating a container for `func` ahead of demand; it
    /// becomes idle (or serves a piggybacking acquisition) at `ready`.
    pub fn begin_warming(&mut self, func: FuncId, ready: SimTime) {
        let w = &mut self.func_mut(func).warming;
        let at = w.partition_point(|t| *t <= ready);
        w.insert(at, ready);
    }

    /// Warm idle containers currently available for `func`. Counts the
    /// raw idle set — TTL expiry is lazy, so recently-expired containers
    /// may still be counted until the next acquire/release touches them.
    pub fn idle_count(&self, func: FuncId) -> u32 {
        self.func(func).map_or(0, |p| p.idle.len() as u32)
    }

    /// Containers currently being created ahead of demand for `func`.
    pub fn warming_count(&self, func: FuncId) -> u32 {
        self.func(func).map_or(0, |p| p.warming.len() as u32)
    }

    /// Containers currently running handlers for `func`.
    pub fn busy_count(&self, func: FuncId) -> u32 {
        self.func(func).map_or(0, |p| p.busy)
    }

    /// Warm idle containers across every function — the node's warm-pool
    /// size gauge. O(1): a running total, checked against the per-function
    /// queues in debug builds.
    pub fn idle_total(&self) -> u64 {
        debug_assert_eq!(
            self.idle_total,
            self.funcs.iter().map(|p| p.idle.len() as u64).sum::<u64>(),
            "idle total drifted from the idle queues"
        );
        self.idle_total
    }

    /// Total cold starts served (including prewarm piggybacks).
    pub fn cold_starts(&self) -> u64 {
        self.funcs.iter().map(|p| p.stats.cold).sum()
    }

    /// Total warm starts served.
    pub fn warm_starts(&self) -> u64 {
        self.funcs.iter().map(|p| p.stats.warm).sum()
    }

    /// Idle containers reclaimed by the keep-alive policy.
    pub fn evictions(&self) -> u64 {
        self.funcs.iter().map(|p| p.stats.evicted).sum()
    }

    /// Acquisitions that piggybacked on an in-flight prewarm creation.
    pub fn prewarm_hits(&self) -> u64 {
        self.prewarm_hits
    }

    /// Lifecycle counters for one function.
    pub fn func_stats(&self, func: FuncId) -> FuncContainerStats {
        self.func(func)
            .map_or_else(FuncContainerStats::default, |p| p.stats)
    }

    /// Lifecycle counters of every function this pool ever served, in
    /// function-id order.
    pub fn per_func_stats(&self) -> impl Iterator<Item = (FuncId, FuncContainerStats)> + '_ {
        self.funcs
            .iter()
            .enumerate()
            .filter(|(_, p)| p.stats != FuncContainerStats::default())
            .map(|(i, p)| (FuncId(i as u32), p.stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> OverheadModel {
        OverheadModel::default()
    }

    const KA: KeepAliveChoice = KeepAliveChoice::Default;

    #[test]
    fn cold_then_warm() {
        let mut p = ContainerPool::new();
        let f = FuncId(0);
        match p.acquire(f, SimTime::ZERO, &model(), &KA) {
            ContainerAcquire::Cold(d) => assert_eq!(d, model().cold_start()),
            other => panic!("expected cold, got {other:?}"),
        }
        p.release(f, SimTime::from_millis(5), true, &KA);
        assert_eq!(
            p.acquire(f, SimTime::from_millis(6), &model(), &KA),
            ContainerAcquire::Warm
        );
        assert_eq!(p.cold_starts(), 1);
        assert_eq!(p.warm_starts(), 1);
        assert_eq!(
            p.func_stats(f),
            FuncContainerStats {
                cold: 1,
                warm: 1,
                evicted: 0
            }
        );
    }

    #[test]
    fn prewarmed_pool_skips_cold_start() {
        let f = FuncId(3);
        let mut p = ContainerPool::prewarmed([f], 2);
        let t = SimTime::ZERO;
        assert_eq!(p.acquire(f, t, &model(), &KA), ContainerAcquire::Warm);
        assert_eq!(p.acquire(f, t, &model(), &KA), ContainerAcquire::Warm);
        assert!(matches!(
            p.acquire(f, t, &model(), &KA),
            ContainerAcquire::Cold(_)
        ));
    }

    #[test]
    fn container_kill_destroys() {
        let f = FuncId(0);
        let mut p = ContainerPool::prewarmed([f], 1);
        p.acquire(f, SimTime::ZERO, &model(), &KA);
        p.release(f, SimTime::from_millis(1), false, &KA); // container-kill squash
        assert!(matches!(
            p.acquire(f, SimTime::from_millis(2), &model(), &KA),
            ContainerAcquire::Cold(_)
        ));
        assert_eq!(
            p.evictions(),
            0,
            "squash destruction is not a policy eviction"
        );
    }

    #[test]
    fn per_function_isolation() {
        let mut p = ContainerPool::prewarmed([FuncId(0)], 1);
        assert!(matches!(
            p.acquire(FuncId(1), SimTime::ZERO, &model(), &KA),
            ContainerAcquire::Cold(_)
        ));
        assert_eq!(p.idle_count(FuncId(0)), 1);
        assert_eq!(p.busy_count(FuncId(1)), 1);
    }

    #[test]
    #[should_panic(expected = "never acquired")]
    fn release_without_acquire_panics() {
        let mut p = ContainerPool::new();
        p.release(FuncId(0), SimTime::ZERO, true, &KA);
    }

    #[test]
    fn default_policy_bounds_idle_growth() {
        // Regression test: the pre-policy pool had no eviction at all, so
        // idle_total grew monotonically. Under the default keep-alive the
        // pool still caps idle containers per function.
        let f = FuncId(0);
        let mut p = ContainerPool::new();
        let churn = PER_FUNC_IDLE_CAP + 100;
        for i in 0..churn {
            // Burst of cold starts...
            p.acquire(f, SimTime::from_millis(u64::from(i)), &model(), &KA);
        }
        for i in 0..churn {
            // ...all released back: only the cap survives.
            p.release(f, SimTime::from_millis(u64::from(churn + i)), true, &KA);
        }
        assert_eq!(p.idle_total(), u64::from(PER_FUNC_IDLE_CAP));
        assert_eq!(p.evictions(), 100);
        assert_eq!(p.func_stats(f).evicted, 100);
    }

    #[test]
    fn ttl_expires_idle_containers() {
        let ka = KeepAliveChoice::FixedTtl(SimDuration::from_millis(10));
        let f = FuncId(0);
        let mut p = ContainerPool::prewarmed([f], 2);
        // Within TTL: warm.
        assert_eq!(
            p.acquire(f, SimTime::from_millis(9), &model(), &ka),
            ContainerAcquire::Warm
        );
        // Past TTL: the remaining prewarmed container expired.
        assert!(matches!(
            p.acquire(f, SimTime::from_millis(10), &model(), &ka),
            ContainerAcquire::Cold(_)
        ));
        assert_eq!(p.evictions(), 1);
    }

    #[test]
    fn no_keepalive_destroys_on_release() {
        let ka = KeepAliveChoice::Disabled;
        let f = FuncId(0);
        let mut p = ContainerPool::new();
        p.acquire(f, SimTime::ZERO, &model(), &ka);
        p.release(f, SimTime::from_millis(1), true, &ka);
        assert_eq!(p.idle_total(), 0);
        assert_eq!(p.evictions(), 1);
        assert!(matches!(
            p.acquire(f, SimTime::from_millis(2), &model(), &ka),
            ContainerAcquire::Cold(_)
        ));
    }

    #[test]
    fn warming_serves_partial_cold_start() {
        let f = FuncId(0);
        let mut p = ContainerPool::new();
        let full = model().cold_start();
        p.begin_warming(f, SimTime::ZERO + full);
        // Acquire midway through the prewarm creation: pay the rest.
        let mid = SimTime::ZERO + SimDuration::from_micros(full.as_micros() / 2);
        match p.acquire(f, mid, &model(), &KA) {
            ContainerAcquire::Cold(d) => {
                assert!(d < full, "piggyback must be cheaper than a full cold start");
                assert_eq!(d, (SimTime::ZERO + full).saturating_since(mid));
            }
            other => panic!("expected partial cold, got {other:?}"),
        }
        assert_eq!(p.prewarm_hits(), 1);
    }

    #[test]
    fn warming_promotes_to_idle_when_ready() {
        let f = FuncId(0);
        let mut p = ContainerPool::new();
        p.begin_warming(f, SimTime::from_millis(5));
        assert_eq!(p.warming_count(f), 1);
        // After the creation finished, the container serves warm.
        assert_eq!(
            p.acquire(f, SimTime::from_millis(6), &model(), &KA),
            ContainerAcquire::Warm
        );
        assert_eq!(p.warming_count(f), 0);
        assert_eq!(p.warm_starts(), 1);
    }
}
