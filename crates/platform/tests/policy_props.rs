//! Randomized property tests for the platform policies
//! (DESIGN.md, "Platform policies").
//!
//! Two safety properties the policies must uphold under arbitrary
//! interleavings of acquisitions, releases and prewarm creations:
//!
//! * **TTL keep-alive never revives an evicted container.** An acquire
//!   is served warm if and only if an idle container exists whose TTL
//!   has not elapsed — checked against an independent reference model of
//!   the idle set over thousands of random schedules.
//! * **Prewarm never exceeds pool capacity.** However many creations a
//!   prewarm policy starts, the idle stock never exceeds the pool's bound
//!   — [`PER_FUNC_IDLE_CAP`] per function on the single-node
//!   [`ContainerPool`], and the capacity pool-wide on the fleet's
//!   [`WarmPool`]. The node-pool schedules start from a stock just below
//!   the cap, so they hit it constantly.
//!
//! A third test pins the fleet [`WarmPool`]'s observable behaviour to a
//! hash-map-and-B-tree reference implementation, operation by operation.

use std::collections::BTreeSet;

use specfaas_platform::policy::PER_FUNC_IDLE_CAP;
use specfaas_platform::{ContainerAcquire, ContainerPool, KeepAliveChoice, WarmPool};
use specfaas_sim::{FxHashMap, SimDuration, SimRng, SimTime};
use specfaas_workflow::FuncId;

/// TTL keep-alive against a reference model: the pool's warm/cold
/// decision must match "some idle container's TTL has not elapsed", and
/// a warm hand-out must consume the newest such container (LIFO) — so an
/// expired (evicted) container can never be revived.
#[test]
fn ttl_keepalive_never_revives_an_evicted_container() {
    let ttl = SimDuration::from_millis(50);
    let policy = KeepAliveChoice::FixedTtl(ttl);
    let model = specfaas_platform::OverheadModel::default();
    const FUNCS: u32 = 4;

    for seed in 0..20u64 {
        let mut rng = SimRng::seed(0x77_1000 + seed);
        let mut pool = ContainerPool::new();
        // Reference: per function, the release instants of idle
        // containers (ascending) and how many are busy.
        let mut ref_idle: Vec<Vec<SimTime>> = vec![Vec::new(); FUNCS as usize];
        let mut busy: Vec<u32> = vec![0; FUNCS as usize];
        let mut now = SimTime::ZERO;

        for _ in 0..2_000 {
            now += SimDuration::from_micros(rng.uniform_u64(40_000));
            let f = rng.uniform_u64(FUNCS as u64) as usize;
            let func = FuncId(f as u32);
            if busy[f] > 0 && rng.uniform_u64(2) == 0 {
                pool.release(func, now, true, &policy);
                busy[f] -= 1;
                ref_idle[f].push(now);
                // Release also settles lazy expiry for this function.
                ref_idle[f].retain(|released| *released + ttl > now);
            } else {
                // Reference expiry: drop every container whose TTL
                // elapsed. They are gone for good — the pool must agree.
                ref_idle[f].retain(|released| *released + ttl > now);
                let expect_warm = !ref_idle[f].is_empty();
                if expect_warm {
                    // LIFO: the newest idle container is handed out.
                    ref_idle[f].pop();
                }
                let got = pool.acquire(func, now, &model, &policy);
                busy[f] += 1;
                match (expect_warm, got) {
                    (true, ContainerAcquire::Warm) => {}
                    (false, ContainerAcquire::Cold(_)) => {}
                    (want, got) => panic!(
                        "seed {seed}: at {now:?} func {f} expected warm={want}, got {got:?} \
                         (an expired container must never be revived)"
                    ),
                }
            }
            // The op above touched `func`, so its lazy expiry is now
            // settled: the pool's idle set must equal the reference's.
            assert_eq!(
                pool.idle_count(func) as usize,
                ref_idle[f].len(),
                "seed {seed}: idle set diverged from the reference model at {now:?}"
            );
        }
    }
}

/// Single-node pool: however many prewarm creations are issued, the
/// idle stock per function never exceeds [`PER_FUNC_IDLE_CAP`] —
/// including at promote time, when several warming containers become
/// idle at once. Each function starts two containers below the cap, and
/// every schedule must reach it (under the default keep-alive every
/// eviction is a cap eviction).
#[test]
fn prewarm_never_exceeds_per_function_cap() {
    let policy = KeepAliveChoice::Default;
    let model = specfaas_platform::OverheadModel::default();
    const FUNCS: u32 = 3;

    for seed in 0..20u64 {
        let mut rng = SimRng::seed(0x99_2000 + seed);
        let mut pool = ContainerPool::prewarmed((0..FUNCS).map(FuncId), PER_FUNC_IDLE_CAP - 2);
        let mut busy: Vec<u32> = vec![0; FUNCS as usize];
        let mut now = SimTime::ZERO;

        for _ in 0..2_000 {
            now += SimDuration::from_micros(rng.uniform_u64(200_000));
            let f = rng.uniform_u64(FUNCS as u64) as usize;
            let func = FuncId(f as u32);
            match rng.uniform_u64(3) {
                // Aggressive prewarmer: issue creations regardless of
                // demand.
                0 => pool.begin_warming(func, now + model.cold_start()),
                1 if busy[f] > 0 => {
                    pool.release(func, now, true, &policy);
                    busy[f] -= 1;
                }
                _ => {
                    pool.acquire(func, now, &model, &policy);
                    busy[f] += 1;
                }
            }
            for g in 0..FUNCS {
                assert!(
                    pool.idle_count(FuncId(g)) <= PER_FUNC_IDLE_CAP,
                    "seed {seed}: func {g} idle {} exceeds cap {PER_FUNC_IDLE_CAP} at {now:?}",
                    pool.idle_count(FuncId(g)),
                );
            }
        }
        assert!(
            pool.evictions() > 0,
            "seed {seed}: the schedule never reached the cap"
        );
    }
}

/// Single-node pool: the running idle total behind the warm-pool gauge
/// equals the sum of the per-function idle counts after every operation
/// of random acquire/release/prewarm schedules, under each keep-alive
/// policy (never expire, TTL expiry, no keep-alive), on both empty and
/// prewarmed pools, and on pools stocked just below
/// [`PER_FUNC_IDLE_CAP`], whose schedules must reach the cap.
#[test]
fn idle_total_matches_per_function_idle_counts() {
    let model = specfaas_platform::OverheadModel::default();
    const FUNCS: u32 = 4;
    // (name, keep-alive, stock on every seed; `None` alternates an empty
    // pool with a stock of 3).
    let inputs: [(&str, KeepAliveChoice, Option<u32>); 4] = [
        ("default", KeepAliveChoice::Default, None),
        (
            "ttl:20ms",
            KeepAliveChoice::FixedTtl(SimDuration::from_millis(20)),
            None,
        ),
        ("none", KeepAliveChoice::Disabled, None),
        (
            "default near the cap",
            KeepAliveChoice::Default,
            Some(PER_FUNC_IDLE_CAP - 1),
        ),
    ];
    for (p, (name, policy, stock)) in inputs.into_iter().enumerate() {
        for seed in 0..10u64 {
            let mut rng = SimRng::seed(0x1D_7000 + 100 * p as u64 + seed);
            let mut pool = match stock {
                Some(n) => ContainerPool::prewarmed((0..FUNCS).map(FuncId), n),
                None if seed % 2 == 0 => ContainerPool::new(),
                None => ContainerPool::prewarmed((0..FUNCS).map(FuncId), 3),
            };
            let mut busy: Vec<u32> = vec![0; FUNCS as usize];
            let mut now = SimTime::ZERO;
            for op in 0..1_500 {
                now += SimDuration::from_micros(rng.uniform_u64(15_000));
                let f = rng.uniform_u64(FUNCS as u64) as usize;
                let func = FuncId(f as u32);
                match rng.uniform_u64(4) {
                    0 => pool.begin_warming(func, now + model.cold_start() / 4),
                    1 | 2 if busy[f] > 0 => {
                        pool.release(func, now, rng.uniform_u64(8) != 0, &policy);
                        busy[f] -= 1;
                    }
                    _ => {
                        pool.acquire(func, now, &model, &policy);
                        busy[f] += 1;
                    }
                }
                let sum: u64 = (0..FUNCS)
                    .map(|g| u64::from(pool.idle_count(FuncId(g))))
                    .sum();
                assert_eq!(
                    pool.idle_total(),
                    sum,
                    "{name}: seed {seed} op {op}: idle total drifted at {now:?}"
                );
            }
            if stock.is_some() {
                assert!(
                    pool.evictions() > 0,
                    "{name}: seed {seed}: the schedule never reached the cap"
                );
            }
        }
    }
}

/// Fleet pool: random acquire/release interleavings (prewarmed
/// containers also land via `release`) never grow the shared idle stock
/// past the pool capacity.
#[test]
fn fleet_warm_pool_never_exceeds_capacity() {
    const CAPACITY: u32 = 8;
    const GFUNCS: u64 = 16;
    let policy = KeepAliveChoice::Default;

    for seed in 0..20u64 {
        let mut rng = SimRng::seed(0xAB_3000 + seed);
        let mut pool = WarmPool::new(CAPACITY);
        let mut now = SimTime::ZERO;
        for _ in 0..3_000 {
            now += SimDuration::from_micros(rng.uniform_u64(100_000));
            let g = rng.uniform_u64(GFUNCS) as u32;
            if rng.uniform_u64(2) == 0 {
                pool.acquire(g, now, &policy);
            } else {
                pool.release(g, now, &policy);
            }
            assert!(
                pool.idle_total() <= CAPACITY,
                "seed {seed}: idle {} exceeds capacity {CAPACITY} at {now:?}",
                pool.idle_total()
            );
        }
    }
}

/// Reference model of the fleet warm pool: per-function entries in a
/// hash map, eviction order in a B-tree of `(recency, function)` keys.
/// [`WarmPool`] keeps the same state in function-indexed slots with an
/// intrusive LRU list and must match this model operation by operation.
struct HashedPool {
    capacity: u32,
    total_idle: u32,
    /// function → (idle count, recency key, last release instant).
    idle: FxHashMap<u32, (u32, u64, SimTime)>,
    /// (recency key, function), oldest first.
    lru: BTreeSet<(u64, u32)>,
    seq: u64,
    cold_starts: u64,
    warm_starts: u64,
    evictions: u64,
}

impl HashedPool {
    fn new(capacity: u32) -> HashedPool {
        HashedPool {
            capacity: capacity.max(1),
            total_idle: 0,
            idle: FxHashMap::default(),
            lru: BTreeSet::new(),
            seq: 0,
            cold_starts: 0,
            warm_starts: 0,
            evictions: 0,
        }
    }

    fn expire_entry(&mut self, g: u32) {
        if let Some((count, key, _)) = self.idle.remove(&g) {
            self.lru.remove(&(key, g));
            self.total_idle -= count;
            self.evictions += u64::from(count);
        }
    }

    fn acquire(&mut self, g: u32, now: SimTime, policy: &KeepAliveChoice) -> bool {
        if let KeepAliveChoice::FixedTtl(ttl) = *policy {
            if self
                .idle
                .get(&g)
                .is_some_and(|&(_, _, released)| released + ttl <= now)
            {
                self.expire_entry(g);
            }
        }
        if let Some(entry) = self.idle.get_mut(&g) {
            entry.0 -= 1;
            self.total_idle -= 1;
            if entry.0 == 0 {
                let key = entry.1;
                self.idle.remove(&g);
                self.lru.remove(&(key, g));
            }
            self.warm_starts += 1;
            true
        } else {
            self.cold_starts += 1;
            false
        }
    }

    fn release(&mut self, g: u32, now: SimTime, policy: &KeepAliveChoice) {
        if *policy == KeepAliveChoice::Disabled {
            self.evictions += 1;
            return;
        }
        self.seq += 1;
        let key = self.seq;
        match self.idle.get_mut(&g) {
            Some(entry) => {
                self.lru.remove(&(entry.1, g));
                entry.0 += 1;
                entry.1 = key;
                entry.2 = now;
            }
            None => {
                self.idle.insert(g, (1, key, now));
            }
        }
        self.lru.insert((key, g));
        self.total_idle += 1;
        if let KeepAliveChoice::FixedTtl(ttl) = *policy {
            while let Some(&(_, victim)) = self.lru.iter().next() {
                if self.idle[&victim].2 + ttl <= now {
                    self.expire_entry(victim);
                } else {
                    break;
                }
            }
        }
        while self.total_idle > self.capacity {
            let &(vkey, victim) = self.lru.iter().next().expect("idle pool non-empty");
            let entry = self.idle.get_mut(&victim).expect("lru entry tracked");
            entry.0 -= 1;
            self.total_idle -= 1;
            self.evictions += 1;
            if entry.0 == 0 {
                self.idle.remove(&victim);
                self.lru.remove(&(vkey, victim));
            }
        }
    }

    fn mem_bytes(&self) -> u64 {
        (self.idle.len() * 24 + self.lru.len() * 32) as u64
    }
}

/// Everything a caller can observe of a pool: the counters, the idle
/// totals, the model footprint, and the idle count of each id in `ids`.
type PoolView = (u64, u64, u64, u32, u64, Vec<u32>);

fn view_dense(p: &WarmPool, ids: &[u32]) -> PoolView {
    (
        p.cold_starts,
        p.warm_starts,
        p.evictions,
        p.idle_total(),
        p.mem_bytes(),
        ids.iter().map(|&g| p.idle_count(g)).collect(),
    )
}

fn view_hashed(p: &HashedPool, ids: &[u32]) -> PoolView {
    (
        p.cold_starts,
        p.warm_starts,
        p.evictions,
        p.total_idle,
        p.mem_bytes(),
        ids.iter()
            .map(|g| p.idle.get(g).map_or(0, |e| e.0))
            .collect(),
    )
}

/// The dense fleet pool is observably identical to the hashed reference
/// after every operation of random acquire/release schedules: same warm
/// or cold answer, counters, idle totals, per-function idle counts and
/// model footprint. Function ids are sparse and keep growing (so slots
/// grow mid-run, across gaps), capacities are tight (so eviction order
/// matters on most releases), and time often stands still (so TTL 0 and
/// same-instant expiry boundaries are hit).
#[test]
fn dense_warm_pool_matches_hashed_reference() {
    let policies: [(&str, KeepAliveChoice); 4] = [
        ("default", KeepAliveChoice::Default),
        ("ttl:0", KeepAliveChoice::FixedTtl(SimDuration::ZERO)),
        (
            "ttl:20ms",
            KeepAliveChoice::FixedTtl(SimDuration::from_millis(20)),
        ),
        ("none", KeepAliveChoice::Disabled),
    ];
    for (name, policy) in policies {
        for capacity in [1u32, 2, 3, 7] {
            for seed in 0..6u64 {
                let mut rng = SimRng::seed(0xDE_4000 + seed * 16 + u64::from(capacity));
                let mut dense = WarmPool::new(capacity);
                let mut reference = HashedPool::new(capacity);
                // Ids seen so far, ascending, starting past 0.
                let mut ids: Vec<u32> = vec![1 + rng.uniform_u64(1_000) as u32];
                let mut now = SimTime::ZERO;
                for step in 0..1_000 {
                    if rng.uniform_u64(16) == 0 {
                        let last = *ids.last().expect("ids non-empty");
                        ids.push(last + 1 + rng.uniform_u64(300) as u32);
                    }
                    // Half the picks favour the newest few ids, so
                    // functions recur while they are still pooled.
                    let g = if rng.uniform_u64(2) == 0 {
                        ids[ids.len() - 1 - rng.uniform_u64(ids.len().min(4) as u64) as usize]
                    } else {
                        ids[rng.uniform_u64(ids.len() as u64) as usize]
                    };
                    now += SimDuration::from_millis(5 * rng.uniform_u64(4));
                    let ctx =
                        format!("{name} capacity {capacity} seed {seed} step {step} gfunc {g}");
                    if rng.uniform_u64(2) == 0 {
                        assert_eq!(
                            dense.acquire(g, now, &policy),
                            reference.acquire(g, now, &policy),
                            "acquire diverged: {ctx}"
                        );
                    } else {
                        dense.release(g, now, &policy);
                        reference.release(g, now, &policy);
                    }
                    // One id past the largest seen: never touched, so idle 0.
                    let mut probe = ids.clone();
                    probe.push(ids[ids.len() - 1] + 1);
                    assert_eq!(
                        view_dense(&dense, &probe),
                        view_hashed(&reference, &probe),
                        "pool state diverged: {ctx}"
                    );
                }
            }
        }
    }
}
