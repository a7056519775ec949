//! The event queue at the heart of the simulator — a hierarchical
//! calendar-bucket queue.
//!
//! Events are ordered by simulated time with FIFO tie-breaking (insertion
//! order), which keeps runs fully deterministic: the serverless platform
//! built on top relies on stable ordering so that, e.g., a function-complete
//! event scheduled before a request-arrival event at the same instant is
//! always delivered first.
//!
//! # Layout
//!
//! A binary heap pays `O(log n)` pointer-chasing per operation, which showed
//! up as a 5× per-op slowdown between 1k and 100k pending events. The queue
//! is therefore split into two tiers keyed by distance from the clock:
//!
//! * **Near-future wheel** — a ring of `NUM_BUCKETS` buckets, each covering
//!   `1 << shift` microseconds. An event at absolute bucket
//!   `b = at >> shift` lands in cell `b & (NUM_BUCKETS - 1)` as long as it
//!   is within the wheel horizon (`NUM_BUCKETS` buckets past the clock).
//!   Insertion is an `O(1)` push onto an unsorted bucket; a bucket is
//!   sorted once, lazily, when the clock reaches it (the *current* bucket),
//!   after which it is drained from the back. A two-level occupancy bitmap
//!   (one bit per cell) finds the next non-empty cell in a handful of word
//!   operations, so sparse wheels never pay a linear cell scan.
//! * **Far-future overflow heap** — events beyond the horizon go to a
//!   plain binary heap of 24-byte keys. They are few (long keep-alive
//!   timers, watchdogs), and are popped directly from the heap when they
//!   become the global minimum; no migration pass is needed for
//!   correctness.
//!
//! Payloads never move through either structure: they live in the
//! *slot arena* (the same slab that backs the slot/generation cancel
//! scheme), and bucket/heap entries are plain `(time, seq, slot)` keys.
//! The bucket width adapts: if the overflow heap starts dominating or one
//! bucket grows pathologically dense, the queue rebuilds itself with a
//! width fitted to the observed pending-event span (a deterministic
//! function of the operation sequence, so replays stay bit-identical).
//!
//! # Determinism
//!
//! Delivery order is the total order `(time, seq)` where `seq` is a global
//! insertion counter — exactly the contract of the previous heap-based
//! queue. The wheel cannot perturb it: absolute bucket index is a monotone
//! function of time, buckets are visited in index order, the current bucket
//! is sorted by `(time, seq)` before draining, and overflow events compare
//! against the wheel candidate under the same key. Bucket-width rebuilds
//! and tombstone compaction only move or drop entries — keys never change —
//! so any interleaving of schedule/cancel/step yields the same deliveries
//! as a sorted list (asserted against a reference model in
//! `tests/event_queue_model.rs`).
//!
//! # Cancellation
//!
//! Cancellation is O(1): every scheduled event owns a *slot* in the arena
//! with a generation counter, and [`Simulator::cancel`] flips the slot
//! state and frees the payload immediately, without touching the wheel or
//! heap. The dead key left behind (a 24-byte tombstone) is reaped when its
//! bucket is drained — and, so tombstones cannot accumulate unboundedly
//! under cancel-heavy load, a lazy compaction sweep reclaims all of them
//! whenever they outnumber live events. [`Simulator::pending`] and
//! [`Simulator::peek_time`] stay exact *and* O(1): the queue caches the
//! key of the minimum live event and refreshes it whenever that exact
//! event is cancelled or delivered.
//!
//! # Work counters
//!
//! The queue counts its own work ([`QueueWork`], read through
//! [`Simulator::work`]): bitmap words probed, keys sorted, sorted-insert
//! shifts, tombstones reaped, keys swept and overflow-heap levels. Each
//! counter is a plain add on a path that already does the counted work,
//! so the totals are exact and the same on every host. The amortized
//! O(1) claims above are tested on them: work per operation may not grow
//! between 1k and 100k pending events.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::{SimDuration, SimTime};

/// Number of wheel buckets. Power of two; the wheel spans
/// `NUM_BUCKETS << shift` microseconds past the clock.
const NUM_BUCKETS: usize = 2048;
/// Ring-index mask (`NUM_BUCKETS` is a power of two).
const BUCKET_MASK: u64 = NUM_BUCKETS as u64 - 1;
/// Initial bucket width exponent: `1 << 10` µs ≈ 1 ms per bucket, a 2.1 s
/// horizon — fits every service-time/arrival event the platform schedules.
const INITIAL_SHIFT: u32 = 10;
/// Tombstone-compaction threshold: sweep when dead keys outnumber live
/// events and there are at least this many of them.
const COMPACT_MIN_DEAD: usize = 1024;
/// Rebuild trigger: overflow population that suggests the bucket width no
/// longer matches the workload's scheduling horizon.
const REBUILD_MIN_FAR: usize = 1024;
/// Rebuild trigger: a single bucket denser than this suggests the width is
/// too coarse.
const REBUILD_DENSE_BUCKET: usize = 8192;

/// Identifier of a scheduled event, usable to cancel it before it fires.
///
/// Returned by [`Simulator::schedule_at`] / [`Simulator::schedule_in`].
/// Internally packs an arena slot index and a generation counter, so ids of
/// events that already fired (whose slot has been recycled) are recognized
/// as stale in O(1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventId {
    slot: u32,
    gen: u32,
}

/// Lifecycle of an arena slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SlotState {
    /// Scheduled and not cancelled; the wheel or overflow heap holds a
    /// matching key.
    Live,
    /// Cancelled (payload already dropped) but the key has not yet been
    /// reaped.
    Cancelled,
    /// No event owns this slot (fired, or reaped after cancel).
    Free,
}

/// One arena slot: generation + state + payload.
///
/// Deliberately minimal — the event's `(at, seq)` key lives only in the
/// wheel/heap entries, so the arena stays as small as possible (the slot
/// array is the queue's random-access working set; at 100k pending its
/// footprint decides whether the hot path runs from cache or DRAM).
#[derive(Debug)]
struct Slot<E> {
    gen: u32,
    state: SlotState,
    /// True when the key lives in the overflow heap rather than the wheel.
    far: bool,
    payload: Option<E>,
}

/// A 24-byte queue key: everything needed to order an event and find its
/// payload in the arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Entry {
    at: SimTime,
    seq: u64,
    slot: u32,
}

impl Entry {
    #[inline]
    fn key(&self) -> (SimTime, u64) {
        (self.at, self.seq)
    }
}

/// Overflow-heap wrapper: min-heap by `(at, seq)`.
#[derive(Debug, PartialEq, Eq)]
struct FarEntry(Entry);

impl PartialOrd for FarEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for FarEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest key pops first,
        // lowest sequence number breaking ties (FIFO).
        other.0.key().cmp(&self.0.key())
    }
}

/// Where `find_min` located the minimum live event.
#[derive(Debug, Clone, Copy)]
enum MinLoc {
    /// Back of the sorted current bucket (ring cell index).
    Wheel(usize),
    /// Head of the overflow heap.
    Far,
}

/// Cumulative count of the event queue's own work, by kind.
///
/// Returned by [`Simulator::work`]. The counters are exact functions of
/// the operation sequence, so a test can bound work per operation where
/// a timing ratio would read host noise.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueWork {
    /// Occupancy-bitmap words read while looking for the next non-empty
    /// bucket.
    pub bitmap_words: u64,
    /// Keys sorted when the clock reached their bucket.
    pub keys_sorted: u64,
    /// Keys shifted by inserts into the already-sorted current bucket.
    pub insert_shifts: u64,
    /// Tombstones popped off a bucket or the overflow heap as they
    /// surfaced.
    pub tombstones_reaped: u64,
    /// Keys visited by compaction sweeps and bucket-width rebuilds.
    pub keys_swept: u64,
    /// Overflow-heap levels: every push or pop adds the heap's depth.
    pub heap_levels: u64,
}

impl QueueWork {
    /// Sum of all counters.
    pub fn total(&self) -> u64 {
        self.bitmap_words
            + self.keys_sorted
            + self.insert_shifts
            + self.tombstones_reaped
            + self.keys_swept
            + self.heap_levels
    }
}

/// Depth of a binary heap holding `len` keys.
#[inline]
fn heap_depth(len: usize) -> u64 {
    u64::from(usize::BITS - len.leading_zeros())
}

/// A discrete-event simulator: virtual clock plus pending-event queue.
///
/// The simulator is intentionally passive — it owns time and the queue, and
/// the caller drives the loop. This avoids callback-trait gymnastics and
/// lets the platform layer keep full mutable access to its own state while
/// handling each event:
///
/// ```
/// use specfaas_sim::{Simulator, SimDuration};
///
/// enum Ev { Tick }
///
/// let mut sim = Simulator::new();
/// sim.schedule_in(SimDuration::from_millis(1), Ev::Tick);
/// let mut ticks = 0;
/// while let Some((_, Ev::Tick)) = sim.step() {
///     ticks += 1;
///     if ticks < 3 {
///         sim.schedule_in(SimDuration::from_millis(1), Ev::Tick);
///     }
/// }
/// assert_eq!(ticks, 3);
/// assert_eq!(sim.now().as_millis(), 3);
/// ```
#[derive(Debug)]
pub struct Simulator<E> {
    now: SimTime,
    next_seq: u64,
    /// Payload arena, indexed by slot.
    slots: Vec<Slot<E>>,
    free: Vec<u32>,
    live: usize,
    delivered: u64,

    // Calendar wheel.
    buckets: Vec<Vec<Entry>>,
    /// Bucket width is `1 << shift` microseconds.
    shift: u32,
    /// Absolute bucket index of the clock (`now >> shift`); the wheel
    /// covers absolute buckets `[base, base + NUM_BUCKETS)`.
    base: u64,
    /// Occupancy bitmap: bit per ring cell, one `u64` per 64 cells.
    occ: Vec<u64>,
    /// Absolute bucket index whose ring cell is currently sorted
    /// (descending by key; drained from the back).
    sorted_bucket: Option<u64>,
    /// Live events resident in the wheel (the rest are in `far`).
    wheel_live: usize,

    /// Overflow heap for events beyond the wheel horizon.
    far: BinaryHeap<FarEntry>,

    /// Cancelled keys not yet reaped (wheel + overflow).
    dead: usize,
    /// Cached entry of the minimum live event; `None` iff `live == 0`.
    /// Carries the slot index so `cancel` can tell in O(1) whether it just
    /// killed the minimum, and so the next payload line can be prefetched.
    head: Option<Entry>,
    /// Schedules since the last width rebuild (thrash guard).
    ops_since_rebuild: usize,
    /// Set when an insert pushed some bucket past [`REBUILD_DENSE_BUCKET`]
    /// — an O(1) hint so the rebuild check never scans the wheel.
    dense_hint: bool,
    /// The queue's own work so far.
    work: QueueWork,
}

impl<E> Default for Simulator<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Simulator<E> {
    /// Creates an empty simulator with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        Simulator {
            now: SimTime::ZERO,
            next_seq: 0,
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
            delivered: 0,
            buckets: (0..NUM_BUCKETS).map(|_| Vec::new()).collect(),
            shift: INITIAL_SHIFT,
            base: 0,
            occ: vec![0u64; NUM_BUCKETS / 64],
            sorted_bucket: None,
            wheel_live: 0,
            far: BinaryHeap::new(),
            dead: 0,
            head: None,
            ops_since_rebuild: 0,
            dense_hint: false,
            work: QueueWork::default(),
        }
    }

    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events delivered so far via [`Simulator::step`].
    pub fn events_delivered(&self) -> u64 {
        self.delivered
    }

    /// Number of live (scheduled, not cancelled, not yet fired) events.
    pub fn pending(&self) -> usize {
        self.live
    }

    /// True when no live events remain.
    pub fn is_idle(&self) -> bool {
        self.live == 0
    }

    /// The queue's own work since creation (see [`QueueWork`]).
    pub fn work(&self) -> QueueWork {
        self.work
    }

    /// Allocates an arena slot for a freshly scheduled event.
    fn alloc_slot(&mut self, far: bool, payload: E) -> u32 {
        if let Some(idx) = self.free.pop() {
            let s = &mut self.slots[idx as usize];
            debug_assert_eq!(s.state, SlotState::Free);
            s.state = SlotState::Live;
            s.far = far;
            s.payload = Some(payload);
            idx
        } else {
            let idx = self.slots.len() as u32;
            self.slots.push(Slot {
                gen: 0,
                state: SlotState::Live,
                far,
                payload: Some(payload),
            });
            idx
        }
    }

    /// Returns a slot to the free list, bumping its generation so stale
    /// [`EventId`]s can never alias the next occupant.
    fn release_slot(&mut self, idx: u32) {
        let s = &mut self.slots[idx as usize];
        s.state = SlotState::Free;
        s.gen = s.gen.wrapping_add(1);
        s.payload = None;
        self.free.push(idx);
    }

    /// Ring cell index of absolute bucket `b`.
    #[inline]
    fn cell_of(b: u64) -> usize {
        (b & BUCKET_MASK) as usize
    }

    /// Hints the CPU to pull `slots[slot]` into cache. The next event's
    /// payload line is the hot path's one unavoidable random access; issuing
    /// the prefetch when the head is cached (one op ahead of the read) hides
    /// most of its latency. Purely advisory — no semantic effect.
    #[inline]
    fn prefetch_slot(&self, slot: u32) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `slot` indexes a live arena entry, so the pointer is
        // in-bounds; prefetch has no memory effects regardless.
        unsafe {
            use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            _mm_prefetch(
                self.slots.as_ptr().add(slot as usize) as *const i8,
                _MM_HINT_T0,
            );
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = slot;
    }

    /// Marks a ring cell occupied in the bitmap.
    #[inline]
    fn occ_set(&mut self, cell: usize) {
        self.occ[cell >> 6] |= 1u64 << (cell & 63);
    }

    /// Marks a ring cell empty in the bitmap.
    #[inline]
    fn occ_clear(&mut self, cell: usize) {
        self.occ[cell >> 6] &= !(1u64 << (cell & 63));
    }

    /// First occupied ring cell at or cyclically after `start`, if any.
    fn next_occupied(&mut self, start: usize) -> Option<usize> {
        let words = self.occ.len();
        let w0 = start >> 6;
        self.work.bitmap_words += 1;
        let masked = self.occ[w0] & (!0u64 << (start & 63));
        if masked != 0 {
            return Some((w0 << 6) + masked.trailing_zeros() as usize);
        }
        // Walk the remaining words cyclically; the final iteration re-reads
        // w0 in full, covering bits below `start`.
        for i in 1..=words {
            let w = (w0 + i) % words;
            self.work.bitmap_words += 1;
            let bits = self.occ[w];
            if bits != 0 {
                return Some((w << 6) + bits.trailing_zeros() as usize);
            }
        }
        None
    }

    /// Inserts a key into the wheel or the overflow heap. Returns whether
    /// it went to the overflow heap.
    fn insert_entry(&mut self, e: Entry) -> bool {
        let b = e.at.as_micros() >> self.shift;
        debug_assert!(b >= self.base, "entry behind the wheel base");
        if b < self.base + NUM_BUCKETS as u64 {
            let cell = Self::cell_of(b);
            let bucket = &mut self.buckets[cell];
            if self.sorted_bucket == Some(b) {
                // The current bucket is kept sorted (descending by key) so
                // it can be drained from the back.
                let key = e.key();
                let pos = bucket.partition_point(|x| x.key() > key);
                self.work.insert_shifts += (bucket.len() - pos) as u64;
                bucket.insert(pos, e);
            } else {
                bucket.push(e);
            }
            if bucket.len() > REBUILD_DENSE_BUCKET {
                self.dense_hint = true;
            }
            self.occ_set(cell);
            self.wheel_live += 1;
            false
        } else {
            self.far.push(FarEntry(e));
            self.work.heap_levels += heap_depth(self.far.len());
            true
        }
    }

    /// Schedules `payload` to fire at absolute time `at`.
    ///
    /// Scheduling in the past is a logic error; in debug builds it panics,
    /// in release builds the event fires immediately (at `now`).
    ///
    /// # Panics
    /// Debug builds panic if `at < self.now()`.
    pub fn schedule_at(&mut self, at: SimTime, payload: E) -> EventId {
        debug_assert!(
            at >= self.now,
            "scheduling into the past: {at} < {}",
            self.now
        );
        let at = at.max(self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.ops_since_rebuild += 1;

        // The slot must exist before the key so the entry can reference it;
        // `far` is patched once the tier is known.
        let slot = self.alloc_slot(false, payload);
        let gen = self.slots[slot as usize].gen;
        let entry = Entry { at, seq, slot };
        let went_far = self.insert_entry(entry);
        self.slots[slot as usize].far = went_far;
        self.live += 1;

        // Cached minimum: a new event can only improve it.
        if self.head.is_none_or(|h| (at, seq) < h.key()) {
            self.head = Some(entry);
        }

        self.maybe_rebuild();
        EventId { slot, gen }
    }

    /// Schedules `payload` to fire `delay` after the current time.
    pub fn schedule_in(&mut self, delay: SimDuration, payload: E) -> EventId {
        self.schedule_at(self.now + delay, payload)
    }

    /// Schedules `payload` to fire at the current instant, after all events
    /// already queued for this instant.
    pub fn schedule_now(&mut self, payload: E) -> EventId {
        self.schedule_at(self.now, payload)
    }

    /// Cancels a previously scheduled event in O(1) (amortized: refreshing
    /// the cached minimum when the cancelled event *was* the minimum, and
    /// the occasional compaction sweep, both charge each key at most once
    /// over its lifetime).
    ///
    /// The payload is dropped immediately; only a 24-byte tombstone key
    /// remains until its bucket drains or compaction reclaims it.
    ///
    /// Returns `true` if the event had not yet fired (and is now guaranteed
    /// not to fire), `false` if it already fired or was already cancelled.
    pub fn cancel(&mut self, id: EventId) -> bool {
        let far = match self.slots.get_mut(id.slot as usize) {
            Some(s) if s.gen == id.gen && s.state == SlotState::Live => {
                s.state = SlotState::Cancelled;
                s.payload = None;
                s.far
            }
            _ => return false,
        };
        self.live -= 1;
        if !far {
            self.wheel_live -= 1;
        }
        self.dead += 1;
        // Keep peek_time() exact: if we just killed the cached minimum,
        // find the new one. (A live slot index uniquely identifies the
        // event — stale generations returned above.)
        if self.head.is_some_and(|h| h.slot == id.slot) {
            self.refresh_head();
        }
        if self.dead >= COMPACT_MIN_DEAD && self.dead > self.live {
            self.compact();
        }
        true
    }

    /// Pops the next live event, advancing the clock to its timestamp.
    ///
    /// Returns `None` when the queue is exhausted. Time never moves
    /// backwards.
    pub fn step(&mut self) -> Option<(SimTime, E)> {
        let head = self.head?;
        let loc = self.find_min().expect("live > 0 implies a minimum");
        let entry = match loc {
            MinLoc::Wheel(cell) => {
                let e = self.buckets[cell].pop().expect("wheel candidate at back");
                if self.buckets[cell].is_empty() {
                    self.occ_clear(cell);
                    self.sorted_bucket = None;
                }
                self.wheel_live -= 1;
                e
            }
            MinLoc::Far => {
                self.work.heap_levels += heap_depth(self.far.len());
                self.far.pop().expect("far candidate at head").0
            }
        };
        debug_assert_eq!(entry.key(), head.key(), "cached minimum must match queue");
        debug_assert!(entry.at >= self.now);
        let payload = self.slots[entry.slot as usize]
            .payload
            .take()
            .expect("live event has a payload");
        self.release_slot(entry.slot);
        self.now = entry.at;
        self.base = entry.at.as_micros() >> self.shift;
        self.live -= 1;
        self.delivered += 1;
        self.refresh_head();
        Some((entry.at, payload))
    }

    /// Pops the next live event only if it fires at or before `deadline`.
    ///
    /// If the next event is later than `deadline`, the clock advances to
    /// `deadline` and `None` is returned. Useful for running a simulation
    /// for a fixed measurement window.
    pub fn step_until(&mut self, deadline: SimTime) -> Option<(SimTime, E)> {
        match self.head {
            Some(h) if h.at <= deadline => self.step(),
            _ => {
                self.now = self.now.max(deadline);
                // Advancing the clock past event-free buckets moves the
                // wheel window with it (cells behind the new base hold at
                // most tombstones, which drain harmlessly later).
                self.base = self.now.as_micros() >> self.shift;
                None
            }
        }
    }

    /// Timestamp of the next live event, if any. O(1): the minimum live
    /// key is cached and refreshed on every mutation that could change it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.head.map(|h| h.at)
    }

    /// Recomputes the cached minimum-live-event entry, and prefetches its
    /// payload line so the next [`Simulator::step`] finds it in cache. The
    /// runner-up candidate in the same bucket is prefetched too — one op of
    /// lead time is not always enough to cover a DRAM access plus the page
    /// walk behind it, two usually is.
    fn refresh_head(&mut self) {
        self.head = self.find_min().map(|loc| match loc {
            MinLoc::Wheel(cell) => {
                let bucket = &self.buckets[cell];
                if bucket.len() >= 2 {
                    self.prefetch_slot(bucket[bucket.len() - 2].slot);
                }
                *bucket.last().expect("wheel candidate")
            }
            MinLoc::Far => self.far.peek().expect("far candidate").0,
        });
        if let Some(h) = self.head {
            self.prefetch_slot(h.slot);
        }
    }

    /// Locates the minimum live event, mutating lazily along the way:
    /// sorts the bucket the search lands on, reaps tombstones it passes
    /// (wheel-bucket backs and overflow-heap heads), and keeps the
    /// occupancy bitmap exact. Returns `None` iff no live events remain.
    ///
    /// Amortized O(1): each key is sorted once, reaped once, and each
    /// bitmap probe is a handful of word operations.
    fn find_min(&mut self) -> Option<MinLoc> {
        // Reap cancelled overflow heads so the far candidate is live.
        // `dead == 0` means no tombstone exists anywhere — skip the slot
        // state reads entirely (they are random-access cache misses).
        while self.dead > 0 {
            match self.far.peek() {
                Some(FarEntry(e)) if self.slots[e.slot as usize].state == SlotState::Cancelled => {
                    let slot = e.slot;
                    self.work.heap_levels += heap_depth(self.far.len());
                    self.far.pop();
                    self.release_slot(slot);
                    self.dead -= 1;
                    self.work.tombstones_reaped += 1;
                }
                _ => break,
            }
        }
        let far_key = self.far.peek().map(|f| f.0.key());

        if self.wheel_live > 0 {
            let start = Self::cell_of(self.base);
            let mut cell = self
                .next_occupied(start)
                .expect("wheel_live > 0 implies an occupied cell");
            loop {
                // Reconstruct the absolute bucket for the sorted marker.
                // Cells holding only stale tombstones may be misattributed
                // (their true bucket already passed); they simply drain.
                let offset = (cell + NUM_BUCKETS - start) % NUM_BUCKETS;
                let b = self.base + offset as u64;
                if self.sorted_bucket != Some(b) {
                    self.work.keys_sorted += self.buckets[cell].len() as u64;
                    self.buckets[cell].sort_unstable_by_key(|e| std::cmp::Reverse(e.key()));
                    self.sorted_bucket = Some(b);
                }
                // Drain tombstones off the back (skip the slot reads when
                // no tombstone exists anywhere).
                while self.dead > 0 {
                    match self.buckets[cell].last() {
                        Some(&e) if self.slots[e.slot as usize].state == SlotState::Cancelled => {
                            self.buckets[cell].pop();
                            self.release_slot(e.slot);
                            self.dead -= 1;
                            self.work.tombstones_reaped += 1;
                        }
                        _ => break,
                    }
                }
                match self.buckets[cell].last() {
                    Some(e) => {
                        // Wheel minimum found; the overflow head may still
                        // be globally earlier (the wheel window has moved
                        // since it was filed as far-future).
                        return Some(match far_key {
                            Some(fk) if fk < e.key() => MinLoc::Far,
                            _ => MinLoc::Wheel(cell),
                        });
                    }
                    None => {
                        self.occ_clear(cell);
                        self.sorted_bucket = None;
                        cell = self
                            .next_occupied(cell)
                            .expect("wheel_live > 0 implies an occupied cell");
                    }
                }
            }
        }

        far_key.map(|_| MinLoc::Far)
    }

    /// Sweeps every tombstone out of the wheel and the overflow heap.
    /// Triggered when dead keys outnumber live events, so the O(keys) cost
    /// amortizes to O(1) per cancel.
    fn compact(&mut self) {
        let Self {
            buckets,
            slots,
            free,
            occ,
            far,
            work,
            ..
        } = self;
        for (cell, bucket) in buckets.iter_mut().enumerate() {
            if bucket.is_empty() {
                continue;
            }
            work.keys_swept += bucket.len() as u64;
            bucket.retain(|e| {
                let s = &mut slots[e.slot as usize];
                if s.state == SlotState::Cancelled {
                    s.state = SlotState::Free;
                    s.gen = s.gen.wrapping_add(1);
                    free.push(e.slot);
                    false
                } else {
                    true
                }
            });
            if bucket.is_empty() {
                occ[cell >> 6] &= !(1u64 << (cell & 63));
            }
        }
        if !far.is_empty() {
            work.keys_swept += far.len() as u64;
            let mut keys = std::mem::take(far).into_vec();
            keys.retain(|FarEntry(e)| {
                let s = &mut slots[e.slot as usize];
                if s.state == SlotState::Cancelled {
                    s.state = SlotState::Free;
                    s.gen = s.gen.wrapping_add(1);
                    free.push(e.slot);
                    false
                } else {
                    true
                }
            });
            *far = BinaryHeap::from(keys);
        }
        self.dead = 0;
    }

    /// Rebuilds the wheel with a bucket width fitted to the observed span
    /// of pending events, when the current width clearly mismatches the
    /// workload. Deterministic: triggers depend only on the operation
    /// sequence, and keys are unchanged.
    fn maybe_rebuild(&mut self) {
        if self.ops_since_rebuild <= self.live {
            return; // thrash guard: at most one rebuild per queue turnover
        }
        let far_live = self.live - self.wheel_live;
        let overflow_dominates = far_live >= REBUILD_MIN_FAR && far_live > self.wheel_live;
        if !overflow_dominates && !self.dense_hint {
            return;
        }
        self.rebuild();
    }

    /// Collects every key, drops tombstones, picks a new bucket width so
    /// the live span covers at most half the wheel, and redistributes.
    fn rebuild(&mut self) {
        let mut entries: Vec<Entry> = Vec::with_capacity(self.live);
        let mut max_at = self.now;
        let swept = (self.live + self.dead) as u64;
        {
            let Self {
                buckets,
                slots,
                free,
                far,
                ..
            } = self;
            let mut keep = |e: Entry| {
                let s = &mut slots[e.slot as usize];
                if s.state == SlotState::Cancelled {
                    s.state = SlotState::Free;
                    s.gen = s.gen.wrapping_add(1);
                    free.push(e.slot);
                    false
                } else {
                    true
                }
            };
            for bucket in buckets.iter_mut() {
                for e in bucket.drain(..) {
                    if keep(e) {
                        entries.push(e);
                    }
                }
            }
            for FarEntry(e) in std::mem::take(far) {
                if keep(e) {
                    entries.push(e);
                }
            }
        }
        self.dead = 0;
        self.work.keys_swept += swept;
        for e in &entries {
            max_at = max_at.max(e.at);
        }
        debug_assert_eq!(entries.len(), self.live);

        // Width such that [now, max_at] spans at most NUM_BUCKETS / 2
        // buckets (headroom for the span drifting forward).
        let span = (max_at - self.now).as_micros().max(1);
        let per_bucket = (span / (NUM_BUCKETS as u64 / 2)).max(1);
        self.shift = (64 - per_bucket.leading_zeros()).clamp(4, 40);
        self.base = self.now.as_micros() >> self.shift;
        self.occ.iter_mut().for_each(|w| *w = 0);
        self.sorted_bucket = None;
        self.wheel_live = 0;
        self.ops_since_rebuild = 0;
        self.dense_hint = false;
        for e in entries {
            let went_far = self.insert_entry(e);
            self.slots[e.slot as usize].far = went_far;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivers_in_time_order() {
        let mut sim = Simulator::new();
        sim.schedule_in(SimDuration::from_millis(3), "c");
        sim.schedule_in(SimDuration::from_millis(1), "a");
        sim.schedule_in(SimDuration::from_millis(2), "b");
        let order: Vec<_> = std::iter::from_fn(|| sim.step()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
        assert_eq!(sim.now().as_millis(), 3);
    }

    #[test]
    fn fifo_tie_breaking_at_same_instant() {
        let mut sim = Simulator::new();
        let t = SimTime::from_millis(5);
        sim.schedule_at(t, 1);
        sim.schedule_at(t, 2);
        sim.schedule_at(t, 3);
        let order: Vec<_> = std::iter::from_fn(|| sim.step()).map(|(_, e)| e).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn schedule_now_runs_after_current_instant_events() {
        let mut sim = Simulator::new();
        sim.schedule_at(SimTime::ZERO, "first");
        let (_, e) = sim.step().unwrap();
        assert_eq!(e, "first");
        sim.schedule_now("second");
        sim.schedule_in(SimDuration::from_micros(1), "third");
        assert_eq!(sim.step().unwrap().1, "second");
        assert_eq!(sim.step().unwrap().1, "third");
    }

    #[test]
    fn cancel_prevents_delivery() {
        let mut sim = Simulator::new();
        let id = sim.schedule_in(SimDuration::from_millis(1), "x");
        sim.schedule_in(SimDuration::from_millis(2), "y");
        assert!(sim.cancel(id));
        assert!(!sim.cancel(id), "double-cancel reports false");
        let order: Vec<_> = std::iter::from_fn(|| sim.step()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["y"]);
    }

    #[test]
    fn cancel_after_fire_reports_false() {
        let mut sim = Simulator::new();
        let id = sim.schedule_in(SimDuration::from_millis(1), "x");
        sim.step();
        assert!(!sim.cancel(id));
    }

    #[test]
    fn step_until_respects_deadline() {
        let mut sim = Simulator::new();
        sim.schedule_in(SimDuration::from_millis(10), "late");
        assert!(sim.step_until(SimTime::from_millis(5)).is_none());
        assert_eq!(sim.now(), SimTime::from_millis(5));
        assert_eq!(sim.step_until(SimTime::from_millis(20)).unwrap().1, "late");
    }

    #[test]
    fn pending_and_idle_track_cancellations() {
        let mut sim = Simulator::new();
        assert!(sim.is_idle());
        let a = sim.schedule_in(SimDuration::from_millis(1), 1);
        sim.schedule_in(SimDuration::from_millis(2), 2);
        assert_eq!(sim.pending(), 2);
        sim.cancel(a);
        assert_eq!(sim.pending(), 1);
        sim.step();
        assert!(sim.is_idle());
    }

    #[test]
    fn peek_time_skips_cancelled() {
        let mut sim = Simulator::new();
        let a = sim.schedule_in(SimDuration::from_millis(1), 1);
        sim.schedule_in(SimDuration::from_millis(4), 2);
        sim.cancel(a);
        assert_eq!(sim.peek_time(), Some(SimTime::from_millis(4)));
    }

    #[test]
    fn events_delivered_counts() {
        let mut sim = Simulator::new();
        for i in 0..5 {
            sim.schedule_in(SimDuration::from_millis(i), i);
        }
        while sim.step().is_some() {}
        assert_eq!(sim.events_delivered(), 5);
    }

    /// Regression (ISSUE 4, satellite 1): a tombstone consumed while the
    /// clock advances must not corrupt the bookkeeping that a later
    /// `cancel`/`step` relies on.
    #[test]
    fn cancel_step_until_step_interleaving() {
        let mut sim = Simulator::new();
        let a = sim.schedule_in(SimDuration::from_millis(1), "a");
        let b = sim.schedule_in(SimDuration::from_millis(2), "b");
        let c = sim.schedule_in(SimDuration::from_millis(3), "c");
        assert!(sim.cancel(a));
        assert!(sim.step_until(SimTime::from_millis(1)).is_none());
        assert!(!sim.cancel(a), "reaped tombstone must stay cancelled");
        assert_eq!(sim.pending(), 2);
        assert!(sim.cancel(b), "live event must be cancellable after reap");
        assert!(!sim.cancel(b));
        assert_eq!(sim.step().unwrap().1, "c");
        assert!(sim.step().is_none());
        assert!(!sim.cancel(c), "fired event reports false");
    }

    /// Regression: cancelling the head, then the new head, then stepping —
    /// the cached-minimum refresh in `cancel` must keep `peek_time` exact
    /// at every point.
    #[test]
    fn cancel_head_keeps_peek_exact() {
        let mut sim = Simulator::new();
        let a = sim.schedule_in(SimDuration::from_millis(1), "a");
        let b = sim.schedule_in(SimDuration::from_millis(2), "b");
        sim.schedule_in(SimDuration::from_millis(3), "c");
        assert_eq!(sim.peek_time(), Some(SimTime::from_millis(1)));
        assert!(sim.cancel(a));
        assert_eq!(sim.peek_time(), Some(SimTime::from_millis(2)));
        assert!(sim.cancel(b));
        assert_eq!(sim.peek_time(), Some(SimTime::from_millis(3)));
        assert_eq!(sim.step().unwrap().1, "c");
        assert_eq!(sim.peek_time(), None);
    }

    /// Regression (found by the reference-model property test): cancelling
    /// a *buried* event leaves a tombstone in its bucket; when a later
    /// `step` pops the live head, that tombstone can surface as the next
    /// candidate and `peek_time` must not report its (earlier) timestamp.
    #[test]
    fn step_past_buried_tombstone_keeps_peek_exact() {
        let mut sim = Simulator::new();
        sim.schedule_in(SimDuration::from_millis(1), "a");
        let x = sim.schedule_in(SimDuration::from_millis(2), "x");
        sim.schedule_in(SimDuration::from_millis(3), "b");
        assert!(sim.cancel(x));
        assert_eq!(sim.peek_time(), Some(SimTime::from_millis(1)));
        assert_eq!(sim.step().unwrap().1, "a");
        assert_eq!(sim.peek_time(), Some(SimTime::from_millis(3)));
        assert_eq!(sim.pending(), 1);
        assert_eq!(sim.step().unwrap().1, "b");
        assert!(sim.step().is_none());
    }

    /// A stale id whose slot has been recycled by a *new* event must not
    /// cancel the new occupant.
    #[test]
    fn stale_id_does_not_alias_recycled_slot() {
        let mut sim = Simulator::new();
        let a = sim.schedule_in(SimDuration::from_millis(1), "a");
        assert_eq!(sim.step().unwrap().1, "a");
        // `b` reuses a's slot (single-slot arena) at a bumped generation.
        let b = sim.schedule_in(SimDuration::from_millis(1), "b");
        assert!(!sim.cancel(a), "stale id must not cancel the new event");
        assert_eq!(sim.pending(), 1);
        assert!(sim.cancel(b));
        assert!(sim.step().is_none());
    }

    /// step_until must keep pending() and is_idle() exact for
    /// loop-termination checks even when only tombstones remain.
    #[test]
    fn step_until_deadline_with_only_tombstones() {
        let mut sim = Simulator::new();
        let a = sim.schedule_in(SimDuration::from_millis(5), 1);
        sim.cancel(a);
        assert!(sim.is_idle());
        assert!(sim.step_until(SimTime::from_millis(10)).is_none());
        assert_eq!(sim.now(), SimTime::from_millis(10));
        assert!(sim.is_idle());
        assert_eq!(sim.peek_time(), None);
    }

    /// Events beyond the wheel horizon (overflow heap) interleave
    /// correctly with near-future (wheel) events, including after the
    /// clock advances far enough that old "far" events are nearer than
    /// fresh wheel events.
    #[test]
    fn far_future_events_interleave_with_wheel() {
        let mut sim = Simulator::new();
        // ~2.1 s horizon at the initial width: 10 s is far-future.
        let far = sim.schedule_in(SimDuration::from_secs(10), "far");
        sim.schedule_in(SimDuration::from_millis(1), "near");
        assert_eq!(sim.peek_time(), Some(SimTime::from_millis(1)));
        assert_eq!(sim.step().unwrap().1, "near");
        // Advance to 9.999 s; the old far event is now just 1 ms away and
        // must beat a fresh wheel event 2 ms away.
        assert!(sim.step_until(SimTime::from_millis(9_999)).is_none());
        sim.schedule_in(SimDuration::from_millis(2), "late-near");
        assert_eq!(sim.peek_time(), Some(SimTime::from_micros(10_000_000)));
        assert_eq!(sim.step().unwrap().1, "far");
        assert_eq!(sim.step().unwrap().1, "late-near");
        let _ = far;
    }

    /// Cancelling a far-future event keeps every observable exact.
    #[test]
    fn cancel_far_future_event() {
        let mut sim = Simulator::new();
        let far = sim.schedule_in(SimDuration::from_secs(100), "far");
        sim.schedule_in(SimDuration::from_millis(1), "near");
        assert!(sim.cancel(far));
        assert_eq!(sim.pending(), 1);
        assert_eq!(sim.step().unwrap().1, "near");
        assert!(sim.step().is_none());
        assert!(sim.is_idle());
    }

    /// Tombstone compaction: mass-cancelling must not leave the queue in a
    /// state where live events are lost or misordered.
    #[test]
    fn mass_cancel_then_drain_survives_compaction() {
        let mut sim = Simulator::new();
        let mut ids = Vec::new();
        for i in 0..5_000u64 {
            ids.push((sim.schedule_in(SimDuration::from_micros(10 + i), i), i));
        }
        // Cancel every odd event — enough dead keys to trigger compaction.
        for &(id, i) in &ids {
            if i % 2 == 1 {
                assert!(sim.cancel(id));
            }
        }
        assert_eq!(sim.pending(), 2_500);
        let mut expect = 0u64;
        while let Some((_, v)) = sim.step() {
            assert_eq!(v, expect);
            expect += 2;
        }
        assert_eq!(expect, 5_000);
        assert!(sim.is_idle());
    }

    /// Operations per churn run.
    const CHURN_OPS: usize = 200_000;
    /// Most queue work per operation either churn may do at any backlog.
    const MAX_WORK_PER_OP: u64 = 8;

    /// Queue work per operation of a churn workload at a backlog of
    /// `pending` events, each delay uniform over the next second.
    /// `cancel = false` schedules and steps once per op; `cancel = true`
    /// schedules, cancels the oldest outstanding id and steps every 8th
    /// op. Checked along the way: the tombstone bound after every
    /// successful cancel, and the whole run's work budget after every op,
    /// so a super-linear queue fails fast instead of running for hours.
    fn churn_work_per_op(pending: usize, cancel: bool) -> f64 {
        let mut rng = crate::rng::SimRng::seed(0x5EED_0001 + u64::from(cancel));
        let delay = |rng: &mut crate::rng::SimRng| {
            SimDuration::from_micros(rng.uniform_range(1, 1_000_000))
        };
        let mut sim = Simulator::new();
        let mut ids: std::collections::VecDeque<EventId> = (0..pending)
            .map(|i| sim.schedule_in(delay(&mut rng), i))
            .collect();
        let before = sim.work().total();
        let budget = MAX_WORK_PER_OP * CHURN_OPS as u64;
        for op in 0..CHURN_OPS {
            ids.push_back(sim.schedule_in(delay(&mut rng), pending + op));
            if !cancel {
                sim.step().expect("backlog is never empty");
            } else {
                let victim = ids.pop_front().expect("ids outnumber ops");
                if sim.cancel(victim) {
                    assert!(
                        sim.dead <= sim.live.max(COMPACT_MIN_DEAD),
                        "{} tombstones at {} pending",
                        sim.dead,
                        sim.live
                    );
                }
                if op % 8 == 0 {
                    sim.step();
                }
            }
            let spent = sim.work().total() - before;
            assert!(
                spent <= budget,
                "{spent} work after {} ops at {pending} pending exceeds the run's budget {budget}",
                op + 1
            );
        }
        (sim.work().total() - before) as f64 / CHURN_OPS as f64
    }

    /// The calendar queue's point, asserted on exact work counts: work per
    /// schedule+step and per schedule+cancel stays under
    /// `MAX_WORK_PER_OP` and grows at most 1.5x from 1k to 100k pending
    /// (measured 3.02 -> 3.04 and 2.10 -> 1.46). Re-sorting the current
    /// bucket on every step, an O(n) cancel, or routing every event through
    /// the overflow heap blows the budget; disabling compaction breaks the
    /// tombstone bound.
    #[test]
    fn work_per_op_is_flat_in_queue_depth() {
        for cancel in [false, true] {
            let small = churn_work_per_op(1_000, cancel);
            let big = churn_work_per_op(100_000, cancel);
            assert!(
                big / small <= 1.5,
                "cancel={cancel}: work/op grew {:.3}x from 1k to 100k pending ({small:.3} -> {big:.3})",
                big / small
            );
        }
    }

    /// A workload whose span vastly exceeds the initial horizon triggers a
    /// width rebuild; ordering and exactness must be unaffected.
    #[test]
    fn wide_span_rebuild_preserves_order() {
        let mut sim = Simulator::new();
        // 4096 events spread over ~400 s — nearly all beyond the initial
        // 2.1 s horizon, so the overflow tier dominates and a rebuild
        // widens the buckets.
        for i in 0..4_096u64 {
            sim.schedule_in(SimDuration::from_micros(1 + i * 100_000), i);
        }
        let mut prev = SimTime::ZERO;
        let mut n = 0;
        while let Some((t, _)) = sim.step() {
            assert!(t >= prev);
            prev = t;
            n += 1;
        }
        assert_eq!(n, 4_096);
    }
}
