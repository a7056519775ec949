//! The reference kernels: fixed pieces of work, owned by the benchmark,
//! that measure how fast the host runs while a round runs.
//!
//! On a shared host the speed of one core swings with what the other
//! tenants do: identical rounds of this single-thread simulator ran up to
//! 1.7× slower for tens of seconds at a time, longer than a run. No
//! statistic over one run's rounds removes a slowdown that lasts the whole
//! run. So the workloads run a short slice of two kernels between their
//! timed phases, outside the timed regions, and the end-to-end times are
//! scaled by how much slower than nominal the kernels ran during the
//! round (see `Round::host_factor`).
//!
//! The two kernels see the two ways the host slows the simulator down.
//! The *compute* kernel mixes an integer stream and takes a data-dependent
//! branch per step into a 2 KiB table, so it runs from L1 and slows only
//! with the core itself: its clock, or a sibling hyper-thread taking its
//! share. The *memory* kernel walks a 2 MiB random cycle (a core's L2) while
//! pushing and popping a binary heap, the kind of work the simulator's
//! pools and event queue do; each slice continues the walk where the last
//! stopped, so it also slows when other tenants take the shared cache and
//! memory bandwidth. On the host this benchmark was built on, the
//! simulator's time tracked the product of the two kernels' slowdowns
//! more closely than either alone.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Duration;

use crate::Stopwatch;

/// Memory-kernel table entries: a 2 MiB single-cycle permutation of
/// `u32` successors.
const ENTRIES: usize = 1 << 19;

/// Memory-kernel steps per slice.
const MEMORY_STEPS: u32 = 8_000;

/// Compute-kernel steps per slice.
const COMPUTE_STEPS: u64 = 150_000;

/// CPU time of one compute slice on the host this benchmark was
/// calibrated on (about its median there).
pub const NOMINAL_COMPUTE: Duration = Duration::from_micros(380);

/// CPU time of one memory slice on that host (about its median there).
pub const NOMINAL_MEMORY: Duration = Duration::from_micros(1_100);

/// Mean CPU time of one slice of each kernel.
#[derive(Clone, Copy, Debug, Default)]
pub struct Speed {
    /// The compute kernel's slice.
    pub compute: Duration,
    /// The memory kernel's slice.
    pub memory: Duration,
}

impl Speed {
    /// How much slower than nominal the host ran: the product of the two
    /// kernels' slowdowns (1 without a measurement).
    pub fn factor(&self) -> f64 {
        if self.compute.is_zero() || self.memory.is_zero() {
            return 1.0;
        }
        self.compute.as_secs_f64() / NOMINAL_COMPUTE.as_secs_f64() * self.memory.as_secs_f64()
            / NOMINAL_MEMORY.as_secs_f64()
    }
}

/// The kernels' state, built once per run, and the time their slices
/// took since the last [`Reference::take`].
pub struct Reference {
    next: Vec<u32>,
    heap: BinaryHeap<Reverse<u64>>,
    at: u32,
    spent: Speed,
    slices: u32,
}

impl Default for Reference {
    fn default() -> Self {
        Self::new()
    }
}

impl Reference {
    /// Builds the memory kernel's table: one random cycle through every
    /// entry, from a fixed seed, so every run walks the same path.
    pub fn new() -> Reference {
        let mut order: Vec<u32> = (0..ENTRIES as u32).collect();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for i in (1..ENTRIES).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            order.swap(i, (x % (i as u64 + 1)) as usize);
        }
        let mut next = vec![0u32; ENTRIES];
        for (i, &at) in order.iter().enumerate() {
            next[at as usize] = order[(i + 1) % ENTRIES];
        }
        Reference {
            next,
            heap: BinaryHeap::with_capacity(MEMORY_STEPS as usize),
            at: 0,
            spent: Speed::default(),
            slices: 0,
        }
    }

    /// Runs and times one slice of each kernel.
    pub fn slice(&mut self) {
        let t = Stopwatch::start();
        compute_slice();
        self.spent.compute += t.cpu();
        let t = Stopwatch::start();
        self.memory_slice();
        self.spent.memory += t.cpu();
        self.slices += 1;
    }

    fn memory_slice(&mut self) {
        self.heap.clear();
        let mut at = self.at;
        let mut acc = 0u64;
        for i in 0..MEMORY_STEPS {
            at = self.next[at as usize];
            acc = acc
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(u64::from(at));
            self.heap.push(Reverse(acc >> 40));
            if i % 3 != 0 {
                if let Some(Reverse(v)) = self.heap.pop() {
                    acc ^= v;
                }
            }
        }
        black_box(acc);
        self.at = at;
    }

    /// Mean time of the slices run since the last call (zero if none
    /// ran), and starts counting anew.
    pub fn take(&mut self) -> Speed {
        let n = self.slices.max(1);
        let mean = Speed {
            compute: self.spent.compute / n,
            memory: self.spent.memory / n,
        };
        self.spent = Speed::default();
        self.slices = 0;
        mean
    }
}

fn compute_slice() {
    let mut table = [0u64; 256];
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..COMPUTE_STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let j = (x & 255) as usize;
        if x & 0x100 != 0 {
            table[j] = table[j].wrapping_add(i);
        } else {
            table[j] ^= x;
        }
    }
    black_box(&table);
}
