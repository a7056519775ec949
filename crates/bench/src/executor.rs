//! The parallel experiment executor.
//!
//! The paper's evaluation is a grid of *independent* cells — {suite × app}
//! × {baseline, SpecFaaS, ablation config} × load × seed. Each cell builds
//! its own engines from a seed, so cells share no mutable state and can
//! run on any thread without changing their results. This module gives
//! every experiment binary the same submission API:
//!
//! 1. build a `Vec<ExperimentCell<T>>` describing the grid,
//! 2. call [`run_cells`] with the `--jobs` count,
//! 3. render the returned `Vec<T>` — results come back **in submission
//!    order**, so the rendered output is byte-identical whatever the job
//!    count or scheduling interleaving.
//!
//! Parallelism lives *only* here, in the harness: each DES run stays
//! single-threaded and deterministic (see DESIGN.md). Workers claim the
//! next unstarted cell by bumping one atomic counter (work-stealing in the
//! degenerate one-queue sense: whichever worker is free next takes the
//! next cell), which load-balances grids whose cells differ wildly in
//! cost — a saturated High-load cell can take 10× a Low-load one.
//!
//! Per-cell harness overhead is deliberately minimal: claiming a cell is
//! one `fetch_add`, and each result is written straight into its
//! submission-indexed slot — no shared queue mutex, no channel, no
//! per-result allocation. The worker pool is sized
//! `min(jobs, cells)`, and the *default* job count is the host's
//! parallelism ([`default_jobs`]); asking for more workers than the host
//! can run (e.g. `--jobs 4` on a single core) is honored — the
//! determinism tests rely on exercising the parallel path everywhere —
//! but cannot speed anything up. That cells really run concurrently is
//! tested structurally (two cells must be in flight at once at
//! `jobs = 2`), not by timing a sweep.
//!
//! Dependency-free by construction: `std::thread::scope` + atomics +
//! per-slot mutexes. No rayon.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// One independent unit of experiment work, producing a `T`.
///
/// The closure must be self-contained up to shared *immutable* state
/// (bundles, configs): it is run exactly once, on an arbitrary thread.
pub struct ExperimentCell<'scope, T> {
    label: String,
    run: Box<dyn FnOnce() -> T + Send + 'scope>,
}

impl<'scope, T> ExperimentCell<'scope, T> {
    /// Wraps a closure as a cell. `label` identifies the cell in panic
    /// messages and sweep reports.
    pub fn new(label: impl Into<String>, run: impl FnOnce() -> T + Send + 'scope) -> Self {
        ExperimentCell {
            label: label.into(),
            run: Box::new(run),
        }
    }

    /// The cell's label.
    pub fn label(&self) -> &str {
        &self.label
    }
}

/// Runs `cells` on `jobs` worker threads, returning results in submission
/// order.
///
/// `jobs == 1` runs everything inline on the calling thread — the exact
/// serial semantics every binary had before the executor existed. With
/// `jobs > 1`, workers repeatedly pop the next unstarted cell from a
/// shared queue; because every cell is deterministic and results are
/// reassembled by submission index, the output is identical to the serial
/// order for any `jobs`.
///
/// # Panics
/// Propagates a panic from any cell (the panicking cell's label is
/// printed to stderr first).
pub fn run_cells<T: Send>(jobs: usize, cells: Vec<ExperimentCell<'_, T>>) -> Vec<T> {
    let jobs = jobs.max(1);
    if jobs == 1 || cells.len() <= 1 {
        return cells.into_iter().map(|c| (c.run)()).collect();
    }

    let n = cells.len();
    // Each cell is taken exactly once (claimed by atomic index, so the
    // per-slot locks are never contended) and its result lands in the
    // matching submission-indexed slot.
    let work: Vec<Mutex<Option<ExperimentCell<T>>>> =
        cells.into_iter().map(|c| Mutex::new(Some(c))).collect();
    let results: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);

    std::thread::scope(|s| {
        for _ in 0..jobs.min(n) {
            let (work, results, next) = (&work, &results, &next);
            s.spawn(move || loop {
                let idx = next.fetch_add(1, Ordering::Relaxed);
                if idx >= n {
                    return;
                }
                let cell = work[idx]
                    .lock()
                    .unwrap()
                    .take()
                    .expect("cell claimed exactly once");
                let label = cell.label;
                let result = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(cell.run))
                {
                    Ok(r) => r,
                    Err(payload) => {
                        eprintln!("experiment cell `{label}` panicked");
                        std::panic::resume_unwind(payload);
                    }
                };
                *results[idx].lock().unwrap() = Some(result);
            });
        }
    });

    results
        .into_iter()
        .enumerate()
        .map(|(i, r)| {
            r.into_inner()
                .unwrap()
                .unwrap_or_else(|| panic!("cell {i} produced no result"))
        })
        .collect()
}

/// The host's logical parallelism as reported by the OS (respects cgroup
/// and affinity limits on Linux).
pub fn host_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Parses `--jobs N` / `--jobs=N` from the process arguments.
///
/// Defaults to the machine's available parallelism (the executor's whole
/// point is that a many-core box should not sit idle while a serial DES
/// grid grinds). `--jobs 1` restores fully serial execution.
pub fn jobs_from_args() -> usize {
    parse_jobs(std::env::args().skip(1)).unwrap_or_else(default_jobs)
}

/// The default job count: the host's parallelism ([`host_parallelism`]),
/// so the pool is sized to the hardware unless `--jobs` overrides it.
pub fn default_jobs() -> usize {
    host_parallelism()
}

/// Extracts the `--jobs` value from an argument list, if present.
pub fn parse_jobs(args: impl IntoIterator<Item = String>) -> Option<usize> {
    let mut args = args.into_iter();
    while let Some(a) = args.next() {
        if a == "--jobs" {
            if let Some(n) = args.next().and_then(|v| v.parse().ok()) {
                return Some(std::cmp::max(n, 1));
            }
        } else if let Some(v) = a.strip_prefix("--jobs=") {
            if let Ok(n) = v.parse::<usize>() {
                return Some(n.max(1));
            }
        }
    }
    None
}

/// True when the given flag (e.g. `--quick`) is present in the process
/// arguments. Shared by binaries that scale themselves down for smoke
/// tests.
pub fn has_flag(flag: &str) -> bool {
    std::env::args().skip(1).any(|a| a == flag)
}

/// Value of `--<name> <value>` / `--<name>=<value>` in the process
/// arguments, if present.
pub fn arg_value(name: &str) -> Option<String> {
    let long = format!("--{name}");
    let prefix = format!("--{name}=");
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == long {
            return args.next();
        }
        if let Some(v) = a.strip_prefix(&prefix) {
            return Some(v.to_string());
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_come_back_in_submission_order() {
        // Cells deliberately finish out of order (reverse sleeps).
        let cells: Vec<ExperimentCell<usize>> = (0..16)
            .map(|i| {
                ExperimentCell::new(format!("cell{i}"), move || {
                    std::thread::sleep(std::time::Duration::from_millis((16 - i) as u64));
                    i
                })
            })
            .collect();
        let out = run_cells(4, cells);
        assert_eq!(out, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn serial_and_parallel_agree() {
        let build = || {
            (0..32)
                .map(|i| ExperimentCell::new(format!("c{i}"), move || i * i))
                .collect::<Vec<_>>()
        };
        assert_eq!(run_cells(1, build()), run_cells(7, build()));
    }

    #[test]
    fn every_cell_runs_exactly_once() {
        static COUNT: AtomicUsize = AtomicUsize::new(0);
        let cells: Vec<ExperimentCell<()>> = (0..100)
            .map(|i| {
                ExperimentCell::new(format!("c{i}"), || {
                    COUNT.fetch_add(1, Ordering::SeqCst);
                })
            })
            .collect();
        run_cells(8, cells);
        assert_eq!(COUNT.load(Ordering::SeqCst), 100);
    }

    #[test]
    fn borrows_from_the_caller_are_allowed() {
        let data = [1u64, 2, 3, 4];
        let cells: Vec<ExperimentCell<u64>> = data
            .iter()
            .map(|v| ExperimentCell::new("borrow", move || v * 10))
            .collect();
        assert_eq!(run_cells(2, cells), vec![10, 20, 30, 40]);
    }

    #[test]
    fn parse_jobs_forms() {
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(parse_jobs(args(&["--jobs", "4"])), Some(4));
        assert_eq!(parse_jobs(args(&["--jobs=2"])), Some(2));
        assert_eq!(parse_jobs(args(&["--jobs", "0"])), Some(1));
        assert_eq!(parse_jobs(args(&["--quick"])), None);
    }

    /// At `jobs = 2` both cells of a two-cell grid must be in flight at
    /// once: each announces itself, then waits for the other. A serial
    /// executor, or one that holds a lock across cell runs, leaves the
    /// first cell waiting alone until the timeout.
    #[test]
    fn two_cells_run_concurrently_at_two_jobs() {
        use std::sync::Condvar;
        use std::time::Duration;
        let started = (Mutex::new(0usize), Condvar::new());
        let cells: Vec<ExperimentCell<bool>> = (0..2)
            .map(|i| {
                let (count, cv) = (&started.0, &started.1);
                ExperimentCell::new(format!("rendezvous/{i}"), move || {
                    let mut n = count.lock().expect("no cell panics holding the lock");
                    *n += 1;
                    cv.notify_all();
                    let (n, _) = cv
                        .wait_timeout_while(n, Duration::from_secs(10), |n| *n < 2)
                        .expect("no cell panics holding the lock");
                    *n == 2
                })
            })
            .collect();
        assert_eq!(run_cells(2, cells), vec![true, true]);
    }

    #[test]
    fn empty_grid_is_fine() {
        let out: Vec<u8> = run_cells(4, Vec::new());
        assert!(out.is_empty());
    }
}
