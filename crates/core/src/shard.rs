//! Deterministic host-parallel execution of independent simulation cells.
//!
//! A *cell* is one complete, self-contained simulation (one graph × one
//! application × one config). Cells share no mutable state — each owns its
//! memory subsystem, event queue and mining state — so running them on
//! separate host threads cannot perturb any simulated quantity. The only
//! thing parallelism could disturb is *presentation order*, and
//! [`run_cells`] removes that freedom: results are returned indexed by
//! cell position, exactly as a serial loop would produce them. A
//! multi-threaded run is therefore byte-identical to a serial one
//! (asserted by `serial_and_sharded_results_are_identical_and_ordered`
//! below and the golden-matrix integration tests), and the thread count
//! is the caller's choice of host resources, not a configuration knob:
//! `gramer-mine` passes the host's available parallelism, and the
//! experiment-sweep runner in `gramer-bench` runs its points through
//! [`run_cells`] on `--jobs` threads.
//!
//! Threads claim the next unclaimed cell until none remain. Claim order
//! affects only wall-clock time, never output — determinism comes from
//! returning results by cell index, not from the claim sequence.

use std::sync::{Mutex, PoisonError};

/// Runs every cell and returns their results in cell order.
///
/// `threads` is clamped to `1..=` the cell count; with one thread (or
/// one cell) the cells run serially on the calling thread. With more, a
/// scoped thread pool claims `(index, cell)` pairs from one shared
/// iterator, and the results are sorted back by index once every worker
/// has stopped, so the returned vector never depends on thread
/// interleaving.
///
/// # Panics
///
/// If a cell panics, the panic is propagated to the caller once all
/// threads have stopped (the behavior of [`std::thread::scope`]).
pub fn run_cells<T, F>(threads: usize, cells: Vec<F>) -> Vec<T>
where
    F: FnOnce() -> T + Send,
    T: Send,
{
    let n = cells.len();
    let threads = threads.clamp(1, n.max(1));
    if threads <= 1 {
        return cells.into_iter().map(|cell| cell()).collect();
    }
    let work = Mutex::new(cells.into_iter().enumerate());
    let done = Mutex::new(Vec::with_capacity(n));
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                // Cell bodies run outside both locks, so neither can be
                // poisoned; recover defensively anyway.
                let next = work.lock().unwrap_or_else(PoisonError::into_inner).next();
                let Some((i, cell)) = next else { break };
                let result = cell();
                done.lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .push((i, result));
            });
        }
    });
    let mut done = done.into_inner().unwrap_or_else(PoisonError::into_inner);
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, result)| result).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    #[test]
    fn serial_and_sharded_results_are_identical_and_ordered() {
        let mk = |threads: usize| {
            let cells: Vec<_> = (0..13u64).map(|i| move || (i, i * i + 7)).collect();
            run_cells(threads, cells)
        };
        let serial = mk(1);
        for threads in [2, 4, 13, 64] {
            assert_eq!(mk(threads), serial, "threads={threads}");
        }
        // Order is cell order, not completion order.
        assert_eq!(serial[0], (0, 7));
        assert_eq!(serial[12], (12, 151));
    }

    #[test]
    fn sharded_cells_overlap_in_time() {
        // Four sleeping cells on four threads must overlap even on a
        // single-CPU host: sleeping threads do not occupy the CPU, so
        // total wall stays well under the 320 ms serial sum.
        let cells: Vec<_> = (0..4)
            .map(|i| {
                move || {
                    std::thread::sleep(Duration::from_millis(80));
                    i
                }
            })
            .collect();
        let t0 = Instant::now();
        let out = run_cells(4, cells);
        let wall = t0.elapsed();
        assert_eq!(out, vec![0, 1, 2, 3]);
        assert!(
            wall < Duration::from_millis(240),
            "cells did not overlap: {wall:?}"
        );
    }

    #[test]
    fn thread_count_clamped_to_cells() {
        // More threads than cells must not deadlock or drop results.
        let cells: Vec<_> = (0..2).map(|i| move || i).collect();
        assert_eq!(run_cells(64, cells), vec![0, 1]);
        // Zero cells, any thread count.
        let empty: Vec<fn() -> i32> = Vec::new();
        assert_eq!(run_cells(4, empty), Vec::<i32>::new());
    }
}
