//! The multi-threaded campaign runner.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;
use std::time::{Duration, Instant};

use crate::scenario::Scenario;
use crate::seed::trial_seed;

/// A campaign: `trials` independent trials of every scenario cell, seeded
/// from `seed`, executed on `threads` worker threads.
///
/// Workers claim grid indices one at a time from a shared counter, so a
/// slow trial never serializes its neighbours, but results are **reduced
/// in trial-index order**: the output of [`Campaign::run`] is byte-for-byte
/// identical for every thread count, including 1. See
/// `crates/campaign/tests/determinism.rs` and the campaign-equivalence
/// suite in the workspace `tests/`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Campaign {
    /// Trials per scenario cell.
    pub trials: u32,
    /// The campaign seed; per-trial seeds derive from it via SplitMix64.
    pub seed: u64,
    /// Worker thread count (at least 1).
    pub threads: usize,
}

impl Campaign {
    /// A campaign with `trials` trials per cell from `seed`, running on
    /// [`default_threads`](crate::cli::default_threads) workers.
    #[must_use]
    pub fn new(trials: u32, seed: u64) -> Self {
        Campaign {
            trials,
            seed,
            threads: crate::cli::default_threads(),
        }
    }

    /// Overrides the worker thread count.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Runs `trials` trials of every cell and returns the per-cell results
    /// in declaration order, each cell's trials in trial-index order.
    ///
    /// The trial at cell `c`, index `t` always receives the seed
    /// `trial_seed(self.seed, c * trials + t)`, whichever worker claims it,
    /// so any reduction over the returned vectors is deterministic: the
    /// thread count affects wall-clock only, never results.
    ///
    /// # Panics
    ///
    /// Panics if any trial panics (the panic is propagated).
    pub fn run<S: Scenario>(&self, cells: &[S]) -> CampaignResult<S::Trial> {
        let trials = self.trials as usize;
        let total = cells.len() * trials;
        let threads = self.threads.clamp(1, total.max(1));
        let start = Instant::now();

        // One slot per (cell, trial) grid point; whichever worker claims an
        // index fills that index's slot. Slots — not a shared push-vector —
        // are what make the reduction order independent of completion order.
        let slots: Vec<Mutex<Option<S::Trial>>> = (0..total).map(|_| Mutex::new(None)).collect();
        // The claim counter only hands out indices (`Relaxed` suffices: slot
        // contents are published by the slot mutexes and the scope's join).
        let next = AtomicUsize::new(0);
        thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| loop {
                    let index = next.fetch_add(1, Ordering::Relaxed);
                    if index >= total {
                        break;
                    }
                    let out = cells[index / trials].run_trial(trial_seed(self.seed, index as u64));
                    *slots[index].lock().expect("slot poisoned") = Some(out);
                });
            }
        });
        let wall_clock = start.elapsed();

        let mut outputs = slots.into_iter().map(|slot| {
            slot.into_inner()
                .expect("slot poisoned")
                .expect("every claimed trial fills its slot")
        });
        let cells = cells
            .iter()
            .map(|cell| CellResult {
                name: cell.name(),
                trials: outputs.by_ref().take(trials).collect(),
            })
            .collect();
        CampaignResult {
            cells,
            threads,
            wall_clock,
            total_trials: total as u64,
        }
    }
}

/// One cell's trials, in trial-index (serial) order.
#[derive(Debug, Clone, PartialEq)]
pub struct CellResult<T> {
    /// The scenario's [`name`](crate::Scenario::name).
    pub name: String,
    /// Trial outputs, index `t` holding the trial seeded with grid index `t`.
    pub trials: Vec<T>,
}

/// Everything a campaign run produced, plus its wall-clock accounting.
#[derive(Debug, Clone)]
pub struct CampaignResult<T> {
    /// Per-cell results in declaration order.
    pub cells: Vec<CellResult<T>>,
    /// Worker threads actually used.
    pub threads: usize,
    /// Wall-clock duration of the grid execution.
    pub wall_clock: Duration,
    /// Total trials executed (`cells × trials`).
    pub total_trials: u64,
}

impl<T> CampaignResult<T> {
    /// The cell named `name`, if any.
    #[must_use]
    pub fn cell(&self, name: &str) -> Option<&CellResult<T>> {
        self.cells.iter().find(|c| c.name == name)
    }

    /// Trials per wall-clock second.
    #[must_use]
    pub fn trials_per_second(&self) -> f64 {
        let secs = self.wall_clock.as_secs_f64();
        if secs > 0.0 {
            self.total_trials as f64 / secs
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{scenario, FnScenario};

    #[test]
    fn results_arrive_in_trial_index_order() {
        let cells: Vec<_> = (0..3u64)
            .map(|c| scenario(format!("cell{c}"), move |seed| (c, seed)))
            .collect();
        let campaign = Campaign::new(5, 99).with_threads(4);
        let result = campaign.run(&cells);
        assert_eq!(result.total_trials, 15);
        for (c, cell) in result.cells.iter().enumerate() {
            assert_eq!(cell.name, format!("cell{c}"));
            for (t, &(cell_id, seed)) in cell.trials.iter().enumerate() {
                assert_eq!(cell_id, c as u64);
                assert_eq!(seed, trial_seed(99, (c * 5 + t) as u64));
            }
        }
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let cells: Vec<_> = (0..4u64)
            .map(|c| scenario(format!("c{c}"), move |seed| seed.wrapping_mul(c + 1)))
            .collect();
        let serial = Campaign::new(16, 7).with_threads(1).run(&cells);
        let parallel = Campaign::new(16, 7).with_threads(8).run(&cells);
        assert_eq!(serial.cells, parallel.cells);
    }

    /// Three cells of `trials` trials each. With `done` set, the trial at
    /// grid index 0 spins until every other trial of the grid has counted
    /// itself finished, failing after a 10 s deadline.
    fn waiting_cells(
        done: Option<&AtomicUsize>,
        trials: u32,
        seed: u64,
    ) -> Vec<FnScenario<impl Fn(u64) -> u64 + Sync + '_>> {
        let first = trial_seed(seed, 0);
        let others = 3 * trials as usize - 1;
        (0..3u32)
            .map(|c| {
                scenario(format!("c{c}"), move |seed: u64| {
                    if let Some(done) = done {
                        if seed == first {
                            let deadline = Instant::now() + Duration::from_secs(10);
                            while done.load(Ordering::SeqCst) < others {
                                assert!(
                                    Instant::now() < deadline,
                                    "the grid stalled behind trial 0"
                                );
                                thread::yield_now();
                            }
                        } else {
                            done.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                    seed.rotate_left(c)
                })
            })
            .collect()
    }

    #[test]
    fn trial_zero_can_wait_for_the_rest_of_the_grid() {
        // A static partition would hang here: trial 0's own chunk queues
        // behind it. Claiming indices one at a time lets the other workers
        // finish the grid, and the result still reduces in slot order.
        let reference = Campaign::new(8, 31)
            .with_threads(1)
            .run(&waiting_cells(None, 8, 31));
        for threads in [2, 8] {
            let done = AtomicUsize::new(0);
            let run = Campaign::new(8, 31)
                .with_threads(threads)
                .run(&waiting_cells(Some(&done), 8, 31));
            assert_eq!(run.cells, reference.cells, "threads = {threads}");
        }
    }

    #[test]
    fn a_panicking_trial_panics_the_run_after_the_grid_drains() {
        let bad = trial_seed(5, 7);
        let finished = AtomicUsize::new(0);
        let cells = vec![scenario("boom", |seed: u64| {
            assert_ne!(seed, bad, "trial 7 panics");
            finished.fetch_add(1, Ordering::SeqCst);
            seed
        })];
        let outcome = std::panic::catch_unwind(|| Campaign::new(16, 5).with_threads(4).run(&cells));
        assert!(outcome.is_err(), "the trial panic must reach the caller");
        assert_eq!(
            finished.load(Ordering::SeqCst),
            15,
            "the other workers ran every other trial"
        );
    }

    #[test]
    fn zero_trials_and_zero_cells_are_fine() {
        type ByteCell = FnScenario<fn(u64) -> u8>;
        let none: Vec<ByteCell> = Vec::new();
        let result = Campaign::new(4, 1).with_threads(2).run(&none);
        assert!(result.cells.is_empty());
        let cells = vec![scenario("empty", |seed| seed)];
        let result = Campaign::new(0, 1).with_threads(2).run(&cells);
        assert_eq!(result.cells.len(), 1);
        assert!(result.cells[0].trials.is_empty());
    }
}
