//! Experiment harness facade: thin re-exports over the [`campaign`] crate.
//!
//! Each binary in `src/bin/` regenerates one figure or quantitative claim of
//! the paper (see `DESIGN.md` §4 for the index and `EXPERIMENTS.md` for
//! recorded outputs). Since the campaign refactor every binary is a scenario
//! declaration plus a reducer: the shared trial loop, seed derivation,
//! parallel execution, table/CSV output, and `results/summary.json` record
//! all live in `crates/campaign`. All binaries accept
//! `--trials / --seed / --threads` (plus the legacy bare positional trial
//! count) and produce byte-identical output for every thread count.
//!
//! The names below are re-exported so older code and scripts importing
//! `explframe_bench::{Table, banner, ...}` keep compiling; new code should
//! use the `campaign` crate directly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use campaign::{banner, mean_std, percentile, results_dir, Table};
