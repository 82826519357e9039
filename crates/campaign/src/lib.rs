//! Deterministic parallel campaign engine for the `exp_*` experiment
//! binaries.
//!
//! Every quantitative claim of the ExplFrame reproduction is regenerated by
//! a **campaign**: N independent trials of each cell in a scenario matrix.
//! This crate centralizes the harness the nine experiment binaries used to
//! hand-roll:
//!
//! * [`Scenario`] — a named parameter cell with a pure `run_trial(seed)`;
//!   [`scenario()`] wraps a closure, [`cartesian2`]/[`cartesian3`] build
//!   condition matrices like `{same_cpu} × {sleeps} × {noisy}`.
//! * [`warm_scenario`] — a scenario whose trials fork from one shared,
//!   once-booted warm artifact (e.g. a `MachineSnapshot`) instead of
//!   re-booting per trial.
//! * [`Campaign`] — the multi-threaded runner. Workers claim grid indices
//!   one at a time, so a slow trial never serializes its neighbours.
//!   Per-trial seeds derive from the campaign seed via the SplitMix64
//!   bijection ([`trial_seed`]), and results are reduced in **trial-index
//!   order**, never completion order — so aggregates, CSVs, and summary
//!   records are byte-identical whether the grid ran on 1 thread or 64.
//! * [`Stream`] / [`Counter`] / [`wilson_ci`] — streaming count / mean /
//!   stddev / Wilson-interval aggregation for reducers.
//! * [`Table`] / [`banner`] / [`results_dir`] — aligned-table and CSV
//!   reporting.
//! * [`Summary`] — the machine-readable `results/summary.json` record:
//!   deterministic aggregates plus per-thread-count wall-clock history and
//!   `speedup_vs_serial` for the performance trajectory.
//! * [`CampaignCli`] — shared `--trials / --seed / --threads` parsing with
//!   the `EXPLFRAME_THREADS` fallback and the legacy positional trial count.
//!
//! # Example
//!
//! ```
//! use campaign::{scenario, Campaign, Counter, Summary, Table};
//!
//! // A 2-cell scenario matrix; each trial is a pure function of its seed.
//! let cells: Vec<_> = [("even", 0u64), ("odd", 1u64)]
//!     .into_iter()
//!     .map(|(name, parity)| scenario(name, move |seed| seed % 2 == parity))
//!     .collect();
//!
//! let campaign = Campaign::new(100, 42).with_threads(4);
//! let result = campaign.run(&cells);
//!
//! let mut table = Table::new("parity", &["cell", "rate"]);
//! let mut summary = Summary::new("parity_demo", &campaign);
//! for cell in &result.cells {
//!     let counter: Counter = cell.trials.iter().copied().collect();
//!     let rate = format!("{:.3}", counter.rate());
//!     table.row(&[&cell.name, &rate]);
//! }
//! summary.table("parity", &table);
//! // `table.write_csv("parity")` + `summary.write(&result)` would persist
//! // under results/ — identical bytes for any thread count.
//! # assert_eq!(result.total_trials, 200);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod json;
mod lock;
pub mod report;
pub mod runner;
pub mod scenario;
pub mod seed;
pub mod stats;
pub mod summary;
pub mod trace;
pub mod warmpool;

pub use cli::{default_threads, CampaignCli, CliError, THREADS_ENV};
pub use json::{Json, JsonError};
pub use report::{banner, fnv1a, persist, results_dir, Table};
pub use runner::{Campaign, CampaignResult, CellResult};
pub use scenario::{cartesian2, cartesian3, scenario, FnScenario, Scenario};
pub use seed::{mix64, trial_seed};
pub use stats::{mean_std, percentile, wilson_ci, Counter, Stream, Wilson};
pub use summary::{summary_path, Summary};
pub use trace::{trace_path, TraceSink};
pub use warmpool::{warm_scenario, WarmScenario};
