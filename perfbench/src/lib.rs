//! The repository benchmark for the ExplFrame attack simulator.
//!
//! One run boots a named workload, checks its attack reports against a
//! reference pass (and, at the default seed, against pinned digests), and
//! measures either the end-to-end metrics (`--trace 0`) or, in a separate
//! traced pass, the per-layer metrics (`--trace 1`). Every layer is
//! measured from outside: spans time calls into public functions, and
//! counters are deltas of the public `*Stats` structs. The in-process
//! `perf` registry is never read and is forced off.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod metrics;
pub mod pins;
pub mod probe;
pub mod run;
pub mod speed;
pub mod trace;
pub mod workload;

pub use run::{run, Options, Outcome, DEFAULT_SEED};
pub use workload::Workload;
