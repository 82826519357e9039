//! Hot-path building blocks for the simulator: a deterministic,
//! allocation-free hasher ([`hash`]) for the substrate's integer-keyed
//! maps.
//!
//! Phase cost is not measured here: each pipeline phase reports its
//! `PhaseCost` to the pipeline's observer, and `explframe-core`'s
//! `PhaseLedger` sums it per run. Nothing in this crate is process-global.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod hash;

pub use hash::{BuildFastHasher, FastHasher, FastMap, FastSet};

/// Does nothing. It stands in for the process-global timing registry this
/// crate used to hold, whose last caller is the `perfbench` benchmark; it
/// goes when that caller does.
pub fn disable() {}
