//! Hot-path building blocks for the simulator: a deterministic,
//! allocation-free hasher ([`hash`]) for the substrate's integer-keyed
//! maps, [`scratch`] lists that stay off the heap when short, and the
//! copy-on-write storage ([`cow`]) that bank rows and DRAM contents are
//! forked and restored through.
//!
//! Phase cost is not measured here: each pipeline phase reports its
//! `PhaseCost` to the pipeline's observer, and `explframe-core`'s
//! `PhaseLedger` sums it per run. Nothing in this crate is process-global.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cow;
pub mod hash;

pub use hash::{BuildFastHasher, FastHasher, FastMap, FastSet};

/// A scratch list of `len` entries: the front of `inline` (a stack array at
/// the call site) when it is long enough, else `spill` resized to `len`.
/// A hot path keeps its usual short lists off the heap this way and still
/// takes any length. Entries start as whatever `inline` or `spill` held;
/// callers write before they read.
///
/// # Examples
///
/// ```
/// let (mut inline, mut spill) = ([0u32; 4], Vec::new());
/// assert_eq!(perf::scratch(&mut inline, &mut spill, 3).len(), 3);
/// assert!(spill.is_empty());
/// assert_eq!(perf::scratch(&mut inline, &mut spill, 6).len(), 6);
/// assert_eq!(spill.len(), 6);
/// ```
pub fn scratch<'a, T: Copy + Default>(
    inline: &'a mut [T],
    spill: &'a mut Vec<T>,
    len: usize,
) -> &'a mut [T] {
    if len <= inline.len() {
        &mut inline[..len]
    } else {
        spill.resize(len, T::default());
        spill
    }
}

/// Does nothing. It stands in for the process-global timing registry this
/// crate used to hold, whose last caller is the `perfbench` benchmark; it
/// goes when that caller does.
pub fn disable() {}
