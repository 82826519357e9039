//! Physically-indexed CPU cache model with `clflush`.
//!
//! Rowhammer only works when accesses actually reach DRAM: a cached load
//! never issues a row activation. The paper's hammer loop therefore pairs
//! every access with a cache-line flush (`clflush`). This crate provides the
//! cache layer that enforces that behaviour in the simulation:
//!
//! * [`Cache`] — one set-associative, physically-indexed cache with LRU
//!   replacement and per-line flush.
//! * [`CacheHierarchy`] — an inclusive L1 + LLC stack; an access that hits at
//!   any level never reaches memory.
//! * [`Tlb`] — a small set-associative, process-tagged TLB the machine layer
//!   consults before walking DRAM-resident page tables.
//!
//! Addresses are raw `u64` physical addresses; the machine layer converts
//! from its typed addresses. The hierarchy reports *where* an access was
//! served ([`ServedBy`]); coupling a `ServedBy::Memory` result to a DRAM row
//! activation is the caller's job (see the `machine` crate).
//!
//! # Examples
//!
//! ```
//! use cachesim::{Cache, CacheConfig, Lookup};
//!
//! let mut c = Cache::new(CacheConfig::tiny());
//! assert!(matches!(c.access(0x1000), Lookup::Miss { .. }));
//! assert!(matches!(c.access(0x1000), Lookup::Hit));
//! c.flush_line(0x1000);
//! assert!(matches!(c.access(0x1000), Lookup::Miss { .. }));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod config;
mod hierarchy;
mod stats;
mod tlb;

pub use cache::{Cache, Lookup};
pub use config::CacheConfig;
pub use hierarchy::{CacheHierarchy, ServedBy};
pub use stats::CacheStats;
pub use tlb::{Tlb, TlbConfig, TlbEntry, TlbStats};
