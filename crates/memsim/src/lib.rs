//! Linux physical-memory allocation subsystem simulator.
//!
//! This crate reimplements the allocator stack that ExplFrame (DATE 2020)
//! exploits, following the same sources the paper cites (Gorman,
//! *Understanding the Linux Virtual Memory Manager*; Bovet & Cesati,
//! *Understanding the Linux Kernel*):
//!
//! * **Zones** ([`Zone`], [`ZoneKind`]) — physical memory split into
//!   `ZONE_DMA` (first 16 MiB), `ZONE_DMA32` (16 MiB–4 GiB) and
//!   `ZONE_NORMAL` (beyond 4 GiB), with zonelist fallback ordering.
//! * **Buddy allocator** ([`BuddyAllocator`]) — power-of-two free lists with
//!   block splitting on allocation and buddy coalescing on free (the paper's
//!   Figure 1).
//! * **Per-CPU page frame cache** ([`PerCpuPages`]) — the paper's §V subject:
//!   a small per-CPU, per-zone LIFO of recently freed order-0 frames. Frees
//!   go to the *head*; the next small allocation on the same CPU pops the
//!   same frame. This is the property the whole attack rests on.
//! * **Zoned allocator front end** ([`ZonedAllocator`]) — `alloc_pages` /
//!   `free_pages` with per-CPU fast path, bulk refill, watermark-style
//!   reclaim (pcp drain) and an event trace for experiments.
//!
//! The simulator is purely logical: frames are [`Pfn`]s, no data is stored
//! here. The `machine` crate couples frames to the DRAM model.
//!
//! # Examples
//!
//! The LIFO reuse property at the heart of the exploit:
//!
//! ```
//! use memsim::{MemConfig, ZonedAllocator, Order, CpuId};
//!
//! # fn main() -> Result<(), memsim::AllocError> {
//! let mut alloc = ZonedAllocator::new(MemConfig::small_256mib());
//! let cpu = CpuId(0);
//! let a = alloc.alloc_pages(cpu, Order(0))?;
//! alloc.free_pages(cpu, a)?;
//! // The freed frame sits at the head of cpu 0's page frame cache, so the
//! // very next order-0 request on that CPU receives it again:
//! let b = alloc.alloc_pages(cpu, Order(0))?;
//! assert_eq!(a, b);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod allocator;
mod buddy;
mod error;
mod gfp;
mod pcp;
mod trace;
mod types;
mod zone;

pub use allocator::{MemConfig, ZonedAllocator};
pub use buddy::{BuddyAllocator, BuddyStats};
pub use error::AllocError;
pub use gfp::GfpFlags;
pub use pcp::{PcpConfig, PcpStats, PerCpuPages};
pub use trace::{AllocEvent, EventKind, ServedFrom, TraceLog};
pub use types::{CpuId, FrameKind, Order, Pfn, PfnRange, MAX_ORDER, PAGE_SIZE};
pub use zone::{Watermarks, Zone, ZoneKind, ZoneStats};
