//! `SimMachine`: the composed system the ExplFrame attack runs on.
//!
//! This crate wires the three substrates together into one deterministic
//! machine:
//!
//! * [`dram`] — the DRAM device with Rowhammer physics,
//! * [`cachesim`] — per-CPU cache hierarchies (misses activate DRAM rows),
//! * [`memsim`] — the Linux zoned/buddy/per-CPU-page-cache allocator,
//!
//! and adds the OS-process layer the paper's §V scenario needs:
//!
//! * **Processes** with anonymous `mmap`/`munmap` and demand paging — a frame
//!   is only allocated on first touch ("the program must store some data into
//!   the allocated pages, otherwise the physical page frames will not be
//!   allocated", §V), and `munmap` of a single page frees exactly that frame
//!   into the CPU's page frame cache.
//! * **CPU pinning and activity states** — each process is pinned to a CPU;
//!   a sleeping process's CPU may have its pcp lists drained by the idle
//!   kernel ([`IdleDrainPolicy`]), reproducing the paper's "the adversarial
//!   process must remain active" caveat.
//! * **The hammer primitive** — access + `clflush` so every iteration
//!   reaches DRAM, plus a bulk equivalent for large sweeps.
//! * **DRAM-resident page tables** (opt-in via
//!   [`MachineConfig::with_dram_page_tables`]) — processes own real radix
//!   table frames; every translation walks 8-byte PTEs stored in simulated
//!   DRAM behind a set-associative TLB, and 2 MiB huge mappings
//!   ([`SimMachine::mmap_huge`]) collapse the walk to one level. Table
//!   frames are ordinary DRAM rows, so Rowhammer flips in them redirect
//!   translation — the PTE-flip privilege-escalation family
//!   ([`SimMachine::translate_walk`] vs [`SimMachine::translate`]).
//!
//! # Examples
//!
//! ```
//! use machine::{MachineConfig, SimMachine};
//! use memsim::CpuId;
//!
//! # fn main() -> Result<(), machine::MachineError> {
//! let mut m = SimMachine::new(MachineConfig::small(42));
//! let attacker = m.spawn(CpuId(0));
//! let victim = m.spawn(CpuId(0));
//!
//! // Attacker maps a page, touches it, then releases it...
//! let va = m.mmap(attacker, 1)?;
//! m.write(attacker, va, b"secret-frame")?;
//! let frame = m.translate(attacker, va).expect("touched page is mapped");
//! m.munmap(attacker, va, 1)?;
//!
//! // ...and the victim's very next small allocation receives the frame.
//! let vv = m.mmap(victim, 1)?;
//! m.write(victim, vv, b"victim data")?;
//! assert_eq!(m.translate(victim, vv), Some(frame));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod error;
mod machine;
mod pagetable;
mod process;
mod readrun;
mod snapshot;
mod stats;

pub use config::{IdleDrainPolicy, MachineConfig};
pub use error::MachineError;
pub use machine::{warm_boot, warmup, warmup_on, SimMachine, WARMUP_PAGES, WARMUP_PAGES_STEERING};
pub use process::{Pid, ProcState, Process, VirtAddr, Vma};
pub use readrun::ReadRun;
pub use snapshot::MachineSnapshot;
pub use stats::MachineStats;
