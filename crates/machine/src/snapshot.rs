//! Machine snapshot / restore / fork.
//!
//! A [`MachineSnapshot`] is a frozen clone of the *entire* simulated system
//! at one point in simulated time, cheap enough to take per campaign trial:
//!
//! * **DRAM** — data array (copy-on-write `Arc` chunks: untouched banks are
//!   shared, never copied), row buffers, disturbance counters, the simulated
//!   clock, the flip log, TRR sampler tables, ECC tracker state and the
//!   command clock with PARA and RFM (see [`dram::DramDevice`]'s `Clone`).
//! * **Caches** — every CPU's L1 + LLC contents, LRU order and counters
//!   (copy-on-write blocks of 64 sets: forks of a snapshot share every
//!   block, and a write copies out only the block it lands in; see
//!   [`cachesim::Cache`]).
//! * **Allocator** — buddy free lists, allocated-block metadata, per-CPU
//!   page frame caches in LIFO order, watermarks and the event trace.
//! * **Processes** — the full process table (VMAs, page tables, CPU pins,
//!   scheduling states) and the next-pid counter, so a restored machine
//!   hands out the same pids and virtual addresses.
//! * **TLB** — entries, LRU order and counters.
//!
//! The contract is **byte-identical replay**: any operation sequence applied
//! to a restored (or forked) machine produces exactly the state, reports and
//! traces it would have produced on the original. Attacker RNG streams are
//! part of that contract too — they are seeded from configuration
//! (`ExplFrameConfig::seed`, the DRAM weak-cell seed), which the snapshot
//! carries, so a forked trial re-derives the same streams a fresh boot
//! would. Nothing in the machine draws from an unseeded source.

use std::sync::Arc;

use crate::config::MachineConfig;
use crate::machine::SimMachine;

/// A point-in-time capture of a whole [`SimMachine`]: one frozen clone
/// behind an `Arc`.
///
/// Cloning a snapshot (as a template memo does) shares that one machine,
/// and two clones of one capture compare equal in O(1) by identity. Only
/// snapshots of distinct captures are compared state by state. The weak-cell
/// memo and the address mapping are shared by the snapshot and every
/// fork; both are pure functions of the configuration. Attacker-side RNGs
/// live *outside* the machine and are re-derived from the seed in the
/// configuration, which is captured.
///
/// # Examples
///
/// One warm boot, many byte-identical trials:
///
/// ```
/// use machine::{warm_boot, MachineConfig, SimMachine, WARMUP_PAGES};
/// use memsim::CpuId;
///
/// let warm = warm_boot(MachineConfig::small(7), CpuId(0), WARMUP_PAGES).snapshot();
/// let mut a = warm.fork();
/// let mut b = warm.fork();
/// let pa = a.spawn(CpuId(0));
/// let pb = b.spawn(CpuId(0));
/// assert_eq!(pa, pb); // same pids, same frames, same everything
/// ```
#[derive(Debug, Clone)]
pub struct MachineSnapshot(Arc<SimMachine>);

impl PartialEq for MachineSnapshot {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0) || self.0 == other.0
    }
}

impl MachineSnapshot {
    /// The configuration of the machine this snapshot came from.
    pub fn config(&self) -> &MachineConfig {
        &self.0.config
    }

    /// Builds a fresh, independent machine in this snapshot's state — the
    /// fork operation. DRAM data chunks and cache set blocks stay
    /// `Arc`-shared with the snapshot (and every other fork) until written,
    /// so a fork copies the DRAM chunk map, one pointer per cache set block
    /// and the allocator, process and TLB metadata, never memory contents
    /// or cache sets.
    pub fn fork(&self) -> SimMachine {
        (*self.0).clone()
    }
}

impl SimMachine {
    /// Captures the whole machine as a [`MachineSnapshot`].
    pub fn snapshot(&self) -> MachineSnapshot {
        MachineSnapshot(Arc::new(self.clone()))
    }

    /// Rewinds this machine to `snapshot`'s state. Subsequent operations
    /// replay byte-identically to the machine the snapshot was taken from.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot came from a machine with a different
    /// configuration.
    pub fn restore(&mut self, snapshot: &MachineSnapshot) {
        assert_eq!(
            self.config, snapshot.0.config,
            "snapshot is from a differently configured machine"
        );
        // Layer by layer, so each layer's old state is freed before the
        // next is cloned: one whole-machine clone before the drop doubles
        // the live heap and makes the allocator slow down the restore.
        let SimMachine {
            config: _,
            dram,
            caches,
            alloc,
            procs,
            next_pid,
            stats,
            tlb,
            walk,
        } = self;
        let from = &*snapshot.0;
        dram.clone_from(&from.dram);
        caches.clone_from(&from.caches);
        alloc.clone_from(&from.alloc);
        procs.clone_from(&from.procs);
        *next_pid = from.next_pid;
        *stats = from.stats;
        tlb.clone_from(&from.tlb);
        walk.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{warm_boot, WARMUP_PAGES};
    use memsim::{CpuId, PAGE_SIZE};

    fn warm() -> SimMachine {
        warm_boot(MachineConfig::small(3), CpuId(0), WARMUP_PAGES)
    }

    #[test]
    fn snapshot_restore_round_trips() {
        let mut m = warm();
        let snap = m.snapshot();
        // Mutate every layer: processes, allocator, caches, DRAM, clock.
        let p = m.spawn(CpuId(1));
        let va = m.mmap(p, 8).unwrap();
        m.fill(p, va, 8 * PAGE_SIZE, 0xEE).unwrap();
        m.sleep(p, 1_000_000).unwrap();
        m.restore(&snap);
        assert_eq!(m.snapshot(), snap);
    }

    #[test]
    fn fork_is_independent_and_identical() {
        let snap = warm().snapshot();
        let mut a = snap.fork();
        let mut b = snap.fork();
        let run = |m: &mut SimMachine| {
            let p = m.spawn(CpuId(2));
            let va = m.mmap(p, 4).unwrap();
            m.fill(p, va, 4 * PAGE_SIZE, 0x5A).unwrap();
            let frame = m.translate(p, va).unwrap();
            (p, va, frame, m.now(), m.stats())
        };
        assert_eq!(run(&mut a), run(&mut b));
        // Mutating one fork never leaks into the other or the snapshot.
        assert_ne!(a.snapshot(), snap);
        assert_eq!(snap.fork().snapshot(), snap);
    }

    #[test]
    fn fork_matches_fresh_boot_at_time_zero() {
        // A snapshot taken straight after boot forks into a machine
        // indistinguishable from a second fresh boot.
        let booted = SimMachine::new(MachineConfig::small(9));
        let forked = booted.snapshot().fork();
        assert_eq!(
            forked.snapshot(),
            SimMachine::new(MachineConfig::small(9)).snapshot()
        );
    }

    #[test]
    fn cow_dram_keeps_snapshot_bytes_after_fork_writes() {
        let mut m = warm();
        let p = m.spawn(CpuId(0));
        let va = m.mmap(p, 1).unwrap();
        m.write(p, va, b"snapshotted").unwrap();
        let snap = m.snapshot();
        // The original keeps writing over the same page...
        m.write(p, va, b"overwritten").unwrap();
        // ...but a fork still reads the snapshot-time bytes.
        let mut fork = snap.fork();
        let mut buf = [0u8; 11];
        fork.read(p, va, &mut buf).unwrap();
        assert_eq!(&buf, b"snapshotted");
    }

    #[test]
    #[should_panic(expected = "differently configured machine")]
    fn restore_rejects_mismatched_config() {
        let snap = SimMachine::new(MachineConfig::small(1)).snapshot();
        let mut other = SimMachine::new(MachineConfig::small(2));
        other.restore(&snap);
    }
}
