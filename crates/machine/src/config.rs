//! Machine configuration: consistent DRAM + allocator + cache settings.

use cachesim::{CacheConfig, TlbConfig};
use dram::DramConfig;
use memsim::MemConfig;

/// What happens to a CPU's page frame cache while it has no runnable
/// process (its process sleeps).
///
/// The paper (§V) notes the adversary "must remain active rather than going
/// into inactive state (sleeping)" because the kernel reclaims an idle CPU's
/// cached state. This policy models that reclaim.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum IdleDrainPolicy {
    /// The idle kernel drains the sleeping CPU's pcp lists (realistic
    /// default; `vmstat` workers do this on idle CPUs).
    #[default]
    DrainOnSleep,
    /// pcp lists survive sleep untouched (optimistic for the attacker;
    /// useful as an ablation).
    Keep,
}

/// Full configuration of a [`crate::SimMachine`].
///
/// The DRAM capacity and the allocator's `total_bytes` must agree; the
/// presets guarantee it.
///
/// # Examples
///
/// ```
/// use machine::MachineConfig;
/// let cfg = MachineConfig::small(7);
/// assert_eq!(cfg.dram.geometry.capacity_bytes(), cfg.mem.total_bytes);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MachineConfig {
    /// DRAM device settings (geometry, mapping, weak cells, timing).
    pub dram: DramConfig,
    /// Allocator settings (zones derive from total size; pcp tuning).
    pub mem: MemConfig,
    /// Per-CPU L1 configuration.
    pub l1: CacheConfig,
    /// Shared-shape LLC configuration (modelled per CPU for simplicity;
    /// the attack never relies on cross-CPU cache interference).
    pub llc: CacheConfig,
    /// Idle reclaim behaviour.
    pub idle_drain: IdleDrainPolicy,
    /// Model page tables as allocator-owned frames whose PTEs live in
    /// simulated DRAM (off by default: translation uses only the in-kernel
    /// shadow map, and machine behaviour is byte-identical to builds that
    /// predate the walk).
    pub dram_page_tables: bool,
    /// TLB geometry for the translation fast path (both modes; with the
    /// walk on, a TLB hit is what skips the PTE fetches).
    pub tlb: TlbConfig,
}

impl MachineConfig {
    /// 256 MiB machine, 4 CPUs, flippy DRAM — fast tests and demos.
    pub fn small(seed: u64) -> Self {
        MachineConfig {
            dram: DramConfig::small().with_seed(seed),
            mem: MemConfig::small_256mib(),
            l1: CacheConfig::l1_32k(),
            llc: CacheConfig::llc_8m(),
            idle_drain: IdleDrainPolicy::default(),
            dram_page_tables: false,
            tlb: TlbConfig::small(),
        }
    }

    /// 1 GiB machine, 4 CPUs, moderate DRAM — paper-scale experiments.
    pub fn medium(seed: u64) -> Self {
        MachineConfig {
            dram: DramConfig::medium_1gib().with_seed(seed),
            mem: MemConfig::medium_1gib(),
            ..Self::small(seed)
        }
    }

    /// 4 GiB machine, 4 CPUs, moderate DRAM.
    pub fn desktop(seed: u64) -> Self {
        MachineConfig {
            dram: DramConfig::desktop_4gib().with_seed(seed),
            mem: MemConfig::desktop_4gib(),
            ..Self::small(seed)
        }
    }

    /// Returns a copy with a different idle-drain policy.
    pub fn with_idle_drain(mut self, policy: IdleDrainPolicy) -> Self {
        self.idle_drain = policy;
        self
    }

    /// Returns a copy with DRAM-resident page tables switched on or off.
    /// On, processes own real table frames, every translation walks PTE
    /// bytes stored in simulated DRAM, and `mmap` is confined to the
    /// 2-level walk's 1 GiB window.
    #[must_use]
    pub fn with_dram_page_tables(mut self, on: bool) -> Self {
        self.dram_page_tables = on;
        self
    }

    /// Returns a copy with a different TLB geometry.
    #[must_use]
    pub fn with_tlb(mut self, tlb: TlbConfig) -> Self {
        self.tlb = tlb;
        self
    }

    /// Returns `true` if DRAM capacity and allocator size agree.
    pub fn is_consistent(&self) -> bool {
        self.dram.geometry.capacity_bytes() == self.mem.total_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_consistent() {
        assert!(MachineConfig::small(1).is_consistent());
        assert!(MachineConfig::medium(1).is_consistent());
        assert!(MachineConfig::desktop(1).is_consistent());
    }

    #[test]
    fn policy_override() {
        let c = MachineConfig::small(1).with_idle_drain(IdleDrainPolicy::Keep);
        assert_eq!(c.idle_drain, IdleDrainPolicy::Keep);
    }
}
