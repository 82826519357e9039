//! The composed simulated machine.

use std::collections::BTreeMap;

use cachesim::{CacheHierarchy, ServedBy, Tlb};
use dram::{DramDevice, HammerOutcome, Nanos, PhysAddr};
use memsim::{CpuId, FrameKind, Order, Pfn, ZonedAllocator, PAGE_SIZE};

use crate::config::{IdleDrainPolicy, MachineConfig};
use crate::error::MachineError;
use crate::pagetable::{self, Pte};
use crate::process::{Pid, ProcState, Process, VirtAddr, HUGE_PAGES, MMAP_BASE};
use crate::stats::MachineStats;

/// Cost of a demand-paging fault (allocation + zeroing + PTE install).
const FAULT_NS: Nanos = 1_200;
/// Cost of a `clflush`.
const CLFLUSH_NS: Nanos = 5;
/// Buddy order of a 2 MiB huge chunk (`2^9` pages = [`HUGE_PAGES`]).
const HUGE_ORDER: u8 = 9;

/// What one [`SimMachine::read_byte_scalar`] did besides returning the
/// byte — enough for a [`crate::ReadRun`] to tell which memos still hold.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ScalarRead {
    pub(crate) byte: u8,
    pub(crate) phys: PhysAddr,
    pub(crate) cpu: CpuId,
    pub(crate) served: ServedBy,
}

/// The simulated system: DRAM + per-CPU caches + the Linux allocator +
/// processes with demand paging.
///
/// All operations are deterministic; simulated time only advances through
/// explicit operations (memory traffic, faults, sleeps). See the crate-level
/// documentation for an end-to-end example.
#[derive(Debug)]
pub struct SimMachine {
    pub(crate) config: MachineConfig,
    pub(crate) dram: DramDevice,
    pub(crate) caches: Vec<CacheHierarchy>,
    pub(crate) alloc: ZonedAllocator,
    pub(crate) procs: BTreeMap<Pid, Process>,
    pub(crate) next_pid: u32,
    pub(crate) stats: MachineStats,
    /// Translation cache over the process table / DRAM-resident walk. A
    /// live entry implies the pid is alive and the mapping valid —
    /// [`SimMachine::munmap`] shoots down exactly the unmapped `(pid, vpn)`
    /// range, [`SimMachine::exit`] drops the dead pid's entries, and
    /// snapshot restore replaces the whole TLB; unrelated processes keep
    /// their entries (and their hit-rate statistics) across a victim's
    /// `munmap`. Cipher table walks hit the same few pages for thousands of
    /// consecutive byte reads, so hits skip the B-tree lookups (and, with
    /// DRAM page tables on, the PTE fetches).
    pub(crate) tlb: Tlb,
}

impl SimMachine {
    /// Builds a machine from `config`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent (DRAM capacity differs
    /// from the allocator's total memory).
    pub fn new(config: MachineConfig) -> Self {
        assert!(
            config.is_consistent(),
            "DRAM capacity ({}) and allocator size ({}) must agree",
            config.dram.geometry.capacity_bytes(),
            config.mem.total_bytes
        );
        let caches = (0..config.mem.cpus)
            .map(|_| CacheHierarchy::new(config.l1, config.llc))
            .collect();
        SimMachine {
            dram: DramDevice::new(config.dram),
            caches,
            alloc: ZonedAllocator::new(config.mem),
            procs: BTreeMap::new(),
            next_pid: 1,
            tlb: Tlb::new(config.tlb),
            config,
            stats: MachineStats::default(),
        }
    }

    /// The machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// Current simulated time (ns).
    pub fn now(&self) -> Nanos {
        self.dram.now()
    }

    /// Advances simulated time by `ns` without any memory traffic.
    pub fn advance(&mut self, ns: Nanos) {
        self.dram.advance(ns);
    }

    /// Machine counters.
    pub fn stats(&self) -> MachineStats {
        self.stats
    }

    /// The DRAM device (for flip logs, weak-cell oracles, DRAM stats).
    pub fn dram(&self) -> &DramDevice {
        &self.dram
    }

    /// Mutable DRAM access (experiment oracles).
    pub fn dram_mut(&mut self) -> &mut DramDevice {
        &mut self.dram
    }

    /// The allocator (zone/pcp introspection, traces).
    pub fn allocator(&self) -> &ZonedAllocator {
        &self.alloc
    }

    /// Mutable allocator access (trace control, forced drains).
    pub fn allocator_mut(&mut self) -> &mut ZonedAllocator {
        &mut self.alloc
    }

    /// Number of CPUs.
    pub fn cpu_count(&self) -> u32 {
        self.config.mem.cpus
    }

    // ------------------------------------------------------------------
    // Process lifecycle
    // ------------------------------------------------------------------

    /// Spawns a process pinned to `cpu`. With DRAM-resident page tables on,
    /// the kernel allocates (and zeroes) the process's root table frame
    /// here — `spawn` itself consumes the head of `cpu`'s page frame cache,
    /// which steering compositions must account for.
    ///
    /// # Panics
    ///
    /// Panics if `cpu` is out of range, or if the machine is so small that
    /// a root table frame cannot be allocated (a configuration bug).
    pub fn spawn(&mut self, cpu: CpuId) -> Pid {
        assert!(cpu.0 < self.cpu_count(), "cpu {cpu} out of range");
        let pid = Pid(self.next_pid);
        self.next_pid += 1;
        self.procs.insert(pid, Process::new(pid, cpu));
        if self.config.dram_page_tables {
            let root = self
                .alloc
                .alloc_pages_kind(cpu, Order(0), FrameKind::PageTable)
                .expect("out of memory allocating a root page table");
            self.dram
                .fill(PhysAddr::new(root.phys_addr()), PAGE_SIZE, 0);
            self.procs
                .get_mut(&pid)
                .expect("just inserted")
                .set_root_table(root);
        }
        pid
    }

    /// The process table entry for `pid`.
    ///
    /// # Errors
    ///
    /// Returns [`MachineError::NoSuchProcess`] if the pid is unknown.
    pub fn process(&self, pid: Pid) -> Result<&Process, MachineError> {
        self.procs
            .get(&pid)
            .ok_or(MachineError::NoSuchProcess { pid })
    }

    fn process_mut(&mut self, pid: Pid) -> Result<&mut Process, MachineError> {
        self.procs
            .get_mut(&pid)
            .ok_or(MachineError::NoSuchProcess { pid })
    }

    /// Terminates `pid`, freeing every resident frame (huge mappings free
    /// their order-9 blocks whole) and, with DRAM-resident page tables on,
    /// the process's page-table frames.
    ///
    /// # Errors
    ///
    /// Returns [`MachineError::NoSuchProcess`] if the pid is unknown.
    pub fn exit(&mut self, pid: Pid) -> Result<(), MachineError> {
        // Pids are never reused, so dropping exactly this pid's entries is a
        // complete shootdown; other processes keep their translations.
        self.tlb.invalidate_pid(u64::from(pid.0));
        let proc = self
            .procs
            .remove(&pid)
            .ok_or(MachineError::NoSuchProcess { pid })?;
        let cpu = proc.cpu();
        let mut freed_blocks = std::collections::BTreeSet::new();
        for (vpn, pfn) in proc.resident() {
            let huge = proc.vma_of(vpn).is_some_and(|(_, vma)| vma.huge);
            if huge {
                // 512 resident entries share one order-9 block; free it once.
                let block = Pfn(pfn.0 & !(HUGE_PAGES - 1));
                if freed_blocks.insert(block) {
                    self.alloc.free_pages(cpu, block)?;
                }
            } else {
                self.alloc.free_pages(cpu, pfn)?;
            }
        }
        for table in proc.table_frames() {
            self.alloc.free_pages(cpu, table)?;
        }
        Ok(())
    }

    /// Puts `pid` to sleep for `ns`. If its CPU has no other active process,
    /// the idle kernel may drain that CPU's page frame caches (per
    /// [`IdleDrainPolicy`]) — the paper's "must remain active" hazard.
    ///
    /// The process is awake again when the call returns.
    ///
    /// # Errors
    ///
    /// Returns [`MachineError::NoSuchProcess`] if the pid is unknown.
    pub fn sleep(&mut self, pid: Pid, ns: Nanos) -> Result<(), MachineError> {
        let cpu = self.process(pid)?.cpu();
        self.process_mut(pid)?.set_state(ProcState::Sleeping);
        self.stats.sleeps += 1;
        let cpu_idle = !self
            .procs
            .values()
            .any(|p| p.cpu() == cpu && p.state() == ProcState::Active);
        if cpu_idle && self.config.idle_drain == IdleDrainPolicy::DrainOnSleep {
            self.alloc.drain_cpu(cpu);
        }
        self.advance(ns);
        self.process_mut(pid)?.set_state(ProcState::Active);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Virtual memory
    // ------------------------------------------------------------------

    /// The highest VPN (exclusive) a reservation may end at: with
    /// DRAM-resident page tables, the 2-level walk's window; otherwise the
    /// whole address space.
    fn max_end_vpn(&self) -> u64 {
        if self.config.dram_page_tables {
            MMAP_BASE / PAGE_SIZE + pagetable::WINDOW_PAGES
        } else {
            u64::MAX
        }
    }

    /// Maps `pages` of anonymous memory; physical frames are only assigned
    /// on first touch.
    ///
    /// # Errors
    ///
    /// * [`MachineError::NoSuchProcess`] — unknown pid.
    /// * [`MachineError::AddressOverflow`] — the reservation would wrap the
    ///   address space, or (with DRAM-resident page tables) exceed the
    ///   walkable window.
    pub fn mmap(&mut self, pid: Pid, pages: u64) -> Result<VirtAddr, MachineError> {
        let max_end = self.max_end_vpn();
        self.process_mut(pid)?
            .reserve(pages, false, max_end)
            .ok_or(MachineError::AddressOverflow { pid })
    }

    /// Maps `chunks` 2 MiB huge mappings (512 pages each, 512-aligned
    /// base). A huge chunk is faulted in as one order-9 block on first
    /// touch and — with DRAM-resident page tables — mapped by a single
    /// root-level PTE, collapsing the walk to one level. Huge VMAs can only
    /// be unmapped whole.
    ///
    /// # Errors
    ///
    /// Same as [`Self::mmap`].
    pub fn mmap_huge(&mut self, pid: Pid, chunks: u64) -> Result<VirtAddr, MachineError> {
        let max_end = self.max_end_vpn();
        let pages = chunks
            .checked_mul(HUGE_PAGES)
            .ok_or(MachineError::AddressOverflow { pid })?;
        self.process_mut(pid)?
            .reserve(pages, true, max_end)
            .ok_or(MachineError::AddressOverflow { pid })
    }

    /// Unmaps `pages` starting at `addr` (which must be page-aligned within
    /// one VMA; huge VMAs unmap only whole). Touched frames are freed —
    /// order-0 (or the whole order-9 block for huge chunks), so they land
    /// at the head of this CPU's page frame cache / buddy lists. With
    /// DRAM-resident page tables, the covering PTEs are cleared in DRAM.
    ///
    /// # Errors
    ///
    /// * [`MachineError::NoSuchProcess`] — unknown pid.
    /// * [`MachineError::BadUnmap`] — range not fully inside a live VMA, or
    ///   a partial unmap of a huge VMA.
    pub fn munmap(&mut self, pid: Pid, addr: VirtAddr, pages: u64) -> Result<(), MachineError> {
        // Targeted shootdown: only the unmapped (pid, vpn) range leaves the
        // TLB. Flushing wholesale here would wipe every other process's
        // entries too, skewing hit-rate statistics and masking stale-entry
        // bugs behind over-invalidation.
        self.tlb
            .invalidate_range(u64::from(pid.0), addr.vpn(), pages);
        let proc = self.process(pid)?;
        let cpu = proc.cpu();
        let huge = proc.vma_of(addr.vpn()).is_some_and(|(_, vma)| vma.huge);
        let freed = self
            .process_mut(pid)?
            .remove_range(addr, pages)
            .ok_or(MachineError::BadUnmap { pid, addr })?;
        if self.config.dram_page_tables {
            self.clear_ptes(pid, &freed, huge);
        }
        if huge {
            let mut freed_blocks = std::collections::BTreeSet::new();
            for (_, pfn) in freed {
                let block = Pfn(pfn.0 & !(HUGE_PAGES - 1));
                if freed_blocks.insert(block) {
                    self.alloc.free_pages(cpu, block)?;
                }
            }
        } else {
            for (_, pfn) in freed {
                self.alloc.free_pages(cpu, pfn)?;
            }
        }
        Ok(())
    }

    /// Zeroes the DRAM PTEs covering `freed` pages: each touched base page's
    /// leaf slot, or — for huge VMAs — each chunk's root slot, once.
    fn clear_ptes(&mut self, pid: Pid, freed: &[(u64, Pfn)], huge: bool) {
        let Some(proc) = self.procs.get(&pid) else {
            return;
        };
        let Some(root) = proc.root_table() else {
            return;
        };
        let mut slots = Vec::new();
        for &(vpn, _) in freed {
            let Some(rel) = pagetable::rel_vpn(vpn) else {
                continue;
            };
            let root_idx = pagetable::root_index(rel);
            let slot = if huge {
                pagetable::pte_addr(root, root_idx)
            } else {
                match proc.leaf_table(root_idx) {
                    Some(leaf) => pagetable::pte_addr(leaf, pagetable::leaf_index(rel)),
                    None => continue,
                }
            };
            slots.push(slot);
        }
        slots.dedup();
        for slot in slots {
            self.dram.write(PhysAddr::new(slot), &Pte(0).to_bytes());
        }
    }

    /// Virtual→physical translation, if the page has been touched.
    ///
    /// This is the simulator's `/proc/<pid>/pagemap` oracle; note that since
    /// Linux 4.0 reading it needs `CAP_SYS_ADMIN`, which is exactly why the
    /// attack works *without* calling this (paper §VI).
    pub fn translate(&self, pid: Pid, addr: VirtAddr) -> Option<PhysAddr> {
        let proc = self.procs.get(&pid)?;
        let pfn = proc.frame_of(addr)?;
        Some(PhysAddr::new(pfn.phys_addr() + addr.page_offset()))
    }

    /// The *hardware's* view of a translation: with DRAM-resident page
    /// tables on, walks the live PTE bytes (no timing, no cache traffic,
    /// no faulting — a pure probe) and decodes whatever they say now. A
    /// divergence from [`Self::translate`]'s shadow pagemap is the PTE-flip
    /// attack signal: the walk has been redirected to a frame the kernel
    /// never granted. Returns `None` for non-present entries and for
    /// corrupt entries decoding outside DRAM. Feature-off it falls back to
    /// the shadow map (both views are the same structure then).
    ///
    /// # Errors
    ///
    /// Returns [`MachineError::NoSuchProcess`] if the pid is unknown.
    pub fn translate_walk(
        &mut self,
        pid: Pid,
        addr: VirtAddr,
    ) -> Result<Option<PhysAddr>, MachineError> {
        if !self.config.dram_page_tables {
            return Ok(self.translate(pid, addr));
        }
        let proc = self.process(pid)?;
        let Some(root) = proc.root_table() else {
            return Ok(None);
        };
        let Some(rel) = pagetable::rel_vpn(addr.vpn()) else {
            return Ok(None);
        };
        let root_idx = pagetable::root_index(rel);
        let leaf_idx = pagetable::leaf_index(rel);
        let cap = self.config.dram.geometry.capacity_bytes();
        let mut bytes = [0u8; 8];
        self.dram.read(
            PhysAddr::new(pagetable::pte_addr(root, root_idx)),
            &mut bytes,
        );
        let root_pte = Pte::from_bytes(bytes);
        if !root_pte.present() {
            return Ok(None);
        }
        if root_pte.is_huge() {
            let phys = root_pte.frame().phys_addr() + leaf_idx * PAGE_SIZE + addr.page_offset();
            return Ok((phys < cap).then(|| PhysAddr::new(phys)));
        }
        let table = root_pte.frame();
        if table.phys_addr() + PAGE_SIZE > cap {
            return Ok(None);
        }
        self.dram.read(
            PhysAddr::new(pagetable::pte_addr(table, leaf_idx)),
            &mut bytes,
        );
        let leaf_pte = Pte::from_bytes(bytes);
        if !leaf_pte.present() {
            return Ok(None);
        }
        let phys = leaf_pte.frame().phys_addr() + addr.page_offset();
        Ok((phys < cap).then(|| PhysAddr::new(phys)))
    }

    /// Physical address of the DRAM PTE slot that maps `addr` — the cell a
    /// PTE-flip campaign aims its templating at. For huge VMAs this is the
    /// root-table slot; otherwise the leaf slot (known once the leaf table
    /// exists, i.e. after any page under that root slot has been touched).
    /// `None` feature-off, outside the window, or before the covering table
    /// exists.
    pub fn pte_phys(&self, pid: Pid, addr: VirtAddr) -> Option<PhysAddr> {
        if !self.config.dram_page_tables {
            return None;
        }
        let proc = self.procs.get(&pid)?;
        let root = proc.root_table()?;
        let rel = pagetable::rel_vpn(addr.vpn())?;
        let root_idx = pagetable::root_index(rel);
        let (_, vma) = proc.vma_of(addr.vpn())?;
        if vma.huge {
            return Some(PhysAddr::new(pagetable::pte_addr(root, root_idx)));
        }
        let leaf = proc.leaf_table(root_idx)?;
        Some(PhysAddr::new(pagetable::pte_addr(
            leaf,
            pagetable::leaf_index(rel),
        )))
    }

    /// Flushes the TLB — the shootdown a campaign models after hammering a
    /// table frame, so victims stop reading through stale entries and the
    /// next access takes the (now corrupted) walk.
    pub fn flush_tlb(&mut self) {
        self.tlb.flush();
    }

    /// The translation cache (hit/miss/eviction counters, residency).
    pub fn tlb(&self) -> &Tlb {
        &self.tlb
    }

    /// Faults in the page containing `addr` if needed and returns its
    /// physical address (demand paging: allocate order-0 on this CPU, zero
    /// the frame, install the PTE).
    ///
    /// # Errors
    ///
    /// * [`MachineError::NoSuchProcess`] — unknown pid.
    /// * [`MachineError::Unmapped`] — `addr` outside every VMA.
    /// * [`MachineError::Alloc`] — out of physical memory.
    pub fn touch(&mut self, pid: Pid, addr: VirtAddr) -> Result<PhysAddr, MachineError> {
        if self.config.dram_page_tables {
            return self.touch_walk(pid, addr);
        }
        let proc = self.process(pid)?;
        let Some((_, vma)) = proc.vma_of(addr.vpn()) else {
            return Err(MachineError::Unmapped { pid, addr });
        };
        if let Some(pfn) = proc.frame_of(addr) {
            return Ok(PhysAddr::new(pfn.phys_addr() + addr.page_offset()));
        }
        let cpu = proc.cpu();
        if vma.huge {
            return self.fault_huge_chunk(pid, addr, cpu, None);
        }
        let pfn = self.alloc.alloc_pages(cpu, Order(0))?;
        // Anonymous pages are zero-filled by the kernel.
        self.dram.fill(PhysAddr::new(pfn.phys_addr()), PAGE_SIZE, 0);
        self.process_mut(pid)?.install(addr.vpn(), pfn);
        self.stats.page_faults += 1;
        self.advance(FAULT_NS);
        Ok(PhysAddr::new(pfn.phys_addr() + addr.page_offset()))
    }

    /// [`Self::touch`] with DRAM-resident page tables: resolves `addr`
    /// through the 2-level radix walk, reading PTE bytes from simulated
    /// DRAM (and charging cache-modelled fetch traffic for them), faulting
    /// absent levels in on demand. Because the PTE fetch reads the *live*
    /// DRAM cells, a Rowhammer flip in a table frame redirects this path
    /// immediately — the escalation primitive `exp_t15_ptflip` builds on.
    fn touch_walk(&mut self, pid: Pid, addr: VirtAddr) -> Result<PhysAddr, MachineError> {
        let proc = self.process(pid)?;
        let cpu = proc.cpu();
        let root = proc
            .root_table()
            .expect("dram_page_tables processes always own a root table");
        let Some((_, vma)) = proc.vma_of(addr.vpn()) else {
            return Err(MachineError::Unmapped { pid, addr });
        };
        let rel = pagetable::rel_vpn(addr.vpn()).ok_or(MachineError::AddressOverflow { pid })?;
        let root_idx = pagetable::root_index(rel);
        let leaf_idx = pagetable::leaf_index(rel);
        let root_slot = pagetable::pte_addr(root, root_idx);
        let root_pte = Pte(self.walk_read_pte(cpu, root_slot));
        if root_pte.present() && root_pte.is_huge() {
            let phys = root_pte.frame().phys_addr() + leaf_idx * PAGE_SIZE + addr.page_offset();
            return self.guard_phys(pid, addr, phys);
        }
        if vma.huge {
            // First touch of a huge chunk: map the whole 2 MiB behind one
            // root-level PTE — the walk for it is now a single DRAM fetch.
            return self.fault_huge_chunk(pid, addr, cpu, Some(root_slot));
        }
        let leaf_table = if root_pte.present() {
            let t = root_pte.frame();
            // A flipped root PTE can point anywhere; a decode outside DRAM
            // is the segfault analog, surfaced rather than masked.
            self.guard_phys(pid, addr, t.phys_addr() + PAGE_SIZE - 1)?;
            t
        } else {
            let t = self
                .alloc
                .alloc_pages_kind(cpu, Order(0), FrameKind::PageTable)?;
            self.dram.fill(PhysAddr::new(t.phys_addr()), PAGE_SIZE, 0);
            self.write_pte(root_slot, Pte::table(t));
            self.process_mut(pid)?.set_leaf_table(root_idx, t);
            t
        };
        let leaf_slot = pagetable::pte_addr(leaf_table, leaf_idx);
        let leaf_pte = Pte(self.walk_read_pte(cpu, leaf_slot));
        if leaf_pte.present() {
            let phys = leaf_pte.frame().phys_addr() + addr.page_offset();
            return self.guard_phys(pid, addr, phys);
        }
        let pfn = self.alloc.alloc_pages(cpu, Order(0))?;
        self.dram.fill(PhysAddr::new(pfn.phys_addr()), PAGE_SIZE, 0);
        self.write_pte(leaf_slot, Pte::leaf(pfn));
        self.process_mut(pid)?.install(addr.vpn(), pfn);
        self.stats.page_faults += 1;
        self.advance(FAULT_NS);
        Ok(PhysAddr::new(pfn.phys_addr() + addr.page_offset()))
    }

    /// Demand-faults the whole 2 MiB chunk containing `addr`: one order-9
    /// block, one fault, 512 shadow-pagemap entries — and, when `root_slot`
    /// is given (walk mode), one huge root PTE written to DRAM.
    fn fault_huge_chunk(
        &mut self,
        pid: Pid,
        addr: VirtAddr,
        cpu: CpuId,
        root_slot: Option<u64>,
    ) -> Result<PhysAddr, MachineError> {
        // Huge VMAs are chunk-aligned by `reserve`, so masking the VPN
        // lands on the chunk base.
        let chunk_start = addr.vpn() & !(HUGE_PAGES - 1);
        let block = self.alloc.alloc_pages(cpu, Order(HUGE_ORDER))?;
        self.dram
            .fill(PhysAddr::new(block.phys_addr()), HUGE_PAGES * PAGE_SIZE, 0);
        if let Some(slot) = root_slot {
            self.write_pte(slot, Pte::huge(block));
        }
        let proc = self.process_mut(pid)?;
        for i in 0..HUGE_PAGES {
            proc.install(chunk_start + i, Pfn(block.0 + i));
        }
        self.stats.page_faults += 1;
        self.advance(FAULT_NS);
        let in_chunk = addr.vpn() - chunk_start;
        Ok(PhysAddr::new(
            block.phys_addr() + in_chunk * PAGE_SIZE + addr.page_offset(),
        ))
    }

    /// One PTE fetch during a walk: cache-modelled traffic on the slot's
    /// line, then the live bytes from DRAM (the cache models *time*, not
    /// contents — a hammered flip is visible on the very next walk).
    fn walk_read_pte(&mut self, cpu: CpuId, slot: u64) -> u64 {
        let pa = PhysAddr::new(slot);
        self.cached_access(cpu, pa);
        let mut bytes = [0u8; 8];
        self.dram.read(pa, &mut bytes);
        u64::from_le_bytes(bytes)
    }

    /// Stores a PTE's wire bytes at physical `slot`.
    fn write_pte(&mut self, slot: u64, pte: Pte) {
        self.dram.write(PhysAddr::new(slot), &pte.to_bytes());
    }

    /// Bounds-checks a walk-decoded physical byte address against DRAM
    /// capacity: a corrupted PTE decoding outside the device faults
    /// ([`MachineError::Unmapped`] — the segfault analog).
    fn guard_phys(&self, pid: Pid, addr: VirtAddr, phys: u64) -> Result<PhysAddr, MachineError> {
        if phys < self.config.dram.geometry.capacity_bytes() {
            Ok(PhysAddr::new(phys))
        } else {
            Err(MachineError::Unmapped { pid, addr })
        }
    }

    /// [`Self::touch`] through the TLB, also returning the process's CPU.
    /// A hit implies the pid is alive and the mapping valid (`munmap`
    /// shoots down the unmapped range, `exit` the dead pid, and pids are
    /// never reused), so hits skip the page-table walk entirely — exactly
    /// the traffic a hardware TLB hides.
    #[inline]
    fn touch_cached(&mut self, pid: Pid, va: VirtAddr) -> Result<(PhysAddr, CpuId), MachineError> {
        let vpn = va.vpn();
        if let Some(base) = self.tlb.lookup(u64::from(pid.0), vpn) {
            let cpu = self.process(pid)?.cpu();
            return Ok((PhysAddr::new(base + va.page_offset()), cpu));
        }
        let cpu = self.process(pid)?.cpu();
        let phys = self.touch(pid, va)?;
        self.tlb
            .insert(u64::from(pid.0), vpn, phys.as_u64() - va.page_offset());
        Ok((phys, cpu))
    }

    /// One cache-modelled access at `addr`'s physical line, returning where
    /// it was served: hits charge the hierarchy's flat hit latency
    /// ([`ServedBy::hit_nanos`]); a full miss reaches DRAM, where the
    /// device's command timing decides (a row-buffer hit is cheaper than a
    /// row conflict once the timing engine is on — the signal the mapping
    /// probe measures).
    fn cached_access(&mut self, cpu: CpuId, phys: PhysAddr) -> ServedBy {
        let served = self.caches[cpu.0 as usize].access(phys.as_u64());
        match served.hit_nanos() {
            Some(ns) => self.advance(ns),
            None => {
                self.dram.access(phys);
            }
        }
        served
    }

    /// The one scalar single-byte read: translate through the TLB, one
    /// cache-modelled access, then the byte from DRAM (SECDED-filtered).
    /// [`Self::read`] serves 1-byte buffers with it and
    /// [`Self::read_byte_in`]'s slow path calls it too, so the memoized
    /// path has exactly one oracle. Does not count `stats.reads`.
    pub(crate) fn read_byte_scalar(
        &mut self,
        pid: Pid,
        addr: VirtAddr,
    ) -> Result<ScalarRead, MachineError> {
        let (phys, cpu) = self.touch_cached(pid, addr)?;
        let served = self.cached_access(cpu, phys);
        Ok(ScalarRead {
            byte: self.dram.read_byte(phys),
            phys,
            cpu,
            served,
        })
    }

    /// Reads `buf.len()` bytes at `addr`, faulting pages in as needed.
    ///
    /// # Errors
    ///
    /// Same as [`Self::touch`].
    pub fn read(&mut self, pid: Pid, addr: VirtAddr, buf: &mut [u8]) -> Result<(), MachineError> {
        self.stats.reads += 1;
        // Single-byte path: skip the page-split loop. `DramDevice::read_byte`
        // is byte-for-byte the 1-byte `read`.
        if let [byte] = buf {
            *byte = self.read_byte_scalar(pid, addr)?.byte;
            return Ok(());
        }
        if buf.is_empty() {
            self.process(pid)?;
            return Ok(());
        }
        let mut off = 0usize;
        while off < buf.len() {
            let va = addr
                .checked_add(off as u64)
                .ok_or(MachineError::AddressOverflow { pid })?;
            let in_page = (PAGE_SIZE - va.page_offset()) as usize;
            let n = in_page.min(buf.len() - off);
            let (phys, cpu) = self.touch_cached(pid, va)?;
            self.cached_access(cpu, phys);
            self.dram.read(phys, &mut buf[off..off + n]);
            off += n;
        }
        Ok(())
    }

    /// Writes `data` at `addr`, faulting pages in as needed.
    ///
    /// # Errors
    ///
    /// Same as [`Self::touch`].
    pub fn write(&mut self, pid: Pid, addr: VirtAddr, data: &[u8]) -> Result<(), MachineError> {
        self.stats.writes += 1;
        if data.is_empty() {
            self.process(pid)?;
            return Ok(());
        }
        let mut off = 0usize;
        while off < data.len() {
            let va = addr
                .checked_add(off as u64)
                .ok_or(MachineError::AddressOverflow { pid })?;
            let in_page = (PAGE_SIZE - va.page_offset()) as usize;
            let n = in_page.min(data.len() - off);
            let (phys, cpu) = self.touch_cached(pid, va)?;
            self.cached_access(cpu, phys);
            self.dram.write(phys, &data[off..off + n]);
            off += n;
        }
        Ok(())
    }

    /// [`Self::read`], additionally returning how much simulated time the
    /// operation cost (faults, cache hits, DRAM activations). With the
    /// timing engine on this is the attacker's stopwatch: a row-buffer
    /// conflict is visibly slower than a row hit, which is what the
    /// latency-based mapping probe measures.
    ///
    /// # Errors
    ///
    /// Same as [`Self::touch`].
    pub fn read_timed(
        &mut self,
        pid: Pid,
        addr: VirtAddr,
        buf: &mut [u8],
    ) -> Result<Nanos, MachineError> {
        let t0 = self.now();
        self.read(pid, addr, buf)?;
        Ok(self.now() - t0)
    }

    /// [`Self::write`], additionally returning the simulated time it cost.
    ///
    /// # Errors
    ///
    /// Same as [`Self::touch`].
    pub fn write_timed(
        &mut self,
        pid: Pid,
        addr: VirtAddr,
        data: &[u8],
    ) -> Result<Nanos, MachineError> {
        let t0 = self.now();
        self.write(pid, addr, data)?;
        Ok(self.now() - t0)
    }

    /// Fills `len` bytes at `addr` with `value` (page-wise `memset`).
    ///
    /// # Errors
    ///
    /// Same as [`Self::touch`].
    pub fn fill(
        &mut self,
        pid: Pid,
        addr: VirtAddr,
        len: u64,
        value: u8,
    ) -> Result<(), MachineError> {
        self.stats.writes += 1;
        if len == 0 {
            self.process(pid)?;
            return Ok(());
        }
        let mut off = 0u64;
        while off < len {
            let va = addr
                .checked_add(off)
                .ok_or(MachineError::AddressOverflow { pid })?;
            let in_page = PAGE_SIZE - va.page_offset();
            let n = in_page.min(len - off);
            let (phys, cpu) = self.touch_cached(pid, va)?;
            self.cached_access(cpu, phys);
            self.dram.fill(phys, n, value);
            off += n;
        }
        Ok(())
    }

    /// Flushes the cache line containing `addr` from the CPU's hierarchy.
    ///
    /// # Errors
    ///
    /// Same as [`Self::touch`] (flushing faults the page in, as a real
    /// `clflush` needs a valid translation).
    pub fn clflush(&mut self, pid: Pid, addr: VirtAddr) -> Result<(), MachineError> {
        let (phys, cpu) = self.touch_cached(pid, addr)?;
        self.caches[cpu.0 as usize].clflush(phys.as_u64());
        self.stats.flushes += 1;
        self.advance(CLFLUSH_NS);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Hammering
    // ------------------------------------------------------------------

    /// One hammer iteration: access `addr` (guaranteed to reach DRAM) then
    /// flush it — the paper's `mov`/`clflush` loop body.
    ///
    /// # Errors
    ///
    /// Same as [`Self::touch`].
    pub fn access_flush(&mut self, pid: Pid, addr: VirtAddr) -> Result<(), MachineError> {
        let (phys, cpu) = self.touch_cached(pid, addr)?;
        // Ensure the access misses: flush first (idempotent), then access.
        self.caches[cpu.0 as usize].clflush(phys.as_u64());
        self.dram.access(phys);
        self.stats.flushes += 1;
        self.advance(CLFLUSH_NS);
        Ok(())
    }

    /// Bulk double-sided hammering of the rows containing virtual addresses
    /// `a` and `b`, `pairs` times, with `clflush` semantics (every access
    /// activates a row). Equivalent to `pairs` iterations of
    /// [`Self::access_flush`] on each address, but O(refresh boundaries).
    ///
    /// # Errors
    ///
    /// * Address resolution errors as in [`Self::touch`].
    /// * [`MachineError::Dram`] if the two addresses do not share a bank or
    ///   share a row.
    pub fn hammer_pair_virt(
        &mut self,
        pid: Pid,
        a: VirtAddr,
        b: VirtAddr,
        pairs: u64,
    ) -> Result<HammerOutcome, MachineError> {
        let cpu = self.process(pid)?.cpu();
        let pa = self.touch(pid, a)?;
        let pb = self.touch(pid, b)?;
        self.caches[cpu.0 as usize].clflush(pa.as_u64());
        self.caches[cpu.0 as usize].clflush(pb.as_u64());
        let outcome = self.dram.hammer_pair(pa, pb, pairs)?;
        self.stats.hammer_pairs += pairs;
        self.stats.flushes += 2 * pairs;
        Ok(outcome)
    }

    /// Many-sided bulk hammering: each round activates the row containing
    /// every address in `aggressors` once, in order, with `clflush`
    /// semantics — the round-robin pattern that thrashes a sampling
    /// Target-Row-Refresh tracker (see [`dram::DramDevice::hammer_rows`]).
    /// `stats().hammer_pairs` advances by the pair-equivalent activation
    /// cost (`rounds * aggressors / 2`), keeping hammer budgets comparable
    /// across strategies.
    ///
    /// # Errors
    ///
    /// * Address resolution errors as in [`Self::touch`].
    /// * [`MachineError::Dram`] if the rows are not distinct rows of one
    ///   bank, or fewer than two addresses are supplied.
    pub fn hammer_rows_virt(
        &mut self,
        pid: Pid,
        aggressors: &[VirtAddr],
        rounds: u64,
    ) -> Result<HammerOutcome, MachineError> {
        let cpu = self.process(pid)?.cpu();
        let mut phys = Vec::with_capacity(aggressors.len());
        for &va in aggressors {
            phys.push(self.touch(pid, va)?);
        }
        for &pa in &phys {
            self.caches[cpu.0 as usize].clflush(pa.as_u64());
        }
        let outcome = self.dram.hammer_rows(&phys, rounds)?;
        self.stats.hammer_pairs += outcome.acts / 2;
        self.stats.flushes += outcome.acts;
        Ok(outcome)
    }
}

/// Standard warm-up size (pages) for the [`warmup`] ritual.
///
/// This is the single source of truth for the constant the experiment
/// binaries, the warm-pool boot path, and the substrate tests used to
/// inline independently — tune it here and every campaign stays in sync.
pub const WARMUP_PAGES: u64 = 64;

/// Heavier warm-up size (pages) used by the steering experiments, which
/// need a deeper page frame cache before measuring reuse under noise.
pub const WARMUP_PAGES_STEERING: u64 = 128;

/// Boots a machine from `config` and runs the [`warmup_on`] ritual on
/// `cpu` — the per-trial preamble every campaign used to hand-roll. This is
/// the one-call boot path behind the snapshot warm pool: boot + warm once,
/// [`SimMachine::snapshot`] the result, and fork per trial.
///
/// # Panics
///
/// Panics if the configuration is inconsistent, `cpu` is out of range, or
/// warm-up runs out of memory (`pages` exceeding free memory is a
/// configuration bug, not a runtime condition).
pub fn warm_boot(config: MachineConfig, cpu: CpuId, pages: u64) -> SimMachine {
    let mut machine = SimMachine::new(config);
    warmup_on(&mut machine, cpu, pages).expect("warm-up exceeds machine memory");
    machine
}

/// Warms the allocator on `cpu` with the spawn/mmap/fill/munmap preamble
/// the experiment binaries and tests used to hand-roll: a transient process
/// maps and touches `pages` pages, then frees the first three quarters, so
/// the buddy lists are fragmented and the CPU's page frame cache holds
/// recently-freed frames — the non-pristine state every §V measurement
/// starts from. The warm process stays alive holding the remaining quarter,
/// pinning those frames the way long-lived system processes would.
///
/// # Errors
///
/// Propagates machine errors (OOM when `pages` exceeds free memory).
///
/// # Panics
///
/// Panics if `cpu` is out of range (as [`SimMachine::spawn`] does).
pub fn warmup_on(machine: &mut SimMachine, cpu: CpuId, pages: u64) -> Result<(), MachineError> {
    let warm = machine.spawn(cpu);
    let buf = machine.mmap(warm, pages)?;
    machine.fill(warm, buf, pages * PAGE_SIZE, 1)?;
    let release = pages - pages / 4;
    if release > 0 {
        machine.munmap(warm, buf, release)?;
    }
    Ok(())
}

/// [`warmup_on`] for the common case: warm CPU 0's allocator state.
///
/// # Errors
///
/// Propagates machine errors (OOM when `pages` exceeds free memory).
pub fn warmup(machine: &mut SimMachine, pages: u64) -> Result<(), MachineError> {
    warmup_on(machine, CpuId(0), pages)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dram::DramCoord;
    use memsim::Pfn;

    fn small() -> SimMachine {
        SimMachine::new(MachineConfig::small(11))
    }

    #[test]
    fn demand_paging_allocates_on_first_touch() {
        let mut m = small();
        let p = m.spawn(CpuId(0));
        let va = m.mmap(p, 4).unwrap();
        assert_eq!(m.process(p).unwrap().resident_pages(), 0);
        assert!(m.translate(p, va).is_none());
        m.write(p, va, b"x").unwrap();
        assert_eq!(m.process(p).unwrap().resident_pages(), 1);
        assert!(m.translate(p, va).is_some());
        assert_eq!(m.stats().page_faults, 1);
    }

    #[test]
    fn read_returns_written_data_across_pages() {
        let mut m = small();
        let p = m.spawn(CpuId(1));
        let va = m.mmap(p, 3).unwrap();
        let data: Vec<u8> = (0..9000u32).map(|i| (i % 256) as u8).collect();
        m.write(p, va + 100, &data).unwrap();
        let mut back = vec![0u8; data.len()];
        m.read(p, va + 100, &mut back).unwrap();
        assert_eq!(back, data);
        assert_eq!(m.process(p).unwrap().resident_pages(), 3);
    }

    #[test]
    fn unmapped_access_fails() {
        let mut m = small();
        let p = m.spawn(CpuId(0));
        let e = m.write(p, VirtAddr(0x1000), b"x");
        assert!(matches!(e, Err(MachineError::Unmapped { .. })));
    }

    #[test]
    fn munmap_frees_to_pcp_and_victim_reuses() {
        // The crate-level scenario, asserted in detail.
        let mut m = small();
        let attacker = m.spawn(CpuId(2));
        let victim = m.spawn(CpuId(2));
        let va = m.mmap(attacker, 8).unwrap();
        m.fill(attacker, va, 8 * PAGE_SIZE, 0xAA).unwrap();
        let target = va + 5 * PAGE_SIZE;
        let frame = m.translate(attacker, target).unwrap();
        m.munmap(attacker, target, 1).unwrap();

        // The frame sits in cpu2's pcp list.
        let pfn = Pfn(frame.as_u64() / PAGE_SIZE);
        let zone = m.allocator().zone_of(pfn).unwrap();
        assert!(m
            .allocator()
            .zone(zone)
            .unwrap()
            .pcp(CpuId(2))
            .contains(pfn));

        // Victim on the same CPU touches one new page and gets the frame.
        let vv = m.mmap(victim, 1).unwrap();
        m.write(victim, vv, b"AES tables").unwrap();
        assert_eq!(
            m.translate(victim, vv).unwrap().align_down(PAGE_SIZE),
            frame.align_down(PAGE_SIZE)
        );
    }

    #[test]
    fn different_cpu_does_not_reuse() {
        let mut m = small();
        let attacker = m.spawn(CpuId(0));
        let victim = m.spawn(CpuId(1));
        let va = m.mmap(attacker, 1).unwrap();
        m.write(attacker, va, b"x").unwrap();
        let frame = m.translate(attacker, va).unwrap();
        m.munmap(attacker, va, 1).unwrap();
        let vv = m.mmap(victim, 1).unwrap();
        m.write(victim, vv, b"y").unwrap();
        assert_ne!(m.translate(victim, vv).unwrap(), frame);
    }

    #[test]
    fn sleeping_attacker_loses_cached_frame() {
        let mut m = small(); // default policy: DrainOnSleep
        let attacker = m.spawn(CpuId(3));
        let va = m.mmap(attacker, 1).unwrap();
        m.write(attacker, va, b"x").unwrap();
        let pfn = Pfn(m.translate(attacker, va).unwrap().as_u64() / PAGE_SIZE);
        m.munmap(attacker, va, 1).unwrap();
        let zone = m.allocator().zone_of(pfn).unwrap();
        assert!(m
            .allocator()
            .zone(zone)
            .unwrap()
            .pcp(CpuId(3))
            .contains(pfn));
        m.sleep(attacker, 1_000_000).unwrap();
        assert!(
            !m.allocator()
                .zone(zone)
                .unwrap()
                .pcp(CpuId(3))
                .contains(pfn),
            "idle drain should have emptied the pcp list"
        );
    }

    #[test]
    fn keep_policy_preserves_pcp_across_sleep() {
        let mut m =
            SimMachine::new(MachineConfig::small(11).with_idle_drain(IdleDrainPolicy::Keep));
        let attacker = m.spawn(CpuId(3));
        let va = m.mmap(attacker, 1).unwrap();
        m.write(attacker, va, b"x").unwrap();
        let pfn = Pfn(m.translate(attacker, va).unwrap().as_u64() / PAGE_SIZE);
        m.munmap(attacker, va, 1).unwrap();
        m.sleep(attacker, 1_000_000).unwrap();
        let zone = m.allocator().zone_of(pfn).unwrap();
        assert!(m
            .allocator()
            .zone(zone)
            .unwrap()
            .pcp(CpuId(3))
            .contains(pfn));
    }

    #[test]
    fn active_sibling_prevents_idle_drain() {
        let mut m = small();
        let attacker = m.spawn(CpuId(0));
        let sibling = m.spawn(CpuId(0)); // stays Active
        let _ = sibling;
        let va = m.mmap(attacker, 1).unwrap();
        m.write(attacker, va, b"x").unwrap();
        let pfn = Pfn(m.translate(attacker, va).unwrap().as_u64() / PAGE_SIZE);
        m.munmap(attacker, va, 1).unwrap();
        m.sleep(attacker, 1_000_000).unwrap();
        let zone = m.allocator().zone_of(pfn).unwrap();
        assert!(m
            .allocator()
            .zone(zone)
            .unwrap()
            .pcp(CpuId(0))
            .contains(pfn));
    }

    #[test]
    fn exit_releases_all_frames() {
        let mut m = small();
        let free0 = m.allocator().total_free_pages();
        let p = m.spawn(CpuId(0));
        let va = m.mmap(p, 16).unwrap();
        m.fill(p, va, 16 * PAGE_SIZE, 1).unwrap();
        assert_eq!(m.allocator().total_free_pages(), free0 - 16);
        m.exit(p).unwrap();
        assert_eq!(m.allocator().total_free_pages(), free0);
        assert!(matches!(
            m.read(p, va, &mut [0u8; 1]),
            Err(MachineError::NoSuchProcess { .. })
        ));
    }

    #[test]
    fn hammer_virt_flips_bits_visible_through_page_table() {
        // End-to-end substrate check: map three physically-consecutive pages
        // by allocating a fresh machine (first touches get consecutive
        // frames from the buddy via pcp refill), find an aggressor pair
        // around a weak row using the oracle, hammer, and observe corrupted
        // data through ordinary reads.
        let mut m = small();
        let p = m.spawn(CpuId(0));
        // Map a large buffer so it spans many rows.
        let pages = 4096u64; // 16 MiB
        let va = m.mmap(p, pages).unwrap();
        m.fill(p, va, pages * PAGE_SIZE, 0xFF).unwrap();

        // Find a weak true-cell inside the buffer via the oracle, then
        // compute its aggressor rows' physical addresses.
        let mut target = None;
        'scan: for i in 0..pages {
            let pa = m.translate(p, va + i * PAGE_SIZE).unwrap();
            let cells = m.dram_mut().weak_cells_at(pa);
            for c in cells.iter() {
                if c.polarity == dram::CellPolarity::True {
                    target = Some((i, *c));
                    break 'scan;
                }
            }
        }
        let (page_idx, cell) = target.expect("flippy small machine has weak cells in 16 MiB");
        let victim_va = va + page_idx * PAGE_SIZE;
        let victim_pa = m.translate(p, victim_va).unwrap();
        let coord = m.dram().mapping().phys_to_coord(victim_pa);
        let above = DramCoord {
            row: coord.row - 1,
            col: 0,
            ..coord
        };
        let below = DramCoord {
            row: coord.row + 1,
            col: 0,
            ..coord
        };
        let pa_above = m.dram().mapping().coord_to_phys(above);
        let pa_below = m.dram().mapping().coord_to_phys(below);

        // The attacker hammers *virtual* addresses; find buffer offsets that
        // map to the aggressor rows (linear mapping + sequential first-touch
        // makes them nearby, but search to stay robust).
        let mut va_above = None;
        let mut va_below = None;
        for i in 0..pages {
            let pa = m
                .translate(p, va + i * PAGE_SIZE)
                .unwrap()
                .align_down(PAGE_SIZE);
            if pa == pa_above.align_down(PAGE_SIZE) {
                va_above = Some(va + i * PAGE_SIZE);
            }
            if pa == pa_below.align_down(PAGE_SIZE) {
                va_below = Some(va + i * PAGE_SIZE);
            }
        }
        let (va_a, va_b) = match (va_above, va_below) {
            (Some(a), Some(b)) => (a, b),
            _ => return, // aggressors outside the buffer; geometry edge, skip
        };

        let outcome = m
            .hammer_pair_virt(p, va_a, va_b, cell.threshold_acts() + 64)
            .unwrap();
        assert!(
            outcome.flips.iter().any(|f| f.coord.row == coord.row),
            "expected a flip in the victim row"
        );
        // The corruption is visible through an ordinary read: some byte in
        // the victim page is no longer 0xFF.
        let mut buf = vec![0u8; PAGE_SIZE as usize];
        m.read(p, victim_va.page_base(), &mut buf).unwrap();
        let row_bytes = m.dram().config().geometry.row_bytes as u64;
        let _ = row_bytes;
        let corrupted = buf.iter().any(|&b| b != 0xFF);
        // The flip may sit in the *other* page of the 8 KiB row; check both.
        if !corrupted {
            let flip = &outcome.flips[0];
            let mut b = [0u8];
            // Locate the flip's page within our buffer.
            for i in 0..pages {
                let pa = m.translate(p, va + i * PAGE_SIZE).unwrap();
                if pa.align_down(PAGE_SIZE) == flip.addr.align_down(PAGE_SIZE) {
                    m.read(
                        p,
                        va + i * PAGE_SIZE + flip.addr.offset_in(PAGE_SIZE),
                        &mut b,
                    )
                    .unwrap();
                    assert_ne!(
                        b[0] & (1 << flip.bit),
                        1 << flip.bit,
                        "bit should be cleared"
                    );
                    return;
                }
            }
            panic!("flip not inside the attacker buffer");
        }
    }

    #[test]
    fn hammer_requires_same_bank() {
        let mut m = small();
        let p = m.spawn(CpuId(0));
        let va = m.mmap(p, 64).unwrap();
        m.fill(p, va, 64 * PAGE_SIZE, 0).unwrap();
        // Two pages within the same row share the bank *and* the row —
        // hammering them must be rejected (row-buffer hits hammer nothing).
        let e = m.hammer_pair_virt(p, va, va + PAGE_SIZE, 10);
        assert!(matches!(
            e,
            Err(MachineError::Dram(
                dram::DramError::AggressorsShareRow { .. }
            ))
        ));
    }

    #[test]
    fn warmup_leaves_non_pristine_allocator_state() {
        let mut m = small();
        let free0 = m.allocator().total_free_pages();
        warmup_on(&mut m, CpuId(1), WARMUP_PAGES).unwrap();
        // Three quarters released, one quarter still held by the warm
        // process.
        assert_eq!(m.allocator().total_free_pages(), free0 - WARMUP_PAGES / 4);
        // The released frames sit in cpu1's page frame cache: the very next
        // touch on cpu1 is served from it (LIFO reuse), not the buddy.
        let p = m.spawn(CpuId(1));
        let va = m.mmap(p, 1).unwrap();
        m.write(p, va, b"x").unwrap();
        let pfn = Pfn(m.translate(p, va).unwrap().as_u64() / PAGE_SIZE);
        let zone = m.allocator().zone_of(pfn).unwrap();
        let hits = m.allocator().zone(zone).unwrap().pcp(CpuId(1)).stats().hits;
        assert!(hits > 0, "post-warmup allocation should hit the pcp");
    }

    #[test]
    fn timed_reads_report_cache_and_dram_latency() {
        let mut cfg = MachineConfig::small(11);
        cfg.dram = cfg.dram.with_timing_engine(true);
        let mut m = SimMachine::new(cfg);
        let p = m.spawn(CpuId(0));
        let va = m.mmap(p, 1).unwrap();
        m.write(p, va, b"x").unwrap();
        let mut b = [0u8];
        // The line is resident after the write: a pure cache hit.
        let warm = m.read_timed(p, va, &mut b).unwrap();
        assert_eq!(warm, cachesim::ServedBy::L1.hit_nanos().unwrap());
        // Flushed, the read reaches DRAM and pays command timing.
        m.clflush(p, va).unwrap();
        let cold = m.read_timed(p, va, &mut b).unwrap();
        assert!(
            cold > warm,
            "a DRAM access ({cold} ns) must cost more than a cache hit ({warm} ns)"
        );
    }

    fn walk_machine() -> SimMachine {
        SimMachine::new(MachineConfig::small(11).with_dram_page_tables(true))
    }

    #[test]
    fn walk_mode_round_trips_data_like_shadow_mode() {
        // The DRAM-resident walk changes *how* addresses resolve, never
        // what a program reads back.
        for on in [false, true] {
            let mut m = SimMachine::new(MachineConfig::small(11).with_dram_page_tables(on));
            let p = m.spawn(CpuId(0));
            let va = m.mmap(p, 3).unwrap();
            let data: Vec<u8> = (0..9000u32).map(|i| (i % 251) as u8).collect();
            m.write(p, va + 100, &data).unwrap();
            let mut back = vec![0u8; data.len()];
            m.read(p, va + 100, &mut back).unwrap();
            assert_eq!(back, data, "dram_page_tables={on}");
            // Hardware walk and shadow pagemap agree on every touched page.
            for i in 0..3 {
                let page = va + i * PAGE_SIZE;
                assert_eq!(m.translate_walk(p, page).unwrap(), m.translate(p, page));
            }
        }
    }

    #[test]
    fn walk_mode_accounts_for_table_frames() {
        let mut m = walk_machine();
        let free0 = m.allocator().total_free_pages();
        let p = m.spawn(CpuId(0));
        // spawn consumed the root table frame off this CPU's pcp head.
        assert_eq!(m.allocator().total_free_pages(), free0 - 1);
        assert_eq!(m.allocator().table_frame_count(), 1);
        let va = m.mmap(p, 4).unwrap();
        m.fill(p, va, 4 * PAGE_SIZE, 7).unwrap();
        // 4 data frames + 1 leaf table.
        assert_eq!(m.allocator().total_free_pages(), free0 - 6);
        assert_eq!(m.allocator().table_frame_count(), 2);
        m.exit(p).unwrap();
        assert_eq!(m.allocator().total_free_pages(), free0);
        assert_eq!(m.allocator().table_frame_count(), 0);
    }

    #[test]
    fn huge_mappings_fault_whole_chunks() {
        for on in [false, true] {
            let mut m = SimMachine::new(MachineConfig::small(11).with_dram_page_tables(on));
            let p = m.spawn(CpuId(0));
            let va = m.mmap_huge(p, 1).unwrap();
            assert_eq!(va.vpn() % HUGE_PAGES, 0, "huge VMAs are chunk-aligned");
            m.write(p, va + 5 * PAGE_SIZE, b"h").unwrap();
            // One fault populates the whole 2 MiB chunk, contiguously.
            assert_eq!(m.stats().page_faults, 1);
            assert_eq!(m.process(p).unwrap().resident_pages(), HUGE_PAGES);
            let base = m.translate(p, va).unwrap();
            assert_eq!(
                m.translate(p, va + 17 * PAGE_SIZE).unwrap().as_u64(),
                base.as_u64() + 17 * PAGE_SIZE
            );
            assert_eq!(
                m.translate_walk(p, va + 17 * PAGE_SIZE).unwrap(),
                m.translate(p, va + 17 * PAGE_SIZE)
            );
            // Partial unmap of a huge VMA is rejected; whole unmap frees
            // the order-9 block once.
            assert!(matches!(
                m.munmap(p, va, 1),
                Err(MachineError::BadUnmap { .. })
            ));
            let free_before = m.allocator().total_free_pages();
            m.munmap(p, va, HUGE_PAGES).unwrap();
            assert_eq!(m.allocator().total_free_pages(), free_before + HUGE_PAGES);
        }
    }

    #[test]
    fn mmap_rejects_wrap_and_window_overflow() {
        // Feature-off: only a genuine u64 wrap can fail.
        let mut m = small();
        let p = m.spawn(CpuId(0));
        assert!(matches!(
            m.mmap(p, u64::MAX),
            Err(MachineError::AddressOverflow { .. })
        ));
        // Feature-on: the 2-level walk's 1 GiB window bounds reservations.
        let mut w = walk_machine();
        let p = w.spawn(CpuId(0));
        assert!(matches!(
            w.mmap(p, pagetable::WINDOW_PAGES),
            Err(MachineError::AddressOverflow { .. })
        ));
        assert!(matches!(
            w.mmap_huge(p, u64::MAX / 4),
            Err(MachineError::AddressOverflow { .. })
        ));
        // Failed reservations commit nothing: the window is still whole.
        let va = w.mmap(p, pagetable::WINDOW_PAGES - 1).unwrap();
        w.write(p, va, b"still fits").unwrap();
    }

    #[test]
    fn tlb_serves_repeat_accesses() {
        let mut m = small();
        let p = m.spawn(CpuId(0));
        let va = m.mmap(p, 1).unwrap();
        m.write(p, va, b"x").unwrap(); // miss + fill
        let mut b = [0u8];
        m.read(p, va, &mut b).unwrap(); // hit
        let stats = m.tlb().stats();
        assert!(stats.hits >= 1, "repeat access should hit: {stats:?}");
        m.munmap(p, va, 1).unwrap();
        assert_eq!(
            m.tlb().resident(),
            0,
            "munmap shoots down the unmapped range"
        );
    }

    #[test]
    fn munmap_shootdown_spares_unrelated_processes() {
        // The victim's munmap must not wipe the attacker's translations:
        // over-invalidation would reset every other process's TLB locality
        // (and its hit-rate statistics) on each steering round.
        let mut m = small();
        let attacker = m.spawn(CpuId(0));
        let victim = m.spawn(CpuId(0));
        let abuf = m.mmap(attacker, 2).unwrap();
        m.fill(attacker, abuf, 2 * PAGE_SIZE, 1).unwrap();
        let vbuf = m.mmap(victim, 2).unwrap();
        m.fill(victim, vbuf, 2 * PAGE_SIZE, 2).unwrap();
        let resident_before = m.tlb().resident();
        assert!(resident_before >= 4, "both working sets are cached");

        m.munmap(victim, vbuf, 1).unwrap();
        // Exactly one entry left: the victim's unmapped page.
        assert_eq!(m.tlb().resident(), resident_before - 1);
        // The attacker's entries still serve hits without a walk.
        let hits_before = m.tlb().stats().hits;
        let mut b = [0u8];
        m.read(attacker, abuf, &mut b).unwrap();
        m.read(attacker, abuf + PAGE_SIZE, &mut b).unwrap();
        assert_eq!(m.tlb().stats().hits, hits_before + 2);
        // The victim's surviving page is still cached too.
        m.read(victim, vbuf + PAGE_SIZE, &mut b).unwrap();
        assert_eq!(m.tlb().stats().hits, hits_before + 3);

        // Process exit drops only the dead pid's entries.
        m.exit(victim).unwrap();
        let survivors = m.tlb().resident();
        assert!(survivors >= 2, "attacker entries survive a victim exit");
        m.read(attacker, abuf, &mut b).unwrap();
        assert_eq!(m.tlb().stats().hits, hits_before + 4);
    }

    #[test]
    fn pte_flip_redirects_the_walk() {
        // The escalation primitive in miniature: corrupt one leaf PTE the
        // way a Rowhammer flip would and watch the hardware view diverge
        // from the kernel's shadow pagemap.
        let mut m = walk_machine();
        let p = m.spawn(CpuId(0));
        let va = m.mmap(p, 2).unwrap();
        m.write(p, va, b"AAAA").unwrap();
        m.write(p, va + PAGE_SIZE, b"BBBB").unwrap();
        let pa_a = m.translate(p, va).unwrap();
        let pa_b = m.translate(p, va + PAGE_SIZE).unwrap();
        assert_ne!(pa_a, pa_b);
        assert_eq!(m.translate_walk(p, va).unwrap(), Some(pa_a));

        // Flip the frame-number bits of page A's PTE so it decodes to B's
        // frame (both addresses are page-aligned, so the XOR delta is pure
        // frame bits).
        let slot = m.pte_phys(p, va).unwrap();
        let mut bytes = [0u8; 8];
        m.dram_mut().read(slot, &mut bytes);
        let flipped = u64::from_le_bytes(bytes) ^ (pa_a.as_u64() ^ pa_b.as_u64());
        m.dram_mut().write(slot, &flipped.to_le_bytes());
        m.flush_tlb(); // shootdown: stop serving the stale translation

        // Hardware walk now lands on B; the shadow map still says A.
        assert_eq!(m.translate_walk(p, va).unwrap(), Some(pa_b));
        assert_eq!(m.translate(p, va), Some(pa_a));
        // And ordinary loads through A read B's bytes — the remap is live.
        let mut buf = [0u8; 4];
        m.read(p, va, &mut buf).unwrap();
        assert_eq!(&buf, b"BBBB");
    }

    #[test]
    fn corrupt_pte_decoding_outside_dram_faults() {
        let mut m = walk_machine();
        let p = m.spawn(CpuId(0));
        let va = m.mmap(p, 1).unwrap();
        m.write(p, va, b"x").unwrap();
        let slot = m.pte_phys(p, va).unwrap();
        // Set a frame bit far above DRAM capacity.
        let mut bytes = [0u8; 8];
        m.dram_mut().read(slot, &mut bytes);
        let wild = u64::from_le_bytes(bytes) | (1 << 40);
        m.dram_mut().write(slot, &wild.to_le_bytes());
        m.flush_tlb();
        // The walk refuses to fabricate an address: segfault analog.
        assert_eq!(m.translate_walk(p, va).unwrap(), None);
        assert!(matches!(
            m.read(p, va, &mut [0u8; 1]),
            Err(MachineError::Unmapped { .. })
        ));
    }

    #[test]
    fn time_advances_with_traffic() {
        let mut m = small();
        let p = m.spawn(CpuId(0));
        let t0 = m.now();
        let va = m.mmap(p, 1).unwrap();
        m.write(p, va, b"tick").unwrap();
        assert!(m.now() > t0);
    }
}
