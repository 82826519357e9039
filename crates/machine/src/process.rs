//! Processes: virtual address spaces with demand-paged anonymous mappings.

use std::collections::BTreeMap;
use std::fmt;

use memsim::{CpuId, Pfn, PAGE_SIZE};

/// A process identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Pid(pub u32);

impl fmt::Display for Pid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pid{}", self.0)
    }
}

/// A virtual address within a process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VirtAddr(pub u64);

impl VirtAddr {
    /// The virtual page number containing this address.
    pub const fn vpn(self) -> u64 {
        self.0 / PAGE_SIZE
    }

    /// Byte offset within the page.
    pub const fn page_offset(self) -> u64 {
        self.0 % PAGE_SIZE
    }

    /// First address of the containing page.
    pub const fn page_base(self) -> VirtAddr {
        VirtAddr(self.0 - self.0 % PAGE_SIZE)
    }

    /// Offset this address by `rhs` bytes, or `None` if the result would
    /// wrap the 64-bit address space. The `+` operator panics on the same
    /// condition; fallible callers (machine access loops) use this form and
    /// surface [`crate::MachineError::AddressOverflow`] instead.
    pub const fn checked_add(self, rhs: u64) -> Option<VirtAddr> {
        match self.0.checked_add(rhs) {
            Some(v) => Some(VirtAddr(v)),
            None => None,
        }
    }
}

impl fmt::Display for VirtAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "va:{:#x}", self.0)
    }
}

impl std::ops::Add<u64> for VirtAddr {
    type Output = VirtAddr;
    /// # Panics
    ///
    /// Panics (in every build profile) if the sum wraps the 64-bit address
    /// space — the unchecked version wrapped silently in release builds,
    /// turning an overflow into a bogus low address. Use
    /// [`VirtAddr::checked_add`] where overflow is a reachable condition.
    fn add(self, rhs: u64) -> VirtAddr {
        self.checked_add(rhs)
            .expect("virtual address arithmetic overflowed")
    }
}

/// Scheduling state of a process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ProcState {
    /// Runnable / busy-waiting — keeps its CPU warm.
    #[default]
    Active,
    /// Blocked; the CPU is idle (the kernel may reclaim per-CPU caches).
    Sleeping,
}

/// Base of the anonymous-mmap area (x86-64-ish user layout, simplified).
pub(crate) const MMAP_BASE: u64 = 0x7f00_0000_0000;

/// Pages per 2 MiB huge mapping (order-9 buddy block).
pub(crate) const HUGE_PAGES: u64 = 512;

/// One anonymous mapping: a length in pages and whether it is backed by
/// 2 MiB huge pages (512-page granules, 512-aligned base).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Vma {
    /// Length in pages.
    pub pages: u64,
    /// `true` for huge-page VMAs: faulted in 2 MiB at a time, mapped by a
    /// single root-level PTE per chunk, unmapped only whole.
    pub huge: bool,
}

/// Pages per leaf of the shadow page table: a leaf covers the 512 pages one
/// walk-mode leaf table maps.
const LEAF_PAGES: u64 = 512;

/// Leaf slot value of a page with no frame.
const NO_FRAME: u64 = u64::MAX;

/// One 512-page leaf of a [`PageMap`]: the frame number of each page, or
/// [`NO_FRAME`].
#[derive(Clone, PartialEq, Eq)]
struct Leaf {
    /// `vpn >> 9` of every page in the leaf.
    key: u64,
    /// Slots holding a frame (never 0: empty leaves are dropped).
    used: u32,
    frames: Box<[u64; LEAF_PAGES as usize]>,
}

/// The shadow page table: vpn → frame, in 512-slot leaves keyed by
/// `vpn >> 9` and kept in key order. A lookup is a search over the few
/// leaves a process has plus an index; only touched pages allocate a leaf,
/// and a leaf whose last page goes is dropped, so equal maps have equal
/// leaves.
#[derive(Clone, Default, PartialEq, Eq)]
struct PageMap {
    leaves: Vec<Leaf>,
    /// Pages holding a frame.
    resident: u64,
}

impl PageMap {
    fn leaf_index(&self, key: u64) -> Result<usize, usize> {
        self.leaves.binary_search_by_key(&key, |leaf| leaf.key)
    }

    fn get(&self, vpn: u64) -> Option<Pfn> {
        let leaf = &self.leaves[self.leaf_index(vpn / LEAF_PAGES).ok()?];
        let frame = leaf.frames[(vpn % LEAF_PAGES) as usize];
        (frame != NO_FRAME).then_some(Pfn(frame))
    }

    fn insert(&mut self, vpn: u64, pfn: Pfn) {
        let key = vpn / LEAF_PAGES;
        let at = self.leaf_index(key).unwrap_or_else(|at| {
            let frames = Box::new([NO_FRAME; LEAF_PAGES as usize]);
            self.leaves.insert(
                at,
                Leaf {
                    key,
                    used: 0,
                    frames,
                },
            );
            at
        });
        let leaf = &mut self.leaves[at];
        let slot = &mut leaf.frames[(vpn % LEAF_PAGES) as usize];
        if *slot == NO_FRAME {
            leaf.used += 1;
            self.resident += 1;
        }
        *slot = pfn.0;
    }

    /// Removes the frames of pages `start..end`, returning them in vpn
    /// order.
    fn remove_range(&mut self, start: u64, end: u64) -> Vec<(u64, Pfn)> {
        let mut freed = Vec::new();
        if start >= end {
            return freed;
        }
        let mut at = self.leaf_index(start / LEAF_PAGES).unwrap_or_else(|at| at);
        while let Some(leaf) = self.leaves.get_mut(at) {
            let first = leaf.key * LEAF_PAGES;
            if first >= end {
                break;
            }
            for vpn in start.max(first)..end.min(first + LEAF_PAGES) {
                let slot = &mut leaf.frames[(vpn - first) as usize];
                if *slot != NO_FRAME {
                    freed.push((vpn, Pfn(*slot)));
                    *slot = NO_FRAME;
                    leaf.used -= 1;
                    self.resident -= 1;
                }
            }
            if leaf.used == 0 {
                self.leaves.remove(at);
            } else {
                at += 1;
            }
        }
        freed
    }

    fn iter(&self) -> impl Iterator<Item = (u64, Pfn)> + '_ {
        self.leaves.iter().flat_map(|leaf| {
            (leaf.key * LEAF_PAGES..)
                .zip(leaf.frames.iter())
                .filter(|&(_, &frame)| frame != NO_FRAME)
                .map(|(vpn, &frame)| (vpn, Pfn(frame)))
        })
    }
}

/// Prints as the vpn → frame map it stands for.
impl fmt::Debug for PageMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

/// One simulated process: VMAs, a page table, a CPU pin and a state.
///
/// The structure is pure bookkeeping; all side effects (allocation, DRAM
/// traffic) happen in [`crate::SimMachine`]. With DRAM-resident page tables
/// on, the bookkeeping additionally records which frames the kernel
/// allocated as page tables (`root_table`, `leaf_tables`) — the
/// *translations* themselves then live as PTE bytes in simulated DRAM, and
/// `page_table` here is retained as the in-kernel shadow map (the pagemap
/// oracle).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Process {
    pid: Pid,
    cpu: CpuId,
    state: ProcState,
    /// vpn → mapping, for each live anonymous VMA.
    vmas: BTreeMap<u64, Vma>,
    /// vpn → physical frame, for pages that have been touched.
    page_table: PageMap,
    next_mmap_vpn: u64,
    /// Root page-table frame (`Some` only with DRAM-resident page tables).
    root_table: Option<Pfn>,
    /// root-table index → leaf-table frame, for tables the kernel has
    /// allocated so far (freeing/accounting bookkeeping, not a translation
    /// path — walks read the PTEs from DRAM).
    leaf_tables: BTreeMap<u64, Pfn>,
}

impl Process {
    pub(crate) fn new(pid: Pid, cpu: CpuId) -> Self {
        Process {
            pid,
            cpu,
            state: ProcState::Active,
            vmas: BTreeMap::new(),
            page_table: PageMap::default(),
            next_mmap_vpn: MMAP_BASE / PAGE_SIZE,
            root_table: None,
            leaf_tables: BTreeMap::new(),
        }
    }

    /// The process id.
    pub fn pid(&self) -> Pid {
        self.pid
    }

    /// The CPU this process is pinned to.
    pub fn cpu(&self) -> CpuId {
        self.cpu
    }

    /// Current scheduling state.
    pub fn state(&self) -> ProcState {
        self.state
    }

    pub(crate) fn set_state(&mut self, state: ProcState) {
        self.state = state;
    }

    /// Reserves `pages` of virtual address space (no physical backing yet)
    /// and returns its base address. Huge reservations are aligned up to a
    /// 512-page boundary. Returns `None` — committing nothing — if the
    /// reservation (plus its guard hole) would wrap the address space or
    /// end at or beyond `max_end_vpn` (the walkable-window limit with
    /// DRAM-resident page tables; `u64::MAX` otherwise).
    pub(crate) fn reserve(&mut self, pages: u64, huge: bool, max_end_vpn: u64) -> Option<VirtAddr> {
        let vpn = if huge {
            self.next_mmap_vpn.checked_add(HUGE_PAGES - 1)? & !(HUGE_PAGES - 1)
        } else {
            self.next_mmap_vpn
        };
        let end = vpn.checked_add(pages)?.checked_add(1)?; // guard hole
        if end > max_end_vpn {
            return None;
        }
        let base = vpn.checked_mul(PAGE_SIZE)?;
        self.next_mmap_vpn = end;
        self.vmas.insert(vpn, Vma { pages, huge });
        Some(VirtAddr(base))
    }

    /// Returns `true` if `addr` falls inside a live VMA.
    pub fn is_mapped(&self, addr: VirtAddr) -> bool {
        self.vma_of(addr.vpn()).is_some()
    }

    /// The VMA containing virtual page `vpn`, as `(start_vpn, vma)`.
    pub fn vma_of(&self, vpn: u64) -> Option<(u64, Vma)> {
        self.vmas
            .range(..=vpn)
            .next_back()
            .filter(|&(&start, vma)| vpn < start + vma.pages)
            .map(|(&start, &vma)| (start, vma))
    }

    /// The frame backing `addr`, if the page has been touched.
    pub fn frame_of(&self, addr: VirtAddr) -> Option<Pfn> {
        self.page_table.get(addr.vpn())
    }

    pub(crate) fn install(&mut self, vpn: u64, pfn: Pfn) {
        self.page_table.insert(vpn, pfn);
    }

    /// Removes `pages` VMA pages starting at `addr`; returns the backed
    /// `(vpn, pfn)` pairs whose frames must be freed. Returns `None` if the
    /// range is not an exact prefix/suffix/whole of a live base-page VMA —
    /// huge VMAs can only be unmapped whole (their 2 MiB chunks are single
    /// translations).
    pub(crate) fn remove_range(&mut self, addr: VirtAddr, pages: u64) -> Option<Vec<(u64, Pfn)>> {
        let start = addr.vpn();
        // Find the VMA containing the range start.
        let (vma_start, vma) = self.vma_of(start)?;
        if start + pages > vma_start + vma.pages {
            return None;
        }
        if vma.huge && (start != vma_start || pages != vma.pages) {
            return None;
        }
        // Split the VMA: keep the head and tail pieces.
        self.vmas.remove(&vma_start);
        if start > vma_start {
            self.vmas.insert(
                vma_start,
                Vma {
                    pages: start - vma_start,
                    huge: false,
                },
            );
        }
        let end = start + pages;
        if end < vma_start + vma.pages {
            self.vmas.insert(
                end,
                Vma {
                    pages: vma_start + vma.pages - end,
                    huge: false,
                },
            );
        }
        Some(self.page_table.remove_range(start, end))
    }

    // ------------------------------------------------------------------
    // Page-table frame bookkeeping (DRAM-resident page tables only)
    // ------------------------------------------------------------------

    /// The root page-table frame, if this process runs on a machine with
    /// DRAM-resident page tables.
    pub fn root_table(&self) -> Option<Pfn> {
        self.root_table
    }

    pub(crate) fn set_root_table(&mut self, pfn: Pfn) {
        self.root_table = Some(pfn);
    }

    /// The leaf-table frame serving root-table slot `root_idx`, if the
    /// kernel has allocated it.
    pub fn leaf_table(&self, root_idx: u64) -> Option<Pfn> {
        self.leaf_tables.get(&root_idx).copied()
    }

    pub(crate) fn set_leaf_table(&mut self, root_idx: u64, pfn: Pfn) {
        self.leaf_tables.insert(root_idx, pfn);
    }

    /// Every page-table frame owned by this process (root first, then leaf
    /// tables in root-index order). Empty without DRAM-resident tables.
    pub fn table_frames(&self) -> impl Iterator<Item = Pfn> + '_ {
        self.root_table
            .into_iter()
            .chain(self.leaf_tables.values().copied())
    }

    /// Number of pages with physical backing.
    pub fn resident_pages(&self) -> u64 {
        self.page_table.resident
    }

    /// Number of live virtual pages (mapped, possibly untouched).
    pub fn virtual_pages(&self) -> u64 {
        self.vmas.values().map(|v| v.pages).sum()
    }

    /// Iterates over `(vpn, pfn)` pairs of resident pages.
    pub fn resident(&self) -> impl Iterator<Item = (u64, Pfn)> + '_ {
        self.page_table.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn proc() -> Process {
        Process::new(Pid(1), CpuId(0))
    }

    #[test]
    fn virt_addr_arithmetic() {
        let a = VirtAddr(0x7f00_0000_1234);
        assert_eq!(a.page_offset(), 0x234);
        assert_eq!(a.page_base().0, 0x7f00_0000_1000);
        assert_eq!(a.vpn(), 0x7f00_0000_1000 / PAGE_SIZE);
    }

    fn reserve(p: &mut Process, pages: u64) -> VirtAddr {
        p.reserve(pages, false, u64::MAX).expect("reserve in range")
    }

    #[test]
    fn reserve_creates_disjoint_vmas() {
        let mut p = proc();
        let a = reserve(&mut p, 4);
        let b = reserve(&mut p, 2);
        assert_ne!(a, b);
        assert!(p.is_mapped(a));
        assert!(p.is_mapped(a + (4 * PAGE_SIZE - 1)));
        assert!(!p.is_mapped(a + 4 * PAGE_SIZE)); // guard hole
        assert!(p.is_mapped(b));
        assert_eq!(p.virtual_pages(), 6);
    }

    #[test]
    fn remove_range_splits_vma() {
        let mut p = proc();
        let base = reserve(&mut p, 8);
        // Unmap pages 2..4.
        let freed = p.remove_range(base + 2 * PAGE_SIZE, 2).unwrap();
        assert!(freed.is_empty(), "untouched pages have no frames");
        assert!(p.is_mapped(base));
        assert!(p.is_mapped(base + PAGE_SIZE));
        assert!(!p.is_mapped(base + 2 * PAGE_SIZE));
        assert!(!p.is_mapped(base + 3 * PAGE_SIZE));
        assert!(p.is_mapped(base + 4 * PAGE_SIZE));
        assert_eq!(p.virtual_pages(), 6);
    }

    #[test]
    fn remove_range_returns_backed_frames() {
        let mut p = proc();
        let base = reserve(&mut p, 2);
        p.install(base.vpn(), Pfn(77));
        let freed = p.remove_range(base, 2).unwrap();
        assert_eq!(freed, vec![(base.vpn(), Pfn(77))]);
        assert_eq!(p.resident_pages(), 0);
    }

    #[test]
    fn remove_range_rejects_out_of_vma() {
        let mut p = proc();
        let base = reserve(&mut p, 2);
        assert!(p.remove_range(base, 3).is_none());
        assert!(p.remove_range(VirtAddr(0x1000), 1).is_none());
    }

    #[test]
    fn checked_add_reports_overflow_instead_of_wrapping() {
        let high = VirtAddr(u64::MAX - 10);
        assert_eq!(high.checked_add(10), Some(VirtAddr(u64::MAX)));
        assert_eq!(high.checked_add(11), None);
    }

    #[test]
    #[should_panic(expected = "virtual address arithmetic overflowed")]
    fn add_panics_on_overflow_in_every_profile() {
        let _ = VirtAddr(u64::MAX) + 1;
    }

    #[test]
    fn reserve_rejects_wrapping_and_window_overflow() {
        let mut p = proc();
        // Page count that wraps next_mmap_vpn + pages + 1.
        assert_eq!(p.reserve(u64::MAX, false, u64::MAX), None);
        // Page count whose end lands past the caller's window limit.
        let base_vpn = MMAP_BASE / PAGE_SIZE;
        assert_eq!(p.reserve(32, false, base_vpn + 16), None);
        // Rejected reservations commit nothing: the next in-range request
        // starts exactly where the first would have.
        let a = p.reserve(4, false, u64::MAX).unwrap();
        assert_eq!(a.vpn(), base_vpn);
    }

    #[test]
    fn huge_reserve_is_chunk_aligned_and_unmaps_whole() {
        let mut p = proc();
        let _pad = reserve(&mut p, 3); // misalign next_mmap_vpn
        let base = p.reserve(2 * HUGE_PAGES, true, u64::MAX).unwrap();
        assert_eq!(base.vpn() % HUGE_PAGES, 0, "huge VMA base must align");
        assert!(p.vma_of(base.vpn()).unwrap().1.huge);
        // Partial unmaps of a huge VMA are rejected; whole works.
        assert!(p.remove_range(base, HUGE_PAGES).is_none());
        assert!(p.remove_range(base + PAGE_SIZE, HUGE_PAGES).is_none());
        assert!(p.remove_range(base, 2 * HUGE_PAGES).is_some());
        assert!(!p.is_mapped(base));
    }

    #[test]
    fn table_frame_bookkeeping_round_trips() {
        let mut p = proc();
        assert_eq!(p.root_table(), None);
        assert_eq!(p.table_frames().count(), 0);
        p.set_root_table(Pfn(100));
        p.set_leaf_table(0, Pfn(200));
        p.set_leaf_table(3, Pfn(300));
        assert_eq!(p.root_table(), Some(Pfn(100)));
        assert_eq!(p.leaf_table(3), Some(Pfn(300)));
        assert_eq!(p.leaf_table(1), None);
        assert_eq!(
            p.table_frames().collect::<Vec<_>>(),
            vec![Pfn(100), Pfn(200), Pfn(300)]
        );
    }
}
