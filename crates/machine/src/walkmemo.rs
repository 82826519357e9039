//! What translation remembers between machine operations: the process
//! context of the last page walk, decoded copies of the page-table frames it
//! read, and which line sits at the front of each L1 set.
//!
//! None of it is machine state. A memoized walk charges every PTE fetch
//! exactly as the per-fetch walk does (one cache access, one counted DRAM
//! read, the hit latency on the clock); the memo only spares it the
//! lookups that cannot change the outcome:
//!
//! * **Process context.** The pid's CPU, root table and the VMA the last
//!   walk found. Processes never change CPU or root table, and a VMA only
//!   changes by `munmap` or `exit`, which drop the context.
//! * **Table copies.** The stored 8-byte words of up to [`MAX_TABLES`]
//!   table frames, taken with [`DramDevice::copy_raw`]. A copy serves a
//!   fetch only while DRAM reads are raw, and it is kept equal to the cells:
//!   a PTE store updates it, a flip logged in its frame since the last
//!   check is re-read from DRAM, and a data store into the frame (a
//!   corrupted translation can point anywhere) or any `dram_mut` borrow
//!   drops it. A flipped PTE therefore redirects the very next walk.
//! * **L1 fronts.** Per CPU and L1 set, the line known to be the set's
//!   most-recently-used, or none. Every cache access and `clflush` of the
//!   machine reports here: an access makes its line the front of its set,
//!   a full miss can back-invalidate exactly the one line the LLC evicted,
//!   and a flush removes its line. A fetch of a known front line is an L1
//!   hit that changes nothing but the hit counters, so it is counted with
//!   [`cachesim::CacheHierarchy::record_l1_mru_hits`] without a lookup.
//!
//! A clone, a restored machine and a fresh one start with an empty memo.

use std::fmt;

use dram::{DramDevice, PhysAddr};
use memsim::{CpuId, Pfn, PAGE_SIZE};

use crate::pagetable::{PTES_PER_TABLE, PTE_BYTES};
use crate::process::Pid;

/// Table frames the memo keeps copies of: a root and the three leaves a
/// buffer of up to 1536 pages spans (a templating buffer is 1024).
const MAX_TABLES: usize = 4;

/// An L1 set whose front line the memo does not know.
const UNKNOWN_LINE: u64 = u64::MAX;

/// The process context of the last walk: who walks, on which CPU, from
/// which root, inside which VMA (`vma_start..vma_end`, in VPNs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct WalkCtx {
    pub(crate) pid: Pid,
    pub(crate) cpu: CpuId,
    pub(crate) root: Pfn,
    pub(crate) vma_start: u64,
    pub(crate) vma_end: u64,
    pub(crate) huge: bool,
}

/// A copy of one table frame's stored words.
struct Table {
    frame: u64,
    words: Box<[u64; PTES_PER_TABLE as usize]>,
}

/// See the module docs. Equality ignores the memo and a clone starts empty:
/// it caches how to reach machine state, it is not state.
#[derive(Default)]
pub(crate) struct WalkMemo {
    ctx: Option<WalkCtx>,
    tables: Vec<Table>,
    /// The table slot the next copy replaces once all are taken.
    next_slot: usize,
    /// Length of the DRAM flip log when the copies were last checked.
    flips_seen: usize,
    /// CPU-major, per L1 set: the line number (`phys >> line_shift`) known
    /// to be the set's front, or [`UNKNOWN_LINE`]. Empty until first used.
    l1_front: Vec<u64>,
}

impl Clone for WalkMemo {
    fn clone(&self) -> Self {
        Self::default()
    }
}

impl PartialEq for WalkMemo {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl fmt::Debug for WalkMemo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("WalkMemo")
    }
}

impl WalkMemo {
    /// Forgets everything: the machine's caches, DRAM or processes were
    /// replaced wholesale.
    pub(crate) fn clear(&mut self) {
        self.forget_process();
        self.forget_tables();
        self.l1_front.fill(UNKNOWN_LINE);
    }

    /// Forgets the process context (a VMA or a process went away).
    pub(crate) fn forget_process(&mut self) {
        self.ctx = None;
    }

    /// Forgets every table copy (DRAM may have changed behind the memo's
    /// back, or table frames were freed).
    pub(crate) fn forget_tables(&mut self) {
        self.tables.clear();
        self.next_slot = 0;
    }

    /// The context of the last walk, if it was `pid`'s and its VMA holds
    /// `vpn`.
    pub(crate) fn ctx(&self, pid: Pid, vpn: u64) -> Option<WalkCtx> {
        self.ctx
            .filter(|c| c.pid == pid && (c.vma_start..c.vma_end).contains(&vpn))
    }

    pub(crate) fn set_ctx(&mut self, ctx: WalkCtx) {
        self.ctx = Some(ctx);
    }

    /// The stored word at PTE `slot`, from a copy of its table frame (taken
    /// now if the memo holds none). Only valid while `dram`'s reads are raw.
    pub(crate) fn pte(&mut self, dram: &DramDevice, slot: u64) -> u64 {
        self.sync_flips(dram);
        let frame = slot / PAGE_SIZE;
        let index = ((slot % PAGE_SIZE) / PTE_BYTES) as usize;
        if let Some(table) = self.tables.iter().find(|t| t.frame == frame) {
            return table.words[index];
        }
        let at = if self.tables.len() < MAX_TABLES {
            self.tables.push(Table {
                frame,
                words: Box::new([0; PTES_PER_TABLE as usize]),
            });
            self.tables.len() - 1
        } else {
            let at = self.next_slot;
            self.next_slot = (at + 1) % MAX_TABLES;
            self.tables[at].frame = frame;
            at
        };
        let mut bytes = [0u8; PAGE_SIZE as usize];
        dram.copy_raw(PhysAddr::new(frame * PAGE_SIZE), &mut bytes);
        let words = &mut self.tables[at].words;
        for (word, raw) in words.iter_mut().zip(bytes.chunks_exact(8)) {
            *word = u64::from_le_bytes(raw.try_into().expect("8-byte word"));
        }
        words[index]
    }

    /// Re-reads every copied word a flip logged since the last check landed
    /// in.
    fn sync_flips(&mut self, dram: &DramDevice) {
        let flips = dram.flips();
        if flips.len() == self.flips_seen {
            return;
        }
        if flips.len() < self.flips_seen {
            self.forget_tables();
        }
        let fresh = match self.tables.is_empty() {
            true => &[][..],
            false => flips.get(self.flips_seen..).unwrap_or_default(),
        };
        for flip in fresh {
            let addr = flip.addr.as_u64();
            let frame = addr / PAGE_SIZE;
            if let Some(table) = self.tables.iter_mut().find(|t| t.frame == frame) {
                let word = addr & !(PTE_BYTES - 1);
                let mut bytes = [0u8; PTE_BYTES as usize];
                dram.copy_raw(PhysAddr::new(word), &mut bytes);
                table.words[((word % PAGE_SIZE) / PTE_BYTES) as usize] = u64::from_le_bytes(bytes);
            }
        }
        self.flips_seen = flips.len();
    }

    /// A PTE store of `value` at `slot`: keeps a copy of its frame equal.
    pub(crate) fn pte_stored(&mut self, slot: u64, value: u64) {
        let frame = slot / PAGE_SIZE;
        if let Some(table) = self.tables.iter_mut().find(|t| t.frame == frame) {
            table.words[((slot % PAGE_SIZE) / PTE_BYTES) as usize] = value;
        }
    }

    /// A data store to `len` bytes at `phys`: drops the copy of every frame
    /// it overlaps.
    pub(crate) fn data_stored(&mut self, phys: u64, len: u64) {
        if self.tables.is_empty() {
            return;
        }
        let (first, end) = (phys / PAGE_SIZE, (phys + len).div_ceil(PAGE_SIZE));
        let before = self.tables.len();
        self.tables.retain(|t| !(first..end).contains(&t.frame));
        if self.tables.len() != before {
            self.next_slot = 0;
        }
    }

    /// Whether `line` is known to be the front of its L1 set on `cpu`
    /// (`sets` L1 sets per CPU).
    #[inline]
    pub(crate) fn l1_is_front(&self, cpu: usize, sets: u32, line: u64) -> bool {
        self.l1_front.get(l1_slot(cpu, sets, line)) == Some(&line)
    }

    /// An access of `line` on `cpu` (`cpus` CPUs with `sets` L1 sets each):
    /// it is now its set's front, and `evicted`, the line a full miss pushed
    /// out of the LLC, is gone from the L1.
    #[inline]
    pub(crate) fn l1_accessed(
        &mut self,
        cpus: usize,
        cpu: usize,
        sets: u32,
        line: u64,
        evicted: Option<u64>,
    ) {
        if self.l1_front.is_empty() {
            self.l1_front.resize(cpus * sets as usize, UNKNOWN_LINE);
        }
        if let Some(gone) = evicted {
            self.l1_flushed(cpu, sets, gone);
        }
        self.l1_front[l1_slot(cpu, sets, line)] = line;
    }

    /// `line` left the L1 of `cpu` (a flush, or an inclusive
    /// back-invalidation); removing any other line keeps its set's front.
    #[inline]
    pub(crate) fn l1_flushed(&mut self, cpu: usize, sets: u32, line: u64) {
        if let Some(front) = self.l1_front.get_mut(l1_slot(cpu, sets, line)) {
            if *front == line {
                *front = UNKNOWN_LINE;
            }
        }
    }
}

/// Index of `line`'s L1 set on `cpu` in [`WalkMemo::l1_front`].
#[inline]
fn l1_slot(cpu: usize, sets: u32, line: u64) -> usize {
    cpu * sets as usize + (line & u64::from(sets - 1)) as usize
}
