//! A per-run read memo: one victim encryption's table lookups without
//! replaying the whole hierarchy for every byte.
//!
//! A cipher table walk is thousands of single-byte reads of one page by one
//! process, with nothing else touching the machine in between. After the
//! first read of a page its TLB entry is most-recently-used, and after the
//! first read of a line that line is most-recently-used in its L1 set. A
//! later read of the same line would find both at the front of their sets
//! and change nothing but the hit counters, one flat L1 latency on the
//! clock, and `DramStats::reads`. [`SimMachine::read_byte_in`] applies
//! exactly those effects and skips the lookups; every other read takes the
//! scalar path [`SimMachine::read`] uses, and the memo is rebuilt from its
//! outcome.

use std::ops::Range;

use cachesim::{CacheConfig, ServedBy};
use dram::{Nanos, PhysAddr};
use memsim::{CpuId, PAGE_SIZE};

use crate::error::MachineError;
use crate::machine::{ScalarRead, SimMachine};
use crate::process::{Pid, VirtAddr};

/// An L1 set whose most-recently-used line the run does not know (no
/// physical line number reaches it).
const UNKNOWN_LINE: u64 = u64::MAX;

/// What an L1 hit charges the clock (the hierarchy's flat hit latency).
const L1_HIT_NS: Nanos = match ServedBy::L1.hit_nanos() {
    Some(ns) => ns,
    None => panic!("an L1 hit has a flat latency"),
};

/// The memo of one run of single-byte reads by one process — for a victim,
/// one encryption. Build one per run with [`ReadRun::new`] and pass it to
/// [`SimMachine::read_byte_in`] for each byte.
///
/// # Contract
///
/// Between the reads of one run, nothing else may touch the machine: the
/// memo assumes the TLB, the caches and the DRAM cells are exactly as its
/// last read left them. Start a new run after any other machine operation.
/// `explframe_core::MachineTableSource` guarantees this by holding the
/// machine's exclusive borrow for the run's whole life.
///
/// # Examples
///
/// ```
/// use machine::{MachineConfig, ReadRun, SimMachine};
/// use memsim::CpuId;
///
/// # fn main() -> Result<(), machine::MachineError> {
/// let mut m = SimMachine::new(MachineConfig::small(1));
/// let pid = m.spawn(CpuId(0));
/// let table = m.mmap(pid, 1)?;
/// m.write(pid, table, &[7, 8, 9])?;
/// let mut run = ReadRun::new(pid, table, 3);
/// assert_eq!(m.read_byte_in(&mut run, table + 2)?, 9);
/// assert_eq!(m.read_byte_in(&mut run, table + 2)?, 9); // served from the memo
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ReadRun {
    pid: Pid,
    /// The virtual span whose bytes the run may copy (the table image).
    span: Range<u64>,
    /// The page of the run's previous read, if that read succeeded.
    page: Option<RunPage>,
    /// Per L1 set: the line number (`phys >> line_shift`) this run knows to
    /// be most-recently-used there, or [`UNKNOWN_LINE`].
    l1_mru: Vec<u64>,
    /// Raw copy of `span` ∩ the memo page, taken on first use.
    bytes: Vec<u8>,
    /// Virtual address of `bytes[0]`; `None` until copied (or after a drop).
    copied_from: Option<u64>,
}

/// The translation the run's previous read resolved, and the L1 geometry
/// as shift and mask (cache dimensions are powers of two, so these equal
/// [`CacheConfig::line_of`] and [`CacheConfig::set_of`]).
#[derive(Debug, Clone, Copy)]
struct RunPage {
    vpn: u64,
    phys_base: u64,
    cpu: CpuId,
    line_shift: u32,
    set_mask: u64,
}

impl ReadRun {
    /// An empty memo for reads by `pid`; bytes inside `len` bytes from
    /// `base` may be served from a copy (reads outside it are still exact,
    /// they just always go to DRAM).
    #[must_use]
    pub fn new(pid: Pid, base: VirtAddr, len: usize) -> Self {
        ReadRun {
            pid,
            span: base.0..base.0.saturating_add(len as u64),
            page: None,
            l1_mru: Vec::new(),
            bytes: Vec::new(),
            copied_from: None,
        }
    }

    /// Rebuilds the memo from a scalar read of `addr`. Only an L1 hit on the
    /// memo's own page keeps the rest of the memo: an L1 miss may evict any
    /// line from the LLC (which back-invalidates the L1) or activate a row
    /// that flips neighbouring cells, and a different page may bring a TLB
    /// miss, which can walk page tables through the caches and fault pages
    /// in. (The memo page's own TLB entry is most-recently-used, so a read
    /// of it always hits.) The line just read is most-recently-used in its
    /// set either way — the data access is a scalar read's last cache access.
    fn observe(&mut self, addr: VirtAddr, read: &ScalarRead, l1: &CacheConfig) {
        let vpn = addr.vpn();
        let page = match self.page {
            Some(page) if read.served == ServedBy::L1 && page.vpn == vpn => page,
            _ => {
                let page = RunPage {
                    vpn,
                    phys_base: read.phys.as_u64() - addr.page_offset(),
                    cpu: read.cpu,
                    line_shift: l1.line_bytes.trailing_zeros(),
                    set_mask: u64::from(l1.sets - 1),
                };
                self.page = Some(page);
                self.l1_mru.clear();
                self.l1_mru.resize(l1.sets as usize, UNKNOWN_LINE);
                self.copied_from = None;
                page
            }
        };
        let line = read.phys.as_u64() >> page.line_shift;
        self.l1_mru[(line & page.set_mask) as usize] = line;
    }

    /// `span` ∩ the memo page, as a virtual range.
    fn window(&self, page: RunPage) -> Range<u64> {
        let page_va = page.vpn * PAGE_SIZE;
        self.span.start.max(page_va)..self.span.end.min(page_va + PAGE_SIZE)
    }
}

impl SimMachine {
    /// Reads the byte at `addr` as `run`'s process, through `run`'s memo.
    ///
    /// Byte, error, and every counter, cache line, TLB entry and clock tick
    /// equal a 1-byte [`Self::read`] — that scalar read is the oracle.
    /// The memo serves a read of the previous read's page whose line it
    /// knows to be most-recently-used in its L1 set: it counts one TLB hit
    /// and one L1 hit, charges the L1 latency, and takes the byte from a
    /// raw copy of the run's span while SECDED has nothing to correct
    /// ([`dram::DramDevice::reads_are_raw`]), else from DRAM through SECDED.
    /// Any other read takes the scalar path and rebuilds the memo from it.
    ///
    /// See [`ReadRun`] for the contract between reads of one run.
    ///
    /// # Errors
    ///
    /// Same as [`Self::touch`]; a failed read drops the memo.
    pub fn read_byte_in(&mut self, run: &mut ReadRun, addr: VirtAddr) -> Result<u8, MachineError> {
        self.stats.reads += 1;
        if let Some(page) = run.page.filter(|p| p.vpn == addr.vpn()) {
            let phys = page.phys_base + addr.page_offset();
            let line = phys >> page.line_shift;
            if run.l1_mru[(line & page.set_mask) as usize] == line {
                self.tlb.record_mru_hit();
                self.caches[page.cpu.0 as usize].record_l1_mru_hit();
                self.advance(L1_HIT_NS);
                return Ok(self.memo_byte(run, page, addr, PhysAddr::new(phys)));
            }
        }
        match self.read_byte_scalar(run.pid, addr) {
            Ok(read) => {
                run.observe(addr, &read, &self.config.l1);
                Ok(read.byte)
            }
            Err(e) => {
                run.page = None;
                Err(e)
            }
        }
    }

    /// The byte of a memo-served read: from the run's raw copy when `addr`
    /// is inside the span and DRAM reads are raw, else from DRAM. The copy
    /// is taken on the first such read and stays valid until the memo is
    /// rebuilt: only a write (a page fault) or an activation (an L1 miss)
    /// can change cells or make SECDED correct, and both drop it.
    fn memo_byte(
        &mut self,
        run: &mut ReadRun,
        page: RunPage,
        addr: VirtAddr,
        phys: PhysAddr,
    ) -> u8 {
        let start = match run.copied_from {
            Some(start) => start,
            None => {
                let window = run.window(page);
                if !window.contains(&addr.0) || !self.dram.reads_are_raw() {
                    return self.dram.read_byte(phys);
                }
                run.bytes.resize((window.end - window.start) as usize, 0);
                let from = page.phys_base + (window.start - page.vpn * PAGE_SIZE);
                self.dram.copy_raw(PhysAddr::new(from), &mut run.bytes);
                run.copied_from = Some(window.start);
                window.start
            }
        };
        match run.bytes.get(addr.0.wrapping_sub(start) as usize) {
            Some(&byte) => {
                self.dram.count_read();
                byte
            }
            None => self.dram.read_byte(phys),
        }
    }
}
