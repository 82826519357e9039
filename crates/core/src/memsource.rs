//! A [`TableSource`] backed by simulated machine memory.

use ciphers::TableSource;
use machine::{MachineError, Pid, ReadRun, SimMachine, VirtAddr};

/// Reads cipher table bytes through a process's virtual memory on a
/// [`SimMachine`] — the glue that makes a Rowhammer flip in the victim's
/// page corrupt its encryptions.
///
/// # Exclusive-borrow contract
///
/// The source holds `&mut SimMachine` for its whole lifetime, not just
/// during [`read_u8`](TableSource::read_u8) calls. This is deliberate:
/// every table lookup is a *memory access* on the simulated machine
/// (advancing time, touching caches, hitting DRAM), and the
/// [`TableSource`] trait's `read_u8(&mut self, offset)` has no machine
/// parameter through which a narrower borrow could flow. Holding the
/// exclusive borrow guarantees nothing else can mutate machine state
/// between the lookups of one encryption — which is exactly the atomicity
/// a real in-process table read has.
///
/// The borrow also scopes the source's [`ReadRun`] memo: each lookup goes
/// through [`SimMachine::read_byte_in`], which serves repeat reads of a
/// known most-recently-used line without replaying the TLB and cache
/// lookups. That memo is only sound while nothing else touches the
/// machine, which the borrow guarantees; it dies with the source. Every
/// byte, error, counter and clock tick equals a plain
/// [`SimMachine::read`] per lookup.
///
/// Consequences for callers:
///
/// * construct one source per encryption call and let it drop immediately
///   after (see [`VictimCipherService::encrypt`](crate::VictimCipherService::encrypt));
/// * do not cache a source across machine operations — the borrow checker
///   will stop you, and that is the contract working as intended;
/// * reads outside the declared `len` are a bug in the cipher, not a
///   recoverable condition, and panic.
///
/// # Fault capture (DRAM-resident page tables)
///
/// On a shadow-translation machine a table read cannot fail while the
/// service holds its mapping. With page tables in DRAM, however, the
/// victim's *translation* is itself hammerable: a collateral flip in one of
/// its table frames can detach the table page mid-encryption (the
/// [`MachineError::Unmapped`] segfault analog) or send the walk outside the
/// device. The [`TableSource`] trait has no error channel, so the source
/// records the **first** such fault and returns `0` for that read and every
/// later one — the cipher finishes on garbage, exactly like a process
/// running between a corrupted load and its delayed crash. Callers must
/// check [`take_fault`](Self::take_fault) after the encryption and discard
/// the block if a fault fired.
#[derive(Debug)]
pub struct MachineTableSource<'m> {
    machine: &'m mut SimMachine,
    run: ReadRun,
    base: VirtAddr,
    len: usize,
    fault: Option<MachineError>,
}

impl<'m> MachineTableSource<'m> {
    /// Creates a source reading `len` bytes starting at `base` in `pid`'s
    /// address space.
    pub fn new(machine: &'m mut SimMachine, pid: Pid, base: VirtAddr, len: usize) -> Self {
        MachineTableSource {
            machine,
            run: ReadRun::new(pid, base, len),
            base,
            len,
            fault: None,
        }
    }

    /// The first machine fault a table read hit, if any (reads after the
    /// first fault return `0` without touching the machine again).
    #[must_use]
    pub fn fault(&self) -> Option<&MachineError> {
        self.fault.as_ref()
    }

    /// Consumes the recorded fault, leaving the source clean.
    pub fn take_fault(&mut self) -> Option<MachineError> {
        self.fault.take()
    }
}

impl TableSource for MachineTableSource<'_> {
    fn read_u8(&mut self, offset: usize) -> u8 {
        assert!(
            offset < self.len,
            "table read at {offset} beyond image length {}",
            self.len
        );
        if self.fault.is_some() {
            return 0;
        }
        match self
            .machine
            .read_byte_in(&mut self.run, self.base + offset as u64)
        {
            Ok(byte) => byte,
            Err(e) => {
                self.fault = Some(e);
                0
            }
        }
    }

    fn len(&mut self) -> usize {
        self.len
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use machine::MachineConfig;
    use memsim::CpuId;

    #[test]
    fn reads_installed_bytes() {
        let mut m = SimMachine::new(MachineConfig::small(3));
        let pid = m.spawn(CpuId(0));
        let va = m.mmap(pid, 1).unwrap();
        m.write(pid, va, &[10, 20, 30]).unwrap();
        let mut src = MachineTableSource::new(&mut m, pid, va, 3);
        assert_eq!(src.read_u8(0), 10);
        assert_eq!(src.read_u8(2), 30);
        assert_eq!(src.len(), 3);
    }

    #[test]
    fn faulting_read_is_recorded_and_returns_zero() {
        let mut m = SimMachine::new(MachineConfig::small(3));
        let pid = m.spawn(CpuId(0));
        // No mapping at this address: every read is the segfault analog.
        let va = VirtAddr(0x40_0000);
        let mut src = MachineTableSource::new(&mut m, pid, va, 4);
        assert_eq!(src.read_u8(0), 0);
        assert!(matches!(src.fault(), Some(MachineError::Unmapped { .. })));
        // Later reads short-circuit on the sticky fault.
        assert_eq!(src.read_u8(3), 0);
        assert!(matches!(
            src.take_fault(),
            Some(MachineError::Unmapped { .. })
        ));
        assert_eq!(src.take_fault(), None);
    }

    #[test]
    #[should_panic(expected = "beyond image length")]
    fn out_of_image_read_panics() {
        let mut m = SimMachine::new(MachineConfig::small(3));
        let pid = m.spawn(CpuId(0));
        let va = m.mmap(pid, 1).unwrap();
        m.write(pid, va, &[0]).unwrap();
        let mut src = MachineTableSource::new(&mut m, pid, va, 1);
        src.read_u8(1);
    }
}
