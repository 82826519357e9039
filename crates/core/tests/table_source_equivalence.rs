//! Victim-level equivalence of the per-encryption read memo.
//!
//! `VictimCipherService::encrypt` reads its tables through
//! `MachineTableSource`, which serves lookups from a `ReadRun` memo. The
//! oracle here is a test-local table source that reads every byte with
//! plain `SimMachine::read`. For every cipher, the same encryptions on two
//! forks of one machine must yield identical ciphertexts, identical errors
//! and identical machine snapshots.

use ciphers::{BlockCipher, Present80, SboxAes, TTableAes, TableSource};
use explframe_core::{VictimCipherKind, VictimCipherService, VictimKeys};
use machine::{warm_boot, MachineConfig, MachineError, Pid, SimMachine, VirtAddr, WARMUP_PAGES};
use memsim::CpuId;

/// The scalar oracle: one plain `SimMachine::read` per table byte, with the
/// same first-fault capture as `MachineTableSource`.
struct ScalarSource<'m> {
    machine: &'m mut SimMachine,
    pid: Pid,
    base: VirtAddr,
    len: usize,
    fault: Option<MachineError>,
}

impl TableSource for ScalarSource<'_> {
    fn read_u8(&mut self, offset: usize) -> u8 {
        assert!(offset < self.len, "table read beyond the image");
        if self.fault.is_some() {
            return 0;
        }
        let mut byte = [0u8];
        match self
            .machine
            .read(self.pid, self.base + offset as u64, &mut byte)
        {
            Ok(()) => byte[0],
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

/// `VictimCipherService::encrypt` over the scalar oracle.
fn encrypt_scalar(
    svc: &VictimCipherService,
    machine: &mut SimMachine,
    block: &mut [u8],
) -> Result<(), MachineError> {
    let keys = svc.keys();
    let mut src = ScalarSource {
        machine,
        pid: svc.pid(),
        base: svc.table_base(),
        len: svc.kind().image_len(),
        fault: None,
    };
    match svc.kind() {
        VictimCipherKind::AesSbox => SboxAes::new_128(&keys.aes, &mut src).encrypt_block(block),
        VictimCipherKind::AesTtable => {
            TTableAes::new_128(&keys.aes, &mut src).encrypt_block(block);
        }
        VictimCipherKind::Present => Present80::new(&keys.present, &mut src).encrypt_block(block),
    }
    src.fault.map_or(Ok(()), Err)
}

/// Encrypts `blocks` plaintexts on both forks, flushing one table line
/// every few blocks so some lookups reach DRAM, and checks every output.
fn assert_equivalent(config: MachineConfig, kind: VictimCipherKind, blocks: u8) {
    let mut warm = warm_boot(config, CpuId(0), WARMUP_PAGES);
    let svc = VictimCipherService::start(&mut warm, CpuId(0), kind, VictimKeys::from_seed(7))
        .expect("victim start");
    let snapshot = warm.snapshot();
    let (mut memo, mut oracle) = (snapshot.fork(), snapshot.fork());
    for i in 0..blocks {
        if i % 5 == 4 {
            let line = svc.table_base() + u64::from(i) * 64 % kind.image_len() as u64;
            for m in [&mut memo, &mut oracle] {
                m.clflush(svc.pid(), line).expect("clflush");
            }
        }
        let plain: Vec<u8> = (0..svc.block_bytes() as u8)
            .map(|j| i.wrapping_mul(31) ^ j)
            .collect();
        let (mut fast, mut slow) = (plain.clone(), plain);
        let fast_result = svc.encrypt(&mut memo, &mut fast);
        let slow_result = encrypt_scalar(&svc, &mut oracle, &mut slow);
        assert_eq!(fast_result, slow_result, "{kind:?} block {i}");
        assert_eq!(fast, slow, "{kind:?} block {i}");
    }
    assert!(
        memo.snapshot() == oracle.snapshot(),
        "{kind:?}: machine state diverged"
    );
}

const KINDS: [VictimCipherKind; 3] = [
    VictimCipherKind::AesSbox,
    VictimCipherKind::AesTtable,
    VictimCipherKind::Present,
];

#[test]
fn memoized_encryptions_match_scalar_reads_for_every_cipher() {
    for kind in KINDS {
        assert_equivalent(MachineConfig::small(11), kind, 24);
    }
}

#[test]
fn memoized_encryptions_match_scalar_reads_in_walk_mode() {
    for kind in KINDS {
        assert_equivalent(
            MachineConfig::small(12).with_dram_page_tables(true),
            kind,
            12,
        );
    }
}

#[test]
fn walk_mode_first_fault_is_captured_identically() {
    // Corrupt the victim's leaf PTE so the table page decodes outside DRAM
    // (the segfault analog), then shoot the TLB down so the next lookup
    // walks the corrupted entry.
    let mut m = warm_boot(
        MachineConfig::small(13).with_dram_page_tables(true),
        CpuId(0),
        WARMUP_PAGES,
    );
    let kind = VictimCipherKind::AesSbox;
    let svc = VictimCipherService::start(&mut m, CpuId(0), kind, VictimKeys::from_seed(3))
        .expect("victim start");
    let slot = m.pte_phys(svc.pid(), svc.table_base()).expect("leaf PTE");
    let mut pte = [0u8; 8];
    m.dram_mut().read(slot, &mut pte);
    let wild = u64::from_le_bytes(pte) | (1 << 40);
    m.dram_mut().write(slot, &wild.to_le_bytes());
    m.flush_tlb();

    let snapshot = m.snapshot();
    let (mut memo, mut oracle) = (snapshot.fork(), snapshot.fork());
    let (mut fast, mut slow) = ([0x42u8; 16], [0x42u8; 16]);
    let fast_result = svc.encrypt(&mut memo, &mut fast);
    let slow_result = encrypt_scalar(&svc, &mut oracle, &mut slow);
    assert!(
        matches!(fast_result, Err(MachineError::Unmapped { .. })),
        "the corrupted walk must fault: {fast_result:?}"
    );
    assert_eq!(fast_result, slow_result);
    assert_eq!(fast, slow, "both finish on the same garbage");
    assert!(memo.snapshot() == oracle.snapshot());
}
