//! Victim-level equivalence of the read memo and its closed form.
//!
//! `VictimCipherService::encrypt` and `VictimSession::encrypt` read their
//! tables through `MachineTableSource`, which serves lookups from a
//! `ReadRun` memo, or — once a session's run is warm — run the cipher on
//! the run's raw table copy and charge the reads in one step. The oracle
//! here is a test-local table source that reads every byte with plain
//! `SimMachine::read`. For every cipher, the same encryptions on two forks
//! of one machine must yield identical ciphertexts, identical errors and
//! identical machine snapshots — also when a victim read inside one held
//! session flips a bit of the table it is reading, and when the table was
//! faulted before the session opened: the closed form runs AES on word
//! tables prepared from the session's table copy, so it must carry the
//! fault exactly as the byte reads do.

use ciphers::{
    expand_key, ttable_aes_encrypt, AesKeySize, BlockCipher, Present80, ReferenceAes, SboxAes,
    TTableAes, TableImage, TableSource, FINAL_ROUND_S_LANE,
};
use dram::{DramCoord, DramGeometry, PhysAddr, WeakCellParams};
use explframe_core::{VictimCipherKind, VictimCipherService, VictimKeys};
use machine::{
    warm_boot, MachineConfig, MachineError, MachineSnapshot, Pid, SimMachine, VirtAddr,
    WARMUP_PAGES,
};
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

/// What one held session did, block by block.
struct SessionRun {
    /// Encryptions the closed form served.
    warm: u64,
    /// Closed-form ciphertexts that differ from `ReferenceAes` (AES only).
    faulty_warm: usize,
}

/// Encrypts `blocks` plaintexts through one `VictimSession` on one fork —
/// back to back, nothing else touching the machine, as in collect — and
/// through the scalar oracle on another, checking every output and the
/// final snapshot. With a `fault`, bit `fault.1` of table byte `fault.0`
/// is flipped in DRAM before the forks are taken. Once the closed form
/// serves a block it must serve every later one.
fn assert_session_equivalent(
    config: MachineConfig,
    kind: VictimCipherKind,
    blocks: u8,
    fault: Option<(u64, u8)>,
) -> SessionRun {
    let mut warm = warm_boot(config, CpuId(0), WARMUP_PAGES);
    let svc = VictimCipherService::start(&mut warm, CpuId(0), kind, VictimKeys::from_seed(8))
        .expect("victim start");
    if let Some((offset, bit)) = fault {
        let pa = warm.translate(svc.pid(), svc.table_base() + offset);
        let pa = pa.expect("table mapped");
        let byte = warm.dram_mut().read_byte(pa);
        warm.dram_mut().write_byte(pa, byte ^ (1 << bit));
    }
    let snapshot = warm.snapshot();
    let (mut fast_machine, mut oracle) = (snapshot.fork(), snapshot.fork());
    let mut reference = ReferenceAes::new_128(&svc.keys().aes);
    let mut faulty_warm = 0;
    let mut session = svc.session(&mut fast_machine);
    for i in 0..blocks {
        let plain: Vec<u8> = (0..svc.block_bytes() as u8)
            .map(|j| i.wrapping_mul(29) ^ j.wrapping_mul(7))
            .collect();
        let (mut fast, mut slow) = (plain.clone(), plain.clone());
        let warm_before = session.warm_encryptions();
        let fast_result = session.encrypt(&mut fast);
        let slow_result = encrypt_scalar(&svc, &mut oracle, &mut slow);
        assert_eq!(fast_result, slow_result, "{kind:?} block {i}");
        assert_eq!(fast, slow, "{kind:?} block {i}");
        let served_warm = session.warm_encryptions() > warm_before;
        assert!(
            served_warm || warm_before == 0,
            "{kind:?} block {i}: the session went cold after {warm_before} warm blocks"
        );
        if served_warm && kind != VictimCipherKind::Present {
            let mut clean = plain;
            reference.encrypt_block(&mut clean);
            faulty_warm += usize::from(fast != clean);
        }
    }
    let warm_encryptions = session.warm_encryptions();
    assert!(
        fast_machine.snapshot() == oracle.snapshot(),
        "{kind:?}: machine state diverged"
    );
    SessionRun {
        warm: warm_encryptions,
        faulty_warm,
    }
}

fn timed(seed: u64) -> MachineConfig {
    let mut config = MachineConfig::small(seed);
    config.dram = config.dram.with_timing_engine(true);
    config
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
fn session_encryptions_match_scalar_reads_and_go_closed_form() {
    let configs = [
        ("shadow", MachineConfig::small(14)),
        ("walk", MachineConfig::small(15).with_dram_page_tables(true)),
        ("timed", timed(16)),
    ];
    for (name, config) in configs {
        for kind in KINDS {
            let warm = assert_session_equivalent(config.clone(), kind, 24, None).warm;
            assert!(
                warm > 0,
                "{name}/{kind:?}: the closed form never engaged in 24 encryptions"
            );
        }
    }
}

/// A held session over a table with one bit flipped before it opens: the
/// closed form must engage and carry the fault into its ciphertexts.
fn assert_faulted_session(kind: VictimCipherKind, offset: usize, bit: u8) {
    let run = assert_session_equivalent(
        MachineConfig::small(17),
        kind,
        96,
        Some((offset as u64, bit)),
    );
    assert!(run.warm > 0, "{kind:?}: the closed form never engaged");
    assert!(
        run.faulty_warm > 0,
        "{kind:?}: no closed-form ciphertext showed the fault at byte {offset:#x}"
    );
}

#[test]
fn faulted_sbox_session_matches_scalar_reads() {
    assert_faulted_session(VictimCipherKind::AesSbox, 0x3a, 2);
}

#[test]
fn faulted_ttable_s_lane_session_matches_scalar_reads() {
    let offset = TableImage::te_entry_offset(1, 0x5c) + FINAL_ROUND_S_LANE[1];
    assert_faulted_session(VictimCipherKind::AesTtable, offset, 5);
}

#[test]
fn faulted_ttable_non_s_lane_session_matches_scalar_reads() {
    let offset = TableImage::te_entry_offset(3, 0x91) + (FINAL_ROUND_S_LANE[3] + 1) % 4;
    assert_faulted_session(VictimCipherKind::AesTtable, offset, 0);
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

/// Bytes per DRAM row in [`flip_scene`]: half a page, so the T-table's
/// first half (`Te0`, `Te1`) and second half (`Te2`, `Te3`) sit in
/// adjacent rows of one bank, and a read of one half activates the row
/// next to the other.
const HALF: u64 = 2048;

/// A held T-table session whose `flip` encryption flips a table bit.
struct FlipScene {
    snapshot: MachineSnapshot,
    svc: VictimCipherService,
    /// Blocks that miss the flushed line: every read hits the caches.
    before: Vec<[u8; 16]>,
    /// The first block reading the flushed line: the read reaches DRAM
    /// and its activation crosses the weak cell's threshold.
    flip: [u8; 16],
    /// The flipped table bit.
    target: (PhysAddr, u8),
}

/// A table source over raw bytes recording which lines it reads.
struct Lines<'t> {
    bytes: &'t [u8],
    read: [bool; 64],
}

impl TableSource for Lines<'_> {
    fn read_u8(&mut self, offset: usize) -> u8 {
        self.read[offset / 64] = true;
        self.bytes[offset]
    }

    fn len(&mut self) -> usize {
        self.bytes.len()
    }
}

/// Encrypts `blocks` through the scalar oracle; `Some(i)` if the `i`th
/// block flipped `target` (and none before it did).
fn oracle_flips_at(
    m: &mut SimMachine,
    svc: &VictimCipherService,
    blocks: &[[u8; 16]],
    target: (PhysAddr, u8),
) -> Option<usize> {
    let hit = |m: &SimMachine| m.dram().flips().iter().any(|f| (f.addr, f.bit) == target);
    for (i, plain) in blocks.iter().enumerate() {
        let mut block = *plain;
        encrypt_scalar(svc, m, &mut block).ok()?;
        if hit(m) {
            return Some(i);
        }
    }
    None
}

/// Builds a [`FlipScene`] on a one-bank machine with half-page rows:
///
/// 1. the victim's whole T-table is cached, then one line `X` of one half
///    (the aggressor row `A`) is flushed;
/// 2. a weak cell of the other half (row `V`) that holds its charged value
///    is hammered from `A` and `V`'s outer neighbour `O` to one activation
///    below its threshold, with the row buffer left on `O`;
/// 3. the plaintexts are chosen on the table as it then is: a few that
///    never read `X`, then one that does.
///
/// The scalar oracle (never the path under test) must flip the cell on
/// exactly that block; seeds and cells where a refresh or a weaker cell
/// gets in the way are skipped.
fn flip_scene() -> FlipScene {
    for seed in 0..64u64 {
        let mut config = MachineConfig::small(seed);
        config.dram.geometry = DramGeometry {
            channels: 1,
            ranks: 1,
            banks: 1,
            rows: 128 * 1024,
            row_bytes: HALF as u32,
        };
        config.dram.cells = WeakCellParams::flippy().with_density(1e-4);
        let mut m = warm_boot(config, CpuId(0), WARMUP_PAGES);
        let keys = VictimKeys::from_seed(seed);
        let svc = VictimCipherService::start(&mut m, CpuId(0), VictimCipherKind::AesTtable, keys)
            .expect("victim start");
        for line in 0..64 {
            m.read(svc.pid(), svc.table_base() + line * 64, &mut [0u8])
                .expect("cache the table");
        }
        let pa = m.translate(svc.pid(), svc.table_base()).expect("mapped");
        let round_keys = expand_key(&keys.aes, AesKeySize::Aes128);
        for victim_half in 0..2u64 {
            let aggressor_half = 1 - victim_half;
            let coord = |addr: PhysAddr| m.dram().mapping().phys_to_coord(addr);
            let victim_row = coord(pa + victim_half * HALF);
            let aggressor = pa + aggressor_half * HALF;
            let outer =
                victim_row.row as i64 + (victim_row.row as i64 - coord(aggressor).row as i64);
            let far = victim_row.row as i64 + 64;
            let rows = m.dram().config().geometry.rows as i64;
            if outer < 0 || far >= rows {
                continue;
            }
            let row_addr = |m: &SimMachine, row: i64| {
                m.dram().mapping().coord_to_phys(DramCoord {
                    row: row as u32,
                    col: 0,
                    ..victim_row
                })
            };
            let (outer, far) = (row_addr(&m, outer), row_addr(&m, far));
            let flushed = svc.table_base() + aggressor_half * HALF;
            let cells = m.dram().weak_cells_at(pa + victim_half * HALF);
            for cell in cells.iter() {
                let target = (
                    pa + victim_half * HALF + u64::from(cell.bit_in_row / 8),
                    (cell.bit_in_row % 8) as u8,
                );
                let charged = |m: &SimMachine| {
                    let mut byte = [0u8];
                    m.dram().copy_raw(target.0, &mut byte);
                    (byte[0] >> target.1) & 1 == 1
                };
                if charged(&m) != cell.polarity.charged_value() {
                    continue;
                }
                let mut w = m.snapshot().fork();
                w.clflush(svc.pid(), flushed).expect("clflush");
                // The most aggressor pairs that leave the cell unflipped
                // (a refresh inside the burst resets its row, so search).
                let start = w.snapshot();
                let flips_after = |pairs: u64| {
                    let mut h = start.fork();
                    let before = h.dram().flips().len();
                    let outcome = h.dram_mut().hammer_rows(&[aggressor, outer], pairs);
                    outcome.expect("one bank");
                    h.dram().flips()[before..]
                        .iter()
                        .any(|f| (f.addr, f.bit) == target)
                };
                let (mut lo, mut hi) = (0, 2 * cell.threshold_acts());
                if !flips_after(hi) {
                    continue;
                }
                while hi - lo > 1 {
                    let mid = (lo + hi) / 2;
                    if flips_after(mid) {
                        hi = mid;
                    } else {
                        lo = mid;
                    }
                }
                if lo == 0 {
                    continue;
                }
                w.dram_mut()
                    .hammer_rows(&[aggressor, outer], lo)
                    .expect("one bank");
                // One pair short: the next activation of the aggressor, or
                // the one after it from the outer row, crosses.
                for _ in 0..2 {
                    let mut bytes = [0u8; 4096];
                    w.dram().copy_raw(pa, &mut bytes);
                    let x = (aggressor_half * HALF / 64) as usize;
                    let mut before = Vec::new();
                    let mut flip = None;
                    for i in 0u8..=255 {
                        let plain = [i.wrapping_mul(73) ^ 0x5c; 16].map(|b| b ^ i.rotate_left(3));
                        let mut block = plain;
                        let mut lines = Lines {
                            bytes: &bytes,
                            read: [false; 64],
                        };
                        ttable_aes_encrypt(&round_keys, &mut lines, &mut block);
                        if !lines.read[x] && before.len() < 3 {
                            before.push(plain);
                        } else if lines.read[x] && before.len() == 3 {
                            flip = Some(plain);
                            break;
                        }
                    }
                    let Some(flip) = flip else { break };
                    let blocks: Vec<[u8; 16]> = before.iter().copied().chain([flip]).collect();
                    let snapshot = w.snapshot();
                    let mut probe = snapshot.fork();
                    match oracle_flips_at(&mut probe, &svc, &blocks, target) {
                        Some(i) if i == before.len() => {
                            return FlipScene {
                                snapshot,
                                svc,
                                before,
                                flip,
                                target,
                            };
                        }
                        Some(_) => break,
                        None => {
                            w.dram_mut().access(far);
                            w.dram_mut().access(outer);
                        }
                    }
                }
            }
        }
    }
    panic!("no seed in 0..64 gave a table cell one activation below its threshold");
}

#[test]
fn a_flip_inside_a_held_session_matches_scalar_reads() {
    let scene = flip_scene();
    let svc = scene.svc;
    let (mut fast_machine, mut oracle) = (scene.snapshot.fork(), scene.snapshot.fork());
    let flipped = |m: &SimMachine| {
        m.dram()
            .flips()
            .iter()
            .any(|f| (f.addr, f.bit) == scene.target)
    };
    assert!(
        !flipped(&fast_machine),
        "the cell must flip inside the session"
    );
    let after: Vec<[u8; 16]> = (0u8..64).map(|i| [i; 16].map(|b| b ^ 0xa7)).collect();
    let blocks: Vec<[u8; 16]> = scene
        .before
        .iter()
        .copied()
        .chain([scene.flip])
        .chain(after.iter().copied())
        .collect();
    let mut reference = ReferenceAes::new_128(&svc.keys().aes);
    let mut faulty_after_flip = 0;
    let mut session = svc.session(&mut fast_machine);
    for (i, plain) in blocks.iter().enumerate() {
        let (mut fast, mut slow) = (*plain, *plain);
        let fast_result = session.encrypt(&mut fast);
        let slow_result = encrypt_scalar(&svc, &mut oracle, &mut slow);
        assert_eq!(fast_result, slow_result, "block {i}");
        assert_eq!(fast, slow, "block {i}");
        let (has_flipped, oracle_flipped) = (flipped(session.machine()), flipped(&oracle));
        assert_eq!(has_flipped, oracle_flipped, "block {i}");
        assert_eq!(has_flipped, i >= scene.before.len(), "block {i}");
        if i < scene.before.len() {
            // The flushed line is unknown to the run, so nothing is warm.
            assert_eq!(session.warm_encryptions(), 0, "block {i}");
        } else {
            let mut clean = *plain;
            reference.encrypt_block(&mut clean);
            faulty_after_flip += usize::from(fast != clean);
        }
    }
    let warm = session.warm_encryptions();
    drop(session);
    assert!(
        warm > 0,
        "the closed form never engaged after the flip dropped the table copy"
    );
    assert!(
        faulty_after_flip > 0,
        "the flipped entry never changed a ciphertext, so a stale copy would pass"
    );
    assert_eq!(fast_machine.dram().flips(), oracle.dram().flips());
    assert!(
        fast_machine.snapshot() == oracle.snapshot(),
        "machine state diverged"
    );
}
