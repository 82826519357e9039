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
//!
//! `VictimSession::encrypt_blocks`, the batch form a collect runs, has one
//! `VictimSession::encrypt` per block as its oracle: held sessions driven
//! in batches of random lengths must match twins driven one block at a
//! time after every batch — cold and warm blocks, batches straddling the
//! cold→warm switch and tREFI boundaries, faulted tables and a walk-mode
//! crash included.

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
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

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

/// What [`assert_batches_match_single_blocks`] saw.
#[derive(Debug, Default)]
struct BatchRun {
    /// Blocks the batched session encrypted, a faulting one included.
    blocks: usize,
    /// Encryptions the closed form served.
    warm: u64,
    /// Refreshes the command clock retired during the run.
    refs: u64,
    /// Batches that began cold and ended warm: the cold→warm switch
    /// landed inside them.
    switched_mid_batch: usize,
    /// The first fault: the block's index in the whole run, and its error.
    fault: Option<(usize, MachineError)>,
}

/// Drives `svc` through one held session on a fork of `snapshot` in
/// batches of random lengths from 0 to 70 (drawn from `seed`) until
/// `blocks` blocks are done or one faults, and a twin session on another
/// fork one `encrypt` at a time. Both draw their plaintexts from twin RNG
/// streams, the batch through its `draw` callback. After every batch the
/// ciphertexts, the result (the faulting block's index and error
/// included), the RNG streams (so both drew the same number of blocks),
/// the closed-form count, the machine, TLB and DRAM counters, the clock
/// and the whole machine (whose equality covers every cache and its
/// counters) must match.
fn assert_batches_match_single_blocks(
    snapshot: &MachineSnapshot,
    svc: &VictimCipherService,
    seed: u64,
    blocks: usize,
) -> BatchRun {
    let (mut batched, mut single) = (snapshot.fork(), snapshot.fork());
    let mut lengths = StdRng::seed_from_u64(seed);
    let mut batch_plains = StdRng::seed_from_u64(!seed);
    let mut single_plains = StdRng::seed_from_u64(!seed);
    let kind = svc.kind();
    let mut session = svc.session(&mut batched);
    let mut twin = svc.session(&mut single);
    let mut run = BatchRun::default();
    let refs_before = session.machine().dram().stats().refs;
    let mut k = 0;
    while run.blocks < blocks {
        let len = lengths.gen_range(0..=70usize).min(blocks - run.blocks);
        let warm_before = session.warm_encryptions();
        let mut batch = vec![[0u8; 16]; len];
        let result = session.encrypt_blocks(&mut batch, |plain| batch_plains.fill(plain));
        let mut expect = Ok(());
        let mut singles = Vec::new();
        for i in 0..len {
            let mut block = [0u8; 16];
            single_plains.fill(&mut block[..]);
            let one = twin.encrypt(&mut block);
            singles.push(block);
            if let Err(e) = one {
                expect = Err((i, e));
                break;
            }
        }
        assert_eq!(result, expect, "{kind:?} batch {k}");
        assert_eq!(batch[..singles.len()], singles[..], "{kind:?} batch {k}");
        assert_eq!(
            batch_plains.clone().next_u64(),
            single_plains.clone().next_u64(),
            "{kind:?} batch {k}: the batch drew another number of blocks"
        );
        assert_eq!(
            session.warm_encryptions(),
            twin.warm_encryptions(),
            "{kind:?} batch {k}"
        );
        let (a, b) = (session.machine(), twin.machine());
        assert_eq!(a.now(), b.now(), "{kind:?} batch {k}");
        assert_eq!(a.stats(), b.stats(), "{kind:?} batch {k}");
        assert_eq!(a.tlb().stats(), b.tlb().stats(), "{kind:?} batch {k}");
        assert_eq!(a.dram().stats(), b.dram().stats(), "{kind:?} batch {k}");
        assert!(a == b, "{kind:?} batch {k}: machine state diverged");
        let warm_after = session.warm_encryptions();
        run.switched_mid_batch +=
            usize::from(warm_before == 0 && warm_after > 0 && warm_after < len as u64);
        if let Err((i, e)) = result {
            run.blocks += i + 1;
            run.fault = Some((run.blocks - 1, e));
            break;
        }
        run.blocks += len;
        k += 1;
    }
    run.warm = session.warm_encryptions();
    run.refs = session.machine().dram().stats().refs - refs_before;
    run
}

/// A victim of `kind` started on a warm machine of `config`, with bit
/// `fault.1` of table byte `fault.0` flipped through `dram_mut` and the
/// table lines listed in `flushed` flushed, all before the snapshot.
fn batch_scene(
    config: MachineConfig,
    kind: VictimCipherKind,
    fault: Option<(u64, u8)>,
    flushed: &[u64],
) -> (MachineSnapshot, VictimCipherService) {
    let mut m = warm_boot(config, CpuId(0), WARMUP_PAGES);
    let svc = VictimCipherService::start(&mut m, CpuId(0), kind, VictimKeys::from_seed(9))
        .expect("victim start");
    if let Some((offset, bit)) = fault {
        let pa = m.translate(svc.pid(), svc.table_base() + offset);
        let pa = pa.expect("table mapped");
        let byte = m.dram_mut().read_byte(pa);
        m.dram_mut().write_byte(pa, byte ^ (1 << bit));
    }
    for &line in flushed {
        m.clflush(svc.pid(), svc.table_base() + line * 64)
            .expect("clflush");
    }
    (m.snapshot(), svc)
}

const AES_KINDS: [VictimCipherKind; 2] = [VictimCipherKind::AesSbox, VictimCipherKind::AesTtable];

#[test]
fn batched_sessions_match_single_blocks_and_switch_to_closed_form_mid_batch() {
    for (seed, config) in [
        (21, MachineConfig::small(21)),
        (22, MachineConfig::small(22).with_dram_page_tables(true)),
    ] {
        for kind in AES_KINDS {
            // Flushed table lines keep the session cold for a few blocks.
            for flushed in [&[][..], &[0, 2, 3][..]] {
                let (snapshot, svc) = batch_scene(config.clone(), kind, None, flushed);
                let run = assert_batches_match_single_blocks(&snapshot, &svc, seed, 400);
                assert!(run.fault.is_none(), "{kind:?}: {:?}", run.fault);
                assert!(run.warm > 0, "{kind:?}: the closed form never engaged");
                assert_eq!(
                    run.switched_mid_batch, 1,
                    "{kind:?}, flushed {flushed:?}: the cold→warm switch fell between batches"
                );
            }
        }
    }
}

/// The command clock on: a warm batch charges `n` blocks' reads in one
/// step, which must retire the same refreshes as `n` single charges,
/// over runs spanning several tREFI at the standard and at shortened
/// refresh intervals.
#[test]
fn batched_sessions_match_single_blocks_across_trefi() {
    for (seed, scale) in [(23, 1.0), (24, 0.37), (25, 0.05)] {
        let mut config = timed(seed);
        config.dram.timing = config.dram.timing.with_refresh_scale(scale);
        for kind in AES_KINDS {
            let (snapshot, svc) = batch_scene(config.clone(), kind, None, &[]);
            let run = assert_batches_match_single_blocks(&snapshot, &svc, seed, 600);
            assert!(run.warm > 0, "{kind:?}: the closed form never engaged");
            assert!(
                run.refs >= 4,
                "{kind:?} at scale {scale}: the run spanned only {} tREFI",
                run.refs
            );
        }
    }
}

/// Tables faulted through `dram_mut` before the session opens: the batch
/// kernel runs on word tables prepared from the faulted copy.
#[test]
fn batched_sessions_over_faulted_tables_match_single_blocks() {
    let s_lane = TableImage::te_entry_offset(2, 0x17) + FINAL_ROUND_S_LANE[2];
    let other_lane = TableImage::te_entry_offset(0, 0xc4) + (FINAL_ROUND_S_LANE[0] + 2) % 4;
    let cases = [
        (VictimCipherKind::AesSbox, 0x3a, 2),
        (VictimCipherKind::AesSbox, 0xff, 7),
        (VictimCipherKind::AesTtable, s_lane, 5),
        (VictimCipherKind::AesTtable, other_lane, 1),
    ];
    for (i, (kind, offset, bit)) in cases.into_iter().enumerate() {
        let fault = Some((offset as u64, bit));
        let (snapshot, svc) = batch_scene(MachineConfig::small(26), kind, fault, &[]);
        let run = assert_batches_match_single_blocks(&snapshot, &svc, 30 + i as u64, 500);
        assert!(run.warm > 0, "{kind:?}: the closed form never engaged");
    }
}

/// Walk mode with the victim's leaf PTE corrupted and the TLB shot down:
/// the batch faults at the block the single-block twin faults at, with
/// the same error, and draws no block after it.
#[test]
fn batched_walk_mode_fault_is_captured_at_the_same_block() {
    for kind in AES_KINDS {
        let mut m = warm_boot(
            MachineConfig::small(27).with_dram_page_tables(true),
            CpuId(0),
            WARMUP_PAGES,
        );
        let svc = VictimCipherService::start(&mut m, CpuId(0), kind, VictimKeys::from_seed(5))
            .expect("victim start");
        let slot = m.pte_phys(svc.pid(), svc.table_base()).expect("leaf PTE");
        let mut pte = [0u8; 8];
        m.dram_mut().read(slot, &mut pte);
        let wild = u64::from_le_bytes(pte) | (1 << 40);
        m.dram_mut().write(slot, &wild.to_le_bytes());
        m.flush_tlb();
        let run = assert_batches_match_single_blocks(&m.snapshot(), &svc, 28, 200);
        assert!(
            matches!(run.fault, Some((0, MachineError::Unmapped { .. }))),
            "{kind:?}: the corrupted walk must fault the first block: {:?}",
            run.fault
        );
    }
}
