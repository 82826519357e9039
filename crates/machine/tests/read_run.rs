//! Equivalence battery for the per-run read memo.
//!
//! Random single-byte read sequences are split into runs, with other
//! machine operations between the runs. One fork of a snapshot reads each
//! run through a fresh [`ReadRun`] and [`SimMachine::read_byte_in`]; a
//! second fork of the same snapshot reads every byte with plain
//! [`SimMachine::read`], the oracle. Bytes and errors must match read for
//! read, and the whole [`MachineSnapshot`] (machine stats, TLB, both cache
//! levels of every CPU, DRAM contents, clock, command clock and ECC
//! counters) must match after every run.

use std::ops::Range;

use cachesim::{CacheConfig, TlbConfig};
use dram::{DramCoord, EccMode};
use machine::{
    warm_boot, MachineConfig, MachineError, MachineSnapshot, Pid, ReadRun, SimMachine, VirtAddr,
    WARMUP_PAGES,
};
use memsim::{CpuId, PAGE_SIZE};
use proptest::prelude::*;

/// Pages the noise process owns (cache and TLB pressure between runs).
const NOISE_PAGES: u64 = 32;

/// A warm machine holding a victim table and a noise process.
struct Scene {
    snapshot: MachineSnapshot,
    victim: Pid,
    noise: Pid,
    noise_buf: VirtAddr,
    /// First byte of the table span the runs copy from.
    base: VirtAddr,
    /// Table span length.
    len: u64,
    /// Half the reads land anywhere in `base..base + read_range` (past the
    /// span or the mapping where a scene wants that)...
    read_range: u64,
    /// ...and half in this hot range of offsets, so runs revisit lines and
    /// the memo has something to serve.
    hot: Range<u64>,
}

impl Scene {
    /// Decodes one generated read: even words land anywhere in the read
    /// range, odd words in the hot range.
    fn addr(&self, word: u16) -> VirtAddr {
        let r = u64::from(word >> 1);
        let offset = if word & 1 == 0 {
            r * self.read_range / 32_768
        } else {
            self.hot.start + r % (self.hot.end - self.hot.start)
        };
        self.base + offset
    }
}

/// Table bytes: distinct enough that a wrong offset reads a wrong value.
fn image(len: u64) -> Vec<u8> {
    (0..len).map(|i| (i * 37 + 11) as u8).collect()
}

/// Boots `config`, maps `pages` victim pages, and writes a `len`-byte table
/// at `offset` into them. Pages the table does not cover stay untouched,
/// so a run can fault them in.
fn build(config: MachineConfig, pages: u64, offset: u64, len: u64, read_range: u64) -> Scene {
    let mut m = warm_boot(config, CpuId(0), WARMUP_PAGES);
    let victim = m.spawn(CpuId(0));
    let vma = m.mmap(victim, pages).expect("victim mmap");
    let base = vma + offset;
    m.write(victim, base, &image(len)).expect("install table");
    let noise = m.spawn(CpuId(0));
    let noise_buf = m.mmap(noise, NOISE_PAGES).expect("noise mmap");
    m.fill(noise, noise_buf, NOISE_PAGES * PAGE_SIZE, 0x5A)
        .expect("noise fill");
    Scene {
        snapshot: m.snapshot(),
        victim,
        noise,
        noise_buf,
        base,
        len,
        read_range,
        hot: 0..len.min(256),
    }
}

/// A one-page table whose page carries a latent single-bit fault under
/// SECDED: every read of the page goes through correction, so the memo may
/// never serve those bytes from a raw copy.
fn ecc_scene() -> Scene {
    for seed in 0..400u64 {
        let mut config = MachineConfig::small(seed);
        config.dram = config.dram.with_ecc(EccMode::Secded);
        let scene = build(config, 1, 0, PAGE_SIZE, PAGE_SIZE);
        let mut m = scene.snapshot.fork();
        let table = m.translate(scene.victim, scene.base).expect("resident");
        let coord = m.dram().mapping().phys_to_coord(table);
        if coord.row < 1 || coord.row + 1 >= m.config().dram.geometry.rows {
            continue;
        }
        let cells = m.dram_mut().weak_cells_at(table);
        let page_cols = coord.col..coord.col + PAGE_SIZE as u32;
        let Some(cell) = cells
            .iter()
            .find(|c| page_cols.contains(&(c.bit_in_row / 8)))
            .copied()
        else {
            continue;
        };
        // Store the cell's charged value so the hammer can discharge it.
        let offset = u64::from(cell.bit_in_row / 8 - coord.col);
        let at = scene.base + offset;
        let bit = 1u8 << (cell.bit_in_row % 8);
        let mut byte = [0u8];
        m.read(scene.victim, at, &mut byte).expect("read table");
        let charged = if cell.polarity.charged_value() {
            byte[0] | bit
        } else {
            byte[0] & !bit
        };
        m.write(scene.victim, at, &[charged]).expect("write table");
        let aggressor = |row| {
            m.dram().mapping().coord_to_phys(DramCoord {
                row,
                col: 0,
                ..coord
            })
        };
        let (above, below) = (aggressor(coord.row - 1), aggressor(coord.row + 1));
        let flips = m
            .dram_mut()
            .hammer_pair(above, below, cell.threshold_acts() + 16)
            .expect("hammer")
            .flips;
        let in_table = flips
            .iter()
            .any(|f| f.addr.align_down(PAGE_SIZE) == table.align_down(PAGE_SIZE));
        if in_table && !m.dram().reads_are_raw() {
            // Hot reads hammer on the faulty line.
            let line = offset / 64 * 64;
            return Scene {
                snapshot: m.snapshot(),
                hot: line..line + 64,
                ..scene
            };
        }
    }
    panic!("no seed in 0..400 put a flippable weak cell in the table page");
}

/// An operation between two runs, applied identically to both forks.
#[derive(Debug, Clone, Copy)]
enum Between {
    /// The victim rewrites one table byte (new data; scrubs ECC faults).
    Write(u64, u8),
    /// `clflush` of one table line: the next read of it reaches DRAM.
    Flush(u64),
    /// The noise process writes on the victim's CPU (cache pressure).
    Noise(u64),
    /// TLB shootdown: the next read walks again.
    FlushTlb,
    /// Simulated time passes (refreshes with the command clock on).
    Advance(u64),
}

fn between() -> impl Strategy<Value = Between> {
    prop_oneof![
        (any::<u64>(), any::<u8>()).prop_map(|(o, v)| Between::Write(o, v)),
        any::<u64>().prop_map(Between::Flush),
        any::<u64>().prop_map(Between::Noise),
        Just(Between::FlushTlb),
        (0u64..20_000_000).prop_map(Between::Advance),
    ]
}

/// Runs of reads (each decoded by [`Scene::addr`]), each followed by one
/// other operation.
fn plan() -> impl Strategy<Value = Vec<(Vec<u16>, Between)>> {
    prop::collection::vec(
        (prop::collection::vec(any::<u16>(), 0..96), between()),
        1..6,
    )
}

fn apply(m: &mut SimMachine, scene: &Scene, op: Between) {
    match op {
        Between::Write(o, v) => m.write(scene.victim, scene.base + o % scene.len, &[v]),
        Between::Flush(o) => m.clflush(scene.victim, scene.base + o % scene.len),
        Between::Noise(o) => m.write(
            scene.noise,
            scene.noise_buf + o % (NOISE_PAGES * PAGE_SIZE - 8),
            &o.to_le_bytes(),
        ),
        Between::FlushTlb => {
            m.flush_tlb();
            Ok(())
        }
        Between::Advance(ns) => {
            m.advance(ns);
            Ok(())
        }
    }
    .expect("between-run op");
}

/// Replays `plan` on two forks of the scene and checks them read for read.
fn check(scene: &Scene, plan: &[(Vec<u16>, Between)]) -> Result<(), TestCaseError> {
    let mut memo = scene.snapshot.fork();
    let mut oracle = scene.snapshot.fork();
    for (reads, op) in plan {
        let addrs: Vec<VirtAddr> = reads.iter().map(|&r| scene.addr(r)).collect();
        let mut run = ReadRun::new(scene.victim, scene.base, scene.len as usize);
        for &addr in &addrs {
            let fast = memo.read_byte_in(&mut run, addr);
            let mut byte = [0u8];
            let slow: Result<u8, MachineError> =
                oracle.read(scene.victim, addr, &mut byte).map(|()| byte[0]);
            prop_assert_eq!(fast, slow, "read at {}", addr);
        }
        prop_assert!(
            memo.snapshot() == oracle.snapshot(),
            "machine state diverged after a run of {} reads",
            addrs.len()
        );
        apply(&mut memo, scene, *op);
        apply(&mut oracle, scene, *op);
    }
    Ok(())
}

/// A 4-set, 2-way L1 under an inclusive 2-set, 8-way LLC: lines collide in
/// every L1 set, and since one LLC set spans two L1 sets, an LLC eviction
/// can back-invalidate a line the run memoized in another L1 set.
fn tiny_caches(seed: u64) -> MachineConfig {
    MachineConfig {
        l1: CacheConfig::tiny(),
        llc: CacheConfig {
            sets: 2,
            ways: 8,
            line_bytes: 64,
        },
        ..MachineConfig::small(seed)
    }
}

fn timed(seed: u64) -> MachineConfig {
    let mut config = MachineConfig::small(seed);
    config.dram = config.dram.with_timing_engine(true);
    config
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// An S-box-sized table on a shadow-translation machine.
    #[test]
    fn memo_matches_scalar_reads_in_shadow_mode(plan in plan()) {
        check(&build(MachineConfig::small(31), 1, 0, 256, 256), &plan)?;
    }

    /// A page-sized table behind DRAM-resident page tables: TLB misses
    /// walk PTEs through the caches.
    #[test]
    fn memo_matches_scalar_reads_with_dram_page_tables(plan in plan()) {
        let config = MachineConfig::small(32).with_dram_page_tables(true);
        check(&build(config, 1, 0, PAGE_SIZE, PAGE_SIZE), &plan)?;
    }

    /// SECDED with a latent single-bit fault in the table page: the memo
    /// must keep filtering every byte through correction.
    #[test]
    fn memo_matches_scalar_reads_over_a_latent_ecc_fault(plan in plan()) {
        check(&ecc_scene(), &plan)?;
    }

    /// The command clock on: every L1 hit and DRAM access is scheduled.
    #[test]
    fn memo_matches_scalar_reads_with_the_timing_engine(plan in plan()) {
        check(&build(timed(33), 1, 0, 1024, 1024), &plan)?;
    }

    /// Tiny caches over a page-sized table, hot reads spread over 12 lines
    /// (three per L1 set): most reads fall back to the scalar path.
    #[test]
    fn memo_matches_scalar_reads_with_colliding_cache_lines(plan in plan()) {
        let scene = Scene {
            hot: 0..12 * 64,
            ..build(tiny_caches(34), 1, 0, PAGE_SIZE, PAGE_SIZE)
        };
        check(&scene, &plan)?;
    }

    /// A span crossing a page boundary, reads reaching past it into an
    /// untouched third page (demand faults inside a run). A 2-set TLB puts
    /// the first and third page in one set, so a stale page memo would
    /// miss an LRU reorder.
    #[test]
    fn memo_matches_scalar_reads_across_pages(plan in plan()) {
        let config = MachineConfig::small(35).with_tlb(TlbConfig::tiny());
        check(&build(config, 3, PAGE_SIZE - 128, 256, 2 * PAGE_SIZE), &plan)?;
    }

    /// Reads past the end of the mapping fail with the same
    /// `MachineError::Unmapped` on both paths.
    #[test]
    fn memo_matches_scalar_reads_past_the_mapping(plan in plan()) {
        check(&build(MachineConfig::small(36), 1, 0, PAGE_SIZE, PAGE_SIZE + 512), &plan)?;
    }
}

/// The past-the-mapping property above only compares the two paths; this
/// pins that they really fault there, and that a run recovers afterwards.
#[test]
fn a_read_past_the_mapping_is_unmapped_and_the_run_recovers() {
    let scene = build(MachineConfig::small(37), 1, 0, 64, 64);
    let mut m = scene.snapshot.fork();
    let mut run = ReadRun::new(scene.victim, scene.base, 64);
    assert_eq!(m.read_byte_in(&mut run, scene.base + 3), Ok(image(64)[3]));
    let past = scene.base + PAGE_SIZE;
    assert!(matches!(
        m.read_byte_in(&mut run, past),
        Err(MachineError::Unmapped { .. })
    ));
    // The run keeps working after the fault.
    assert_eq!(m.read_byte_in(&mut run, scene.base + 3), Ok(image(64)[3]));
}
