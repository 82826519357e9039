//! Equivalence battery for page-run fills and read-backs and the memoized
//! page walk.
//!
//! One fork of a snapshot runs every operation through the fast paths —
//! [`SimMachine::fill`], [`SimMachine::read_diff`],
//! [`SimMachine::hammer_rows_virt`] and [`SimMachine::touch`] — and a second
//! fork through their oracles, the per-page, per-fetch `*_reference` loops.
//! Every other operation (reads, writes, flushes, TLB shootdowns, PTE
//! corruption through `dram_mut`, time passing) runs identically on both.
//! Results and errors must match operation for operation, and so must the
//! whole machine (DRAM cells and counters, flip log, clock, command clock,
//! ECC tracker, caches, TLB, allocator and processes) after every step.

use std::sync::OnceLock;

use cachesim::CacheConfig;
use dram::{DramCoord, EccMode, TrrParams};
use machine::{warm_boot, MachineConfig, MachineError, MachineSnapshot, Pid, SimMachine, VirtAddr};
use memsim::{CpuId, PAGE_SIZE};
use proptest::prelude::*;

/// Pages of the base-page buffer: more than one 512-page leaf.
const PAGES: u64 = 600;

/// Pages between two rows of one bank on the small geometry (two 4 KiB
/// pages per 8 KiB row, eight banks, linear mapping).
const STRIDE: u64 = 16;

/// A warm machine with an attacker process and its buffers.
struct Scene {
    snapshot: MachineSnapshot,
    pid: Pid,
    /// [`PAGES`] base pages; the first 520 are resident (filled with
    /// `0xFF`), the rest are faulted in by the operations.
    buf: VirtAddr,
    /// One 2 MiB huge chunk, untouched until an operation reaches it.
    huge: Option<VirtAddr>,
}

/// One point of the configuration lattice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Lattice {
    walk: bool,
    ecc: bool,
    trr: bool,
    timed: bool,
    huge: bool,
    /// A 4-set, 2-way L1 under a 2-set, 8-way LLC: PTE and data lines
    /// collide in every set, and LLC evictions back-invalidate L1 lines.
    tiny: bool,
}

impl Lattice {
    fn all() -> Vec<Lattice> {
        (0..64u8)
            .map(|bits| Lattice {
                walk: bits & 1 != 0,
                ecc: bits & 2 != 0,
                trr: bits & 4 != 0,
                timed: bits & 8 != 0,
                huge: bits & 16 != 0,
                tiny: bits & 32 != 0,
            })
            .collect()
    }

    fn config(self, seed: u64) -> MachineConfig {
        let mut config = MachineConfig::small(seed).with_dram_page_tables(self.walk);
        if self.ecc {
            config.dram = config.dram.with_ecc(EccMode::Secded);
        }
        if self.trr {
            config.dram = config.dram.with_trr(Some(TrrParams::ddr4_like()));
        }
        config.dram = config.dram.with_timing_engine(self.timed);
        if self.tiny {
            config.l1 = CacheConfig::tiny();
            config.llc = CacheConfig {
                sets: 2,
                ways: 8,
                line_bytes: 64,
            };
        }
        config
    }
}

fn build(lattice: Lattice, seed: u64) -> Scene {
    let mut m = warm_boot(lattice.config(seed), CpuId(0), 64);
    let pid = m.spawn(CpuId(0));
    let buf = m.mmap(pid, PAGES).expect("buffer");
    let huge = lattice
        .huge
        .then(|| m.mmap_huge(pid, 1).expect("huge chunk"));
    m.fill(pid, buf, 520 * PAGE_SIZE, 0xFF).expect("fill");
    if lattice.ecc {
        // Hammer until some cell holds a latent fault, so reads start out
        // filtered by SECDED rather than raw. Twelve rows get past TRR.
        for first in (0..200).step_by(2) {
            if !m.dram().reads_are_raw() {
                break;
            }
            let rows: Vec<VirtAddr> = (0..12)
                .map(|k| buf + (first + k * STRIDE) * PAGE_SIZE)
                .collect();
            let _ = m.hammer_rows_virt(pid, &rows, 400_000);
        }
        assert!(!m.dram().reads_are_raw(), "no latent SECDED fault");
    }
    Scene {
        snapshot: m.snapshot(),
        pid,
        buf,
        huge,
    }
}

/// Every lattice point's scene, built once per test binary.
fn scene(lattice: Lattice) -> &'static Scene {
    static SCENES: OnceLock<Vec<Scene>> = OnceLock::new();
    let scenes = SCENES.get_or_init(|| Lattice::all().into_iter().map(|l| build(l, 5)).collect());
    let at = Lattice::all()
        .iter()
        .position(|&l| l == lattice)
        .expect("a lattice point");
    &scenes[at]
}

/// One operation, applied to both forks.
#[derive(Debug, Clone)]
enum Op {
    /// Fill from page `page` (head offset `head`) for `len` bytes.
    Fill {
        page: u16,
        head: u16,
        len: u32,
        value: u8,
    },
    /// Fill inside the huge chunk (if the scene has one).
    FillHuge { page: u16, len: u32, value: u8 },
    /// Read back one page against `pattern`.
    ReadDiff { page: u16, pattern: u8 },
    /// Hammer `rows` rows one bank-stride apart, from page `first`.
    Hammer { first: u16, rows: u8, rounds: u32 },
    /// Resolve one page (`touch`).
    Touch { page: u16 },
    /// Plain multi-byte read.
    Read { page: u16, off: u16, len: u16 },
    /// Plain one-byte write.
    Write { page: u16, off: u16, byte: u8 },
    /// `clflush` of one page's first line.
    Clflush { page: u16 },
    /// TLB shootdown.
    FlushTlb,
    /// Simulated time passes.
    Advance(u32),
    /// Flip one bit of a page's PTE through `dram_mut` (walk mode only).
    CorruptPte { page: u16, bit: u8 },
}

fn op() -> impl Strategy<Value = Op> {
    // Pages reach a little past the buffer: those operations fault.
    let page = 0u16..(PAGES as u16 + 8);
    prop_oneof![
        (
            page.clone(),
            any::<u16>(),
            0u32..(40 * PAGE_SIZE as u32),
            any::<u8>()
        )
            .prop_map(|(page, head, len, value)| Op::Fill {
                page,
                head: head % PAGE_SIZE as u16,
                len,
                value,
            }),
        (0u16..512, 0u32..(8 * PAGE_SIZE as u32), any::<u8>())
            .prop_map(|(page, len, value)| Op::FillHuge { page, len, value }),
        (
            page.clone(),
            prop_oneof![Just(0xFFu8), Just(0u8), any::<u8>()]
        )
            .prop_map(|(page, pattern)| Op::ReadDiff { page, pattern }),
        (0u16..(PAGES as u16), 1u8..9, 0u32..400_000).prop_map(|(first, rows, rounds)| {
            Op::Hammer {
                first,
                rows,
                rounds,
            }
        }),
        page.clone().prop_map(|page| Op::Touch { page }),
        (page.clone(), any::<u16>(), 0u16..9000).prop_map(|(page, off, len)| Op::Read {
            page,
            off: off % PAGE_SIZE as u16,
            len,
        }),
        (page.clone(), any::<u16>(), any::<u8>()).prop_map(|(page, off, byte)| Op::Write {
            page,
            off: off % PAGE_SIZE as u16,
            byte,
        }),
        page.clone().prop_map(|page| Op::Clflush { page }),
        Just(Op::FlushTlb),
        (0u32..20_000_000).prop_map(Op::Advance),
        (0u16..(PAGES as u16), 0u8..64).prop_map(|(page, bit)| Op::CorruptPte { page, bit }),
    ]
}

/// What one operation returned, comparable across the forks.
#[derive(Debug, PartialEq)]
enum Outcome {
    Unit(Result<(), MachineError>),
    Diff(Result<(dram::PageDiff, Vec<(u16, u8)>), MachineError>),
    Hammer(Result<(u64, u64), MachineError>),
    Phys(Result<dram::PhysAddr, MachineError>),
    Bytes(Result<Vec<u8>, MachineError>),
}

fn apply(m: &mut SimMachine, scene: &Scene, op: &Op, reference: bool) -> Outcome {
    let page = |p: u16| scene.buf + u64::from(p) * PAGE_SIZE;
    let pid = scene.pid;
    match *op {
        Op::Fill {
            page: p,
            head,
            len,
            value,
        } => {
            let addr = page(p) + u64::from(head);
            Outcome::Unit(if reference {
                m.fill_reference(pid, addr, u64::from(len), value)
            } else {
                m.fill(pid, addr, u64::from(len), value)
            })
        }
        Op::FillHuge {
            page: p,
            len,
            value,
        } => {
            let Some(huge) = scene.huge else {
                return Outcome::Unit(Ok(()));
            };
            let addr = huge + u64::from(p) * PAGE_SIZE;
            Outcome::Unit(if reference {
                m.fill_reference(pid, addr, u64::from(len), value)
            } else {
                m.fill(pid, addr, u64::from(len), value)
            })
        }
        Op::ReadDiff { page: p, pattern } => {
            let mut out = Vec::new();
            let diff = if reference {
                m.read_diff_reference(pid, page(p), pattern, &mut out)
            } else {
                m.read_diff(pid, page(p), pattern, &mut out)
            };
            Outcome::Diff(diff.map(|d| (d, out)))
        }
        Op::Hammer {
            first,
            rows,
            rounds,
        } => {
            let rows: Vec<VirtAddr> = (0..u64::from(rows))
                .map(|i| page(first) + i * STRIDE * PAGE_SIZE)
                .collect();
            let outcome = if reference {
                m.hammer_rows_virt_reference(pid, &rows, u64::from(rounds))
            } else {
                m.hammer_rows_virt(pid, &rows, u64::from(rounds))
            };
            Outcome::Hammer(outcome.map(|o| (o.acts, o.elapsed)))
        }
        Op::Touch { page: p } => Outcome::Phys(if reference {
            m.touch_reference(pid, page(p))
        } else {
            m.touch(pid, page(p))
        }),
        Op::Read { page: p, off, len } => {
            let mut buf = vec![0u8; usize::from(len)];
            Outcome::Bytes(
                m.read(pid, page(p) + u64::from(off), &mut buf)
                    .map(|()| buf),
            )
        }
        Op::Write { page: p, off, byte } => {
            Outcome::Unit(m.write(pid, page(p) + u64::from(off), &[byte]))
        }
        Op::Clflush { page: p } => Outcome::Unit(m.clflush(pid, page(p))),
        Op::FlushTlb => {
            m.flush_tlb();
            Outcome::Unit(Ok(()))
        }
        Op::Advance(ns) => {
            m.advance(u64::from(ns));
            Outcome::Unit(Ok(()))
        }
        Op::CorruptPte { page: p, bit } => {
            if let Some(slot) = m.pte_phys(pid, page(p)) {
                let mut bytes = [0u8; 8];
                m.dram_mut().read(slot, &mut bytes);
                let pte = u64::from_le_bytes(bytes) ^ (1 << bit);
                m.dram_mut().write(slot, &pte.to_le_bytes());
            }
            Outcome::Unit(Ok(()))
        }
    }
}

/// Runs `ops` on a fast and a reference fork of `scene`, comparing every
/// outcome and the whole machine after every step.
fn check(scene: &Scene, ops: &[Op]) -> Result<(), TestCaseError> {
    let mut fast = scene.snapshot.fork();
    let mut oracle = scene.snapshot.fork();
    for (i, op) in ops.iter().enumerate() {
        let got = apply(&mut fast, scene, op, false);
        let want = apply(&mut oracle, scene, op, true);
        prop_assert_eq!(got, want, "op {} {:?}", i, op);
        prop_assert!(
            fast == oracle,
            "machine state diverged after op {} {:?}",
            i,
            op
        );
        prop_assert_eq!(fast.now(), oracle.now());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random fill, read-back, hammer and flip sequences over the whole
    /// lattice: shadow and walk translation × SECDED (starting from a
    /// latent fault) × TRR × command clock × a huge-page VMA × colliding
    /// cache lines.
    #[test]
    fn page_runs_and_memoized_walks_match_their_reference_loops(
        point in 0usize..64,
        ops in prop::collection::vec(op(), 1..24),
    ) {
        check(scene(Lattice::all()[point]), &ops)?;
    }
}

/// Shadow and walk-mode scenes without countermeasures.
fn plain(walk: bool) -> &'static Scene {
    scene(Lattice {
        walk,
        ecc: false,
        trr: false,
        timed: false,
        huge: true,
        tiny: false,
    })
}

/// Runs `ops` through [`check`] on shadow and walk translation.
fn check_both(ops: &[Op]) {
    for walk in [false, true] {
        check(plain(walk), ops).unwrap_or_else(|e| panic!("walk={walk}: {e}"));
    }
}

#[test]
fn a_run_across_a_leaf_boundary_matches_the_reference() {
    // Resident pages 500..520 then untouched ones past the 512-page leaf
    // boundary, faulted in by the run itself; then read-backs on both
    // sides of the boundary and a hammer whose rows straddle it.
    check_both(&[
        Op::Fill {
            page: 500,
            head: 0,
            len: 30 * PAGE_SIZE as u32,
            value: 0x3C,
        },
        Op::ReadDiff {
            page: 511,
            pattern: 0x3C,
        },
        Op::ReadDiff {
            page: 512,
            pattern: 0x3C,
        },
        Op::Hammer {
            first: 496,
            rows: 4,
            rounds: 50_000,
        },
        Op::Fill {
            page: 505,
            head: 0,
            len: 20 * PAGE_SIZE as u32,
            value: 0xC3,
        },
    ]);
}

#[test]
fn a_run_with_partial_head_and_tail_pages_matches_the_reference() {
    check_both(&[
        Op::Fill {
            page: 10,
            head: 100,
            len: 3 * PAGE_SIZE as u32 + 50,
            value: 0x11,
        },
        Op::Fill {
            page: 530,
            head: 4000,
            len: 200,
            value: 0x22,
        },
        Op::Read {
            page: 10,
            off: 90,
            len: 4 * PAGE_SIZE as u16,
        },
    ]);
}

#[test]
fn a_run_into_the_end_of_its_vma_fails_at_the_same_page() {
    // The run covers the buffer's last two pages, then its guard page: the
    // pages before the fault are filled on both forks and the error names
    // the same address.
    for walk in [false, true] {
        let scene = plain(walk);
        let mut fast = scene.snapshot.fork();
        let mut oracle = scene.snapshot.fork();
        let addr = scene.buf + (PAGES - 2) * PAGE_SIZE;
        let got = fast.fill(scene.pid, addr, 4 * PAGE_SIZE, 0x77);
        let want = oracle.fill_reference(scene.pid, addr, 4 * PAGE_SIZE, 0x77);
        assert!(matches!(
            want,
            Err(MachineError::Unmapped { addr: at, .. }) if at == scene.buf + PAGES * PAGE_SIZE
        ));
        assert_eq!(got, want);
        assert!(fast == oracle, "walk={walk}");
    }
}

#[test]
fn runs_over_a_huge_page_vma_match_the_reference() {
    check_both(&[
        Op::FillHuge {
            page: 5,
            len: 3 * PAGE_SIZE as u32,
            value: 0xA5,
        },
        Op::FillHuge {
            page: 509,
            len: 3 * PAGE_SIZE as u32,
            value: 0x5A,
        },
        Op::Touch { page: 3 },
        Op::FlushTlb,
        Op::FillHuge {
            page: 0,
            len: 512 * PAGE_SIZE as u32,
            value: 0xFF,
        },
    ]);
}

/// A walk-mode scene in which hammering two buffer rows flips a bit of a
/// PTE in one of the buffer's own leaf tables, changing the translation
/// of `redirected`: the machine after the setup, the aggressors and the
/// burst length.
struct LeafFlip {
    snapshot: MachineSnapshot,
    pid: Pid,
    aggressors: [VirtAddr; 2],
    rounds: u64,
    redirected: VirtAddr,
}

fn leaf_flip_scene() -> LeafFlip {
    let pages = 1024u64;
    for seed in 0..300u64 {
        let config = MachineConfig::small(seed).with_dram_page_tables(true);
        let mut m = warm_boot(config, CpuId(0), 64);
        let pid = m.spawn(CpuId(0));
        let buf = m.mmap(pid, pages).expect("buffer");
        m.fill(pid, buf, pages * PAGE_SIZE, 0).expect("fill");
        let frames: Vec<u64> = (0..pages)
            .map(|i| {
                m.translate(pid, buf + i * PAGE_SIZE)
                    .expect("resident")
                    .as_u64()
            })
            .collect();
        for first in [0, 512] {
            let leaf = m
                .pte_phys(pid, buf + first * PAGE_SIZE)
                .expect("leaf slot")
                .align_down(PAGE_SIZE);
            let mapping = m.dram().mapping();
            let coord = mapping.phys_to_coord(leaf);
            let rows = m.config().dram.geometry.rows;
            if coord.row == 0 || coord.row + 1 >= rows {
                continue;
            }
            let at_row = |row| {
                mapping.coord_to_phys(DramCoord {
                    row,
                    col: 0,
                    ..coord
                })
            };
            let page_of = |phys: dram::PhysAddr| {
                let frame = phys.align_down(PAGE_SIZE).as_u64();
                frames.iter().position(|&f| f == frame)
            };
            let (Some(above), Some(below)) = (
                page_of(at_row(coord.row - 1)),
                page_of(at_row(coord.row + 1)),
            ) else {
                continue;
            };
            for cell in m.dram().weak_cells_at(leaf) {
                let byte = mapping.coord_to_phys(DramCoord {
                    col: cell.bit_in_row / 8,
                    ..coord
                });
                if byte.align_down(PAGE_SIZE) != leaf {
                    continue;
                }
                let bit = cell.bit_in_row % 8;
                let mut stored = [0u8];
                m.dram().copy_raw(byte, &mut stored);
                let word_bit = (byte.as_u64() % 8) * 8 + u64::from(bit);
                let charged = stored[0] & (1 << bit) != 0;
                // A flip must change what the PTE translates to: the
                // present bit or a frame bit.
                if charged != cell.polarity.charged_value() || (1..12).contains(&word_bit) {
                    continue;
                }
                let slot = (byte.as_u64() - leaf.as_u64()) / 8;
                return LeafFlip {
                    snapshot: m.snapshot(),
                    pid,
                    aggressors: [
                        buf + above as u64 * PAGE_SIZE,
                        buf + below as u64 * PAGE_SIZE,
                    ],
                    rounds: cell.threshold_acts() + 64,
                    redirected: buf + (first + slot) * PAGE_SIZE,
                };
            }
        }
    }
    panic!("no seed in 0..300 put a flippable PTE bit next to two buffer rows");
}

#[test]
fn a_leaf_pte_flipped_between_two_hammer_calls_redirects_the_next_walk() {
    let scene = leaf_flip_scene();
    let mut fast = scene.snapshot.fork();
    let mut oracle = scene.snapshot.fork();
    let pid = scene.pid;
    let shadow = fast.translate(pid, scene.redirected).expect("resident");
    // Warm the walk memo on the leaf table before the flip: the first
    // burst walks its aggressors through it.
    let burst = |m: &mut SimMachine, rows: &[VirtAddr], rounds, reference: bool| {
        let outcome = if reference {
            m.hammer_rows_virt_reference(pid, rows, rounds)
        } else {
            m.hammer_rows_virt(pid, rows, rounds)
        };
        outcome.map(|o| (o.acts, o.elapsed))
    };
    assert_eq!(fast.touch(pid, scene.redirected), Ok(shadow));
    assert_eq!(oracle.touch_reference(pid, scene.redirected), Ok(shadow));
    let flips_before = fast.dram().flips().len();
    assert_eq!(
        burst(&mut fast, &scene.aggressors, scene.rounds, false),
        burst(&mut oracle, &scene.aggressors, scene.rounds, true)
    );
    let slot = fast.pte_phys(pid, scene.redirected).expect("leaf slot");
    assert!(
        fast.dram().flips()[flips_before..]
            .iter()
            .any(|f| f.addr.align_down(8) == slot),
        "the burst flipped the PTE"
    );
    // The next hammer call walks the redirected page as an aggressor.
    let next = [scene.redirected, scene.aggressors[0]];
    assert_eq!(
        burst(&mut fast, &next, 1_000, false),
        burst(&mut oracle, &next, 1_000, true)
    );
    assert!(fast == oracle, "machine state diverged");
    // And its walk lands somewhere the kernel never mapped it.
    let walked = fast.touch(pid, scene.redirected);
    assert_eq!(walked, oracle.touch_reference(pid, scene.redirected));
    assert_ne!(walked, Ok(shadow), "the flip redirects the walk");
    assert!(fast == oracle, "machine state diverged");
}

#[test]
fn a_flushed_line_is_fetched_from_memory_again() {
    // The read-back and the fill make each page's first line the front of
    // its L1 set; `clflush` must take that knowledge away with the line.
    // A hammer call leaves its aggressor lines known-absent; a read-back of
    // one brings it back, so the next call must flush it for real.
    check_both(&[
        Op::Hammer {
            first: 100,
            rows: 2,
            rounds: 1_000,
        },
        Op::ReadDiff {
            page: 100,
            pattern: 0xFF,
        },
        Op::Hammer {
            first: 100,
            rows: 2,
            rounds: 1_000,
        },
        Op::ReadDiff {
            page: 100,
            pattern: 0xFF,
        },
        Op::ReadDiff {
            page: 7,
            pattern: 0xFF,
        },
        Op::Clflush { page: 7 },
        Op::ReadDiff {
            page: 7,
            pattern: 0xFF,
        },
        Op::Fill {
            page: 8,
            head: 0,
            len: 64,
            value: 0x42,
        },
        Op::Clflush { page: 8 },
        Op::Fill {
            page: 8,
            head: 0,
            len: 64,
            value: 0x24,
        },
    ]);
}

#[test]
fn a_write_through_a_pte_redirected_onto_its_leaf_table_redirects_the_next_walk() {
    // The PTE-flip escalation in miniature: page A's PTE is corrupted to
    // map A onto the leaf table itself, and a write through A rewrites
    // page B's PTE to point at page C's frame. The memoized walk must drop
    // its copy of the table the write landed in.
    let scene = plain(true);
    let pid = scene.pid;
    let (a, b, c) = (scene.buf, scene.buf + PAGE_SIZE, scene.buf + 2 * PAGE_SIZE);
    let mut fast = scene.snapshot.fork();
    let mut oracle = scene.snapshot.fork();
    let c_frame = fast.translate(pid, c).expect("resident");
    let mut walks = Vec::new();
    for (m, reference) in [(&mut fast, false), (&mut oracle, true)] {
        let walk = |m: &mut SimMachine, va| {
            if reference {
                m.touch_reference(pid, va)
            } else {
                m.touch(pid, va)
            }
        };
        assert_eq!(
            walk(m, b),
            m.translate(pid, b)
                .ok_or(MachineError::NoSuchProcess { pid })
        );
        let slot_a = m.pte_phys(pid, a).expect("leaf slot");
        let slot_b = m.pte_phys(pid, b).expect("leaf slot");
        let leaf = slot_a.align_down(PAGE_SIZE);
        m.dram_mut()
            .write(slot_a, &(leaf.as_u64() | 1).to_le_bytes());
        m.flush_tlb();
        assert_eq!(walk(m, a), Ok(leaf), "A maps its own leaf table");
        let pte_b = (c_frame.as_u64() | 1).to_le_bytes();
        m.write(pid, a + (slot_b.as_u64() - leaf.as_u64()), &pte_b)
            .expect("write through A");
        m.flush_tlb();
        walks.push(walk(m, b));
    }
    assert_eq!(walks[0], Ok(c_frame), "B now walks to C's frame");
    assert_eq!(walks[0], walks[1]);
    assert!(fast == oracle, "machine state diverged");
}
