//! Property-based tests for the composed machine.

use machine::{MachineConfig, SimMachine, VirtAddr};
use memsim::{CpuId, PAGE_SIZE};
use proptest::prelude::*;

/// Random process/memory operation schedules.
#[derive(Debug, Clone)]
enum Op {
    Spawn(u8),
    Mmap(u8, u8),
    Touch(u8, u8),
    Munmap(u8),
    Sleep(u8),
    Exit(u8),
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            (0u8..4).prop_map(Op::Spawn),
            (any::<u8>(), 1u8..16).prop_map(|(p, n)| Op::Mmap(p, n)),
            (any::<u8>(), any::<u8>()).prop_map(|(p, o)| Op::Touch(p, o)),
            any::<u8>().prop_map(Op::Munmap),
            any::<u8>().prop_map(Op::Sleep),
            any::<u8>().prop_map(Op::Exit),
        ],
        1..80,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Frame conservation across arbitrary process lifecycles: after
    /// exiting every process and draining caches, every frame is free.
    #[test]
    fn frames_are_conserved(schedule in ops()) {
        let mut m = SimMachine::new(MachineConfig::small(1));
        let total = m.allocator().total_free_pages();
        let mut pids = Vec::new();
        let mut vmas: Vec<(machine::Pid, VirtAddr, u64)> = Vec::new();

        for op in schedule {
            match op {
                Op::Spawn(cpu) => pids.push(m.spawn(CpuId(cpu as u32 % 4))),
                Op::Mmap(p, n) if !pids.is_empty() => {
                    let pid = pids[p as usize % pids.len()];
                    if let Ok(va) = m.mmap(pid, n as u64) {
                        vmas.push((pid, va, n as u64));
                    }
                }
                Op::Touch(p, off) if !vmas.is_empty() => {
                    let (pid, va, n) = vmas[p as usize % vmas.len()];
                    let addr = va + (off as u64 % n) * PAGE_SIZE;
                    // The pid may have exited; both outcomes are legal.
                    let _ = m.write(pid, addr, &[off]);
                }
                Op::Munmap(p) if !vmas.is_empty() => {
                    let (pid, va, n) = vmas.swap_remove(p as usize % vmas.len());
                    let _ = m.munmap(pid, va, n);
                }
                Op::Sleep(p) if !pids.is_empty() => {
                    let pid = pids[p as usize % pids.len()];
                    let _ = m.sleep(pid, 1_000_000);
                }
                Op::Exit(p) if !pids.is_empty() => {
                    let pid = pids.swap_remove(p as usize % pids.len());
                    let _ = m.exit(pid);
                    vmas.retain(|(q, _, _)| *q != pid);
                }
                _ => {}
            }
        }
        for pid in pids {
            m.exit(pid).unwrap();
        }
        m.allocator_mut().reclaim(CpuId(0));
        prop_assert_eq!(m.allocator().total_free_pages(), total);
        // The buddy allocators are internally consistent.
        for zone in m.allocator().zones() {
            zone.buddy().check_invariants().map_err(TestCaseError::fail)?;
        }
    }

    /// No two live pages of any processes ever share a frame.
    #[test]
    fn no_frame_is_shared(schedule in ops()) {
        let mut m = SimMachine::new(MachineConfig::small(2));
        let mut pids = Vec::new();
        let mut vmas: Vec<(machine::Pid, VirtAddr, u64)> = Vec::new();
        for op in schedule {
            match op {
                Op::Spawn(cpu) => pids.push(m.spawn(CpuId(cpu as u32 % 4))),
                Op::Mmap(p, n) if !pids.is_empty() => {
                    let pid = pids[p as usize % pids.len()];
                    if let Ok(va) = m.mmap(pid, n as u64) {
                        vmas.push((pid, va, n as u64));
                    }
                }
                Op::Touch(p, off) if !vmas.is_empty() => {
                    let (pid, va, n) = vmas[p as usize % vmas.len()];
                    let _ = m.write(pid, va + (off as u64 % n) * PAGE_SIZE, &[1]);
                }
                Op::Munmap(p) if !vmas.is_empty() => {
                    let (pid, va, n) = vmas.swap_remove(p as usize % vmas.len());
                    let _ = m.munmap(pid, va, n);
                }
                _ => {}
            }
            // Invariant: all resident frames across all processes unique.
            let mut seen = std::collections::HashSet::new();
            for &pid in &pids {
                if let Ok(proc) = m.process(pid) {
                    for (_, pfn) in proc.resident() {
                        prop_assert!(seen.insert(pfn), "frame {pfn} mapped twice");
                    }
                }
            }
        }
    }

    /// Reads always return the most recent write through the same mapping.
    #[test]
    fn read_your_writes(
        offsets in prop::collection::vec((0u64..16 * 4096, any::<u8>()), 1..40)
    ) {
        let mut m = SimMachine::new(MachineConfig::small(3));
        let pid = m.spawn(CpuId(0));
        let va = m.mmap(pid, 16).unwrap();
        let mut model = std::collections::HashMap::new();
        for (off, val) in offsets {
            m.write(pid, va + off, &[val]).unwrap();
            model.insert(off, val);
        }
        for (off, val) in model {
            let mut b = [0u8];
            m.read(pid, va + off, &mut b).unwrap();
            prop_assert_eq!(b[0], val);
        }
    }
}

/// Operations on the shadow page table, for the page-map model test.
#[derive(Debug, Clone)]
enum PageOp {
    Spawn,
    Mmap(u8, u16),
    MmapHuge(u8),
    Touch(u8, u16),
    /// Unmaps a sub-range of a base-page VMA (the whole VMA if huge): the
    /// two words pick its start and length.
    Munmap(u8, u16, u16),
    Exit(u8),
}

fn page_ops() -> impl Strategy<Value = Vec<PageOp>> {
    prop::collection::vec(
        prop_oneof![
            Just(PageOp::Spawn),
            (any::<u8>(), 1u16..1200).prop_map(|(p, n)| PageOp::Mmap(p, n)),
            any::<u8>().prop_map(PageOp::MmapHuge),
            (any::<u8>(), any::<u16>()).prop_map(|(v, o)| PageOp::Touch(v, o)),
            (any::<u8>(), any::<u16>()).prop_map(|(v, o)| PageOp::Touch(v, o)),
            (any::<u8>(), any::<u16>()).prop_map(|(v, o)| PageOp::Touch(v, o)),
            (any::<u8>(), any::<u16>(), any::<u16>()).prop_map(|(v, a, n)| PageOp::Munmap(v, a, n)),
            any::<u8>().prop_map(PageOp::Exit),
        ],
        1..60,
    )
}

/// One live VMA as the model sees it: owner, first vpn, pages, huge.
type ModelVma = (machine::Pid, u64, u64, bool);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The shadow page table against a `BTreeMap` model: random mmap, huge
    /// mmap, touch, partial munmap and exit sequences (on shadow and walk
    /// machines alike) must leave `frame_of` on every live and recently
    /// unmapped page, the vpn order of `resident()` and `resident_pages()`
    /// as the model has them after every step.
    #[test]
    fn page_map_matches_a_btreemap_model(schedule in page_ops(), walk in any::<bool>()) {
        use std::collections::BTreeMap;
        let config = MachineConfig::small(5).with_dram_page_tables(walk);
        let mut m = SimMachine::new(config);
        let mut model: BTreeMap<machine::Pid, BTreeMap<u64, memsim::Pfn>> = BTreeMap::new();
        let mut vmas: Vec<ModelVma> = Vec::new();
        // Pages to probe with `frame_of` beyond the live VMAs: every page
        // unmapped so far, which must read as absent.
        let mut gone: Vec<(machine::Pid, u64)> = Vec::new();
        let pid_at = |model: &BTreeMap<machine::Pid, _>, i: u8| {
            model.keys().nth(i as usize % model.len().max(1)).copied()
        };
        for op in schedule {
            match op {
                PageOp::Spawn => {
                    let pid = m.spawn(CpuId(0));
                    model.insert(pid, BTreeMap::new());
                }
                PageOp::Mmap(p, n) => {
                    if let Some(pid) = pid_at(&model, p) {
                        let va = m.mmap(pid, u64::from(n)).unwrap();
                        vmas.push((pid, va.vpn(), u64::from(n), false));
                    }
                }
                PageOp::MmapHuge(p) => {
                    if let Some(pid) = pid_at(&model, p) {
                        let va = m.mmap_huge(pid, 1).unwrap();
                        vmas.push((pid, va.vpn(), 512, true));
                    }
                }
                PageOp::Touch(v, off) if !vmas.is_empty() => {
                    let (pid, start, pages, huge) = vmas[v as usize % vmas.len()];
                    let vpn = start + u64::from(off) % pages;
                    let pa = m.touch(pid, VirtAddr(vpn * PAGE_SIZE)).unwrap();
                    let pfn = pa.as_u64() / PAGE_SIZE;
                    let map = model.get_mut(&pid).expect("live pid");
                    if huge {
                        // The whole 2 MiB chunk faults in at once.
                        let chunk = vpn & !511;
                        let block = pfn - (vpn - chunk);
                        for i in 0..512 {
                            map.entry(chunk + i).or_insert(memsim::Pfn(block + i));
                        }
                    } else {
                        map.entry(vpn).or_insert(memsim::Pfn(pfn));
                    }
                }
                PageOp::Munmap(v, a, n) if !vmas.is_empty() => {
                    let (pid, start, pages, huge) = vmas.swap_remove(v as usize % vmas.len());
                    let (from, len) = if huge {
                        (start, pages)
                    } else {
                        let from = start + u64::from(a) % pages;
                        (from, 1 + u64::from(n) % (start + pages - from))
                    };
                    m.munmap(pid, VirtAddr(from * PAGE_SIZE), len).unwrap();
                    if from > start {
                        vmas.push((pid, start, from - start, false));
                    }
                    if from + len < start + pages {
                        vmas.push((pid, from + len, start + pages - from - len, false));
                    }
                    let map = model.get_mut(&pid).expect("live pid");
                    for vpn in from..from + len {
                        map.remove(&vpn);
                        gone.push((pid, vpn));
                    }
                }
                PageOp::Exit(p) => {
                    if let Some(pid) = pid_at(&model, p) {
                        m.exit(pid).unwrap();
                        model.remove(&pid);
                        vmas.retain(|&(q, ..)| q != pid);
                    }
                }
                _ => {}
            }
            for (&pid, map) in &model {
                let proc = m.process(pid).unwrap();
                prop_assert_eq!(proc.resident_pages(), map.len() as u64);
                let resident: Vec<_> = proc.resident().collect();
                let expected: Vec<_> = map.iter().map(|(&v, &f)| (v, f)).collect();
                prop_assert_eq!(resident, expected);
            }
            for &(pid, start, pages, _) in &vmas {
                let proc = m.process(pid).unwrap();
                for vpn in start..start + pages {
                    let frame = proc.frame_of(VirtAddr(vpn * PAGE_SIZE));
                    prop_assert_eq!(frame, model[&pid].get(&vpn).copied(), "vpn {:#x}", vpn);
                }
            }
            for &(pid, vpn) in &gone {
                if let Ok(proc) = m.process(pid) {
                    prop_assert_eq!(proc.frame_of(VirtAddr(vpn * PAGE_SIZE)), None);
                }
            }
        }
    }
}
