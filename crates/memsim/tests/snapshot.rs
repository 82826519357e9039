//! Snapshot contract of the zoned allocator, checked differentially: for a
//! random interleaving of alloc/free/drain/reclaim traffic,
//! `clone → mutate arbitrarily → clone_from → replay suffix` must be
//! state-identical (buddy free lists, pcp LIFO order, stats, event trace)
//! to a fresh boot replaying the same full sequence.

use memsim::{CpuId, MemConfig, Order, PcpConfig, Pfn, ZonedAllocator};
use proptest::prelude::*;
use snaptest::{check_replay_equivalence, replay_plan};

/// Small machine so exhaustion paths (reclaim, OOM) are actually reached.
fn boot() -> (ZonedAllocator, Vec<Pfn>) {
    let config = MemConfig {
        total_bytes: 4 << 20, // 1024 pages: DMA zone only
        cpus: 2,
        pcp: PcpConfig::tiny(),
        trace_capacity: 128,
    };
    let mut alloc = ZonedAllocator::new(config);
    alloc.trace_mut().set_enabled(true);
    (alloc, Vec::new())
}

/// Decodes one opcode word into an allocator operation. Every word is
/// valid; structurally impossible ops (free with nothing live) are skipped.
fn step(alloc: &mut ZonedAllocator, live: &mut Vec<Pfn>, word: u64) {
    let cpu = CpuId(((word >> 8) % 2) as u32);
    match word % 8 {
        // Allocation dominates so the live set actually grows.
        0..=3 => {
            let order = Order(((word >> 16) % 4) as u8);
            if let Ok(pfn) = alloc.alloc_pages(cpu, order) {
                live.push(pfn);
            }
        }
        4 | 5 => {
            if !live.is_empty() {
                let idx = (word >> 16) as usize % live.len();
                let pfn = live.swap_remove(idx);
                alloc
                    .free_pages(cpu, pfn)
                    .expect("live block frees cleanly");
            }
        }
        6 => {
            alloc.drain_cpu(cpu);
        }
        _ => {
            alloc.reclaim(cpu);
        }
    }
}

proptest! {
    #[test]
    fn snapshot_restore_replay_matches_fresh_boot(plan in replay_plan(120)) {
        check_replay_equivalence(
            &plan,
            boot,
            step,
            ZonedAllocator::clone,
            ZonedAllocator::clone_from,
        )?;
    }

    #[test]
    fn snapshot_fork_serves_identical_frame_sequences(words in proptest::collection::vec(any::<u64>(), 1..60)) {
        let (prefix, suffix) = words.split_at(words.len() / 2);
        let (mut original, mut live) = boot();
        let (mut witness, mut witness_live) = boot();
        for &w in prefix {
            step(&mut original, &mut live, w);
            step(&mut witness, &mut witness_live, w);
        }
        let mut fork = original.clone();
        let mut fork_live = live.clone();
        for &w in suffix {
            step(&mut fork, &mut fork_live, w);
        }
        // The fork's traffic never reaches the original through shared state.
        prop_assert_eq!(&original, &witness);
        for &w in suffix {
            step(&mut original, &mut live, w);
        }
        prop_assert_eq!(&original, &fork);
        prop_assert_eq!(live, fork_live);
    }
}
