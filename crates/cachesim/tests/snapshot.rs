//! Snapshot contract of the cache hierarchy, checked differentially: for a
//! random interleaving of access/clflush/flush-all traffic,
//! `clone → mutate arbitrarily → clone_from → replay suffix` must be
//! state-identical (resident lines, LRU order, counters) to a fresh boot
//! replaying the same full sequence.

use cachesim::CacheHierarchy;
use proptest::prelude::*;
use snaptest::{check_replay_equivalence, replay_plan};

/// Tiny hierarchy so evictions and back-invalidations happen constantly.
fn boot() -> (CacheHierarchy, ()) {
    (CacheHierarchy::tiny(), ())
}

/// Decodes one opcode word into a hierarchy operation. Addresses are drawn
/// from a 64 KiB window, far beyond the tiny hierarchy's capacity.
fn step(caches: &mut CacheHierarchy, (): &mut (), word: u64) {
    let addr = (word >> 8) % (1 << 16);
    match word % 8 {
        0..=5 => {
            caches.access(addr);
        }
        6 => {
            caches.clflush(addr);
        }
        _ => caches.flush_all(),
    }
}

proptest! {
    #[test]
    fn snapshot_restore_replay_matches_fresh_boot(plan in replay_plan(200)) {
        check_replay_equivalence(
            &plan,
            boot,
            step,
            CacheHierarchy::clone,
            CacheHierarchy::clone_from,
        )?;
    }

    #[test]
    fn snapshot_fork_serves_identical_hit_miss_sequences(words in proptest::collection::vec(any::<u64>(), 1..100)) {
        let (prefix, suffix) = words.split_at(words.len() / 2);
        let (mut original, ()) = boot();
        let (mut witness, ()) = boot();
        for &w in prefix {
            step(&mut original, &mut (), w);
            step(&mut witness, &mut (), w);
        }
        let mut fork = original.clone();
        let addrs: Vec<u64> = suffix.iter().map(|w| (w >> 8) % (1 << 16)).collect();
        let served: Vec<_> = addrs.iter().map(|&a| fork.access(a)).collect();
        // The fork's traffic never reaches the original through shared state.
        prop_assert_eq!(&original, &witness);
        for (&addr, &by) in addrs.iter().zip(&served) {
            prop_assert_eq!(original.access(addr), by);
        }
        prop_assert_eq!(&original, &fork);
    }
}
