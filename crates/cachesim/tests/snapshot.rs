//! Snapshot contract of the cache hierarchy, checked differentially: for a
//! random interleaving of access/clflush/flush-all traffic,
//! `clone → mutate arbitrarily → clone_from → replay suffix` must be
//! state-identical (resident lines, LRU order, counters) to a fresh boot
//! replaying the same full sequence. Each property runs on a tiny
//! hierarchy (one set block per level) and on one whose levels span
//! several copy-on-write set blocks.

use cachesim::{CacheConfig, CacheHierarchy};
use proptest::prelude::*;
use proptest::test_runner::TestCaseResult;
use snaptest::{check_replay_equivalence, replay_plan};

/// Tiny hierarchy so evictions and back-invalidations happen constantly.
fn boot() -> (CacheHierarchy, ()) {
    (CacheHierarchy::tiny(), ())
}

/// A hierarchy whose L1 (128 sets) and LLC (256 sets) each span several
/// copy-on-write set blocks.
fn boot_wide() -> (CacheHierarchy, ()) {
    let level = |sets, ways| CacheConfig {
        sets,
        ways,
        line_bytes: 64,
    };
    (CacheHierarchy::new(level(128, 2), level(256, 4)), ())
}

/// Address drawn from a 64 KiB window, far beyond the tiny hierarchy's
/// capacity.
fn addr(word: u64) -> u64 {
    (word >> 8) % (1 << 16)
}

/// Address in one of eight LLC sets spread from the wide hierarchy's first
/// set block to its last, with twelve lines per set so every set
/// overflows both levels.
fn wide_addr(word: u64) -> u64 {
    const SETS: [u64; 8] = [0, 1, 63, 64, 100, 128, 191, 255];
    let w = word >> 8;
    let set = SETS[(w % 8) as usize];
    let tag = (w / 8) % 12;
    tag * 256 * 64 + set * 64 + (w / 96) % 64
}

/// Decodes one opcode word into a hierarchy operation at `addr`.
fn apply(caches: &mut CacheHierarchy, word: u64, addr: u64) {
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

fn step(caches: &mut CacheHierarchy, (): &mut (), word: u64) {
    apply(caches, word, addr(word));
}

fn step_wide(caches: &mut CacheHierarchy, (): &mut (), word: u64) {
    apply(caches, word, wide_addr(word));
}

/// Runs the first half of `words` on an original, forks it, and checks
/// that the fork's accesses over the second half never reach the original
/// and that the original then serves them identically.
fn check_fork(
    boot: fn() -> (CacheHierarchy, ()),
    step: fn(&mut CacheHierarchy, &mut (), u64),
    addr: fn(u64) -> u64,
    words: &[u64],
) -> TestCaseResult {
    let (prefix, suffix) = words.split_at(words.len() / 2);
    let (mut original, ()) = boot();
    let (mut witness, ()) = boot();
    for &w in prefix {
        step(&mut original, &mut (), w);
        step(&mut witness, &mut (), w);
    }
    let mut fork = original.clone();
    let addrs: Vec<u64> = suffix.iter().map(|&w| addr(w)).collect();
    let served: Vec<_> = addrs.iter().map(|&a| fork.access(a)).collect();
    // The fork's traffic never reaches the original through shared state.
    prop_assert_eq!(&original, &witness);
    for (&addr, &by) in addrs.iter().zip(&served) {
        prop_assert_eq!(original.access(addr), by);
    }
    prop_assert_eq!(&original, &fork);
    Ok(())
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
        check_fork(boot, step, addr, &words)?;
    }

    #[test]
    fn snapshot_restore_replay_matches_fresh_boot_across_blocks(plan in replay_plan(200)) {
        check_replay_equivalence(
            &plan,
            boot_wide,
            step_wide,
            CacheHierarchy::clone,
            CacheHierarchy::clone_from,
        )?;
    }

    #[test]
    fn snapshot_fork_serves_identical_hit_miss_sequences_across_blocks(words in proptest::collection::vec(any::<u64>(), 1..100)) {
        check_fork(boot_wide, step_wide, wide_addr, &words)?;
    }
}
