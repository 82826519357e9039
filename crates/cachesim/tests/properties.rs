//! Property-based tests: the cache against a naive reference model.

use cachesim::{Cache, CacheConfig, CacheHierarchy, Lookup};
use proptest::prelude::*;
use proptest::test_runner::TestCaseResult;

/// A trivially-correct LRU model: a vector of resident lines, MRU first.
#[derive(Default)]
struct NaiveLru {
    lines: Vec<(u32, u64)>, // (set, line)
}

impl NaiveLru {
    fn access(&mut self, cfg: &CacheConfig, addr: u64) -> bool {
        let key = (cfg.set_of(addr), cfg.line_of(addr));
        if let Some(pos) = self.lines.iter().position(|&k| k == key) {
            let k = self.lines.remove(pos);
            self.lines.insert(0, k);
            return true;
        }
        self.lines.insert(0, key);
        // Evict LRU of this set if over associativity.
        let in_set: Vec<usize> = self
            .lines
            .iter()
            .enumerate()
            .filter(|(_, k)| k.0 == key.0)
            .map(|(i, _)| i)
            .collect();
        if in_set.len() > cfg.ways as usize {
            self.lines.remove(*in_set.last().expect("non-empty"));
        }
        false
    }

    fn flush(&mut self, cfg: &CacheConfig, addr: u64) {
        let key = (cfg.set_of(addr), cfg.line_of(addr));
        self.lines.retain(|&k| k != key);
    }
}

#[derive(Debug, Clone)]
enum Op {
    Access(u64),
    Flush(u64),
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            (0u64..1 << 16).prop_map(Op::Access),
            (0u64..1 << 16).prop_map(Op::Flush),
        ],
        1..300,
    )
}

/// Address in one of eight sets spread from the first copy-on-write set
/// block of a 256-set cache to its last, with twelve lines per set so
/// every set overflows.
fn wide_addr(word: u64) -> u64 {
    const SETS: [u64; 8] = [0, 1, 63, 64, 100, 128, 191, 255];
    let set = SETS[(word % 8) as usize];
    let tag = (word / 8) % 12;
    tag * 256 * 64 + set * 64 + (word / 96) % 64
}

fn wide_ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            any::<u64>().prop_map(|w| Op::Access(wide_addr(w))),
            any::<u64>().prop_map(|w| Op::Flush(wide_addr(w))),
        ],
        1..300,
    )
}

/// Runs `schedule` on a `cfg` cache and the naive model side by side.
fn check_against_naive(cfg: CacheConfig, schedule: Vec<Op>) -> TestCaseResult {
    let mut cache = Cache::new(cfg);
    let mut model = NaiveLru::default();
    for op in schedule {
        match op {
            Op::Access(a) => {
                let hit = matches!(cache.access(a), Lookup::Hit);
                prop_assert_eq!(hit, model.access(&cfg, a), "divergence at {:#x}", a);
            }
            Op::Flush(a) => {
                cache.flush_line(a);
                model.flush(&cfg, a);
            }
        }
        prop_assert_eq!(cache.resident_lines(), model.lines.len());
    }
    Ok(())
}

proptest! {
    /// Hit/miss decisions match the naive LRU model exactly.
    #[test]
    fn cache_matches_naive_lru(schedule in ops()) {
        check_against_naive(CacheConfig::tiny(), schedule)?;
    }

    /// The same on a 256-set, 4-way cache, which spans several set blocks.
    #[test]
    fn cache_matches_naive_lru_across_blocks(schedule in wide_ops()) {
        check_against_naive(
            CacheConfig {
                sets: 256,
                ways: 4,
                line_bytes: 64,
            },
            schedule,
        )?;
    }

    /// The hierarchy never reports a hit for a line that was clflushed and
    /// not re-accessed, and inclusive back-invalidation keeps L1 ⊆ LLC.
    #[test]
    fn hierarchy_inclusion_invariant(schedule in ops()) {
        let mut h = CacheHierarchy::tiny();
        for op in &schedule {
            match op {
                Op::Access(a) => {
                    h.access(*a);
                    // Inclusion: anything in L1 must be in the LLC.
                    prop_assert!(
                        !h.l1().contains(*a) || h.llc().contains(*a),
                        "L1 line {a:#x} missing from LLC"
                    );
                }
                Op::Flush(a) => {
                    h.clflush(*a);
                    prop_assert!(!h.l1().contains(*a));
                    prop_assert!(!h.llc().contains(*a));
                }
            }
        }
    }

    /// Accesses after a flush always reach memory — the hammer guarantee.
    #[test]
    fn flush_access_always_reaches_dram(addrs in prop::collection::vec(0u64..1 << 20, 1..50)) {
        let mut h = CacheHierarchy::intel_like();
        for a in addrs {
            h.clflush(a);
            prop_assert_eq!(h.access(a), cachesim::ServedBy::Memory);
        }
    }

    /// Hit/miss accounting stays consistent with the `ServedBy` answers the
    /// hierarchy hands out, under arbitrary access/flush interleavings:
    /// every access is counted exactly once at L1, every L1 miss exactly
    /// once at the LLC, and per-level `accesses == hits + misses`.
    #[test]
    fn hierarchy_miss_accounting_is_consistent(schedule in ops()) {
        let mut h = CacheHierarchy::tiny();
        let (mut served_l1, mut served_llc, mut served_mem) = (0u64, 0u64, 0u64);
        for op in &schedule {
            match op {
                Op::Access(a) => match h.access(*a) {
                    cachesim::ServedBy::L1 => served_l1 += 1,
                    cachesim::ServedBy::Llc => served_llc += 1,
                    cachesim::ServedBy::Memory => served_mem += 1,
                },
                Op::Flush(a) => {
                    h.clflush(*a);
                }
            }
        }
        let l1 = h.l1().stats();
        let llc = h.llc().stats();
        prop_assert_eq!(l1.accesses, l1.hits + l1.misses);
        prop_assert_eq!(llc.accesses, llc.hits + llc.misses);
        prop_assert_eq!(l1.accesses, served_l1 + served_llc + served_mem);
        prop_assert_eq!(l1.hits, served_l1);
        prop_assert_eq!(llc.accesses, l1.misses, "every L1 miss must probe the LLC exactly once");
        prop_assert_eq!(llc.hits, served_llc);
        prop_assert_eq!(llc.misses, served_mem);
    }
}
