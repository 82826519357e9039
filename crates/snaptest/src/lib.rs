//! Shared snapshot-equivalence harness for the substrate proptests.
//!
//! Every snapshot-capable layer must satisfy the same contract. For the
//! allocator, the DRAM device and the cache hierarchy a snapshot is a
//! `clone` and a restore is `clone_from`; the whole machine freezes its
//! clone in a `MachineSnapshot`:
//!
//! > `snapshot → mutate arbitrarily → restore → replay suffix` is
//! > state-identical to a fresh boot replaying the same full sequence.
//!
//! This crate centralizes the two pieces every such proptest needs, so the
//! per-crate suites share one op-sequence generator and one differential
//! checker and differ only in how they decode an opcode word into layer
//! operations:
//!
//! * [`replay_plan`] — a proptest strategy producing a [`ReplayPlan`]: a
//!   raw `u64` opcode-word sequence, a second word sequence used as
//!   arbitrary post-snapshot noise, and a split point.
//! * [`check_replay_equivalence`] — runs the plan against a bootable,
//!   steppable, snapshottable target and fails the case if the restored
//!   replay diverges from the fresh replay.
//!
//! Interpreters are expected to treat *every* word as a valid operation
//! (masking fields out of the word, skipping structurally impossible ops),
//! so the generator needs no layer-specific knowledge.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use proptest::collection::vec;
use proptest::prelude::*;
use proptest::test_runner::TestCaseResult;

/// A generated differential-replay case: the operation sequence, the
/// arbitrary mutation applied between snapshot and restore, and where the
/// snapshot is taken.
#[derive(Debug, Clone)]
pub struct ReplayPlan {
    /// Opcode words of the full operation sequence.
    pub ops: Vec<u64>,
    /// Opcode words applied after the snapshot and discarded by restore.
    pub noise: Vec<u64>,
    /// Snapshot point: `ops[..split]` is the prefix, `ops[split..]` the
    /// replayed suffix. Always `<= ops.len()`.
    pub split: usize,
}

/// Strategy for [`ReplayPlan`]s with up to `max_ops` operations (and up to
/// `max_ops` noise operations), inclusive.
pub fn replay_plan(max_ops: usize) -> impl Strategy<Value = ReplayPlan> {
    (
        vec(any::<u64>(), 0..=max_ops),
        vec(any::<u64>(), 0..=max_ops),
        any::<u64>(),
    )
        .prop_map(|(ops, noise, split_word)| {
            let split = (split_word as usize) % (ops.len() + 1);
            ReplayPlan { ops, noise, split }
        })
}

/// Runs `plan` against a target layer and checks the snapshot contract.
///
/// * `boot` builds a fresh target plus the interpreter's bookkeeping state
///   (live allocations, process tables, ... — whatever `step` needs to keep
///   generated ops structurally valid). Booting must be deterministic.
/// * `step` applies one opcode word.
/// * `snapshot` / `restore` are the layer's capture and rewind.
///
/// The checker replays `plan.ops` on a fresh boot, and on a second boot
/// replays the prefix, snapshots, applies `plan.noise` (with throwaway
/// bookkeeping, exactly as a diverged fork would), restores, and replays
/// the suffix with the prefix-time bookkeeping. The two final snapshots
/// must compare equal.
///
/// # Errors
///
/// Fails the proptest case (via [`TestCaseResult`]) when the restored
/// replay's final snapshot differs from the fresh replay's.
pub fn check_replay_equivalence<T, St, Snap>(
    plan: &ReplayPlan,
    boot: impl Fn() -> (T, St),
    mut step: impl FnMut(&mut T, &mut St, u64),
    snapshot: impl Fn(&T) -> Snap,
    restore: impl Fn(&mut T, &Snap),
) -> TestCaseResult
where
    St: Clone,
    Snap: PartialEq + std::fmt::Debug,
{
    // Reference: a fresh boot replaying the full sequence.
    let (mut fresh, mut fresh_state) = boot();
    for &word in &plan.ops {
        step(&mut fresh, &mut fresh_state, word);
    }

    // Device under test: prefix → snapshot → arbitrary noise → restore →
    // suffix.
    let (mut dut, mut dut_state) = boot();
    for &word in &plan.ops[..plan.split] {
        step(&mut dut, &mut dut_state, word);
    }
    let snap = snapshot(&dut);
    let mut noise_state = dut_state.clone();
    for &word in &plan.noise {
        step(&mut dut, &mut noise_state, word);
    }
    restore(&mut dut, &snap);
    for &word in &plan.ops[plan.split..] {
        step(&mut dut, &mut dut_state, word);
    }

    prop_assert_eq!(
        snapshot(&dut),
        snapshot(&fresh),
        "restored replay diverged from fresh replay (split {} of {} ops, {} noise ops)",
        plan.split,
        plan.ops.len(),
        plan.noise.len()
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy snapshot-capable counter to self-test the harness.
    #[derive(Debug, Clone, PartialEq)]
    struct Counter(u64);

    proptest! {
        #[test]
        fn harness_accepts_a_correct_snapshot_impl(plan in replay_plan(32)) {
            check_replay_equivalence(
                &plan,
                || (Counter(0), ()),
                |c, (), w| c.0 = c.0.wrapping_mul(31).wrapping_add(w),
                |c| c.clone(),
                |c, s| *c = s.clone(),
            )?;
        }
    }

    #[test]
    #[should_panic(expected = "restored replay diverged")]
    fn harness_rejects_a_broken_restore() {
        let plan = ReplayPlan {
            ops: vec![1, 2, 3],
            noise: vec![9],
            split: 1,
        };
        let result = check_replay_equivalence(
            &plan,
            || (Counter(0), ()),
            |c, (), w| c.0 = c.0.wrapping_add(w),
            |c| c.clone(),
            |_c, _s| { /* broken: restore forgets to rewind */ },
        );
        if let Err(e) = result {
            panic!("{e}");
        }
    }

    proptest! {
        #[test]
        fn plans_respect_bounds(plan in replay_plan(16)) {
            prop_assert!(plan.split <= plan.ops.len());
            prop_assert!(plan.ops.len() <= 16);
            prop_assert!(plan.noise.len() <= 16);
        }
    }
}
