//! Warm-pool scenarios: trials that fork from one once-booted artifact.
//!
//! Most trials of a campaign start from the same warm substrate state (a
//! booted machine after the allocator warm-up ritual) and only then diverge
//! by seed. Re-deriving that state inside every `run_trial` makes trial
//! throughput boot-bound instead of attack-bound. A [`WarmScenario`] boots
//! its artifact (typically a `MachineSnapshot`) at most once, on whichever
//! worker claims the first trial; concurrent first trials block on that one
//! boot, and every trial then receives a shared reference to the artifact.
//!
//! Determinism is unaffected: the warm artifact is a pure function of the
//! scenario's configuration (not of any trial seed), every trial sees the
//! identical artifact regardless of which thread booted it, and forking is
//! the caller's (byte-identical) snapshot fork. Campaign results therefore
//! stay byte-for-byte identical across `--threads` values, exactly as for
//! plain [`scenario`](crate::scenario())s.

use std::sync::OnceLock;

use crate::scenario::Scenario;

/// A [`Scenario`] whose trials share one lazily booted warm artifact.
/// Produced by [`warm_scenario`].
#[derive(Debug)]
pub struct WarmScenario<T, B, F> {
    name: String,
    warm: OnceLock<T>,
    boot: B,
    trial: F,
}

impl<T, R, B, F> Scenario for WarmScenario<T, B, F>
where
    T: Send + Sync,
    R: Send,
    B: Fn() -> T + Sync,
    F: Fn(&T, u64) -> R + Sync,
{
    type Trial = R;

    fn name(&self) -> String {
        self.name.clone()
    }

    fn run_trial(&self, seed: u64) -> R {
        (self.trial)(self.warm.get_or_init(&self.boot), seed)
    }
}

/// Wraps a boot closure and a per-trial closure as a warm-pool
/// [`Scenario`]: `boot` runs at most once per scenario (on whichever worker
/// thread claims the first trial), and every trial calls
/// `trial(&warm, seed)` against the shared artifact.
///
/// `boot` must be a pure function of the scenario's parameters — never of a
/// trial seed — and `trial` must not mutate the artifact through interior
/// mutability; fork first, then mutate the fork.
///
/// # Examples
///
/// ```
/// use campaign::{warm_scenario, Campaign};
///
/// // Stand-in for an expensive boot (a machine snapshot in real use).
/// let cells = vec![warm_scenario(
///     "forked",
///     || vec![1u64, 2, 3], // boot once
///     |warm, seed| warm.iter().sum::<u64>() + seed % 2,
/// )];
/// let result = Campaign::new(8, 42).run(&cells);
/// assert_eq!(result.cells[0].trials.len(), 8);
/// ```
pub fn warm_scenario<T, R, B, F>(
    name: impl Into<String>,
    boot: B,
    trial: F,
) -> WarmScenario<T, B, F>
where
    T: Send + Sync,
    R: Send,
    B: Fn() -> T + Sync,
    F: Fn(&T, u64) -> R + Sync,
{
    WarmScenario {
        name: name.into(),
        warm: OnceLock::new(),
        boot,
        trial,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::Campaign;
    use std::sync::atomic::{AtomicU32, Ordering};

    #[test]
    fn boot_runs_exactly_once_across_threads() {
        let boots = AtomicU32::new(0);
        let cell = warm_scenario(
            "warm",
            || {
                boots.fetch_add(1, Ordering::SeqCst);
                7u64
            },
            |warm, seed| warm + seed,
        );
        let result = Campaign::new(32, 5).with_threads(8).run(&[cell]);
        assert_eq!(result.cells[0].trials.len(), 32);
        assert_eq!(boots.load(Ordering::SeqCst), 1, "boot must be shared");
    }

    #[test]
    fn warm_results_match_plain_scenario_across_thread_counts() {
        let mk = || {
            warm_scenario(
                "warm",
                || 1000u64,
                |warm, seed: u64| warm.wrapping_add(seed.wrapping_mul(seed)),
            )
        };
        let serial = Campaign::new(16, 9).with_threads(1).run(&[mk()]);
        let parallel = Campaign::new(16, 9).with_threads(8).run(&[mk()]);
        assert_eq!(serial.cells, parallel.cells);
        let plain = crate::scenario::scenario("warm", |seed: u64| {
            1000u64.wrapping_add(seed.wrapping_mul(seed))
        });
        let reference = Campaign::new(16, 9).with_threads(1).run(&[plain]);
        assert_eq!(serial.cells, reference.cells);
    }
}
