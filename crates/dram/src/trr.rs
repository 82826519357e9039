//! Target Row Refresh: an in-DRAM sampling mitigation against Rowhammer.
//!
//! Production DDR4 parts ship a per-bank *aggressor tracker*: a small table
//! sampling recently activated rows. When a tracked row's activation count
//! crosses a vendor threshold, the device silently refreshes the row's
//! physical neighbours, restoring any disturbance-leaked charge before it
//! can flip a cell. The defining weakness — exploited by many-sided
//! "TRRespass"-style patterns — is the table's *size*: hammering more
//! distinct rows than the sampler can track thrashes the table, counts
//! never accumulate, and the mitigation goes blind while the physical
//! disturbance keeps landing.
//!
//! [`TrrEngine`] reproduces exactly that mechanism, deterministically:
//!
//! * one sampler table per bank, at most [`TrrParams::sampler_size`]
//!   entries;
//! * every `ACT` of an untracked row inserts it, evicting the oldest
//!   entry when the table is full;
//! * a tracked row reaching [`TrrParams::threshold_acts`] triggers a
//!   *neighbour refresh* of the rows within [`TrrParams::radius`] and
//!   resets its counter.
//!
//! The engine exposes a per-`ACT` API ([`TrrEngine::record_act`]) for the
//! ordinary access path and an analytic *burst* API
//! ([`TrrEngine::plan_burst`] / [`TrrEngine::advance_tracked`] /
//! [`TrrEngine::step_round`]) so the bulk hammer path stays
//! O(boundaries) instead of O(activations): a round-robin burst either
//! settles into a thrashing steady state (the sampler provably never
//! fires) or has all its rows tracked (the next trigger time is a closed
//! form).

/// Configuration of the [`TrrEngine`].
///
/// # Examples
///
/// ```
/// use dram::TrrParams;
/// let p = TrrParams::ddr4_like().with_sampler_size(8);
/// assert_eq!(p.sampler_size, 8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TrrParams {
    /// Aggressor-tracker entries per bank. More distinct aggressor rows
    /// than this thrashes the sampler and bypasses the mitigation.
    pub sampler_size: u32,
    /// Activations of one tracked row before its neighbours are refreshed.
    /// Must sit well below the weak cells' flip thresholds to be effective.
    pub threshold_acts: u64,
    /// How many rows on each side of a triggering aggressor get refreshed.
    pub radius: u32,
}

impl TrrParams {
    /// A representative in-DRAM mitigation: 4-entry sampler, ±2-row
    /// refresh (matching the disturbance blast radius — a ±1 refresh
    /// leaks slow distance-2 accumulation across long bursts, exactly the
    /// "half-double"-style escape seen on silicon), with the trigger
    /// threshold derived from the DDR3-1600 timing set via
    /// [`Self::for_timing`].
    pub const fn ddr4_like() -> Self {
        Self::for_timing(&crate::timing::DramTiming::ddr3_1600())
    }

    /// Derives the mitigation from `timing`, so one timing struct is the
    /// single source of truth: the trigger threshold is half the refresh
    /// *group* count — the sampler must fire several times per aggressor
    /// inside one refresh window (`refresh_groups / 2` ACTs is reached
    /// thousands of times per window at the full hammer rate) while staying
    /// far below every realistic flip threshold.
    pub const fn for_timing(timing: &crate::timing::DramTiming) -> Self {
        TrrParams {
            sampler_size: 4,
            threshold_acts: timing.refresh_groups as u64 / 2,
            radius: 2,
        }
    }

    /// Returns a copy with a different sampler size.
    #[must_use]
    pub const fn with_sampler_size(mut self, size: u32) -> Self {
        self.sampler_size = size;
        self
    }

    /// Returns a copy with a different trigger threshold.
    #[must_use]
    pub const fn with_threshold_acts(mut self, acts: u64) -> Self {
        self.threshold_acts = acts;
        self
    }

    /// Returns a copy with a different refresh radius.
    #[must_use]
    pub const fn with_radius(mut self, radius: u32) -> Self {
        self.radius = radius;
        self
    }
}

impl Default for TrrParams {
    fn default() -> Self {
        Self::ddr4_like()
    }
}

/// One sampler entry: a tracked row and its activation count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Entry {
    row: u32,
    acts: u64,
}

/// Sampler tables up to this many entries are probed on the stack
/// ([`TrrEngine::plan_burst`]).
const INLINE_SAMPLER: usize = 16;

/// Records one `ACT` of `row` in the FIFO sampler table `slots[..*len]`,
/// which has room for `slots.len()` entries (the sampler size). Entries
/// are kept in insertion order (oldest first), so eviction is positional
/// and deterministic. Returns whether the tracker fired (the caller must
/// refresh the row's neighbours).
fn record(slots: &mut [Entry], len: &mut usize, row: u32, threshold_acts: u64) -> bool {
    if slots.is_empty() {
        return false;
    }
    if let Some(e) = slots[..*len].iter_mut().find(|e| e.row == row) {
        e.acts += 1;
        if e.acts >= threshold_acts {
            e.acts = 0;
            return true;
        }
        return false;
    }
    if *len == slots.len() {
        // Evict the oldest entry (FIFO). Hardware samplers age their
        // counters every refresh interval for the same reason: an
        // eviction policy that *protects* high counts lets stale
        // aggressors squat in the table forever, leaving the tracker
        // permanently blind to fresh pairs.
        slots.rotate_left(1);
        *len -= 1;
    }
    let fired = 1 >= threshold_acts;
    slots[*len] = Entry {
        row,
        acts: u64::from(!fired),
    };
    *len += 1;
    fired
}

/// Per-bank sampler table: one slot per sampler entry, the first `len`
/// holding the tracked rows oldest first and the rest left default.
#[derive(Debug, Clone, PartialEq, Eq)]
struct TrrBank {
    slots: Vec<Entry>,
    len: usize,
}

impl TrrBank {
    fn new(sampler_size: u32) -> Self {
        TrrBank {
            slots: vec![Entry::default(); sampler_size as usize],
            len: 0,
        }
    }

    fn record_act(&mut self, row: u32, threshold_acts: u64) -> bool {
        record(&mut self.slots, &mut self.len, row, threshold_acts)
    }

    fn entries(&self) -> &[Entry] {
        &self.slots[..self.len]
    }

    fn tracked(&self, row: u32) -> Option<&Entry> {
        self.entries().iter().find(|e| e.row == row)
    }

    fn tracked_mut(&mut self, row: u32) -> Option<&mut Entry> {
        self.slots[..self.len].iter_mut().find(|e| e.row == row)
    }

    fn all_tracked(&self, rows: &[u32]) -> bool {
        rows.iter().all(|&r| self.tracked(r).is_some())
    }
}

/// How the sampler behaves under an unbounded round-robin burst of a fixed
/// aggressor-row set (one `ACT` of each row per round).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Burst {
    /// The sampler is in a thrashing steady state: every round reproduces
    /// the table exactly and no entry can ever reach the threshold. The
    /// mitigation is blind to this burst (the many-sided bypass).
    Never,
    /// The tracker fires after exactly this many further rounds.
    After(u64),
}

/// The deterministic TRR mitigation engine (one sampler per bank).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrrEngine {
    params: TrrParams,
    banks: Vec<TrrBank>,
    triggers: u64,
}

impl TrrEngine {
    /// Creates an engine with one sampler table per bank.
    pub fn new(params: TrrParams, num_banks: usize) -> Self {
        TrrEngine {
            params,
            banks: vec![TrrBank::new(params.sampler_size); num_banks],
            triggers: 0,
        }
    }

    /// The engine parameters.
    pub fn params(&self) -> &TrrParams {
        &self.params
    }

    /// Total neighbour-refreshes triggered since construction.
    pub fn triggers(&self) -> u64 {
        self.triggers
    }

    /// Records one `ACT` of `row` in `bank`; returns `Some(row)` if the
    /// tracker fired and the row's neighbours must be refreshed.
    pub fn record_act(&mut self, bank: usize, row: u32) -> Option<u32> {
        if !self.banks[bank].record_act(row, self.params.threshold_acts) {
            return None;
        }
        self.triggers += 1;
        Some(row)
    }

    /// Plans a round-robin burst of `rows` against `bank`'s current sampler
    /// state without mutating it. See [`Burst`] for the outcomes; the plan
    /// is exact: `After(n)` means replaying `n` rounds through
    /// [`Self::record_act`] fires on the `n`-th, and `Never` means the
    /// table state is round-invariant and no replay can ever fire.
    pub fn plan_burst(&self, bank: usize, rows: &[u32]) -> Burst {
        let table = &self.banks[bank];
        // Replay one probe round on a stack copy of the table.
        let (mut inline, mut spilled) = ([Entry::default(); INLINE_SAMPLER], Vec::new());
        let probe = perf::scratch(&mut inline, &mut spilled, table.slots.len());
        probe.copy_from_slice(&table.slots);
        let mut len = table.len;
        let mut fired = false;
        for &row in rows {
            fired |= record(probe, &mut len, row, self.params.threshold_acts);
        }
        if fired {
            return Burst::After(1);
        }
        if probe[..len] == *table.entries() {
            return Burst::Never;
        }
        if table.all_tracked(rows) {
            // All rows tracked and no trigger in the probe round: every
            // round increments each row's count by exactly one.
            let next = rows
                .iter()
                .map(|&r| {
                    let e = table.tracked(r).expect("all_tracked checked");
                    self.params.threshold_acts - e.acts
                })
                .min()
                .expect("burst has at least one row");
            return Burst::After(next);
        }
        // Transient (insertions still settling): advance one real round and
        // re-plan.
        Burst::After(1)
    }

    /// Whether every row of `rows` currently sits in `bank`'s table.
    pub fn all_tracked(&self, bank: usize, rows: &[u32]) -> bool {
        self.banks[bank].all_tracked(rows)
    }

    /// Advances a fully tracked burst by `rounds` rounds in closed form:
    /// each row's count grows by `rounds`; rows reaching the threshold
    /// fire (passed to `fired` in `rows` order) and reset.
    ///
    /// # Panics
    ///
    /// Panics if some row is untracked — callers must check
    /// [`Self::all_tracked`] first.
    pub fn advance_tracked(
        &mut self,
        bank: usize,
        rows: &[u32],
        rounds: u64,
        mut fired: impl FnMut(u32),
    ) {
        let threshold = self.params.threshold_acts;
        let table = &mut self.banks[bank];
        for &row in rows {
            let e = table
                .tracked_mut(row)
                .expect("advance_tracked requires every row tracked");
            e.acts += rounds;
            if e.acts >= threshold {
                e.acts = 0;
                self.triggers += 1;
                fired(row);
            }
        }
    }

    /// Activations a tracked row needs to fire, from a reset counter. A
    /// threshold of 0 fires on every activation, exactly like 1.
    pub(crate) fn period(&self) -> u64 {
        self.params.threshold_acts.max(1)
    }

    /// The activation count of `row` in `bank`'s table, if tracked.
    pub(crate) fn tracked_acts(&self, bank: usize, row: u32) -> Option<u64> {
        self.banks[bank].tracked(row).map(|e| e.acts)
    }

    /// Advances a fully tracked burst by `rounds` rounds at once — the sum
    /// of any sequence of [`Self::advance_tracked`] calls that each stop at
    /// or before the next trigger. Each row's count moves to
    /// `(count + rounds) mod period`, every trigger is counted, and each
    /// row that fired is passed to `fired` (in `rows` order) with the
    /// 0-based index of the round of its last trigger.
    ///
    /// # Panics
    ///
    /// Panics if some row is untracked — callers must check
    /// [`Self::all_tracked`] first.
    pub(crate) fn jump_tracked(
        &mut self,
        bank: usize,
        rows: &[u32],
        rounds: u64,
        mut fired: impl FnMut(u32, u64),
    ) {
        let period = self.period();
        let table = &mut self.banks[bank];
        for &row in rows {
            let e = table
                .tracked_mut(row)
                .expect("jump_tracked requires every row tracked");
            let start = e.acts;
            let fires = (start + rounds) / period;
            e.acts = (start + rounds) % period;
            if fires > 0 {
                // Trigger `m` lands on round `m * period - start - 1`.
                self.triggers += fires;
                fired(row, fires * period - start - 1);
            }
        }
    }

    /// Replays one literal round (one `ACT` of each row, in order),
    /// passing the rows that fired to `fired`.
    pub fn step_round(&mut self, bank: usize, rows: &[u32], mut fired: impl FnMut(u32)) {
        for &row in rows {
            if let Some(r) = self.record_act(bank, row) {
                fired(r);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine(sampler: u32, threshold: u64) -> TrrEngine {
        TrrEngine::new(
            TrrParams {
                sampler_size: sampler,
                threshold_acts: threshold,
                radius: 1,
            },
            1,
        )
    }

    /// One literal round of `rows` in bank 0, returning the rows that fired.
    fn round(t: &mut TrrEngine, rows: &[u32]) -> Vec<u32> {
        let mut fired = Vec::new();
        t.step_round(0, rows, |row| fired.push(row));
        fired
    }

    /// `advance_tracked` in bank 0, returning the rows that fired.
    fn advance(t: &mut TrrEngine, rows: &[u32], rounds: u64) -> Vec<u32> {
        let mut fired = Vec::new();
        t.advance_tracked(0, rows, rounds, |row| fired.push(row));
        fired
    }

    #[test]
    fn ddr4_like_threshold_derives_from_timing() {
        // The pre-derivation hard-coded value was 4096; `for_timing` must
        // reproduce it at the DDR3-1600 defaults (refresh_groups / 2) so
        // every golden pinned against ddr4_like() is unchanged.
        use crate::timing::DramTiming;
        assert_eq!(TrrParams::ddr4_like().threshold_acts, 4096);
        assert_eq!(
            TrrParams::ddr4_like(),
            TrrParams::for_timing(&DramTiming::ddr3_1600())
        );
        // Scaling the group count scales the trigger with it.
        let fine = DramTiming {
            refresh_groups: 16384,
            ..DramTiming::ddr3_1600()
        };
        assert_eq!(TrrParams::for_timing(&fine).threshold_acts, 8192);
    }

    #[test]
    fn tracked_row_fires_at_threshold() {
        let mut t = engine(4, 5);
        for _ in 0..4 {
            assert_eq!(t.record_act(0, 7), None);
        }
        assert_eq!(t.record_act(0, 7), Some(7));
        assert_eq!(t.triggers(), 1);
        // Counter reset: another full threshold is needed.
        for _ in 0..4 {
            assert_eq!(t.record_act(0, 7), None);
        }
        assert_eq!(t.record_act(0, 7), Some(7));
    }

    #[test]
    fn pair_burst_is_caught_when_sampler_fits() {
        let mut t = engine(2, 100);
        let rows = [10u32, 12];
        let mut fired = 0;
        for _ in 0..500 {
            for &r in &rows {
                if t.record_act(0, r).is_some() {
                    fired += 1;
                }
            }
        }
        // 500 ACTs per row, threshold 100 -> 5 triggers per row.
        assert_eq!(fired, 10);
    }

    #[test]
    fn many_sided_burst_thrashes_an_undersized_sampler() {
        let mut t = engine(2, 10);
        let rows = [1u32, 3, 5, 7];
        for _ in 0..1000 {
            for &r in &rows {
                assert_eq!(t.record_act(0, r), None, "thrashed sampler fired");
            }
        }
        assert_eq!(t.triggers(), 0);
    }

    #[test]
    fn eviction_is_oldest_first() {
        let mut t = engine(2, 100);
        // Row 1 builds a count of 3; row 2 sits at 1 but is younger.
        for _ in 0..3 {
            t.record_act(0, 1);
        }
        t.record_act(0, 2);
        // Inserting row 3 must evict row 1 (oldest), not row 2: counts
        // never shield an entry from ageing out.
        t.record_act(0, 3);
        assert!(t.banks[0].tracked(1).is_none());
        assert!(t.banks[0].tracked(2).is_some());
        assert!(t.banks[0].tracked(3).is_some());
    }

    #[test]
    fn stale_entries_cannot_blind_the_tracker() {
        // The pathology FIFO eviction prevents: four stale aggressors with
        // high residual counts fill the table; a fresh pair must still be
        // tracked (and fire) within a couple of rounds instead of evicting
        // each other forever.
        let mut t = engine(4, 100);
        for row in [50u32, 52, 54, 56] {
            for _ in 0..90 {
                t.record_act(0, row);
            }
        }
        let rows = [200u32, 202];
        let mut fired = 0;
        for _ in 0..300 {
            for &r in &rows {
                if t.record_act(0, r).is_some() {
                    fired += 1;
                }
            }
        }
        assert!(fired >= 4, "fresh pair was never caught: fired={fired}");
    }

    #[test]
    fn zero_sized_sampler_never_fires() {
        let mut t = engine(0, 1);
        for _ in 0..100 {
            assert_eq!(t.record_act(0, 5), None);
        }
        assert_eq!(t.triggers(), 0);
    }

    #[test]
    fn plan_never_matches_replay() {
        // 4 rows over a 2-entry sampler: steady-state thrash.
        let mut t = engine(2, 10);
        let rows = [2u32, 4, 6, 8];
        // Settle the transient with real rounds.
        while t.plan_burst(0, &rows) != Burst::Never {
            assert!(round(&mut t, &rows).is_empty());
        }
        let before = t.banks[0].clone();
        // Replaying any number of rounds must fire nothing and reproduce
        // the state exactly.
        for _ in 0..50 {
            assert!(round(&mut t, &rows).is_empty());
        }
        assert_eq!(t.banks[0], before);
    }

    #[test]
    fn plan_after_matches_replay() {
        let threshold = 37;
        let rows = [100u32, 102];
        // Analytic engine: plan + advance_tracked.
        let mut analytic = engine(4, threshold);
        // Literal engine: one record_act per ACT.
        let mut literal = engine(4, threshold);

        // Settle both with one real round so the rows are tracked.
        assert!(round(&mut analytic, &rows).is_empty());
        assert!(round(&mut literal, &rows).is_empty());

        let mut remaining = 400u64;
        let mut analytic_fired = Vec::new();
        while remaining > 0 {
            let chunk = match analytic.plan_burst(0, &rows) {
                Burst::Never => remaining,
                Burst::After(n) => n.min(remaining),
            };
            if analytic.all_tracked(0, &rows) {
                analytic_fired.extend(advance(&mut analytic, &rows, chunk));
            } else {
                for _ in 0..chunk {
                    analytic_fired.extend(round(&mut analytic, &rows));
                }
            }
            remaining -= chunk;
        }
        let mut literal_fired = Vec::new();
        for _ in 0..400 {
            literal_fired.extend(round(&mut literal, &rows));
        }
        assert_eq!(analytic_fired, literal_fired);
        assert_eq!(analytic.banks[0], literal.banks[0]);
        assert_eq!(analytic.triggers(), literal.triggers());
        assert!(!literal_fired.is_empty(), "test must exercise triggers");
    }

    /// The plan against one probe round replayed through `record_act` on a
    /// clone of the engine, over random tables (samplers past the inline
    /// probe size included), thresholds and row sets; and, where the plan
    /// is a closed form, against replaying the burst itself.
    #[test]
    fn plan_burst_matches_replaying_rounds_through_record_act() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(24);
        for case in 0..3000 {
            let sampler = rng.gen_range(0..=20u32);
            let mut t = engine(sampler, rng.gen_range(0..12u64));
            for _ in 0..rng.gen_range(0..60) {
                t.record_act(0, rng.gen_range(0..24));
            }
            let count = rng.gen_range(1..=10);
            let mut rows = Vec::new();
            while rows.len() < count {
                let row = rng.gen_range(0..24u32);
                if !rows.contains(&row) {
                    rows.push(row);
                }
            }
            let mut replay = t.clone();
            let fired = !round(&mut replay, &rows).is_empty();
            let expected = if fired {
                Burst::After(1)
            } else if replay == t {
                Burst::Never
            } else if t.all_tracked(0, &rows) {
                let acts = rows.iter().map(|&r| t.tracked_acts(0, r).unwrap());
                Burst::After(t.params.threshold_acts - acts.max().unwrap())
            } else {
                Burst::After(1)
            };
            let plan = t.plan_burst(0, &rows);
            assert_eq!(plan, expected, "case {case}");
            let mut replay = t.clone();
            match plan {
                Burst::Never => {
                    for _ in 0..=sampler {
                        assert!(round(&mut replay, &rows).is_empty(), "case {case}");
                    }
                    assert_eq!(replay, t, "case {case}");
                }
                Burst::After(n) if t.all_tracked(0, &rows) => {
                    for _ in 1..n {
                        assert!(round(&mut replay, &rows).is_empty(), "case {case}");
                    }
                    assert!(!round(&mut replay, &rows).is_empty(), "case {case}");
                }
                Burst::After(_) => {}
            }
        }
    }

    #[test]
    fn jump_matches_trigger_bounded_advances() {
        let rows = [100u32, 102, 104];
        for (threshold, rounds) in [(37, 400), (1, 9), (0, 5), (50, 12), (7, 70)] {
            let mut chunked = engine(4, threshold);
            // Stagger the counts so the rows trigger on different rounds.
            round(&mut chunked, &rows);
            round(&mut chunked, &rows[..1]);
            let mut jumped = chunked.clone();

            let mut last = Vec::new();
            let mut round = 0;
            while round < rounds {
                let chunk = match chunked.plan_burst(0, &rows) {
                    Burst::Never => rounds - round,
                    Burst::After(n) => n.min(rounds - round),
                };
                round += chunk;
                for row in advance(&mut chunked, &rows, chunk) {
                    last.retain(|&(r, _)| r != row);
                    last.push((row, round - 1));
                }
            }
            let mut fired = Vec::new();
            jumped.jump_tracked(0, &rows, rounds, |row, last| fired.push((row, last)));
            fired.sort_unstable();
            last.sort_unstable();
            assert_eq!(fired, last, "threshold {threshold}");
            assert_eq!(jumped, chunked, "threshold {threshold}");
        }
    }

    #[test]
    fn banks_are_independent() {
        let mut t = TrrEngine::new(
            TrrParams {
                sampler_size: 1,
                threshold_acts: 2,
                radius: 1,
            },
            2,
        );
        t.record_act(0, 9);
        assert_eq!(t.record_act(0, 9), Some(9));
        // Bank 1 has its own table: same row starts from scratch.
        assert_eq!(t.record_act(1, 9), None);
    }
}
