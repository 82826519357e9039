//! Per-bank state: the open-row buffer and a row table of disturbance
//! counters.
//!
//! Disturbance is tracked per victim row with *lazy refresh windows*: each
//! row is refreshed on a fixed schedule (its refresh group fires every
//! `tREFI * refresh_groups` nanoseconds at a row-specific phase), so instead
//! of ticking refresh commands, each disturbance update first checks whether
//! the row's refresh window advanced since the last update and resets the
//! counter if so. This is exact and O(1) per update. [`Refresh`] holds the
//! schedule with its divisions precomputed, so an update multiplies instead
//! of dividing.
//!
//! The row table holds one `(units, window)` slot per row, indexed by row,
//! in a [`perf::cow::Table`]: copy-on-write blocks of rows in a
//! copy-on-write run per bank. A never-written block takes no storage and
//! a row in it reads as `(0, 0)`: no disturbance in window 0, which every
//! update treats exactly like a row never touched. A clone shares each
//! bank's table, `clone_from` re-points one that differs from the
//! source's, and the first write after a clone copies out the bank's run
//! and the one block written. Reads, and clears of a row already at
//! `(0, 0)`, never copy.

use perf::cow::Table;

use crate::divisor::Divisor;
use crate::timing::{DramTiming, Nanos};

/// Disturbance accumulated by one victim row within its current window.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Disturbance {
    units: u64,
    window: u64,
}

/// The refresh schedule of a device's rows, with its divisions
/// precomputed: row `r` is refreshed at `phase(r) + k·W` for every `k`,
/// where `W` is the refresh window and `phase(r)` is `r`'s refresh group
/// times `tREFI`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Refresh {
    window: Divisor,
    groups: Divisor,
    t_refi: Nanos,
}

impl Refresh {
    /// The schedule `timing` describes.
    ///
    /// # Panics
    ///
    /// Panics if the refresh window is zero.
    pub(crate) fn new(timing: &DramTiming) -> Self {
        Refresh {
            window: Divisor::new(timing.refresh_window()),
            groups: Divisor::new(u64::from(timing.refresh_groups)),
            t_refi: timing.t_refi,
        }
    }

    /// The refresh window `W`, as a divisor.
    pub(crate) fn window(&self) -> Divisor {
        self.window
    }

    /// Phase (ns offset within the refresh window) at which `row` is
    /// refreshed.
    fn phase(&self, row: u32) -> Nanos {
        self.groups.rem(u64::from(row)) * self.t_refi
    }

    /// `row`'s phase and the index of its refresh window containing `t`.
    fn locate(&self, row: u32, t: Nanos) -> (Nanos, u64) {
        let phase = self.phase(row);
        (phase, self.window.div(t + self.window.get() - phase))
    }

    /// Index of the refresh window containing time `t` for `row`.
    ///
    /// Window boundaries for a row sit at `phase + k * W`; the index
    /// increments at each boundary, so two times share an index iff no
    /// refresh of this row happened between them.
    pub(crate) fn window_index(&self, row: u32, t: Nanos) -> u64 {
        self.locate(row, t).1
    }

    /// The next refresh boundary of `row` strictly after time `t`: the end
    /// of the window containing `t`.
    pub(crate) fn next_refresh_time(&self, row: u32, t: Nanos) -> Nanos {
        let (phase, window) = self.locate(row, t);
        phase + window * self.window.get()
    }
}

/// State of a single DRAM bank: the open row and the row table.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct BankState {
    open_row: Option<u32>,
    rows: Table<Disturbance>,
}

impl Clone for BankState {
    fn clone(&self) -> Self {
        BankState {
            open_row: self.open_row,
            rows: self.rows.clone(),
        }
    }

    /// Keeps the row table's run when it is already shared with `source`.
    fn clone_from(&mut self, source: &Self) {
        self.open_row = source.open_row;
        self.rows.clone_from(&source.rows);
    }
}

impl BankState {
    /// A bank of `rows` rows, none open and none disturbed.
    pub(crate) fn new(rows: u32) -> Self {
        BankState {
            open_row: None,
            rows: Table::new(rows as usize),
        }
    }

    /// The slot of `row`.
    #[inline]
    fn slot(&self, row: u32) -> Disturbance {
        *self.rows.get(row as usize)
    }

    /// The slot of `row`, reset to zero units in `window` unless it already
    /// counts that window.
    #[inline]
    fn slot_in_window(&mut self, row: u32, window: u64) -> &mut Disturbance {
        let slot = self.rows.get_mut(row as usize);
        if slot.window != window {
            *slot = Disturbance { units: 0, window };
        }
        slot
    }

    /// Registers an access to `row`. Returns `true` if it was a row-buffer
    /// miss (an `ACT` was issued — the only case that disturbs neighbours).
    pub(crate) fn activate(&mut self, row: u32) -> bool {
        let missed = self.open_row != Some(row);
        self.open_row = Some(row);
        missed
    }

    /// Forces the row buffer open on `row` (used by the bulk hammer path,
    /// which accounts for ACTs itself).
    pub(crate) fn set_open_row(&mut self, row: u32) {
        self.open_row = Some(row);
    }

    /// Currently open row, if any.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn open_row(&self) -> Option<u32> {
        self.open_row
    }

    /// Adds `units` of disturbance to `row` at time `t`, applying any refresh
    /// that occurred since the last update first.
    pub(crate) fn add_disturbance(
        &mut self,
        row: u32,
        units: u64,
        t: Nanos,
        refresh: &Refresh,
    ) -> DisturbDelta {
        let slot = self.slot_in_window(row, refresh.window_index(row, t));
        let old_units = slot.units;
        slot.units = slot.units.saturating_add(units);
        DisturbDelta {
            old_units,
            new_units: slot.units,
        }
    }

    /// Clears the disturbance of `row` — an `ACT` of a row restores the
    /// charge of its own cells, acting as an implicit refresh. A row already
    /// clear is left alone, so its block stays shared.
    pub(crate) fn clear_disturbance(&mut self, row: u32) {
        if self.slot(row) != Disturbance::default() {
            *self.rows.get_mut(row as usize) = Disturbance::default();
        }
    }

    /// A countermeasure refresh of the rows within `radius` of `row`, out
    /// of `rows` rows: their leaked charge is restored.
    pub(crate) fn refresh_around(&mut self, row: u32, radius: u32, rows: u32) {
        let (lo, hi) = (row.saturating_sub(radius), row.saturating_add(radius));
        for n in (lo..=hi.min(rows - 1)).filter(|&n| n != row) {
            self.clear_disturbance(n);
        }
    }

    /// Credits a run of equally spaced hammer rounds to `row` in one step:
    /// rounds start every `round_time` from `first` through `last`, each
    /// adding `units` to the refresh window containing its *start* — the
    /// invariant of the chunked bulk walk, whose chunks never cross a
    /// boundary except a one-round straddle stamped at its start. Only the
    /// rounds in `last`'s window survive (earlier windows were refreshed
    /// away); they add to the current slot when it already belongs to
    /// that window, exactly as the per-chunk [`Self::add_disturbance`]
    /// calls would.
    pub(crate) fn credit_rounds(
        &mut self,
        row: u32,
        units: u64,
        (first, last): (Nanos, Nanos),
        round_time: Divisor,
        refresh: &Refresh,
    ) {
        let w = refresh.window().get();
        let (phase, window) = refresh.locate(row, last);
        let window_start = (phase + window * w).saturating_sub(w);
        let before_window = round_time.div_ceil(window_start.saturating_sub(first));
        let rounds = round_time.div(last - first) + 1 - before_window;
        let slot = self.slot_in_window(row, window);
        slot.units = slot.units.saturating_add(units * rounds);
    }

    /// Current in-window disturbance of `row` at time `t` (0 if refreshed
    /// since the last update).
    pub(crate) fn disturbance(&self, row: u32, t: Nanos, refresh: &Refresh) -> u64 {
        let slot = self.slot(row);
        if slot.window == refresh.window_index(row, t) {
            slot.units
        } else {
            0
        }
    }
}

/// Result of adding disturbance to a row: the counter before and after, both
/// within the row's *current* refresh window.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DisturbDelta {
    pub old_units: u64,
    pub new_units: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use perf::FastMap;
    use proptest::prelude::*;

    fn timing() -> DramTiming {
        DramTiming::ddr3_1600()
    }

    fn refresh() -> Refresh {
        Refresh::new(&timing())
    }

    #[test]
    fn activate_tracks_row_buffer() {
        let mut b = BankState::new(4096);
        assert!(b.activate(5)); // cold miss
        assert!(!b.activate(5)); // hit
        assert!(b.activate(6)); // conflict
        assert_eq!(b.open_row(), Some(6));
    }

    #[test]
    fn window_index_increments_at_phase() {
        let t = timing();
        let r = refresh();
        let w = t.refresh_window();
        // Row 0 has phase 0: boundary exactly at multiples of the window.
        assert_eq!(r.window_index(0, 0), 1);
        assert_eq!(r.window_index(0, w - 1), 1);
        assert_eq!(r.window_index(0, w), 2);
        // Row 1 has phase t_refi.
        assert_eq!(r.window_index(1, 0), 0);
        assert_eq!(r.window_index(1, t.t_refi), 1);
    }

    #[test]
    fn next_refresh_is_window_end() {
        let t = timing();
        let r = refresh();
        let w = t.refresh_window();
        assert_eq!(r.next_refresh_time(0, 0), w);
        assert_eq!(r.next_refresh_time(0, w - 1), w);
        assert_eq!(r.next_refresh_time(0, w), 2 * w);
        assert_eq!(r.next_refresh_time(7, 0), 7 * t.t_refi);
        // next_refresh_time is always strictly in the future of the window.
        for row in [0u32, 1, 100, 8191] {
            for time in [0u64, 123_456, w / 2, w + 17] {
                let nrt = r.next_refresh_time(row, time);
                assert!(nrt > time);
                assert_eq!(r.window_index(row, nrt), r.window_index(row, time) + 1);
            }
        }
    }

    #[test]
    fn disturbance_accumulates_within_window() {
        let r = refresh();
        let mut b = BankState::new(4096);
        let d1 = b.add_disturbance(100, 10, 1_000, &r);
        assert_eq!((d1.old_units, d1.new_units), (0, 10));
        let d2 = b.add_disturbance(100, 5, 2_000, &r);
        assert_eq!((d2.old_units, d2.new_units), (10, 15));
        assert_eq!(b.disturbance(100, 2_500, &r), 15);
    }

    #[test]
    fn refresh_resets_disturbance() {
        let r = refresh();
        let mut b = BankState::new(4096);
        b.add_disturbance(100, 10, 0, &r);
        let after = r.next_refresh_time(100, 0);
        // A query in the next window sees zero...
        assert_eq!(b.disturbance(100, after, &r), 0);
        // ...and a new add starts from zero.
        let d = b.add_disturbance(100, 3, after, &r);
        assert_eq!((d.old_units, d.new_units), (0, 3));
    }

    #[test]
    fn different_rows_have_staggered_phases() {
        let t = timing();
        let r = refresh();
        let a = r.next_refresh_time(10, 0);
        let b = r.next_refresh_time(11, 0);
        assert_ne!(a, b);
        assert_eq!(b - a, t.t_refi);
    }

    /// The map-backed bank the row table replaced, kept as its oracle: one
    /// hash-map entry per row ever disturbed, the refresh schedule computed
    /// with hardware division.
    #[derive(Debug, Clone, Default)]
    struct MapBank {
        open_row: Option<u32>,
        disturbance: FastMap<u32, Disturbance>,
    }

    impl MapBank {
        fn window_index(row: u32, t: Nanos, timing: &DramTiming) -> u64 {
            let w = timing.refresh_window();
            let phase = (row as u64 % timing.refresh_groups as u64) * timing.t_refi;
            (t + w - phase) / w
        }

        fn add(&mut self, row: u32, units: u64, t: Nanos, timing: &DramTiming) -> (u64, u64) {
            let window = Self::window_index(row, t, timing);
            let entry = self.disturbance.entry(row).or_default();
            if entry.window != window {
                entry.units = 0;
                entry.window = window;
            }
            let old_units = entry.units;
            entry.units = entry.units.saturating_add(units);
            (old_units, entry.units)
        }

        fn clear(&mut self, row: u32) {
            self.disturbance.remove(&row);
        }

        fn refresh_around(&mut self, row: u32, radius: u32, rows: u32) {
            let (lo, hi) = (row.saturating_sub(radius), row.saturating_add(radius));
            for n in (lo..=hi.min(rows - 1)).filter(|&n| n != row) {
                self.clear(n);
            }
        }

        fn credit(
            &mut self,
            row: u32,
            units: u64,
            (first, last): (Nanos, Nanos),
            round_time: Nanos,
            timing: &DramTiming,
        ) {
            let w = timing.refresh_window();
            let window = Self::window_index(row, last, timing);
            let phase = (row as u64 % timing.refresh_groups as u64) * timing.t_refi;
            let window_start = (phase + window * w).saturating_sub(w);
            let before_window = window_start.saturating_sub(first).div_ceil(round_time);
            let rounds = (last - first) / round_time + 1 - before_window;
            let entry = self.disturbance.entry(row).or_default();
            if entry.window != window {
                entry.units = 0;
                entry.window = window;
            }
            entry.units = entry.units.saturating_add(units * rounds);
        }

        fn disturbance(&self, row: u32, t: Nanos, timing: &DramTiming) -> u64 {
            match self.disturbance.get(&row) {
                Some(d) if d.window == Self::window_index(row, t, timing) => d.units,
                _ => 0,
            }
        }

        /// Equality of what a bank can observe: a row at `(0, 0)` reads and
        /// updates exactly like a row with no entry.
        fn same_state(&self, other: &MapBank) -> bool {
            let live = |m: &MapBank| {
                let mut rows: Vec<_> = m
                    .disturbance
                    .iter()
                    .filter(|(_, d)| **d != Disturbance::default())
                    .map(|(&r, &d)| (r, d))
                    .collect();
                rows.sort_unstable_by_key(|&(r, _)| r);
                rows
            };
            self.open_row == other.open_row && live(self) == live(other)
        }
    }

    /// Rows per block of the row table.
    const BLOCK_ROWS: usize = perf::cow::BLOCK;

    /// Rows in the oracle tables: four blocks.
    const ROWS: u32 = 4 * BLOCK_ROWS as u32;

    /// A row id: uniform over the table, or one of the rows either side of
    /// a block edge.
    fn row_id((edge, r): (bool, u32)) -> u32 {
        if edge {
            (1 + r % 3) * BLOCK_ROWS as u32 - 1 + (r / 3) % 2
        } else {
            r
        }
    }

    proptest! {
        /// The row table against the map-backed oracle: random adds,
        /// clears, round credits, reads and countermeasure refreshes on a
        /// pool of three banks, interleaved with `clone`, `clone_from` and
        /// `==`, over row ids across block edges, at the DDR3-1600 schedule
        /// and a short one whose windows turn over within a few ops.
        #[test]
        fn row_table_matches_map_oracle(
            short in any::<bool>(),
            ops in proptest::collection::vec(
                (0..9u8, (any::<bool>(), 0..ROWS), 0..3usize, 0..3usize, 0..2_000u64, 0..40u64),
                1..120,
            ),
        ) {
            let timing = if short {
                DramTiming { t_refi: 7, refresh_groups: 16, ..DramTiming::ddr3_1600() }
            } else {
                DramTiming::ddr3_1600()
            };
            let refresh = Refresh::new(&timing);
            let step = if short { 3 } else { 1_000_000 };
            let mut tables = vec![BankState::new(ROWS); 3];
            let mut models = vec![MapBank::default(); 3];
            let mut now: Nanos = 0;
            for (op, row, i, j, a, b) in ops {
                let row = row_id(row);
                now += b * step;
                match op {
                    0 | 1 => {
                        let d = tables[i].add_disturbance(row, a, now, &refresh);
                        prop_assert_eq!((d.old_units, d.new_units), models[i].add(row, a, now, &timing));
                    }
                    2 => {
                        tables[i].clear_disturbance(row);
                        models[i].clear(row);
                    }
                    3 => {
                        let round_time = (2 + b % 7) * timing.t_rc * if short { 1 } else { 1_000 };
                        let first = now;
                        let last = first + (a % 50) * round_time;
                        tables[i].credit_rounds(row, b, (first, last), Divisor::new(round_time), &refresh);
                        models[i].credit(row, b, (first, last), round_time, &timing);
                        now = last;
                    }
                    4 => {
                        let radius = (a % 4) as u32;
                        tables[i].refresh_around(row, radius, ROWS);
                        models[i].refresh_around(row, radius, ROWS);
                    }
                    5 => {
                        prop_assert_eq!(tables[i].activate(row), models[i].open_row != Some(row));
                        models[i].open_row = Some(row);
                    }
                    6 => {
                        tables[j] = tables[i].clone();
                        models[j] = models[i].clone();
                    }
                    7 => {
                        let source = tables[i].clone();
                        tables[j].clone_from(&source);
                        models[j] = models[i].clone();
                    }
                    _ => prop_assert_eq!(tables[i] == tables[j], models[i].same_state(&models[j])),
                }
                for (table, model) in tables.iter().zip(&models) {
                    prop_assert_eq!(table.disturbance(row, now, &refresh), model.disturbance(row, now, &timing));
                }
            }
            for (table, model) in tables.iter().zip(&models) {
                for row in 0..ROWS {
                    prop_assert_eq!(table.disturbance(row, now, &refresh), model.disturbance(row, now, &timing));
                }
            }
        }
    }

    /// Whether each of `a`'s blocks is the same allocation as `b`'s (an
    /// absent run counting as empty blocks).
    fn shared(a: &BankState, b: &BankState) -> Vec<bool> {
        a.rows.shared_blocks(&b.rows)
    }

    #[test]
    fn row_table_clone_shares_blocks_until_written() {
        let r = refresh();
        let edge = BLOCK_ROWS as u32;
        let mut live = BankState::new(ROWS);
        for b in 0..3 {
            live.add_disturbance(b * edge + 5, 7, 0, &r);
        }
        // Cloning a written table copies its written blocks once; clones
        // of that snapshot share its run of blocks outright, so every
        // block, the never-written block 3 included.
        let snapshot = live.clone();
        let witness = live.clone();
        let mut fork = snapshot.clone();
        assert!(
            fork.rows.shares_run(&snapshot.rows),
            "clone must share the run"
        );
        assert_eq!(shared(&fork, &snapshot), [true; 4], "clone must share");

        // Nothing that leaves every row as it was may unshare anything.
        assert_eq!(fork.disturbance(5, 10, &r), 7);
        assert_eq!(fork.disturbance(3 * edge, 10, &r), 0);
        fork.clear_disturbance(edge + 6);
        fork.clear_disturbance(3 * edge + 1);
        fork.refresh_around(3 * edge + 9, 2, ROWS);
        assert!(fork.activate(edge + 5));
        assert!(fork.rows.shares_run(&snapshot.rows));

        // One write copies out the run and exactly its own block.
        fork.add_disturbance(2 * edge + 63, 1, 10, &r);
        assert!(!fork.rows.shares_run(&snapshot.rows));
        assert_eq!(shared(&fork, &snapshot), [true, true, false, true]);
        assert_eq!(snapshot, witness);
        assert_eq!(live, witness);

        // Restoring re-points the run, so every block.
        fork.clone_from(&snapshot);
        assert!(fork.rows.shares_run(&snapshot.rows));
        assert_eq!(fork, witness);
    }

    #[test]
    fn row_table_cleared_block_equals_a_never_written_one() {
        let r = refresh();
        let mut b = BankState::new(ROWS);
        b.add_disturbance(70, 3, 0, &r);
        assert_ne!(b, BankState::new(ROWS));
        b.clear_disturbance(70);
        assert_eq!(b, BankState::new(ROWS));
    }
}
