//! Per-bank state: the open-row buffer and disturbance accounting.
//!
//! Disturbance is tracked per victim row with *lazy refresh windows*: each
//! row is refreshed on a fixed schedule (its refresh group fires every
//! `tREFI * refresh_groups` nanoseconds at a row-specific phase), so instead
//! of ticking refresh commands, each disturbance update first checks whether
//! the row's refresh window advanced since the last update and resets the
//! counter if so. This is exact and O(1) per update.

use perf::FastMap;

use crate::timing::{DramTiming, Nanos};

/// Disturbance accumulated by one victim row within its current window.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Disturbance {
    units: u64,
    window: u64,
}

/// Result of adding disturbance to a row: the counter before and after, both
/// within the row's *current* refresh window.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DisturbDelta {
    pub old_units: u64,
    pub new_units: u64,
}

/// State of a single DRAM bank.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct BankState {
    open_row: Option<u32>,
    acts: u64,
    disturbance: FastMap<u32, Disturbance>,
}

/// Phase (ns offset within the refresh window) at which `row` is refreshed.
fn refresh_phase(row: u32, timing: &DramTiming) -> Nanos {
    (row as u64 % timing.refresh_groups as u64) * timing.t_refi
}

/// Index of the refresh window containing time `t` for `row`.
///
/// Window boundaries for a row sit at `phase + k * W`; the index increments
/// at each boundary, so two times share an index iff no refresh of this row
/// happened between them.
pub(crate) fn window_index(row: u32, t: Nanos, timing: &DramTiming) -> u64 {
    let w = timing.refresh_window();
    let phase = refresh_phase(row, timing);
    (t + w - phase) / w
}

/// The first time strictly after... precisely: the next refresh boundary of
/// `row` at or after time `t` (the end of the window containing `t`).
pub(crate) fn next_refresh_time(row: u32, t: Nanos, timing: &DramTiming) -> Nanos {
    let w = timing.refresh_window();
    let phase = refresh_phase(row, timing);
    phase + window_index(row, t, timing) * w
}

impl BankState {
    /// Registers an access to `row`. Returns `true` if it was a row-buffer
    /// miss (an `ACT` was issued — the only case that disturbs neighbours).
    pub(crate) fn activate(&mut self, row: u32) -> bool {
        if self.open_row == Some(row) {
            false
        } else {
            self.open_row = Some(row);
            self.acts += 1;
            true
        }
    }

    /// Forces the row buffer open on `row` without counting (used by the bulk
    /// hammer path, which accounts for ACTs itself).
    pub(crate) fn set_open_row(&mut self, row: u32, acts: u64) {
        self.open_row = Some(row);
        self.acts += acts;
    }

    /// Currently open row, if any.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn open_row(&self) -> Option<u32> {
        self.open_row
    }

    /// Total ACTs issued by this bank.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn acts(&self) -> u64 {
        self.acts
    }

    /// Adds `units` of disturbance to `row` at time `t`, applying any refresh
    /// that occurred since the last update first.
    pub(crate) fn add_disturbance(
        &mut self,
        row: u32,
        units: u64,
        t: Nanos,
        timing: &DramTiming,
    ) -> DisturbDelta {
        let window = window_index(row, t, timing);
        let entry = self.disturbance.entry(row).or_default();
        if entry.window != window {
            entry.units = 0;
            entry.window = window;
        }
        let old_units = entry.units;
        entry.units = entry.units.saturating_add(units);
        DisturbDelta {
            old_units,
            new_units: entry.units,
        }
    }

    /// Clears the disturbance of `row` — an `ACT` of a row restores the
    /// charge of its own cells, acting as an implicit refresh.
    pub(crate) fn clear_disturbance(&mut self, row: u32) {
        self.disturbance.remove(&row);
    }

    /// Credits a run of equally spaced hammer rounds to `row` in one step:
    /// rounds start every `round_time` from `first` through `last`, each
    /// adding `units` to the refresh window containing its *start* — the
    /// invariant of the chunked bulk walk, whose chunks never cross a
    /// boundary except a one-round straddle stamped at its start. Only the
    /// rounds in `last`'s window survive (earlier windows were refreshed
    /// away); they add to the current entry when it already belongs to
    /// that window, exactly as the per-chunk [`Self::add_disturbance`]
    /// calls would.
    pub(crate) fn credit_rounds(
        &mut self,
        row: u32,
        units: u64,
        (first, last): (Nanos, Nanos),
        round_time: Nanos,
        timing: &DramTiming,
    ) {
        let w = timing.refresh_window();
        let window = window_index(row, last, timing);
        let window_start = (refresh_phase(row, timing) + window * w).saturating_sub(w);
        let before_window = window_start.saturating_sub(first).div_ceil(round_time);
        let rounds = (last - first) / round_time + 1 - before_window;
        let entry = self.disturbance.entry(row).or_default();
        if entry.window != window {
            entry.units = 0;
            entry.window = window;
        }
        entry.units = entry.units.saturating_add(units * rounds);
    }

    /// Current in-window disturbance of `row` at time `t` (0 if refreshed
    /// since the last update).
    pub(crate) fn disturbance(&self, row: u32, t: Nanos, timing: &DramTiming) -> u64 {
        match self.disturbance.get(&row) {
            Some(d) if d.window == window_index(row, t, timing) => d.units,
            _ => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timing() -> DramTiming {
        DramTiming::ddr3_1600()
    }

    #[test]
    fn activate_tracks_row_buffer() {
        let mut b = BankState::default();
        assert!(b.activate(5)); // cold miss
        assert!(!b.activate(5)); // hit
        assert!(b.activate(6)); // conflict
        assert_eq!(b.acts(), 2);
        assert_eq!(b.open_row(), Some(6));
    }

    #[test]
    fn window_index_increments_at_phase() {
        let t = timing();
        let w = t.refresh_window();
        // Row 0 has phase 0: boundary exactly at multiples of the window.
        assert_eq!(window_index(0, 0, &t), 1);
        assert_eq!(window_index(0, w - 1, &t), 1);
        assert_eq!(window_index(0, w, &t), 2);
        // Row 1 has phase t_refi.
        assert_eq!(window_index(1, 0, &t), 0);
        assert_eq!(window_index(1, t.t_refi, &t), 1);
    }

    #[test]
    fn next_refresh_is_window_end() {
        let t = timing();
        let w = t.refresh_window();
        assert_eq!(next_refresh_time(0, 0, &t), w);
        assert_eq!(next_refresh_time(0, w - 1, &t), w);
        assert_eq!(next_refresh_time(0, w, &t), 2 * w);
        assert_eq!(next_refresh_time(7, 0, &t), 7 * t.t_refi);
        // next_refresh_time is always strictly in the future of the window.
        for row in [0u32, 1, 100, 8191] {
            for time in [0u64, 123_456, w / 2, w + 17] {
                let nrt = next_refresh_time(row, time, &t);
                assert!(nrt >= time);
                assert_eq!(window_index(row, nrt, &t), window_index(row, time, &t) + 1);
            }
        }
    }

    #[test]
    fn disturbance_accumulates_within_window() {
        let t = timing();
        let mut b = BankState::default();
        let d1 = b.add_disturbance(100, 10, 1_000, &t);
        assert_eq!((d1.old_units, d1.new_units), (0, 10));
        let d2 = b.add_disturbance(100, 5, 2_000, &t);
        assert_eq!((d2.old_units, d2.new_units), (10, 15));
        assert_eq!(b.disturbance(100, 2_500, &t), 15);
    }

    #[test]
    fn refresh_resets_disturbance() {
        let t = timing();
        let mut b = BankState::default();
        b.add_disturbance(100, 10, 0, &t);
        let after = next_refresh_time(100, 0, &t);
        // A query in the next window sees zero...
        assert_eq!(b.disturbance(100, after, &t), 0);
        // ...and a new add starts from zero.
        let d = b.add_disturbance(100, 3, after, &t);
        assert_eq!((d.old_units, d.new_units), (0, 3));
    }

    #[test]
    fn different_rows_have_staggered_phases() {
        let t = timing();
        let a = next_refresh_time(10, 0, &t);
        let b = next_refresh_time(11, 0, &t);
        assert_ne!(a, b);
        assert_eq!(b - a, t.t_refi);
    }
}
