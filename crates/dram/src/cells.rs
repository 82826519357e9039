//! Seeded weak-cell populations.
//!
//! Rowhammer flips are not uniform: only a sparse population of "weak" cells
//! ever flips, each with its own disturbance threshold and direction. Kim et
//! al. (ISCA 2014) showed these populations are stable per module — the same
//! cells flip again under the same hammering, which is precisely the property
//! ExplFrame's templating phase relies on. [`WeakCellMap`] reproduces that:
//! the population is a pure function of `(seed, row)`, so re-hammering a row
//! re-finds the same cells.

use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Disturbance units contributed by one ACT of an adjacent (distance-1) row.
///
/// Thresholds are stored in the same fixed-point units so that distance-2
/// "blast radius" contributions can be represented as 1/16 of a near ACT.
pub const DIST_UNITS_NEAR: u32 = 16;
/// Disturbance units contributed by one ACT of a distance-2 row.
pub const DIST_UNITS_FAR: u32 = 1;

/// Whether a cell stores charge for logical `1` (true cell) or logical `0`
/// (anti cell).
///
/// Disturbance leaks charge, so a true cell flips `1 → 0` and an anti cell
/// flips `0 → 1`. A cell only flips if the victim data currently holds the
/// cell's charged value — the data-pattern dependence observed on hardware.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CellPolarity {
    /// Charged state encodes `1`; flips `1 → 0`.
    True,
    /// Charged state encodes `0`; flips `0 → 1`.
    Anti,
}

impl CellPolarity {
    /// The bit value this cell must hold for a flip to be possible.
    pub const fn charged_value(self) -> bool {
        matches!(self, CellPolarity::True)
    }

    /// The bit value after a flip.
    pub const fn discharged_value(self) -> bool {
        !self.charged_value()
    }
}

/// One disturbance-susceptible cell within a DRAM row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WeakCell {
    /// Bit index within the row, `0 .. row_bytes * 8`.
    pub bit_in_row: u32,
    /// True-cell or anti-cell orientation.
    pub polarity: CellPolarity,
    /// Flip threshold in disturbance units (see [`DIST_UNITS_NEAR`]):
    /// accumulated units within one refresh window at or above this flip the
    /// cell.
    pub threshold_units: u64,
}

impl WeakCell {
    /// Threshold expressed as equivalent adjacent-row activations.
    pub const fn threshold_acts(&self) -> u64 {
        self.threshold_units / DIST_UNITS_NEAR as u64
    }
}

/// Parameters of the weak-cell population.
///
/// # Examples
///
/// ```
/// use dram::WeakCellParams;
/// let p = WeakCellParams::default();
/// assert!(p.density > 0.0 && p.density < 1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WeakCellParams {
    /// Probability that any given bit is a weak cell.
    pub density: f64,
    /// Mean flip threshold in adjacent-row activations.
    pub mean_threshold_acts: u64,
    /// Log-normal sigma of the threshold distribution.
    pub threshold_sigma: f64,
    /// Hard lower bound on thresholds (activations).
    pub min_threshold_acts: u64,
    /// Fraction of weak cells that are true cells (rest are anti cells).
    pub true_cell_fraction: f64,
}

impl WeakCellParams {
    /// A heavily vulnerable module (≈0.65 weak cells per 8 KiB row):
    /// convenient for fast tests.
    pub const fn flippy() -> Self {
        WeakCellParams {
            density: 1e-5,
            mean_threshold_acts: 60_000,
            threshold_sigma: 0.25,
            min_threshold_acts: 25_000,
            true_cell_fraction: 0.7,
        }
    }

    /// A moderately vulnerable module (≈1 weak cell per 15 rows), the default
    /// used by the paper-scale experiments.
    pub const fn moderate() -> Self {
        WeakCellParams {
            density: 1e-6,
            mean_threshold_acts: 60_000,
            threshold_sigma: 0.25,
            min_threshold_acts: 25_000,
            true_cell_fraction: 0.7,
        }
    }

    /// A nearly-immune module (≈1 weak cell per 1500 rows).
    pub const fn rare() -> Self {
        WeakCellParams {
            density: 1e-8,
            mean_threshold_acts: 120_000,
            threshold_sigma: 0.25,
            min_threshold_acts: 60_000,
            true_cell_fraction: 0.7,
        }
    }

    /// Returns a copy with a different weak-cell density.
    ///
    /// # Panics
    ///
    /// Panics if `density` is not within `(0, 1)`.
    pub fn with_density(mut self, density: f64) -> Self {
        assert!(density > 0.0 && density < 1.0, "density must be in (0, 1)");
        self.density = density;
        self
    }

    /// The widest many-sided aggressor set that can still flip the most
    /// flippable cell of this population inside one refresh window of
    /// `timing` — the activation-budget picture the adaptive attacker plans
    /// against.
    ///
    /// A victim sandwiched inside a round-robin pattern of `W` rows gains
    /// two near-aggressor activations per round, and one round of `W` rows
    /// costs `W × tRC`. Crossing the floor threshold before the victim's
    /// next refresh therefore needs
    /// `W ≤ 2 × max_acts_per_window / min_threshold_acts`. The result is
    /// clamped to `[2, 64]`: two rows is plain double-sided hammering, and
    /// 64 is the model's bitslice lane width (wider patterns gain nothing).
    pub const fn max_feasible_rows(&self, timing: &crate::timing::DramTiming) -> u32 {
        let budget = 2 * timing.max_acts_per_window() / self.min_threshold_acts;
        let clamped = if budget < 2 {
            2
        } else if budget > 64 {
            64
        } else {
            budget
        };
        clamped as u32
    }
}

impl Default for WeakCellParams {
    fn default() -> Self {
        Self::moderate()
    }
}

/// A row's weak-cell population packed for bitsliced threshold evaluation.
///
/// The hammer hot path asks one question per disturbance step: *which cells
/// cross their threshold when accumulated units move from `old` to `new`?*
/// Instead of a per-cell compare-and-branch loop, the thresholds of up to
/// 64 cells are transposed into u64 bit lanes — lane `b` holds bit `b` of
/// every cell's threshold, cell `i` occupying bit `i` of each lane. A
/// bit-serial magnitude comparison over the lanes then answers the
/// question for the whole row at once (mask-compare-accumulate), and the
/// `min`/`max` threshold bounds reject the common no-crossing case without
/// touching the lanes at all.
///
/// Rows with more than 64 weak cells (beyond any realistic density) have
/// no lanes and fall back to the scalar path.
#[derive(Debug)]
pub struct RowEval {
    cells: Box<[WeakCell]>,
    /// `lanes[b]` bit `i` = bit `b` of `cells[i].threshold_units`.
    lanes: Vec<u64>,
    /// Occupancy: bit `i` set for each packed cell.
    mask: u64,
    /// Smallest threshold in the row (`u64::MAX` when empty).
    min_threshold: u64,
    /// Largest threshold in the row (0 when empty).
    max_threshold: u64,
}

impl RowEval {
    fn new(cells: Box<[WeakCell]>) -> Self {
        let min_threshold = cells
            .iter()
            .map(|c| c.threshold_units)
            .min()
            .unwrap_or(u64::MAX);
        let max_threshold = cells.iter().map(|c| c.threshold_units).max().unwrap_or(0);
        let (lanes, mask) = if cells.is_empty() || cells.len() > 64 {
            (Vec::new(), 0)
        } else {
            let width = (64 - max_threshold.leading_zeros()) as usize;
            let mut lanes = vec![0u64; width];
            for (i, cell) in cells.iter().enumerate() {
                for (b, lane) in lanes.iter_mut().enumerate() {
                    *lane |= ((cell.threshold_units >> b) & 1) << i;
                }
            }
            let mask = if cells.len() == 64 {
                u64::MAX
            } else {
                (1u64 << cells.len()) - 1
            };
            (lanes, mask)
        };
        RowEval {
            cells,
            lanes,
            mask,
            min_threshold,
            max_threshold,
        }
    }

    /// The row's cells, sorted by bit index.
    pub fn cells(&self) -> &[WeakCell] {
        &self.cells
    }

    /// True when the row has no weak cells.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// The smallest threshold in the row (`u64::MAX` when empty): no cell
    /// can flip while accumulated units stay below it.
    pub(crate) fn min_threshold(&self) -> u64 {
        self.min_threshold
    }

    /// Cheap reject: can *any* cell cross when units move from `old` to
    /// `new`? (A cell crosses when `old < threshold <= new`.)
    #[inline]
    pub fn may_cross(&self, old: u64, new: u64) -> bool {
        new >= self.min_threshold && old < self.max_threshold
    }

    /// Bitsliced mask of cells with `threshold <= x`, over the lane bits.
    fn le_mask(&self, x: u64) -> u64 {
        let width = self.lanes.len();
        // Thresholds fit in `width` bits; anything at or above 2^width
        // dominates every cell.
        if width < 64 && x >> width != 0 {
            return self.mask;
        }
        // Bit-serial magnitude compare, MSB down: `gt` collects cells whose
        // threshold is already known greater than `x`, `eq` the still-tied.
        let mut gt = 0u64;
        let mut eq = self.mask;
        for b in (0..width).rev() {
            let lane = self.lanes[b];
            if (x >> b) & 1 == 1 {
                // x has a 1: cells with a 0 here are below (hence ≤) — they
                // simply leave the tie; cells with a 1 stay tied.
                eq &= lane;
            } else {
                // x has a 0: tied cells with a 1 here are strictly greater.
                gt |= eq & lane;
                eq &= !lane;
            }
        }
        self.mask & !gt
    }

    /// Mask of cells crossing in `(old, new]`, or `None` for rows too wide
    /// to bitslice (callers fall back to the scalar loop).
    ///
    /// Bit `i` of the result corresponds to `self.cells()[i]`.
    pub fn crossed_mask(&self, old: u64, new: u64) -> Option<u64> {
        if self.cells.len() > 64 {
            return None;
        }
        if !self.may_cross(old, new) {
            return Some(0);
        }
        Some(self.le_mask(new) & !self.le_mask(old))
    }

    /// The scalar reference evaluation: the exact mask a per-cell loop
    /// produces. The hot path checks itself against this in debug builds.
    pub fn crossed_mask_scalar(&self, old: u64, new: u64) -> u64 {
        let mut mask = 0u64;
        for (i, cell) in self.cells.iter().enumerate().take(64) {
            if old < cell.threshold_units && cell.threshold_units <= new {
                mask |= 1 << i;
            }
        }
        mask
    }
}

/// Lazily generated, deterministic map from rows to their weak cells.
///
/// The cells of a row are a pure function of `(seed, global_row_id)`; the map
/// memoises them — together with their bitsliced [`RowEval`] packing — so
/// repeated hammering of the same row is cheap. The memo is one table of
/// write-once row slots behind an `Arc`: clones (device snapshots, forks
/// and restores) share it, so each row is generated once per population
/// however many devices hammer it, on any thread.
#[derive(Debug, Clone)]
pub struct WeakCellMap {
    seed: u64,
    params: WeakCellParams,
    bits_per_row: u32,
    rows: Arc<RowTable>,
}

/// Two maps are equal when they describe the same population — the memo
/// is excluded, since it only reflects which rows happen to have been
/// queried (an oracle call must not make two otherwise-identical devices
/// compare unequal).
impl PartialEq for WeakCellMap {
    fn eq(&self, other: &Self) -> bool {
        self.seed == other.seed
            && self.params == other.params
            && self.bits_per_row == other.bits_per_row
    }
}

/// Rows per lazily allocated block of the [`RowTable`].
const ROW_BLOCK: usize = 256;

/// One block of row slots.
type RowBlock = [OnceLock<Box<RowEval>>; ROW_BLOCK];

/// The weak-cell memo: one write-once slot per row of the device, indexed
/// by global row id. The top level holds one slot per [`ROW_BLOCK`] rows
/// and a block is allocated on the first lookup of one of its rows, so a
/// device costs a few pointers per thousand rows until it is hammered.
struct RowTable {
    blocks: Box<[OnceLock<Box<RowBlock>>]>,
    /// Rows generated so far.
    generated: AtomicUsize,
}

impl RowTable {
    fn new(total_rows: u64) -> Self {
        let blocks = usize::try_from(total_rows.div_ceil(ROW_BLOCK as u64))
            .expect("row count fits the address space");
        RowTable {
            blocks: (0..blocks).map(|_| OnceLock::new()).collect(),
            generated: AtomicUsize::new(0),
        }
    }
}

impl fmt::Debug for RowTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RowTable")
            .field("blocks", &self.blocks.len())
            .field("generated", &self.generated.load(Ordering::Relaxed))
            .finish()
    }
}

/// SplitMix64 step — used to derive independent per-row seeds.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Sample a Poisson variate with small λ via Knuth's algorithm.
fn sample_poisson(rng: &mut StdRng, lambda: f64) -> u32 {
    debug_assert!(lambda >= 0.0);
    if lambda == 0.0 {
        return 0;
    }
    let l = (-lambda).exp();
    let mut k = 0u32;
    let mut p = 1.0f64;
    loop {
        p *= rng.gen::<f64>();
        if p <= l {
            return k;
        }
        k += 1;
        // λ is tiny in practice; guard against pathological parameters.
        if k > 10_000 {
            return k;
        }
    }
}

/// Standard normal variate via Box–Muller.
fn sample_standard_normal(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

impl WeakCellMap {
    /// Creates a map for `total_rows` rows of `bits_per_row` bits each.
    ///
    /// # Panics
    ///
    /// Panics if `bits_per_row` is zero or `params.density` is outside
    /// `(0, 1)`.
    pub fn new(seed: u64, params: WeakCellParams, bits_per_row: u32, total_rows: u64) -> Self {
        assert!(bits_per_row > 0, "rows must contain at least one bit");
        assert!(
            params.density > 0.0 && params.density < 1.0,
            "density must be in (0, 1)"
        );
        WeakCellMap {
            seed,
            params,
            bits_per_row,
            rows: Arc::new(RowTable::new(total_rows)),
        }
    }

    /// The population parameters.
    pub fn params(&self) -> &WeakCellParams {
        &self.params
    }

    /// Returns the weak cells of the row identified by `global_row_id`,
    /// generating and memoising them on first use.
    ///
    /// # Panics
    ///
    /// Panics if `global_row_id` is not below the map's row count.
    pub fn cells_for_row(&self, global_row_id: u64) -> &[WeakCell] {
        self.row_eval(global_row_id).cells()
    }

    /// Returns the row's bitsliced evaluation structure, generating and
    /// memoising it on first use. Concurrent first lookups of one row
    /// generate it once; the others wait for it.
    ///
    /// # Panics
    ///
    /// Panics if `global_row_id` is not below the map's row count.
    pub fn row_eval(&self, global_row_id: u64) -> &RowEval {
        let block = usize::try_from(global_row_id / ROW_BLOCK as u64)
            .ok()
            .and_then(|b| self.rows.blocks.get(b))
            .unwrap_or_else(|| panic!("row {global_row_id} is outside the device"));
        let block = block.get_or_init(|| Box::new(std::array::from_fn(|_| OnceLock::new())));
        block[(global_row_id % ROW_BLOCK as u64) as usize].get_or_init(|| {
            self.rows.generated.fetch_add(1, Ordering::Relaxed);
            Box::new(RowEval::new(self.generate(global_row_id)))
        })
    }

    fn generate(&self, global_row_id: u64) -> Box<[WeakCell]> {
        let row_seed = splitmix64(self.seed ^ splitmix64(global_row_id.wrapping_add(0xA5A5)));
        let mut rng = StdRng::seed_from_u64(row_seed);
        let lambda = self.bits_per_row as f64 * self.params.density;
        let count = sample_poisson(&mut rng, lambda);
        let mut cells: Vec<WeakCell> = Vec::with_capacity(count as usize);
        for _ in 0..count {
            let bit_in_row = rng.gen_range(0..self.bits_per_row);
            if cells.iter().any(|c| c.bit_in_row == bit_in_row) {
                continue; // collisions are vanishingly rare; skip rather than loop
            }
            let polarity = if rng.gen::<f64>() < self.params.true_cell_fraction {
                CellPolarity::True
            } else {
                CellPolarity::Anti
            };
            let z = sample_standard_normal(&mut rng);
            let acts = (self.params.mean_threshold_acts as f64
                * (self.params.threshold_sigma * z).exp())
            .max(self.params.min_threshold_acts as f64) as u64;
            cells.push(WeakCell {
                bit_in_row,
                polarity,
                threshold_units: acts * DIST_UNITS_NEAR as u64,
            });
        }
        cells.sort_by_key(|c| c.bit_in_row);
        cells.into()
    }

    /// Number of rows whose populations have been generated so far, by
    /// this map and every clone sharing its memo.
    pub fn cached_rows(&self) -> usize {
        self.rows.generated.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Row count of the maps under test: more than any test queries.
    const TEST_ROWS: u64 = 4096;

    #[test]
    fn polarity_values() {
        assert!(CellPolarity::True.charged_value());
        assert!(!CellPolarity::True.discharged_value());
        assert!(!CellPolarity::Anti.charged_value());
        assert!(CellPolarity::Anti.discharged_value());
    }

    #[test]
    fn generation_is_deterministic() {
        let a = WeakCellMap::new(42, WeakCellParams::flippy(), 65536, TEST_ROWS);
        let b = WeakCellMap::new(42, WeakCellParams::flippy(), 65536, TEST_ROWS);
        for row in 0..200u64 {
            assert_eq!(a.cells_for_row(row)[..], b.cells_for_row(row)[..]);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = WeakCellMap::new(1, WeakCellParams::flippy(), 65536, TEST_ROWS);
        let b = WeakCellMap::new(2, WeakCellParams::flippy(), 65536, TEST_ROWS);
        let differs = (0..500u64).any(|r| a.cells_for_row(r)[..] != b.cells_for_row(r)[..]);
        assert!(differs);
    }

    #[test]
    fn density_controls_population_size() {
        let rows = 2000u64;
        let count = |density: f64| -> usize {
            let m = WeakCellMap::new(
                7,
                WeakCellParams::flippy().with_density(density),
                65536,
                TEST_ROWS,
            );
            (0..rows).map(|r| m.cells_for_row(r).len()).sum()
        };
        let sparse = count(1e-7);
        let dense = count(1e-4);
        assert!(dense > sparse * 10, "dense={dense} sparse={sparse}");
        // Sanity: 1e-4 * 65536 bits * 2000 rows ≈ 13k cells.
        let expected = 1e-4 * 65536.0 * rows as f64;
        assert!((dense as f64) > expected * 0.8 && (dense as f64) < expected * 1.2);
    }

    #[test]
    fn max_feasible_rows_follows_the_activation_budget() {
        use crate::timing::DramTiming;
        let t = DramTiming::ddr3_1600();
        // DDR3 defaults leave enormous headroom: 2 × 1.39M / 25k ≈ 111,
        // clamped to the 64-lane ceiling — width is never the binding
        // constraint on an unmitigated module.
        assert_eq!(WeakCellParams::flippy().max_feasible_rows(&t), 64);
        // A refresh window ~50× shorter makes width bind hard.
        let scaled = t.with_refresh_scale(0.02);
        let w = WeakCellParams::flippy().max_feasible_rows(&scaled);
        assert!((2..8).contains(&w), "scaled width was {w}");
        // The floor is plain double-sided hammering.
        let tiny = t.with_refresh_scale(0.001);
        assert_eq!(WeakCellParams::flippy().max_feasible_rows(&tiny), 2);
    }

    #[test]
    fn thresholds_respect_floor() {
        let params = WeakCellParams::flippy();
        let m = WeakCellMap::new(3, params, 65536, TEST_ROWS);
        for row in 0..500u64 {
            for c in m.cells_for_row(row).iter() {
                assert!(c.threshold_acts() >= params.min_threshold_acts);
            }
        }
    }

    #[test]
    fn cells_sorted_and_unique() {
        let m = WeakCellMap::new(
            9,
            WeakCellParams::flippy().with_density(1e-4),
            65536,
            TEST_ROWS,
        );
        for row in 0..100u64 {
            let cells = m.cells_for_row(row);
            for w in cells.windows(2) {
                assert!(w[0].bit_in_row < w[1].bit_in_row);
            }
        }
    }

    #[test]
    fn cache_memoises() {
        let m = WeakCellMap::new(11, WeakCellParams::flippy(), 65536, TEST_ROWS);
        let a: *const RowEval = m.row_eval(5);
        assert!(std::ptr::eq(a, m.row_eval(5)));
        assert_eq!(m.cached_rows(), 1);
        // A clone shares the memo both ways: it sees the generated row and
        // the original counts what the clone generates.
        let fork = m.clone();
        assert!(std::ptr::eq(a, fork.row_eval(5)));
        assert_eq!(fork.cached_rows(), 1);
        fork.row_eval(TEST_ROWS - 1);
        assert_eq!(m.cached_rows(), 2);
        // A map of another seed has its own memo.
        let other = WeakCellMap::new(12, WeakCellParams::flippy(), 65536, TEST_ROWS);
        assert_eq!(other.cached_rows(), 0);
        assert!(!std::ptr::eq(a, other.row_eval(5)));
        assert_eq!(m.cached_rows(), 2);
    }

    #[test]
    #[should_panic(expected = "outside the device")]
    fn rows_beyond_the_device_are_rejected() {
        WeakCellMap::new(11, WeakCellParams::flippy(), 65536, TEST_ROWS).row_eval(TEST_ROWS * 2);
    }

    #[test]
    fn true_cell_fraction_is_respected() {
        let m = WeakCellMap::new(
            13,
            WeakCellParams::flippy().with_density(1e-4),
            65536,
            TEST_ROWS,
        );
        let mut true_cells = 0usize;
        let mut total = 0usize;
        for row in 0..2000u64 {
            for c in m.cells_for_row(row).iter() {
                total += 1;
                if c.polarity == CellPolarity::True {
                    true_cells += 1;
                }
            }
        }
        let frac = true_cells as f64 / total as f64;
        assert!((frac - 0.7).abs() < 0.05, "true-cell fraction was {frac}");
    }

    #[test]
    #[should_panic(expected = "density must be in (0, 1)")]
    fn invalid_density_rejected() {
        WeakCellParams::flippy().with_density(0.0);
    }

    /// Builds a synthetic row directly, bypassing generation.
    fn synthetic_row(thresholds: &[u64]) -> RowEval {
        let cells: Vec<WeakCell> = thresholds
            .iter()
            .enumerate()
            .map(|(i, &t)| WeakCell {
                bit_in_row: i as u32,
                polarity: CellPolarity::True,
                threshold_units: t,
            })
            .collect();
        RowEval::new(cells.into_boxed_slice())
    }

    #[test]
    fn bitsliced_mask_matches_scalar_on_generated_rows() {
        let m = WeakCellMap::new(
            21,
            WeakCellParams::flippy().with_density(1e-4),
            65536,
            TEST_ROWS,
        );
        let mut rng = StdRng::seed_from_u64(99);
        let mut crossings = 0u64;
        for row_id in 0..500u64 {
            let row = m.row_eval(row_id);
            for _ in 0..8 {
                let a: u64 = rng.gen_range(0..2_000_000);
                let b: u64 = rng.gen_range(0..2_000_000);
                let (old, new) = (a.min(b), a.max(b));
                let mask = row.crossed_mask(old, new).expect("rows fit in 64 lanes");
                assert_eq!(
                    mask,
                    row.crossed_mask_scalar(old, new),
                    "row {row_id} diverged for ({old}, {new}]"
                );
                crossings += u64::from(mask.count_ones());
            }
        }
        assert!(crossings > 0, "sweep must exercise actual crossings");
    }

    #[test]
    fn bitsliced_mask_boundary_semantics() {
        let row = synthetic_row(&[100, 200, 200, 4096]);
        // Crossing is (old, new]: inclusive above, exclusive below.
        assert_eq!(row.crossed_mask(0, 99), Some(0));
        assert_eq!(row.crossed_mask(0, 100), Some(0b0001));
        assert_eq!(row.crossed_mask(100, 200), Some(0b0110));
        assert_eq!(row.crossed_mask(99, 100), Some(0b0001));
        assert_eq!(row.crossed_mask(200, 4095), Some(0));
        assert_eq!(row.crossed_mask(200, u64::MAX), Some(0b1000));
        assert_eq!(row.crossed_mask(0, u64::MAX), Some(0b1111));
        assert!(row.may_cross(0, 100));
        assert!(!row.may_cross(0, 99));
        assert!(!row.may_cross(4096, u64::MAX));
    }

    #[test]
    fn empty_and_oversized_rows() {
        let empty = synthetic_row(&[]);
        assert!(empty.is_empty());
        assert!(!empty.may_cross(0, u64::MAX));
        assert_eq!(empty.crossed_mask(0, u64::MAX), Some(0));
        // 65 cells exceed the lane width: the mask path declines and the
        // caller must fall back to the scalar loop.
        let wide: Vec<u64> = (1..=65u64).map(|i| i * 10).collect();
        let wide = synthetic_row(&wide);
        assert_eq!(wide.crossed_mask(0, 1000), None);
        assert!(wide.may_cross(0, 10));
    }

    #[test]
    fn full_64_cell_row_uses_a_complete_mask() {
        let thresholds: Vec<u64> = (1..=64u64).map(|i| i * 3).collect();
        let row = synthetic_row(&thresholds);
        assert_eq!(row.crossed_mask(0, u64::MAX), Some(u64::MAX));
        assert_eq!(
            row.crossed_mask(3, 6),
            Some(0b10),
            "only the second cell crosses in (3, 6]"
        );
    }
}
