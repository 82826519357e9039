//! The bulk-hammer event kernel against its oracle, the literal chunked
//! walk (`DramConfig::reference_kernels`), on bursts that flip and bursts
//! that do not.
//!
//! Each case draws an aggressor set (2–8 rows, reaching rows 0 and 1 and
//! the bank's last two rows), a TRR engine (off, or sampler 0–8, threshold
//! 2–5000, radius 0–3), a refresh window (stock, a few rounds, or shorter
//! than one round), the timing engine and SECDED on or off, a
//! preceding burst that leaves in-window disturbance carried over, a burst
//! length (0, 1, the exact count that reaches or straddles a victim's next
//! refresh, or random), fills that leave some cells discharged, and a
//! weak-cell population of one of these kinds:
//!
//! - every threshold a few activations either side of the no-flip bound;
//! - thresholds spread inside the burst's reach, several per row: some at
//!   or below the carried units, some reachable only in a window after a
//!   refresh or a TRR reset, and at the densest draw (over 64 cells a row,
//!   the scalar path) many pairs sharing a SECDED word;
//! - every threshold crossed in the round that straddles the victim's
//!   refresh boundary;
//! - the stock flippy and rare modules.
//!
//! The fast device must match the reference device in every outcome (the
//! flip log with its times), in `stats()`, TRR triggers, the command clock
//! and the full snapshot, and again after a follow-up burst.

use dram::{
    DramConfig, DramCoord, DramDevice, DramTiming, EccMode, FlipEvent, HammerOutcome, PhysAddr,
    TrrParams, WeakCellParams,
};
use proptest::prelude::*;
use proptest::test_runner::TestRng;

/// Rows of the small geometry's banks.
const ROWS: u32 = 4096;

/// One drawn scenario.
#[derive(Debug)]
struct Case {
    config: DramConfig,
    bank: u32,
    rows: Vec<u32>,
    warm_rows: Vec<u32>,
    warm_rounds: u64,
    idle: u64,
    rounds: u64,
    follow_rounds: u64,
    fills: Vec<u8>,
}

fn round_time(timing: &DramTiming, rows: usize) -> u64 {
    rows as u64 * timing.t_rc
}

/// The next refresh boundary of `row` strictly after the window holding
/// `t` (the bank model's staggered tREFI schedule).
fn next_refresh(timing: &DramTiming, row: u32, t: u64) -> u64 {
    let w = timing.refresh_window();
    let phase = u64::from(row % timing.refresh_groups) * timing.t_refi;
    phase + (t + w - phase) / w * w
}

impl Case {
    fn draw(rng: &mut TestRng) -> Case {
        // Mostly the stock refresh schedule; sometimes a window a few
        // rounds long, or one shorter than a round, so that every round
        // starts in a new window.
        let stock = DramTiming::ddr3_1600();
        let timing = match rng.gen_range(0u32..8) {
            0 => DramTiming {
                t_refi: 7,
                refresh_groups: 64,
                ..stock
            },
            1 => DramTiming {
                t_refi: 1,
                refresh_groups: 16,
                ..stock
            },
            _ => stock,
        };
        let count = rng.gen_range(2usize..=8);
        let mut offsets: Vec<u32> = (0..12).collect();
        for i in 0..count {
            let j = rng.gen_range(i..offsets.len());
            offsets.swap(i, j);
        }
        offsets.truncate(count);
        let region = rng.gen_range(0u32..3);
        let rows: Vec<u32> = offsets
            .iter()
            .map(|&o| match region {
                0 => o,
                1 => ROWS - 1 - o,
                _ => 2000 + o,
            })
            .collect();
        let warm_rows: Vec<u32> = match rng.gen_range(0u32..3) {
            0 => rows.clone(),
            1 => rows
                .iter()
                .map(|&r| if region == 1 { r - 1 } else { r + 1 })
                .collect(),
            _ => vec![
                rows[0],
                if region == 1 {
                    rows[0] - 2
                } else {
                    rows[0] + 2
                },
            ],
        };
        // Half the samplers fit the aggressor set, so triggers are common.
        let sizes = if rng.gen_bool(0.5) {
            count as u32..=8
        } else {
            0..=8
        };
        let trr = rng.gen_bool(0.75).then(|| {
            TrrParams::ddr4_like()
                .with_sampler_size(rng.gen_range(sizes))
                .with_threshold_acts(rng.gen_range(2u64..=5000))
                .with_radius(rng.gen_range(0u32..=3))
        });
        let tracked = trr.filter(|p| p.sampler_size as usize >= count);
        let t = round_time(&timing, count);
        // The reference walk takes a chunk per refresh boundary and per
        // trigger; bound both counts.
        let cap = tracked
            .map_or(1_500_000, |p| (500 * p.threshold_acts).min(1_500_000))
            .min(2_000 * timing.refresh_window().div_ceil(t));
        let mut warm_rounds = rng.gen_range(0u64..=cap / 2);
        let idle = match rng.gen_range(0u32..3) {
            0 => 0,
            1 => rng.gen_range(0..timing.t_refi * 8),
            _ => rng.gen_range(0..timing.refresh_window()),
        };
        let now = warm_rounds * round_time(&timing, warm_rows.len()) + idle;
        let aggressor = rows[rng.gen_range(0..count)];
        let victim = if aggressor == 0 { 1 } else { aggressor - 1 };
        let to_refresh = (next_refresh(&timing, victim, now) - now) / t;
        let mut rounds = match rng.gen_range(0u32..6) {
            0 => 0,
            1 => 1,
            2 => to_refresh.min(cap),
            3 => (to_refresh + 1).min(cap),
            4 => rng.gen_range(2..=5_000u64.min(cap)),
            _ => rng.gen_range(2..=cap),
        };
        // A victim's near activations per round (one or two) over the
        // rounds it can go between resets: the kernel's no-flip bound.
        let gap = tracked.map_or(rounds.min(timing.refresh_window() / t + 1), |p| {
            p.threshold_acts
        });
        let near_acts = units_per_round(&rows)
            .into_iter()
            .map(|(_, u)| u)
            .filter(|u| u % 16 == 0)
            .max()
            .map_or(2, |u| u / 16);
        let reach = near_acts * gap;
        let density = [2e-4, 6e-4, 1.5e-3][rng.gen_range(0usize..3)];
        let exact = |acts: u64| WeakCellParams {
            density,
            mean_threshold_acts: acts,
            threshold_sigma: 0.0,
            min_threshold_acts: acts,
            true_cell_fraction: 0.7,
        };
        let cells = match rng.gen_range(0u32..5) {
            0 => exact(reach.saturating_add_signed(rng.gen_range(-2i64..=2)).max(1)),
            1 => WeakCellParams {
                density,
                mean_threshold_acts: (reach * rng.gen_range(1u64..=12) / 8).max(1),
                threshold_sigma: 0.6,
                min_threshold_acts: 1,
                true_cell_fraction: 0.7,
            },
            2 => {
                // No carried units, a burst that reaches the boundary, and
                // one victim's cells crossing in the round that straddles
                // it: the last of the rounds starting before it.
                warm_rounds = 0;
                let near: Vec<(u32, u64)> = units_per_round(&rows)
                    .into_iter()
                    .filter(|&(_, u)| u >= 16)
                    .collect();
                let (row, units) = near[rng.gen_range(0..near.len())];
                let straddle = (next_refresh(&timing, row, idle) - idle).div_ceil(t);
                rounds = (straddle + rng.gen_range(0u64..3)).min(cap);
                exact(units * straddle / 16)
            }
            3 => WeakCellParams::flippy(),
            _ => WeakCellParams::rare(),
        };
        let config = DramConfig::small()
            .with_timing(timing)
            .with_seed(rng.gen())
            .with_cells(cells)
            .with_trr(trr)
            .with_timing_engine(rng.gen_bool(0.5))
            .with_ecc(if rng.gen_bool(0.5) {
                EccMode::Secded
            } else {
                EccMode::Off
            });
        Case {
            config,
            bank: rng.gen_range(0u32..8),
            rows,
            warm_rows,
            warm_rounds,
            idle,
            rounds,
            follow_rounds: rng.gen_range(0..=cap.min(200_000)),
            fills: (0..8)
                .map(|_| [0x00, 0xFF, 0x5A][rng.gen_range(0usize..3)])
                .collect(),
        }
    }
}

/// `(victim row, units)` for each victim row of a round-robin burst over
/// `rows`, with the units it takes per round: 16 from each adjacent
/// aggressor, 1 from each at distance 2.
fn units_per_round(rows: &[u32]) -> Vec<(u32, u64)> {
    let mut units = std::collections::BTreeMap::new();
    for &row in rows {
        for (delta, u) in [(-2i64, 1u64), (-1, 16), (1, 16), (2, 1)] {
            let victim = i64::from(row) + delta;
            if (0..i64::from(ROWS)).contains(&victim) && !rows.contains(&(victim as u32)) {
                *units.entry(victim as u32).or_insert(0) += u;
            }
        }
    }
    units.into_iter().collect()
}

fn addr(dev: &DramDevice, bank: u32, row: u32) -> PhysAddr {
    dev.mapping().coord_to_phys(DramCoord {
        channel: 0,
        rank: 0,
        bank,
        row,
        col: 0,
    })
}

/// One burst's outcome and the flips it added to the device's flip log.
struct Burst {
    outcome: HammerOutcome,
    flips: Vec<FlipEvent>,
}

/// Hammers `rows` of `bank` for `rounds` rounds.
fn hammer(dev: &mut DramDevice, bank: u32, rows: &[u32], rounds: u64) -> Burst {
    let addrs: Vec<PhysAddr> = rows.iter().map(|&r| addr(dev, bank, r)).collect();
    let before = dev.flips().len();
    let outcome = dev
        .hammer_rows(&addrs, rounds)
        .expect("distinct same-bank rows");
    Burst {
        outcome,
        flips: dev.flips()[before..].to_vec(),
    }
}

fn same_outcome(fast: &Burst, reference: &Burst, what: &str) -> TestCaseResult {
    prop_assert_eq!(&fast.flips, &reference.flips, "{} flips", what);
    prop_assert_eq!(fast.outcome.acts, reference.outcome.acts, "{} acts", what);
    prop_assert_eq!(
        fast.outcome.elapsed,
        reference.outcome.elapsed,
        "{} elapsed",
        what
    );
    Ok(())
}

fn same_device(fast: &DramDevice, reference: &DramDevice, what: &str) -> TestCaseResult {
    prop_assert_eq!(fast.stats(), reference.stats(), "{} stats", what);
    prop_assert_eq!(fast.trr_triggers(), reference.trr_triggers(), "{}", what);
    prop_assert_eq!(fast.command_clock(), reference.command_clock(), "{}", what);
    prop_assert!(
        *fast == reference.clone().with_reference_kernels(false),
        "{} snapshots diverged",
        what
    );
    Ok(())
}

/// What one case exercised.
struct Coverage {
    closed_form_with_triggers: bool,
    declined: bool,
    flipped: bool,
    kernel_flips: bool,
    straddle_flips: bool,
    shared_word_flips: bool,
}

fn check(case: &Case) -> Result<Coverage, TestCaseError> {
    let mut fast = DramDevice::new(case.config);
    let mut reference = DramDevice::new(case.config.with_reference_kernels(true));
    let lo = case
        .rows
        .iter()
        .chain(&case.warm_rows)
        .min()
        .unwrap()
        .saturating_sub(4);
    let hi = (case.rows.iter().chain(&case.warm_rows).max().unwrap() + 4).min(ROWS - 1);
    let row_bytes = u64::from(fast.config().geometry.row_bytes);
    for dev in [&mut fast, &mut reference] {
        for row in lo..=hi {
            let byte = case.fills[row as usize % case.fills.len()];
            dev.fill(addr(dev, case.bank, row), row_bytes, byte);
        }
    }

    let warm_fast = hammer(&mut fast, case.bank, &case.warm_rows, case.warm_rounds);
    let warm_ref = hammer(&mut reference, case.bank, &case.warm_rows, case.warm_rounds);
    same_outcome(&warm_fast, &warm_ref, "preceding burst")?;
    fast.advance(case.idle);
    reference.advance(case.idle);
    same_device(&fast, &reference, "preceding burst")?;

    let (analytic, triggers) = (fast.analytic_rounds(), fast.trr_triggers());
    let main_fast = hammer(&mut fast, case.bank, &case.rows, case.rounds);
    let main_ref = hammer(&mut reference, case.bank, &case.rows, case.rounds);
    same_outcome(&main_fast, &main_ref, "burst")?;
    same_device(&fast, &reference, "burst")?;
    prop_assert_eq!(reference.analytic_rounds(), 0, "reference stays literal");
    let kernel = fast.analytic_rounds() > analytic;
    let flips = &main_fast.flips;
    let timing = case.config.timing;
    let t = round_time(&timing, case.rows.len());
    let coverage = Coverage {
        closed_form_with_triggers: kernel && fast.trr_triggers() > triggers,
        declined: case.rounds > 0 && !kernel,
        flipped: !flips.is_empty(),
        kernel_flips: kernel && !flips.is_empty(),
        // A one-round chunk: the round straddling the flipped row's refresh.
        straddle_flips: kernel
            && flips
                .iter()
                .any(|f| next_refresh(&timing, f.coord.row, f.time) - f.time < t),
        shared_word_flips: kernel
            && flips.iter().enumerate().any(|(i, f)| {
                flips[..i]
                    .iter()
                    .any(|g| g.addr.as_u64() / 8 == f.addr.as_u64() / 8)
            }),
    };

    let next_fast = hammer(&mut fast, case.bank, &case.rows, case.follow_rounds);
    let next_ref = hammer(&mut reference, case.bank, &case.rows, case.follow_rounds);
    same_outcome(&next_fast, &next_ref, "follow-up burst")?;
    same_device(&fast, &reference, "follow-up burst")?;
    Ok(coverage)
}

#[test]
fn bursts_match_the_literal_walk() {
    let mut counts = [0usize; 6];
    proptest::test_runner::TestRunner::new(ProptestConfig::default(), "burst_kernel").run(|rng| {
        let case = Case::draw(rng);
        let c = check(&case).map_err(|e| TestCaseError::fail(format!("{e}\n{case:#?}")))?;
        let hits = [
            c.closed_form_with_triggers,
            c.declined,
            c.flipped,
            c.kernel_flips,
            c.straddle_flips,
            c.shared_word_flips,
        ];
        for (count, hit) in counts.iter_mut().zip(hits) {
            *count += usize::from(hit);
        }
        Ok(())
    });
    let [engaged, declined, flipped, kernel_flips, straddle, shared_word] = counts;
    // Not vacuous: the kernel jumped over TRR triggers and served flips
    // (in a straddle round, and two in one SECDED word, among them), and
    // an unsteady sampler kept some bursts on the walk.
    eprintln!(
        "coverage: engaged {engaged} declined {declined} flipped {flipped} \
         flips served by the kernel {kernel_flips} straddle {straddle} \
         shared word {shared_word}"
    );
    assert!(engaged > 0, "the kernel never jumped a TRR trigger");
    assert!(declined > 0, "no burst stayed on the walk");
    assert!(flipped > 0, "no case flipped a cell");
    assert!(kernel_flips > 0, "the kernel served no flip");
    assert!(straddle > 0, "no flip landed in a straddle round");
    assert!(shared_word > 0, "no two flips shared a SECDED word");
}

#[test]
fn hardened_walk_sweep_call_is_served_in_closed_form() {
    // One call of the templating sweep on a DDR4-like TRR module with the
    // command clock on: 400k double-sided pairs, a trigger every 4096.
    let config = DramConfig::small()
        .with_seed(7)
        .with_cells(WeakCellParams::moderate())
        .with_trr(Some(TrrParams::ddr4_like()))
        .with_timing_engine(true);
    let mut fast = DramDevice::new(config);
    let mut reference = DramDevice::new(config.with_reference_kernels(true));
    for row in [100, 300] {
        let of = hammer(&mut fast, 2, &[row - 1, row + 1], 400_000);
        let or = hammer(&mut reference, 2, &[row - 1, row + 1], 400_000);
        same_outcome(&of, &or, "sweep call").unwrap();
        same_device(&fast, &reference, "sweep call").unwrap();
    }
    // The first round of each call seats the pair in the sampler; every
    // later round is jumped.
    assert_eq!(fast.analytic_rounds(), 2 * (400_000 - 1));
    assert!(fast.trr_triggers() >= 2 * 2 * (400_000 / 4096));
}

#[test]
fn no_flip_bound_is_exact() {
    // A double-sided pair under a sampler that tracks it: the sandwiched
    // victim takes 32 units a round and TRR clears it every `threshold`
    // rounds, so it peaks at exactly 32 × threshold units. Cells at that
    // threshold flip; one activation (16 units) higher nothing can flip.
    // The kernel must serve both.
    let threshold = 1000;
    for (extra, flips) in [(0, true), (1, false)] {
        let acts = 2 * threshold + extra;
        let config = DramConfig::small()
            .with_seed(11)
            .with_cells(WeakCellParams {
                density: 2e-4,
                mean_threshold_acts: acts,
                threshold_sigma: 0.0,
                min_threshold_acts: acts,
                true_cell_fraction: 1.0,
            })
            .with_trr(Some(TrrParams::ddr4_like().with_threshold_acts(threshold)));
        let mut fast = DramDevice::new(config);
        let mut reference = DramDevice::new(config.with_reference_kernels(true));
        let row_bytes = u64::from(config.geometry.row_bytes);
        for dev in [&mut fast, &mut reference] {
            for row in 95..=105 {
                dev.fill(addr(dev, 0, row), row_bytes, 0xFF);
            }
        }
        let of = hammer(&mut fast, 0, &[99, 101], 10 * threshold);
        let or = hammer(&mut reference, 0, &[99, 101], 10 * threshold);
        same_outcome(&of, &or, "burst").unwrap();
        same_device(&fast, &reference, "burst").unwrap();
        assert_eq!(!of.flips.is_empty(), flips, "threshold {acts} acts");
        assert!(fast.analytic_rounds() > 0, "threshold {acts} acts");
    }
}
