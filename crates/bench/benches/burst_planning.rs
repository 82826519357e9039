//! Criterion: bulk-hammer bursts — the TRR-aware round scheduler,
//! many-sided at 50k rounds, one call of the `hardened-walk` templating
//! sweep, and a double-sided burst that flips, with its
//! `reference_kernels` twin.
//!
//! Every burst goes to the event kernel once the TRR sampler is steady:
//! at once without TRR or under the 8-row thrash of the 4-entry sampler,
//! after the first round when the sampler tracks every aggressor. A victim
//! whose weakest cell is out of reach costs one bound check; one whose
//! cells the burst can reach has its own refresh and TRR resets walked.
//! The flipping pair re-charges its victim row before every burst, so each
//! burst flips; its twin runs the same burst on the literal chunk walk,
//! the kernel's oracle.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use dram::{CellPolarity, DramConfig, DramCoord, DramDevice, PhysAddr, TrrParams};

/// Rounds per burst: enough activations per aggressor to cross weak-cell
/// thresholds and trip the TRR sampler several times over.
const ROUNDS: u64 = 50_000;

fn aggressors(dev: &DramDevice, rows: &[u32]) -> Vec<PhysAddr> {
    rows.iter()
        .map(|&row| {
            dev.mapping().coord_to_phys(DramCoord {
                channel: 0,
                rank: 0,
                bank: 0,
                row,
                col: 0,
            })
        })
        .collect()
}

/// The first row from 100 up holding a true cell that `ROUNDS`
/// double-sided pairs (two near activations each) can flip.
fn flippy_row(dev: &mut DramDevice) -> u32 {
    (100..4000)
        .find(|&row| {
            let addr = aggressors(dev, &[row])[0];
            dev.weak_cells_at(addr).iter().any(|cell| {
                cell.polarity == CellPolarity::True && cell.threshold_acts() < 2 * ROUNDS
            })
        })
        .expect("the flippy module has weak rows")
}

/// `ROUNDS` pairs around a row whose true cells are charged (all ones)
/// and whose disturbance is refreshed away before each burst, so every
/// burst flips.
fn bench_flipping_pair(c: &mut Criterion, name: &str, reference: bool) {
    let mut dev = DramDevice::new(DramConfig::small().with_reference_kernels(reference));
    let row = flippy_row(&mut dev);
    let pair = aggressors(&dev, &[row - 1, row + 1]);
    let victim = aggressors(&dev, &[row])[0];
    let row_bytes = u64::from(dev.config().geometry.row_bytes);
    let window = dev.config().timing.refresh_window();
    c.bench_function(name, |b| {
        b.iter(|| {
            dev.fill(victim, row_bytes, 0xFF);
            dev.advance(window);
            let before = dev.flips().len();
            let out = dev.hammer_rows(&pair, black_box(ROUNDS)).unwrap();
            assert!(dev.flips().len() > before, "the charged row must flip");
            out
        })
    });
}

fn bench_burst_planning(c: &mut Criterion) {
    let mut group = c.benchmark_group("burst_planning");

    group.bench_function("hammer_rows_4sided_no_trr", |b| {
        let mut dev = DramDevice::new(DramConfig::small());
        let rows = aggressors(&dev, &[100, 102, 104, 106]);
        b.iter(|| dev.hammer_rows(black_box(&rows), ROUNDS).unwrap())
    });

    group.bench_function("hammer_rows_4sided_trr", |b| {
        let mut dev = DramDevice::new(DramConfig::small().with_trr(Some(TrrParams::ddr4_like())));
        let rows = aggressors(&dev, &[100, 102, 104, 106]);
        b.iter(|| dev.hammer_rows(black_box(&rows), ROUNDS).unwrap())
    });

    group.bench_function("hammer_rows_8sided_trr", |b| {
        let mut dev = DramDevice::new(DramConfig::small().with_trr(Some(TrrParams::ddr4_like())));
        let rows = aggressors(&dev, &[100, 102, 104, 106, 108, 110, 112, 114]);
        b.iter(|| dev.hammer_rows(black_box(&rows), ROUNDS).unwrap())
    });

    group.bench_function("hammer_pair_trr_tracked_400k", |b| {
        let mut dev = DramDevice::new(
            DramConfig::small()
                .with_trr(Some(TrrParams::ddr4_like()))
                .with_timing_engine(true),
        );
        let pair = aggressors(&dev, &[99, 101]);
        b.iter(|| dev.hammer_rows(&pair, black_box(400_000)).unwrap())
    });

    group.finish();

    bench_flipping_pair(c, "burst_planning/hammer_pair_flips_no_trr", false);
    bench_flipping_pair(c, "burst_planning/hammer_pair_flips_no_trr_reference", true);
}

criterion_group!(benches, bench_burst_planning);
criterion_main!(benches);
