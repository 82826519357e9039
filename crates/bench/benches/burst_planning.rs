//! Criterion: bulk-hammer burst planning — the TRR-aware round scheduler,
//! many-sided at 50k rounds, plus one call of the `hardened-walk`
//! templating sweep.
//!
//! None of these bursts reaches the periodic fast-forward: it needs three
//! periods of lcm(round time, refresh window), 23 windows or ~8M rounds for
//! 4 rows. With the sampler tracking every aggressor (`4sided_trr`, the
//! 400k-pair sweep call) no victim can reach its weakest threshold between
//! two TRR triggers, so the flip-free closed form serves the burst in
//! O(victims). Without TRR, or with 8 rows thrashing the 4-entry sampler,
//! the weak cells next to the aggressors keep it off and the literal
//! chunked walk runs.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use dram::{DramConfig, DramCoord, DramDevice, PhysAddr, TrrParams};

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
        b.iter(|| {
            dev.hammer_pair(pair[0], pair[1], black_box(400_000))
                .unwrap()
        })
    });

    group.finish();
}

criterion_group!(benches, bench_burst_planning);
criterion_main!(benches);
