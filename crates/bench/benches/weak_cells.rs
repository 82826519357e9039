//! Criterion: weak-cell row evaluation — lazy row materialization, memo
//! hits and the bitsliced threshold-crossing kernel vs its scalar per-cell
//! oracle.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use dram::{RowEval, WeakCellMap, WeakCellParams};

/// 8 KiB rows, matching the small device geometry.
const BITS_PER_ROW: u32 = 8 * 8192;

/// Rows the benchmark maps hold (all the sweeps below stay under it).
const ROWS: u64 = 4096;

/// Dense enough that most rows carry a handful of weak cells, so the
/// crossing kernels do real lane work instead of bailing on empty rows.
fn params() -> WeakCellParams {
    WeakCellParams::flippy().with_density(1e-4)
}

/// Disturbance steps swept per row: 2 000-unit increments from fresh up
/// past the mean threshold, so the sweep crosses the whole population.
const STEPS: u64 = 40;
const STEP_UNITS: u64 = 2_000;

fn populated_rows(map: &WeakCellMap, rows: u64) -> Vec<&RowEval> {
    (0..rows)
        .map(|row| map.row_eval(row))
        .filter(|eval| !eval.is_empty())
        .collect()
}

fn bench_weak_cells(c: &mut Criterion) {
    let mut group = c.benchmark_group("weak_cells");

    group.bench_function("row_eval_cold_256_rows", |b| {
        b.iter(|| {
            let map = WeakCellMap::new(7, params(), BITS_PER_ROW, ROWS);
            for row in 0..256u64 {
                black_box(map.row_eval(black_box(row)));
            }
        })
    });

    let map = WeakCellMap::new(7, params(), BITS_PER_ROW, ROWS);
    let rows = populated_rows(&map, 256);

    // Memo hits: the lookup the hammer path makes for every victim row.
    group.bench_function("row_eval_warm_256_rows", |b| {
        b.iter(|| {
            for row in 0..256u64 {
                black_box(map.row_eval(black_box(row)));
            }
        })
    });
    assert!(!rows.is_empty(), "density must populate some rows");

    group.bench_function("crossed_mask_bitsliced", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for eval in &rows {
                for step in 0..STEPS {
                    let old = step * STEP_UNITS;
                    let new = old + STEP_UNITS;
                    if let Some(mask) = eval.crossed_mask(black_box(old), black_box(new)) {
                        acc ^= mask;
                    }
                }
            }
            acc
        })
    });

    group.bench_function("crossed_mask_scalar_oracle", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for eval in &rows {
                for step in 0..STEPS {
                    let old = step * STEP_UNITS;
                    let new = old + STEP_UNITS;
                    acc ^= eval.crossed_mask_scalar(black_box(old), black_box(new));
                }
            }
            acc
        })
    });

    group.finish();
}

criterion_group!(benches, bench_weak_cells);
criterion_main!(benches);
