//! Criterion: hammering paths — bulk vs per-access, and machine overhead.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use dram::{DramConfig, DramCoord, DramDevice};
use machine::{MachineConfig, SimMachine};
use memsim::{CpuId, PAGE_SIZE};

fn bench_hammer(c: &mut Criterion) {
    let mut group = c.benchmark_group("hammer");

    group.bench_function("bulk_hammer_100k_pairs", |b| {
        let mut dev = DramDevice::new(DramConfig::small());
        let coord = |row| DramCoord {
            channel: 0,
            rank: 0,
            bank: 0,
            row,
            col: 0,
        };
        let a = dev.mapping().coord_to_phys(coord(100));
        let bb = dev.mapping().coord_to_phys(coord(102));
        b.iter(|| {
            dev.hammer_rows(black_box(&[a, bb]), 100_000).unwrap();
        })
    });

    group.bench_function("per_access_hammer_1k_acts", |b| {
        let mut dev = DramDevice::new(DramConfig::small());
        let coord = |row| DramCoord {
            channel: 0,
            rank: 0,
            bank: 0,
            row,
            col: 0,
        };
        let a = dev.mapping().coord_to_phys(coord(200));
        let bb = dev.mapping().coord_to_phys(coord(202));
        b.iter(|| {
            for _ in 0..500 {
                dev.access(black_box(a));
                dev.access(black_box(bb));
            }
        })
    });

    group.bench_function("machine_hammer_virt_100k_pairs", |b| {
        let mut m = SimMachine::new(MachineConfig::small(1));
        let pid = m.spawn(CpuId(0));
        let buf = m.mmap(pid, 64).unwrap();
        m.fill(pid, buf, 64 * PAGE_SIZE, 0xFF).unwrap();
        let above = buf;
        let below = buf + 32 * PAGE_SIZE;
        b.iter(|| {
            m.hammer_rows_virt(pid, black_box(&[above, below]), 100_000)
                .unwrap();
        })
    });
    group.finish();
}

criterion_group!(benches, bench_hammer);
criterion_main!(benches);
