//! Criterion: one victim encryption whose every table lookup is a simulated
//! memory access through `MachineTableSource` — the collect phase's unit of
//! work (160 S-box or 640 T-table byte reads per AES block) on a warm
//! machine, served by the per-encryption read memo.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use explframe_core::{VictimCipherKind, VictimCipherService, VictimKeys};
use machine::{warm_boot, MachineConfig, WARMUP_PAGES};
use memsim::CpuId;

fn bench_table_reads(c: &mut Criterion) {
    let mut group = c.benchmark_group("victim_encrypt");
    for (name, kind) in [
        ("aes_sbox", VictimCipherKind::AesSbox),
        ("aes_ttable", VictimCipherKind::AesTtable),
    ] {
        let mut machine = warm_boot(MachineConfig::small(1), CpuId(0), WARMUP_PAGES);
        let victim =
            VictimCipherService::start(&mut machine, CpuId(0), kind, VictimKeys::from_seed(1))
                .expect("victim start");
        let mut block = [0u8; 16];
        // Warm the table's TLB entry and cache lines, as in steady collect.
        victim.encrypt(&mut machine, &mut block).expect("encrypt");
        group.bench_function(name, |b| {
            b.iter(|| {
                victim
                    .encrypt(&mut machine, black_box(&mut block))
                    .expect("encrypt");
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_table_reads);
criterion_main!(benches);
