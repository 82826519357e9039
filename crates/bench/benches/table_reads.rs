//! Criterion: victim encryptions whose every table lookup is a simulated
//! memory access (160 S-box or 640 T-table byte reads per AES block) on a
//! warm machine — the collect phase's unit of work.
//!
//! * `victim_encrypt` — one `VictimCipherService::encrypt` per iteration:
//!   a one-encryption session, so every lookup goes through
//!   `MachineTableSource` and a fresh read memo.
//! * `victim_session` — steady-state encryptions through one held
//!   `VictimSession`, as collect runs them: once the session's memo is
//!   warm, each encryption runs on the raw table copy and its reads are
//!   charged in one step.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use explframe_core::{VictimCipherKind, VictimCipherService, VictimKeys};
use machine::{warm_boot, MachineConfig, SimMachine, WARMUP_PAGES};
use memsim::CpuId;

const KINDS: [(&str, VictimCipherKind); 2] = [
    ("aes_sbox", VictimCipherKind::AesSbox),
    ("aes_ttable", VictimCipherKind::AesTtable),
];

/// A warm machine running a started victim of `kind`.
fn victim(kind: VictimCipherKind) -> (SimMachine, VictimCipherService) {
    let mut machine = warm_boot(MachineConfig::small(1), CpuId(0), WARMUP_PAGES);
    let victim = VictimCipherService::start(&mut machine, CpuId(0), kind, VictimKeys::from_seed(1))
        .expect("victim start");
    (machine, victim)
}

fn bench_victim_encrypt(c: &mut Criterion) {
    let mut group = c.benchmark_group("victim_encrypt");
    for (name, kind) in KINDS {
        let (mut machine, victim) = victim(kind);
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

fn bench_victim_session(c: &mut Criterion) {
    let mut group = c.benchmark_group("victim_session");
    for (name, kind) in KINDS {
        let (mut machine, victim) = victim(kind);
        let mut session = victim.session(&mut machine);
        let mut block = [0u8; 16];
        // Warm the session's memo: after a few encryptions every table line
        // is most-recently-used in its L1 set.
        for _ in 0..16 {
            session.encrypt(&mut block).expect("encrypt");
        }
        group.bench_function(name, |b| {
            b.iter(|| {
                session.encrypt(black_box(&mut block)).expect("encrypt");
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_victim_encrypt, bench_victim_session);
criterion_main!(benches);
