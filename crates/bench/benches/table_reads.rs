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
//! * `template_harvest` — the templating read-back of one 4 KiB page
//!   against its fill pattern: `SimMachine::read_diff` on a clean page
//!   (a uniform chunk, answered in O(1)) and on a page with a few flipped
//!   bytes (compared word by word), against the byte loop it replaced (a
//!   full `SimMachine::read`, then a per-byte, per-bit scan).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use explframe_core::{VictimCipherKind, VictimCipherService, VictimKeys};
use machine::{warm_boot, MachineConfig, SimMachine, WARMUP_PAGES};
use memsim::{CpuId, PAGE_SIZE};

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

fn bench_template_harvest(c: &mut Criterion) {
    const PATTERN: u8 = 0xFF;
    let mut group = c.benchmark_group("template_harvest");
    let mut machine = warm_boot(MachineConfig::small(1), CpuId(0), WARMUP_PAGES);
    let pid = machine.spawn(CpuId(0));
    let clean = machine.mmap(pid, 2).expect("mmap");
    let dirty = clean + PAGE_SIZE;
    machine
        .fill(pid, clean, 2 * PAGE_SIZE, PATTERN)
        .expect("fill");
    // A few flipped bits, as a weak row leaves them.
    let frame = machine.translate(pid, dirty).expect("resident");
    for (offset, bit) in [(17u64, 3u8), (1200, 0), (1201, 7), (4000, 5)] {
        machine
            .dram_mut()
            .write_byte(frame + offset, PATTERN ^ (1 << bit));
    }
    let mut diffs = Vec::new();
    for (name, page) in [("clean_page", clean), ("few_flips", dirty)] {
        group.bench_function(name, |b| {
            b.iter(|| {
                diffs.clear();
                machine
                    .read_diff(pid, black_box(page), PATTERN, &mut diffs)
                    .expect("read_diff")
            })
        });
    }
    let mut buf = vec![0u8; PAGE_SIZE as usize];
    group.bench_function("few_flips_byte_loop", |b| {
        b.iter(|| {
            machine.read(pid, black_box(dirty), &mut buf).expect("read");
            let mut flips = 0u32;
            for &byte in &buf {
                if byte == PATTERN {
                    continue;
                }
                for bit in 0..8u8 {
                    if (byte ^ PATTERN) & (1 << bit) != 0 {
                        flips += 1;
                    }
                }
            }
            flips
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_victim_encrypt,
    bench_victim_session,
    bench_template_harvest
);
criterion_main!(benches);
