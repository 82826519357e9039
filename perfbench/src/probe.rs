//! Layer probes: each times one public call in a loop, on a fork of the
//! workload's warm machine, and reports the median of a few repetitions.

use std::hint::black_box;
use std::time::Instant;

use ciphers::{BlockCipher, RamTableSource, ReferenceAes, SboxAes, TTableAes, TableImage};
use dram::PhysAddr;
use explframe_core::ExplFrameConfig;
use machine::{MachineError, MachineSnapshot, Pid, SimMachine, VirtAddr};
use memsim::PAGE_SIZE;

use crate::metrics::median;

/// Repetitions of every probe loop; the probe reports their median.
const REPS: usize = 5;
/// Pages the hammer probe maps to find a same-bank aggressor pair.
const HAMMER_PAGES: u64 = 256;

/// The probes' results.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Probes {
    /// A 1-byte `SimMachine::read` on a hot page, ns.
    pub read_byte_ns: f64,
    /// `SimMachine::fill` of one page, ns.
    pub fill_page_ns: f64,
    /// One templating-sized `SimMachine::hammer_pair_virt`, ms.
    pub hammer_ms: f64,
    /// `SimMachine::translate_walk` of a mapped page, ns.
    pub translate_walk_ns: f64,
    /// S-box AES block over a `RamTableSource`, ns.
    pub aes_sbox_encrypt_ns: f64,
    /// T-table AES block over a `RamTableSource`, ns.
    pub aes_ttable_encrypt_ns: f64,
    /// The fixed `ReferenceAes` calibration kernel, ms of raw host time
    /// (never rescaled: it records how fast the host was).
    pub calib_ms: f64,
}

/// Median over [`REPS`] runs of `iters` calls of `op`, in ns per call.
fn per_call_ns(iters: u64, mut op: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                op();
            }
            start.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    median(&samples)
}

/// Maps and touches `pages` pages for a fresh process on the attacker CPU.
fn mapped(
    m: &mut SimMachine,
    cfg: &ExplFrameConfig,
    pages: u64,
) -> Result<(Pid, VirtAddr), MachineError> {
    let pid = m.spawn(cfg.attacker_cpu);
    let base = m.mmap(pid, pages)?;
    m.fill(pid, base, pages * PAGE_SIZE, 0)?;
    Ok((pid, base))
}

/// Two mapped pages whose rows sandwich one row of the same bank.
fn aggressor_pair(m: &SimMachine, pid: Pid, base: VirtAddr) -> Option<(VirtAddr, VirtAddr)> {
    let coord = |va: VirtAddr| {
        let pa: PhysAddr = m.translate(pid, va)?;
        Some(m.dram().mapping().phys_to_coord(pa))
    };
    let pages: Vec<_> = (0..HAMMER_PAGES)
        .filter_map(|i| {
            let va = base + i * PAGE_SIZE;
            coord(va).map(|c| (va, c))
        })
        .collect();
    pages.iter().find_map(|(a, ca)| {
        pages.iter().find_map(|(b, cb)| {
            let same_bank = (ca.channel, ca.rank, ca.bank) == (cb.channel, cb.rank, cb.bank);
            (same_bank && cb.row == ca.row + 2).then_some((*a, *b))
        })
    })
}

/// Runs every probe against a fork of `snapshot`, the machine of `cfg`.
///
/// # Errors
///
/// Returns the machine error a probed call hit, or a message if no
/// aggressor pair could be found for the hammer probe.
pub fn run(snapshot: &MachineSnapshot, cfg: &ExplFrameConfig) -> Result<Probes, String> {
    let err = |e: MachineError| format!("probe: {e}");
    let mut m = snapshot.fork();
    let (pid, page) = mapped(&mut m, cfg, 1).map_err(err)?;

    let mut byte = [0u8; 1];
    m.read(pid, page, &mut byte).map_err(err)?;
    let read_byte_ns = per_call_ns(200_000, || {
        m.read(pid, black_box(page), &mut byte)
            .expect("hot page stays mapped");
        black_box(byte);
    });
    let fill_page_ns = per_call_ns(2_000, || {
        m.fill(pid, black_box(page), PAGE_SIZE, 0x5a)
            .expect("hot page stays mapped");
    });
    let translate_walk_ns = per_call_ns(200_000, || {
        black_box(
            m.translate_walk(pid, black_box(page))
                .expect("pid is alive"),
        );
    });

    let (hammerer, buffer) = mapped(&mut m, cfg, HAMMER_PAGES).map_err(err)?;
    let (a, b) = aggressor_pair(&m, hammerer, buffer)
        .ok_or_else(|| "probe: no same-bank aggressor pair in the probe buffer".to_string())?;
    let hammer_ms = per_call_ns(1, || {
        black_box(
            m.hammer_pair_virt(hammerer, a, b, cfg.hammer_pairs)
                .expect("aggressors share a bank"),
        );
    }) / 1e6;

    let key = [0x2b; 16];
    let mut block = [0u8; 16];
    let mut sbox = SboxAes::new_128(&key, RamTableSource::new(TableImage::sbox().to_vec()));
    let aes_sbox_encrypt_ns = per_call_ns(50_000, || sbox.encrypt_block(black_box(&mut block)));
    let mut ttable = TTableAes::new_128(&key, RamTableSource::new(TableImage::te_tables()));
    let aes_ttable_encrypt_ns = per_call_ns(50_000, || ttable.encrypt_block(black_box(&mut block)));
    let mut reference = ReferenceAes::new_128(&key);
    let calib_ms = per_call_ns(1, || {
        for _ in 0..100_000 {
            reference.encrypt_block(black_box(&mut block));
        }
    }) / 1e6;

    Ok(Probes {
        read_byte_ns,
        fill_page_ns,
        hammer_ms,
        translate_walk_ns,
        aes_sbox_encrypt_ns,
        aes_ttable_encrypt_ns,
        calib_ms,
    })
}
