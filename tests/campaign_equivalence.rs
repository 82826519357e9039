//! The campaign-equivalence battery: the worker count is byte-level
//! unobservable in campaign artifacts, and a warm cell is unobservable
//! against cold boots.
//!
//! * Machine-probe cells, each forking one once-booted warm snapshot,
//!   render identical `summary.json`/`trace.json` bytes at every thread
//!   count against the 1-thread run.
//! * A full ExplFrame attack cell built with [`warm_scenario`] reports, per
//!   trial, exactly what a cold boot-and-snapshot run of the same seed does.
//!
//! Every run counts its boots: each warm scenario boots exactly once.

use std::sync::atomic::{AtomicU64, Ordering};

use explframe::attack::{ExplFrame, ExplFrameConfig};
use explframe::campaign::{fnv1a, trial_seed, warm_scenario, Campaign, Json, Summary, TraceSink};
use explframe::machine::{warm_boot, MachineConfig, MachineSnapshot};
use explframe::memsim::{CpuId, PAGE_SIZE};

const THREAD_GRID: [usize; 3] = [1, 2, 8];

/// Boots `config`, runs `pages` pages of allocator warm-up on CPU 0 and
/// snapshots the result, counting the boot in `boots`.
fn warm_snapshot(config: MachineConfig, pages: u64, boots: &AtomicU64) -> MachineSnapshot {
    boots.fetch_add(1, Ordering::SeqCst);
    warm_boot(config, CpuId(0), pages).snapshot()
}

/// A seed-dependent mmap/fill burst on a fork of `snap`, fingerprinted over
/// the frames it received, the simulated clock and the machine stats.
fn probe(snap: &MachineSnapshot, seed: u64) -> u64 {
    let mut machine = snap.fork();
    let proc = machine.spawn(CpuId(0));
    let pages = 2 + seed % 7;
    let va = machine.mmap(proc, pages).expect("probe mmap");
    machine
        .fill(proc, va, pages * PAGE_SIZE, (seed % 251) as u8)
        .expect("probe fill");
    let frames: Vec<u64> = (0..pages)
        .map(|i| {
            let pa = machine.translate(proc, va + i * PAGE_SIZE);
            pa.expect("touched page translates").as_u64() / PAGE_SIZE
        })
        .collect();
    fnv1a(format!("{frames:?}|{}|{}", machine.now(), machine.stats()).as_bytes())
}

/// Renders the deterministic artifacts (summary bytes, trace bytes) of one
/// campaign run over machine-probe cells.
fn render_campaign(campaign: &Campaign) -> (String, String) {
    // Three probe cells over two machine configs and two warm-up depths.
    let boots = AtomicU64::new(0);
    let cells: Vec<_> = [(1u64, 32u64), (2, 32), (1, 64)]
        .into_iter()
        .map(|(cfg_seed, pages)| {
            let boots = &boots;
            warm_scenario(
                format!("probe-s{cfg_seed}-p{pages}"),
                move || warm_snapshot(MachineConfig::small(cfg_seed), pages, boots),
                probe,
            )
        })
        .collect();
    let result = campaign.run(&cells);
    assert_eq!(
        boots.load(Ordering::SeqCst),
        3,
        "each warm cell boots exactly once"
    );
    let mut summary = Summary::new("campaign_equiv", campaign);
    let mut trace = TraceSink::new("campaign_equiv");
    for cell in &result.cells {
        let fingerprint = fnv1a(format!("{:?}", cell.trials).as_bytes());
        summary.cell(&cell.name, &[("fingerprint", Json::UInt(fingerprint))]);
        let mut event = Json::obj();
        event.set("event", "cell-reduced");
        event.set("cell", cell.name.as_str());
        event.set("fingerprint", fingerprint);
        trace.push(event);
    }
    (
        summary.deterministic_json().pretty(),
        trace.record().pretty(),
    )
}

#[test]
fn campaign_engine_renders_identical_bytes_at_every_thread_count() {
    let baseline = render_campaign(&Campaign::new(4, 42).with_threads(1));
    for threads in THREAD_GRID {
        let run = render_campaign(&Campaign::new(4, 42).with_threads(threads));
        assert_eq!(
            run.0, baseline.0,
            "summary bytes diverged at {threads} threads"
        );
        assert_eq!(
            run.1, baseline.1,
            "trace bytes diverged at {threads} threads"
        );
    }
}

/// One ExplFrame attack trial forked off `snap`, reduced to a fingerprint
/// of its report: any report field difference changes it.
fn attack(snap: &MachineSnapshot, seed: u64) -> u64 {
    let mut cfg = ExplFrameConfig::small_demo(5).with_template_pages(256);
    cfg.seed = seed;
    let report = ExplFrame::new(cfg)
        .run_snapshot(snap)
        .expect("attack runs at machine level");
    fnv1a(format!("{report:?}").as_bytes())
}

#[test]
fn warm_attack_cell_matches_cold_snapshot_runs() {
    const TRIALS: u32 = 3;
    let cold: Vec<u64> = (0..TRIALS)
        .map(|t| {
            let snap = warm_boot(MachineConfig::small(5), CpuId(0), 64).snapshot();
            attack(&snap, trial_seed(77, u64::from(t)))
        })
        .collect();
    for threads in THREAD_GRID {
        let boots = AtomicU64::new(0);
        let cell = warm_scenario(
            "attack-aes",
            || warm_snapshot(MachineConfig::small(5), 64, &boots),
            attack,
        );
        let result = Campaign::new(TRIALS, 77).with_threads(threads).run(&[cell]);
        assert_eq!(
            result.cells[0].trials, cold,
            "warm attack diverged at {threads} threads"
        );
        assert_eq!(
            boots.load(Ordering::SeqCst),
            1,
            "the attack cell boots exactly once"
        );
    }
}
