//! T11 — snapshot/fork equivalence: forked trials against cold boots.
//!
//! Every campaign trial used to pay the full cost of booting a `SimMachine`
//! and replaying the allocator warm-up ritual before doing any measured
//! work. The snapshot subsystem turns that into one warm boot per campaign:
//! `machine::warm_boot` once, `SimMachine::snapshot` the result, and
//! `MachineSnapshot::fork` per trial (copy-on-write DRAM, cloned metadata).
//!
//! This campaign checks that the shortcut changes nothing: the *same* probe
//! workload runs once with a cold boot-and-warm per trial and once forked
//! from a shared warm snapshot, and the two cells must produce
//! byte-identical trial fingerprints. Host time is measured by the
//! `perfbench` benchmark, not here.

use campaign::{banner, fnv1a, persist, scenario, warm_scenario, CampaignCli, Summary, Table};
use machine::{warm_boot, MachineConfig, SimMachine, WARMUP_PAGES};
use memsim::{CpuId, PAGE_SIZE};

/// Machine seed for the warm pool. Fixed: the warm state is shared by every
/// trial; per-trial divergence comes from the probe's trial seed.
const BOOT_SEED: u64 = 0xB007;

/// Warm-up depth, as a multiple of the standard [`WARMUP_PAGES`] ritual.
/// The snapshot win scales with how much boot-time state a trial inherits;
/// 64× the standard preamble (16 MiB touched) models a campaign whose warm
/// state is substantial without dwarfing the 256 MiB machine.
const WARM_PAGES: u64 = 64 * WARMUP_PAGES;

fn boot() -> SimMachine {
    warm_boot(MachineConfig::small(BOOT_SEED), CpuId(0), WARM_PAGES)
}

/// The measured per-trial workload: a short burst of steering-shaped
/// traffic against the warm allocator state, fingerprinted so cold and
/// forked cells are byte-comparable.
fn probe(machine: &mut SimMachine, seed: u64) -> u64 {
    let proc = machine.spawn(CpuId(0));
    let pages = 2 + seed % 7;
    let va = machine.mmap(proc, pages).expect("probe mmap");
    machine
        .fill(proc, va, pages * PAGE_SIZE, (seed % 251) as u8)
        .expect("probe fill");
    let frames: Vec<u64> = (0..pages)
        .map(|i| {
            machine
                .translate(proc, va + i * PAGE_SIZE)
                .expect("touched page translates")
                .as_u64()
                / PAGE_SIZE
        })
        .collect();
    fnv1a(format!("{frames:?}|{}|{}", machine.now(), machine.stats()).as_bytes())
}

fn main() {
    banner(
        "T11: snapshot/fork trial scaling",
        "one warm boot, thousands of forked trials byte-identical to cold boots",
    );
    let cli = CampaignCli::parse();
    let campaign = cli.campaign(64, 1100);
    println!(
        "trials per cell: {}   seed: {}   threads: {}   warm pages: {WARM_PAGES}",
        campaign.trials, campaign.seed, campaign.threads
    );

    // Cold: every trial boots and warms its own machine, then probes.
    let cold = campaign.run(&[scenario("cold-boot", |seed| {
        let mut machine = boot();
        probe(&mut machine, seed)
    })]);

    // Forked: one shared warm snapshot, each trial forks and probes.
    let forked = campaign.run(&[warm_scenario(
        "forked",
        || boot().snapshot(),
        |warm, seed| {
            let mut machine = warm.fork();
            probe(&mut machine, seed)
        },
    )]);

    // The differential guarantee, asserted on every run: forking never
    // changes results.
    assert_eq!(
        cold.cells[0].trials, forked.cells[0].trials,
        "forked trials diverged from cold-boot trials"
    );

    let digest = |trials: &[u64]| fnv1a(format!("{trials:?}").as_bytes());
    let mut table = Table::new(
        "snapshot scaling (fingerprints are deterministic)",
        &["mode", "trials", "fingerprint_fnv1a"],
    );
    let mut summary = Summary::new("t11_snapshot_scaling", &campaign);
    for (name, result) in [("cold-boot", &cold), ("forked", &forked)] {
        let d = format!("{:#018x}", digest(&result.cells[0].trials));
        table.row(&[&name, &result.total_trials, &d]);
        summary.cell(name, &[("fingerprint", campaign::Json::Str(d.clone()))]);
    }
    persist("t11_snapshot_scaling", &table, &mut summary);

    summary.write(&forked);
    println!("\nforked trials byte-identical to cold-boot trials");
}
