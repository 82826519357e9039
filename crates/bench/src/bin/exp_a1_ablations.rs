//! A1 — ablations over the simulator's design knobs, as three campaigns:
//!
//! 1. pcp tuning (`batch`/`high`) vs steering success — the exploit rides
//!    the LIFO head, so it survives any sane tuning; disabling the cache
//!    (high = 0 behaviour approximated by batch=high=1 plus drain) kills it.
//! 2. Refresh-rate scaling vs templating yield — the standard hardware
//!    mitigation sweep.
//! 3. Idle-drain policy vs a sleeping attacker — the §V caveat ablated,
//!    with an active-attacker reference cell in the same campaign.

use campaign::{banner, persist, scenario, Campaign, CampaignCli, Counter, Json, Summary, Table};
use explframe_core::NoiseProcess;
use machine::{IdleDrainPolicy, MachineConfig, SimMachine};
use memsim::{CpuId, PcpConfig, PAGE_SIZE};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    banner(
        "A1: ablations",
        "pcp tuning, refresh scaling, idle-drain policy",
    );
    let cli = CampaignCli::parse();
    let base = cli.campaign(100, 0xA1);
    println!(
        "trials per cell: {}   seed: {}   threads: {}",
        base.trials, base.seed, base.threads
    );

    pcp_tuning(&base);
    // The refresh sweep templates one fixed flippy module; --seed overrides
    // which module, defaulting to the historical module seed 3.
    refresh_scaling(&base, cli.seed.unwrap_or(3));
    idle_drain(&base);
}

/// Releases one frame and checks the next same-CPU allocation receives it.
fn steer_once(machine: &mut SimMachine) -> bool {
    let attacker = machine.spawn(CpuId(0));
    let buf = machine.mmap(attacker, 2).unwrap();
    machine.fill(attacker, buf, 2 * PAGE_SIZE, 1).unwrap();
    let released = machine.translate(attacker, buf).unwrap();
    machine.munmap(attacker, buf, 1).unwrap();
    let victim = machine.spawn(CpuId(0));
    let vb = machine.mmap(victim, 1).unwrap();
    machine.write(victim, vb, b"t").unwrap();
    machine.translate(victim, vb).unwrap().align_down(PAGE_SIZE) == released.align_down(PAGE_SIZE)
}

/// Steering success vs pcp tuning.
fn pcp_tuning(base: &Campaign) {
    let campaign = Campaign {
        seed: base.seed ^ (0x9C9 << 20),
        ..base.clone()
    };
    let tunings = [(31usize, 186usize), (8, 32), (1, 6), (1, 1)];
    let cells: Vec<_> = tunings
        .iter()
        .map(|&(batch, high)| {
            scenario(format!("batch={batch} high={high}"), move |seed| {
                let mut config = MachineConfig::small(seed);
                config.mem = config.mem.with_pcp(PcpConfig { batch, high });
                let mut m = SimMachine::new(config);
                steer_once(&mut m)
            })
        })
        .collect();
    let result = campaign.run(&cells);

    let mut table = Table::new(
        "steering success vs per-CPU page cache tuning",
        &["batch", "high", "steering success"],
    );
    let mut summary = Summary::new("a1_pcp_tuning", &campaign);
    for (&(batch, high), cell) in tunings.iter().zip(&result.cells) {
        let ok: Counter = cell.trials.iter().copied().collect();
        let rate = format!("{:.3}", ok.rate());
        table.row(&[&batch, &high, &rate]);
        summary.cell(&cell.name, &[("rate", Json::Float(ok.rate()))]);
    }
    persist("a1_pcp_tuning", &table, &mut summary);
    summary.write(&result);
    println!("the LIFO head property is tuning-independent: steering survives every sane setting");
}

/// Templates found vs refresh interval scaling. Each cell is one
/// deterministic sweep of the same flippy module (the campaign seed).
fn refresh_scaling(base: &Campaign, module_seed: u64) {
    let campaign = Campaign {
        trials: 1,
        seed: module_seed,
        threads: base.threads,
    };
    let machine_seed = campaign.seed;
    let scales = [
        (1.0f64, "1x (64 ms)"),
        (0.5, "2x"),
        (0.25, "4x"),
        (0.125, "8x"),
        (1.0 / 32.0, "32x"),
        (1.0 / 64.0, "64x"),
    ];
    let cells: Vec<_> = scales
        .iter()
        .map(|&(scale, label)| {
            scenario(label, move |_seed| {
                let mut config = MachineConfig::small(machine_seed);
                config.dram.timing = config.dram.timing.with_refresh_scale(scale);
                let mut m = SimMachine::new(config);
                let attacker = m.spawn(CpuId(0));
                let buffer = m.mmap(attacker, 2048).unwrap();
                let scan =
                    explframe_core::template_scan(&mut m, attacker, buffer, 2048, 690_000, 0)
                        .unwrap();
                let window_ms = m.config().dram.timing.refresh_window() as f64 / 1e6;
                let max_acts = m.config().dram.timing.max_acts_per_window();
                (window_ms, max_acts, scan.templates.len())
            })
        })
        .collect();
    let result = campaign.run(&cells);

    let mut table = Table::new(
        "templating yield vs refresh rate (the hardware mitigation)",
        &[
            "refresh rate",
            "window (ms)",
            "max acts/window",
            "templates found",
        ],
    );
    let mut summary = Summary::new("a1_refresh_scaling", &campaign);
    for ((_, label), cell) in scales.iter().zip(&result.cells) {
        let (window_ms, max_acts, found) = cell.trials[0];
        let w = format!("{window_ms:.1}");
        table.row(&[label, &w, &max_acts, &found]);
        summary.cell(&cell.name, &[("templates", Json::UInt(found as u64))]);
    }
    persist("a1_refresh_scaling", &table, &mut summary);
    summary.write(&result);
    println!("flips die once the window holds fewer activations than the lowest cell threshold");
}

/// Sleeping-attacker success under both idle-drain policies, plus the
/// active-attacker reference on the same machine population.
fn idle_drain(base: &Campaign) {
    let campaign = Campaign {
        seed: base.seed ^ (0x1D1E << 20),
        ..base.clone()
    };

    #[derive(Clone, Copy)]
    enum Cell {
        Sleeping(IdleDrainPolicy),
        ActiveReference,
    }
    let cells_spec = [
        (
            Cell::Sleeping(IdleDrainPolicy::DrainOnSleep),
            "DrainOnSleep (realistic)",
        ),
        (Cell::Sleeping(IdleDrainPolicy::Keep), "Keep (optimistic)"),
        (Cell::ActiveReference, "active attacker (reference)"),
    ];
    let cells: Vec<_> = cells_spec
        .iter()
        .map(|&(kind, label)| {
            scenario(label, move |seed| match kind {
                Cell::Sleeping(policy) => {
                    let mut rng = StdRng::seed_from_u64(seed ^ 0x0005_1EEB);
                    let mut m = SimMachine::new(MachineConfig::small(seed).with_idle_drain(policy));
                    let attacker = m.spawn(CpuId(0));
                    let buf = m.mmap(attacker, 2).unwrap();
                    m.fill(attacker, buf, 2 * PAGE_SIZE, 1).unwrap();
                    let released = m.translate(attacker, buf).unwrap();
                    m.munmap(attacker, buf, 1).unwrap();
                    m.sleep(attacker, 5_000_000).unwrap();
                    let mut other = NoiseProcess::spawn(&mut m, CpuId(0));
                    for _ in 0..2 {
                        other.burst(&mut m, &mut rng, 24).unwrap();
                    }
                    let victim = m.spawn(CpuId(0));
                    let vb = m.mmap(victim, 1).unwrap();
                    m.write(victim, vb, b"t").unwrap();
                    m.translate(victim, vb).unwrap().align_down(PAGE_SIZE)
                        == released.align_down(PAGE_SIZE)
                }
                Cell::ActiveReference => {
                    let mut m = SimMachine::new(MachineConfig::small(seed));
                    steer_once(&mut m)
                }
            })
        })
        .collect();
    let result = campaign.run(&cells);

    let mut table = Table::new(
        "sleeping attacker: steering success by idle-drain policy (with CPU yield noise)",
        &["policy", "steering success"],
    );
    let mut summary = Summary::new("a1_idle_drain", &campaign);
    for cell in &result.cells {
        let ok: Counter = cell.trials.iter().copied().collect();
        let rate = format!("{:.3}", ok.rate());
        table.row(&[&cell.name, &rate]);
        summary.cell(&cell.name, &[("rate", Json::Float(ok.rate()))]);
    }
    persist("a1_idle_drain", &table, &mut summary);
    summary.write(&result);
}
