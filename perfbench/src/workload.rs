//! The benchmark's workloads: one attack configuration each, booted once
//! into a warm snapshot that every trial forks.

use dram::TrrParams;
use explframe_core::{
    AttackError, AttackReport, ExplFrame, ExplFrameConfig, HammerStrategy, Pipeline, TemplateMemo,
    VictimCipherKind,
};
use machine::{MachineSnapshot, SimMachine};

/// A named attack workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// AES S-box victim, 512 template pages, shadow translation, a shared
    /// template memo primed during set-up: a trial is fork, memo restore
    /// and (mostly) collect.
    ReplaySbox,
    /// AES T-table victim, 1024 template pages, shadow translation, no
    /// memo: a double-sided sweep, then multi-round T-table collect.
    DirectTtable,
    /// AES S-box victim, 1024 template pages, DDR4-like TRR, the DRAM
    /// command clock, DRAM-resident page tables and the adaptive driver:
    /// the double-sided sweep comes back empty and the driver escalates.
    HardenedWalk,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::ReplaySbox,
        Workload::DirectTtable,
        Workload::HardenedWalk,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ReplaySbox => "replay-sbox",
            Workload::DirectTtable => "direct-ttable",
            Workload::HardenedWalk => "hardened-walk",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Distinct trials in one pass. A run repeats the pass (four to
    /// fifteen times in thirty seconds), so every metric that depends only
    /// on the seed (key rate, digests, simulated time) is independent of
    /// how fast the host is, and each trial's latency is the median of its
    /// repeats.
    pub fn pass_trials(self) -> u64 {
        match self {
            Workload::ReplaySbox => 256,
            Workload::DirectTtable | Workload::HardenedWalk => 64,
        }
    }

    /// Whether the template sweep goes through a shared [`TemplateMemo`].
    pub fn memoized(self) -> bool {
        self == Workload::ReplaySbox
    }

    /// Whether the adaptive (escalating) driver runs the attack.
    pub fn adaptive(self) -> bool {
        self == Workload::HardenedWalk
    }

    /// Configuration of trial `t`: the machine is seeded with `base`, the
    /// attacker (and victim key) with `base + t`.
    pub fn config(self, base: u64, t: u64) -> ExplFrameConfig {
        let cfg = ExplFrameConfig::small_demo(base).with_seed(base.wrapping_add(t));
        match self {
            Workload::ReplaySbox => cfg.with_template_pages(512),
            Workload::DirectTtable => cfg
                .with_victim(VictimCipherKind::AesTtable)
                .with_template_pages(1024),
            Workload::HardenedWalk => {
                let mut cfg = cfg
                    .with_template_pages(1024)
                    .with_many_sided_rows(8)
                    .with_dram_page_tables(true);
                cfg.machine.dram = cfg
                    .machine
                    .dram
                    .with_trr(Some(TrrParams::ddr4_like()))
                    .with_timing_engine(true);
                cfg
            }
        }
    }
}

/// The many-sided strategy the adaptive driver escalates to, with the
/// width clamp `ExplFrame`'s driver applies when the command clock is on.
pub fn escalation(cfg: &ExplFrameConfig) -> HammerStrategy {
    let dram = &cfg.machine.dram;
    let mut rows = cfg.many_sided_rows;
    if dram.timed {
        rows = rows.min(dram.cells.max_feasible_rows(&dram.timing));
    }
    HammerStrategy::ManySided { rows }
}

/// A booted workload: the warm snapshot every trial forks and, for the
/// replay workload, the primed template memo.
#[derive(Debug)]
pub struct Bench {
    /// The workload.
    pub workload: Workload,
    /// The base seed.
    pub base: u64,
    /// The warm machine every trial forks.
    pub snapshot: MachineSnapshot,
    /// The shared template memo (empty unless the workload is memoized).
    pub memo: TemplateMemo,
}

impl Bench {
    /// Boots the workload's machine, snapshots it, and primes the memo.
    ///
    /// # Errors
    ///
    /// Returns the substrate error if priming the memo fails.
    pub fn setup(workload: Workload, base: u64) -> Result<Self, AttackError> {
        let cfg = workload.config(base, 0);
        let snapshot = SimMachine::new(cfg.machine.clone()).snapshot();
        let mut memo = TemplateMemo::new();
        if workload.memoized() {
            let mut machine = snapshot.fork();
            Pipeline::new(&mut machine, cfg).template_memo_at(&snapshot, &mut memo)?;
        }
        Ok(Bench {
            workload,
            base,
            snapshot,
            memo,
        })
    }

    /// Runs trial `t` through the public driver on a fork of the snapshot.
    ///
    /// # Errors
    ///
    /// Returns the substrate error the attack hit.
    pub fn trial(&mut self, t: u64) -> Result<AttackReport, AttackError> {
        let attack = ExplFrame::new(self.workload.config(self.base, t));
        if self.workload.memoized() {
            attack.run_snapshot_memo(&self.snapshot, &mut self.memo)
        } else if self.workload.adaptive() {
            attack.run_adaptive_snapshot(&self.snapshot)
        } else {
            attack.run_snapshot(&self.snapshot)
        }
    }

    /// Runs trial `t` the slow way — fresh boot, no memo — as an oracle
    /// for the fork and memo fast paths.
    ///
    /// # Errors
    ///
    /// Returns the substrate error the attack hit.
    pub fn cold_trial(&self, t: u64) -> Result<AttackReport, AttackError> {
        let attack = ExplFrame::new(self.workload.config(self.base, t));
        if self.workload.adaptive() {
            attack.run_adaptive()
        } else {
            attack.run()
        }
    }
}
