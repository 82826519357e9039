//! Attack configuration.

use std::sync::OnceLock;

use ciphers::{TableImage, PRESENT_SBOX};
use machine::MachineConfig;
use memsim::CpuId;

/// Which cipher implementation the victim runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum VictimCipherKind {
    /// AES-128 with a 256-byte in-memory S-box (the PFA paper's shape).
    #[default]
    AesSbox,
    /// AES-128 with the 4 KiB `Te0..Te3` page (the ExplFrame title shape).
    AesTtable,
    /// PRESENT-80 with a 16-byte in-memory S-box.
    Present,
}

impl VictimCipherKind {
    /// Byte length of the table image the victim installs at page start.
    pub const fn image_len(self) -> usize {
        match self {
            VictimCipherKind::AesSbox => 256,
            VictimCipherKind::AesTtable => 4096,
            VictimCipherKind::Present => 16,
        }
    }

    /// The table image the victim installs at page start. The Te image is
    /// built on first use and shared for the rest of the process, like the
    /// S-box.
    pub(crate) fn image(self) -> &'static [u8] {
        static TE: OnceLock<Vec<u8>> = OnceLock::new();
        match self {
            VictimCipherKind::AesSbox => ciphers::aes::sbox::sbox(),
            VictimCipherKind::AesTtable => TE.get_or_init(TableImage::te_tables),
            VictimCipherKind::Present => &PRESENT_SBOX,
        }
    }

    /// Kebab-case label (for traces, tables, and cell names).
    pub const fn label(self) -> &'static str {
        match self {
            VictimCipherKind::AesSbox => "aes-sbox",
            VictimCipherKind::AesTtable => "aes-ttable",
            VictimCipherKind::Present => "present",
        }
    }
}

/// How the attacker activates aggressor rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum HammerStrategy {
    /// Classic double-sided hammering: alternate the two rows sandwiching
    /// the victim. Strongest per activation, but a sampling
    /// Target-Row-Refresh tracker catches both aggressors easily.
    #[default]
    DoubleSided,
    /// Many-sided (TRRespass-style) hammering: round-robin over the two
    /// sandwiching rows plus same-bank decoy rows fanned outwards. Each
    /// round still delivers full double-sided disturbance to the victim,
    /// while the decoys thrash any sampler smaller than `rows` entries.
    ManySided {
        /// Total distinct aggressor rows per round (≥ 2; the decoys are
        /// `rows - 2`).
        rows: u32,
    },
}

impl HammerStrategy {
    /// Kebab-case label (for traces and tables).
    pub const fn label(self) -> &'static str {
        match self {
            HammerStrategy::DoubleSided => "double-sided",
            HammerStrategy::ManySided { .. } => "many-sided",
        }
    }

    /// Distinct aggressor rows activated per round.
    pub const fn rows(self) -> u32 {
        match self {
            HammerStrategy::DoubleSided => 2,
            HammerStrategy::ManySided { rows } => rows,
        }
    }
}

/// Full configuration of an [`crate::ExplFrame`] run.
///
/// # Examples
///
/// ```
/// use explframe_core::ExplFrameConfig;
/// let cfg = ExplFrameConfig::small_demo(7).with_template_pages(2048);
/// assert_eq!(cfg.template_pages, 2048);
/// ```
///
/// A countermeasure-aware attacker against a hardened machine (see
/// [`ExplFrame::run_adaptive`](crate::ExplFrame::run_adaptive)):
///
/// ```
/// use dram::{EccMode, TrrParams};
/// use explframe_core::ExplFrameConfig;
///
/// let mut cfg = ExplFrameConfig::small_demo(1)
///     .with_many_sided_rows(8)
///     .with_ecc_aware(true);
/// cfg.machine.dram = cfg
///     .machine
///     .dram
///     .with_trr(Some(TrrParams::ddr4_like()))
///     .with_ecc(EccMode::Secded);
/// assert!(cfg.ecc_aware);
/// ```
#[derive(Debug, Clone)]
pub struct ExplFrameConfig {
    /// The machine to attack (DRAM seed determines the weak-cell map).
    pub machine: MachineConfig,
    /// RNG seed for attacker choices (plaintexts, template order).
    pub seed: u64,
    /// CPU the attacker pins itself to.
    pub attacker_cpu: CpuId,
    /// CPU the victim runs on (the attack requires equality; experiments
    /// vary it to reproduce the paper's same-CPU condition).
    pub victim_cpu: CpuId,
    /// Attacker buffer size in pages for the templating sweep.
    pub template_pages: u64,
    /// Aggressor pairs per double-sided hammer during templating.
    pub hammer_pairs: u64,
    /// Aggressor pairs when re-hammering the steered victim page.
    pub rehammer_pairs: u64,
    /// Re-hammer rounds used to score template reproducibility.
    pub reproducibility_rounds: u32,
    /// Victim cipher shape.
    pub victim: VictimCipherKind,
    /// Ciphertext budget per fault before giving up.
    pub max_ciphertexts: u64,
    /// Maximum steering (fault) rounds — T-table recovery needs several.
    pub max_fault_rounds: u32,
    /// Hammering strategy the pipeline starts with.
    pub strategy: HammerStrategy,
    /// Aggressor rows per round after the adaptive driver escalates to
    /// many-sided hammering (must exceed the TRR sampler size to bypass
    /// it).
    pub many_sided_rows: u32,
    /// ECC-aware fault collection: probe the machine's corrected-error
    /// telemetry (the EDAC counters every Linux box exposes) before
    /// spending the ciphertext budget, and discard rounds whose fault the
    /// DIMM silently corrected.
    pub ecc_aware: bool,
    /// Run the latency-based mapping probe (DRAMA-style row-conflict
    /// timing) before templating, recovering the controller's bank mapping
    /// from access latencies instead of assuming it.
    pub probe_mapping: bool,
}

impl ExplFrameConfig {
    /// A fast demonstration setup: 256 MiB flippy machine, 16 MiB template
    /// buffer, S-box AES victim.
    pub fn small_demo(seed: u64) -> Self {
        ExplFrameConfig {
            machine: MachineConfig::small(seed),
            seed,
            attacker_cpu: CpuId(0),
            victim_cpu: CpuId(0),
            template_pages: 4096, // 16 MiB
            hammer_pairs: 400_000,
            rehammer_pairs: 400_000,
            reproducibility_rounds: 3,
            victim: VictimCipherKind::AesSbox,
            max_ciphertexts: 60_000,
            max_fault_rounds: 8,
            strategy: HammerStrategy::DoubleSided,
            many_sided_rows: 8,
            ecc_aware: false,
            probe_mapping: false,
        }
    }

    /// Returns a copy with a different machine configuration.
    #[must_use]
    pub fn with_machine(mut self, machine: MachineConfig) -> Self {
        self.machine = machine;
        self
    }

    /// Returns a copy with a different attacker RNG seed (the machine's
    /// weak-cell seed is part of [`Self::machine`] and is *not* changed).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns a copy with the attacker pinned to `cpu`.
    #[must_use]
    pub fn with_attacker_cpu(mut self, cpu: CpuId) -> Self {
        self.attacker_cpu = cpu;
        self
    }

    /// Returns a copy with a different victim cipher.
    #[must_use]
    pub fn with_victim(mut self, victim: VictimCipherKind) -> Self {
        self.victim = victim;
        self
    }

    /// Returns a copy with a different template buffer size (pages).
    #[must_use]
    pub fn with_template_pages(mut self, pages: u64) -> Self {
        self.template_pages = pages;
        self
    }

    /// Returns a copy with the victim pinned to `cpu`.
    #[must_use]
    pub fn with_victim_cpu(mut self, cpu: CpuId) -> Self {
        self.victim_cpu = cpu;
        self
    }

    /// Returns a copy with a different hammer intensity (sets both the
    /// templating and re-hammer pair counts; use
    /// [`Self::with_rehammer_pairs`] to change only the latter).
    #[must_use]
    pub fn with_hammer_pairs(mut self, pairs: u64) -> Self {
        self.hammer_pairs = pairs;
        self.rehammer_pairs = pairs;
        self
    }

    /// Returns a copy with a different re-hammer intensity (the pairs spent
    /// per fault round on the steered frame's aggressors).
    #[must_use]
    pub fn with_rehammer_pairs(mut self, pairs: u64) -> Self {
        self.rehammer_pairs = pairs;
        self
    }

    /// Returns a copy with a different reproducibility-scoring round count.
    #[must_use]
    pub fn with_reproducibility_rounds(mut self, rounds: u32) -> Self {
        self.reproducibility_rounds = rounds;
        self
    }

    /// Returns a copy with a different per-fault ciphertext budget.
    #[must_use]
    pub fn with_max_ciphertexts(mut self, max: u64) -> Self {
        self.max_ciphertexts = max;
        self
    }

    /// Returns a copy with a different fault-round budget.
    #[must_use]
    pub fn with_max_fault_rounds(mut self, rounds: u32) -> Self {
        self.max_fault_rounds = rounds;
        self
    }

    /// Returns a copy with a different starting hammer strategy.
    #[must_use]
    pub fn with_strategy(mut self, strategy: HammerStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Returns a copy with a different many-sided escalation width.
    #[must_use]
    pub fn with_many_sided_rows(mut self, rows: u32) -> Self {
        self.many_sided_rows = rows;
        self
    }

    /// Returns a copy with ECC-aware fault collection enabled or disabled.
    #[must_use]
    pub fn with_ecc_aware(mut self, aware: bool) -> Self {
        self.ecc_aware = aware;
        self
    }

    /// Returns a copy with the latency-based mapping probe enabled or
    /// disabled.
    #[must_use]
    pub fn with_probe_mapping(mut self, probe: bool) -> Self {
        self.probe_mapping = probe;
        self
    }

    /// Returns a copy with DRAM-resident page tables switched on or off
    /// (forwards to [`MachineConfig::with_dram_page_tables`]). On, every
    /// translation in the attack walks live PTE bytes in hammerable DRAM:
    /// table-walk traffic perturbs caches and TRR sampling, victim spawn
    /// and first touch consume extra page-frame-cache entries for table
    /// frames (which steering must account for), and `Unmapped` segfault
    /// analogs become reachable mid-phase. Off (the default), translation
    /// comes free from the shadow pagemap and reports are byte-identical
    /// to the pre-walk-mode pipeline.
    #[must_use]
    pub fn with_dram_page_tables(mut self, on: bool) -> Self {
        self.machine = self.machine.with_dram_page_tables(on);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_compose() {
        let cfg = ExplFrameConfig::small_demo(1)
            .with_victim(VictimCipherKind::Present)
            .with_victim_cpu(CpuId(2))
            .with_hammer_pairs(123);
        assert_eq!(cfg.victim, VictimCipherKind::Present);
        assert_eq!(cfg.victim_cpu, CpuId(2));
        assert_eq!(cfg.hammer_pairs, 123);
        assert_eq!(cfg.rehammer_pairs, 123);
    }

    #[test]
    fn every_field_is_settable_fluently() {
        let machine = MachineConfig::small(77);
        let cfg = ExplFrameConfig::small_demo(1)
            .with_machine(machine.clone())
            .with_seed(99)
            .with_attacker_cpu(CpuId(3))
            .with_victim_cpu(CpuId(1))
            .with_victim(VictimCipherKind::AesTtable)
            .with_template_pages(512)
            .with_hammer_pairs(1000)
            .with_rehammer_pairs(2000)
            .with_reproducibility_rounds(5)
            .with_max_ciphertexts(9999)
            .with_max_fault_rounds(3)
            .with_strategy(HammerStrategy::ManySided { rows: 6 })
            .with_many_sided_rows(12)
            .with_ecc_aware(true)
            .with_probe_mapping(true)
            .with_dram_page_tables(true);
        assert_eq!(cfg.machine.dram.seed, machine.dram.seed);
        assert!(cfg.machine.dram_page_tables);
        assert_eq!(cfg.seed, 99);
        assert_eq!(cfg.attacker_cpu, CpuId(3));
        assert_eq!(cfg.victim_cpu, CpuId(1));
        assert_eq!(cfg.victim, VictimCipherKind::AesTtable);
        assert_eq!(cfg.template_pages, 512);
        assert_eq!(cfg.hammer_pairs, 1000);
        assert_eq!(cfg.rehammer_pairs, 2000);
        assert_eq!(cfg.reproducibility_rounds, 5);
        assert_eq!(cfg.max_ciphertexts, 9999);
        assert_eq!(cfg.max_fault_rounds, 3);
        assert_eq!(cfg.strategy, HammerStrategy::ManySided { rows: 6 });
        assert_eq!(cfg.many_sided_rows, 12);
        assert!(cfg.ecc_aware);
        assert!(cfg.probe_mapping);
    }

    #[test]
    fn labels_are_kebab_case() {
        assert_eq!(VictimCipherKind::AesSbox.label(), "aes-sbox");
        assert_eq!(VictimCipherKind::AesTtable.label(), "aes-ttable");
        assert_eq!(VictimCipherKind::Present.label(), "present");
        assert_eq!(HammerStrategy::DoubleSided.label(), "double-sided");
        assert_eq!(HammerStrategy::ManySided { rows: 8 }.label(), "many-sided");
    }

    #[test]
    fn strategy_row_counts() {
        assert_eq!(HammerStrategy::DoubleSided.rows(), 2);
        assert_eq!(HammerStrategy::ManySided { rows: 10 }.rows(), 10);
        assert_eq!(HammerStrategy::default(), HammerStrategy::DoubleSided);
    }

    #[test]
    fn image_lengths() {
        assert_eq!(VictimCipherKind::AesSbox.image_len(), 256);
        assert_eq!(VictimCipherKind::AesTtable.image_len(), 4096);
        assert_eq!(VictimCipherKind::Present.image_len(), 16);
        for kind in [
            VictimCipherKind::AesSbox,
            VictimCipherKind::AesTtable,
            VictimCipherKind::Present,
        ] {
            assert_eq!(kind.image().len(), kind.image_len());
        }
    }
}
