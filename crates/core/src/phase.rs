//! First-class attack phases and their typed artifacts.
//!
//! The paper's attack is five phases — template → release → steer → hammer
//! → analyze (§V–§VI) — and this module makes each one a value: a type
//! implementing [`Phase`], consuming one typed artifact and producing the
//! next ([`TemplatePool`] → [`ReleasedFrame`] → [`SteeredVictim`] →
//! [`FaultedCiphertexts`] → [`RecoveredKey`]). Phases run against a
//! [`PhaseCtx`] carrying the machine, the attacker RNG, the run's
//! [`Counters`], and the [`Observer`](crate::Observer) receiving
//! [`PhaseEvent`](crate::PhaseEvent)s.
//!
//! Compositions are built with [`Pipeline`](crate::Pipeline), which strings
//! phases together while preserving their shared state;
//! [`ExplFrame::run`](crate::ExplFrame::run) is itself one such
//! composition.

use std::collections::BTreeSet;

use ciphers::{
    present_sbox_image, BlockCipher, Present80, RamTableSource, TableImage, PRESENT_SBOX,
};
use dram::{MappingKind, Nanos};
use fault::{PfaCollector, PresentPfa, TTablePfa, TableFault, TeFaultClass};
use machine::{MachineError, Pid, SimMachine, VirtAddr};
use memsim::PAGE_SIZE;
use rand::rngs::StdRng;
use rand::Rng;

use crate::config::{ExplFrameConfig, HammerStrategy, VictimCipherKind};
use crate::error::AttackError;
use crate::events::{Observer, PhaseEvent};
use crate::template::{
    same_bank_stride_pages, strategy_hammer, template_scan_with, FlipTemplate, TemplateScan,
};
use crate::victim::{VictimCipherService, VictimKeys};

/// Ciphertext budget of the ECC-aware pre-collection probe: enough
/// encryptions that a live table fault almost surely touches the faulted
/// word (surfacing in the corrected/detected telemetry), yet three orders
/// of magnitude below what the missing-value statistics would burn to
/// prove the same round hopeless.
const ECC_PROBE_CIPHERTEXTS: u64 = 8;

/// Page-table frames a walk-mode victim consumes from the frame-cache head
/// *before* its table page's first touch: the spawn's root table and the
/// first VMA's leaf table.
const WALK_TABLE_POPS: u64 = 2;

/// Whether a machine error is a walk-mode casualty: the segfault analog
/// ([`MachineError::Unmapped`]) or a DRAM decode error, both reachable only
/// when page tables live in DRAM and a collateral flip corrupted a live
/// translation. Shadow-mode runs can never hit these mid-phase, so the
/// graceful-degradation paths below are dead code there and the pinned
/// shadow goldens are unaffected.
fn walk_casualty(e: &MachineError) -> bool {
    matches!(e, MachineError::Unmapped { .. } | MachineError::Dram(_))
}

/// Everything a phase may touch while running.
///
/// The context is the *only* channel between a phase and the world: the
/// simulated machine, the attacker's seeded RNG, the run's accumulating
/// [`Counters`], and the event [`Observer`]. Keeping it explicit is what
/// lets phases compose in any order without hidden coupling.
pub struct PhaseCtx<'a> {
    /// The attack configuration.
    pub config: &'a ExplFrameConfig,
    /// The machine under attack.
    pub machine: &'a mut SimMachine,
    /// The attacker's seeded RNG (plaintext queries, known pairs).
    pub rng: &'a mut StdRng,
    /// Receives [`PhaseEvent`]s.
    pub observer: &'a mut dyn Observer,
    /// The run's accumulating tallies.
    pub counters: &'a mut Counters,
    /// Ground-truth victim keys (oracle — used to *start* victims and to
    /// verify recovered keys, never read by analysis).
    pub keys: VictimKeys,
}

impl PhaseCtx<'_> {
    /// Emits one event to the observer.
    pub fn emit(&mut self, event: PhaseEvent) {
        self.observer.on_event(&event);
    }
}

/// One attack phase: consumes a typed artifact, produces the next.
///
/// Stateless phases ([`TemplatePhase`], [`ReleasePhase`], [`SteerPhase`],
/// [`HammerPhase`], [`CollectPhase`]) are unit-like and constructed per
/// call; [`AnalyzePhase`] carries cross-round recovery state (the T-table
/// PFA accumulator) and lives for the whole pipeline.
pub trait Phase {
    /// Artifact the phase consumes.
    type In;
    /// Artifact the phase produces.
    type Out;

    /// The phase's name (for diagnostics).
    fn name(&self) -> &'static str;

    /// Runs the phase.
    ///
    /// # Errors
    ///
    /// Returns [`AttackError`] for machine-level failures; attack-level
    /// failures are encoded in the output artifact.
    fn run(&mut self, ctx: &mut PhaseCtx<'_>, input: Self::In) -> Result<Self::Out, AttackError>;
}

/// Tallies accumulated across a pipeline run — the counted portion of the
/// final [`AttackReport`](crate::AttackReport).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counters {
    /// Raw templates found by the sweep.
    pub templates_found: usize,
    /// Templates usable against the most recently selected victim layout.
    pub usable_templates: usize,
    /// Fault rounds in which the victim verifiably received the released
    /// frame (oracle-checked).
    pub steering_successes: u32,
    /// Fault rounds attempted (each victim arrival is one round).
    pub fault_rounds: u32,
    /// Total ciphertexts collected across rounds.
    pub ciphertexts_collected: u64,
    /// Recovered AES-128 key, if any analysis completed.
    pub recovered_aes_key: Option<[u8; 16]>,
    /// Recovered PRESENT-80 key, if any analysis completed.
    pub recovered_present_key: Option<[u8; 10]>,
    /// Times the run escalated its hammer strategy (adaptive driver).
    pub strategy_escalations: u32,
}

// ---------------------------------------------------------------------------
// Artifacts
// ---------------------------------------------------------------------------

/// Output of the mapping probe: the bank-mapping function recovered from
/// row-conflict latencies, or `None` when the measurements were ambiguous.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveredMapping {
    /// The recovered mapping kind (`None` if no single candidate survived
    /// every measurement).
    pub kind: Option<MappingKind>,
    /// Page stride between same-bank neighbouring rows under the recovered
    /// mapping — the stride the many-sided decoy placement needs (0 when
    /// unrecovered).
    pub stride_pages: u64,
    /// Address pairs probed.
    pub probes: u32,
    /// Simulated time the probe consumed.
    pub elapsed: Nanos,
}

/// Output of the templating phase: the attacker process, its still-mapped
/// buffer, and the raw scan results.
#[derive(Debug, Clone, PartialEq)]
pub struct TemplatePool {
    /// The attacker process that owns the template buffer.
    pub attacker: Pid,
    /// Base of the template buffer in the attacker's address space.
    pub buffer: VirtAddr,
    /// The raw templating sweep results.
    pub scan: TemplateScan,
}

impl TemplatePool {
    /// Templates usable against `kind`'s table layout, best-reproducing
    /// first: one per vulnerable page, restricted to pages where exactly one
    /// templated flip fires against the victim image (see
    /// [`select_attack_pages`]).
    #[must_use]
    pub fn usable(&self, kind: VictimCipherKind) -> Vec<FlipTemplate> {
        let mut usable = select_attack_pages(&self.scan.templates, kind);
        usable.sort_by(|a, b| {
            b.reproducibility
                .partial_cmp(&a.reproducibility)
                .expect("reproducibility is never NaN")
        });
        usable
    }
}

/// A vulnerable frame released into the CPU's page frame cache, awaiting a
/// victim.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReleasedFrame {
    /// The template whose page was released (aggressors stay mapped).
    pub template: FlipTemplate,
    /// The released frame number (oracle-observed, reporting only).
    pub pfn: Option<u64>,
}

/// A running victim whose table page the pipeline (maybe) steered onto the
/// released frame, plus one pre-fault known plaintext/ciphertext pair.
#[derive(Debug, Clone, PartialEq)]
pub struct SteeredVictim {
    /// The victim service (copyable handle; stop it via
    /// [`Pipeline::stop_victim`](crate::Pipeline::stop_victim)).
    pub victim: VictimCipherService,
    /// The template targeting this victim's frame.
    pub template: FlipTemplate,
    /// Whether the victim's table page landed on the released frame
    /// (oracle-checked, reporting only).
    pub steered: bool,
    /// Known plaintext collected before the fault (PRESENT master-key
    /// recovery needs one clean pair).
    pub known_plain: Vec<u8>,
    /// The corresponding pre-fault ciphertext.
    pub known_cipher: Vec<u8>,
}

/// How a collection round ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CollectOutcome {
    /// Every needed position converged to a single missing value.
    Converged,
    /// A needed position saw every value: no last-round fault landed.
    NoFault,
    /// The ciphertext budget ran out before convergence.
    Exhausted,
    /// Collection was skipped (template not analytically usable — e.g. a
    /// T-table flip outside the S-lane).
    Skipped,
    /// The ECC-aware probe saw the DIMM silently correcting the fault:
    /// every ciphertext this round would be clean, so the round was
    /// discarded after a handful of probe queries instead of feeding
    /// corrected ciphertexts to the solvers.
    Corrected,
    /// The victim segfaulted mid-collection (walk mode only): a collateral
    /// flip landed in one of its DRAM-resident page-table frames instead of
    /// the cipher table, detaching the table page or sending the walk off
    /// the device. The round yields no statistics — the analog of a
    /// real-world victim process crashing under the attack.
    VictimCrashed,
}

impl CollectOutcome {
    /// Kebab-case label (for traces).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            CollectOutcome::Converged => "converged",
            CollectOutcome::NoFault => "no-fault",
            CollectOutcome::Exhausted => "exhausted",
            CollectOutcome::Skipped => "skipped",
            CollectOutcome::Corrected => "ecc-corrected",
            CollectOutcome::VictimCrashed => "victim-crashed",
        }
    }
}

/// Faulty-ciphertext statistics collected from one steered victim.
#[derive(Debug)]
pub struct FaultedCiphertexts {
    /// The victim the ciphertexts came from.
    pub victim: SteeredVictim,
    /// How collection ended (analysis only runs on
    /// [`CollectOutcome::Converged`]).
    pub outcome: CollectOutcome,
    /// Ciphertexts collected this round.
    pub collected: u64,
    pub(crate) data: CollectorState,
}

/// The cipher-specific collector carrying the round's statistics. The
/// collectors hold kilobytes of per-position counters, so they are boxed
/// to keep the artifact small when moved between phases.
#[derive(Debug)]
pub(crate) enum CollectorState {
    Aes(Box<PfaCollector>),
    Present(Box<PresentPfa>),
    Skipped,
}

/// A key recovered by analysis (at most one field is set, matching the
/// victim's cipher).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveredKey {
    /// Recovered AES-128 key.
    pub aes: Option<[u8; 16]>,
    /// Recovered PRESENT-80 key.
    pub present: Option<[u8; 10]>,
}

impl RecoveredKey {
    /// Wraps an AES-128 key.
    #[must_use]
    pub fn from_aes(key: [u8; 16]) -> Self {
        RecoveredKey {
            aes: Some(key),
            present: None,
        }
    }

    /// Wraps a PRESENT-80 key.
    #[must_use]
    pub fn from_present(key: [u8; 10]) -> Self {
        RecoveredKey {
            aes: None,
            present: Some(key),
        }
    }
}

// ---------------------------------------------------------------------------
// Phases
// ---------------------------------------------------------------------------

/// Phase 0 (optional) — mapping probe: recover the controller's bank
/// mapping from access latencies, DRAMA-style.
///
/// A transient prober process times pairs of its own addresses: for each
/// pair it alternates the two reads (flushing its cache lines so every
/// read reaches DRAM) and keeps the *second* iteration's latency — by then
/// the row buffers are warm, so a same-bank/different-row pair pays a full
/// row conflict on every access while any other pair is served from an
/// open row. Each candidate mapping ([`MappingKind::Linear`],
/// [`MappingKind::Xor`]) predicts which pairs conflict; candidates that
/// disagree with any measurement are eliminated. The probe set includes a
/// guaranteed non-conflict pair (same row) and a guaranteed conflict pair
/// (a row delta that keeps the bank under *every* candidate), so the
/// latency threshold self-calibrates from the measured band.
///
/// Translating the probe addresses to physical frames is the one
/// privileged step — the same lab-machine reverse engineering the DRAMA
/// paper performed once per controller; the *recovered function* is what
/// the unprivileged attack consumes afterwards.
#[derive(Debug, Clone, Copy, Default)]
pub struct MappingProbePhase;

impl Phase for MappingProbePhase {
    type In = ();
    type Out = RecoveredMapping;

    fn name(&self) -> &'static str {
        "mapping-probe"
    }

    fn run(&mut self, ctx: &mut PhaseCtx<'_>, (): ()) -> Result<RecoveredMapping, AttackError> {
        let start = ctx.machine.now();
        let g = ctx.machine.config().dram.geometry;
        // One row step in the linear layout (col | bank | rank | channel |
        // row): the distance at which only the row field changes.
        let row_stride = u64::from(g.row_bytes) * g.total_banks();
        let banks = u64::from(g.banks);
        let deltas = [
            64,                     // same row: never a conflict
            u64::from(g.row_bytes), // next bank field, same row
            row_stride,             // row + 1: the Linear/Xor distinguisher
            2 * row_stride,         // row + 2
            3 * row_stride,         // row + 3
            banks * row_stride,     // row + banks: conflict under both
        ];
        let span = deltas.iter().max().expect("non-empty probe set") + PAGE_SIZE;
        let pages = span / PAGE_SIZE + 1;
        AttackError::check_cpu(ctx.machine, ctx.config.attacker_cpu)?;
        let prober = ctx.machine.spawn(ctx.config.attacker_cpu);
        let base = ctx.machine.mmap(prober, pages)?;
        ctx.machine.fill(prober, base, pages * PAGE_SIZE, 0)?;

        // The buffer is resident right after the fill, but on a walk
        // machine a collateral flip may already have detached a page —
        // propagate the segfault analog instead of panicking the worker.
        let pa_base = ctx
            .machine
            .translate(prober, base)
            .ok_or(MachineError::Unmapped {
                pid: prober,
                addr: base,
            })?;
        let mut measured = Vec::with_capacity(deltas.len());
        for &delta in &deltas {
            let vb = base + delta;
            let pb = ctx
                .machine
                .translate(prober, vb)
                .ok_or(MachineError::Unmapped {
                    pid: prober,
                    addr: vb,
                })?;
            let latency = probe_pair(ctx.machine, prober, base, vb)?;
            measured.push((pa_base, pb, latency));
        }
        ctx.machine.exit(prober)?;

        // Self-calibrating threshold: conflicts sit in the top half of the
        // measured latency band. A flat band means no conflicts at all.
        let lo = measured.iter().map(|m| m.2).min().expect("probes ran");
        let hi = measured.iter().map(|m| m.2).max().expect("probes ran");
        let conflicts = |latency: Nanos| hi > lo && 2 * latency >= lo + hi;

        let survivors: Vec<MappingKind> = [MappingKind::Linear, MappingKind::Xor]
            .into_iter()
            .filter(|kind| {
                let mapping = kind.build(g);
                measured.iter().all(|&(a, b, latency)| {
                    let ca = mapping.phys_to_coord(a);
                    let cb = mapping.phys_to_coord(b);
                    let predicted = ca.channel == cb.channel
                        && ca.rank == cb.rank
                        && ca.bank == cb.bank
                        && ca.row != cb.row;
                    predicted == conflicts(latency)
                })
            })
            .collect();
        let kind = match survivors[..] {
            [only] => Some(only),
            _ => None,
        };

        let row_pages = (u64::from(g.row_bytes) / PAGE_SIZE).max(1);
        let stride_pages = match kind {
            // Adjacent rows share the bank: one row step.
            Some(MappingKind::Linear) => row_pages * g.total_banks(),
            // The XOR folds the low row bits into the bank, so same-bank
            // rows are `banks` row steps apart.
            Some(MappingKind::Xor) => row_pages * g.total_banks() * banks,
            None => 0,
        };
        let probes = measured.len() as u32;
        let elapsed = ctx.machine.now() - start;
        ctx.emit(PhaseEvent::MappingProbed {
            kind: kind.map(MappingKind::label),
            stride_pages,
            probes,
            elapsed,
        });
        Ok(RecoveredMapping {
            kind,
            stride_pages,
            probes,
            elapsed,
        })
    }
}

/// Times one address pair: two flush-read-read rounds, returning the second
/// round's latency for the second address (the row buffers are warm by
/// then, so the value is purely the conflict/no-conflict signal).
fn probe_pair(
    machine: &mut SimMachine,
    pid: Pid,
    a: VirtAddr,
    b: VirtAddr,
) -> Result<Nanos, AttackError> {
    let mut byte = [0u8];
    let mut latency = 0;
    for _ in 0..2 {
        machine.clflush(pid, a)?;
        machine.clflush(pid, b)?;
        machine.read_timed(pid, a, &mut byte)?;
        latency = machine.read_timed(pid, b, &mut byte)?;
    }
    Ok(latency)
}

/// Phase 1 — template: spawn the attacker, map its buffer, and sweep it for
/// repeatable flips using the configured [`HammerStrategy`].
#[derive(Debug, Clone, Copy, Default)]
pub struct TemplatePhase {
    /// Sweep strategy (defaults to double-sided, the paper's sweep).
    pub strategy: HammerStrategy,
}

impl Phase for TemplatePhase {
    type In = ();
    type Out = TemplatePool;

    fn name(&self) -> &'static str {
        "template"
    }

    fn run(&mut self, ctx: &mut PhaseCtx<'_>, (): ()) -> Result<TemplatePool, AttackError> {
        let cfg = ctx.config;
        ctx.emit(PhaseEvent::TemplateStarted {
            pages: cfg.template_pages,
        });
        AttackError::check_cpu(ctx.machine, cfg.attacker_cpu)?;
        let attacker = ctx.machine.spawn(cfg.attacker_cpu);
        let buffer = ctx.machine.mmap(attacker, cfg.template_pages)?;
        let scan = template_scan_with(
            ctx.machine,
            attacker,
            buffer,
            cfg.template_pages,
            cfg.hammer_pairs,
            cfg.reproducibility_rounds,
            self.strategy,
        )?;
        ctx.counters.templates_found = scan.templates.len();
        ctx.emit(PhaseEvent::TemplateFinished {
            found: scan.templates.len(),
            rows_hammered: scan.rows_hammered,
            hammer_failures: scan.hammer_failures,
            elapsed: scan.elapsed,
        });
        Ok(TemplatePool {
            attacker,
            buffer,
            scan,
        })
    }
}

/// Phase 2 — release: `munmap` one vulnerable page so its frame lands at
/// the head of this CPU's page frame cache. The attacker stays active;
/// sleeping would let the idle kernel drain the cache (§V).
///
/// With DRAM-resident page tables the victim's arrival is not one
/// allocation but three: its spawn pops a root-table frame and its table
/// page's first touch pops a leaf-table frame *before* the table-data
/// frame. A bare release would land the templated frame under the victim's
/// root table — a self-defeating steer. The walk-aware release therefore
/// stages `WALK_TABLE_POPS` (two) fresh sacrificial pages first (their faults'
/// own allocations happen before any release, so they cannot consume the
/// template frame) and unmaps template-first, so the frame-cache LIFO reads
/// `[sac2, sac1, template]` and the victim's pops are root ← sac2,
/// leaf ← sac1, table data ← template.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReleasePhase;

impl Phase for ReleasePhase {
    type In = (Pid, FlipTemplate);
    type Out = ReleasedFrame;

    fn name(&self) -> &'static str {
        "release"
    }

    fn run(
        &mut self,
        ctx: &mut PhaseCtx<'_>,
        (attacker, template): (Pid, FlipTemplate),
    ) -> Result<ReleasedFrame, AttackError> {
        let pfn = ctx
            .machine
            .translate(attacker, template.page_va)
            .map(|pa| pa.as_u64() / PAGE_SIZE);
        let staged = if ctx.machine.config().dram_page_tables {
            stage_walk_sacrifices(ctx, attacker)?
        } else {
            None
        };
        ctx.machine.munmap(attacker, template.page_va, 1)?;
        if let Some(sac) = staged {
            // One page at a time, ascending, so the LIFO order is exact.
            for i in 0..WALK_TABLE_POPS {
                ctx.machine.munmap(attacker, sac + i * PAGE_SIZE, 1)?;
            }
        }
        ctx.emit(PhaseEvent::FrameReleased {
            page_index: template.page_index,
            pfn,
        });
        Ok(ReleasedFrame { template, pfn })
    }
}

/// Maps and touches the walk-mode sacrificial region (see [`ReleasePhase`]).
/// Returns its base, or `None` when the attacker's own walk is corrupted —
/// self-hazard is real on walk machines, and a failed staging should cost
/// one degraded round, not the campaign.
fn stage_walk_sacrifices(
    ctx: &mut PhaseCtx<'_>,
    attacker: Pid,
) -> Result<Option<VirtAddr>, AttackError> {
    let sac = ctx.machine.mmap(attacker, WALK_TABLE_POPS)?;
    match ctx
        .machine
        .fill(attacker, sac, WALK_TABLE_POPS * PAGE_SIZE, 0)
    {
        Ok(()) => Ok(Some(sac)),
        Err(e) if walk_casualty(&e) => Ok(None),
        Err(e) => Err(e.into()),
    }
}

/// Phase 3 — steer: start a victim service whose table page's first touch
/// pops the released frame off the page frame cache head, and collect one
/// pre-fault known pair.
#[derive(Debug, Clone, Copy, Default)]
pub struct SteerPhase;

impl Phase for SteerPhase {
    type In = (ReleasedFrame, VictimCipherKind);
    type Out = SteeredVictim;

    fn name(&self) -> &'static str {
        "steer"
    }

    fn run(
        &mut self,
        ctx: &mut PhaseCtx<'_>,
        (released, kind): (ReleasedFrame, VictimCipherKind),
    ) -> Result<SteeredVictim, AttackError> {
        AttackError::check_cpu(ctx.machine, ctx.config.victim_cpu)?;
        ctx.counters.fault_rounds += 1;
        let victim =
            VictimCipherService::start(ctx.machine, ctx.config.victim_cpu, kind, ctx.keys)?;
        let victim_pfn = victim.table_pfn(ctx.machine).map(|p| p.0);
        let steered = released.pfn.is_some() && victim_pfn == released.pfn;
        if steered {
            ctx.counters.steering_successes += 1;
        }

        // One pre-fault known pair (used by PRESENT master-key recovery).
        let mut known_plain = vec![0u8; victim.block_bytes()];
        ctx.rng.fill(&mut known_plain[..]);
        let mut known_cipher = known_plain.clone();
        if let Err(e) = victim.encrypt(ctx.machine, &mut known_cipher) {
            // Walk mode: a collateral flip in the victim's freshly popped
            // table frames can crash it on its very first encryption. Keep
            // the garbage pair — collection will classify the round as
            // crashed, and analysis only ever reads pairs from converged
            // rounds.
            if !walk_casualty(&e) {
                return Err(e.into());
            }
        }

        ctx.emit(PhaseEvent::VictimSteered {
            round: ctx.counters.fault_rounds,
            kind,
            steered,
            victim_pfn,
        });
        Ok(SteeredVictim {
            victim,
            template: released.template,
            steered,
            known_plain,
            known_cipher,
        })
    }
}

/// Phase 4 — hammer: re-hammer the retained aggressor rows around the
/// steered frame with the configured [`HammerStrategy`]. Produces `false`
/// when the hammer primitive rejects the aggressors (fragmented buffer) or
/// a walk casualty detached one; any other machine error propagates.
#[derive(Debug, Clone, Copy, Default)]
pub struct HammerPhase {
    /// Activation pattern (defaults to double-sided).
    pub strategy: HammerStrategy,
}

impl Phase for HammerPhase {
    type In = (Pid, VirtAddr, FlipTemplate);
    type Out = bool;

    fn name(&self) -> &'static str {
        "hammer"
    }

    fn run(
        &mut self,
        ctx: &mut PhaseCtx<'_>,
        (attacker, buffer, template): (Pid, VirtAddr, FlipTemplate),
    ) -> Result<bool, AttackError> {
        let pairs = ctx.config.rehammer_pairs;
        let geometry = ctx.machine.config().dram.geometry;
        let (ok, rows) = strategy_hammer(
            ctx.machine,
            attacker,
            self.strategy,
            buffer,
            ctx.config.template_pages,
            template.aggressor_above,
            template.aggressor_below,
            same_bank_stride_pages(&geometry),
            pairs,
        )?;
        ctx.emit(PhaseEvent::HammerFinished {
            round: ctx.counters.fault_rounds,
            pairs,
            rows,
            ok,
        });
        Ok(ok)
    }
}

/// Phase 5a — collect: query victim encryptions until the fault statistics
/// converge, prove no fault landed, or the ciphertext budget runs out.
#[derive(Debug, Clone, Copy, Default)]
pub struct CollectPhase;

impl Phase for CollectPhase {
    type In = SteeredVictim;
    type Out = FaultedCiphertexts;

    fn name(&self) -> &'static str {
        "collect"
    }

    fn run(
        &mut self,
        ctx: &mut PhaseCtx<'_>,
        steered: SteeredVictim,
    ) -> Result<FaultedCiphertexts, AttackError> {
        let entry = steered.template.page_offset as usize;
        let before = ctx.counters.ciphertexts_collected;
        // The telemetry probe is pointless against a non-ECC DIMM (the
        // counters can never move); don't spend encryptions on it.
        if ctx.config.ecc_aware && ctx.machine.config().dram.ecc != dram::EccMode::Off {
            if let Some(outcome) = ecc_probe(ctx, &steered)? {
                let collected = ctx.counters.ciphertexts_collected - before;
                ctx.emit(PhaseEvent::CiphertextsCollected {
                    round: ctx.counters.fault_rounds,
                    collected,
                    outcome,
                });
                return Ok(FaultedCiphertexts {
                    victim: steered,
                    outcome,
                    collected,
                    data: CollectorState::Skipped,
                });
            }
        }
        let (outcome, data) = match steered.victim.kind() {
            VictimCipherKind::AesSbox => {
                let needed: Vec<usize> = (0..16).collect();
                let mut collector = PfaCollector::new();
                let outcome = collect_aes(ctx, &steered, &mut collector, &needed)?;
                (outcome, CollectorState::Aes(Box::new(collector)))
            }
            VictimCipherKind::AesTtable => {
                let fault = TableFault {
                    offset: entry,
                    bit: steered.template.bit,
                };
                match fault.classify_te() {
                    TeFaultClass::SLane { positions, .. } => {
                        let mut collector = PfaCollector::new();
                        let outcome = collect_aes(ctx, &steered, &mut collector, &positions)?;
                        (outcome, CollectorState::Aes(Box::new(collector)))
                    }
                    // Filtered by template selection; defensive.
                    _ => (CollectOutcome::Skipped, CollectorState::Skipped),
                }
            }
            VictimCipherKind::Present => {
                let mut collector = PresentPfa::new();
                let mut session = steered.victim.session(ctx.machine);
                let outcome = loop {
                    let mut block = [0u8; 8];
                    ctx.rng.fill(&mut block[..]);
                    match session.encrypt(&mut block) {
                        Ok(()) => {}
                        Err(e) if walk_casualty(&e) => break CollectOutcome::VictimCrashed,
                        Err(e) => return Err(e.into()),
                    }
                    collector.observe(&block);
                    ctx.counters.ciphertexts_collected += 1;
                    if collector.total() % 32 == 0 || collector.all_positions_determined() {
                        if collector.all_positions_determined() {
                            break CollectOutcome::Converged;
                        }
                        if (0..16).any(|i| collector.unseen_count(i) == 0) {
                            break CollectOutcome::NoFault;
                        }
                        if collector.total() >= ctx.config.max_ciphertexts {
                            break CollectOutcome::Exhausted;
                        }
                    }
                };
                (outcome, CollectorState::Present(Box::new(collector)))
            }
        };
        let collected = ctx.counters.ciphertexts_collected - before;
        ctx.emit(PhaseEvent::CiphertextsCollected {
            round: ctx.counters.fault_rounds,
            collected,
            outcome,
        });
        Ok(FaultedCiphertexts {
            victim: steered,
            outcome,
            collected,
            data,
        })
    }
}

/// The ECC-aware pre-collection probe: a few throwaway encryptions while
/// watching the machine's corrected/detected error telemetry (on real
/// hardware, the EDAC counters any unprivileged attacker can read). A
/// rising *corrected* count with no detection means the DIMM is silently
/// healing the fault on every read — the round can never produce faulty
/// ciphertexts and is discarded for the cost of the probe. A rising
/// *detected* count (or silence) hands over to normal collection.
fn ecc_probe(
    ctx: &mut PhaseCtx<'_>,
    steered: &SteeredVictim,
) -> Result<Option<CollectOutcome>, AttackError> {
    let mut session = steered.victim.session(ctx.machine);
    let baseline = session.machine().dram().ecc_stats();
    for _ in 0..ECC_PROBE_CIPHERTEXTS {
        let mut block = vec![0u8; steered.victim.block_bytes()];
        ctx.rng.fill(&mut block[..]);
        match session.encrypt(&mut block) {
            Ok(()) => {}
            Err(e) if walk_casualty(&e) => return Ok(Some(CollectOutcome::VictimCrashed)),
            Err(e) => return Err(e.into()),
        }
        ctx.counters.ciphertexts_collected += 1;
        let now = session.machine().dram().ecc_stats();
        if now.detected > baseline.detected {
            // Uncorrectable (multi-bit) fault live in the table: the
            // statistics are worth collecting.
            return Ok(None);
        }
        if now.corrected > baseline.corrected {
            return Ok(Some(CollectOutcome::Corrected));
        }
    }
    Ok(None)
}

/// Collects AES ciphertexts until `needed` positions are determined, a
/// needed position proves unfaulted, or the budget runs out.
fn collect_aes(
    ctx: &mut PhaseCtx<'_>,
    steered: &SteeredVictim,
    collector: &mut PfaCollector,
    needed: &[usize],
) -> Result<CollectOutcome, AttackError> {
    let mut session = steered.victim.session(ctx.machine);
    loop {
        let mut block = [0u8; 16];
        ctx.rng.fill(&mut block[..]);
        match session.encrypt(&mut block) {
            Ok(()) => {}
            Err(e) if walk_casualty(&e) => return Ok(CollectOutcome::VictimCrashed),
            Err(e) => return Err(e.into()),
        }
        collector.observe(&block);
        ctx.counters.ciphertexts_collected += 1;
        if collector.total() % 64 == 0 {
            if needed.iter().all(|&p| collector.unseen_count(p) == 1) {
                return Ok(CollectOutcome::Converged);
            }
            if needed.iter().any(|&p| collector.unseen_count(p) == 0) {
                return Ok(CollectOutcome::NoFault);
            }
            if collector.total() >= ctx.config.max_ciphertexts {
                return Ok(CollectOutcome::Exhausted);
            }
        }
    }
}

/// Phase 5b — analyze: feed one round's statistics to the cipher's
/// persistent-fault analysis. Stateful: T-table recovery accumulates S-lane
/// faults across rounds until all four tables are covered.
#[derive(Debug)]
pub struct AnalyzePhase {
    ttable: TTablePfa,
    tables_needed: BTreeSet<usize>,
}

impl Default for AnalyzePhase {
    fn default() -> Self {
        AnalyzePhase {
            ttable: TTablePfa::new(),
            tables_needed: (0..4).collect(),
        }
    }
}

impl AnalyzePhase {
    /// A fresh analyzer (no absorbed faults, all four T-tables needed).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// T-tables whose S-lane still lacks an absorbed fault (template
    /// selection prefers templates landing in a still-needed table).
    #[must_use]
    pub fn tables_needed(&self) -> &BTreeSet<usize> {
        &self.tables_needed
    }
}

impl Phase for AnalyzePhase {
    type In = FaultedCiphertexts;
    type Out = Option<RecoveredKey>;

    fn name(&self) -> &'static str {
        "analyze"
    }

    fn run(
        &mut self,
        ctx: &mut PhaseCtx<'_>,
        faulted: FaultedCiphertexts,
    ) -> Result<Option<RecoveredKey>, AttackError> {
        let entry = faulted.victim.template.page_offset as usize;
        let recovered = if faulted.outcome != CollectOutcome::Converged {
            None
        } else {
            match (&faulted.data, faulted.victim.victim.kind()) {
                (CollectorState::Aes(collector), VictimCipherKind::AesSbox) => collector
                    .analyze_known_fault(TableImage::sbox()[entry])
                    .master_key()
                    .map(RecoveredKey::from_aes),
                (CollectorState::Aes(collector), VictimCipherKind::AesTtable) => {
                    let fault = TableFault {
                        offset: entry,
                        bit: faulted.victim.template.bit,
                    };
                    if self.ttable.absorb(fault, collector).is_some() {
                        let (table, _, _) = TableImage::te_locate(entry);
                        self.tables_needed.remove(&table);
                    }
                    self.ttable.master_key().map(RecoveredKey::from_aes)
                }
                (CollectorState::Present(collector), _) => {
                    let v = PRESENT_SBOX[entry];
                    let plain: [u8; 8] = faulted.victim.known_plain[..]
                        .try_into()
                        .expect("PRESENT block");
                    let cipher: [u8; 8] = faulted.victim.known_cipher[..]
                        .try_into()
                        .expect("PRESENT block");
                    collector
                        .recover_master_key(v, |cand| {
                            let mut b = plain;
                            Present80::new(
                                cand,
                                RamTableSource::new(present_sbox_image().to_vec()),
                            )
                            .encrypt_block(&mut b);
                            b == cipher
                        })
                        .map(RecoveredKey::from_present)
                }
                _ => None,
            }
        };
        if let Some(key) = &recovered {
            if let Some(aes) = key.aes {
                ctx.counters.recovered_aes_key = Some(aes);
            }
            if let Some(present) = key.present {
                ctx.counters.recovered_present_key = Some(present);
            }
        }
        ctx.emit(PhaseEvent::RoundAnalyzed {
            round: ctx.counters.fault_rounds,
            key_recovered: recovered.is_some(),
        });
        Ok(recovered)
    }
}

// ---------------------------------------------------------------------------
// Template selection
// ---------------------------------------------------------------------------

/// Whether a template *fires* against the victim's image: its offset falls
/// inside the table image and the image's bit at that location holds the
/// charged value the flip discharges.
fn template_fires(t: &FlipTemplate, kind: VictimCipherKind) -> bool {
    kind.image()
        .get(usize::from(t.page_offset))
        .is_some_and(|&byte| (byte & (1 << t.bit) != 0) == t.required_bit_value())
}

/// Selects one attack template per vulnerable page: pages where *exactly
/// one* templated flip fires against the victim image (several simultaneous
/// table faults would break the single-missing-value statistics), and that
/// flip is analytically usable ([`template_usable`]).
pub fn select_attack_pages(
    templates: &[FlipTemplate],
    kind: VictimCipherKind,
) -> Vec<FlipTemplate> {
    let mut by_page: std::collections::BTreeMap<u64, Vec<&FlipTemplate>> =
        std::collections::BTreeMap::new();
    for t in templates {
        by_page.entry(t.page_index).or_default().push(t);
    }
    let mut out = Vec::new();
    for (_, page_templates) in by_page {
        let firing: Vec<&&FlipTemplate> = page_templates
            .iter()
            .filter(|t| template_fires(t, kind))
            .collect();
        if let [only] = firing[..] {
            if template_usable(only, kind) {
                out.push(**only);
            }
        }
    }
    out
}

/// Whether a template can corrupt the victim's table usefully: its offset
/// must fall inside the table image, the image's bit at that location must
/// hold the charged value the flip discharges, and for T-table/PRESENT
/// victims the location must be analytically exploitable.
pub fn template_usable(t: &FlipTemplate, kind: VictimCipherKind) -> bool {
    if t.reproducibility < 0.5 || !template_fires(t, kind) {
        return false;
    }
    match kind {
        VictimCipherKind::AesSbox => true,
        VictimCipherKind::AesTtable => TableFault {
            offset: usize::from(t.page_offset),
            bit: t.bit,
        }
        .classify_te()
        .is_exploitable(),
        // Table bytes store one 4-bit S-box value each; flips in the unused
        // high nibble are masked out by the S-layer.
        VictimCipherKind::Present => t.bit < 4,
    }
}

/// Picks the next template: for T-table victims, one whose fault lands in a
/// still-needed table; otherwise simply the most reproducible remaining.
pub(crate) fn pick_template(
    remaining: &mut Vec<FlipTemplate>,
    kind: VictimCipherKind,
    tables_needed: &BTreeSet<usize>,
) -> Option<FlipTemplate> {
    let idx = match kind {
        VictimCipherKind::AesTtable => remaining.iter().position(|t| {
            let (table, _, _) = TableImage::te_locate(t.page_offset as usize);
            tables_needed.contains(&table)
        })?,
        _ => {
            if remaining.is_empty() {
                return None;
            }
            0
        }
    };
    Some(remaining.remove(idx))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dram::CellPolarity;
    use machine::VirtAddr;

    fn template(offset: u16, bit: u8, one_to_zero: bool) -> FlipTemplate {
        let _ = CellPolarity::True;
        FlipTemplate {
            page_index: 0,
            page_va: VirtAddr(0),
            page_offset: offset,
            bit,
            one_to_zero,
            aggressor_above: VirtAddr(0),
            aggressor_below: VirtAddr(0),
            reproducibility: 1.0,
        }
    }

    #[test]
    fn usability_respects_image_bounds_and_bits() {
        // S-box entry 0 is 0x63 = 0b0110_0011.
        assert!(template_usable(
            &template(0, 0, true),
            VictimCipherKind::AesSbox
        ));
        assert!(!template_usable(
            &template(0, 2, true),
            VictimCipherKind::AesSbox
        ));
        assert!(template_usable(
            &template(0, 2, false),
            VictimCipherKind::AesSbox
        ));
        // Outside the 256-byte image.
        assert!(!template_usable(
            &template(256, 0, true),
            VictimCipherKind::AesSbox
        ));
        // Low reproducibility is rejected.
        let mut t = template(0, 0, true);
        t.reproducibility = 0.1;
        assert!(!template_usable(&t, VictimCipherKind::AesSbox));
    }

    #[test]
    fn te_image_matches_a_fresh_build_at_every_bit() {
        let fresh = TableImage::te_tables();
        assert_eq!(VictimCipherKind::AesTtable.image(), &fresh[..]);
        for (offset, &byte) in fresh.iter().enumerate() {
            for bit in 0..8u8 {
                let charged = byte & (1 << bit) != 0;
                for one_to_zero in [true, false] {
                    assert_eq!(
                        template_fires(
                            &template(offset as u16, bit, one_to_zero),
                            VictimCipherKind::AesTtable
                        ),
                        charged == one_to_zero,
                        "offset {offset}, bit {bit}, one_to_zero {one_to_zero}"
                    );
                }
            }
        }
    }

    #[test]
    fn ttable_usability_requires_s_lane() {
        let te = TableImage::te_tables();
        // Find an S-lane offset with a set bit and a non-S-lane one.
        let s_lane_off = TableImage::te_entry_offset(0, 0x53) + ciphers::FINAL_ROUND_S_LANE[0];
        let bit = (0..8).find(|&b| te[s_lane_off] & (1 << b) != 0).unwrap();
        assert!(template_usable(
            &template(s_lane_off as u16, bit, true),
            VictimCipherKind::AesTtable
        ));
        let other_off = TableImage::te_entry_offset(0, 0x53); // lane 0 = 3S lane
        let bit2 = (0..8).find(|&b| te[other_off] & (1 << b) != 0).unwrap();
        assert!(!template_usable(
            &template(other_off as u16, bit2, true),
            VictimCipherKind::AesTtable
        ));
    }

    #[test]
    fn present_usability_requires_low_nibble() {
        // PRESENT S[0] = 0xC = 0b1100: bits 2,3 set.
        assert!(template_usable(
            &template(0, 2, true),
            VictimCipherKind::Present
        ));
        assert!(!template_usable(
            &template(0, 4, true),
            VictimCipherKind::Present
        ));
        assert!(!template_usable(
            &template(0, 4, false),
            VictimCipherKind::Present
        ));
        assert!(template_usable(
            &template(0, 1, false),
            VictimCipherKind::Present
        ));
    }

    #[test]
    fn pick_template_covers_needed_tables() {
        let te = TableImage::te_tables();
        let mk = |table: usize| {
            let off = TableImage::te_entry_offset(table, 7) + ciphers::FINAL_ROUND_S_LANE[table];
            let bit = (0..8).find(|&b| te[off] & (1 << b) != 0).unwrap();
            template(off as u16, bit, true)
        };
        let mut remaining = vec![mk(1), mk(0), mk(1)];
        let mut needed: BTreeSet<usize> = [0].into_iter().collect();
        let picked = pick_template(&mut remaining, VictimCipherKind::AesTtable, &needed).unwrap();
        let (table, _, _) = TableImage::te_locate(picked.page_offset as usize);
        assert_eq!(table, 0);
        needed.clear();
        assert!(pick_template(&mut remaining, VictimCipherKind::AesTtable, &needed).is_none());
    }

    #[test]
    fn template_pool_usable_sorts_by_reproducibility() {
        let mut low = template(0, 0, true);
        low.reproducibility = 0.7;
        low.page_index = 1;
        let mut high = template(0, 0, true);
        high.reproducibility = 1.0;
        high.page_index = 2;
        let pool = TemplatePool {
            attacker: Pid(1),
            buffer: VirtAddr(0),
            scan: TemplateScan {
                templates: vec![low, high],
                ..TemplateScan::default()
            },
        };
        let usable = pool.usable(VictimCipherKind::AesSbox);
        assert_eq!(usable.len(), 2);
        assert!(usable[0].reproducibility >= usable[1].reproducibility);
    }

    #[test]
    fn recovered_key_constructors_set_one_side() {
        let aes = RecoveredKey::from_aes([7; 16]);
        assert!(aes.aes.is_some() && aes.present.is_none());
        let present = RecoveredKey::from_present([9; 10]);
        assert!(present.present.is_some() && present.aes.is_none());
    }
}
