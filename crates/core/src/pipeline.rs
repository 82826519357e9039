//! The attack pipeline: the paper's phases as [`Pipeline`] methods.
//!
//! A [`Pipeline`] runs phases over one machine, one seeded attacker RNG,
//! one set of [`Counters`], and one [`Observer`](crate::Observer) — and
//! leaves the *order* of phases to the caller. Every phase call, a memo
//! hit included, runs through one private choke point that reports the
//! call's [`PhaseCost`] under the phase's name (`mapping-probe`,
//! `template`, `release`, `steer`, `hammer`, `collect`, `analyze`).
//! [`ExplFrame::run`](crate::ExplFrame::run) is the paper's standard
//! composition; scenarios the monolithic driver could not express are a
//! few lines each:
//!
//! * **template-once / steer-many** — release a vulnerable frame once, then
//!   steer → hammer → collect → analyze across N victim restarts,
//!   amortizing the expensive templating sweep (`exp_t7_template_reuse`);
//! * **mixed-cipher multi-victim** — one templating sweep, then attack
//!   victims running *different* ciphers on the same machine
//!   (`exp_t8_mixed_victims`).

use std::collections::BTreeSet;
use std::time::Instant;

use ciphers::{
    present_sbox_image, BlockCipher, Present80, RamTableSource, TableImage, PRESENT_SBOX,
};
use dram::{MappingKind, Nanos};
use fault::{PfaCollector, PresentPfa, TTablePfa, TableFault, TeFaultClass};
use machine::{MachineError, MachineSnapshot, MachineStats, Pid, SimMachine, VirtAddr};
use memsim::PAGE_SIZE;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::attack::{AttackOutcome, AttackReport};
use crate::config::{ExplFrameConfig, HammerStrategy, VictimCipherKind};
use crate::error::AttackError;
use crate::events::{Observer, PhaseCost, PhaseEvent};
use crate::phase::{
    pick_template, CollectOutcome, CollectorState, Counters, FaultedCiphertexts, RecoveredKey,
    RecoveredMapping, ReleasedFrame, SteeredVictim, TemplatePool,
};
use crate::template::{
    same_bank_stride_pages, strategy_hammer, template_scan_with, FlipTemplate, TemplateMemo,
};
use crate::victim::{VictimCipherService, VictimKeys};

/// Salt mixed into the configuration seed for the attacker RNG (matches the
/// pre-pipeline driver, keeping reports byte-identical per seed).
const ATTACK_RNG_SALT: u64 = 0xA77A_C4E2;

/// Ciphertext budget of the ECC-aware pre-collection probe: enough
/// encryptions that a live table fault almost surely touches the faulted
/// word (surfacing in the corrected/detected telemetry), yet three orders
/// of magnitude below what the missing-value statistics would burn to
/// prove the same round hopeless.
const ECC_PROBE_CIPHERTEXTS: u64 = 8;

/// An AES collect checks its stops once per this many ciphertexts, and
/// encrypts the ciphertexts between two checks as one batch.
const COLLECT_BATCH: u64 = 64;

/// Every ciphertext byte position: an S-box fault reaches all sixteen.
const ALL_POSITIONS: [usize; 16] = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15];

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

/// A running attack pipeline: phases share the machine, the attacker RNG,
/// the counters, and the observer through this driver.
///
/// # Examples
///
/// The standard five-phase composition (what
/// [`ExplFrame::run`](crate::ExplFrame::run) does), written out by hand:
///
/// ```no_run
/// use explframe_core::{
///     AttackOutcome, ExplFrameConfig, Pipeline, TraceCollector, VictimCipherKind,
/// };
/// use machine::SimMachine;
///
/// let config = ExplFrameConfig::small_demo(1).with_template_pages(1024);
/// let mut machine = SimMachine::new(config.machine.clone());
/// let mut trace = TraceCollector::new();
/// let mut pipe = Pipeline::new(&mut machine, config).with_observer(&mut trace);
///
/// let pool = pipe.template()?;
/// let mut remaining = pipe.select(&pool, VictimCipherKind::AesSbox);
/// while let Some(template) = pipe.next_template(&mut remaining, VictimCipherKind::AesSbox) {
///     let released = pipe.release(&pool, template)?;
///     let steered = pipe.steer(&released)?;
///     let victim = steered.victim;
///     let recovered = if pipe.hammer(&pool, &steered)? {
///         let faulted = pipe.collect(steered)?;
///         pipe.analyze(faulted)?
///     } else {
///         None
///     };
///     pipe.stop_victim(victim)?;
///     if recovered.is_some() {
///         let report = pipe.finish(AttackOutcome::KeyRecovered);
///         assert!(report.succeeded());
///         break;
///     }
/// }
/// # Ok::<(), explframe_core::AttackError>(())
/// ```
pub struct Pipeline<'m, 'o> {
    config: ExplFrameConfig,
    machine: &'m mut SimMachine,
    rng: StdRng,
    observer: Option<&'o mut dyn Observer>,
    keys: VictimKeys,
    counters: Counters,
    start_time: Nanos,
    hammer_start: u64,
    acts_start: u64,
    strategy: HammerStrategy,
    /// T-table recovery: the S-lane faults absorbed across rounds.
    ttable: TTablePfa,
    /// T-tables whose S-lane still lacks an absorbed fault (template
    /// selection prefers templates landing in a still-needed table).
    tables_needed: BTreeSet<usize>,
    /// Set by a template call the memo served; [`Self::phase`] reports it
    /// as a memo hit and clears it.
    memo_hit: bool,
}

impl<'m, 'o> Pipeline<'m, 'o> {
    /// Creates a pipeline over `machine` with the standard attacker RNG
    /// seeding (`config.seed` salted as the attack driver always has).
    pub fn new(machine: &'m mut SimMachine, config: ExplFrameConfig) -> Self {
        let rng = StdRng::seed_from_u64(config.seed ^ ATTACK_RNG_SALT);
        Self::with_rng(machine, config, rng)
    }

    /// Creates a pipeline with an explicit attacker RNG (compositions that
    /// must reproduce a different historical seeding, e.g. the spray
    /// baseline).
    pub fn with_rng(machine: &'m mut SimMachine, config: ExplFrameConfig, rng: StdRng) -> Self {
        let keys = VictimKeys::from_seed(config.seed);
        let start_time = machine.now();
        let hammer_start = machine.stats().hammer_pairs;
        let acts_start = machine.dram().stats().acts;
        let strategy = config.strategy;
        Pipeline {
            config,
            machine,
            rng,
            observer: None,
            keys,
            counters: Counters::default(),
            start_time,
            hammer_start,
            acts_start,
            strategy,
            ttable: TTablePfa::new(),
            tables_needed: (0..4).collect(),
            memo_hit: false,
        }
    }

    /// Attaches an [`Observer`] receiving every [`PhaseEvent`]. Observers
    /// are pure listeners; attaching one never changes the run's results.
    #[must_use]
    pub fn with_observer(mut self, observer: &'o mut dyn Observer) -> Self {
        self.observer = Some(observer);
        self
    }

    /// Runs one call of the phase `name`.
    ///
    /// This is the single choke point every phase call passes through, memo
    /// hits included, so it is also where the observer learns each call's
    /// [`PhaseCost`]. Without an observer neither the host clock nor the
    /// machine's counters are read.
    fn phase<T>(
        &mut self,
        name: &'static str,
        body: impl FnOnce(&mut Self) -> Result<T, AttackError>,
    ) -> Result<T, AttackError> {
        let start = self
            .observer
            .is_some()
            .then(|| CostStart::read(self.machine));
        let out = body(self);
        let memo_hits = u64::from(std::mem::take(&mut self.memo_hit));
        if let (Some(start), Some(observer)) = (start, &mut self.observer) {
            let cost = PhaseCost {
                memo_hits,
                ..start.cost(self.machine)
            };
            observer.on_phase(name, &cost);
        }
        out
    }

    fn emit(&mut self, event: PhaseEvent) {
        if let Some(observer) = &mut self.observer {
            observer.on_event(&event);
        }
    }

    // ------------------------------------------------------------------
    // Phases
    // ------------------------------------------------------------------

    /// Phase 0 (optional) — mapping probe: recover the controller's bank
    /// mapping from access latencies, DRAMA-style. The recovered kind and
    /// same-bank stride are reported via
    /// [`PhaseEvent::MappingProbed`](crate::PhaseEvent::MappingProbed).
    ///
    /// A transient prober process times pairs of its own addresses: for
    /// each pair it alternates the two reads (flushing its cache lines so
    /// every read reaches DRAM) and keeps the *second* iteration's latency
    /// — by then the row buffers are warm, so a same-bank/different-row
    /// pair pays a full row conflict on every access while any other pair
    /// is served from an open row. Each candidate mapping
    /// ([`MappingKind::Linear`], [`MappingKind::Xor`]) predicts which pairs
    /// conflict; candidates that disagree with any measurement are
    /// eliminated. The probe set includes a guaranteed non-conflict pair
    /// (same row) and a guaranteed conflict pair (a row delta that keeps
    /// the bank under *every* candidate), so the latency threshold
    /// self-calibrates from the measured band.
    ///
    /// Translating the probe addresses to physical frames is the one
    /// privileged step — the same lab-machine reverse engineering the
    /// DRAMA paper performed once per controller; the *recovered function*
    /// is what the unprivileged attack consumes afterwards.
    ///
    /// # Errors
    ///
    /// Returns [`AttackError::Machine`] for substrate failures.
    pub fn probe_mapping(&mut self) -> Result<RecoveredMapping, AttackError> {
        self.phase("mapping-probe", |p| {
            let start = p.machine.now();
            let g = p.machine.config().dram.geometry;
            // One row step in the linear layout (col | bank | rank |
            // channel | row): the distance at which only the row field
            // changes.
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
            AttackError::check_cpu(p.machine, p.config.attacker_cpu)?;
            let prober = p.machine.spawn(p.config.attacker_cpu);
            let base = p.machine.mmap(prober, pages)?;
            p.machine.fill(prober, base, pages * PAGE_SIZE, 0)?;

            // The buffer is resident right after the fill, but on a walk
            // machine a collateral flip may already have detached a page —
            // propagate the segfault analog instead of panicking the worker.
            let pa_base = p
                .machine
                .translate(prober, base)
                .ok_or(MachineError::Unmapped {
                    pid: prober,
                    addr: base,
                })?;
            let mut measured = Vec::with_capacity(deltas.len());
            for &delta in &deltas {
                let vb = base + delta;
                let pb = p
                    .machine
                    .translate(prober, vb)
                    .ok_or(MachineError::Unmapped {
                        pid: prober,
                        addr: vb,
                    })?;
                let latency = probe_pair(p.machine, prober, base, vb)?;
                measured.push((pa_base, pb, latency));
            }
            p.machine.exit(prober)?;

            // Self-calibrating threshold: conflicts sit in the top half of
            // the measured latency band. A flat band means no conflicts at
            // all.
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
            let elapsed = p.machine.now() - start;
            p.emit(PhaseEvent::MappingProbed {
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
        })
    }

    /// Phase 1 — template: spawn the attacker and sweep its buffer for
    /// repeatable flips with the pipeline's current [`HammerStrategy`].
    ///
    /// # Errors
    ///
    /// Returns [`AttackError::Machine`] for substrate failures.
    pub fn template(&mut self) -> Result<TemplatePool, AttackError> {
        self.template_with(None, None)
    }

    /// [`template`](Self::template) through a [`TemplateMemo`]: if the memo
    /// holds a sweep taken from a byte-identical machine state with the
    /// same scan parameters, the machine jumps straight to the cached
    /// post-sweep state and the cached pool is returned — no hammering at
    /// all. A miss runs the sweep live and caches it. Either way the
    /// counters, the emitted events and every subsequent phase are
    /// byte-identical to the uncached pipeline.
    ///
    /// The memo is keyed on `pre`, a caller-provided snapshot of the
    /// machine's *current* state. On the warm-pool path every trial forks
    /// from one shared snapshot and templates immediately, so the caller
    /// already holds the exact pre-sweep state — passing it in skips the
    /// per-trial snapshot, and, because the memo stores a clone of the same
    /// `Arc`-shared capture, the hit comparison is one pointer compare
    /// instead of a walk over the machine's state.
    ///
    /// `pre` must equal the machine's current state byte-for-byte (checked
    /// under `debug_assertions`); a mismatched snapshot would replay a
    /// sweep from a different machine state.
    ///
    /// # Errors
    ///
    /// Returns [`AttackError::Machine`] for substrate failures.
    pub fn template_memo_at(
        &mut self,
        pre: &MachineSnapshot,
        memo: &mut TemplateMemo,
    ) -> Result<TemplatePool, AttackError> {
        self.template_with(Some((pre, memo)), None)
    }

    /// [`template_adaptive`](Self::template_adaptive) through a
    /// [`TemplateMemo`] (see [`template_memo_at`](Self::template_memo_at)):
    /// each of the (up to two) sweeps is memoized individually, so an
    /// escalating run caches two entries and replays both on later trials.
    /// Only the first sweep uses `pre`; an escalated re-sweep starts from
    /// the post-sweep machine state, which the caller cannot hold, so it is
    /// keyed on a fresh snapshot.
    ///
    /// # Errors
    ///
    /// Returns [`AttackError::Machine`] for substrate failures.
    pub fn template_adaptive_memo_at(
        &mut self,
        pre: &MachineSnapshot,
        escalate_to: HammerStrategy,
        memo: &mut TemplateMemo,
    ) -> Result<TemplatePool, AttackError> {
        self.template_with(Some((pre, memo)), Some(escalate_to))
    }

    /// Adaptive templating: sweep with the current strategy; if the sweep
    /// comes back *empty* — the signature of a Target-Row-Refresh engine
    /// refreshing every sandwiched victim before its threshold — escalate
    /// to `escalate_to` (emitting [`PhaseEvent::StrategyEscalated`]) and
    /// sweep again. The returned pool is from the last sweep; subsequent
    /// [`Self::hammer`] calls use the escalated strategy.
    ///
    /// # Errors
    ///
    /// Returns [`AttackError::Machine`] for substrate failures.
    pub fn template_adaptive(
        &mut self,
        escalate_to: HammerStrategy,
    ) -> Result<TemplatePool, AttackError> {
        self.template_with(None, Some(escalate_to))
    }

    /// The one templating path behind the four `template*` methods: one
    /// sweep, served through `memo` when given, and with `escalate_to` a
    /// second one at the escalated strategy if the first came back empty.
    pub(crate) fn template_with(
        &mut self,
        mut memo: Option<(&MachineSnapshot, &mut TemplateMemo)>,
        escalate_to: Option<HammerStrategy>,
    ) -> Result<TemplatePool, AttackError> {
        let pool = self.sweep(memo.as_mut().map(|(pre, memo)| (*pre, &mut **memo)))?;
        match escalate_to {
            Some(to) if pool.scan.templates.is_empty() && to != self.strategy => {
                self.escalate(to);
                // The re-sweep starts from the post-sweep state, which the
                // caller cannot hold: key it on a fresh capture.
                let post = memo.is_some().then(|| self.machine.snapshot());
                self.sweep(post.as_ref().zip(memo.map(|(_, memo)| memo)))
            }
            _ => Ok(pool),
        }
    }

    /// One templating sweep at the current strategy: replayed from `memo`
    /// when it holds a sweep from this exact state, otherwise run live and,
    /// with a memo, cached in it.
    fn sweep(
        &mut self,
        mut memo: Option<(&MachineSnapshot, &mut TemplateMemo)>,
    ) -> Result<TemplatePool, AttackError> {
        let strategy = self.strategy;
        let hit = match &mut memo {
            Some((pre, memo)) => {
                debug_assert!(
                    self.machine.snapshot() == **pre,
                    "caller snapshot must match the machine state at template time"
                );
                memo.lookup(&self.config, strategy, pre)
            }
            None => None,
        };
        let missed = hit.is_none();
        let pool = self.phase("template", |p| {
            let pages = p.config.template_pages;
            p.emit(PhaseEvent::TemplateStarted { pages });
            let pool = match hit {
                Some((post, pool)) => {
                    p.machine.restore(post);
                    p.memo_hit = true;
                    pool.clone()
                }
                None => {
                    let cfg = &p.config;
                    AttackError::check_cpu(p.machine, cfg.attacker_cpu)?;
                    let attacker = p.machine.spawn(cfg.attacker_cpu);
                    let buffer = p.machine.mmap(attacker, pages)?;
                    let scan = template_scan_with(
                        p.machine,
                        attacker,
                        buffer,
                        pages,
                        cfg.hammer_pairs,
                        cfg.reproducibility_rounds,
                        strategy,
                    )?;
                    TemplatePool {
                        attacker,
                        buffer,
                        scan,
                    }
                }
            };
            p.counters.templates_found = pool.scan.templates.len();
            p.emit(PhaseEvent::TemplateFinished {
                found: pool.scan.templates.len(),
                rows_hammered: pool.scan.rows_hammered,
                hammer_failures: pool.scan.hammer_failures,
                elapsed: pool.scan.elapsed,
            });
            Ok(pool)
        })?;
        if let (true, Some((pre, memo))) = (missed, memo) {
            let post = self.machine.snapshot();
            memo.insert(&self.config, strategy, pre.clone(), post, pool.clone());
        }
        Ok(pool)
    }

    /// Switches the hammer strategy used by subsequent templating and
    /// re-hammer phases, recording the escalation in the counters and the
    /// event stream.
    pub fn escalate(&mut self, to: HammerStrategy) {
        let from = self.strategy;
        self.strategy = to;
        self.counters.strategy_escalations += 1;
        self.emit(PhaseEvent::StrategyEscalated { from, to });
    }

    /// The hammer strategy currently in force.
    #[must_use]
    pub fn strategy(&self) -> HammerStrategy {
        self.strategy
    }

    /// Filters the pool against `kind`'s table layout (best-reproducing
    /// first), recording the usable count and emitting
    /// [`PhaseEvent::TemplatesSelected`].
    pub fn select(&mut self, pool: &TemplatePool, kind: VictimCipherKind) -> Vec<FlipTemplate> {
        let usable = pool.usable(kind);
        self.counters.usable_templates = usable.len();
        self.emit(PhaseEvent::TemplatesSelected {
            kind,
            usable: usable.len(),
        });
        usable
    }

    /// Picks (and removes) the next template to spend: for T-table victims,
    /// one landing in a table the analyzer still needs; otherwise the most
    /// reproducible remaining.
    pub fn next_template(
        &self,
        remaining: &mut Vec<FlipTemplate>,
        kind: VictimCipherKind,
    ) -> Option<FlipTemplate> {
        pick_template(remaining, kind, &self.tables_needed)
    }

    /// Phase 2 — release: `munmap` the template's page so its frame lands
    /// at the head of the CPU's page frame cache. The attacker stays
    /// active; sleeping would let the idle kernel drain the cache (§V).
    ///
    /// With DRAM-resident page tables the victim's arrival is not one
    /// allocation but three: its spawn pops a root-table frame and its
    /// table page's first touch pops a leaf-table frame *before* the
    /// table-data frame. A bare release would land the templated frame
    /// under the victim's root table — a self-defeating steer. The
    /// walk-aware release therefore stages two fresh sacrificial pages
    /// first (their faults' own allocations happen before any release, so
    /// they cannot consume the template frame) and unmaps template-first,
    /// so the frame-cache LIFO reads `[sac2, sac1, template]` and the
    /// victim's pops are root ← sac2, leaf ← sac1, table data ← template.
    ///
    /// # Errors
    ///
    /// Returns [`AttackError::Machine`] for substrate failures.
    pub fn release(
        &mut self,
        pool: &TemplatePool,
        template: FlipTemplate,
    ) -> Result<ReleasedFrame, AttackError> {
        let attacker = pool.attacker;
        self.phase("release", |p| {
            let pfn = p
                .machine
                .translate(attacker, template.page_va)
                .map(|pa| pa.as_u64() / PAGE_SIZE);
            let staged = if p.machine.config().dram_page_tables {
                stage_walk_sacrifices(p.machine, attacker)?
            } else {
                None
            };
            p.machine.munmap(attacker, template.page_va, 1)?;
            if let Some(sac) = staged {
                // One page at a time, ascending, so the LIFO order is exact.
                for i in 0..WALK_TABLE_POPS {
                    p.machine.munmap(attacker, sac + i * PAGE_SIZE, 1)?;
                }
            }
            p.emit(PhaseEvent::FrameReleased {
                page_index: template.page_index,
                pfn,
            });
            Ok(ReleasedFrame { template, pfn })
        })
    }

    /// Releases the *entire* template buffer (the spray baseline's move —
    /// an attacker who cannot steer gives all frames back at once).
    ///
    /// # Errors
    ///
    /// Returns [`AttackError::Machine`] for substrate failures.
    pub fn release_all(&mut self, pool: &TemplatePool) -> Result<(), AttackError> {
        self.machine
            .munmap(pool.attacker, pool.buffer, self.config.template_pages)?;
        Ok(())
    }

    /// Phase 3 — steer: start a victim of the configured cipher whose table
    /// page's first touch pops the released frame.
    ///
    /// # Errors
    ///
    /// Returns [`AttackError::Machine`] for substrate failures.
    pub fn steer(&mut self, released: &ReleasedFrame) -> Result<SteeredVictim, AttackError> {
        self.steer_as(released, self.config.victim)
    }

    /// [`steer`](Self::steer) with an explicit victim cipher (mixed-cipher
    /// compositions steer different victims onto different frames). Also
    /// collects one pre-fault known pair.
    ///
    /// # Errors
    ///
    /// Returns [`AttackError::Machine`] for substrate failures.
    pub fn steer_as(
        &mut self,
        released: &ReleasedFrame,
        kind: VictimCipherKind,
    ) -> Result<SteeredVictim, AttackError> {
        self.phase("steer", |p| {
            AttackError::check_cpu(p.machine, p.config.victim_cpu)?;
            p.counters.fault_rounds += 1;
            let victim = VictimCipherService::start(p.machine, p.config.victim_cpu, kind, p.keys)?;
            let victim_pfn = victim.table_pfn(p.machine).map(|pfn| pfn.0);
            let steered = released.pfn.is_some() && victim_pfn == released.pfn;
            if steered {
                p.counters.steering_successes += 1;
            }

            // One pre-fault known pair (used by PRESENT master-key recovery).
            let mut known_plain = vec![0u8; victim.block_bytes()];
            p.rng.fill(&mut known_plain[..]);
            let mut known_cipher = known_plain.clone();
            if let Err(e) = victim.encrypt(p.machine, &mut known_cipher) {
                // Walk mode: a collateral flip in the victim's freshly
                // popped table frames can crash it on its very first
                // encryption. Keep the garbage pair — collection will
                // classify the round as crashed, and analysis only ever
                // reads pairs from converged rounds.
                if !walk_casualty(&e) {
                    return Err(e.into());
                }
            }

            p.emit(PhaseEvent::VictimSteered {
                round: p.counters.fault_rounds,
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
        })
    }

    /// Phase 4 — hammer: re-hammer the retained aggressors around the
    /// steered frame with the pipeline's current [`HammerStrategy`].
    /// `Ok(false)` means the hammer primitive rejected the aggressor set
    /// (fragmented buffer) or a walk casualty detached one, and the round
    /// should be skipped; any other machine error propagates.
    ///
    /// # Errors
    ///
    /// Returns [`AttackError::Machine`] for substrate failures.
    pub fn hammer(
        &mut self,
        pool: &TemplatePool,
        steered: &SteeredVictim,
    ) -> Result<bool, AttackError> {
        let template = steered.template;
        self.phase("hammer", |p| {
            let pairs = p.config.rehammer_pairs;
            let geometry = p.machine.config().dram.geometry;
            let (ok, rows) = strategy_hammer(
                p.machine,
                pool.attacker,
                p.strategy,
                pool.buffer,
                p.config.template_pages,
                template.aggressor_above,
                template.aggressor_below,
                same_bank_stride_pages(&geometry),
                pairs,
            )?;
            p.emit(PhaseEvent::HammerFinished {
                round: p.counters.fault_rounds,
                pairs,
                rows,
                ok,
            });
            Ok(ok)
        })
    }

    /// Phase 5a — collect: query victim encryptions until the fault
    /// statistics converge, prove no fault landed, or the ciphertext budget
    /// runs out.
    ///
    /// # Errors
    ///
    /// Returns [`AttackError::Machine`] for substrate failures.
    pub fn collect(&mut self, steered: SteeredVictim) -> Result<FaultedCiphertexts, AttackError> {
        self.phase("collect", |p| {
            let entry = steered.template.page_offset as usize;
            let before = p.counters.ciphertexts_collected;
            // The telemetry probe is pointless against a non-ECC DIMM (the
            // counters can never move); don't spend encryptions on it.
            if p.config.ecc_aware && p.machine.config().dram.ecc != dram::EccMode::Off {
                if let Some(outcome) = p.ecc_probe(&steered)? {
                    let collected = p.counters.ciphertexts_collected - before;
                    p.emit(PhaseEvent::CiphertextsCollected {
                        round: p.counters.fault_rounds,
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
                    let mut collector = PfaCollector::new();
                    let outcome = p.collect_aes(&steered.victim, &mut collector, &ALL_POSITIONS)?;
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
                            let outcome =
                                p.collect_aes(&steered.victim, &mut collector, &positions)?;
                            (outcome, CollectorState::Aes(Box::new(collector)))
                        }
                        // Filtered by template selection; defensive.
                        _ => (CollectOutcome::Skipped, CollectorState::Skipped),
                    }
                }
                VictimCipherKind::Present => {
                    // One block at a time, unlike AES: convergence is
                    // checked after every block, so no block after the
                    // first converged one may be drawn.
                    let mut collector = PresentPfa::new();
                    let mut session = steered.victim.session(p.machine);
                    let outcome = loop {
                        let mut block = [0u8; 8];
                        p.rng.fill(&mut block[..]);
                        match session.encrypt(&mut block) {
                            Ok(()) => {}
                            Err(e) if walk_casualty(&e) => break CollectOutcome::VictimCrashed,
                            Err(e) => return Err(e.into()),
                        }
                        collector.observe(&block);
                        p.counters.ciphertexts_collected += 1;
                        if collector.total() % 32 == 0 || collector.all_positions_determined() {
                            if collector.all_positions_determined() {
                                break CollectOutcome::Converged;
                            }
                            if (0..16).any(|i| collector.unseen_count(i) == 0) {
                                break CollectOutcome::NoFault;
                            }
                            if collector.total() >= p.config.max_ciphertexts {
                                break CollectOutcome::Exhausted;
                            }
                        }
                    };
                    (outcome, CollectorState::Present(Box::new(collector)))
                }
            };
            let collected = p.counters.ciphertexts_collected - before;
            p.emit(PhaseEvent::CiphertextsCollected {
                round: p.counters.fault_rounds,
                collected,
                outcome,
            });
            Ok(FaultedCiphertexts {
                victim: steered,
                outcome,
                collected,
                data,
            })
        })
    }

    /// The ECC-aware pre-collection probe: a few throwaway encryptions
    /// while watching the machine's corrected/detected error telemetry (on
    /// real hardware, the EDAC counters any unprivileged attacker can
    /// read). A rising *corrected* count with no detection means the DIMM
    /// is silently healing the fault on every read — the round can never
    /// produce faulty ciphertexts and is discarded for the cost of the
    /// probe. A rising *detected* count (or silence) hands over to normal
    /// collection.
    ///
    /// The probe stays one block at a time: it reads the telemetry after
    /// every encryption and stops at the first block that moves it.
    fn ecc_probe(
        &mut self,
        steered: &SteeredVictim,
    ) -> Result<Option<CollectOutcome>, AttackError> {
        let mut session = steered.victim.session(self.machine);
        let baseline = session.machine().dram().ecc_stats();
        let mut buf = [0u8; 16];
        let block = &mut buf[..steered.victim.block_bytes()];
        for _ in 0..ECC_PROBE_CIPHERTEXTS {
            self.rng.fill(&mut *block);
            match session.encrypt(block) {
                Ok(()) => {}
                Err(e) if walk_casualty(&e) => return Ok(Some(CollectOutcome::VictimCrashed)),
                Err(e) => return Err(e.into()),
            }
            self.counters.ciphertexts_collected += 1;
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
    ///
    /// The three stops are checked only when the collector's total is a
    /// multiple of [`COLLECT_BATCH`], so the blocks up to the next check
    /// are one [`VictimSession::encrypt_blocks`] batch: the same plaintexts
    /// from the same RNG stream (one `fill` of `16·n` bytes draws what `n`
    /// 16-byte fills draw), the same ciphertexts and the same machine as
    /// [`Self::collect_aes_reference`], block by block, a crash included.
    ///
    /// [`VictimSession::encrypt_blocks`]: crate::victim::VictimSession::encrypt_blocks
    fn collect_aes(
        &mut self,
        victim: &VictimCipherService,
        collector: &mut PfaCollector,
        needed: &[usize],
    ) -> Result<CollectOutcome, AttackError> {
        let mut session = victim.session(self.machine);
        let mut blocks = [[0u8; 16]; COLLECT_BATCH as usize];
        loop {
            let n = COLLECT_BATCH - collector.total() % COLLECT_BATCH;
            let batch = &mut blocks[..n as usize];
            let rng = &mut self.rng;
            let result = session.encrypt_blocks(batch, |plain| rng.fill(plain));
            let done = result.as_ref().map_or_else(|&(i, _)| i, |()| batch.len());
            for block in &batch[..done] {
                collector.observe(block);
            }
            self.counters.ciphertexts_collected += done as u64;
            match result {
                Ok(()) => {}
                Err((_, e)) if walk_casualty(&e) => return Ok(CollectOutcome::VictimCrashed),
                Err((_, e)) => return Err(e.into()),
            }
            if needed.iter().all(|&p| collector.unseen_count(p) == 1) {
                return Ok(CollectOutcome::Converged);
            }
            if needed.iter().any(|&p| collector.unseen_count(p) == 0) {
                return Ok(CollectOutcome::NoFault);
            }
            if collector.total() >= self.config.max_ciphertexts {
                return Ok(CollectOutcome::Exhausted);
            }
        }
    }

    /// The block-at-a-time collect [`Self::collect_aes`] replaced, its
    /// oracle: draw, encrypt and observe one block, and check the stops at
    /// every multiple of [`COLLECT_BATCH`].
    #[cfg(test)]
    fn collect_aes_reference(
        &mut self,
        victim: &VictimCipherService,
        collector: &mut PfaCollector,
        needed: &[usize],
    ) -> Result<CollectOutcome, AttackError> {
        let mut session = victim.session(self.machine);
        loop {
            let mut block = [0u8; 16];
            self.rng.fill(&mut block[..]);
            match session.encrypt(&mut block) {
                Ok(()) => {}
                Err(e) if walk_casualty(&e) => return Ok(CollectOutcome::VictimCrashed),
                Err(e) => return Err(e.into()),
            }
            collector.observe(&block);
            self.counters.ciphertexts_collected += 1;
            if collector.total() % COLLECT_BATCH == 0 {
                if needed.iter().all(|&p| collector.unseen_count(p) == 1) {
                    return Ok(CollectOutcome::Converged);
                }
                if needed.iter().any(|&p| collector.unseen_count(p) == 0) {
                    return Ok(CollectOutcome::NoFault);
                }
                if collector.total() >= self.config.max_ciphertexts {
                    return Ok(CollectOutcome::Exhausted);
                }
            }
        }
    }

    /// Phase 5b — analyze: feed the round's statistics to the cipher's
    /// persistent-fault analysis. `Some` once the full key is out.
    /// T-table recovery accumulates S-lane faults across rounds until all
    /// four tables are covered.
    ///
    /// # Errors
    ///
    /// Returns [`AttackError::Machine`] for substrate failures.
    pub fn analyze(
        &mut self,
        faulted: FaultedCiphertexts,
    ) -> Result<Option<RecoveredKey>, AttackError> {
        self.phase("analyze", |p| {
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
                        if p.ttable.absorb(fault, collector).is_some() {
                            let (table, _, _) = TableImage::te_locate(entry);
                            p.tables_needed.remove(&table);
                        }
                        p.ttable.master_key().map(RecoveredKey::from_aes)
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
                    p.counters.recovered_aes_key = Some(aes);
                }
                if let Some(present) = key.present {
                    p.counters.recovered_present_key = Some(present);
                }
            }
            p.emit(PhaseEvent::RoundAnalyzed {
                round: p.counters.fault_rounds,
                key_recovered: recovered.is_some(),
            });
            Ok(recovered)
        })
    }

    // ------------------------------------------------------------------
    // Primitives for custom compositions
    // ------------------------------------------------------------------

    /// Starts a victim service without steering bookkeeping (the spray
    /// baseline's victim arrives unsteered).
    ///
    /// # Errors
    ///
    /// Returns [`AttackError::Machine`] for substrate failures.
    pub fn spawn_victim(
        &mut self,
        kind: VictimCipherKind,
    ) -> Result<VictimCipherService, AttackError> {
        AttackError::check_cpu(self.machine, self.config.victim_cpu)?;
        VictimCipherService::start(self.machine, self.config.victim_cpu, kind, self.keys)
            .map_err(AttackError::from)
    }

    /// Terminates a victim, returning its table frame to the page frame
    /// cache (where the *next* steer can pick it up again).
    ///
    /// # Errors
    ///
    /// Returns [`AttackError::Machine`] for substrate failures.
    pub fn stop_victim(&mut self, victim: VictimCipherService) -> Result<(), AttackError> {
        victim.stop(self.machine)?;
        Ok(())
    }

    /// Advances simulated time by one full refresh window, letting all
    /// hammer disturbance refresh away — required between repeated hammer
    /// rounds on the *same* aggressors (template-once / steer-many), since
    /// a weak cell only flips when disturbance crosses its threshold within
    /// one window.
    pub fn settle(&mut self) {
        let window = self.machine.config().dram.timing.refresh_window();
        self.machine.advance(window);
    }

    /// Checks a recovered key against the ground-truth victim keys
    /// (experiment oracle).
    #[must_use]
    pub fn verify_key(&self, kind: VictimCipherKind, key: &RecoveredKey) -> bool {
        match kind {
            VictimCipherKind::AesSbox | VictimCipherKind::AesTtable => {
                key.aes == Some(self.keys.aes)
            }
            VictimCipherKind::Present => key.present == Some(self.keys.present),
        }
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// The attack configuration.
    #[must_use]
    pub fn config(&self) -> &ExplFrameConfig {
        &self.config
    }

    /// The run's accumulating tallies.
    #[must_use]
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// Ground-truth victim keys (experiment oracle).
    #[must_use]
    pub fn victim_keys(&self) -> VictimKeys {
        self.keys
    }

    /// Simulated time consumed since the pipeline was created.
    #[must_use]
    pub fn elapsed(&self) -> Nanos {
        self.machine.now() - self.start_time
    }

    /// Aggressor pairs hammered since the pipeline was created (templating
    /// and re-hammering).
    #[must_use]
    pub fn hammer_pairs_spent(&self) -> u64 {
        self.machine.stats().hammer_pairs - self.hammer_start
    }

    /// Direct machine access for composition-specific steps (noise
    /// processes, oracle reads). Splits off the attacker RNG so both can be
    /// used together.
    pub fn split(&mut self) -> (&mut SimMachine, &mut StdRng) {
        (self.machine, &mut self.rng)
    }

    /// Finalizes the run: emits [`PhaseEvent::PipelineFinished`] and builds
    /// the [`AttackReport`] (key verified against the configured victim's
    /// ground truth).
    pub fn finish(mut self, outcome: AttackOutcome) -> AttackReport {
        let elapsed = self.elapsed();
        let hammer_pairs_spent = self.hammer_pairs_spent();
        // How much faster the run could have activated rows before hitting
        // the per-window activation budget the command clock enforces:
        // (budget) / (activations per refresh window actually achieved).
        // Only meaningful — and only computed — with the timing engine on.
        let hammer_rate_headroom = if self.config.machine.dram.timed {
            let timing = self.config.machine.dram.timing;
            let acts = self.machine.dram().stats().acts - self.acts_start;
            (acts > 0 && elapsed > 0).then(|| {
                let achieved_per_window =
                    acts as f64 * timing.refresh_window() as f64 / elapsed as f64;
                timing.max_acts_per_window() as f64 / achieved_per_window
            })
        } else {
            None
        };
        self.emit(PhaseEvent::PipelineFinished {
            outcome,
            fault_rounds: self.counters.fault_rounds,
            elapsed,
        });
        let key_correct = self.verify_key(
            self.config.victim,
            &RecoveredKey {
                aes: self.counters.recovered_aes_key,
                present: self.counters.recovered_present_key,
            },
        );
        AttackReport {
            outcome,
            templates_found: self.counters.templates_found,
            usable_templates: self.counters.usable_templates,
            steering_successes: self.counters.steering_successes,
            fault_rounds: self.counters.fault_rounds,
            ciphertexts_collected: self.counters.ciphertexts_collected,
            hammer_pairs_spent,
            recovered_aes_key: self.counters.recovered_aes_key,
            recovered_present_key: self.counters.recovered_present_key,
            key_correct,
            strategy_escalations: self.counters.strategy_escalations,
            elapsed,
            hammer_rate_headroom,
        }
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

/// Maps and touches the walk-mode sacrificial region (see
/// [`Pipeline::release`]). Returns its base, or `None` when the attacker's
/// own walk is corrupted — self-hazard is real on walk machines, and a
/// failed staging should cost one degraded round, not the campaign.
fn stage_walk_sacrifices(
    machine: &mut SimMachine,
    attacker: Pid,
) -> Result<Option<VirtAddr>, AttackError> {
    let sac = machine.mmap(attacker, WALK_TABLE_POPS)?;
    match machine.fill(attacker, sac, WALK_TABLE_POPS * PAGE_SIZE, 0) {
        Ok(()) => Ok(Some(sac)),
        Err(e) if walk_casualty(&e) => Ok(None),
        Err(e) => Err(e.into()),
    }
}

/// Host clock, machine counters and simulated clock at the start of a
/// phase call: read only when an observer is attached.
struct CostStart {
    host: Instant,
    stats: MachineStats,
    sim: Nanos,
}

impl CostStart {
    fn read(machine: &SimMachine) -> Self {
        CostStart {
            host: Instant::now(),
            stats: machine.stats(),
            sim: machine.now(),
        }
    }

    /// One call's cost, from the start until now.
    fn cost(&self, machine: &SimMachine) -> PhaseCost {
        let now = machine.stats();
        PhaseCost {
            calls: 1,
            memo_hits: 0,
            host_ns: u64::try_from(self.host.elapsed().as_nanos()).unwrap_or(u64::MAX),
            sim_ns: machine.now().saturating_sub(self.sim),
            reads: now.reads.saturating_sub(self.stats.reads),
            writes: now.writes.saturating_sub(self.stats.writes),
            hammer_pairs: now.hammer_pairs.saturating_sub(self.stats.hammer_pairs),
        }
    }
}

impl std::fmt::Debug for Pipeline<'_, '_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pipeline")
            .field("config", &self.config)
            .field("counters", &self.counters)
            .field("observed", &self.observer.is_some())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::TraceCollector;
    use crate::{run_spray_baseline, ExplFrame, RunOptions};
    use memsim::CpuId;
    use proptest::prelude::*;
    use rand::RngCore;

    fn config(seed: u64) -> ExplFrameConfig {
        ExplFrameConfig::small_demo(seed).with_template_pages(512)
    }

    #[test]
    fn manual_composition_matches_explframe_run() {
        let report = ExplFrame::new(config(3)).run().expect("driver run");

        let cfg = config(3);
        let mut machine = SimMachine::new(cfg.machine.clone());
        let mut pipe = Pipeline::new(&mut machine, cfg.clone());
        let pool = pipe.template().expect("template");
        let mut remaining = pipe.select(&pool, cfg.victim);
        let manual = if remaining.is_empty() {
            pipe.finish(AttackOutcome::NoUsableTemplates)
        } else {
            let mut result = None;
            while pipe.counters().fault_rounds < cfg.max_fault_rounds {
                let Some(t) = pipe.next_template(&mut remaining, cfg.victim) else {
                    break;
                };
                let released = pipe.release(&pool, t).expect("release");
                let steered = pipe.steer(&released).expect("steer");
                let victim = steered.victim;
                if !pipe.hammer(&pool, &steered).expect("hammer") {
                    pipe.stop_victim(victim).expect("stop");
                    continue;
                }
                let faulted = pipe.collect(steered).expect("collect");
                let recovered = pipe.analyze(faulted).expect("analyze");
                pipe.stop_victim(victim).expect("stop");
                if recovered.is_some() {
                    result = Some(AttackOutcome::KeyRecovered);
                    break;
                }
            }
            pipe.finish(result.unwrap_or(AttackOutcome::OutOfTemplates))
        };
        assert_eq!(manual, report, "manual composition diverged from run()");
    }

    #[test]
    fn observer_does_not_change_the_report() {
        let untraced = ExplFrame::new(config(5)).run().expect("untraced");
        let mut trace = TraceCollector::new();
        let mut machine = SimMachine::new(config(5).machine);
        let options = RunOptions {
            observer: Some(&mut trace),
            ..RunOptions::default()
        };
        let traced = ExplFrame::new(config(5))
            .run_with(&mut machine, options)
            .expect("traced");
        assert_eq!(untraced, traced, "attaching an observer changed the run");
        assert!(!trace.is_empty(), "trace recorded nothing");
        // The trace brackets the run: starts with templating, ends with the
        // pipeline outcome.
        assert_eq!(trace.events().first().unwrap().name(), "template-started");
        assert_eq!(trace.events().last().unwrap().name(), "pipeline-finished");
    }

    #[test]
    fn a_cpu_the_machine_lacks_is_an_error_not_a_panic() {
        let cpus = config(1).machine.mem.cpus;
        let bad = CpuId(99);
        let attacker = config(1).with_attacker_cpu(bad);
        let victim = config(1).with_victim_cpu(bad);
        let no_such_cpu = |result: Result<(), AttackError>| match result {
            Err(AttackError::NoSuchCpu { cpu, cpus: n }) => cpu == bad && n == cpus,
            _ => false,
        };

        for cfg in [attacker.clone(), victim.clone()] {
            let mut machine = SimMachine::new(cfg.machine.clone());
            let result = ExplFrame::new(cfg).run_with(&mut machine, RunOptions::default());
            assert!(no_such_cpu(result.map(drop)));
        }
        let mut machine = SimMachine::new(victim.machine.clone());
        assert!(no_such_cpu(
            run_spray_baseline(&victim, &mut machine, 1).map(drop)
        ));

        // Hand-driven: probing and templating spawn the attacker, steering
        // and a bare victim spawn the victim.
        let mut machine = SimMachine::new(attacker.machine.clone());
        let mut pipe = Pipeline::new(&mut machine, attacker);
        assert!(no_such_cpu(pipe.probe_mapping().map(drop)));
        assert!(no_such_cpu(pipe.template().map(drop)));
        let mut machine = SimMachine::new(victim.machine.clone());
        let mut pipe = Pipeline::new(&mut machine, victim.clone());
        let pool = pipe.template().expect("the attacker CPU exists");
        let template = pipe.select(&pool, victim.victim).remove(0);
        let released = pipe.release(&pool, template).expect("release");
        assert!(no_such_cpu(pipe.steer(&released).map(drop)));
        assert!(no_such_cpu(pipe.spawn_victim(victim.victim).map(drop)));
        assert_eq!(pipe.counters().fault_rounds, 0, "no round was started");
    }

    /// One collect on a fork of `snapshot`, batched or block by block:
    /// its outcome, its collector (having first observed `pre`), the
    /// ciphertexts it counted, the pipeline RNG's next word and the machine.
    fn collect_on(
        snapshot: &MachineSnapshot,
        config: &ExplFrameConfig,
        victim: &VictimCipherService,
        pre: &[[u8; 16]],
        needed: &[usize],
        batched: bool,
    ) -> (
        Result<CollectOutcome, String>,
        PfaCollector,
        u64,
        u64,
        SimMachine,
    ) {
        let mut machine = snapshot.fork();
        let mut pipe = Pipeline::new(&mut machine, config.clone());
        let mut collector = PfaCollector::new();
        for block in pre {
            collector.observe(block);
        }
        let outcome = if batched {
            pipe.collect_aes(victim, &mut collector, needed)
        } else {
            pipe.collect_aes_reference(victim, &mut collector, needed)
        };
        let collected = pipe.counters().ciphertexts_collected;
        let next = pipe.rng.next_u64();
        drop(pipe);
        (
            outcome.map_err(|e| format!("{e:?}")),
            collector,
            collected,
            next,
            machine,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The batched collect against the block-at-a-time one it
        /// replaced, over seeds, both AES victims, tables with and without
        /// a fault, needed positions, budgets that end in every stop, a
        /// collector that already holds 0 to 63 ciphertexts (so the first
        /// batch is short), and walk mode with the victim's leaf PTE
        /// corrupted (a crash at the first block): the same outcome,
        /// collector, count, machine and RNG stream, so the crash path
        /// draws as many plaintexts as the reference.
        #[test]
        fn batched_collect_matches_the_block_at_a_time_reference(
            seed in 0u64..1 << 20,
            ttable in any::<bool>(),
            walk in any::<bool>(),
            faulted in any::<bool>(),
            offset in 0u64..4096,
            bit in 0u8..8,
            needed in prop::collection::vec(0usize..16, 1..5),
            budget in prop_oneof![Just(60_000u64), 1u64..3000],
            pre in prop::collection::vec(any::<[u8; 16]>(), 0..64),
        ) {
            let kind = if ttable {
                VictimCipherKind::AesTtable
            } else {
                VictimCipherKind::AesSbox
            };
            let mut config = ExplFrameConfig::small_demo(seed);
            config.max_ciphertexts = budget;
            config.machine = config.machine.with_dram_page_tables(walk);
            let mut m = SimMachine::new(config.machine.clone());
            let keys = VictimKeys::from_seed(seed);
            let victim = VictimCipherService::start(&mut m, CpuId(0), kind, keys).unwrap();
            if faulted {
                let offset = offset % kind.image_len() as u64;
                let pa = m.translate(victim.pid(), victim.table_base() + offset).unwrap();
                let byte = m.dram_mut().read_byte(pa);
                m.dram_mut().write_byte(pa, byte ^ (1 << bit));
            }
            if walk {
                let slot = m.pte_phys(victim.pid(), victim.table_base()).unwrap();
                let mut pte = [0u8; 8];
                m.dram_mut().read(slot, &mut pte);
                let wild = u64::from_le_bytes(pte) | (1 << 40);
                m.dram_mut().write(slot, &wild.to_le_bytes());
                m.flush_tlb();
            }
            let snapshot = m.snapshot();
            let run = |batched| collect_on(&snapshot, &config, &victim, &pre, &needed, batched);
            let (outcome, collector, collected, next, machine) = run(true);
            let reference = run(false);
            prop_assert_eq!(&outcome, &reference.0);
            prop_assert!(collector == reference.1, "collectors differ");
            prop_assert_eq!(collected, reference.2);
            prop_assert_eq!(next, reference.3, "the RNG streams diverged");
            prop_assert!(machine == reference.4, "machines differ");
            if walk {
                prop_assert_eq!(outcome, Ok(CollectOutcome::VictimCrashed));
                prop_assert_eq!(collected, 0);
            }
        }
    }

    #[test]
    fn verify_key_checks_against_ground_truth() {
        let cfg = config(1);
        let mut machine = SimMachine::new(cfg.machine.clone());
        let pipe = Pipeline::new(&mut machine, cfg);
        let keys = pipe.victim_keys();
        assert!(pipe.verify_key(VictimCipherKind::AesSbox, &RecoveredKey::from_aes(keys.aes)));
        assert!(!pipe.verify_key(VictimCipherKind::AesSbox, &RecoveredKey::from_aes([0; 16])));
        assert!(pipe.verify_key(
            VictimCipherKind::Present,
            &RecoveredKey::from_present(keys.present)
        ));
        assert!(!pipe.verify_key(VictimCipherKind::Present, &RecoveredKey::from_aes(keys.aes)));
    }
}
