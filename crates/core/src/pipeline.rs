//! The composable attack pipeline driver.
//!
//! A [`Pipeline`] strings [`Phase`]s together over one machine, one seeded
//! attacker RNG, one set of [`Counters`], and one
//! [`Observer`](crate::Observer) — and leaves the *order* of phases to the
//! caller. [`ExplFrame::run`](crate::ExplFrame::run) is the paper's
//! standard composition; scenarios the monolithic driver could not express
//! are a few lines each:
//!
//! * **template-once / steer-many** — release a vulnerable frame once, then
//!   steer → hammer → collect → analyze across N victim restarts,
//!   amortizing the expensive templating sweep (`exp_t7_template_reuse`);
//! * **mixed-cipher multi-victim** — one templating sweep, then attack
//!   victims running *different* ciphers on the same machine
//!   (`exp_t8_mixed_victims`).

use std::time::Instant;

use dram::Nanos;
use machine::{MachineSnapshot, MachineStats, SimMachine};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::attack::{AttackOutcome, AttackReport};
use crate::config::{ExplFrameConfig, HammerStrategy, VictimCipherKind};
use crate::error::AttackError;
use crate::events::{NullObserver, Observer, PhaseCost, PhaseEvent};
use crate::phase::{
    pick_template, AnalyzePhase, CollectPhase, Counters, FaultedCiphertexts, HammerPhase,
    MappingProbePhase, Phase, PhaseCtx, RecoveredKey, RecoveredMapping, ReleasePhase,
    ReleasedFrame, SteerPhase, SteeredVictim, TemplatePhase, TemplatePool,
};
use crate::template::{FlipTemplate, TemplateMemo};
use crate::victim::{VictimCipherService, VictimKeys};

/// Salt mixed into the configuration seed for the attacker RNG (matches the
/// pre-pipeline driver, keeping reports byte-identical per seed).
const ATTACK_RNG_SALT: u64 = 0xA77A_C4E2;

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
    null: NullObserver,
    keys: VictimKeys,
    counters: Counters,
    start_time: Nanos,
    hammer_start: u64,
    acts_start: u64,
    analyzer: AnalyzePhase,
    strategy: HammerStrategy,
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
            null: NullObserver,
            keys,
            counters: Counters::default(),
            start_time,
            hammer_start,
            acts_start,
            analyzer: AnalyzePhase::new(),
            strategy,
        }
    }

    /// Attaches an [`Observer`] receiving every [`PhaseEvent`]. Observers
    /// are pure listeners; attaching one never changes the run's results.
    #[must_use]
    pub fn with_observer(mut self, observer: &'o mut dyn Observer) -> Self {
        self.observer = Some(observer);
        self
    }

    /// Runs one phase against this pipeline's context.
    ///
    /// This is the single choke point every phase passes through, so it is
    /// also where the observer learns each call's [`PhaseCost`]. Without an
    /// observer neither the host clock nor the machine's counters are read.
    fn phase<P: Phase>(&mut self, phase: &mut P, input: P::In) -> Result<P::Out, AttackError> {
        let Pipeline {
            config,
            machine,
            rng,
            observer,
            null,
            keys,
            counters,
            ..
        } = self;
        let start = observer.is_some().then(|| CostStart::read(machine));
        let observer: &mut dyn Observer = match observer {
            Some(o) => &mut **o,
            None => null,
        };
        let mut ctx = PhaseCtx {
            config,
            machine,
            rng,
            observer,
            counters,
            keys: *keys,
        };
        let out = phase.run(&mut ctx, input);
        if let Some(start) = start {
            ctx.observer
                .on_phase(phase.name(), &start.cost(ctx.machine));
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
    /// mapping from row-conflict latencies (see
    /// [`MappingProbePhase`]). Runs a transient prober process; the
    /// recovered kind and same-bank stride are reported via
    /// [`PhaseEvent::MappingProbed`](crate::PhaseEvent::MappingProbed).
    ///
    /// # Errors
    ///
    /// Returns [`AttackError::Machine`] for substrate failures.
    pub fn probe_mapping(&mut self) -> Result<RecoveredMapping, AttackError> {
        self.phase(&mut MappingProbePhase, ())
    }

    /// Phase 1 — template: spawn the attacker and sweep its buffer for
    /// repeatable flips with the pipeline's current [`HammerStrategy`].
    ///
    /// # Errors
    ///
    /// Returns [`AttackError::Machine`] for substrate failures.
    pub fn template(&mut self) -> Result<TemplatePool, AttackError> {
        let mut phase = TemplatePhase {
            strategy: self.strategy,
        };
        self.phase(&mut phase, ())
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
    /// capture, the hit comparison short-circuits on shared structure
    /// instead of walking DRAM chunks and cache sets.
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
        debug_assert!(
            self.machine.snapshot() == *pre,
            "caller snapshot must match the machine state at template time"
        );
        if let Some((post, pool)) = memo.lookup(&self.config, self.strategy, pre) {
            // Only the hit reports its cost here: a miss runs `template()`,
            // whose phase choke point reports it.
            let start = self
                .observer
                .is_some()
                .then(|| CostStart::read(self.machine));
            let pool = pool.clone();
            self.machine.restore(post);
            self.counters.templates_found = pool.scan.templates.len();
            self.emit(PhaseEvent::TemplateStarted {
                pages: self.config.template_pages,
            });
            self.emit(PhaseEvent::TemplateFinished {
                found: pool.scan.templates.len(),
                rows_hammered: pool.scan.rows_hammered,
                hammer_failures: pool.scan.hammer_failures,
                elapsed: pool.scan.elapsed,
            });
            if let (Some(start), Some(observer)) = (start, &mut self.observer) {
                let cost = start.cost(self.machine);
                observer.on_phase(
                    "template",
                    &PhaseCost {
                        memo_hits: 1,
                        ..cost
                    },
                );
            }
            return Ok(pool);
        }
        let strategy = self.strategy;
        let pool = self.template()?;
        memo.insert(
            &self.config,
            strategy,
            pre.clone(),
            self.machine.snapshot(),
            pool.clone(),
        );
        Ok(pool)
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
        let pool = self.template_memo_at(pre, memo)?;
        if !pool.scan.templates.is_empty() || escalate_to == self.strategy {
            return Ok(pool);
        }
        self.escalate(escalate_to);
        let post = self.machine.snapshot();
        self.template_memo_at(&post, memo)
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
        let pool = self.template()?;
        if !pool.scan.templates.is_empty() || escalate_to == self.strategy {
            return Ok(pool);
        }
        self.escalate(escalate_to);
        self.template()
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
        pick_template(remaining, kind, self.analyzer.tables_needed())
    }

    /// Phase 2 — release: `munmap` the template's page so its frame lands
    /// at the head of the CPU's page frame cache.
    ///
    /// # Errors
    ///
    /// Returns [`AttackError::Machine`] for substrate failures.
    pub fn release(
        &mut self,
        pool: &TemplatePool,
        template: FlipTemplate,
    ) -> Result<ReleasedFrame, AttackError> {
        self.phase(&mut ReleasePhase, (pool.attacker, template))
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
    /// compositions steer different victims onto different frames).
    ///
    /// # Errors
    ///
    /// Returns [`AttackError::Machine`] for substrate failures.
    pub fn steer_as(
        &mut self,
        released: &ReleasedFrame,
        kind: VictimCipherKind,
    ) -> Result<SteeredVictim, AttackError> {
        self.phase(&mut SteerPhase, (*released, kind))
    }

    /// Phase 4 — hammer: re-hammer the retained aggressors around the
    /// steered frame with the pipeline's current [`HammerStrategy`].
    /// `Ok(false)` means the hammer primitive rejected the aggressor set
    /// (fragmented buffer) and the round should be skipped.
    ///
    /// # Errors
    ///
    /// Returns [`AttackError::Machine`] for substrate failures.
    pub fn hammer(
        &mut self,
        pool: &TemplatePool,
        steered: &SteeredVictim,
    ) -> Result<bool, AttackError> {
        let mut phase = HammerPhase {
            strategy: self.strategy,
        };
        self.phase(&mut phase, (pool.attacker, pool.buffer, steered.template))
    }

    /// Phase 5a — collect: query victim encryptions until the fault
    /// statistics converge or the round proves hopeless.
    ///
    /// # Errors
    ///
    /// Returns [`AttackError::Machine`] for substrate failures.
    pub fn collect(&mut self, steered: SteeredVictim) -> Result<FaultedCiphertexts, AttackError> {
        self.phase(&mut CollectPhase, steered)
    }

    /// Phase 5b — analyze: feed the round's statistics to the cipher's
    /// persistent-fault analysis. `Some` once the full key is out.
    ///
    /// # Errors
    ///
    /// Returns [`AttackError::Machine`] for substrate failures.
    pub fn analyze(
        &mut self,
        faulted: FaultedCiphertexts,
    ) -> Result<Option<RecoveredKey>, AttackError> {
        let mut analyzer = std::mem::take(&mut self.analyzer);
        let out = self.phase(&mut analyzer, faulted);
        self.analyzer = analyzer;
        out
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
