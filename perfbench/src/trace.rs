//! The traced pass: the standard attack composed by hand over the public
//! `Pipeline` API, exactly as `ExplFrame`'s driver composes it, with every
//! public call wrapped in a span that records host time, simulated time
//! and the deltas of the substrate's public counters.

use std::fmt::Write as _;
use std::time::Instant;

use explframe_core::{
    AttackError, AttackOutcome, AttackReport, CollectOutcome, Observer, PhaseEvent, Pipeline,
};
use machine::SimMachine;

use crate::workload::{escalation, Bench};

/// Counter names, in [`Counts`] order. One per op family; never summed.
pub const COUNTERS: [&str; 14] = [
    "machine.reads",
    "machine.writes",
    "machine.flushes",
    "machine.hammer_pairs",
    "machine.page_faults",
    "dram.acts",
    "dram.row_hits",
    "dram.flips",
    "dram.refs",
    "dram.trr_triggers",
    "cachesim.tlb.lookups",
    "cachesim.tlb.misses",
    "memsim.allocs",
    "memsim.pcp_hits",
];

/// A reading (or a delta) of every counter in [`COUNTERS`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts(pub [u64; COUNTERS.len()]);

impl Counts {
    /// Reads the machine's public `*Stats` structs.
    pub fn read(m: &SimMachine) -> Self {
        let ms = m.stats();
        let ds = m.dram().stats();
        let tlb = m.tlb().stats();
        let (allocs, pcp_hits) = m
            .allocator()
            .zones()
            .iter()
            .map(|z| z.stats())
            .fold((0, 0), |(a, h), s| (a + s.allocs, h + s.pcp_hits));
        Counts([
            ms.reads,
            ms.writes,
            ms.flushes,
            ms.hammer_pairs,
            ms.page_faults,
            ds.acts,
            ds.row_hits,
            ds.flips,
            ds.refs,
            m.dram().trr_triggers(),
            tlb.lookups,
            tlb.misses,
            allocs,
            pcp_hits,
        ])
    }

    /// `self - before`, counter by counter. Wrapping, so deltas telescope
    /// exactly even across a snapshot restore.
    #[must_use]
    pub fn since(self, before: Counts) -> Counts {
        Counts(std::array::from_fn(|i| self.0[i].wrapping_sub(before.0[i])))
    }

    /// Counter-by-counter sum.
    #[must_use]
    pub fn plus(self, other: Counts) -> Counts {
        Counts(std::array::from_fn(|i| self.0[i].wrapping_add(other.0[i])))
    }

    /// The value of the counter called `name`.
    pub fn get(&self, name: &str) -> u64 {
        COUNTERS
            .iter()
            .position(|c| *c == name)
            .map_or(0, |i| self.0[i])
    }
}

/// One timed call. A `trial` span covers one whole trial; every other span
/// is a call made inside the trial span with the same `trial` id.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// The call: `trial`, `fork`, or a `Pipeline` method name.
    pub name: &'static str,
    /// Trial index within the pass.
    pub trial: u64,
    /// Host start, in ns since the recorder was created.
    pub start_ns: u64,
    /// Host end, in ns since the recorder was created.
    pub end_ns: u64,
    /// Simulated ns the call consumed.
    pub sim_ns: u64,
    /// Counter deltas over the call.
    pub counts: Counts,
}

impl Span {
    /// Host duration in ns.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// Whether this is a whole-trial span.
    pub fn is_trial(&self) -> bool {
        self.name == "trial"
    }

    /// One JSON object per line: name, start, end and parent span.
    pub fn json(&self) -> String {
        let parent = if self.is_trial() {
            "null".to_string()
        } else {
            format!("\"trial/{}\"", self.trial)
        };
        let mut line = format!(
            "{{\"name\":\"{}\",\"trial\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"sim_ns\":{}",
            self.name, self.trial, self.start_ns, self.end_ns, self.sim_ns
        );
        for (name, v) in COUNTERS.iter().zip(self.counts.0) {
            let _ = write!(line, ",\"{name}\":{v}");
        }
        line.push('}');
        line
    }
}

/// Checks the span tree of a traced pass: every call nests inside its
/// trial span without overlapping its siblings (so every self time is
/// ≥ 0), and the calls' counter deltas add up to the trial's totals.
///
/// # Errors
///
/// Describes the first violation found.
pub fn check_spans(spans: &[Span]) -> Result<(), String> {
    let mut children: Vec<&Span> = Vec::new();
    for span in spans {
        if !span.is_trial() {
            children.push(span);
            continue;
        }
        let t = span.trial;
        if children.iter().any(|c| c.trial != t) {
            return Err(format!("trial {t}: a call span belongs to another trial"));
        }
        let mut cursor = span.start_ns;
        let mut counts = Counts::default();
        let mut sim = 0;
        for c in &children {
            if c.start_ns < cursor || c.end_ns > span.end_ns {
                return Err(format!("trial {t}: span {} overlaps or escapes", c.name));
            }
            cursor = c.end_ns;
            counts = counts.plus(c.counts);
            sim += c.sim_ns;
        }
        if counts != span.counts {
            return Err(format!(
                "trial {t}: call counter deltas do not sum to the trial's"
            ));
        }
        if sim != span.sim_ns {
            return Err(format!(
                "trial {t}: call simulated time does not sum to the trial's"
            ));
        }
        children.clear();
    }
    if children.is_empty() {
        Ok(())
    } else {
        Err("call spans after the last trial span".to_string())
    }
}

/// What the pipeline's events say about one trial.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Rows hammered across every template sweep.
    pub rows_hammered: u64,
    /// Ciphertexts collected across rounds.
    pub ciphertexts: u64,
    /// Collect rounds.
    pub collects: u64,
    /// Collect rounds whose statistics converged.
    pub converged: u64,
}

impl Observer for Tally {
    fn on_event(&mut self, event: &PhaseEvent) {
        match event {
            PhaseEvent::TemplateFinished { rows_hammered, .. } => {
                self.rows_hammered += rows_hammered;
            }
            PhaseEvent::CiphertextsCollected {
                collected, outcome, ..
            } => {
                self.ciphertexts += collected;
                self.collects += 1;
                self.converged += u64::from(*outcome == CollectOutcome::Converged);
            }
            _ => {}
        }
    }
}

/// Span store: every span of the traced pass, kept in memory.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    /// Every recorded span, in completion order.
    pub spans: Vec<Span>,
    /// Every trial's event tally, in trial order.
    pub tallies: Vec<Tally>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            tallies: Vec::new(),
        }
    }
}

impl Recorder {
    fn now(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `call` on the pipeline inside a span named `name`.
    fn span<'m, 'o, R>(
        &mut self,
        trial: u64,
        name: &'static str,
        pipe: &mut Pipeline<'m, 'o>,
        call: impl FnOnce(&mut Pipeline<'m, 'o>) -> R,
    ) -> R {
        let (before, sim) = {
            let m = pipe.split().0;
            (Counts::read(m), m.now())
        };
        let start_ns = self.now();
        let out = call(pipe);
        let end_ns = self.now();
        let m = pipe.split().0;
        self.spans.push(Span {
            name,
            trial,
            start_ns,
            end_ns,
            sim_ns: m.now() - sim,
            counts: Counts::read(m).since(before),
        });
        out
    }

    /// Runs trial `t` of `bench` with every call traced. The composition
    /// is `ExplFrame`'s driver loop, call for call, so the report must be
    /// byte-identical to [`Bench::trial`]'s.
    ///
    /// # Errors
    ///
    /// Returns the substrate error the attack hit.
    pub fn trial(&mut self, bench: &mut Bench, t: u64) -> Result<AttackReport, AttackError> {
        let cfg = bench.workload.config(bench.base, t);
        let trial_start = self.now();
        let mut machine = bench.snapshot.fork();
        let forked = self.now();
        self.spans.push(Span {
            name: "fork",
            trial: t,
            start_ns: trial_start,
            end_ns: forked,
            sim_ns: 0,
            counts: Counts::default(),
        });
        let (origin, sim_origin) = (Counts::read(&machine), machine.now());

        let mut tally = Tally::default();
        let mut pipe = Pipeline::new(&mut machine, cfg.clone()).with_observer(&mut tally);
        let (snapshot, memo) = (&bench.snapshot, &mut bench.memo);
        let escalate_to = escalation(&cfg);
        let (memoized, adaptive) = (bench.workload.memoized(), bench.workload.adaptive());
        let pool = self.span(t, "template", &mut pipe, |p| match (memoized, adaptive) {
            (true, true) => p.template_adaptive_memo_at(snapshot, escalate_to, memo),
            (true, false) => p.template_memo_at(snapshot, memo),
            (false, true) => p.template_adaptive(escalate_to),
            (false, false) => p.template(),
        })?;
        let mut remaining = self.span(t, "select", &mut pipe, |p| p.select(&pool, cfg.victim));
        let mut outcome = AttackOutcome::NoUsableTemplates;
        if !remaining.is_empty() {
            outcome = AttackOutcome::OutOfTemplates;
            while pipe.counters().fault_rounds < cfg.max_fault_rounds {
                let Some(template) = self.span(t, "next_template", &mut pipe, |p| {
                    p.next_template(&mut remaining, cfg.victim)
                }) else {
                    break;
                };
                let released =
                    self.span(t, "release", &mut pipe, |p| p.release(&pool, template))?;
                let steered = self.span(t, "steer", &mut pipe, |p| p.steer(&released))?;
                let victim = steered.victim;
                if !self.span(t, "hammer", &mut pipe, |p| p.hammer(&pool, &steered))? {
                    self.span(t, "stop_victim", &mut pipe, |p| p.stop_victim(victim))?;
                    continue;
                }
                let faulted = self.span(t, "collect", &mut pipe, |p| p.collect(steered))?;
                let recovered = self.span(t, "analyze", &mut pipe, |p| p.analyze(faulted))?;
                self.span(t, "stop_victim", &mut pipe, |p| p.stop_victim(victim))?;
                if recovered.is_some() {
                    outcome = AttackOutcome::KeyRecovered;
                    break;
                }
            }
        }
        let (before, start_ns) = (Counts::read(pipe.split().0), self.now());
        let sim = pipe.split().0.now();
        let report = pipe.finish(outcome);
        let end_ns = self.now();
        self.spans.push(Span {
            name: "finish",
            trial: t,
            start_ns,
            end_ns,
            sim_ns: machine.now() - sim,
            counts: Counts::read(&machine).since(before),
        });
        self.spans.push(Span {
            name: "trial",
            trial: t,
            start_ns: trial_start,
            end_ns,
            sim_ns: machine.now() - sim_origin,
            counts: Counts::read(&machine).since(origin),
        });
        self.tallies.push(tally);
        Ok(report)
    }
}
