//! Per-phase cost totals: the [`PhaseLedger`] observer.
//!
//! A ledger belongs to one run (or to one cell, once its trials' ledgers
//! are merged in trial order). Nothing in it is process-global, so runs on
//! different threads never see each other's costs.

use campaign::Json;

use crate::events::{Observer, PhaseCost, PhaseEvent};

/// An [`Observer`] that sums each phase's [`PhaseCost`], keeping phases in
/// the order they first ran. It ignores [`PhaseEvent`]s. Attach it through
/// [`RunOptions::observer`](crate::RunOptions::observer) or
/// [`Pipeline::with_observer`](crate::Pipeline::with_observer).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PhaseLedger {
    phases: Vec<(&'static str, PhaseCost)>,
}

impl PhaseLedger {
    /// An empty ledger.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Every phase seen with its summed cost, in first-run order.
    #[must_use]
    pub fn phases(&self) -> &[(&'static str, PhaseCost)] {
        &self.phases
    }

    /// The summed cost of `phase`, if it ran.
    #[must_use]
    pub fn get(&self, phase: &str) -> Option<&PhaseCost> {
        self.phases
            .iter()
            .find(|(name, _)| *name == phase)
            .map(|(_, cost)| cost)
    }

    /// Adds `other`'s totals to this ledger. Merging trial ledgers in trial
    /// order gives the same ledger whatever thread ran each trial.
    pub fn merge(&mut self, other: &PhaseLedger) {
        for (phase, cost) in &other.phases {
            self.on_phase(phase, cost);
        }
    }

    /// The deterministic fields (everything but host time), one object per
    /// phase in first-run order.
    #[must_use]
    pub fn exact_json(&self) -> Json {
        let mut obj = Json::obj();
        for (phase, c) in &self.phases {
            let mut fields = Json::obj();
            fields.set("calls", c.calls);
            fields.set("memo_hits", c.memo_hits);
            fields.set("sim_ns", c.sim_ns);
            fields.set("reads", c.reads);
            fields.set("writes", c.writes);
            fields.set("hammer_pairs", c.hammer_pairs);
            obj.set(phase, fields);
        }
        obj
    }
}

impl Observer for PhaseLedger {
    fn on_event(&mut self, _event: &PhaseEvent) {}

    fn on_phase(&mut self, phase: &'static str, cost: &PhaseCost) {
        match self.phases.iter_mut().find(|(name, _)| *name == phase) {
            Some((_, total)) => total.add(cost),
            None => self.phases.push((phase, *cost)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cost(sim_ns: u64, host_ns: u64, memo_hits: u64) -> PhaseCost {
        PhaseCost {
            calls: 1,
            memo_hits,
            host_ns,
            sim_ns,
            reads: 2,
            writes: 1,
            hammer_pairs: 0,
        }
    }

    #[test]
    fn sums_per_phase_in_first_run_order() {
        let mut ledger = PhaseLedger::new();
        ledger.on_phase("template", &cost(10, 5, 0));
        ledger.on_phase("collect", &cost(3, 1, 0));
        ledger.on_phase("template", &cost(10, 1, 1));
        let names: Vec<_> = ledger.phases().iter().map(|(n, _)| *n).collect();
        assert_eq!(names, ["template", "collect"]);
        let template = ledger.get("template").unwrap();
        assert_eq!((template.calls, template.memo_hits), (2, 1));
        assert_eq!(
            (template.sim_ns, template.reads, template.host_ns),
            (20, 4, 6)
        );
        assert!(ledger.get("analyze").is_none());
    }

    #[test]
    fn merge_equals_one_ledger_seeing_both_runs() {
        let calls = [
            (0, "template", cost(7, 1_000_000, 0)),
            (1, "template", cost(7, 2_000_000, 1)),
            (1, "hammer", cost(4, 3_000_000, 0)),
        ];
        let mut runs = [PhaseLedger::new(), PhaseLedger::new()];
        let mut both = PhaseLedger::new();
        for (run, phase, c) in calls {
            runs[run].on_phase(phase, &c);
            both.on_phase(phase, &c);
        }
        let mut merged = runs[0].clone();
        merged.merge(&runs[1]);
        assert_eq!(merged, both);
        let exact = merged.exact_json();
        let template = exact.get("template").unwrap();
        assert_eq!(template.get("calls").and_then(Json::as_u64), Some(2));
        assert_eq!(template.get("memo_hits").and_then(Json::as_u64), Some(1));
        assert!(template.get("host_ns").is_none(), "host time is not exact");
        assert_eq!(merged.get("template").map(|t| t.host_ns), Some(3_000_000));
    }
}
