//! Template-memo timing: a memo miss and a memo hit each record exactly one
//! `phase.template` scope. The `perf` registry is process-global, so this
//! file holds a single test and runs in a process of its own.

use explframe_core::{ExplFrameConfig, Pipeline, TemplateMemo};
use machine::SimMachine;

#[test]
fn one_miss_and_one_hit_record_two_template_calls() {
    let cfg = ExplFrameConfig::small_demo(1).with_template_pages(64);
    let warm = SimMachine::new(cfg.machine.clone()).snapshot();
    let mut memo = TemplateMemo::new();

    perf::enable();
    perf::reset();
    for _ in 0..2 {
        let mut machine = warm.fork();
        Pipeline::new(&mut machine, cfg.clone())
            .template_memo_at(&warm, &mut memo)
            .expect("template");
    }
    let stats: std::collections::BTreeMap<_, _> = perf::snapshot().into_iter().collect();
    perf::disable();

    assert_eq!(memo.len(), 1, "the miss cached one sweep");
    assert_eq!(stats["phase.template.memo_hits"].ops, 1);
    assert_eq!(
        stats["phase.template"].calls, 2,
        "a miss must not be timed twice"
    );
}
