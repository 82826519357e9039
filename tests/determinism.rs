//! Seeded determinism of the whole attack pipeline.
//!
//! Every stage of ExplFrame draws randomness through seeded `StdRng`
//! instances (weak-cell placement, templating order, plaintext queries). If
//! any stage ever reads an unseeded source — or iterates a non-deterministic
//! container — repeated runs diverge and every experiment in `crates/bench`
//! stops being reproducible. These tests pin the contract: same seed, same
//! bytes out; different seed, different flip population.

use explframe::attack::{
    template_scan, AttackReport, ExplFrame, ExplFrameConfig, RunOptions, VictimCipherKind,
};
use explframe::dram::{DramConfig, EccMode, ParaParams, RfmParams, TrrParams};
use explframe::machine::SimMachine;
use explframe::memsim::CpuId;

fn run_with_seed(seed: u64) -> AttackReport {
    let cfg = ExplFrameConfig::small_demo(seed).with_template_pages(1024);
    ExplFrame::new(cfg).run().expect("attack run completes")
}

#[test]
fn same_seed_produces_byte_identical_reports() {
    let first = run_with_seed(1);
    let second = run_with_seed(1);
    // Full structural equality: outcome, template counts, steering and
    // hammer tallies, ciphertext count, recovered keys, simulated time.
    assert_eq!(first, second, "two runs with the same seed diverged");
}

#[test]
fn different_seeds_diverge() {
    // Different machine seeds produce different weak-cell populations, so
    // *some* observable part of the report must differ. Checking a tuple of
    // the coarse counters keeps this robust to incidental equalities in any
    // single field.
    let a = run_with_seed(2);
    let b = run_with_seed(3);
    assert_ne!(
        (
            a.templates_found,
            a.hammer_pairs_spent,
            a.ciphertexts_collected,
            a.elapsed
        ),
        (
            b.templates_found,
            b.hammer_pairs_spent,
            b.ciphertexts_collected,
            b.elapsed
        ),
        "seeds 2 and 3 produced indistinguishable runs"
    );
}

#[test]
fn pipeline_reproduces_the_pre_redesign_report_bytes() {
    // Recorded from the monolithic driver immediately before the
    // phase-pipeline redesign (seed 1, 1024 template pages). The redesign's
    // contract is byte-for-byte identity, not mere plausibility — if any of
    // these move, the pipeline changed the attack's observable behaviour.
    let report = run_with_seed(1);
    assert_eq!(
        report.outcome,
        explframe::attack::AttackOutcome::KeyRecovered
    );
    assert_eq!(report.templates_found, 297);
    assert_eq!(report.usable_templates, 6);
    assert_eq!(report.steering_successes, 1);
    assert_eq!(report.fault_rounds, 1);
    assert_eq!(report.ciphertexts_collected, 2176);
    assert_eq!(report.hammer_pairs_spent, 753_600_000);
    assert_eq!(
        report.recovered_aes_key,
        Some([104, 1, 40, 17, 13, 177, 124, 200, 38, 249, 157, 193, 49, 244, 29, 167])
    );
    assert!(report.key_correct);
    assert_eq!(report.elapsed, 126_353_601_538);
}

#[test]
fn snapshot_forked_attack_is_byte_identical_to_fresh_boot_for_every_victim() {
    // The snapshot/fork differential guarantee, end to end: for every
    // shipped victim cipher, running the full attack on a machine forked
    // from a boot-time snapshot produces an AttackReport byte-identical to
    // the same seed on a freshly booted machine. This is what lets the
    // warm-pool campaign path replace per-trial boots without changing a
    // single reported number.
    for victim in [
        VictimCipherKind::AesSbox,
        VictimCipherKind::AesTtable,
        VictimCipherKind::Present,
    ] {
        for seed in [1, 5] {
            let cfg = ExplFrameConfig::small_demo(seed)
                .with_template_pages(1024)
                .with_victim(victim);
            let fresh = ExplFrame::new(cfg.clone()).run().expect("fresh run");
            let snapshot = SimMachine::new(cfg.machine.clone()).snapshot();
            let forked = ExplFrame::new(cfg)
                .run_snapshot(&snapshot)
                .expect("forked run");
            assert_eq!(
                forked, fresh,
                "forked report diverged (victim {victim:?}, seed {seed})"
            );
        }
    }
}

#[test]
fn shared_weak_cell_table_serves_concurrent_forks_once() {
    // Every fork of one booted device shares its weak-cell memo: two
    // threads attacking forks of one warm snapshot at once must each
    // report the cold boot's bytes, and the memo must end up holding each
    // row the attack needs exactly once — the count a lone cold boot
    // generates, not twice it.
    let cfg = ExplFrameConfig::small_demo(1)
        .with_template_pages(1024)
        .with_victim(VictimCipherKind::AesTtable);
    let mut cold_machine = SimMachine::new(cfg.machine.clone());
    let cold = ExplFrame::new(cfg.clone())
        .run_with(&mut cold_machine, RunOptions::default())
        .expect("cold run");
    let cold_rows = cold_machine.dram().weak_rows_generated();

    let warm = SimMachine::new(cfg.machine.clone()).snapshot();
    let booted_rows = warm.fork().dram().weak_rows_generated();
    assert!(booted_rows < cold_rows, "the attack must generate rows");
    let start = std::sync::Barrier::new(2);
    let forked: Vec<AttackReport> = std::thread::scope(|s| {
        let attacks: Vec<_> = (0..2)
            .map(|_| {
                s.spawn(|| {
                    let mut machine = warm.fork();
                    start.wait();
                    ExplFrame::new(cfg.clone())
                        .run_with(&mut machine, RunOptions::default())
                        .expect("forked run")
                })
            })
            .collect();
        attacks
            .into_iter()
            .map(|a| a.join().expect("attack thread"))
            .collect()
    });
    for report in &forked {
        assert_eq!(
            report, &cold,
            "a concurrent fork diverged from the cold boot"
        );
    }
    assert_eq!(warm.fork().dram().weak_rows_generated(), cold_rows);

    // A device of another seed boots with a memo of its own: it starts
    // from its own boot's rows and never adds to the seed-1 memo.
    let other_cfg = ExplFrameConfig::small_demo(2)
        .with_template_pages(1024)
        .with_victim(VictimCipherKind::AesTtable);
    let lone_boot = SimMachine::new(other_cfg.machine.clone());
    let mut other = SimMachine::new(other_cfg.machine.clone());
    assert_eq!(
        other.dram().weak_rows_generated(),
        lone_boot.dram().weak_rows_generated()
    );
    let other_report = ExplFrame::new(other_cfg)
        .run_with(&mut other, RunOptions::default())
        .expect("other-seed run");
    assert_ne!(
        other_report, cold,
        "another seed must attack another module"
    );
    assert_eq!(warm.fork().dram().weak_rows_generated(), cold_rows);
}

#[test]
fn snapshot_forked_adaptive_attack_matches_fresh_boot_under_trr() {
    // Same differential, through the adaptive (strategy-escalating) driver
    // against a TRR-hardened module — the snapshot must carry the sampler
    // state faithfully enough that escalation happens identically.
    let mut cfg = ExplFrameConfig::small_demo(1).with_template_pages(1024);
    cfg.machine.dram = cfg
        .machine
        .dram
        .with_trr(Some(TrrParams::ddr4_like().with_sampler_size(2)));
    let fresh = ExplFrame::new(cfg.clone())
        .run_adaptive()
        .expect("fresh adaptive run");
    let snapshot = SimMachine::new(cfg.machine.clone()).snapshot();
    let attack = ExplFrame::new(cfg);
    let forked = attack
        .run_adaptive_snapshot(&snapshot)
        .expect("forked adaptive run");
    assert_eq!(forked, fresh, "forked adaptive report diverged");
    assert_eq!(
        fresh.strategy_escalations, 1,
        "test must exercise the escalation path"
    );

    // Through a template memo: the first run caches both sweeps (the empty
    // double-sided one and the escalated re-sweep), the second replays both.
    let mut memo = explframe::attack::TemplateMemo::new();
    for run in 0..2u64 {
        let options = RunOptions {
            adaptive: true,
            memo: Some((&snapshot, &mut memo)),
            ..RunOptions::default()
        };
        let memoized = attack
            .run_with(&mut snapshot.fork(), options)
            .expect("memoized adaptive run");
        assert_eq!(memoized, fresh, "memoized adaptive run {run} diverged");
        assert_eq!(memo.len(), 2, "run {run}: one entry per sweep");
        assert_eq!(memo.hits(), 2 * run, "run {run}: hits");
    }
}

#[test]
fn snapshot_forked_run_reproduces_the_pinned_seed1_report_bytes() {
    // The forked path must hit the exact golden bytes pinned for the fresh
    // path (seed 1, 1024 template pages) — not merely agree with whatever
    // the fresh path currently produces.
    let cfg = ExplFrameConfig::small_demo(1).with_template_pages(1024);
    let snapshot = SimMachine::new(cfg.machine.clone()).snapshot();
    let report = ExplFrame::new(cfg)
        .run_snapshot(&snapshot)
        .expect("forked run");
    assert_eq!(
        report.outcome,
        explframe::attack::AttackOutcome::KeyRecovered
    );
    assert_eq!(report.templates_found, 297);
    assert_eq!(report.usable_templates, 6);
    assert_eq!(report.fault_rounds, 1);
    assert_eq!(report.ciphertexts_collected, 2176);
    assert_eq!(report.hammer_pairs_spent, 753_600_000);
    assert_eq!(report.elapsed, 126_353_601_538);
    assert!(report.key_correct);
}

#[test]
fn snapshot_of_warm_machine_replays_attack_identically_after_mutation() {
    // Warm-pool shape: warm the machine, snapshot, let the original machine
    // diverge arbitrarily — the fork must still replay the attack the warm
    // state implies, untouched by the divergence (copy-on-write isolation).
    let cfg = ExplFrameConfig::small_demo(3).with_template_pages(512);
    let mut warm = SimMachine::new(cfg.machine.clone());
    explframe::machine::warmup(&mut warm, explframe::machine::WARMUP_PAGES).expect("warmup");
    let snapshot = warm.snapshot();

    let reference = ExplFrame::new(cfg.clone())
        .run_with(&mut snapshot.fork(), RunOptions::default())
        .expect("reference run");
    // Divergence: the original machine keeps running a whole other attack.
    let _ = ExplFrame::new(cfg.clone())
        .run_with(&mut warm, RunOptions::default())
        .expect("noise");
    let replay = ExplFrame::new(cfg)
        .run_snapshot(&snapshot)
        .expect("replay run");
    assert_eq!(
        replay, reference,
        "mutating the original leaked into a fork"
    );
}

#[test]
fn attack_reports_are_identical_across_campaign_thread_counts() {
    use explframe::campaign::{scenario, Campaign};
    // The whole pipeline run as campaign trials: reducing on 1 worker and
    // on 8 must yield byte-identical AttackReports in identical order.
    let cells = vec![scenario("explframe-e2e", |seed| {
        let cfg = ExplFrameConfig::small_demo(seed).with_template_pages(512);
        ExplFrame::new(cfg).run().expect("attack run completes")
    })];
    let serial = Campaign::new(3, 11).with_threads(1).run(&cells);
    let parallel = Campaign::new(3, 11).with_threads(8).run(&cells);
    assert_eq!(
        serial.cells, parallel.cells,
        "thread count changed a pipeline report"
    );
}

#[test]
fn fast_kernels_match_reference_kernels_for_every_victim() {
    // The raw-speed pass (bitsliced weak-cell crossing masks, the hammer
    // burst kernel, the single-byte read path) must be invisible in
    // every reported number. Pin that differentially: the same attack with
    // the device forced onto the scalar per-cell reference kernels
    // (`DramConfig::reference_kernels`) must produce a byte-identical
    // AttackReport for every shipped victim cipher.
    for victim in [
        VictimCipherKind::AesSbox,
        VictimCipherKind::AesTtable,
        VictimCipherKind::Present,
    ] {
        let cfg = ExplFrameConfig::small_demo(1)
            .with_template_pages(1024)
            .with_victim(victim);
        let mut oracle_cfg = cfg.clone();
        oracle_cfg.machine.dram = oracle_cfg.machine.dram.with_reference_kernels(true);
        let fast = ExplFrame::new(cfg).run().expect("fast-kernel run");
        let oracle = ExplFrame::new(oracle_cfg)
            .run()
            .expect("reference-kernel run");
        assert_eq!(
            fast, oracle,
            "fast kernels changed the report (victim {victim:?})"
        );
    }
}

#[test]
fn fast_kernels_match_reference_kernels_under_trr_and_ecc() {
    // Same differential through the adaptive driver with both
    // countermeasures armed: a small-sampler TRR engine (forcing the
    // escalation path, whose burst planning hands flipping bursts to the
    // burst kernel) and SECDED ECC with the ECC-aware collector (whose
    // read path uses the skip-clean batching). Every fast path must agree
    // with the scalar reference under the richest interaction of features.
    let mut cfg = ExplFrameConfig::small_demo(1)
        .with_template_pages(1024)
        .with_ecc_aware(true);
    cfg.machine.dram = cfg
        .machine
        .dram
        .with_trr(Some(TrrParams::ddr4_like().with_sampler_size(2)))
        .with_ecc(EccMode::Secded);
    let mut oracle_cfg = cfg.clone();
    oracle_cfg.machine.dram = oracle_cfg.machine.dram.with_reference_kernels(true);
    let fast = ExplFrame::new(cfg)
        .run_adaptive()
        .expect("fast-kernel adaptive run");
    let oracle = ExplFrame::new(oracle_cfg)
        .run_adaptive()
        .expect("reference-kernel adaptive run");
    assert_eq!(
        fast, oracle,
        "fast kernels changed the adaptive report under TRR + ECC"
    );
    assert_eq!(
        fast.strategy_escalations, 1,
        "test must exercise the escalation path"
    );
}

#[test]
fn template_scan_is_deterministic() {
    let scan = |seed: u64| {
        let cfg = ExplFrameConfig::small_demo(seed).with_template_pages(512);
        let mut machine = SimMachine::new(cfg.machine.clone());
        let pid = machine.spawn(CpuId(0));
        let base = machine
            .mmap(pid, cfg.template_pages)
            .expect("mmap template buffer");
        template_scan(
            &mut machine,
            pid,
            base,
            cfg.template_pages,
            cfg.hammer_pairs,
            cfg.reproducibility_rounds,
        )
        .expect("template scan completes")
    };
    let first = scan(7);
    let second = scan(7);
    assert_eq!(first, second, "same-seed template scans diverged");
    assert_eq!(first.templates, second.templates, "flip templates diverged");
}

// ---------------------------------------------------------------------------
// Walk-mode battery: the same contracts with page tables resident in DRAM.
// ---------------------------------------------------------------------------

fn walk_config(seed: u64) -> ExplFrameConfig {
    ExplFrameConfig::small_demo(seed)
        .with_template_pages(1024)
        .with_dram_page_tables(true)
}

#[test]
fn walk_mode_attack_is_deterministic_and_reproduces_pinned_bytes() {
    // Recorded when the phase pipeline first ran end to end on a
    // DRAM-resident-page-table machine (seed 1, 1024 template pages). The
    // numbers differ from the shadow goldens exactly where walk mode says
    // they should: one extra frame consumed during templating shifts the
    // weak-cell overlap slightly (298 vs 297 raw templates), the victim's
    // table allocations and walk traffic cost extra hammer pairs and time.
    let first = ExplFrame::new(walk_config(1)).run().expect("walk run");
    let second = ExplFrame::new(walk_config(1)).run().expect("walk run");
    assert_eq!(first, second, "same-seed walk runs diverged");
    assert_eq!(
        first.outcome,
        explframe::attack::AttackOutcome::KeyRecovered
    );
    assert_eq!(first.templates_found, 298);
    assert_eq!(first.usable_templates, 4);
    assert_eq!(first.steering_successes, 1);
    assert_eq!(first.fault_rounds, 1);
    assert_eq!(first.ciphertexts_collected, 2176);
    assert_eq!(first.hammer_pairs_spent, 754_800_000);
    assert_eq!(
        first.recovered_aes_key,
        Some([104, 1, 40, 17, 13, 177, 124, 200, 38, 249, 157, 193, 49, 244, 29, 167])
    );
    assert!(first.key_correct);
    assert_eq!(first.elapsed, 126_656_028_659);
}

#[test]
fn walk_mode_flag_off_is_byte_identical_to_the_default_config() {
    // `with_dram_page_tables(false)` must be a true no-op: the explicit-off
    // report carries the exact pre-walk golden bytes (pinned above in
    // `pipeline_reproduces_the_pre_redesign_report_bytes`).
    let explicit_off = ExplFrameConfig::small_demo(1)
        .with_template_pages(1024)
        .with_dram_page_tables(false);
    let report = ExplFrame::new(explicit_off).run().expect("shadow run");
    assert_eq!(
        report,
        run_with_seed(1),
        "flag-off run diverged from default"
    );
    assert_eq!(report.templates_found, 297);
    assert_eq!(report.hammer_pairs_spent, 753_600_000);
    assert_eq!(report.elapsed, 126_353_601_538);
}

#[test]
fn walk_mode_snapshot_fork_matches_fresh_boot() {
    // Snapshot/fork fidelity with mid-attack table state: the fork carries
    // the table frames, the TLB contents, and the walk-traffic history into
    // byte-identical reports for every victim cipher.
    for victim in [
        VictimCipherKind::AesSbox,
        VictimCipherKind::AesTtable,
        VictimCipherKind::Present,
    ] {
        let cfg = walk_config(1).with_victim(victim);
        let fresh = ExplFrame::new(cfg.clone()).run().expect("fresh walk run");
        let snapshot = SimMachine::new(cfg.machine.clone()).snapshot();
        let forked = ExplFrame::new(cfg)
            .run_snapshot(&snapshot)
            .expect("forked walk run");
        assert_eq!(forked, fresh, "walk-mode fork diverged (victim {victim:?})");
    }
}

#[test]
fn walk_mode_memoized_template_runs_match_uncached() {
    // The sweep memo keyed with table-frame state: a second walk trial from
    // the same warm snapshot replays the sweep from the memo and still
    // produces byte-identical reports.
    use explframe::attack::TemplateMemo;
    let cfg = walk_config(1);
    let warm = SimMachine::new(cfg.machine.clone()).snapshot();
    let mut memo = TemplateMemo::new();
    let first = ExplFrame::new(cfg.clone())
        .run_snapshot_memo(&warm, &mut memo)
        .expect("first memoized walk run");
    let second = ExplFrame::new(cfg)
        .run_snapshot_memo(&warm, &mut memo)
        .expect("second memoized walk run");
    assert_eq!(first, second, "memo replay changed a walk report");
    assert_eq!(memo.hits(), 1, "second trial must hit the memo");
}

#[test]
fn memo_hits_at_other_attacker_seeds_match_direct_runs() {
    // Forked trials of one warm snapshot at four attacker seeds share one
    // memo: the first seed pays the sweep, the other three replay it (the
    // sweep never reads the attacker RNG). Every replay must report what a
    // direct run of its own seed reports.
    use explframe::attack::TemplateMemo;
    let config = |seed| ExplFrameConfig::small_demo(seed).with_template_pages(512);
    let warm = SimMachine::new(config(1).machine.clone()).snapshot();
    let mut memo = TemplateMemo::new();
    let mut reports = Vec::new();
    for seed in 1..=4 {
        let memoized = ExplFrame::new(config(seed))
            .run_snapshot_memo(&warm, &mut memo)
            .expect("memoized run");
        let direct = ExplFrame::new(config(seed))
            .run_snapshot(&warm)
            .expect("direct run");
        assert_eq!(memoized, direct, "memoized run diverged (seed {seed})");
        reports.push(memoized);
    }
    assert_eq!((memo.misses(), memo.hits()), (1, 3));
    assert!(
        reports.windows(2).any(|pair| pair[0] != pair[1]),
        "attacker seeds must change the reports, or the comparison is vacuous"
    );
}

#[test]
fn walk_mode_adaptive_escalates_through_trr_and_recovers_key() {
    // The adaptive driver on a walk machine against a sampling TRR: the
    // double-sided sweep is suppressed, the driver escalates to many-sided,
    // and the key still comes out — with the page-table walk traffic feeding
    // the same TRR sampler the hammer is trying to thrash. Forked replay
    // must agree byte for byte.
    let mut cfg = ExplFrameConfig::small_demo(1)
        .with_template_pages(512)
        .with_many_sided_rows(8)
        .with_dram_page_tables(true);
    cfg.machine.dram = cfg
        .machine
        .dram
        .with_trr(Some(TrrParams::ddr4_like().with_sampler_size(2)));
    let fresh = ExplFrame::new(cfg.clone())
        .run_adaptive()
        .expect("adaptive walk run");
    assert_eq!(fresh.strategy_escalations, 1, "must exercise escalation");
    assert!(
        fresh.key_correct,
        "escalated walk attack must recover the key"
    );
    let snapshot = SimMachine::new(cfg.machine.clone()).snapshot();
    let forked = ExplFrame::new(cfg)
        .run_adaptive_snapshot(&snapshot)
        .expect("forked adaptive walk run");
    assert_eq!(forked, fresh, "forked adaptive walk report diverged");
}

#[test]
fn walk_mode_adaptive_under_trr_and_ecc_completes_deterministically() {
    // Both countermeasures armed on a walk machine: SECDED corrects every
    // single-bit templating flip (exactly as in shadow mode), so the run
    // ends keyless after one escalation — but it must end *identically*
    // across fresh and forked executions, never panic mid-phase.
    let mut cfg = walk_config(1).with_ecc_aware(true);
    cfg.machine.dram = cfg
        .machine
        .dram
        .with_trr(Some(TrrParams::ddr4_like().with_sampler_size(2)))
        .with_ecc(EccMode::Secded);
    let fresh = ExplFrame::new(cfg.clone())
        .run_adaptive()
        .expect("adaptive walk run under TRR+ECC");
    assert_eq!(fresh.strategy_escalations, 1);
    let snapshot = SimMachine::new(cfg.machine.clone()).snapshot();
    let forked = ExplFrame::new(cfg)
        .run_adaptive_snapshot(&snapshot)
        .expect("forked adaptive walk run under TRR+ECC");
    assert_eq!(forked, fresh, "TRR+ECC walk report diverged across forks");
}

#[test]
fn walk_mode_reports_are_identical_across_campaign_thread_counts() {
    use explframe::campaign::{scenario, Campaign};
    // The exp_t16 shape: full walk-mode attacks as campaign trials must
    // reduce to byte-identical reports regardless of worker count.
    let cells = vec![scenario("walk-e2e", |seed| {
        let cfg = ExplFrameConfig::small_demo(seed)
            .with_template_pages(512)
            .with_dram_page_tables(true);
        ExplFrame::new(cfg).run().expect("walk attack completes")
    })];
    let serial = Campaign::new(3, 11).with_threads(1).run(&cells);
    let parallel = Campaign::new(3, 11).with_threads(8).run(&cells);
    assert_eq!(
        serial.cells, parallel.cells,
        "thread count changed a walk-mode report"
    );
}

#[test]
fn walk_mode_templating_writes_off_remapped_pages_as_casualties() {
    // Regression: this seed lands a collateral flip in the leaf table
    // mapping the template buffer itself, silently remapping one template
    // page to a foreign frame. The sweep's read-back then diverges on all
    // 32768 bits of that page, and an unguarded harvest recorded every one
    // as a "weak cell" — 33102 raw templates instead of ~334 — then burned
    // ~50x the hammer budget reproducibility-scoring the phantoms. The
    // remap guard writes the page off as a translation casualty, so the
    // walk run stays within a whisker of its shadow twin.
    let seed = 17_632_468_870_407_644_954;
    let run = |walk: bool| {
        let cfg = ExplFrameConfig::small_demo(seed)
            .with_template_pages(1024)
            .with_dram_page_tables(walk);
        ExplFrame::new(cfg).run().expect("attack completes")
    };
    let shadow = run(false);
    let walk = run(true);
    assert!(shadow.key_correct && walk.key_correct);
    assert_eq!(shadow.templates_found, 336);
    assert_eq!(walk.templates_found, 334, "phantom templates harvested");
    assert_eq!(walk.hammer_pairs_spent, 798_000_000);
    assert!(
        walk.hammer_pairs_spent < 2 * shadow.hammer_pairs_spent,
        "walk sweep burned its budget scoring translation artifacts"
    );
}

// ---------------------------------------------------------------------------
// The hammer burst kernel on the hardened-walk benchmark shape.
// ---------------------------------------------------------------------------

/// The `hardened-walk` benchmark workload: DDR4-like TRR, command clock,
/// DRAM-resident page tables, adaptive driver escalating to 8-row
/// many-sided hammering, 1024 template pages.
fn hardened_walk_config(seed: u64) -> ExplFrameConfig {
    let mut cfg = walk_config(seed).with_many_sided_rows(8);
    cfg.machine.dram = cfg
        .machine
        .dram
        .with_trr(Some(TrrParams::ddr4_like()))
        .with_timing_engine(true);
    cfg
}

#[test]
fn hardened_walk_closed_form_matches_reference_kernels() {
    // The double-sided sweep on a TRR module never flips a cell (TRR clears
    // every victim long before its weakest threshold); the many-sided
    // sweep after escalation does. The burst kernel serves both, and the
    // report must not move by a byte against the literal chunked walk.
    let cfg = hardened_walk_config(1);
    let mut oracle_cfg = cfg.clone();
    oracle_cfg.machine.dram = oracle_cfg.machine.dram.with_reference_kernels(true);
    let fast = ExplFrame::new(cfg.clone())
        .run_adaptive()
        .expect("fast-kernel run");
    let oracle = ExplFrame::new(oracle_cfg)
        .run_adaptive()
        .expect("reference-kernel run");
    assert_eq!(format!("{fast:?}"), format!("{oracle:?}"));
    assert_eq!(fast.strategy_escalations, 1, "must sweep, then escalate");

    // The opening double-sided sweep alone: the kernel engages on the
    // fast device, never on the reference one, and stays off under PARA
    // and under RFM.
    let sweep = |dram: DramConfig, pages: u64| {
        let mut machine_cfg = cfg.machine.clone();
        machine_cfg.dram = dram;
        let mut machine = SimMachine::new(machine_cfg);
        let pid = machine.spawn(CpuId(0));
        let base = machine.mmap(pid, pages).expect("mmap template buffer");
        let scan = template_scan(
            &mut machine,
            pid,
            base,
            pages,
            cfg.hammer_pairs,
            cfg.reproducibility_rounds,
        )
        .expect("template scan completes");
        (scan, machine.dram().analytic_rounds())
    };
    let dram = cfg.machine.dram;
    let (scan, jumped) = sweep(dram, 64);
    let (oracle_scan, literal) = sweep(dram.with_reference_kernels(true), 64);
    assert_eq!(scan, oracle_scan, "sweep diverged from the literal walk");
    assert!(jumped > 0, "the kernel never engaged on the sweep");
    assert_eq!(literal, 0, "reference kernels must stay literal");
    for (name, dram) in [
        ("PARA", dram.with_para(Some(ParaParams::para_2014()))),
        ("RFM", dram.with_rfm(Some(RfmParams::ddr5_like()))),
    ] {
        assert_eq!(sweep(dram, 16).1, 0, "the kernel engaged under {name}");
    }
}
