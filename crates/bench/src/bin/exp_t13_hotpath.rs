//! T13 — attack hot-path throughput: the full five-phase ExplFrame attack
//! on forked machines, direct vs template-memoized.
//!
//! Every trial forks the same warm [`machine::MachineSnapshot`] and runs the whole
//! templating → release → steer → hammer → collect/analyze pipeline with a
//! per-trial attacker seed. The **direct** cell pays the full template
//! sweep per trial; the **memoized** cell shares one [`TemplateMemo`], so
//! the sweep runs once and every later trial replays its recorded
//! post-sweep machine state. The two cells must produce byte-identical
//! per-trial `AttackReport` fingerprints — memoization (like the bitslice
//! weak-cell kernels and the hammer burst kernel underneath) changes
//! throughput, never bytes.
//!
//! Each cell attaches a [`PhaseLedger`] to every run. Its exact fields
//! (calls, memo hits, simulated ns, reads, writes, hammer pairs per phase)
//! land in the cell's deterministic `results/summary.json` record; host
//! time per phase, as mean ms per trial, lands with trials/sec and the
//! speedup vs the pinned pre-PR baseline in the committed
//! `BENCH_hotpath.json` series. The run entry is then parsed back through
//! `campaign::json` and shape-checked, so every CI smoke run asserts the
//! bench file round-trips.

use std::time::Instant;

use campaign::{
    banner, bench_path, fnv1a, persist, CampaignCli, CampaignResult, Json, Summary, Table,
};
use explframe_core::{
    AttackReport, ExplFrame, ExplFrameConfig, PhaseLedger, RunOptions, TemplateMemo,
};
use machine::SimMachine;

/// Trials/sec of this exact forked-attack workload (64 trials, 512
/// template pages) measured at the tip of the previous PR, before the
/// bitslice weak-cell kernels, the analytic hammer paths, and the
/// template-sweep memoization landed. The acceptance target is ≥3× this.
const PRE_PR_BASELINE_TPS: f64 = 32.5;

/// Acceptance multiple over [`PRE_PR_BASELINE_TPS`].
const TARGET_SPEEDUP: f64 = 3.0;

/// The measured attack cell: the standard demo scenario at a per-trial
/// seed, over a warm machine forked from the shared snapshot.
fn attack_config(seed: u64) -> ExplFrameConfig {
    ExplFrameConfig::small_demo(seed).with_template_pages(512)
}

/// Full-report fingerprint: any divergence — counters, recovered key,
/// per-round outcomes, virtual clock — changes the digest.
fn fingerprint(report: &AttackReport) -> u64 {
    fnv1a(format!("{report:?}").as_bytes())
}

fn main() {
    banner(
        "T13: attack hot-path throughput",
        "five-phase attack on forked machines: direct vs template-memoized (trials/sec, per-phase breakdown)",
    );
    let cli = CampaignCli::parse();
    let campaign = cli.campaign(64, 1);
    println!(
        "trials per cell: {}   seed: {}   threads: {}   template pages: 512",
        campaign.trials, campaign.seed, campaign.threads
    );

    let warm = SimMachine::new(attack_config(campaign.seed).machine.clone()).snapshot();
    let trials = u64::from(campaign.trials);
    // Runs every trial of one cell in trial order, each with the cell's
    // ledger attached (one ledger summing serial runs is their merge).
    let run_cell = |mut memo: Option<&mut TemplateMemo>| {
        let mut ledger = PhaseLedger::new();
        let start = Instant::now();
        let fingerprints: Vec<u64> = (0..trials)
            .map(|t| {
                let attack = ExplFrame::new(attack_config(campaign.seed.wrapping_add(t)));
                let options = RunOptions {
                    memo: memo.as_deref_mut().map(|memo| (&warm, memo)),
                    observer: Some(&mut ledger),
                    ..RunOptions::default()
                };
                fingerprint(
                    &attack
                        .run_with(&mut warm.fork(), options)
                        .expect("attack completes"),
                )
            })
            .collect();
        (fingerprints, ledger, start.elapsed())
    };

    // Direct: every trial pays the full template sweep.
    let (direct, direct_ledger, direct_wall) = run_cell(None);
    // Memoized: one shared memo; the sweep runs once, later trials replay
    // its recorded post-sweep state (the seed is not part of the memo key —
    // the sweep never reads the attacker RNG).
    let mut memo = TemplateMemo::new();
    let (memoized, memo_ledger, memo_wall) = run_cell(Some(&mut memo));

    // The differential guarantee, asserted on every run: memoization (and
    // the fast kernels below it) changes throughput, never results.
    assert_eq!(
        direct, memoized,
        "memoized trials diverged from direct trials"
    );
    assert_eq!(
        (memo.misses(), memo.hits()),
        (1, trials - 1),
        "every trial after the first must replay the shared sweep"
    );
    assert_eq!(
        memo_ledger.get("template").map(|t| (t.calls, t.memo_hits)),
        Some((trials, trials - 1)),
        "the ledger must count every replay as one template call"
    );

    let digest = |trials: &[u64]| fnv1a(format!("{trials:?}").as_bytes());
    let mut table = Table::new(
        "attack hot-path (fingerprints are deterministic; timing lives in BENCH_hotpath.json)",
        &["mode", "trials", "fingerprint_fnv1a"],
    );
    let mut summary = Summary::new("t13_hotpath", &campaign);
    for (name, cell, ledger) in [
        ("direct", &direct, &direct_ledger),
        ("memoized", &memoized, &memo_ledger),
    ] {
        let d = format!("{:#018x}", digest(cell));
        table.row(&[&name, &cell.len(), &d]);
        summary.cell(
            name,
            &[
                ("fingerprint", Json::Str(d.clone())),
                ("phases", ledger.exact_json()),
            ],
        );
    }
    persist("t13_hotpath", &table, &mut summary);

    let tps = |wall: std::time::Duration| {
        let secs = wall.as_secs_f64();
        if secs > 0.0 {
            trials as f64 / secs
        } else {
            0.0
        }
    };
    let direct_tps = tps(direct_wall);
    let memo_tps = tps(memo_wall);
    let speedup_vs_pre_pr = memo_tps / PRE_PR_BASELINE_TPS;
    println!(
        "\ndirect: {direct_tps:.1} trials/s   memoized: {memo_tps:.1} trials/s   \
         pre-PR baseline: {PRE_PR_BASELINE_TPS:.1} trials/s   speedup vs pre-PR: {speedup_vs_pre_pr:.1}x"
    );
    println!("\nper-phase breakdown (memoized cell):");
    for ((phase, t), (_, ms)) in memo_ledger
        .phases()
        .iter()
        .zip(memo_ledger.host_ms_per_trial(trials))
    {
        println!(
            "  {phase:<10} {ms:>8.3} ms/trial  {:>12} reads  {:>8} writes  {:>10} hammer pairs  \
             {:>5} calls  {:>5} memo hits",
            t.reads, t.writes, t.hammer_pairs, t.calls, t.memo_hits
        );
    }

    summary.timing_metric("direct_trials_per_s", direct_tps);
    summary.timing_metric("memoized_trials_per_s", memo_tps);
    summary.timing_metric("pre_pr_baseline_trials_per_s", PRE_PR_BASELINE_TPS);
    summary.timing_metric("speedup_vs_pre_pr", speedup_vs_pre_pr);
    summary.timing_metric(
        "memo_vs_direct_speedup",
        if direct_tps > 0.0 {
            memo_tps / direct_tps
        } else {
            0.0
        },
    );
    for (prefix, ledger) in [("direct", &direct_ledger), ("memo", &memo_ledger)] {
        for (phase, ms) in ledger.host_ms_per_trial(trials) {
            summary.timing_metric(&format!("{prefix}.phase.{phase}.host_ms_per_trial"), ms);
        }
    }
    if let Some(pr) = cli.pr_label() {
        summary.pr(&pr);
    }

    let result = CampaignResult::<u64> {
        cells: Vec::new(),
        threads: campaign.threads,
        wall_clock: memo_wall,
        total_trials: trials,
    };
    summary.write(&result);
    summary.write_bench("hotpath", &result);

    // Round-trip shape check: the committed bench series must parse back
    // through campaign::json and carry the fields the trajectory plots key
    // on. Runs on every invocation, including the CI smoke.
    let bench = std::fs::read_to_string(bench_path("hotpath")).expect("bench series written");
    let bench = Json::parse(&bench).expect("bench series is valid JSON");
    assert_eq!(
        bench.get("schema").and_then(Json::as_u64),
        Some(1),
        "bench schema version"
    );
    let runs = match bench.get("runs") {
        Some(Json::Arr(runs)) if !runs.is_empty() => runs,
        other => panic!("bench series must carry runs, got {other:?}"),
    };
    let last = runs.last().expect("non-empty");
    for field in ["total_trials", "wall_clock_s", "trials_per_s"] {
        assert!(
            last.get(field).is_some(),
            "latest bench run is missing '{field}'"
        );
    }

    println!(
        "\nshape check {}: memoized trials byte-identical to direct trials; bench series round-trips",
        if speedup_vs_pre_pr >= TARGET_SPEEDUP {
            "PASS (≥3x vs pre-PR baseline)"
        } else {
            "PASS (identity; speedup below 3x on this host/trial count)"
        }
    );
}
