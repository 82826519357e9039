//! One benchmark run: set up, check the reports, measure, and derive the
//! metrics.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use explframe_core::{AttackError, AttackReport, VictimCipherKind};

use crate::metrics::{median, percentile, ratio, with_units, Metric, END_TO_END, PER_LAYER};
use crate::pins;
use crate::probe;
use crate::speed;
use crate::trace::{check_spans, Recorder, Span, COUNTERS};
use crate::workload::{Bench, Workload};

/// The seed the pinned digests were taken at.
pub const DEFAULT_SEED: u64 = 1;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 15;
/// Set-ups timed together in one repetition, so that a sub-millisecond
/// boot is long against the speed kernel bracketing it.
const SETUP_BATCH: u32 = 10;

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Base seed: the machine's seed, and the first trial's attacker seed.
    pub seed: u64,
    /// How long to measure. A run always completes at least one pass.
    pub seconds: f64,
    /// `false`: end-to-end metrics. `true`: the traced pass, probes and
    /// per-layer metrics.
    pub trace: bool,
    /// Distinct trials per pass (default: the workload's pass size).
    pub trials: Option<u64>,
}

/// What a run measured.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Every report matched its reference and every check held.
    pub correct: bool,
    /// Trials attempted (reference pass, oracle, measured loops).
    pub attempted: u64,
    /// Trials that errored, panicked or produced different report bytes.
    pub failed: u64,
    /// FNV-1a digest of the reference pass's report bytes, in trial order.
    pub digest: u64,
    /// Per-trial digests of the reference pass.
    pub trial_digests: Vec<u64>,
    /// Every metric, with its unit.
    pub metrics: Vec<Metric>,
    /// The traced pass's spans (empty without `trace`).
    pub spans: Vec<Span>,
    /// Why `correct` is false, if it is.
    pub problems: Vec<String>,
}

/// 64-bit FNV-1a.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A report's bytes: its full `Debug` rendering (counters, keys, outcome,
/// simulated clock), so any divergence shows.
pub fn report_bytes(report: &AttackReport) -> String {
    format!("{report:?}")
}

/// Runs one trial, turning errors and panics into `None`.
fn attempt(trial: impl FnOnce() -> Result<AttackReport, AttackError>) -> Option<AttackReport> {
    catch_unwind(AssertUnwindSafe(trial)).ok()?.ok()
}

/// A measured loop over the pass. Latencies are host times rescaled to
/// reference speed (see [`speed`]).
#[derive(Debug, Default)]
struct Timed {
    trials: u64,
    failed: u64,
    /// Latency of every execution, in ms, indexed by trial.
    latencies_ms: Vec<Vec<f64>>,
    /// Host speed factor of every execution, in execution order.
    speeds: Vec<f64>,
}

impl Timed {
    /// Every execution's latency, in ms.
    fn all_ms(&self) -> Vec<f64> {
        self.latencies_ms.iter().flatten().copied().collect()
    }

    /// Each trial's median latency over its executions, in ms.
    fn trial_ms(&self) -> Vec<f64> {
        self.latencies_ms.iter().map(|l| median(l)).collect()
    }

    /// Steady-state trials per second: the pass size over the sum of the
    /// trials' median latencies.
    fn per_s(&self) -> f64 {
        let trial_ms = self.trial_ms();
        ratio(trial_ms.len() as f64 * 1e3, trial_ms.iter().sum())
    }
}

/// The reference pass: every trial's report bytes (`None` if it failed)
/// and whether it recovered the correct key.
#[derive(Debug, Default)]
struct Reference {
    bytes: Vec<Option<String>>,
    keys: u64,
}

impl Reference {
    /// Per-trial FNV-1a digests of the report bytes.
    fn digests(&self) -> Vec<u64> {
        self.bytes
            .iter()
            .map(|r| fnv1a(r.as_deref().unwrap_or("error").as_bytes()))
            .collect()
    }
}

/// Cycles through the pass's `n` trials — at least once, then until
/// `seconds` have passed. The first execution of a trial not yet in
/// `reference` records it there; every other execution must reproduce the
/// recorded bytes exactly.
fn timed_loop(
    n: u64,
    seconds: f64,
    reference: &mut Reference,
    mut trial: impl FnMut(u64) -> Result<AttackReport, AttackError>,
) -> Timed {
    let budget = Duration::from_secs_f64(seconds.max(0.0));
    let mut timed = Timed::default();
    let start = Instant::now();
    loop {
        let t = timed.trials % n;
        let (got, secs, speed) = speed::timed(|| attempt(|| trial(t)));
        let ms = secs * 1e3;
        timed.speeds.push(speed);
        match timed.latencies_ms.get_mut(t as usize) {
            Some(l) => l.push(ms),
            None => timed.latencies_ms.push(vec![ms]),
        }
        if reference.bytes.len() as u64 == t {
            reference.keys += u64::from(got.as_ref().is_some_and(AttackReport::succeeded));
            timed.failed += u64::from(got.is_none());
            reference.bytes.push(got.map(|r| report_bytes(&r)));
        } else {
            let expected = reference.bytes[t as usize].as_deref();
            if expected.is_none() || got.map(|r| report_bytes(&r)).as_deref() != expected {
                timed.failed += 1;
            }
        }
        timed.trials += 1;
        if timed.trials >= n && start.elapsed() >= budget {
            break;
        }
    }
    timed
}

/// Peak resident set size of this process, in MB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Runs the benchmark.
///
/// # Errors
///
/// Returns a message if set-up fails or the host cannot report memory use;
/// trial failures are counted in the outcome instead.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    // The benchmark measures from outside; the in-process perf registry
    // stays off whatever the environment says.
    perf::disable();
    let workload = opts.workload;
    let n = opts.trials.unwrap_or(workload.pass_trials()).max(1);
    let mut problems = Vec::new();

    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut bench = None;
    for _ in 0..SETUP_REPS {
        let (booted, secs, _) = speed::timed(|| {
            (1..SETUP_BATCH).try_for_each(|_| Bench::setup(workload, opts.seed).map(drop))?;
            Bench::setup(workload, opts.seed)
        });
        bench = Some(booted.map_err(|e| format!("set-up: {e}"))?);
        setups.push(secs / f64::from(SETUP_BATCH));
    }
    let mut bench = bench.expect("at least one set-up");

    // The first pass records the reference bytes every later execution of
    // a trial (repeat, traced, or fresh boot) must reproduce.
    let mut reference = Reference::default();
    let mut attempted = 0;
    let mut failed = 0;
    let (metrics, spans) = if opts.trace {
        let untraced = timed_loop(n, opts.seconds / 2.0, &mut reference, |t| bench.trial(t));
        let (hits0, misses0) = (bench.memo.hits(), bench.memo.misses());
        let mut rec = Recorder::default();
        let mut reports = Vec::new();
        let traced = timed_loop(n, opts.seconds / 2.0, &mut reference, |t| {
            let report = rec.trial(&mut bench, t)?;
            reports.push(report.clone());
            Ok(report)
        });
        let memo = (bench.memo.hits() - hits0, bench.memo.misses() - misses0);
        attempted += untraced.trials + traced.trials;
        failed += untraced.failed + traced.failed;
        if traced.failed > 0 {
            problems.push(format!(
                "{} traced reports differ from the untraced ones",
                traced.failed
            ));
        }
        if let Err(e) = check_spans(&rec.spans) {
            failed += 1;
            problems.push(format!("span check: {e}"));
        }
        let cfg = workload.config(opts.seed, 0);
        let (probes, _, probe_speed) = speed::timed(|| probe::run(&bench.snapshot, &cfg));
        let probes = probes?;
        let metrics = layer_metrics(&LayerInputs {
            untraced: &untraced,
            traced: &traced,
            rec: &rec,
            reports: &reports,
            memo,
            probes,
            probe_speed,
            victim: cfg.victim,
        });
        (metrics, rec.spans)
    } else {
        let timed = timed_loop(n, opts.seconds, &mut reference, |t| bench.trial(t));
        attempted += timed.trials;
        failed += timed.failed;
        let values = [
            ("trials_per_s", timed.per_s()),
            ("trial_ms_p50", median(&timed.trial_ms())),
            ("setup_s", median(&setups)),
            ("peak_rss_mb", peak_rss_mb()?),
            ("key_rate", reference.keys as f64 / n as f64),
        ];
        (with_units(&END_TO_END, &values), Vec::new())
    };
    let trial_digests = reference.digests();
    failed += check_reference(opts, &bench, &reference, &trial_digests, &mut problems);
    attempted += 1;
    let digest = fnv1a(
        &trial_digests
            .iter()
            .flat_map(|d| d.to_le_bytes())
            .collect::<Vec<_>>(),
    );
    if failed > 0 && problems.is_empty() {
        problems.push(format!("{failed} trials errored or changed their report"));
    }
    Ok(Outcome {
        correct: failed == 0 && problems.is_empty(),
        attempted,
        failed,
        digest,
        trial_digests,
        metrics,
        spans,
        problems,
    })
}

/// Checks the reference pass against the pinned digests (at the default
/// seed and pass size) and trial 0 against a fresh boot without fork or
/// memo. Returns the number of failed checks.
fn check_reference(
    opts: &Options,
    bench: &Bench,
    reference: &Reference,
    digests: &[u64],
    problems: &mut Vec<String>,
) -> u64 {
    let mut failed = 0;
    let n = digests.len();
    if opts.seed == DEFAULT_SEED && n as u64 == opts.workload.pass_trials() {
        let pinned = pins::pinned(opts.workload);
        let mismatched = (0..n)
            .filter(|&t| pinned.get(t) != Some(&digests[t]))
            .count();
        if mismatched > 0 {
            failed += mismatched as u64;
            problems.push(format!(
                "{mismatched} of {n} reports differ from the pinned digests; this pass:\n{}",
                digests
                    .iter()
                    .map(|d| format!("{d:#018x}\n"))
                    .collect::<String>()
            ));
        }
    }
    let cold = attempt(|| bench.cold_trial(0)).map(|r| report_bytes(&r));
    if cold.is_none() || cold != reference.bytes[0] {
        failed += 1;
        problems.push("trial 0 on a fresh boot differs from the forked run".to_string());
    }
    failed
}

/// Everything the per-layer metrics are derived from.
struct LayerInputs<'a> {
    untraced: &'a Timed,
    traced: &'a Timed,
    rec: &'a Recorder,
    reports: &'a [AttackReport],
    memo: (u64, u64),
    probes: probe::Probes,
    probe_speed: f64,
    victim: VictimCipherKind,
}

/// Derives every per-layer metric; times and counts are per traced trial,
/// and host times are rescaled to reference speed like the end-to-end
/// latencies (each span by its trial's speed factor).
fn layer_metrics(inp: &LayerInputs<'_>) -> Vec<Metric> {
    let spans = &inp.rec.spans;
    let trials = spans.iter().filter(|s| s.is_trial()).count() as f64;
    let mut execution = 0;
    let scaled_ns: Vec<f64> = spans
        .iter()
        .map(|s| {
            let speed = inp.traced.speeds.get(execution).copied().unwrap_or(1.0);
            execution += usize::from(s.is_trial());
            s.ns() as f64 * speed
        })
        .collect();
    let ns = |name: &str| -> f64 {
        spans
            .iter()
            .zip(&scaled_ns)
            .filter(|(s, _)| s.name == name)
            .map(|(_, ns)| ns)
            .sum()
    };
    let per_trial_ms = |name: &str| ns(name) / trials / 1e6;
    let sim_ms = |name: &str| -> f64 {
        let total: u64 = spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.sim_ns)
            .sum();
        total as f64 / trials / 1e6
    };
    let child_ns: f64 = spans
        .iter()
        .zip(&scaled_ns)
        .filter(|(s, _)| !s.is_trial())
        .map(|(_, ns)| ns)
        .sum();
    let totals = spans
        .iter()
        .filter(|s| s.is_trial())
        .fold(crate::trace::Counts::default(), |acc, s| acc.plus(s.counts));
    let count = |name: &str| totals.get(name) as f64;
    let collect_reads: u64 = spans
        .iter()
        .filter(|s| s.name == "collect")
        .map(|s| s.counts.get("machine.reads"))
        .sum();
    let sum_tally = |f: fn(&crate::trace::Tally) -> u64| -> f64 {
        inp.rec.tallies.iter().map(f).sum::<u64>() as f64
    };
    let sum_report =
        |f: fn(&AttackReport) -> u64| -> f64 { inp.reports.iter().map(f).sum::<u64>() as f64 };
    let rows = sum_tally(|t| t.rows_hammered);
    let ciphertexts = sum_tally(|t| t.ciphertexts);
    let mut p = inp.probes;
    for v in [
        &mut p.read_byte_ns,
        &mut p.fill_page_ns,
        &mut p.hammer_ms,
        &mut p.translate_walk_ns,
        &mut p.aes_sbox_encrypt_ns,
        &mut p.aes_ttable_encrypt_ns,
    ] {
        *v *= inp.probe_speed;
    }
    let encrypt_ns = match inp.victim {
        VictimCipherKind::AesTtable => p.aes_ttable_encrypt_ns,
        _ => p.aes_sbox_encrypt_ns,
    };
    let modelled_collect_ns = collect_reads as f64 * p.read_byte_ns + ciphertexts * encrypt_ns;

    let mut values: Vec<(&str, f64)> = vec![
        ("core.trial.ms_p90", percentile(&inp.untraced.all_ms(), 0.9)),
        ("core.trial.samples", inp.untraced.trials as f64),
        ("core.template.ms", per_trial_ms("template")),
        ("core.template.ns_per_row", ratio(ns("template"), rows)),
        ("core.release.ms", per_trial_ms("release")),
        ("core.steer.ms", per_trial_ms("steer")),
        ("core.hammer.ms", per_trial_ms("hammer")),
        ("core.collect.ms", per_trial_ms("collect")),
        (
            "core.collect.ns_per_ciphertext",
            ratio(ns("collect"), ciphertexts),
        ),
        ("core.analyze.ms", per_trial_ms("analyze")),
        ("core.stop_victim.ms", per_trial_ms("stop_victim")),
        (
            "core.driver.self_ms",
            (ns("trial") - child_ns) / trials / 1e6,
        ),
        ("machine.fork.ms", per_trial_ms("fork")),
        ("core.template.sim_ms", sim_ms("template")),
        ("core.release.sim_ms", sim_ms("release")),
        ("core.steer.sim_ms", sim_ms("steer")),
        ("core.hammer.sim_ms", sim_ms("hammer")),
        ("core.collect.sim_ms", sim_ms("collect")),
        ("core.analyze.sim_ms", sim_ms("analyze")),
        ("core.trial.sim_ms", sim_ms("trial")),
        (
            "core.template.memo_hit_rate",
            ratio(inp.memo.0 as f64, (inp.memo.0 + inp.memo.1) as f64),
        ),
        (
            "core.template.usable_frac",
            ratio(
                sum_report(|r| r.usable_templates as u64),
                sum_report(|r| r.templates_found as u64),
            ),
        ),
        (
            "core.steer.success_rate",
            ratio(
                sum_report(|r| u64::from(r.steering_successes)),
                sum_report(|r| u64::from(r.fault_rounds)),
            ),
        ),
        (
            "core.collect.converged_frac",
            ratio(sum_tally(|t| t.converged), sum_tally(|t| t.collects)),
        ),
        ("core.collect.ciphertexts", ciphertexts / trials),
        ("core.template.rows", rows / trials),
        (
            "cachesim.tlb.hit_rate",
            1.0 - ratio(count("cachesim.tlb.misses"), count("cachesim.tlb.lookups")),
        ),
        (
            "memsim.pcp_hit_rate",
            ratio(count("memsim.pcp_hits"), count("memsim.allocs")),
        ),
        ("probe.machine.read_byte_ns", p.read_byte_ns),
        ("probe.machine.fill_page_ns", p.fill_page_ns),
        ("probe.machine.hammer_ms", p.hammer_ms),
        ("probe.machine.translate_walk_ns", p.translate_walk_ns),
        ("probe.ciphers.aes_sbox_encrypt_ns", p.aes_sbox_encrypt_ns),
        (
            "probe.ciphers.aes_ttable_encrypt_ns",
            p.aes_ttable_encrypt_ns,
        ),
        ("host.calib_ms", p.calib_ms),
        ("host.speed", median(&inp.untraced.speeds)),
        (
            "reconcile.collect_frac",
            ratio(modelled_collect_ns, ns("collect")),
        ),
        (
            "trace.overhead_frac",
            1.0 - ratio(inp.traced.per_s(), inp.untraced.per_s()),
        ),
        ("trace.untraced_trials_per_s", inp.untraced.per_s()),
        ("trace.traced_trials_per_s", inp.traced.per_s()),
        ("trace.traced_trials", trials),
    ];
    for name in COUNTERS {
        if PER_LAYER.iter().any(|(n, _)| *n == name) {
            values.push((name, count(name) / trials));
        }
    }
    let mut metrics = with_units(&PER_LAYER, &values);
    let order = |m: &Metric| PER_LAYER.iter().position(|(n, _)| *n == m.name);
    metrics.sort_by_key(order);
    metrics
}
