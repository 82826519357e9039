//! Named metrics with units, small order statistics, and the result line.

use std::fmt::Write as _;

/// End-to-end metrics, printed with `--trace 0`: (name, unit).
pub const END_TO_END: [(&str, &str); 5] = [
    ("trials_per_s", "1/s"),
    ("trial_ms_p50", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("key_rate", "ratio"),
];

/// Per-layer metrics, printed with `--trace 1`: (name, unit).
pub const PER_LAYER: [(&str, &str); 54] = [
    ("core.trial.ms_p90", "ms"),
    ("core.trial.samples", "count"),
    ("core.template.ms", "ms"),
    ("core.template.ns_per_row", "ns/row"),
    ("core.release.ms", "ms"),
    ("core.steer.ms", "ms"),
    ("core.hammer.ms", "ms"),
    ("core.collect.ms", "ms"),
    ("core.collect.ns_per_ciphertext", "ns/ct"),
    ("core.analyze.ms", "ms"),
    ("core.stop_victim.ms", "ms"),
    ("core.driver.self_ms", "ms"),
    ("machine.fork.ms", "ms"),
    ("core.template.sim_ms", "sim_ms"),
    ("core.release.sim_ms", "sim_ms"),
    ("core.steer.sim_ms", "sim_ms"),
    ("core.hammer.sim_ms", "sim_ms"),
    ("core.collect.sim_ms", "sim_ms"),
    ("core.analyze.sim_ms", "sim_ms"),
    ("core.template.memo_hit_rate", "ratio"),
    ("core.template.usable_frac", "ratio"),
    ("core.steer.success_rate", "ratio"),
    ("core.collect.converged_frac", "ratio"),
    ("machine.reads", "count"),
    ("machine.writes", "count"),
    ("machine.flushes", "count"),
    ("machine.hammer_pairs", "count"),
    ("machine.page_faults", "count"),
    ("dram.acts", "count"),
    ("dram.row_hits", "count"),
    ("dram.flips", "count"),
    ("dram.refs", "count"),
    ("dram.trr_triggers", "count"),
    ("cachesim.tlb.lookups", "count"),
    ("cachesim.tlb.misses", "count"),
    ("cachesim.tlb.hit_rate", "ratio"),
    ("memsim.allocs", "count"),
    ("memsim.pcp_hit_rate", "ratio"),
    ("probe.machine.read_byte_ns", "ns"),
    ("probe.machine.fill_page_ns", "ns"),
    ("probe.machine.hammer_ms", "ms"),
    ("probe.machine.translate_walk_ns", "ns"),
    ("probe.ciphers.aes_sbox_encrypt_ns", "ns"),
    ("probe.ciphers.aes_ttable_encrypt_ns", "ns"),
    ("host.calib_ms", "ms"),
    ("host.speed", "ratio"),
    ("reconcile.collect_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("trace.untraced_trials_per_s", "1/s"),
    ("trace.traced_trials_per_s", "1/s"),
    ("trace.traced_trials", "count"),
    ("core.collect.ciphertexts", "count"),
    ("core.template.rows", "count"),
    ("core.trial.sim_ms", "sim_ms"),
];

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as declared in `BENCHMARK.json`.
    pub name: &'static str,
    /// The value as measured.
    pub value: f64,
    /// Unit, as declared in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Builds metrics from (name, value) pairs, taking each unit from the
/// declared list; a name missing from `declared` is a bug.
///
/// # Panics
///
/// Panics if a name is not declared.
pub fn with_units(
    declared: &[(&'static str, &'static str)],
    values: &[(&str, f64)],
) -> Vec<Metric> {
    values
        .iter()
        .map(|&(name, value)| {
            let &(name, unit) = declared
                .iter()
                .find(|(n, _)| *n == name)
                .unwrap_or_else(|| panic!("metric {name} is not declared"));
            Metric { name, value, unit }
        })
        .collect()
}

/// Median of `xs` (0 for an empty slice).
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 0.5)
}

/// Nearest-rank percentile `q` (0..=1) of `xs` (0 for an empty slice).
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// `num / den`, or 0 when there is nothing to divide.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The result line: one JSON object with `correct`, `attempted`, `failed`
/// and every metric with its unit.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    out.push_str("}}");
    out
}
