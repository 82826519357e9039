//! The machine-readable campaign record: `results/summary.json`.
//!
//! Every campaign appends/updates one record under `campaigns.<name>`,
//! leaving other experiments' records intact. A record has two parts:
//!
//! * **deterministic** fields — seed, trials per cell, cell names and
//!   metrics, CSV digests — identical for every thread count, which the
//!   determinism suite asserts via [`Summary::deterministic_json`];
//! * a **timing** object — worker count, wall-clock, throughput, the
//!   per-thread-count `runs` history, and `speedup_vs_serial` once both a
//!   serial and a parallel run have been recorded — explicitly excluded
//!   from determinism comparisons.

use std::path::PathBuf;

use crate::json::Json;
use crate::report::{fnv1a, results_dir, update_json, Table};
use crate::runner::{Campaign, CampaignResult};

/// Builder for one campaign's `summary.json` record.
#[derive(Debug, Clone)]
pub struct Summary {
    name: String,
    seed: u64,
    trials_per_cell: u32,
    cells: Vec<Json>,
    metrics: Vec<(String, Json)>,
    tables: Vec<Json>,
    timing_metrics: Vec<(String, Json)>,
}

impl Summary {
    /// Starts a record for the campaign `name` (the key under `campaigns`).
    #[must_use]
    pub fn new(name: &str, campaign: &Campaign) -> Self {
        Summary {
            name: name.to_string(),
            seed: campaign.seed,
            trials_per_cell: campaign.trials,
            cells: Vec::new(),
            metrics: Vec::new(),
            tables: Vec::new(),
            timing_metrics: Vec::new(),
        }
    }

    /// Records one cell with its headline metric(s).
    pub fn cell(&mut self, name: &str, metrics: &[(&str, Json)]) {
        let mut obj = Json::obj();
        obj.set("name", name);
        for (key, value) in metrics {
            obj.set(key, value.clone());
        }
        self.cells.push(obj);
    }

    /// Records a campaign-level deterministic metric.
    pub fn metric(&mut self, key: &str, value: impl Into<Json>) {
        self.metrics.push((key.to_string(), value.into()));
    }

    /// Records a wall-clock-derived metric (e.g. a measured speedup). It
    /// lands in the record's `timing` object, which is explicitly excluded
    /// from determinism comparisons — use [`Summary::metric`] for anything
    /// that must be byte-identical across runs and thread counts.
    pub fn timing_metric(&mut self, key: &str, value: impl Into<Json>) {
        self.timing_metrics.push((key.to_string(), value.into()));
    }

    /// Records a CSV artifact: name, row count, and FNV-1a digest of its
    /// bytes. The digest is what makes "CSVs are byte-identical across
    /// thread counts" machine-checkable from the summary alone.
    pub fn table(&mut self, name: &str, table: &Table) {
        let mut obj = Json::obj();
        obj.set("csv", format!("{name}.csv"));
        obj.set("rows", table.row_count());
        obj.set("fnv1a", fnv1a(table.to_csv_string().as_bytes()));
        self.tables.push(obj);
    }

    /// The deterministic portion of the record (everything but timing).
    #[must_use]
    pub fn deterministic_json(&self) -> Json {
        let mut record = Json::obj();
        record.set("seed", self.seed);
        record.set("trials_per_cell", self.trials_per_cell);
        if !self.cells.is_empty() {
            record.set("cells", Json::Arr(self.cells.clone()));
        }
        for (key, value) in &self.metrics {
            record.set(key, value.clone());
        }
        if !self.tables.is_empty() {
            record.set("artifacts", Json::Arr(self.tables.clone()));
        }
        record
    }

    /// Builds the full record (deterministic fields + timing) and merges it
    /// into `results/summary.json`, preserving other campaigns' records and
    /// this campaign's wall-clock history for other thread counts.
    ///
    /// # Panics
    ///
    /// Panics if the summary file cannot be written.
    pub fn write<T>(&self, result: &CampaignResult<T>) {
        let path = summary_path();
        update_json(&path, |doc| self.merge_into(doc, result));
        println!("[summary] {}", path.display());
    }

    /// The merge step of [`Summary::write`], on an in-memory document
    /// (separated for tests).
    pub fn merge_into<T>(&self, doc: &mut Json, result: &CampaignResult<T>) {
        let wall = result.wall_clock.as_secs_f64();
        if doc.get("campaigns").is_none() {
            doc.set("schema", 1u64);
            doc.set("campaigns", Json::obj());
        }
        let campaigns = doc.get_mut("campaigns").expect("just ensured");

        // Carry the wall-clock history for other thread counts forward from
        // the previous record — but only when it measured the same campaign
        // shape (seed and trial count); otherwise the history would compare
        // wall-clocks of different workloads. Then overwrite this thread
        // count's entry.
        let mut runs = campaigns
            .get(&self.name)
            .filter(|prev| {
                prev.get("seed") == Some(&Json::UInt(self.seed))
                    && prev.get("trials_per_cell")
                        == Some(&Json::UInt(u64::from(self.trials_per_cell)))
            })
            .and_then(|prev| prev.get("timing"))
            .and_then(|timing| timing.get("runs"))
            .cloned()
            .filter(|r| matches!(r, Json::Obj(_)))
            .unwrap_or_else(Json::obj);
        runs.set(&result.threads.to_string(), wall);

        let mut timing = Json::obj();
        timing.set("threads", result.threads);
        timing.set("wall_clock_s", wall);
        timing.set("trials_per_s", result.trials_per_second());
        if let Some(speedup) = speedup_vs_serial(&runs) {
            timing.set("speedup_vs_serial", speedup);
        }
        for (key, value) in &self.timing_metrics {
            timing.set(key, value.clone());
        }
        timing.set("runs", runs);

        let mut record = self.deterministic_json();
        record.set("timing", timing);
        campaigns.set(&self.name, record);
    }
}

/// `wall(threads=1) / min(wall(threads>1))`, once both have been recorded.
fn speedup_vs_serial(runs: &Json) -> Option<f64> {
    let entries = runs.entries()?;
    let serial = runs.get("1").and_then(Json::as_f64)?;
    let best_parallel = entries
        .iter()
        .filter(|(k, _)| k != "1")
        .filter_map(|(_, v)| v.as_f64())
        .fold(f64::INFINITY, f64::min);
    (best_parallel.is_finite() && best_parallel > 0.0).then(|| serial / best_parallel)
}

/// Path of the shared summary file.
#[must_use]
pub fn summary_path() -> PathBuf {
    results_dir().join("summary.json")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn result(threads: usize, wall_ms: u64) -> CampaignResult<()> {
        CampaignResult {
            cells: Vec::new(),
            threads,
            wall_clock: Duration::from_millis(wall_ms),
            total_trials: 100,
        }
    }

    fn summary() -> Summary {
        let campaign = Campaign {
            trials: 10,
            seed: 42,
            threads: 1,
        };
        let mut s = Summary::new("demo", &campaign);
        s.cell("quiet", &[("rate", Json::Float(0.5))]);
        s.metric("overall", 0.75f64);
        s
    }

    #[test]
    fn merge_accumulates_runs_and_computes_speedup() {
        let mut doc = Json::obj();
        let s = summary();
        s.merge_into(&mut doc, &result(1, 800));
        let timing = |d: &Json| {
            d.get("campaigns")
                .unwrap()
                .get("demo")
                .unwrap()
                .get("timing")
                .cloned()
                .unwrap()
        };
        assert!(timing(&doc).get("speedup_vs_serial").is_none());

        s.merge_into(&mut doc, &result(8, 200));
        let t = timing(&doc);
        let speedup = t.get("speedup_vs_serial").and_then(Json::as_f64).unwrap();
        assert!((speedup - 4.0).abs() < 1e-9, "speedup {speedup}");
        // Both runs survive in the history.
        assert!(t.get("runs").unwrap().get("1").is_some());
        assert!(t.get("runs").unwrap().get("8").is_some());
    }

    #[test]
    fn runs_history_resets_when_the_campaign_shape_changes() {
        let mut doc = Json::obj();
        let s = summary();
        s.merge_into(&mut doc, &result(1, 800));
        // Same name, different trial count: the old serial wall-clock must
        // not be compared against the new workload.
        let campaign = Campaign {
            trials: 99,
            seed: 42,
            threads: 1,
        };
        let changed = Summary::new("demo", &campaign);
        changed.merge_into(&mut doc, &result(8, 200));
        let timing = doc
            .get("campaigns")
            .unwrap()
            .get("demo")
            .unwrap()
            .get("timing")
            .unwrap();
        assert!(timing.get("runs").unwrap().get("1").is_none());
        assert!(timing.get("speedup_vs_serial").is_none());
    }

    #[test]
    fn timing_metrics_land_in_timing_not_the_deterministic_record() {
        let mut s = summary();
        s.timing_metric("forked_speedup", 8.5f64);
        let text = s.deterministic_json().pretty();
        assert!(!text.contains("forked_speedup"));
        let mut doc = Json::obj();
        s.merge_into(&mut doc, &result(1, 10));
        let timing = doc
            .get("campaigns")
            .unwrap()
            .get("demo")
            .unwrap()
            .get("timing")
            .unwrap();
        assert_eq!(
            timing.get("forked_speedup").and_then(Json::as_f64),
            Some(8.5)
        );
    }

    #[test]
    fn merge_preserves_other_campaigns() {
        let mut doc = Json::obj();
        summary().merge_into(&mut doc, &result(1, 10));
        let campaign = Campaign {
            trials: 5,
            seed: 7,
            threads: 2,
        };
        Summary::new("other", &campaign).merge_into(&mut doc, &result(2, 20));
        let campaigns = doc.get("campaigns").unwrap();
        assert!(campaigns.get("demo").is_some());
        assert!(campaigns.get("other").is_some());
    }

    #[test]
    fn deterministic_json_excludes_timing() {
        let s = summary();
        let text = s.deterministic_json().pretty();
        assert!(!text.contains("wall_clock"));
        assert!(!text.contains("threads"));
        assert!(text.contains("\"seed\": 42"));
        assert!(text.contains("\"rate\": 0.5"));
    }
}
