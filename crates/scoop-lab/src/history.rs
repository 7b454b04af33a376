//! Per-commit performance history (`BENCH_history.jsonl`).
//!
//! Every `scoop-lab run --history <file>` appends one JSON line recording
//! the wall-clock of each experiment in the run, keyed by git revision. CI
//! appends a line per commit, turning the file into a coarse perf
//! trajectory — enough to spot a simulation slowdown without a dedicated
//! benchmarking service. JSONL appends never rewrite history, so the file is
//! merge-friendly.

use crate::artifact::Artifact;
use scoop_types::ScoopError;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::io::Write;
use std::path::Path;

/// Experiments shorter than this in the baseline record are gated only
/// through the run total: scheduler jitter of a few milliseconds is a large
/// fraction of them, and would fail the per-experiment gate at random.
const MIN_GATED_EXPERIMENT_SECS: f64 = 0.2;

/// One experiment's timing within a history record.
///
/// The throughput fields carry `#[serde(default)]` so records appended
/// before they existed still parse (as zero) when the regression gate walks
/// the file.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ExperimentTiming {
    /// Experiment slug.
    pub experiment: String,
    /// Rows produced.
    pub rows: usize,
    /// Wall-clock seconds.
    pub wall_clock_secs: f64,
    /// Engine events dispatched (0 in pre-throughput records).
    #[serde(default)]
    pub events_processed: u64,
    /// Events per wall-clock second (0 in pre-throughput records).
    #[serde(default)]
    pub events_per_sec: f64,
    /// Process peak RSS in bytes when the experiment finished (0 in
    /// pre-memory records). A monotone high-water mark: within one run it
    /// only grows across experiments.
    #[serde(default)]
    pub peak_rss_bytes: u64,
}

/// One appended line of `BENCH_history.jsonl`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct HistoryRecord {
    /// Git revision the suite ran at.
    pub git_rev: String,
    /// Scale name (`"paper"` / `"quick"`).
    pub scale: String,
    /// Trials per scenario.
    pub trials: usize,
    /// Sweep worker threads.
    pub threads: usize,
    /// Sum of per-experiment wall-clocks.
    pub total_wall_clock_secs: f64,
    /// Sum of per-experiment dispatched events (0 in pre-throughput records).
    #[serde(default)]
    pub total_events_processed: u64,
    /// Peak RSS in bytes over the whole run — the maximum of the
    /// per-experiment high-water marks (0 in pre-memory records).
    #[serde(default)]
    pub peak_rss_bytes: u64,
    /// Records ingested into the durable store (only set on `scale:"store"`
    /// records appended by `scoop-lab store ingest --history`; elided as 0
    /// on simulation records so their lines are unchanged).
    #[serde(default, skip_serializing_if = "is_zero_u64")]
    pub store_records: u64,
    /// Durable-store ingest throughput, records per second.
    #[serde(default, skip_serializing_if = "is_zero_f64")]
    pub store_ingest_records_per_sec: f64,
    /// Wall-clock seconds spent building learned indexes during the ingest.
    #[serde(default, skip_serializing_if = "is_zero_f64")]
    pub store_index_build_secs: f64,
    /// Bytes the store occupies on disk after the ingest.
    #[serde(default, skip_serializing_if = "is_zero_u64")]
    pub store_disk_bytes: u64,
    /// Queries completed by a `scoop-serve bench` run (only set on
    /// `scale:"serve"` records; elided as 0 elsewhere so simulation and
    /// store lines are unchanged).
    #[serde(default, skip_serializing_if = "is_zero_u64")]
    pub serve_queries: u64,
    /// Serving throughput, completed queries per wall-clock second.
    #[serde(default, skip_serializing_if = "is_zero_f64")]
    pub serve_qps: f64,
    /// Median served-request latency, in milliseconds.
    #[serde(default, skip_serializing_if = "is_zero_f64")]
    pub serve_p50_ms: f64,
    /// 99th-percentile served-request latency, in milliseconds.
    #[serde(default, skip_serializing_if = "is_zero_f64")]
    pub serve_p99_ms: f64,
    /// Per-experiment timings, in suite order.
    pub experiments: Vec<ExperimentTiming>,
}

fn is_zero_u64(v: &u64) -> bool {
    *v == 0
}

fn is_zero_f64(v: &f64) -> bool {
    *v == 0.0
}

impl HistoryRecord {
    /// Summarizes one finished suite run.
    pub fn from_artifacts(artifacts: &[Artifact]) -> Option<HistoryRecord> {
        let first = artifacts.first()?;
        let experiments: Vec<ExperimentTiming> = artifacts
            .iter()
            .map(|a| ExperimentTiming {
                experiment: a.experiment.clone(),
                rows: a.rows.len(),
                wall_clock_secs: a.provenance.wall_clock_secs,
                events_processed: a.provenance.events_processed,
                events_per_sec: a.provenance.events_per_sec,
                peak_rss_bytes: a.provenance.peak_rss_bytes,
            })
            .collect();
        Some(HistoryRecord {
            git_rev: first.provenance.git_rev.clone(),
            scale: first.scale.clone(),
            trials: first.trials,
            threads: first.provenance.threads,
            total_wall_clock_secs: experiments.iter().map(|e| e.wall_clock_secs).sum(),
            total_events_processed: experiments.iter().map(|e| e.events_processed).sum(),
            peak_rss_bytes: experiments
                .iter()
                .map(|e| e.peak_rss_bytes)
                .max()
                .unwrap_or(0),
            store_records: 0,
            store_ingest_records_per_sec: 0.0,
            store_index_build_secs: 0.0,
            store_disk_bytes: 0,
            serve_queries: 0,
            serve_qps: 0.0,
            serve_p50_ms: 0.0,
            serve_p99_ms: 0.0,
            experiments,
        })
    }

    /// Summarizes one `scoop-lab store ingest` for the perf trajectory.
    /// `scale` is `"store"`, so the history gate never compares these
    /// records against simulation runs.
    pub fn from_store_ingest(
        report: &scoop_store::IngestReport,
        stats: &scoop_store::StoreStats,
    ) -> HistoryRecord {
        HistoryRecord {
            git_rev: crate::artifact::workspace_git_rev(),
            scale: "store".to_string(),
            trials: 1,
            threads: 1,
            total_wall_clock_secs: report.ingest_secs,
            total_events_processed: 0,
            peak_rss_bytes: crate::artifact::peak_rss_bytes(),
            store_records: report.records,
            store_ingest_records_per_sec: report.records_per_sec,
            store_index_build_secs: stats.index_build_secs,
            store_disk_bytes: stats.disk_bytes,
            serve_queries: 0,
            serve_qps: 0.0,
            serve_p50_ms: 0.0,
            serve_p99_ms: 0.0,
            experiments: Vec::new(),
        }
    }

    /// Summarizes one `scoop-serve bench` run. `scale` is `"serve"` and the
    /// query count participates in comparability, so serving latency is
    /// gated only against runs of the same workload size and concurrency —
    /// never against simulation events/s records.
    pub fn from_serve_bench(
        queries: u64,
        wall_clock_secs: f64,
        qps: f64,
        p50_ms: f64,
        p99_ms: f64,
        concurrency: usize,
    ) -> HistoryRecord {
        HistoryRecord {
            git_rev: crate::artifact::workspace_git_rev(),
            scale: "serve".to_string(),
            trials: 1,
            threads: concurrency,
            total_wall_clock_secs: wall_clock_secs,
            total_events_processed: 0,
            peak_rss_bytes: crate::artifact::peak_rss_bytes(),
            store_records: 0,
            store_ingest_records_per_sec: 0.0,
            store_index_build_secs: 0.0,
            store_disk_bytes: 0,
            serve_queries: queries,
            serve_qps: qps,
            serve_p50_ms: p50_ms,
            serve_p99_ms: p99_ms,
            experiments: Vec::new(),
        }
    }

    /// The ids of the experiments this record ran.
    fn experiment_ids(&self) -> BTreeSet<&str> {
        self.experiments
            .iter()
            .map(|e| e.experiment.as_str())
            .collect()
    }

    /// Aggregate events per second over the whole run.
    pub fn events_per_sec(&self) -> f64 {
        if self.total_wall_clock_secs > 0.0 {
            self.total_events_processed as f64 / self.total_wall_clock_secs
        } else {
            0.0
        }
    }

    /// Appends this record as one line of `path`, creating the file if
    /// needed.
    pub fn append_to(&self, path: &Path) -> Result<(), ScoopError> {
        let line =
            serde_json::to_string(self).map_err(|e| ScoopError::Serialization(e.to_string()))?;
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| ScoopError::Artifact(format!("{}: {e}", path.display())))?;
        writeln!(file, "{line}")
            .map_err(|e| ScoopError::Artifact(format!("{}: {e}", path.display())))
    }
}

/// Loads every record of a `BENCH_history.jsonl` file, in append order.
/// Blank lines are skipped; a malformed line is an error (a truncated write
/// should fail the gate, not silently vanish).
pub fn load_history(path: &Path) -> Result<Vec<HistoryRecord>, ScoopError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| ScoopError::Artifact(format!("{}: {e}", path.display())))?;
    text.lines()
        .filter(|line| !line.trim().is_empty())
        .map(|line| {
            serde_json::from_str(line)
                .map_err(|e| ScoopError::Serialization(format!("{}: {e}", path.display())))
        })
        .collect()
}

/// The latest history record measured against the most recent *comparable*
/// earlier one (same scale, trials, sweep threads, and experiment id set — a
/// quick CI run must never be judged against a committed paper-scale run,
/// a 4-thread run against a 1-thread wall clock, nor a suite that gained or
/// swapped an experiment against one without it).
#[derive(Clone, Debug)]
pub struct HistoryDelta {
    /// The newest record (this commit's run).
    pub latest: HistoryRecord,
    /// The record it is compared against, if any exists.
    pub previous: Option<HistoryRecord>,
}

impl HistoryDelta {
    /// Splits the newest record off `records` and finds its comparison
    /// partner. `None` if the file is empty.
    pub fn from_records(records: &[HistoryRecord]) -> Option<HistoryDelta> {
        let latest = records.last()?.clone();
        let previous = records[..records.len() - 1]
            .iter()
            .rev()
            .find(|r| {
                r.scale == latest.scale
                    && r.trials == latest.trials
                    && r.threads == latest.threads
                    && r.experiment_ids() == latest.experiment_ids()
                    // Serving records additionally match on workload size, so
                    // a smoke-sized serve run is never judged against the
                    // million-query bench (0 == 0 keeps every older record
                    // kind comparable exactly as before).
                    && r.serve_queries == latest.serve_queries
            })
            .cloned();
        Some(HistoryDelta { latest, previous })
    }

    /// Wall-clock ratio `latest / previous` (`> 1` is a slowdown), if a
    /// comparable previous record exists and both totals are positive.
    pub fn wall_clock_ratio(&self) -> Option<f64> {
        let previous = self.previous.as_ref()?;
        if previous.total_wall_clock_secs <= 0.0 || self.latest.total_wall_clock_secs <= 0.0 {
            return None;
        }
        Some(self.latest.total_wall_clock_secs / previous.total_wall_clock_secs)
    }

    /// Per-experiment wall-clock ratios `latest / previous` (`> 1` is a
    /// slowdown), in the latest record's order, for every experiment both
    /// records ran that took at least `MIN_GATED_EXPERIMENT_SECS` (0.2 s)
    /// in the previous one.
    pub fn experiment_ratios(&self) -> Vec<(&str, f64)> {
        let Some(previous) = self.previous.as_ref() else {
            return Vec::new();
        };
        self.latest
            .experiments
            .iter()
            .filter_map(|e| {
                let before = previous
                    .experiments
                    .iter()
                    .find(|p| p.experiment == e.experiment)?;
                (before.wall_clock_secs >= MIN_GATED_EXPERIMENT_SECS && e.wall_clock_secs > 0.0)
                    .then(|| {
                        (
                            e.experiment.as_str(),
                            e.wall_clock_secs / before.wall_clock_secs,
                        )
                    })
            })
            .collect()
    }

    /// Tail-latency ratio `latest / previous` of served-request p99
    /// (`> 1` is a slowdown), if both records are serve records with
    /// positive p99s.
    pub fn serve_p99_ratio(&self) -> Option<f64> {
        let previous = self.previous.as_ref()?;
        if previous.serve_p99_ms <= 0.0 || self.latest.serve_p99_ms <= 0.0 {
            return None;
        }
        Some(self.latest.serve_p99_ms / previous.serve_p99_ms)
    }

    /// Whether the latest run regressed by more than `max_regression`
    /// (e.g. `0.25` fails anything over 1.25× the previous wall clock),
    /// in total or in any one gated experiment — a 2× slowdown of one
    /// experiment fails even when the others hide it in the total. Serve
    /// records are additionally gated on p99 latency.
    pub fn regressed(&self, max_regression: f64) -> bool {
        let over = |ratio: f64| ratio > 1.0 + max_regression;
        self.wall_clock_ratio().is_some_and(over)
            || self.serve_p99_ratio().is_some_and(over)
            || self.experiment_ratios().into_iter().any(|(_, r)| over(r))
    }

    /// Human-readable summary: per-experiment wall clock and events/sec of
    /// the latest record, plus the delta against the previous comparable run.
    pub fn render_text(&self, max_regression: f64) -> String {
        let mut out = String::new();
        let latest = &self.latest;
        out.push_str(&format!(
            "latest record: rev `{}` scale={} trials={} — {:.2} s total, \
             {} events ({:.0} events/s)",
            latest.git_rev,
            latest.scale,
            latest.trials,
            latest.total_wall_clock_secs,
            latest.total_events_processed,
            latest.events_per_sec(),
        ));
        if latest.peak_rss_bytes > 0 {
            out.push_str(&format!(
                ", peak RSS {:.1} MiB",
                latest.peak_rss_bytes as f64 / (1024.0 * 1024.0)
            ));
        }
        out.push('\n');
        if latest.serve_queries > 0 {
            out.push_str(&format!(
                "  serving: {} queries at {:.0} q/s, p50 {:.3} ms, p99 {:.3} ms\n",
                latest.serve_queries, latest.serve_qps, latest.serve_p50_ms, latest.serve_p99_ms
            ));
        }
        if latest.store_records > 0 {
            out.push_str(&format!(
                "  durable store: {} record(s) at {:.0} records/s, \
                 index built in {:.4} s, {} bytes on disk\n",
                latest.store_records,
                latest.store_ingest_records_per_sec,
                latest.store_index_build_secs,
                latest.store_disk_bytes
            ));
        }
        let ratios = self.experiment_ratios();
        for e in &latest.experiments {
            out.push_str(&format!(
                "  {:<18} {:>7.2} s  {:>10} events  {:>10.0} events/s",
                e.experiment, e.wall_clock_secs, e.events_processed, e.events_per_sec
            ));
            if let Some((_, ratio)) = ratios.iter().find(|(id, _)| *id == e.experiment) {
                out.push_str(&format!(
                    "  {:+.1} %{}",
                    (ratio - 1.0) * 100.0,
                    if *ratio > 1.0 + max_regression {
                        "  REGRESSION"
                    } else {
                        ""
                    }
                ));
            }
            out.push('\n');
        }
        match (&self.previous, self.wall_clock_ratio()) {
            (Some(previous), Some(ratio)) => {
                out.push_str(&format!(
                    "previous comparable record: rev `{}` — {:.2} s total\n\
                     wall-clock delta: {:+.1} % ({})\n",
                    previous.git_rev,
                    previous.total_wall_clock_secs,
                    (ratio - 1.0) * 100.0,
                    if self.regressed(max_regression) {
                        "REGRESSION over threshold"
                    } else if ratio < 1.0 {
                        "faster"
                    } else {
                        "within threshold"
                    },
                ));
                if let Some(p99_ratio) = self.serve_p99_ratio() {
                    out.push_str(&format!(
                        "serve p99 delta: {:+.1} % ({:.3} ms -> {:.3} ms)\n",
                        (p99_ratio - 1.0) * 100.0,
                        previous.serve_p99_ms,
                        self.latest.serve_p99_ms
                    ));
                }
            }
            _ => out.push_str(
                "no comparable previous record (same scale/trials/threads/experiment ids) — \
                 nothing to gate against\n",
            ),
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::{run_suite, SuiteOptions};

    #[test]
    fn record_summarizes_and_appends_jsonl() {
        let mut options = SuiteOptions::quick_smoke();
        options.experiments.truncate(2);
        let artifacts = run_suite(&options, |_| ()).unwrap();
        let record = HistoryRecord::from_artifacts(&artifacts).unwrap();
        assert_eq!(record.experiments.len(), 2);
        assert!(record.total_wall_clock_secs >= 0.0);
        assert_eq!(record.scale, "quick");

        let path =
            std::env::temp_dir().join(format!("scoop-lab-history-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        record.append_to(&path).unwrap();
        record.append_to(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 2);
        let back: HistoryRecord = serde_json::from_str(text.lines().next().unwrap()).unwrap();
        assert_eq!(back, record);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn empty_run_yields_no_record() {
        assert!(HistoryRecord::from_artifacts(&[]).is_none());
    }

    fn record(scale: &str, trials: usize, wall: f64, experiments: usize) -> HistoryRecord {
        HistoryRecord {
            git_rev: format!("rev-{wall}"),
            scale: scale.to_string(),
            trials,
            threads: 1,
            total_wall_clock_secs: wall,
            total_events_processed: (wall * 1_000_000.0) as u64,
            peak_rss_bytes: 64 * 1024 * 1024,
            store_records: 0,
            store_ingest_records_per_sec: 0.0,
            store_index_build_secs: 0.0,
            store_disk_bytes: 0,
            serve_queries: 0,
            serve_qps: 0.0,
            serve_p50_ms: 0.0,
            serve_p99_ms: 0.0,
            experiments: (0..experiments)
                .map(|i| ExperimentTiming {
                    experiment: format!("exp-{i}"),
                    rows: 3,
                    wall_clock_secs: wall / experiments as f64,
                    events_processed: 1000,
                    events_per_sec: 1000.0,
                    peak_rss_bytes: 64 * 1024 * 1024,
                })
                .collect(),
        }
    }

    #[test]
    fn delta_compares_only_same_shape_runs() {
        // quick records must not be judged against the paper-scale one, and
        // a run on different sweep threads is not comparable either.
        let mut other_threads = record("quick", 1, 1.0, 2);
        other_threads.threads = 4;
        let records = vec![
            record("paper", 3, 37.0, 2),
            record("quick", 1, 2.0, 2),
            other_threads,
            record("quick", 1, 2.2, 2),
        ];
        let delta = HistoryDelta::from_records(&records).unwrap();
        assert_eq!(delta.previous.as_ref().unwrap().total_wall_clock_secs, 2.0);
        let ratio = delta.wall_clock_ratio().unwrap();
        assert!((ratio - 1.1).abs() < 1e-9, "{ratio}");
        assert!(!delta.regressed(0.25));
        assert!(delta.regressed(0.05));
        let text = delta.render_text(0.25);
        assert!(text.contains("within threshold"), "{text}");

        let only = vec![record("paper", 3, 37.0, 2)];
        let delta = HistoryDelta::from_records(&only).unwrap();
        assert!(delta.previous.is_none());
        assert!(!delta.regressed(0.0), "no baseline, nothing to fail");
        assert!(delta.render_text(0.25).contains("no comparable previous"));
        assert!(HistoryDelta::from_records(&[]).is_none());
    }

    #[test]
    fn delta_requires_the_same_experiment_ids() {
        // Same count, one experiment swapped: not comparable. The older
        // record with the same ids is found instead.
        let mut swapped = record("quick", 1, 2.0, 2);
        swapped.experiments[1].experiment = "exp-new".to_string();
        let records = vec![
            record("quick", 1, 3.0, 2),
            swapped,
            record("quick", 1, 2.0, 2),
        ];
        let delta = HistoryDelta::from_records(&records).unwrap();
        assert_eq!(delta.previous.as_ref().unwrap().total_wall_clock_secs, 3.0);

        // A suite that gained an experiment has no baseline yet.
        let records = vec![record("quick", 1, 2.0, 2), record("quick", 1, 2.0, 3)];
        assert!(HistoryDelta::from_records(&records)
            .unwrap()
            .previous
            .is_none());
    }

    #[test]
    fn one_experiment_twice_as_slow_fails_the_gate() {
        // Five 2 s experiments; doubling one moves the total only +20 %,
        // under the 25 % bound, but that experiment alone is +100 %.
        let baseline = record("quick", 1, 10.0, 5);
        let identical = vec![baseline.clone(), baseline.clone()];
        let delta = HistoryDelta::from_records(&identical).unwrap();
        assert!(!delta.regressed(0.25));
        assert_eq!(delta.experiment_ratios().len(), 5);

        let mut slow = baseline.clone();
        slow.experiments[2].wall_clock_secs *= 2.0;
        slow.total_wall_clock_secs = slow.experiments.iter().map(|e| e.wall_clock_secs).sum();
        let delta = HistoryDelta::from_records(&[baseline, slow]).unwrap();
        let total = delta.wall_clock_ratio().unwrap();
        assert!((total - 1.2).abs() < 1e-9, "{total}");
        assert!(delta.regressed(0.25), "per-experiment gate must fire");
        let text = delta.render_text(0.25);
        assert!(text.contains("+100.0 %  REGRESSION"), "{text}");
    }

    #[test]
    fn experiments_under_the_floor_are_gated_only_through_the_total() {
        // 0.05 s experiments jitter by tens of percent on a shared runner.
        let baseline = record("chaos", 1, 0.15, 3);
        let mut jittery = baseline.clone();
        jittery.experiments[0].wall_clock_secs *= 2.0;
        let delta = HistoryDelta::from_records(&[baseline, jittery]).unwrap();
        assert!(delta.experiment_ratios().is_empty());
        assert!(!delta.regressed(0.25));
    }

    #[test]
    fn chaos_records_compare_only_against_chaos_records() {
        // The chaos gate's record carries the same experiment count (3) as a
        // hypothetical trimmed quick run could; only the scale override
        // keeps the two trajectories apart. A chaos record must reach past
        // quick, paper, and same-shaped foreign records to the previous
        // chaos one — and a quick record must never see a chaos baseline.
        let records = vec![
            record("chaos", 1, 4.0, 3),
            record("quick", 1, 2.0, 3),
            record("chaos", 1, 4.4, 3),
        ];
        let delta = HistoryDelta::from_records(&records).unwrap();
        let previous = delta.previous.as_ref().unwrap();
        assert_eq!(previous.scale, "chaos");
        assert_eq!(previous.total_wall_clock_secs, 4.0);
        let ratio = delta.wall_clock_ratio().unwrap();
        assert!((ratio - 1.1).abs() < 1e-9, "{ratio}");

        let records = vec![record("chaos", 1, 4.0, 3), record("quick", 1, 2.0, 3)];
        let delta = HistoryDelta::from_records(&records).unwrap();
        assert!(delta.previous.is_none(), "quick never gates against chaos");
    }

    fn serve_record(queries: u64, wall: f64, p99_ms: f64) -> HistoryRecord {
        let mut r = HistoryRecord::from_serve_bench(
            queries,
            wall,
            queries as f64 / wall,
            p99_ms / 2.0,
            p99_ms,
            32,
        );
        r.git_rev = format!("serve-{wall}-{p99_ms}");
        r
    }

    #[test]
    fn serve_records_compare_only_against_same_sized_serve_runs() {
        // A serve record must skip simulation and store records, and also a
        // serve run of a different query count, when picking its baseline.
        let records = vec![
            record("quick", 1, 2.0, 2),
            serve_record(1_000_000, 10.0, 4.0),
            serve_record(5_000, 0.1, 3.0),
            serve_record(1_000_000, 11.0, 4.2),
        ];
        let delta = HistoryDelta::from_records(&records).unwrap();
        let previous = delta.previous.as_ref().unwrap();
        assert_eq!(previous.serve_queries, 1_000_000);
        assert_eq!(previous.total_wall_clock_secs, 10.0);
        let p99 = delta.serve_p99_ratio().unwrap();
        assert!((p99 - 1.05).abs() < 1e-9, "{p99}");
        assert!(!delta.regressed(0.25));
        let text = delta.render_text(0.25);
        assert!(text.contains("serving: 1000000 queries"), "{text}");
        assert!(text.contains("serve p99 delta"), "{text}");

        // A simulation record never grows a serve baseline, and vice versa.
        let records = vec![serve_record(5_000, 0.1, 3.0), record("quick", 1, 2.0, 2)];
        let delta = HistoryDelta::from_records(&records).unwrap();
        assert!(delta.previous.is_none());
        assert!(delta.serve_p99_ratio().is_none());
    }

    #[test]
    fn serve_p99_regression_gates_even_when_wall_clock_is_flat() {
        let records = vec![
            serve_record(1_000_000, 10.0, 4.0),
            serve_record(1_000_000, 10.0, 9.0),
        ];
        let delta = HistoryDelta::from_records(&records).unwrap();
        assert_eq!(delta.wall_clock_ratio(), Some(1.0), "wall clock is flat");
        assert!(delta.regressed(1.0), "p99 more than doubled");
        assert!(!delta.regressed(1.5), "within a generous threshold");
        assert!(
            delta.render_text(1.0).contains("REGRESSION"),
            "{}",
            delta.render_text(1.0)
        );
    }

    #[test]
    fn pre_throughput_history_lines_still_parse() {
        // A line appended before the events fields existed: defaults kick in.
        let line = r#"{"git_rev":"a0a1151933a9","scale":"paper","trials":3,"threads":1,
            "total_wall_clock_secs":37.2,"experiments":[
            {"experiment":"fig5","rows":18,"wall_clock_secs":8.5}]}"#
            .replace('\n', "");
        let back: HistoryRecord = serde_json::from_str(&line).unwrap();
        assert_eq!(back.total_events_processed, 0);
        assert_eq!(back.peak_rss_bytes, 0);
        assert_eq!(back.experiments[0].events_processed, 0);
        assert_eq!(back.experiments[0].events_per_sec, 0.0);
        assert_eq!(back.experiments[0].peak_rss_bytes, 0);
    }

    #[test]
    fn record_carries_the_run_peak_and_renders_it() {
        let mut options = SuiteOptions::quick_smoke();
        options.experiments.truncate(1);
        let artifacts = run_suite(&options, |_| ()).unwrap();
        let record = HistoryRecord::from_artifacts(&artifacts).unwrap();
        assert_eq!(
            record.peak_rss_bytes, artifacts[0].provenance.peak_rss_bytes,
            "run peak is the max over per-experiment high-water marks"
        );
        assert!(record.peak_rss_bytes > 0, "VmHWM is readable on Linux");
        let delta = HistoryDelta {
            latest: record,
            previous: None,
        };
        assert!(delta.render_text(0.25).contains("peak RSS"));
    }

    #[test]
    fn load_history_reads_appended_lines_and_rejects_garbage() {
        let path =
            std::env::temp_dir().join(format!("scoop-lab-loadhist-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        record("quick", 1, 1.0, 1).append_to(&path).unwrap();
        record("quick", 1, 1.5, 1).append_to(&path).unwrap();
        let records = load_history(&path).unwrap();
        assert_eq!(records.len(), 2);
        std::fs::write(&path, "not json\n").unwrap();
        assert!(load_history(&path).is_err());
        let _ = std::fs::remove_file(&path);
    }
}
