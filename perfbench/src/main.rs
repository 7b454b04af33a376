//! The Scoop benchmark: one command, four workloads.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper-sweep|scale-32k|serve-open|store-ingest> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root: the simulation workloads check their rows
//! against the committed `results/*.json`. Every line but the last is a
//! human-readable note; the last line is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics` — the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. See `README.md` for
//! what each metric measures and which clock it reads.

mod serve;
mod stats;
mod store;
mod sweep;

use std::fmt::Write as _;
use std::process::ExitCode;

/// The end-to-end metrics, in `BENCHMARK.json` order. Every workload reports
/// all of them with `--trace 0`, each read off the workload's own operation
/// (see `README.md`): a network's event loop, a query, a record, a lookup.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
];

/// The per-layer metrics, in `BENCHMARK.json` order. Every workload reports
/// all of them with `--trace 1`; one the workload does not measure (its
/// layer is never called) reads 0.
pub const PER_LAYER: [(&str, &str); 72] = [
    ("net.networks", "count"),
    ("net.topology_gen_s", "s"),
    ("net.link_gen_s", "s"),
    ("net.engine_init_s", "s"),
    ("net.event_loop_s", "s"),
    ("net.ns_per_event", "ns"),
    ("net.events", "count"),
    ("net.queue_peak", "count"),
    ("net.tx.data", "count"),
    ("net.tx.summary", "count"),
    ("net.tx.mapping", "count"),
    ("net.tx.query", "count"),
    ("net.tx.reply", "count"),
    ("net.tx.aggregate", "count"),
    ("net.tx.heartbeat", "count"),
    ("net.rx_total", "count"),
    ("net.snooped", "count"),
    ("net.send_failures", "count"),
    ("net.delivery_ratio", "ratio"),
    ("routing.attached_frac", "ratio"),
    ("routing.mean_hops", "hops"),
    ("routing.mean_path_etx", "etx"),
    ("sim.sampled", "count"),
    ("sim.stored_owner", "count"),
    ("sim.stored_base_fallback", "count"),
    ("sim.stored_local_default", "count"),
    ("sim.queries_issued", "count"),
    ("sim.query_targets", "count"),
    ("sim.replies", "count"),
    ("sim.readings_returned", "count"),
    ("sim.metrics_extract_s", "s"),
    ("core.index_builds", "count"),
    ("core.remaps_suppressed", "count"),
    ("core.index_build_us", "us"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("serve.requests", "count"),
    ("serve.submit_us", "us"),
    ("serve.queue_depth_p50", "count"),
    ("serve.queue_depth_max", "count"),
    ("serve.tick_ms_p50", "ms"),
    ("serve.tick_ms_p99", "ms"),
    ("serve.tick_events", "count"),
    ("serve.coalesce_ratio", "ratio"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.cache_invalidated", "count"),
    ("serve.rows_per_answer", "rows"),
    ("serve.empty_answer_frac", "ratio"),
    ("serve.repeat_share", "ratio"),
    ("serve.distinct_predicates", "count"),
    ("serve.frame_bytes", "bytes"),
    ("serve.gen_lag_ms_p50", "ms"),
    ("serve.gen_lag_ms_p99", "ms"),
    ("serve.capacity_qps", "1/s"),
    ("serve.latency_p99_ms", "ms"),
    ("store.records", "count"),
    ("store.append_s", "s"),
    ("store.syncs", "count"),
    ("store.seal_s", "s"),
    ("store.seals", "count"),
    ("store.compaction_s", "s"),
    ("store.compactions", "count"),
    ("store.write_amp", "ratio"),
    ("store.lookups", "count"),
    ("store.blocks_read_per_lookup", "blocks"),
    ("store.blocks_read_per_point_lookup", "blocks"),
    ("store.fallback_lookups", "count"),
    ("store.index_build_s", "s"),
    ("store.space_amp", "ratio"),
    ("store.open_s", "s"),
    ("store.recovered_segments", "count"),
    ("store.lookup_p99_us", "us"),
];

/// Parsed command line.
#[derive(Clone, Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(15.0),
        trace: trace.unwrap_or(false),
    })
}

/// What one run reports: the operation tally, the metrics of the selected
/// kind (end-to-end or per-layer), and human-readable notes.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Set when a check outside the per-operation tally failed (a digest,
    /// a recovery report, an empty-answer floor).
    pub check_errors: Vec<String>,
    metrics: Vec<(String, f64, &'static str)>,
    notes: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        debug_assert!(!self.metrics.iter().any(|(n, _, _)| n == name), "{name}");
        self.metrics.push((name.to_string(), value, unit));
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    pub fn check(&mut self, ok: bool, what: impl Into<String>) {
        if !ok {
            self.check_errors.push(what.into());
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.check_errors.is_empty() && self.attempted > 0
    }

    /// Puts the reported metrics in the order of `table` and checks them
    /// against it: a metric outside the table, or in another unit, is an
    /// error. So is a missing one, unless `absent_reads_zero`, in which case
    /// it reads 0 and a note names it.
    pub fn complete(
        &mut self,
        table: &[(&'static str, &'static str)],
        absent_reads_zero: bool,
    ) -> Result<(), String> {
        let mut reported = std::mem::take(&mut self.metrics);
        let mut absent = Vec::new();
        for &(name, unit) in table {
            match reported.iter().position(|(n, _, _)| n == name) {
                Some(i) => {
                    let (n, value, u) = reported.remove(i);
                    if u != unit {
                        return Err(format!("{name} is reported in {u}, the manifest says {unit}"));
                    }
                    self.metrics.push((n, value, u));
                }
                None if absent_reads_zero => {
                    absent.push(name);
                    self.metrics.push((name.to_string(), 0.0, unit));
                }
                None => return Err(format!("{name} is not reported")),
            }
        }
        if let Some((name, _, _)) = reported.first() {
            return Err(format!("{name} is reported but not in the manifest"));
        }
        if !absent.is_empty() {
            self.note(format!(
                "read 0, not measured on this workload: {}",
                absent.join(", ")
            ));
        }
        Ok(())
    }

    /// The final result line.
    pub fn json(&self) -> String {
        let mut out = String::new();
        write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        )
        .expect("writing to a String");
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let value = if value.is_finite() { *value } else { 0.0 };
            if i > 0 {
                out.push_str(", ");
            }
            write!(
                out,
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            )
            .expect("writing to a String");
        }
        out.push_str("}}");
        out
    }
}

/// Peak resident set size of this process (VmHWM), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match args.workload.as_str() {
        "paper-sweep" => sweep::run(sweep::Grid::PaperSweep, &args),
        "scale-32k" => sweep::run(sweep::Grid::Scale32k, &args),
        "serve-open" => serve::run(&args),
        "store-ingest" => store::run(&args),
        other => Err(format!(
            "unknown workload {other} (paper-sweep, scale-32k, serve-open, store-ingest)"
        )),
    };
    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let report = match result.and_then(|mut r| r.complete(table, args.trace).map(|()| r)) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    for line in &report.notes {
        println!("# {line}");
    }
    for e in &report.check_errors {
        println!("# CHECK FAILED: {e}");
    }
    println!("{}", report.json());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `"name"`/`"unit"` pairs of one metric list of `BENCHMARK.json`.
    fn manifest(list: &str) -> Vec<(String, String)> {
        let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .expect("BENCHMARK.json next to the benchmark's directory");
        let start = text.find(&format!("\"{list}\"")).expect("list in the manifest");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("list ends")];
        let field = |item: &str, key: &str| {
            let at = item.find(&format!("\"{key}\"")).expect(key) + key.len() + 2;
            let rest = &item[at..];
            let open = rest.find('"').expect("value opens") + 1;
            let close = open + rest[open..].find('"').expect("value closes");
            rest[open..close].to_string()
        };
        body.split('}')
            .filter(|item| item.contains("\"name\""))
            .map(|item| (field(item, "name"), field(item, "unit")))
            .collect()
    }

    fn owned(table: &[(&str, &str)]) -> Vec<(String, String)> {
        table
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn metric_tables_match_the_manifest() {
        assert_eq!(owned(&END_TO_END), manifest("end_to_end"));
        assert_eq!(owned(&PER_LAYER), manifest("per_layer"));
    }

    #[test]
    fn an_end_to_end_metric_must_be_reported() {
        let mut report = Report::default();
        for &(name, unit) in &END_TO_END[1..] {
            report.metric(name, 1.0, unit);
        }
        assert!(report.complete(&END_TO_END, false).is_err());
    }

    #[test]
    fn an_unlisted_metric_or_unit_is_refused() {
        let mut report = Report::default();
        for &(name, unit) in &END_TO_END {
            report.metric(name, 1.0, unit);
        }
        report.metric("extra", 1.0, "s");
        assert!(report.complete(&END_TO_END, false).is_err());
        let mut report = Report::default();
        report.metric("net.events", 1.0, "s");
        assert!(report.complete(&PER_LAYER, true).is_err());
    }

    #[test]
    fn an_unmeasured_layer_metric_reads_zero_in_manifest_order() {
        let mut report = Report::default();
        report.attempted = 1;
        report.metric("store.records", 5.0, "count");
        report.complete(&PER_LAYER, true).expect("complete");
        let line = report.json();
        assert!(line.contains("\"store.records\": {\"value\": 5.0, \"unit\": \"count\"}"));
        assert!(line.contains("\"net.networks\": {\"value\": 0.0, \"unit\": \"count\"}"));
        assert!(line.find("net.networks") < line.find("store.records"));
        assert_eq!(report.metrics.len(), PER_LAYER.len());
    }
}
