//! `store-ingest`: a `scoop-store` fed the readings of a large sensor
//! population, then closed, reopened and queried at rest.
//!
//! Flush policy (fixed): one `Store::append_batch` per [`TICK_MS`] of
//! simulated readings — it sorts, appends and `sync_data`s the active
//! segment, so each tick is one commit; an explicit `Store::seal_active` once the active
//! segment holds at least [`SEAL_EVERY`] records; size-tiered compaction of
//! [`TIER`] segments per tier, which the store runs on its worker thread
//! when a seal completes a tier.
//!
//! Readings come from the `scoop-workload` GAUSSIAN source, which is pure in
//! `(node, time)`, so the reference for every lookup is a naive filter that
//! regenerates the records in the asked time range.

use crate::stats::{Samples, SplitMix};
use crate::{peak_rss_mb, Args, Report};
use scoop_store::{RecoveryOutcome, Store, StoreOptions};
use scoop_types::{attribute_code, Attribute, DataSourceKind, DurableRecord, NodeId, SimTime};
use scoop_workload::{make_source, DataSource};
use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Sensors in the population (the simulator's 32,768-node cap, less the
/// basestation).
const SENSORS: u64 = 32_767;
/// Simulated sample interval of every sensor.
const SAMPLE_MS: u64 = 15_000;
/// Simulated time per ingest batch. Ten seconds, not one: with 600 commits
/// a round, the fsyncs' latency on a shared disk set the ingest rate.
const TICK_MS: u64 = 10_000;
/// Ingested ticks per round: 10 simulated minutes, about 1.3M records.
const INGEST_TICKS: u64 = 60;
/// Ingest rounds, each into a fresh store; `throughput_per_s` is their
/// records over their processor time.
const ROUNDS: usize = 5;
/// Seal once the active segment holds this many records: every third
/// commit.
const SEAL_EVERY: u64 = 65_000;
/// Sealed segments per compaction tier.
const TIER: usize = 4;
/// Reopens of the ingested store per run; `setup_s` is their median.
const OPENS: usize = 21;
/// Share of lookups that ask for one timestamp; the rest are ranges. Not an
/// even split, so the median falls inside the point lookups and p99 inside
/// the widest ranges.
const POINT_SHARE: f64 = 0.75;
/// Widths of range lookups, in simulated ms.
const RANGE_WIDTHS_MS: [u64; 3] = [100, 1_000, 10_000];

/// The generated population: who samples when, and what.
struct Population {
    source: Box<dyn DataSource>,
    attribute: u8,
}

impl Population {
    fn new(seed: u64) -> Self {
        let domain = scoop_types::ValueRange::new(0, 149);
        Population {
            source: make_source(DataSourceKind::Gaussian, domain, SENSORS as usize, seed),
            attribute: attribute_code(Attribute::Light),
        }
    }

    /// Sensor `i`'s first sample time; phases spread evenly over the interval.
    fn phase(i: u64) -> u64 {
        i * SAMPLE_MS / (SENSORS + 1)
    }

    fn record(&mut self, i: u64, t: u64) -> DurableRecord {
        let node = NodeId(i as u16);
        DurableRecord {
            time_ms: t,
            node,
            attribute: self.attribute,
            value: self.source.sample(node, SimTime::from_millis(t)),
        }
    }

    /// Every record with `t0 <= time <= t1`, in canonical order: the
    /// reference the store's answers are checked against, enumerated from
    /// the sampling schedule alone. Phases grow with the sensor id, so the
    /// sensors sampling inside one period's slice of the range are a
    /// contiguous id range.
    fn records_in(&mut self, t0: u64, t1: u64) -> Vec<DurableRecord> {
        let mut out = Vec::new();
        for period in t0 / SAMPLE_MS..=t1 / SAMPLE_MS {
            let base = period * SAMPLE_MS;
            let a = t0.saturating_sub(base);
            let b = (t1 - base).min(SAMPLE_MS - 1);
            // phase(i) >= a  <=>  i * SAMPLE_MS >= a * (SENSORS + 1)
            let first = (a * (SENSORS + 1)).div_ceil(SAMPLE_MS).max(1);
            // phase(i) <= b  <=>  i * SAMPLE_MS < (b + 1) * (SENSORS + 1)
            let last = (((b + 1) * (SENSORS + 1) - 1) / SAMPLE_MS).min(SENSORS);
            for i in first..=last {
                out.push(self.record(i, base + Self::phase(i)));
            }
        }
        out.sort_unstable();
        out
    }

    /// The batch of simulated tick `k`.
    fn tick(&mut self, k: u64) -> Vec<DurableRecord> {
        self.records_in(k * TICK_MS, (k + 1) * TICK_MS - 1)
    }
}

/// True when `scan` is exactly the records of the first `ticks` ticks.
fn scan_is_complete(scan: &[DurableRecord], population: &mut Population, ticks: u64) -> bool {
    let mut rest = scan;
    for k in 0..ticks {
        let batch = population.tick(k);
        if rest.len() < batch.len() || rest[..batch.len()] != batch[..] {
            return false;
        }
        rest = &rest[batch.len()..];
    }
    rest.is_empty()
}

/// A scratch directory inside the checkout, removed on drop.
struct WorkDir(PathBuf);

impl WorkDir {
    fn new() -> Result<Self, String> {
        let dir = Path::new(".perfbench_work").join(format!("store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave the shared parent only when no other run is using it.
        let _ = std::fs::remove_dir(".perfbench_work");
    }
}

fn options() -> StoreOptions {
    StoreOptions {
        seal_after_records: u64::MAX,
        compact_tier_segments: TIER,
        ..StoreOptions::default()
    }
}

/// Paths and record counts of the store's sealed segments.
fn segment_files(store: &Store) -> Vec<(PathBuf, u64)> {
    store
        .segments()
        .map(|s| (s.path().to_path_buf(), s.record_count()))
        .collect()
}

/// Host-time accounting of the ingest (the same timers in both modes).
#[derive(Default)]
struct Ingest {
    records: u64,
    /// Processor time of the whole process (both threads) over the store's
    /// calls of the round.
    cpu_s: f64,
    batches: u64,
    append_s: f64,
    seal_s: f64,
    seals: u64,
    compaction_s: f64,
    compactions: u64,
    /// Records written by compaction outputs.
    rewritten: u64,
}

/// Ingests the first `INGEST_TICKS` ticks into `store` under the flush
/// policy, timing every call into the store.
fn ingest_round(store: &mut Store, batches: &[Vec<DurableRecord>]) -> Result<Ingest, String> {
    let mut ingest = Ingest::default();
    let mut since_seal = 0u64;
    let cpu_before = process_cpu_s()?;
    for (k, batch) in (0..INGEST_TICKS).zip(batches) {
        let t = Instant::now();
        store.append_batch(&batch).map_err(|e| e.to_string())?;
        ingest.append_s += t.elapsed().as_secs_f64();
        ingest.records += batch.len() as u64;
        ingest.batches += 1;
        since_seal += batch.len() as u64;
        if since_seal >= SEAL_EVERY || k + 1 == INGEST_TICKS {
            since_seal = 0;
            let before: HashSet<PathBuf> = segment_files(store).into_iter().map(|f| f.0).collect();
            let t = Instant::now();
            store.seal_active().map_err(|e| e.to_string())?;
            let secs = t.elapsed().as_secs_f64();
            let after = segment_files(store);
            // A plain seal adds one segment; a seal that completes a tier
            // merges it with its tier into one compaction output.
            if after.len() == before.len() + 1 {
                ingest.seal_s += secs;
            } else {
                ingest.compaction_s += secs;
                ingest.compactions += 1;
                ingest.rewritten += after
                    .iter()
                    .filter(|f| !before.contains(&f.0))
                    .map(|f| f.1)
                    .sum::<u64>();
            }
            ingest.seals += 1;
        }
    }
    ingest.cpu_s = process_cpu_s()? - cpu_before;
    Ok(ingest)
}

/// User plus system processor time of this process, threads that have
/// exited included, from `/proc/self/stat` (in clock ticks of 10 ms).
fn process_cpu_s() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat").map_err(|e| format!("/proc/self/stat: {e}"))?;
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the line.
    let rest = &stat[stat.rfind(')').ok_or("/proc/self/stat: no command name")? + 2..];
    let ticks: Vec<f64> = rest
        .split(' ')
        .skip(11)
        .take(2)
        .map(|f| f.parse::<f64>().map_err(|e| format!("/proc/self/stat: {e}")))
        .collect::<Result<_, _>>()?;
    Ok(ticks.iter().sum::<f64>() / 100.0)
}

impl Ingest {
    /// Host time inside the store's calls; generating the batches is not
    /// part of it.
    fn store_s(&self) -> f64 {
        self.append_s + self.seal_s + self.compaction_s
    }
}

pub fn run(args: &Args) -> Result<Report, String> {
    let work = WorkDir::new()?;
    let mut report = Report::default();
    let mut population = Population::new(args.seed);

    // Ingest rounds, each into a fresh store; the last one stays for the
    // lookups and the reopen. Every round ingests the same ticks, generated
    // up front, so the processor time of a round is the store's alone.
    let batches: Vec<Vec<DurableRecord>> =
        (0..INGEST_TICKS).map(|k| population.tick(k)).collect();
    let mut rates = Samples::new();
    let (mut all_records, mut all_cpu_s) = (0u64, 0.0);
    let mut last = None;
    let mut last_ingest = None;
    for round in 0..ROUNDS {
        // Write back what came before (a build, an earlier run or round, the
        // removal of its store), so each round's commits wait for its own
        // writes only.
        let _ = std::process::Command::new("sync").status();
        let db = work.0.join(format!("round-{round}"));
        let mut store = Store::open(&db, options()).map_err(|e| e.to_string())?;
        let ingest = ingest_round(&mut store, &batches)?;
        rates.push(ingest.records as f64 / ingest.cpu_s);
        all_records += ingest.records;
        all_cpu_s += ingest.cpu_s;
        report.note(format!(
            "round {round}: {:.0} records per processor s, {:.0} per host s; \
             append {:.3} s, seal {:.3} s, compaction {:.3} s",
            ingest.records as f64 / ingest.cpu_s,
            ingest.records as f64 / ingest.store_s(),
            ingest.append_s,
            ingest.seal_s,
            ingest.compaction_s
        ));
        let at_rest = store.stats().map_err(|e| e.to_string())?;
        report.attempted += ingest.batches;
        report.check(
            at_rest.records == ingest.records,
            format!(
                "store holds {} records after ingesting {}",
                at_rest.records, ingest.records
            ),
        );
        if let Some((_, previous)) = last.replace((store, db)) {
            std::fs::remove_dir_all(&previous)
                .map_err(|e| format!("{}: {e}", previous.display()))?;
        }
        if round + 1 == ROUNDS {
            report.note(format!(
                "{SENSORS} sensors every {} s, {INGEST_TICKS} ticks of {} s per round: {} records \
                 in {} batches, {} seals, {} compactions",
                SAMPLE_MS / 1000,
                TICK_MS / 1000,
                ingest.records,
                ingest.batches,
                ingest.seals,
                ingest.compactions,
            ));
            last_ingest = Some(ingest);
        }
    }
    drop(batches);
    let (store, db) = last.expect("at least one round");
    let ingest = last_ingest.expect("at least one round");

    let written = store.stats().map_err(|e| e.to_string())?;
    // Close, then reopen repeatedly: every reopen must find every segment
    // sealed. Setup is opening the store the lookups run on.
    drop(store);
    let mut opens = Samples::new();
    let mut recovered = 0;
    let mut first_open_s = None;
    let mut store = None;
    for _ in 0..OPENS {
        drop(store.take());
        let t = Instant::now();
        let reopened = Store::open(&db, options()).map_err(|e| e.to_string())?;
        let secs = t.elapsed().as_secs_f64();
        first_open_s.get_or_insert(secs);
        opens.push(secs);
        recovered += reopened
            .recovery_report()
            .iter()
            .filter(|(_, r)| !matches!(r, RecoveryOutcome::Sealed))
            .count();
        store = Some(reopened);
    }
    let mut store = store.expect("at least one open");
    report.check(
        recovered == 0,
        format!("reopens recovered {recovered} segment(s)"),
    );

    // Lookups at rest, until the time budget is spent.
    let end_ms = INGEST_TICKS * TICK_MS;
    let mut rng = SplitMix::new(args.seed ^ 0x100c);
    let mut latency_us = Samples::new();
    let (mut lookups, mut blocks_read, mut point_lookups, mut point_blocks) = (0u64, 0, 0u64, 0);
    let lookup_start = Instant::now();
    while lookup_start.elapsed().as_secs_f64() < args.seconds * 0.4 || lookups < 2_000 {
        let point = rng.unit() < POINT_SHARE;
        let t0 = rng.below(end_ms);
        let t1 = if point {
            t0
        } else {
            (t0 + RANGE_WIDTHS_MS[rng.below(3) as usize] - 1).min(end_ms - 1)
        };
        let t = Instant::now();
        let got = if point {
            store.query_point(t0)
        } else {
            store.query_range(t0, t1)
        };
        latency_us.push(t.elapsed().as_secs_f64() * 1e6);
        lookups += 1;
        report.attempted += 1;
        match got {
            Ok(outcome) => {
                blocks_read += outcome.blocks_read;
                if point {
                    point_lookups += 1;
                    point_blocks += outcome.blocks_read;
                }
                if outcome.records != population.records_in(t0, t1) {
                    report.failed += 1;
                }
            }
            Err(e) => {
                report.failed += 1;
                report.note(format!("lookup [{t0}, {t1}] failed: {e}"));
            }
        }
    }
    let stats = store.stats().map_err(|e| e.to_string())?;
    // The peak of the measured work. The full scan below is a check: it
    // holds every record at once, and how far its vector's regrowth raises
    // the peak depends on where the allocator finds room.
    let peak_rss = peak_rss_mb();

    // Every committed record is back after the reopen.
    let all = store.scan_all().map_err(|e| e.to_string())?.records;
    report.attempted += 1;
    if !scan_is_complete(&all, &mut population, INGEST_TICKS) {
        report.failed += 1;
        report.note(format!(
            "full scan after reopen returned {} records, {} committed",
            all.len(),
            ingest.records
        ));
    }
    drop(store);

    let logical_bytes = (ingest.records * 16).max(1) as f64;
    report.note(format!("{} segments at rest", stats.segments));
    report.note(opens.describe("Store::open (reopen at rest)", "s"));
    report.note(rates.describe("ingest rate per round", "records per processor s"));
    report.note(latency_us.describe("lookup", "us"));

    if !args.trace {
        report.metric("setup_s", opens.median(), "s");
        report.metric("peak_rss_mb", peak_rss, "MB");
        report.metric("throughput_per_s", all_records as f64 / all_cpu_s, "1/s");
        report.metric("latency_p50_ms", latency_us.median() / 1e3, "ms");
        return Ok(report);
    }
    report.note(
        "store.sync_s absent: Store::append_batch fsyncs inside the call, so its sync time \
         is part of store.append_s (store.syncs counts the commits)",
    );
    report.metric("store.records", ingest.records as f64, "count");
    report.metric("store.append_s", ingest.append_s, "s");
    report.metric("store.syncs", ingest.batches as f64, "count");
    report.metric("store.seal_s", ingest.seal_s, "s");
    report.metric("store.seals", ingest.seals as f64, "count");
    report.metric("store.compaction_s", ingest.compaction_s, "s");
    report.metric("store.compactions", ingest.compactions as f64, "count");
    report.metric(
        "store.write_amp",
        (ingest.records + ingest.rewritten) as f64 / ingest.records.max(1) as f64,
        "ratio",
    );
    report.metric("store.lookups", lookups as f64, "count");
    report.metric(
        "store.blocks_read_per_lookup",
        blocks_read as f64 / lookups.max(1) as f64,
        "blocks",
    );
    report.metric(
        "store.blocks_read_per_point_lookup",
        point_blocks as f64 / point_lookups.max(1) as f64,
        "blocks",
    );
    report.metric(
        "store.fallback_lookups",
        stats.index_fallback_lookups as f64,
        "count",
    );
    report.metric("store.index_build_s", written.index_build_secs, "s");
    report.metric(
        "store.space_amp",
        stats.disk_bytes as f64 / logical_bytes,
        "ratio",
    );
    report.metric("store.open_s", first_open_s.unwrap_or(0.0), "s");
    report.metric("store.recovered_segments", recovered as f64, "count");
    report.metric("store.lookup_p99_us", latency_us.percentile(99.0), "us");
    // Both modes run the same timers; a traced run only reports more.
    report.metric("trace.overhead_s", 0.0, "s");
    report.metric("trace.overhead_frac", 0.0, "ratio");
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The schedule enumeration agrees with a brute-force filter over every
    /// sensor's sample times.
    #[test]
    fn records_in_matches_a_brute_force_filter() {
        let mut population = Population::new(5);
        for (t0, t1) in [(0, 0), (0, 999), (14_990, 15_020), (7, 7), (29_999, 61_000)] {
            let mut brute = Vec::new();
            for i in 1..=SENSORS {
                let mut t = Population::phase(i);
                while t <= t1 {
                    if t >= t0 {
                        brute.push(population.record(i, t));
                    }
                    t += SAMPLE_MS;
                }
            }
            brute.sort_unstable();
            assert_eq!(population.records_in(t0, t1), brute, "[{t0}, {t1}]");
        }
    }

    /// A store that lost one committed record fails both the lookup and
    /// the full-scan checks.
    #[test]
    fn one_dropped_record_is_caught() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../.perfbench_work")
            .join(format!("test-dropped-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut population = Population::new(3);
        let ticks = 20;
        let mut store = Store::open(&dir, options()).unwrap();
        for k in 0..ticks {
            let mut batch = population.tick(k);
            if k == 7 {
                batch.remove(batch.len() / 2);
            }
            store.append_batch(&batch).unwrap();
        }
        store.seal_active().unwrap();
        let full = store.scan_all().unwrap().records;
        assert!(!scan_is_complete(&full, &mut population, ticks));
        let (t0, t1) = (7 * TICK_MS, 8 * TICK_MS - 1);
        let got = store.query_range(t0, t1).unwrap().records;
        assert_ne!(got, population.records_in(t0, t1));
        let (t0, t1) = (3 * TICK_MS, 4 * TICK_MS - 1);
        let got = store.query_range(t0, t1).unwrap().records;
        assert_eq!(got, population.records_in(t0, t1));
        drop(store);
        std::fs::remove_dir_all(&dir).unwrap();
        let _ = std::fs::remove_dir(dir.parent().unwrap());
    }

    #[test]
    fn a_complete_scan_passes() {
        let mut population = Population::new(4);
        let mut all = Vec::new();
        for k in 0..5 {
            all.extend(population.tick(k));
        }
        assert!(scan_is_complete(&all, &mut population, 5));
        all.pop();
        assert!(!scan_is_complete(&all, &mut population, 5));
    }
}
