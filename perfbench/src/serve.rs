//! `serve-open`: the paper-scale network behind `ServeServer`, over the
//! in-memory path with no persistence, under open-loop point and range
//! queries.
//!
//! Every predicate comes from the program's own query workload,
//! `QueryGenerator::from_spec` over the paper scenario (value ranges of 1–5 %
//! of the domain over the paper's history window), with windows quantized as
//! `scoop-serve bench` quantizes them; repeats, and so cache hits, come from
//! that quantization. Requests arrive on a seeded Poisson schedule in host
//! time. The server runs one admission tick per fixed host-time slot; each
//! request is submitted to the tick of the slot its due time falls in, so the
//! simulated output does not depend on host speed. Latency runs from the due
//! time to the response frame. After the fixed-rate phases, a capacity phase
//! admits a full queue every tick. The whole schedule is then replayed on a
//! server with the answer cache off, and every response frame must match.

use crate::stats::{Digest, Samples, SplitMix};
use crate::{peak_rss_mb, Args, Report};
use scoop_serve::{BenchOptions, ServeOptions, ServeServer};
use scoop_types::{ScenarioSpec, ServeRequest, SimDuration, SimTime, ValueRange};
use scoop_workload::QueryGenerator;
use std::collections::HashSet;
use std::time::{Duration, Instant};

/// Host time between admission ticks. Each tick advances the network one
/// simulated second (the serve default), about 0.5 ms of host time on the
/// reference host with a p99 near 2.5 ms, so 2 ms is about the shortest slot
/// the server keeps up with. A request waits for the end of its slot, on
/// average half a slot; the run notes split every latency into that wait and
/// the server's part.
const SLOT: Duration = Duration::from_micros(2_000);
/// `serve.capacity_qps` as measured on the reference host (2-CPU shared VM),
/// rounded down. The fixed rates are stated fractions of it; they stay fixed
/// numbers, so the schedule does not depend on the host, and a slower server
/// shows as higher latency instead of a lower offered load.
const REFERENCE_CAPACITY_QPS: f64 = 1_000_000.0;
/// The fixed open-loop arrival rates, as fractions of
/// `REFERENCE_CAPACITY_QPS`. The last is the rate `throughput_per_s`,
/// `latency_p50_ms` and `serve.latency_p99_ms` are measured at.
const RATE_FRACTIONS: [f64; 3] = [0.01, 0.02, 0.1];
/// The run fails when more answers than this are empty.
const EMPTY_ANSWER_FLOOR: f64 = 0.5;
/// Simulated seconds the network is warmed to in setup (past the 600 s
/// warmup, so drained readings fill the index).
const WARM_TO_SECS: u64 = 2_400;
/// Setups per run; `setup_s` is their median.
const SETUPS: usize = 9;
/// Share of `--seconds` each fixed rate runs for, in `RATE_FRACTIONS` order.
const RATE_SHARES: [f64; 3] = [0.05, 0.05, 0.5];
/// Consecutive windows the upper rate runs in, with a share of the
/// full-queue ticks after each. The latency metrics pool all windows: a
/// median over per-window p99s flips with the number of windows that hold a
/// remap tick.
const LATENCY_WINDOWS: usize = 30;
/// Full-queue ticks per run, split evenly after the upper-rate windows.
const CAPACITY_TICKS: usize = 600;

fn options(cache: bool) -> ServeOptions {
    let mut o = ServeOptions::new(ScenarioSpec::paper_defaults());
    if !cache {
        o.cache_capacity = 0;
    }
    o
}

/// `ServeServer::new` plus the warmup ticks.
fn setup(cache: bool) -> Result<(ServeServer, f64), String> {
    let started = Instant::now();
    let mut server = ServeServer::new(options(cache)).map_err(|e| e.to_string())?;
    let mut frames = Vec::new();
    while server.now() < SimTime::from_secs(WARM_TO_SECS) {
        server.tick(&mut frames).map_err(|e| e.to_string())?;
    }
    Ok((server, started.elapsed().as_secs_f64()))
}

/// Snaps a timestamp down to a multiple of `quantum`, as `scoop-serve bench`
/// does.
fn quantize(t: SimTime, quantum: SimDuration) -> SimTime {
    let q = quantum.as_millis().max(1);
    SimTime::from_millis(t.as_millis() / q * q)
}

/// The request stream: a pure function of the seed and of the simulated
/// time of the tick each request lands in.
struct RequestGen {
    queries: QueryGenerator,
    quantum: SimDuration,
    next_id: u64,
    /// The time window of the last request, and the value ranges drawn with
    /// it. Windows follow the tick clock and never come back once it has
    /// moved on, so this set sees every repeat.
    window: (SimTime, SimTime),
    window_values: HashSet<ValueRange>,
    distinct: u64,
    /// The most distinct predicates one window held: the working set the
    /// answer cache has to hold.
    working_set: usize,
}

impl RequestGen {
    fn new(seed: u64) -> Self {
        RequestGen {
            queries: QueryGenerator::from_spec(&ScenarioSpec::paper_defaults().workload, seed),
            quantum: BenchOptions::paper_scale().window_quantum,
            next_id: 0,
            window: (SimTime::ZERO, SimTime::ZERO),
            window_values: HashSet::new(),
            distinct: 0,
            working_set: 0,
        }
    }

    fn next(&mut self, now: SimTime) -> ServeRequest {
        let id = self.next_id;
        self.next_id += 1;
        let q = self.queries.next_query(now);
        let req = ServeRequest {
            id,
            values: q.values,
            time_lo: quantize(q.time_lo, self.quantum),
            time_hi: quantize(q.time_hi, self.quantum),
        };
        if self.window != (req.time_lo, req.time_hi) {
            self.window = (req.time_lo, req.time_hi);
            self.window_values.clear();
        }
        self.distinct += self.window_values.insert(req.values) as u64;
        self.working_set = self.working_set.max(self.window_values.len());
        req
    }

    /// Share of requests whose predicate was drawn before in the run.
    fn repeat_share(&self) -> f64 {
        1.0 - self.distinct as f64 / self.next_id.max(1) as f64
    }
}

/// Host-side record of one run of the schedule.
#[derive(Default)]
struct Tally {
    frames: u64,
    empty: u64,
    frame_bytes: u64,
    overloaded: u64,
    digest: Digest,
    /// Per-request frame digest, indexed by request id.
    per_request: Vec<u64>,
}

impl Tally {
    fn record(&mut self, frame: &[u8]) {
        let id = u64::from_le_bytes(frame[0..8].try_into().expect("frame carries an id")) as usize;
        if self.per_request.len() <= id {
            self.per_request.resize(id + 1, 0);
        }
        self.per_request[id] = Digest::of(frame);
        self.digest.fold(frame);
        self.frames += 1;
        self.frame_bytes += frame.len() as u64;
        // Rows frames: id (8) | status (1) | row count (4) | rows.
        if frame.len() >= 13 && frame[9..13] == [0, 0, 0, 0] {
            self.empty += 1;
        }
    }
}

/// Requests whose response frame differs between two runs of one schedule;
/// a request answered in only one of them counts too.
fn wrong_answers(run: &Tally, reference: &Tally) -> u64 {
    let differing = run
        .per_request
        .iter()
        .zip(&reference.per_request)
        .filter(|(a, b)| a != b)
        .count();
    (differing + run.per_request.len().abs_diff(reference.per_request.len())) as u64
}

/// Host times of one tick: when its submits began, when `ServeServer::tick`
/// began, and when the frames were out.
struct TickTimes {
    submit: Instant,
    tick: Instant,
    done: Instant,
}

/// One tick: submit `batch`, run the tick, fold every frame into the tally.
fn tick(
    server: &mut ServeServer,
    batch: &[ServeRequest],
    tally: &mut Tally,
    submit_us: Option<&mut Samples>,
) -> Result<TickTimes, String> {
    let submit = Instant::now();
    match submit_us {
        Some(samples) => {
            for req in batch {
                let t = Instant::now();
                let r = server.submit(0, *req);
                samples.push(t.elapsed().as_secs_f64() * 1e6);
                tally.overloaded += r.is_err() as u64;
            }
        }
        None => {
            for req in batch {
                tally.overloaded += server.submit(0, *req).is_err() as u64;
            }
        }
    }
    let mut frames = Vec::with_capacity(batch.len());
    let began = Instant::now();
    server.tick(&mut frames).map_err(|e| e.to_string())?;
    let done = Instant::now();
    for (_, frame) in &frames {
        tally.record(frame);
    }
    Ok(TickTimes {
        submit,
        tick: began,
        done,
    })
}

/// Host cost of one `Instant::now` + `elapsed` pair, the unit of tracing.
fn timer_pair_s() -> f64 {
    const PAIRS: u32 = 100_000;
    let started = Instant::now();
    for _ in 0..PAIRS {
        std::hint::black_box(Instant::now().elapsed());
    }
    started.elapsed().as_secs_f64() / PAIRS as f64
}

/// Waits until `t` by spinning: a sleeping thread wakes late by up to
/// milliseconds on a shared host, and that would count as latency.
fn wait_until(t: Instant) {
    while Instant::now() < t {
        std::hint::spin_loop();
    }
}

/// Per-phase host measurements.
#[derive(Default)]
struct PhaseStats {
    latency_ms: Samples,
    /// The same latencies split into consecutive windows of slots.
    windows: Vec<Samples>,
    /// The part of each latency spent before the slot's submits began: the
    /// wait for the slot end, plus any generator lag.
    wait_ms: Samples,
    /// The part after: submits and the tick, per request.
    server_ms: Samples,
    gen_lag_ms: Samples,
    /// Host time of every tick from its first submit to its last frame.
    busy_s: f64,
    /// `ServeServer::tick` alone.
    tick_ms: Samples,
    queue_depth: Samples,
    tick_events: Samples,
    requests: u64,
}

/// The timed run: the server, the request stream, and what came back.
struct LoadGen {
    server: ServeServer,
    gen: RequestGen,
    arrivals: SplitMix,
    tally: Tally,
    /// Per-submit host time, kept in a traced run only.
    submit_us: Option<Samples>,
    /// Requests per tick, in tick order: the schedule the replay repeats.
    schedule: Vec<u32>,
    batch: Vec<ServeRequest>,
}

impl LoadGen {
    /// `slots` open-loop slots of Poisson arrivals at `rate`, starting now;
    /// latencies go to `stats` and to its window `window`.
    fn open_loop(
        &mut self,
        rate: f64,
        slots: u64,
        stats: &mut PhaseStats,
        window: usize,
    ) -> Result<(), String> {
        let start = Instant::now();
        // Due times (host seconds from `start`) of the arrivals.
        let mut next_due = -(1.0 - self.arrivals.unit()).ln() / rate;
        let mut dues = Vec::new();
        for k in 0..slots {
            let slot_end = (k + 1) as f64 * SLOT.as_secs_f64();
            dues.clear();
            while next_due < slot_end {
                dues.push(next_due);
                next_due += -(1.0 - self.arrivals.unit()).ln() / rate;
            }
            // The batch is drawn before the slot ends, so the generator's
            // own work is not charged to the server.
            let tick_time = self.server.now() + SimDuration::from_secs(1);
            self.batch.clear();
            let gen = &mut self.gen;
            self.batch.extend(dues.iter().map(|_| gen.next(tick_time)));
            let boundary = start + SLOT * (k as u32 + 1);
            wait_until(boundary);
            let events_before = self.server.engine().events_processed();
            stats
                .queue_depth
                .push((self.server.queued() + self.batch.len()) as f64);
            let t = tick(
                &mut self.server,
                &self.batch,
                &mut self.tally,
                self.submit_us.as_mut(),
            )?;
            stats
                .gen_lag_ms
                .push(t.submit.saturating_duration_since(boundary).as_secs_f64() * 1e3);
            stats.tick_ms.push((t.done - t.tick).as_secs_f64() * 1e3);
            stats
                .tick_events
                .push((self.server.engine().events_processed() - events_before) as f64);
            let server_ms = (t.done - t.submit).as_secs_f64() * 1e3;
            stats.busy_s += server_ms / 1e3;
            for &due in &dues {
                let due = start + Duration::from_secs_f64(due);
                let ms = t.done.saturating_duration_since(due).as_secs_f64() * 1e3;
                stats.latency_ms.push(ms);
                stats.windows[window].push(ms);
                stats.wait_ms.push(ms - server_ms);
                stats.server_ms.push(server_ms);
            }
            stats.requests += self.batch.len() as u64;
            self.schedule.push(self.batch.len() as u32);
        }
        Ok(())
    }

    /// `ticks` ticks that each admit a full queue; one rate sample per tick.
    fn full_queue(&mut self, ticks: usize, qps: &mut Samples) -> Result<(), String> {
        let capacity = self.server.queue_capacity();
        for _ in 0..ticks {
            let tick_time = self.server.now() + SimDuration::from_secs(1);
            self.batch.clear();
            let gen = &mut self.gen;
            self.batch
                .extend((0..capacity).map(|_| gen.next(tick_time)));
            let before = self.tally.frames;
            let t = tick(&mut self.server, &self.batch, &mut self.tally, None)?;
            qps.push((self.tally.frames - before) as f64 / (t.done - t.submit).as_secs_f64());
            self.schedule.push(capacity as u32);
        }
        Ok(())
    }
}

pub fn run(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    let mut setups = Samples::new();
    let mut server = None;
    for _ in 0..SETUPS {
        let (s, secs) = setup(true)?;
        setups.push(secs);
        server = Some(s);
    }
    let mut load = LoadGen {
        server: server.expect("at least one setup"),
        gen: RequestGen::new(args.seed),
        arrivals: SplitMix::new(args.seed ^ 0xa77),
        tally: Tally::default(),
        submit_us: args.trace.then(Samples::new),
        schedule: Vec::new(),
        batch: Vec::new(),
    };
    let mut phases: Vec<PhaseStats> = Vec::new();
    let mut cap_qps = Samples::new();

    // The upper rate runs as consecutive windows with a share of the
    // full-queue ticks after each, so neither the latency medians nor the
    // capacity median rest on one stretch of host time.
    let began_run = Instant::now();
    for (i, (&frac, share)) in RATE_FRACTIONS.iter().zip(RATE_SHARES).enumerate() {
        let rate = frac * REFERENCE_CAPACITY_QPS;
        let slots = (args.seconds * share / SLOT.as_secs_f64()).ceil() as u64;
        let upper = i + 1 == RATE_FRACTIONS.len();
        let parts = if upper { LATENCY_WINDOWS as u64 } else { 1 };
        // Room for every sample up front, so no vector grows (and copies)
        // between a due time and its response.
        let expected = (rate * args.seconds * share * 1.2) as usize + 1_000;
        let mut stats = PhaseStats {
            latency_ms: Samples::with_capacity(expected),
            windows: vec![Samples::with_capacity(expected / parts as usize); parts as usize],
            wait_ms: Samples::with_capacity(expected),
            server_ms: Samples::with_capacity(expected),
            ..PhaseStats::default()
        };
        load.tally
            .per_request
            .reserve(expected + CAPACITY_TICKS * 1_024);
        for part in 0..parts {
            let part_slots = slots * (part + 1) / parts - slots * part / parts;
            load.open_loop(rate, part_slots, &mut stats, part as usize)?;
            if upper {
                load.full_queue(CAPACITY_TICKS / LATENCY_WINDOWS, &mut cap_qps)?;
            }
        }
        phases.push(stats);
    }
    let LoadGen {
        server,
        gen,
        tally,
        submit_us,
        schedule,
        mut batch,
        ..
    } = load;
    let mut submit_us = submit_us.unwrap_or_default();
    let timed_stats = *server.stats();
    let core = server.core_stats();
    let timed_s = began_run.elapsed().as_secs_f64();

    // Replay the same schedule with the cache off: every frame must match.
    let (mut replay, _) = setup(false)?;
    let mut replay_gen = RequestGen::new(args.seed);
    let mut replay_tally = Tally::default();
    for &n in &schedule {
        let tick_time = replay.now() + SimDuration::from_secs(1);
        batch.clear();
        batch.extend((0..n).map(|_| replay_gen.next(tick_time)));
        tick(&mut replay, &batch, &mut replay_tally, None)?;
    }

    let replay_s = began_run.elapsed().as_secs_f64() - timed_s;
    let attempted = gen.next_id;
    let wrong = wrong_answers(&tally, &replay_tally);
    report.attempted = attempted;
    report.failed = tally.overloaded + wrong + attempted.saturating_sub(tally.frames);
    report.check(
        tally.digest == replay_tally.digest,
        "response digest differs from the cache-off replay",
    );
    let empty_frac = tally.empty as f64 / tally.frames.max(1) as f64;
    report.check(
        empty_frac <= EMPTY_ANSWER_FLOOR,
        format!("{empty_frac:.3} of answers are empty (floor {EMPTY_ANSWER_FLOOR})"),
    );

    let cap_median = cap_qps.median();
    report.note(format!(
        "warmed to {WARM_TO_SECS} simulated s; {} readings indexed; slot {} ms per tick; \
         {} distinct predicates, repeat share {:.3}, at most {} distinct in one {} s window, \
         against a cache of {} entries",
        core.readings_indexed,
        SLOT.as_secs_f64() * 1e3,
        gen.distinct,
        gen.repeat_share(),
        gen.working_set,
        gen.quantum.as_secs(),
        options(true).cache_capacity
    ));
    report.note(setups.describe("setup", "s"));
    for (frac, p) in RATE_FRACTIONS.iter().zip(phases.iter_mut()) {
        let rate = frac * REFERENCE_CAPACITY_QPS;
        report.note(format!(
            "rate {rate} 1/s ({frac} of the reference capacity, {:.3} of this run's; {} requests): {}; {}",
            rate / cap_median,
            p.requests,
            p.latency_ms.describe("latency", "ms"),
            p.gen_lag_ms.describe("generator lag", "ms")
        ));
    }
    report.note(cap_qps.describe("capacity per full-queue tick", "1/s"));
    let upper = phases.last_mut().expect("at least one rate");
    // Requests answered per host second the server was busy at the upper
    // rate: the rate it would sustain back to back on this traffic mix.
    let busy_qps = upper.requests as f64 / upper.busy_s;
    report.note(format!(
        "upper rate: {} requests in {:.3} busy host s, {busy_qps:.0} 1/s",
        upper.requests, upper.busy_s
    ));
    report.note(format!(
        "upper-rate latency split: {}; {}",
        upper.wait_ms.describe("wait for the slot end", "ms"),
        upper.server_ms.describe("submits and tick", "ms")
    ));
    report.note(format!(
        "host time: setups {:.3} s, timed schedule {timed_s:.3} s, cache-off replay {replay_s:.3} s",
        setups.sum()
    ));
    report.note(format!(
        "{} ticks in all; {} of {} answers empty; digest {:016x} (cache off {:016x})",
        schedule.len(),
        tally.empty,
        tally.frames,
        tally.digest.value(),
        replay_tally.digest.value()
    ));

    // Per-window figures, for the notes: a window's p99 is near the slot
    // length, or near a remap tick's length when the window holds one.
    let (mut p50s, mut p99s) = (Samples::new(), Samples::new());
    for w in &mut upper.windows {
        p50s.push(w.median());
        p99s.push(w.percentile(99.0));
    }
    report.note(format!(
        "upper-rate windows: p50 {:?} ms; p99 {:?} ms",
        p50s.values(),
        p99s.values()
    ));
    if !args.trace {
        report.metric("setup_s", setups.median(), "s");
        report.metric("peak_rss_mb", peak_rss_mb(), "MB");
        report.metric("throughput_per_s", busy_qps, "1/s");
        report.metric("latency_p50_ms", upper.latency_ms.median(), "ms");
        return Ok(report);
    }
    report.note(submit_us.describe("submit", "us"));
    report.note(upper.tick_ms.describe("tick at the upper rate", "ms"));
    report.metric("serve.requests", attempted as f64, "count");
    report.metric("serve.capacity_qps", cap_median, "1/s");
    report.metric("serve.latency_p99_ms", upper.latency_ms.percentile(99.0), "ms");
    report.metric("serve.submit_us", submit_us.median(), "us");
    report.metric("serve.queue_depth_p50", upper.queue_depth.median(), "count");
    report.metric("serve.queue_depth_max", upper.queue_depth.max(), "count");
    report.metric("serve.tick_ms_p50", upper.tick_ms.median(), "ms");
    report.metric("serve.tick_ms_p99", upper.tick_ms.percentile(99.0), "ms");
    report.metric("serve.tick_events", upper.tick_events.mean(), "count");
    report.metric(
        "serve.coalesce_ratio",
        timed_stats.coalesced_groups as f64 / timed_stats.answered.max(1) as f64,
        "ratio",
    );
    report.metric(
        "serve.cache_hit_ratio",
        core.cache_hits as f64 / (core.cache_hits + core.cache_misses).max(1) as f64,
        "ratio",
    );
    report.metric(
        "serve.cache_invalidated",
        core.cache_invalidated as f64,
        "count",
    );
    report.metric(
        "serve.rows_per_answer",
        core.rows_returned as f64 / core.answers.max(1) as f64,
        "rows",
    );
    report.metric("serve.empty_answer_frac", empty_frac, "ratio");
    report.metric("serve.repeat_share", gen.repeat_share(), "ratio");
    report.metric("serve.distinct_predicates", gen.distinct as f64, "count");
    report.metric(
        "serve.frame_bytes",
        tally.frame_bytes as f64 / tally.frames.max(1) as f64,
        "bytes",
    );
    report.metric("serve.gen_lag_ms_p50", upper.gen_lag_ms.median(), "ms");
    report.metric(
        "serve.gen_lag_ms_p99",
        upper.gen_lag_ms.percentile(99.0),
        "ms",
    );
    // The traced run differs from the untraced one only by the timer around
    // each submit: its overhead is that many timer pairs.
    let overhead_s = submit_us.len() as f64 * timer_pair_s();
    report.metric("trace.overhead_s", overhead_s, "s");
    report.metric("trace.overhead_frac", overhead_s / timed_s, "ratio");
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use scoop_types::{append_rows_frame, append_rows_payload, DurableRecord, NodeId};

    fn frames() -> Vec<Vec<u8>> {
        (0..4u64)
            .map(|id| {
                let rows = [DurableRecord {
                    time_ms: 1_000 * id,
                    node: NodeId(id as u16 + 1),
                    attribute: 0,
                    value: 40 + id as i32,
                }];
                let mut payload = Vec::new();
                append_rows_payload(&rows[..id as usize % 2], &mut payload);
                let mut frame = Vec::new();
                append_rows_frame(id, &payload, &mut frame);
                frame
            })
            .collect()
    }

    fn tally(frames: &[Vec<u8>]) -> Tally {
        let mut t = Tally::default();
        for f in frames {
            t.record(f);
        }
        t
    }

    #[test]
    fn one_changed_frame_byte_is_caught() {
        let good = tally(&frames());
        assert_eq!(good.empty, 2, "frames 0 and 2 carry no rows");
        assert_eq!(wrong_answers(&good, &tally(&frames())), 0);
        let mut bad = frames();
        let last = bad[3].len() - 1;
        bad[3][last] ^= 0x01;
        let bad = tally(&bad);
        assert_eq!(wrong_answers(&bad, &good), 1);
        assert_ne!(bad.digest, good.digest);
    }

    #[test]
    fn a_missing_frame_is_caught() {
        let good = tally(&frames());
        let short = tally(&frames()[..3]);
        assert_eq!(wrong_answers(&short, &good), 1);
    }

    #[test]
    fn request_stream_depends_only_on_seed_and_tick_time() {
        let mut a = RequestGen::new(9);
        let mut b = RequestGen::new(9);
        for k in 0..500 {
            let now = SimTime::from_secs(2_400 + k / 10);
            assert_eq!(a.next(now), b.next(now));
        }
        assert!(
            a.repeat_share() > 0.0,
            "quantized windows repeat predicates"
        );
        let mut c = RequestGen::new(10);
        let now = SimTime::from_secs(2_400);
        let differs = (0..50).any(|_| a.next(now) != c.next(now));
        assert!(differs);
    }
}
