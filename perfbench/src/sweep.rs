//! `paper-sweep` and `scale-32k`: whole-network simulations, rows checked
//! against the committed `results/` artifacts.
//!
//! Every grid point runs at its artifact's own seed, so every run of every
//! workload seed is checked byte-for-byte against `results/`. The workload
//! seed decides the order in which the networks are built and run.
//!
//! Untraced runs go through the program's own entry points
//! (`SimBuilder::build`, `run_built_experiment`). Traced runs call the layers
//! one by one — `TopologyGen::generate`, `LinkGen::generate`, `assemble`,
//! then `Engine::run_until` in windows — and time each call. Both paths must
//! produce the same rows; a traced run also replays the first network of
//! every experiment untraced and compares the two results field by field.

use crate::stats::{Samples, SplitMix};
use crate::{peak_rss_mb, Args, Report};
use scoop_core::histogram::SummaryHistogram;
use scoop_core::index::{IndexBuilder, IndexBuilderConfig};
use scoop_core::summary::ReportedNeighbor;
use scoop_core::{CostParams, StatsStore, SummaryMessage};
use scoop_lab::{ArtifactStore, RowSet};
use scoop_net::{Engine, LinkGen, StdLinkGen, StdTopologyGen, TopologyGen};
use scoop_sim::builder::assemble;
use scoop_sim::experiments::{
    chaos, fig4, workloads, AggregateOpsRow, ChaosRow, Fig3Row, Fig4Row, ScalingRow,
};
use scoop_sim::{
    average_results, run_built_experiment, MessageBreakdown, QueryMetrics, RunResult, SimBuilder,
    SimNode, StorageMetrics,
};
use scoop_types::{
    AggregateOp, DataSourceKind, ExperimentConfig, MessageStats, NodeId, ScoopError, SimDuration,
    SimTime, StorageIndexId, StoragePolicy, TopologyKind, TopologySpec, Value, ValueRange,
    WorkloadKind,
};
use std::time::Instant;

/// Which simulation workload to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Grid {
    /// `fig3-left`, `fig4`, `aggregate-ops` and `chaos-failover` at paper
    /// scale.
    PaperSweep,
    /// `scaling-32768`: 32,767 sensors under HASH.
    Scale32k,
}

/// The seed every committed paper-scale artifact was produced with.
const ARTIFACT_SEED: u64 = 1;
/// Trials the committed artifacts average.
const TRIALS: usize = 3;
/// Windows per run in a traced run; the queue depth is sampled between them.
const TRACE_WINDOWS: u64 = 40;
/// Setup rounds in an untraced `paper-sweep` run, spread evenly over its
/// first pass. Each builds every network of the grid once; `setup_s` is the
/// median round.
const SETUP_ROUNDS: usize = 40;

/// One experiment of a grid and how its rows are built.
enum Kind {
    Fig3(Vec<(StoragePolicy, DataSourceKind)>),
    Fig4(Vec<(StoragePolicy, f64)>),
    Aggregate(Vec<(StoragePolicy, AggregateOp)>),
    ChaosFailover,
    Scaling(usize),
}

struct Experiment {
    slug: &'static str,
    kind: Kind,
    /// One configuration per scenario, before the trial seed is applied.
    scenarios: Vec<ExperimentConfig>,
}

/// One network to build and run.
#[derive(Clone)]
struct Job {
    experiment: usize,
    scenario: usize,
    trial: usize,
    cfg: ExperimentConfig,
    /// Chaos phase boundaries `(warmup, b1, b2, end)`; `None` for a plain
    /// measured run.
    phases: Option<[SimTime; 4]>,
}

/// Per-phase counter deltas of a chaos run.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
struct Phase {
    sampled: u64,
    stored: u64,
    targets: u64,
    replies: u64,
}

#[derive(Clone, Debug, PartialEq)]
enum Outcome {
    Run(Box<RunResult>),
    Phased([Phase; 3]),
}

/// Host times and event count of one network.
struct JobTiming {
    setup_s: f64,
    loop_s: f64,
    events: u64,
}

/// Per-layer accumulators of a traced pass.
#[derive(Default)]
struct Layers {
    topology_gen: Samples,
    link_gen: Samples,
    engine_init: Samples,
    event_loop_s: f64,
    events: u64,
    queue_peak: usize,
    tx: MessageStats,
    rx_total: u64,
    snooped: u64,
    send_failures: u64,
    sensors: u64,
    attached: u64,
    hops: u64,
    path_etx: f64,
    sampled: u64,
    stored_owner: u64,
    stored_base_fallback: u64,
    stored_local_default: u64,
    queries_issued: u64,
    query_targets: u64,
    replies: u64,
    readings_returned: u64,
    metrics_extract_s: f64,
    index_builds: u64,
    remaps_suppressed: u64,
}

fn paper_base() -> ExperimentConfig {
    let mut cfg = ExperimentConfig::paper_defaults();
    cfg.seed = ARTIFACT_SEED;
    cfg
}

fn experiments(grid: Grid) -> Vec<Experiment> {
    let base = paper_base();
    let with = |f: &dyn Fn(&mut ExperimentConfig)| {
        let mut cfg = base.clone();
        f(&mut cfg);
        cfg
    };
    match grid {
        Grid::PaperSweep => {
            let fig3 = vec![
                (StoragePolicy::Scoop, DataSourceKind::Unique),
                (StoragePolicy::Scoop, DataSourceKind::Gaussian),
                (StoragePolicy::Local, DataSourceKind::Gaussian),
                (StoragePolicy::Base, DataSourceKind::Gaussian),
            ];
            // The policies `aggregate_ops` and `fig4_selectivity` compare.
            let policies = [
                StoragePolicy::Scoop,
                StoragePolicy::Local,
                StoragePolicy::Base,
            ];
            let widths: Vec<(StoragePolicy, f64)> = policies
                .into_iter()
                .flat_map(|p| fig4::default_width_fracs().into_iter().map(move |f| (p, f)))
                .collect();
            let ops: Vec<(StoragePolicy, AggregateOp)> = policies
                .into_iter()
                .flat_map(|p| {
                    workloads::default_aggregate_ops()
                        .into_iter()
                        .map(move |op| (p, op))
                })
                .collect();
            vec![
                Experiment {
                    slug: "fig3-left",
                    scenarios: fig3
                        .iter()
                        .map(|&(policy, source)| {
                            with(&|c| {
                                c.policy.kind = policy;
                                c.workload.data_source = source;
                            })
                        })
                        .collect(),
                    kind: Kind::Fig3(fig3),
                },
                Experiment {
                    slug: "fig4",
                    scenarios: widths
                        .iter()
                        .map(|&(policy, frac)| {
                            with(&|c| {
                                c.policy.kind = policy;
                                c.workload.queries.min_width_frac = frac;
                                c.workload.queries.max_width_frac = frac;
                            })
                        })
                        .collect(),
                    kind: Kind::Fig4(widths),
                },
                Experiment {
                    slug: "aggregate-ops",
                    scenarios: ops
                        .iter()
                        .map(|&(policy, op)| {
                            with(&|c| {
                                c.policy.kind = policy;
                                c.workload.kind =
                                    WorkloadKind::aggregate(op, WorkloadKind::DEFAULT_EPSILON);
                            })
                        })
                        .collect(),
                    kind: Kind::Aggregate(ops),
                },
                Experiment {
                    slug: "chaos-failover",
                    scenarios: vec![
                        chaos::scenario_config(&base, chaos::ChaosScenario::SinkFailover),
                        chaos::control_config(&base),
                    ],
                    kind: Kind::ChaosFailover,
                },
            ]
        }
        Grid::Scale32k => {
            let nodes = 32_767;
            vec![Experiment {
                slug: "scaling-32768",
                scenarios: vec![with(&|c| {
                    c.topology = TopologySpec {
                        kind: TopologyKind::Grid,
                        ..c.topology
                    };
                    c.warmup = SimDuration::from_secs(90);
                    c.duration = SimDuration::from_secs(210);
                    c.policy.kind = StoragePolicy::Hash;
                    c.workload.data_source = DataSourceKind::Gaussian;
                    c.num_nodes = nodes;
                })],
                kind: Kind::Scaling(nodes),
            }]
        }
    }
}

fn jobs(experiments: &[Experiment]) -> Vec<Job> {
    let mut jobs = Vec::new();
    for (e, exp) in experiments.iter().enumerate() {
        // Chaos phases are cut at the faulted scenario's boundaries, for the
        // control run too.
        let phases = matches!(exp.kind, Kind::ChaosFailover).then(|| {
            let (w, b1, b2, end) = chaos::phase_boundaries(&exp.scenarios[0]);
            [w, b1, b2, end]
        });
        for (s, cfg) in exp.scenarios.iter().enumerate() {
            for trial in 0..TRIALS {
                let mut cfg = cfg.clone();
                cfg.seed += trial as u64;
                jobs.push(Job {
                    experiment: e,
                    scenario: s,
                    trial,
                    cfg,
                    phases,
                });
            }
        }
    }
    jobs
}

fn phase_snapshot(engine: &Engine<SimNode>) -> Phase {
    let mut p = Phase::default();
    for (_, node) in engine.iter_nodes() {
        p.sampled += node.metrics.sampled;
        p.stored += node.metrics.stored;
        let (_, targets, replies, _, answered_locally) = node.query_outcomes();
        p.targets += targets;
        p.replies += replies + answered_locally;
    }
    p
}

/// Advances `engine` to `t`: in one call untraced, in windows (recording the
/// queue depth between them) when traced.
fn advance(
    engine: &mut Engine<SimNode>,
    t: SimTime,
    window: Option<SimDuration>,
    peak: &mut usize,
) {
    let Some(window) = window else {
        engine.run_until(t);
        return;
    };
    while engine.now() < t {
        let next = (engine.now() + window).min(t);
        engine.run_until(next);
        *peak = (*peak).max(engine.pending_events());
    }
}

fn run_phases(
    engine: &mut Engine<SimNode>,
    bounds: [SimTime; 4],
    window: Option<SimDuration>,
    peak: &mut usize,
) -> [Phase; 3] {
    advance(engine, bounds[0], window, peak);
    let mut prev = phase_snapshot(engine);
    let mut phases = [Phase::default(); 3];
    for (slot, &b) in phases.iter_mut().zip(&bounds[1..]) {
        advance(engine, b, window, peak);
        let cur = phase_snapshot(engine);
        *slot = Phase {
            sampled: cur.sampled - prev.sampled,
            stored: cur.stored - prev.stored,
            targets: cur.targets - prev.targets,
            replies: cur.replies - prev.replies,
        };
        prev = cur;
    }
    phases
}

fn diff(after: &MessageStats, before: &MessageStats) -> MessageStats {
    MessageStats {
        data: after.data - before.data,
        summary: after.summary - before.summary,
        mapping: after.mapping - before.mapping,
        query: after.query - before.query,
        reply: after.reply - before.reply,
        aggregate: after.aggregate - before.aggregate,
        heartbeat: after.heartbeat - before.heartbeat,
    }
}

/// The measurement `run_built_experiment` makes, with the event loop in
/// windows and the metric extraction timed separately.
fn run_measured_traced(
    cfg: &ExperimentConfig,
    engine: &mut Engine<SimNode>,
    window: SimDuration,
    layers: &mut Layers,
) -> (RunResult, f64) {
    let mut peak = layers.queue_peak;
    let started = Instant::now();
    advance(engine, SimTime::ZERO + cfg.warmup, Some(window), &mut peak);
    let n = engine.topology().len();
    let nodes = || (0..n).map(|i| NodeId(i as u16));
    let warm_tx: Vec<MessageStats> = nodes().map(|id| engine.stats().node(id).tx).collect();
    let warm_rx: Vec<MessageStats> = nodes().map(|id| engine.stats().node(id).rx).collect();
    advance(
        engine,
        SimTime::ZERO + cfg.duration,
        Some(window),
        &mut peak,
    );
    let loop_s = started.elapsed().as_secs_f64();
    layers.queue_peak = peak;

    let extract = Instant::now();
    let mut network = MessageStats::default();
    let mut per_node_tx = Vec::with_capacity(n);
    let mut per_node_rx = Vec::with_capacity(n);
    for (i, id) in nodes().enumerate() {
        let tx = diff(&engine.stats().node(id).tx, &warm_tx[i]);
        let rx = diff(&engine.stats().node(id).rx, &warm_rx[i]);
        network += tx;
        per_node_tx.push(tx.cost());
        per_node_rx.push(rx.cost());
    }
    let mut storage = StorageMetrics::default();
    let mut queries = QueryMetrics::default();
    let (mut indices_disseminated, mut remaps_suppressed) = (0, 0);
    for (_, node) in engine.iter_nodes() {
        let m = node.metrics;
        storage.sampled += m.sampled;
        storage.stored += m.stored;
        storage.stored_at_owner += m.stored_as_owner;
        storage.stored_at_base_fallback += m.stored_base_fallback;
        storage.stored_local_default += m.stored_local_default;
        let (issued, targets, replies, readings, local) = node.query_outcomes();
        queries.issued += issued;
        queries.targets_total += targets;
        queries.replies_received += replies;
        queries.readings_returned += readings;
        queries.answered_locally += local;
        indices_disseminated += node.indices_disseminated();
        remaps_suppressed += node.remaps_suppressed();
    }
    let result = RunResult {
        config: cfg.clone(),
        messages: MessageBreakdown::from_stats(&network),
        per_node_tx,
        per_node_rx,
        storage,
        queries,
        indices_disseminated,
        remaps_suppressed,
        events_processed: engine.events_processed(),
    };
    layers.metrics_extract_s += extract.elapsed().as_secs_f64();
    (result, loop_s)
}

/// Host seconds to build every network of `jobs` once through the program's
/// own builder; the networks are dropped untimed.
fn setup_round(jobs: &[Job]) -> Result<f64, ScoopError> {
    let mut total = 0.0;
    for job in jobs {
        let started = Instant::now();
        let engine = SimBuilder::new(job.cfg.clone()).build()?;
        total += started.elapsed().as_secs_f64();
        drop(engine);
    }
    Ok(total)
}

/// Builds and runs one network through the program's own entry points.
fn run_untraced(job: &Job) -> Result<(Outcome, JobTiming), ScoopError> {
    let started = Instant::now();
    let mut engine = SimBuilder::new(job.cfg.clone()).build()?;
    let setup_s = started.elapsed().as_secs_f64();
    let started = Instant::now();
    let (outcome, events) = match job.phases {
        Some(bounds) => {
            let phases = run_phases(&mut engine, bounds, None, &mut 0);
            (Outcome::Phased(phases), engine.events_processed())
        }
        None => {
            let r = run_built_experiment(&job.cfg, engine)?;
            let events = r.events_processed;
            (Outcome::Run(Box::new(r)), events)
        }
    };
    let loop_s = started.elapsed().as_secs_f64();
    Ok((
        outcome,
        JobTiming {
            setup_s,
            loop_s,
            events,
        },
    ))
}

/// Builds and runs one network layer by layer, timing each call and
/// collecting the layer counters.
fn run_traced(job: &Job, layers: &mut Layers) -> Result<(Outcome, JobTiming), ScoopError> {
    let spec = &job.cfg;
    spec.validate()?;
    let setup = Instant::now();
    let sensors = spec.num_nodes + spec.faults.total_joins(spec.num_nodes);
    let t = Instant::now();
    let topology = StdTopologyGen.generate(&spec.topology, sensors, spec.seed)?;
    layers.topology_gen.push(t.elapsed().as_secs_f64());
    let t = Instant::now();
    let links = StdLinkGen.generate(&spec.link, &topology, spec.seed)?;
    layers.link_gen.push(t.elapsed().as_secs_f64());
    let t = Instant::now();
    let mut engine = assemble(spec, topology, links)?;
    layers.engine_init.push(t.elapsed().as_secs_f64());
    let setup_s = setup.elapsed().as_secs_f64();

    let window = SimDuration::from_millis((spec.duration.as_millis() / TRACE_WINDOWS).max(1));
    let (outcome, loop_s) = match job.phases {
        Some(bounds) => {
            let mut peak = layers.queue_peak;
            let started = Instant::now();
            let phases = run_phases(&mut engine, bounds, Some(window), &mut peak);
            layers.queue_peak = peak;
            (Outcome::Phased(phases), started.elapsed().as_secs_f64())
        }
        None => {
            let (r, loop_s) = run_measured_traced(spec, &mut engine, window, layers);
            (Outcome::Run(Box::new(r)), loop_s)
        }
    };
    let events = engine.events_processed();
    layers.event_loop_s += loop_s;
    layers.events += events;
    collect_layer_counts(&engine, layers);
    Ok((
        outcome,
        JobTiming {
            setup_s,
            loop_s,
            events,
        },
    ))
}

fn collect_layer_counts(engine: &Engine<SimNode>, layers: &mut Layers) {
    let stats = engine.stats();
    layers.tx += stats.total_tx();
    layers.rx_total += stats.total_rx().total();
    for (id, node_stats) in stats.iter() {
        layers.snooped += node_stats.snooped;
        layers.send_failures += node_stats.send_failures;
        if id == NodeId::BASESTATION {
            continue;
        }
        let routing = engine.node(id).routing();
        layers.sensors += 1;
        if routing.is_attached() {
            layers.attached += 1;
            layers.hops += routing.hops() as u64;
            layers.path_etx += routing.path_etx();
        }
    }
    for (_, node) in engine.iter_nodes() {
        let m = node.metrics;
        layers.sampled += m.sampled;
        layers.stored_owner += m.stored_as_owner;
        layers.stored_base_fallback += m.stored_base_fallback;
        layers.stored_local_default += m.stored_local_default;
        let (issued, targets, replies, readings, local) = node.query_outcomes();
        layers.queries_issued += issued;
        layers.query_targets += targets;
        layers.replies += replies + local;
        layers.readings_returned += readings;
        layers.index_builds += node.indices_disseminated() + node.remaps_suppressed();
        layers.remaps_suppressed += node.remaps_suppressed();
    }
}

fn phase_rates(p: &Phase) -> (f64, f64) {
    let storage = if p.sampled == 0 {
        1.0
    } else {
        p.stored as f64 / p.sampled as f64
    };
    let query = if p.targets == 0 {
        1.0
    } else {
        (p.replies as f64 / p.targets as f64).min(1.0)
    };
    (storage, query)
}

/// The rows of one experiment from its outcomes, indexed
/// `[scenario][trial]`; built exactly as the experiment functions build them.
fn rows(exp: &Experiment, outcomes: &[Vec<Outcome>]) -> RowSet {
    let averaged = || {
        outcomes.iter().map(|trials| {
            let runs: Vec<RunResult> = trials
                .iter()
                .map(|o| match o {
                    Outcome::Run(r) => (**r).clone(),
                    Outcome::Phased(_) => unreachable!("plain experiment"),
                })
                .collect();
            average_results(&runs).expect("trials >= 1")
        })
    };
    match &exp.kind {
        Kind::Fig3(combos) => RowSet::Fig3(
            combos
                .iter()
                .zip(averaged())
                .map(|(&(policy, source), avg)| Fig3Row {
                    policy,
                    source,
                    messages: avg.messages,
                    total: avg.messages.total(),
                })
                .collect(),
        ),
        Kind::Fig4(grid) => RowSet::Fig4(
            grid.iter()
                .zip(averaged())
                .map(|(&(policy, frac), avg)| Fig4Row {
                    policy,
                    requested_width_frac: frac,
                    fraction_nodes_queried: match policy {
                        StoragePolicy::Local => 1.0,
                        StoragePolicy::Base => 0.0,
                        _ => avg.fraction_nodes_queried(),
                    },
                    total_messages: avg.total_messages(),
                })
                .collect(),
        ),
        Kind::Aggregate(grid) => RowSet::Aggregate(
            grid.iter()
                .zip(averaged())
                .map(|(&(policy, op), avg)| AggregateOpsRow {
                    policy,
                    op: op.label(),
                    total_messages: avg.total_messages(),
                    query_reply_messages: avg.messages.query_reply,
                    query_success: avg.queries.query_success(),
                })
                .collect(),
        ),
        Kind::Scaling(n) => RowSet::Scaling(
            averaged()
                .map(|avg| ScalingRow {
                    source: DataSourceKind::Gaussian,
                    num_nodes: *n,
                    total_messages: avg.total_messages(),
                    messages_per_node: avg.total_messages() as f64 / (*n).max(1) as f64,
                    storage_success: avg.storage.storage_success(),
                })
                .collect(),
        ),
        Kind::ChaosFailover => {
            // Scenario 0 is the faulted run, scenario 1 its control; trials
            // accumulate in seed order, as `experiments::chaos` does.
            let mut acc = [[(0.0f64, 0.0f64, 0u64, 0u64); 3]; 2];
            for (slot, trials) in acc.iter_mut().zip(outcomes) {
                for outcome in trials {
                    let Outcome::Phased(phases) = outcome else {
                        unreachable!("chaos runs are phased");
                    };
                    for (a, p) in slot.iter_mut().zip(phases) {
                        let (storage, query) = phase_rates(p);
                        a.0 += storage;
                        a.1 += query;
                        a.2 += p.sampled;
                        a.3 += p.targets;
                    }
                }
            }
            let k = outcomes[0].len() as f64;
            RowSet::Chaos(
                chaos::PHASES
                    .iter()
                    .enumerate()
                    .map(|(i, &phase)| ChaosRow {
                        scenario: chaos::ChaosScenario::SinkFailover.slug().to_string(),
                        phase: phase.to_string(),
                        storage_success: acc[0][i].0 / k,
                        query_success: acc[0][i].1 / k,
                        control_storage_success: acc[1][i].0 / k,
                        control_query_success: acc[1][i].1 / k,
                        sampled: ((acc[0][i].2 as f64) / k).round() as u64,
                        targets: ((acc[0][i].3 as f64) / k).round() as u64,
                    })
                    .collect(),
            )
        }
    }
}

/// The rows the program's own experiment function gives for a one-trial
/// slice of `exp`, and the scenarios of `exp` that slice covers: all of
/// `fig3-left`, the first width of `fig4` and the first operator of
/// `aggregate-ops` under every policy, and the chaos scenario with its
/// control. `None` for `scaling-32768`, whose one network costs a whole run.
fn program_rows(exp: &Experiment) -> Result<Option<(Vec<usize>, RowSet)>, ScoopError> {
    let base = paper_base();
    // Scenario indices of the first grid point under each policy, for grids
    // laid out policy-major.
    let first_per_policy = |points: usize| (0..3).map(|p| p * points).collect::<Vec<_>>();
    Ok(Some(match &exp.kind {
        Kind::Fig3(combos) => (
            (0..combos.len()).collect(),
            RowSet::Fig3(scoop_sim::experiments::fig3::fig3_left(&base, 1)?),
        ),
        Kind::Fig4(grid) => {
            let widths = fig4::default_width_fracs();
            debug_assert_eq!(grid.len(), 3 * widths.len());
            (
                first_per_policy(widths.len()),
                RowSet::Fig4(fig4::fig4_selectivity(&base, &widths[..1], 1)?),
            )
        }
        Kind::Aggregate(grid) => {
            let ops = workloads::default_aggregate_ops();
            debug_assert_eq!(grid.len(), 3 * ops.len());
            (
                first_per_policy(ops.len()),
                RowSet::Aggregate(workloads::aggregate_ops(&base, &ops[..1], 1)?),
            )
        }
        Kind::ChaosFailover => (
            vec![0, 1],
            RowSet::Chaos(chaos::chaos(&base, chaos::ChaosScenario::SinkFailover, 1)?),
        ),
        Kind::Scaling(_) => return Ok(None),
    }))
}

/// `exp` cut down to `scenarios`, for rows over a slice of its grid.
fn slice(exp: &Experiment, scenarios: &[usize]) -> Experiment {
    fn pick<T: Clone>(v: &[T], at: &[usize]) -> Vec<T> {
        at.iter().map(|&i| v[i].clone()).collect()
    }
    Experiment {
        slug: exp.slug,
        kind: match &exp.kind {
            Kind::Fig3(v) => Kind::Fig3(pick(v, scenarios)),
            Kind::Fig4(v) => Kind::Fig4(pick(v, scenarios)),
            Kind::Aggregate(v) => Kind::Aggregate(pick(v, scenarios)),
            Kind::ChaosFailover => Kind::ChaosFailover,
            Kind::Scaling(n) => Kind::Scaling(*n),
        },
        scenarios: pick(&exp.scenarios, scenarios),
    }
}

/// Each row of a row set, serialized on its own.
pub fn row_strings(rows: &RowSet) -> Vec<String> {
    fn each<T: serde::Serialize>(v: &[T]) -> Vec<String> {
        v.iter()
            .map(|r| serde_json::to_string(r).expect("rows serialize"))
            .collect()
    }
    match rows {
        RowSet::Fig3(v) => each(v),
        RowSet::Fig4(v) => each(v),
        RowSet::Aggregate(v) => each(v),
        RowSet::Chaos(v) => each(v),
        RowSet::Scaling(v) => each(v),
        other => vec![serde_json::to_string(other).expect("rows serialize")],
    }
}

/// Compares rows byte-for-byte; returns `(rows compared, rows differing)`.
/// A row missing on either side counts as differing.
pub fn compare_rows(expected: &RowSet, got: &RowSet) -> (u64, u64) {
    let (e, g) = (row_strings(expected), row_strings(got));
    let n = e.len().max(g.len());
    let bad = (0..n).filter(|&i| e.get(i) != g.get(i)).count();
    (n as u64, bad as u64)
}

/// A statistics store resembling a converged deployment: `sensors` nodes in
/// a chain, each producing values clustered around its own mean, plus a
/// recent query history.
fn converged_stats(sensors: usize, domain: ValueRange) -> StatsStore {
    let width = domain.width() as i64;
    let mut st = StatsStore::new(sensors + 1, domain);
    for i in 1..=sensors {
        let center = domain.lo as i64 + i as i64 * width / (sensors as i64 + 1);
        let values: Vec<Value> = (0..30)
            .map(|k| (center + (k % 5) - 2).clamp(domain.lo as i64, domain.hi as i64) as Value)
            .collect();
        let mut neighbors = vec![ReportedNeighbor {
            node: NodeId((i - 1) as u16),
            quality: 0.8,
        }];
        if i < sensors {
            neighbors.push(ReportedNeighbor {
                node: NodeId((i + 1) as u16),
                quality: 0.8,
            });
        }
        st.record_summary(SummaryMessage {
            node: NodeId(i as u16),
            histogram: SummaryHistogram::build(&values, 10),
            min: values.iter().min().copied(),
            max: values.iter().max().copied(),
            sum: values.iter().map(|&v| v as i64).sum(),
            count: values.len() as u32,
            data_rate_hz: 1.0 / 15.0,
            neighbors,
            parent: Some(NodeId((i - 1) as u16)),
            newest_complete_index: StorageIndexId(1),
            generated_at: SimTime::from_secs(100),
        });
    }
    for q in 0..20i64 {
        let lo = domain.lo as i64 + q * 3 % width;
        st.record_query(
            &ValueRange::new(lo as Value, (lo + 5).min(domain.hi as i64) as Value),
            SimTime::from_secs(600 + q as u64 * 15),
        );
    }
    st
}

/// Host time of `IndexBuilder::build` over a converged store, repeated.
fn index_build_samples(sensors: usize, domain: ValueRange) -> Samples {
    let stats = converged_stats(sensors, domain);
    let builder = IndexBuilder::new(IndexBuilderConfig::default());
    let mut samples = Samples::new();
    for _ in 0..101 {
        let t = Instant::now();
        let decision = builder.build(
            &stats,
            CostParams::with_query_rate(1.0 / 15.0),
            StorageIndexId(2),
            SimTime::from_secs(840),
        );
        samples.push(t.elapsed().as_secs_f64() * 1e6);
        std::hint::black_box(decision);
    }
    samples
}

pub fn run(grid: Grid, args: &Args) -> Result<Report, String> {
    // The program's sweep runner, used by the row cross-check, runs inline
    // on this thread.
    std::env::set_var("SCOOP_SWEEP_THREADS", "1");
    let exps = experiments(grid);
    let artifacts = ArtifactStore::new("results");
    let expected: Vec<RowSet> = exps
        .iter()
        .map(|e| artifacts.load(e.slug).map(|a| a.rows))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("reference rows: {e}"))?;
    let all_jobs = jobs(&exps);
    let mut report = Report::default();
    let mut rng = SplitMix::new(args.seed);
    let began = Instant::now();
    let mut setup = Samples::new();
    let mut setup_rounds = Samples::new();
    // A paper-scale network builds in well under a millisecond, too short a
    // sample to compare on a shared host; whole rounds over the grid are
    // compared instead. A 32k network takes seconds and is its own sample.
    let round_every = match grid {
        Grid::PaperSweep if !args.trace => (all_jobs.len() / SETUP_ROUNDS).max(1),
        _ => usize::MAX,
    };
    let mut per_network_loop = Samples::new();
    let (mut loop_s, mut events, mut passes) = (0.0, 0u64, 0u32);
    let mut layers = Layers::default();
    // Traced outcome and host time of the first network of each experiment,
    // for the comparison with an untraced replay.
    let mut probes: Vec<Option<(Outcome, f64)>> = vec![None; exps.len()];
    loop {
        let mut order: Vec<usize> = (0..all_jobs.len()).collect();
        rng.shuffle(&mut order);
        let mut outcomes: Vec<Vec<Vec<Option<Outcome>>>> = exps
            .iter()
            .map(|e| vec![vec![None; TRIALS]; e.scenarios.len()])
            .collect();
        for (k, &j) in order.iter().enumerate() {
            if (k + 1) % round_every == 0 && setup_rounds.len() < SETUP_ROUNDS {
                let round = setup_round(&all_jobs).map_err(|e| format!("setup round: {e}"))?;
                setup_rounds.push(round);
            }
            let job = &all_jobs[j];
            let result = if args.trace {
                run_traced(job, &mut layers)
            } else {
                run_untraced(job)
            };
            let (outcome, timing) =
                result.map_err(|e| format!("{}: {e}", exps[job.experiment].slug))?;
            setup.push(timing.setup_s);
            per_network_loop.push(timing.loop_s);
            loop_s += timing.loop_s;
            events += timing.events;
            if args.trace && job.scenario == 0 && job.trial == 0 {
                probes[job.experiment] = Some((outcome.clone(), timing.setup_s + timing.loop_s));
            }
            outcomes[job.experiment][job.scenario][job.trial] = Some(outcome);
        }
        for (e, exp) in exps.iter().enumerate() {
            let outs: Vec<Vec<Outcome>> = outcomes[e]
                .iter()
                .map(|t| {
                    t.iter()
                        .map(|o| o.clone().expect("every job ran"))
                        .collect()
                })
                .collect();
            let (n, bad) = compare_rows(&expected[e], &rows(exp, &outs));
            report.attempted += n;
            report.failed += bad;
            if bad > 0 {
                report.note(format!(
                    "{}: {bad} of {n} rows differ from results/{}.json",
                    exp.slug, exp.slug
                ));
            }
        }
        if passes == 0 {
            // The benchmark assembles rows (and runs the chaos phases) with
            // its own copy of the program's code, to time setup and event
            // loop apart. Tie that copy to the program: the program's own
            // experiment functions, over a one-trial slice of each grid,
            // must give the rows the benchmark builds from the same runs.
            for (e, exp) in exps.iter().enumerate() {
                let Some((scenarios, program)) =
                    program_rows(exp).map_err(|err| format!("{}: {err}", exp.slug))?
                else {
                    continue;
                };
                let trial0: Vec<Vec<Outcome>> = scenarios
                    .iter()
                    .map(|&s| vec![outcomes[e][s][0].clone().expect("every job ran")])
                    .collect();
                let (n, bad) = compare_rows(&program, &rows(&slice(exp, &scenarios), &trial0));
                report.attempted += n;
                report.failed += bad;
                if bad > 0 {
                    report.note(format!(
                        "{}: {bad} of {n} one-trial rows differ from the program's own \
                         experiment function",
                        exp.slug
                    ));
                }
            }
        }
        passes += 1;
        // A traced run makes one pass, so its counts describe one sweep.
        if args.trace || began.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    report.note(format!(
        "{} networks per pass, {passes} pass(es), {events} engine events, rows checked against results/",
        all_jobs.len()
    ));
    report.note(setup.describe("setup per network", "s"));
    report.note(per_network_loop.describe("event loop per network", "s"));

    if !args.trace {
        let setup_s = match grid {
            Grid::PaperSweep => {
                report.note(
                    setup_rounds
                        .describe(&format!("setup round ({} networks)", all_jobs.len()), "s"),
                );
                setup_rounds.median()
            }
            Grid::Scale32k => setup.median(),
        };
        report.metric("setup_s", setup_s, "s");
        report.metric("peak_rss_mb", peak_rss_mb(), "MB");
        report.metric("throughput_per_s", events as f64 / loop_s, "1/s");
        // The operation is one network's simulated run: its event loop.
        report.metric("latency_p50_ms", per_network_loop.median() * 1e3, "ms");
        return Ok(report);
    }

    // Tracing must not change a simulated byte: replay the first network of
    // each experiment untraced and compare the outcomes field by field.
    let (mut traced_s, mut untraced_s) = (0.0, 0.0);
    for (e, probe) in probes.into_iter().enumerate() {
        let (traced, traced_time) = probe.expect("every experiment has a first network");
        let job = all_jobs
            .iter()
            .find(|j| j.experiment == e && j.scenario == 0 && j.trial == 0)
            .expect("first network");
        let (untraced, timing) = run_untraced(job).map_err(|err| format!("replay: {err}"))?;
        report.attempted += 1;
        if untraced != traced {
            report.failed += 1;
            report.note(format!(
                "{}: traced and untraced runs of the same network differ",
                exps[e].slug
            ));
        }
        traced_s += traced_time;
        untraced_s += timing.setup_s + timing.loop_s;
    }

    report.metric("net.networks", setup.len() as f64, "count");
    report.metric("net.topology_gen_s", layers.topology_gen.median(), "s");
    report.metric("net.link_gen_s", layers.link_gen.median(), "s");
    report.metric("net.engine_init_s", layers.engine_init.median(), "s");
    report.metric("net.event_loop_s", layers.event_loop_s, "s");
    report.metric(
        "net.ns_per_event",
        layers.event_loop_s * 1e9 / layers.events.max(1) as f64,
        "ns",
    );
    report.metric("net.events", layers.events as f64, "count");
    report.metric("net.queue_peak", layers.queue_peak as f64, "count");
    let tx = layers.tx;
    for (kind, n) in [
        ("data", tx.data),
        ("summary", tx.summary),
        ("mapping", tx.mapping),
        ("query", tx.query),
        ("reply", tx.reply),
        ("aggregate", tx.aggregate),
        ("heartbeat", tx.heartbeat),
    ] {
        report.metric(&format!("net.tx.{kind}"), n as f64, "count");
    }
    report.metric("net.rx_total", layers.rx_total as f64, "count");
    report.metric("net.snooped", layers.snooped as f64, "count");
    report.metric("net.send_failures", layers.send_failures as f64, "count");
    report.metric(
        "net.delivery_ratio",
        layers.rx_total as f64 / tx.total().max(1) as f64,
        "ratio",
    );
    let attached = layers.attached.max(1) as f64;
    report.metric(
        "routing.attached_frac",
        layers.attached as f64 / layers.sensors.max(1) as f64,
        "ratio",
    );
    report.metric("routing.mean_hops", layers.hops as f64 / attached, "hops");
    report.metric("routing.mean_path_etx", layers.path_etx / attached, "etx");
    for (name, n) in [
        ("sim.sampled", layers.sampled),
        ("sim.stored_owner", layers.stored_owner),
        ("sim.stored_base_fallback", layers.stored_base_fallback),
        ("sim.stored_local_default", layers.stored_local_default),
        ("sim.queries_issued", layers.queries_issued),
        ("sim.query_targets", layers.query_targets),
        ("sim.replies", layers.replies),
        ("sim.readings_returned", layers.readings_returned),
    ] {
        report.metric(name, n as f64, "count");
    }
    report.metric("sim.metrics_extract_s", layers.metrics_extract_s, "s");
    report.metric("core.index_builds", layers.index_builds as f64, "count");
    report.metric(
        "core.remaps_suppressed",
        layers.remaps_suppressed as f64,
        "count",
    );
    match grid {
        Grid::PaperSweep => {
            let base = paper_base();
            let mut build = index_build_samples(base.num_nodes, base.workload.value_domain);
            report.note(build.describe("IndexBuilder::build", "us"));
            report.metric("core.index_build_us", build.median(), "us");
        }
        Grid::Scale32k => report.note(
            "core.index_build_us absent: HASH never builds an index, and a build over \
             32,767 candidate owners is O(V*n^2)",
        ),
    }
    report.metric("trace.overhead_s", traced_s - untraced_s, "s");
    report.metric(
        "trace.overhead_frac",
        (traced_s - untraced_s) / untraced_s.max(f64::MIN_POSITIVE),
        "ratio",
    );
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn committed(slug: &str) -> RowSet {
        let results = concat!(env!("CARGO_MANIFEST_DIR"), "/../results");
        ArtifactStore::new(results).load(slug).unwrap().rows
    }

    #[test]
    fn one_changed_row_is_caught() {
        let expected = committed("fig3-left");
        assert_eq!(compare_rows(&expected, &expected), (4, 0));
        let RowSet::Fig3(mut rows) = expected.clone() else {
            panic!("fig3-left holds Figure 3 rows");
        };
        rows[2].messages.query_reply += 1;
        assert_eq!(compare_rows(&expected, &RowSet::Fig3(rows.clone())), (4, 1));
        rows.pop();
        assert_eq!(compare_rows(&expected, &RowSet::Fig3(rows)), (4, 2));
    }

    #[test]
    fn a_changed_float_in_the_last_digit_is_caught() {
        let expected = committed("chaos-failover");
        let RowSet::Chaos(mut rows) = expected.clone() else {
            panic!("chaos-failover holds chaos rows");
        };
        rows[0].query_success = f64::from_bits(rows[0].query_success.to_bits() + 1);
        assert_eq!(compare_rows(&expected, &RowSet::Chaos(rows)), (3, 1));
    }

    #[test]
    fn every_grid_matches_its_artifact_shape() {
        for grid in [Grid::PaperSweep, Grid::Scale32k] {
            for exp in experiments(grid) {
                let rows = row_strings(&committed(exp.slug));
                match exp.kind {
                    Kind::ChaosFailover => assert_eq!(rows.len(), chaos::PHASES.len()),
                    _ => assert_eq!(rows.len(), exp.scenarios.len(), "{}", exp.slug),
                }
            }
        }
    }

    #[test]
    fn cross_check_slices_pick_the_grid_points_the_program_runs() {
        let exps = experiments(Grid::PaperSweep);
        let fig4 = exps.iter().find(|e| e.slug == "fig4").unwrap();
        let width = fig4::default_width_fracs()[0];
        let points = fig4::default_width_fracs().len();
        let Kind::Fig4(grid) = slice(fig4, &[0, points, 2 * points]).kind else {
            panic!("a fig4 slice is a fig4 grid");
        };
        assert_eq!(
            grid,
            [
                (StoragePolicy::Scoop, width),
                (StoragePolicy::Local, width),
                (StoragePolicy::Base, width)
            ]
        );
        let agg = exps.iter().find(|e| e.slug == "aggregate-ops").unwrap();
        let op = workloads::default_aggregate_ops()[0];
        let points = workloads::default_aggregate_ops().len();
        let Kind::Aggregate(grid) = slice(agg, &[0, points, 2 * points]).kind else {
            panic!("an aggregate-ops slice is an aggregate grid");
        };
        assert_eq!(
            grid,
            [
                (StoragePolicy::Scoop, op),
                (StoragePolicy::Local, op),
                (StoragePolicy::Base, op)
            ]
        );
    }
}
