//! Criterion micro-benchmark of the discrete-event engine's hot path: the
//! per-event cost the whole reproduction is bottlenecked on (every paper
//! figure is a message count over 62–512-node lossy networks).
//!
//! Two shapes are measured, and each prints an **events/sec** figure — the
//! same throughput number `scoop-lab run` records into artifact provenance
//! and `BENCH_history.jsonl`:
//!
//! * `flood/<n>` — a synthetic allocation-free protocol (periodic broadcasts
//!   plus lossy unicasts with snooping) on an `n`-node grid. This isolates
//!   raw engine dispatch: CSR neighbor iteration, buffer reuse, queue
//!   recycling — no protocol logic in the way.
//! * `scoop/quick` — one full quick-scale SCOOP experiment through
//!   `run_experiment`, i.e. the real `SimNode` protocol over shared
//!   (`Arc`) payloads: the end-to-end hot path the figures pay for.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use scoop_net::{
    Engine, EngineConfig, LinkModel, NodeCtx, NodeLogic, Packet, TimerToken, Topology,
};
use scoop_sim::run_experiment;
use scoop_types::{
    DataSourceKind, ExperimentConfig, LinkSpec, MessageKind, NodeId, SimDuration, SimTime,
    StoragePolicy,
};

/// The same allocation-free traffic shape as the `zero_alloc` gate test:
/// every node broadcasts each second, two nodes exchange lossy unicasts.
#[derive(Default)]
struct FloodApp {
    received: u64,
}

const TICK: TimerToken = 1;

impl NodeLogic for FloodApp {
    type Payload = u64;

    fn on_init(&mut self, ctx: &mut NodeCtx<'_, u64>) {
        ctx.set_timer(SimDuration::from_millis(500 + ctx.id().0 as u64 * 37), TICK);
    }

    fn on_packet(&mut self, _ctx: &mut NodeCtx<'_, u64>, _packet: Packet<u64>, addressed: bool) {
        if addressed {
            self.received += 1;
        }
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_, u64>, _token: TimerToken) {
        ctx.send_broadcast(MessageKind::Heartbeat, None, self.received);
        let me = ctx.id();
        if me == NodeId(1) {
            ctx.send_unicast(NodeId(2), MessageKind::Data, None, self.received);
        } else if me == NodeId(2) {
            ctx.send_unicast(NodeId(1), MessageKind::Data, Some(NodeId(1)), self.received);
        }
        ctx.set_timer(SimDuration::from_secs(1), TICK);
    }
}

/// Runs a fresh flood engine for `sim_secs` of simulated time, returning the
/// number of events dispatched (the bench divides by wall time afterwards).
fn run_flood(side: usize, sim_secs: u64) -> u64 {
    let topo = Topology::grid(side, 10.0).expect("grid");
    let links = LinkModel::from_spec(&LinkSpec::default(), &topo, 42).expect("links");
    let nodes = (0..topo.len()).map(|_| FloodApp::default()).collect();
    let mut engine = Engine::new(topo, links, nodes, EngineConfig::default()).expect("engine");
    engine.run_until(SimTime::from_secs(sim_secs));
    engine.events_processed()
}

/// A quick-scale SCOOP configuration (16 nodes, 12 simulated minutes).
fn quick_scoop_config() -> ExperimentConfig {
    let mut cfg = ExperimentConfig::small_test();
    cfg.policy.kind = StoragePolicy::Scoop;
    cfg.workload.data_source = DataSourceKind::Gaussian;
    cfg
}

fn bench_engine_hot_path(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_hot_path");
    group.sample_size(10);

    for side in [4usize, 8] {
        let nodes = side * side;
        group.bench_with_input(BenchmarkId::new("flood", nodes), &side, |b, &side| {
            b.iter(|| black_box(run_flood(side, 180)));
        });
        // The throughput figure the mean time corresponds to.
        let events = run_flood(side, 180);
        let start = std::time::Instant::now();
        let _ = black_box(run_flood(side, 180));
        let secs = start.elapsed().as_secs_f64();
        println!(
            "  flood/{nodes}: {events} events per run -> {:.0} events/s",
            events as f64 / secs.max(1e-9)
        );
    }

    let cfg = quick_scoop_config();
    group.bench_with_input(BenchmarkId::new("scoop", "quick"), &cfg, |b, cfg| {
        b.iter(|| black_box(run_experiment(cfg).expect("quick run")));
    });
    let result = run_experiment(&cfg).expect("quick run");
    let start = std::time::Instant::now();
    let _ = black_box(run_experiment(&cfg).expect("quick run"));
    let secs = start.elapsed().as_secs_f64();
    println!(
        "  scoop/quick: {} events per run -> {:.0} events/s",
        result.events_processed,
        result.events_processed as f64 / secs.max(1e-9)
    );

    group.finish();
}

criterion_group!(benches, bench_engine_hot_path);
criterion_main!(benches);
