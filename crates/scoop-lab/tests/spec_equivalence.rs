//! Equivalence proof for the ScenarioSpec redesign: building an engine
//! through `SimBuilder` from a spec produces byte-identical artifacts to
//! explicit hand construction (`Topology::office_floor` plus
//! `LinkModel::from_spec` on the shipped calibrated `LinkSpec::default()`,
//! passed to `build_engine_with`).

use scoop_lab::artifact::{Artifact, Provenance};
use scoop_lab::rows::RowSet;
use scoop_lab::suite::{ExperimentId, SuiteOptions};
use scoop_net::{LinkModel, Topology};
use scoop_sim::experiments::Fig3Row;
use scoop_sim::{
    build_engine_with, run_built_experiment, run_experiment, MessageBreakdown, RunResult,
};
use scoop_types::{ExperimentConfig, LinkSpec, ScenarioSpec};

/// Builds the engine by hand — the office-floor topology and the calibrated
/// distance-decay link model, constructed directly — and measures it
/// through the shared runner.
fn hand_built_run(config: &ExperimentConfig) -> RunResult {
    assert_eq!(
        config.link,
        LinkSpec::default(),
        "hand construction pins the default link model"
    );
    let topology = Topology::office_floor(config.num_nodes, config.seed).unwrap();
    let links = LinkModel::from_spec(&LinkSpec::default(), &topology, config.seed).unwrap();
    let engine = build_engine_with(config, topology, links).unwrap();
    run_built_experiment(config, engine).unwrap()
}

fn artifact_for(result: &RunResult) -> Artifact {
    let rows = RowSet::Fig3(vec![Fig3Row {
        policy: result.config.policy.kind,
        source: result.config.workload.data_source,
        messages: result.messages,
        total: result.messages.total(),
    }]);
    let options = SuiteOptions::quick_smoke();
    Artifact::new(
        ExperimentId::Fig3Middle,
        &options,
        &result.config,
        rows,
        Provenance::masked(),
    )
}

#[test]
fn default_spec_path_is_byte_identical_to_hand_construction() {
    let spec = ScenarioSpec::paper_defaults();
    let by_hand = hand_built_run(&spec);
    let through_spec = run_experiment(&spec).unwrap();

    // Full metric equality first (clearer failure than a JSON diff)...
    assert_eq!(by_hand.messages, through_spec.messages);
    assert_eq!(by_hand.storage, through_spec.storage);
    assert_eq!(by_hand.queries, through_spec.queries);
    assert_eq!(by_hand.per_node_tx, through_spec.per_node_tx);
    assert_eq!(by_hand.per_node_rx, through_spec.per_node_rx);

    // ...then the artifact bytes, the unit committed results are stored in.
    assert_eq!(
        artifact_for(&by_hand).to_json().unwrap(),
        artifact_for(&through_spec).to_json().unwrap(),
        "spec-built and hand-built artifacts must serialize identically"
    );
}

#[test]
fn small_test_spec_path_is_byte_identical_across_policies() {
    for policy in scoop_types::StoragePolicy::ALL {
        let mut spec = ScenarioSpec::small_test();
        spec.policy.kind = policy;
        spec.workload.data_source = scoop_types::DataSourceKind::Gaussian;
        let by_hand = hand_built_run(&spec);
        let through_spec = run_experiment(&spec).unwrap();
        assert_eq!(
            artifact_for(&by_hand).to_json().unwrap(),
            artifact_for(&through_spec).to_json().unwrap(),
            "{policy}: spec path drifted from hand construction"
        );
    }
}

#[test]
fn message_breakdown_total_is_consistent() {
    // Guard the helper used above: the artifact totals must match the
    // runner's own accounting.
    let spec = ScenarioSpec::small_test();
    let result = run_experiment(&spec).unwrap();
    let b: MessageBreakdown = result.messages;
    assert_eq!(b.total(), result.total_messages());
}
