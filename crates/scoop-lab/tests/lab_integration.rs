//! Integration tests for the lab subsystem: artifact schema stability
//! (golden file), run determinism, and the regression-gate exit code.

use scoop_lab::artifact::{Artifact, Provenance};
use scoop_lab::check::{baseline_file_content, run_smoke_suite};
use scoop_lab::cli::run_cli;
use scoop_lab::rows::RowSet;
use scoop_lab::suite::{run_suite, ExperimentId, PointSet, Scale, SuiteOptions};
use std::path::PathBuf;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/fig5_quick_smoke.json")
}

/// The canonical artifact the golden file pins down: quick-scale smoke
/// Figure 5, seed 1, single trial, provenance masked.
fn golden_artifact() -> Artifact {
    let options = SuiteOptions {
        scale: Scale::Quick,
        trials: 1,
        seed: 1,
        points: PointSet::Smoke,
        experiments: vec![ExperimentId::Fig5],
        overrides: Vec::new(),
    };
    let mut artifacts = run_suite(&options, |_| ()).unwrap();
    let mut artifact = artifacts.remove(0);
    artifact.provenance = Provenance::masked();
    artifact
}

/// Schema pin: the committed golden file must deserialize into an
/// [`Artifact`] and re-serialize to the exact committed bytes. Regenerate
/// deliberately with `SCOOP_LAB_BLESS_GOLDEN=1 cargo test -p scoop-lab`.
#[test]
fn golden_artifact_round_trips_byte_for_byte() {
    let path = golden_path();
    if std::env::var("SCOOP_LAB_BLESS_GOLDEN").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        let mut json = golden_artifact().to_json().unwrap();
        json.push('\n');
        std::fs::write(&path, json).unwrap();
    }
    let committed = std::fs::read_to_string(&path)
        .expect("golden file missing; run with SCOOP_LAB_BLESS_GOLDEN=1 once");
    let parsed: Artifact = serde_json::from_str(&committed).unwrap();
    let mut reserialized = parsed.to_json().unwrap();
    reserialized.push('\n');
    assert_eq!(
        reserialized, committed,
        "artifact schema no longer round-trips the committed golden file"
    );
    assert_eq!(parsed.schema_version, scoop_lab::SCHEMA_VERSION);
    assert_eq!(parsed.experiment, "fig5");
    assert_eq!(parsed.scale, "quick");
    assert!(matches!(parsed.rows, RowSet::Fig5(_)));
    assert!(parsed.config_hash.starts_with("fnv1a:"));
}

/// Behavior pin (on top of the schema pin): the golden file's rows are what
/// the current simulator actually produces for that configuration.
#[test]
fn golden_artifact_matches_a_fresh_run() {
    let committed = std::fs::read_to_string(golden_path())
        .expect("golden file missing; run with SCOOP_LAB_BLESS_GOLDEN=1 once");
    let parsed: Artifact = serde_json::from_str(&committed).unwrap();
    let fresh = golden_artifact();
    assert_eq!(
        parsed.deterministic_json().unwrap(),
        fresh.deterministic_json().unwrap(),
        "simulator output changed for the golden configuration; re-bless deliberately"
    );
}

/// Two `scoop-lab run`s with the same seed produce byte-identical artifacts
/// modulo the provenance (timing / git revision) block; a different seed
/// produces different bytes.
#[test]
fn same_seed_runs_are_byte_identical_modulo_provenance() {
    let mut options = SuiteOptions::quick_smoke();
    options.experiments = vec![ExperimentId::Fig3Middle, ExperimentId::Fig5];
    let first = run_suite(&options, |_| ()).unwrap();
    let second = run_suite(&options, |_| ()).unwrap();
    assert_eq!(first.len(), second.len());
    for (a, b) in first.iter().zip(&second) {
        assert_eq!(
            a.deterministic_json().unwrap(),
            b.deterministic_json().unwrap(),
            "{} differs between identical runs",
            a.experiment
        );
    }

    let mut reseeded = options.clone();
    reseeded.seed = 99;
    let third = run_suite(&reseeded, |_| ()).unwrap();
    assert_ne!(
        first[0].deterministic_json().unwrap(),
        third[0].deterministic_json().unwrap(),
        "a different seed must change the measured rows"
    );
}

/// The acceptance-criterion path: `scoop-lab check` exits 0 against a
/// faithful baseline file and non-zero when the committed baseline is
/// perturbed beyond the default tolerance.
#[test]
fn check_exit_codes_track_baseline_perturbation() {
    let dir = std::env::temp_dir().join(format!("scoop-lab-gate-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let baseline_path = dir.join("smoke.json");

    // A faithful baseline: what the current code measures.
    let measured = run_smoke_suite().unwrap();
    std::fs::write(&baseline_path, baseline_file_content(&measured).unwrap()).unwrap();
    let args: Vec<String> = [
        "check",
        "--tolerance",
        "default",
        &format!("--baseline={}", baseline_path.display()),
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    assert_eq!(run_cli(&args), 0, "faithful baseline must pass");

    // Perturb one committed number by ~10 % — beyond the 2 % default.
    let mut perturbed = measured.clone();
    let fig3 = perturbed
        .iter_mut()
        .find(|a| a.experiment == "fig3-middle")
        .unwrap();
    match &mut fig3.rows {
        RowSet::Fig3(rows) => rows[0].total = rows[0].total * 11 / 10 + 1,
        other => panic!("unexpected rows {other:?}"),
    }
    std::fs::write(&baseline_path, baseline_file_content(&perturbed).unwrap()).unwrap();
    assert_eq!(run_cli(&args), 1, "perturbed baseline must fail the gate");

    let _ = std::fs::remove_dir_all(&dir);
}

/// `scoop-lab trace` parses its positional arguments through the axis
/// registry: an unknown policy or source, a non-numeric node count or a
/// fourth argument exits 2 naming what was expected, before any simulation
/// runs.
#[test]
fn trace_rejects_bad_arguments_with_the_axis_vocabulary() {
    for (args, expected) in [
        (&["ghost", "real", "10"][..], "scoop|local|base|hash"),
        (
            &["scoop", "nowhere"][..],
            "real|unique|equal|random|gaussian",
        ),
        (&["scoop", "real", "many"][..], "a node count"),
        (&["scoop", "real", "10", "extra"][..], "unexpected argument"),
    ] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_scoop-lab"))
            .arg("trace")
            .args(args)
            .output()
            .expect("scoop-lab runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "trace {args:?}: {stderr}");
        assert!(stderr.contains(expected), "trace {args:?}: {stderr}");
    }
}
