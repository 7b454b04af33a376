//! The calibration oracle: the shipped `LinkSpec::default()` can never
//! silently drift from the committed calibration evidence.
//!
//! The committed `results/calibration.json` is the measured grid the
//! defaults were re-baselined from. This test re-runs the *objective* (not
//! the simulations — scoring the committed rows is cheap and deterministic)
//! and asserts that:
//!
//! 1. every stored `objective` score equals a fresh scoring of its row,
//! 2. the stored `winner` is the argmin of the stored grid,
//! 3. `LinkSpec::default()` in this binary *is* that argmin, and
//! 4. the winner meets the acceptance thresholds the re-baseline promised
//!    (≥ 80 % storage success, ≥ 70 % query success at paper scale).
//!
//! Changing the defaults without rerunning `scoop-lab calibrate` (or
//! rerunning it and ignoring its winner) fails here.

use scoop_lab::calibrate::{load_calibration, CalibrationPoint, Objective};
use scoop_types::LinkSpec;
use std::path::PathBuf;

fn committed_calibration_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results/calibration.json")
}

#[test]
fn shipped_default_is_the_argmin_of_the_committed_grid() {
    let artifact = load_calibration(&committed_calibration_path())
        .expect("committed results/calibration.json loads");
    assert_eq!(
        artifact.scale, "paper",
        "the committed calibration must be a paper-scale run"
    );
    assert!(
        artifact.rows.len() >= 8,
        "the committed grid must be a real search, not a smoke run ({} points)",
        artifact.rows.len()
    );

    // The objective stored in the artifact must be the paper objective the
    // code ships — otherwise "argmin" would be against a different ruler.
    assert_eq!(artifact.objective, Objective::paper());

    // Re-score every committed row and find the argmin independently.
    let mut best: Option<(usize, f64)> = None;
    for (i, row) in artifact.rows.iter().enumerate() {
        let rescored = artifact.objective.score(row);
        assert!(
            (row.objective - rescored).abs() < 1e-12,
            "row {i} ({}) stores objective {} but re-scores to {rescored}",
            row.point.label(),
            row.objective
        );
        if best.is_none() || rescored < best.unwrap().1 {
            best = Some((i, rescored));
        }
    }
    let (argmin_index, _) = best.expect("grid is non-empty");
    let argmin = artifact.rows[argmin_index].point;

    assert!(
        artifact.winner.same_knobs(&argmin),
        "committed winner {} is not the argmin {} of the committed grid",
        artifact.winner.label(),
        argmin.label()
    );

    let shipped = CalibrationPoint::from_spec(&LinkSpec::default());
    assert!(
        shipped.same_knobs(&argmin),
        "LinkSpec::default() ({}) drifted from the calibration argmin ({}); \
         rerun `scoop-lab calibrate` and re-baseline, or revert the default",
        shipped.label(),
        argmin.label()
    );
    assert!(
        artifact.shipped_default.same_knobs(&shipped),
        "the committed artifact was produced by a binary with a different \
         default ({}); regenerate results/calibration.json",
        artifact.shipped_default.label()
    );
}

#[test]
fn committed_winner_meets_the_acceptance_thresholds() {
    let artifact = load_calibration(&committed_calibration_path())
        .expect("committed results/calibration.json loads");
    let row = artifact
        .winner_row()
        .expect("the winner is one of the committed rows");
    assert!(
        row.storage_success >= 0.80,
        "calibrated storage success {:.1} % fell below the 80 % acceptance bar",
        row.storage_success * 100.0
    );
    assert!(
        row.query_success >= 0.70,
        "calibrated query success {:.1} % fell below the 70 % acceptance bar",
        row.query_success * 100.0
    );
    // The cost side of the objective: the calibrated point must stay inside
    // the paper's Figure 3 (middle) tolerance band (0.70 ± 30 %), not buy
    // reliability with retransmission floods.
    assert!(
        (0.49..=0.91).contains(&row.cost_ratio),
        "calibrated SCOOP/BASE cost ratio {:.3} left the Figure 3 band",
        row.cost_ratio
    );
}

#[test]
fn legacy_point_is_in_the_committed_grid_and_loses() {
    // The grid must contain the pre-calibration model as its anchor, and the
    // evidence must actually justify the flip: the legacy point scores
    // strictly worse than the winner.
    let artifact = load_calibration(&committed_calibration_path())
        .expect("committed results/calibration.json loads");
    // The pre-calibration knobs, pinned as a literal.
    let legacy = CalibrationPoint {
        loss_floor: 0.22,
        edge_delivery: 0.10,
        distance_exponent: 1.0,
        asymmetry_noise: 0.06,
    };
    let legacy_row = artifact
        .rows
        .iter()
        .find(|r| r.point.same_knobs(&legacy))
        .expect("the legacy knobs anchor the committed grid");
    let winner_row = artifact.winner_row().expect("winner row exists");
    assert!(
        legacy_row.objective > winner_row.objective,
        "the legacy model ({}) does not score worse than the shipped default \
         ({}); the re-baseline would be unjustified",
        legacy_row.objective,
        winner_row.objective
    );
}
