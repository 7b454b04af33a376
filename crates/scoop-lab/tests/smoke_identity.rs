//! The cross-version byte-identity gate: running the quick-smoke suite must
//! reproduce the committed `baselines/smoke.json` **byte for byte** — not
//! merely within the `scoop-lab check` tolerances, and without any
//! `--bless`.
//!
//! The committed baseline pins the *calibrated* link-model defaults (the
//! link-calibration re-baseline was a deliberate `--bless`).

use scoop_lab::check::{baseline_file_content, run_smoke_suite};
use std::path::PathBuf;

fn committed_baseline_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("baselines/smoke.json")
}

#[test]
fn quick_smoke_suite_is_byte_identical_to_committed_baseline() {
    let measured = run_smoke_suite().expect("smoke suite runs");
    let fresh = baseline_file_content(&measured).expect("serializes");
    let committed =
        std::fs::read_to_string(committed_baseline_path()).expect("committed baseline file exists");
    assert!(
        fresh == committed,
        "the quick-smoke suite no longer reproduces the committed baseline byte \
         for byte; the engine's random stream or row serialization changed \
         (first divergence at byte {})",
        fresh
            .bytes()
            .zip(committed.bytes())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| fresh.len().min(committed.len()))
    );
}

/// Row-for-row equality stated structurally as well: every experiment in the
/// baseline appears, in order, with identical rows — so a future serializer
/// change that reformats bytes but preserves rows degrades this file's
/// failure mode from "bytes differ" to a precise row diff.
#[test]
fn quick_smoke_rows_match_committed_baseline_row_for_row() {
    let measured = run_smoke_suite().expect("smoke suite runs");
    let committed = scoop_lab::check::load_baseline(&committed_baseline_path())
        .expect("committed baseline parses");
    assert_eq!(measured.len(), committed.len(), "experiment count changed");
    for (fresh, baseline) in measured.iter().zip(&committed) {
        assert_eq!(fresh.experiment, baseline.experiment, "suite order changed");
        assert_eq!(
            fresh.rows.measured_rows(None),
            baseline.rows.measured_rows(None),
            "{} rows drifted from the committed baseline",
            fresh.experiment
        );
    }
}
