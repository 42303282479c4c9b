//! Golden artefact snapshots: `tests/golden/*.json` holds every one of the
//! eleven figure/table artefacts rendered at the pinned
//! [`wpsdm::experiments::conformance::GOLDEN_OPTIONS`], committed so a
//! regression in any measured number shows up as a reviewable JSON diff.
//!
//! On intentional model changes, regenerate with
//! `cargo run --release -p wp-experiments --bin conformance -- --bless
//! --skip-sweep --random 0` and commit the updated files (see
//! `docs/VALIDATION.md`).

use wpsdm::experiments::conformance::{
    check_goldens, default_golden_dir, golden_names, render_golden_artefacts,
};

#[test]
fn committed_goldens_match_the_fresh_render() {
    let drift = check_goldens(&default_golden_dir(), 2);
    assert!(
        drift.is_empty(),
        "golden artefacts drifted (regenerate with `conformance --bless` if \
         the change is intentional): {drift:?}"
    );
}

#[test]
fn every_artefact_has_a_committed_golden() {
    let dir = default_golden_dir();
    for name in golden_names() {
        assert!(
            dir.join(format!("{name}.json")).is_file(),
            "missing golden snapshot {name}.json"
        );
    }
}

#[test]
fn golden_renders_are_deterministic_across_thread_counts() {
    let serial = render_golden_artefacts(1);
    let parallel = render_golden_artefacts(4);
    for ((name_a, json_a), (name_b, json_b)) in serial.iter().zip(parallel.iter()) {
        assert_eq!(name_a, name_b);
        assert_eq!(json_a, json_b, "{name_a} render depends on the schedule");
    }
}
