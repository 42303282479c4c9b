//! Each single-artefact binary prints its row of `run_all`: for every
//! [`ARTEFACTS`] row, the binary named after the row prints, with
//! `--json`, exactly the same-named field of `run_all --json` at the same
//! options. A binary wired to the wrong row, or a row without its binary,
//! fails here.

use std::path::Path;
use std::process::Command;

use serde::Value;
use wp_experiments::ARTEFACTS;

const ARGS: [&str; 4] = ["--json", "--ops", "2000", "--no-matrix-cache"];

/// Runs `binary` with [`ARGS`] and parses its stdout.
fn json_of(binary: &Path) -> Value {
    let shown = binary.display();
    let output = Command::new(binary)
        .args(ARGS)
        .output()
        .unwrap_or_else(|e| panic!("failed to spawn {shown}: {e}"));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(output.status.success(), "{shown} failed: {stderr}");
    let stdout = String::from_utf8(output.stdout).expect("JSON output is UTF-8");
    serde_json::from_str(&stdout).unwrap_or_else(|e| panic!("{shown} printed bad JSON: {e}"))
}

#[test]
fn each_artefact_binary_prints_its_row_of_run_all() {
    let run_all = Path::new(env!("CARGO_BIN_EXE_run_all"));
    let document = json_of(run_all);
    let keys: Vec<&str> = document
        .as_object()
        .expect("run_all prints one object")
        .iter()
        .map(|(key, _)| key.as_str())
        .collect();
    let rows = ARTEFACTS.iter().map(|artefact| artefact.name);
    assert_eq!(keys, rows.chain(["coverage"]).collect::<Vec<_>>());

    for artefact in &ARTEFACTS {
        let binary =
            run_all.with_file_name(format!("{}{}", artefact.name, std::env::consts::EXE_SUFFIX));
        assert_eq!(
            Some(&json_of(&binary)),
            document.get(artefact.name),
            "the `{}` binary disagrees with run_all",
            artefact.name
        );
    }
}
