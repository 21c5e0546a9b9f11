//! Golden-file tests: the committed paper artifacts must match what
//! the experiment binaries actually print today.
//!
//! Deterministic binaries only (seeded simulation, no timing):
//! `fig5_planning`, `fig6_execution`, `fig7_completion`, `fig8_gantt`
//! and `table1`. The Fig. 5–7 artifacts print the logical view of the
//! versioned schedule space (instances, versions, provenance, links),
//! so they also pin that how versions are stored never shows there. Comparison normalizes whitespace
//! (trailing spaces and CR/LF) so editor churn doesn't fail the build;
//! any real drift fails with a diff and a regeneration hint.

use std::path::Path;
use std::process::Command;

/// Normalizes output for comparison: CRLF -> LF, trailing whitespace
/// stripped per line, trailing blank lines dropped.
fn normalize(text: &str) -> Vec<String> {
    let mut lines: Vec<String> = text
        .replace("\r\n", "\n")
        .lines()
        .map(|l| l.trim_end().to_owned())
        .collect();
    while lines.last().is_some_and(String::is_empty) {
        lines.pop();
    }
    lines
}

/// First differing line, as a compact report.
fn first_diff(expected: &[String], actual: &[String]) -> String {
    for (i, (e, a)) in expected.iter().zip(actual.iter()).enumerate() {
        if e != a {
            return format!("line {}:\n  golden: {e:?}\n  actual: {a:?}", i + 1);
        }
    }
    format!(
        "line counts differ: golden {} vs actual {}",
        expected.len(),
        actual.len()
    )
}

fn check_golden(bin_path: &str, bin_name: &str, golden_rel: &str) {
    let output = Command::new(bin_path)
        .output()
        .unwrap_or_else(|e| panic!("failed to run {bin_name}: {e}"));
    assert!(
        output.status.success(),
        "{bin_name} exited with {}:\n{}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    let golden_path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(golden_rel);
    let golden = std::fs::read_to_string(&golden_path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", golden_path.display()));

    let expected = normalize(&golden);
    let actual = normalize(&String::from_utf8_lossy(&output.stdout));
    assert_eq!(
        expected,
        actual,
        "\n{bin_name} output drifted from {golden_rel}\nfirst difference at {}\n\
         if the change is intentional, regenerate with:\n  \
         cargo run --release -p bench --bin {bin_name} > {golden_rel}\n",
        first_diff(&expected, &actual)
    );
}

#[test]
fn fig5_planning_matches_golden() {
    check_golden(
        env!("CARGO_BIN_EXE_fig5_planning"),
        "fig5_planning",
        "artifacts/fig5_planning.txt",
    );
}

#[test]
fn fig6_execution_matches_golden() {
    check_golden(
        env!("CARGO_BIN_EXE_fig6_execution"),
        "fig6_execution",
        "artifacts/fig6_execution.txt",
    );
}

#[test]
fn fig7_completion_matches_golden() {
    check_golden(
        env!("CARGO_BIN_EXE_fig7_completion"),
        "fig7_completion",
        "artifacts/fig7_completion.txt",
    );
}

#[test]
fn fig8_gantt_matches_golden() {
    check_golden(
        env!("CARGO_BIN_EXE_fig8_gantt"),
        "fig8_gantt",
        "artifacts/fig8_gantt.txt",
    );
}

#[test]
fn table1_matches_golden() {
    check_golden(
        env!("CARGO_BIN_EXE_table1"),
        "table1",
        "artifacts/table1.txt",
    );
}
