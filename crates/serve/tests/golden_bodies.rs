//! Golden response bodies: the text `status_body`, `plan_body`,
//! `replan_body` and `run_body` produce must not change by a byte.
//!
//! Two cases, each a fixed sequence of kernel calls whose bodies are
//! concatenated under `== <step> ==` headers:
//!
//! - the circuit example (team 2, seed 42) through the Fig. 5–7
//!   sequence: plan twice, replan under unchanged estimates, execute
//!   the netlist, execute the performance;
//! - `layered(20,50,3)`, team 8, tool seed 1995: plan, one Fifo
//!   execution of an intermediate target (so the flow holds complete,
//!   in-progress and planned rows), then `set_estimate` and replan.
//!   Whole-day estimates on the first layer give whole dates; the
//!   rows carry actuals, slips, and whole and fractional dates.
//!
//! The artifacts were captured before the status renderer was
//! rewritten; comparison is exact (no whitespace normalization). Since
//! then only two kinds of line were restated, each a fix: plan and
//! replan bodies print the recorded (milli-day) dates the status body
//! prints for the same version, and a variance line earns an activity
//! whose recorded finish rounded up to the status date.

use std::path::Path;

use hercules::{ExecutionPolicy, Hercules};
use schedule::WorkDays;
use schema::examples;
use serve::{plan_body, replan_body, run_body, status_body};
use simtools::{workload::Team, ToolLibrary};

fn section(out: &mut String, step: &str, body: &str) {
    out.push_str("== ");
    out.push_str(step);
    out.push_str(" ==\n");
    out.push_str(body);
}

fn circuit_bodies() -> String {
    let mut h = Hercules::new(
        examples::circuit_design(),
        ToolLibrary::standard(),
        Team::of_size(2),
        42,
    );
    let mut out = String::new();
    section(&mut out, "status (unplanned)", &status_body(&h));
    for pass in ["plan 1", "plan 2"] {
        let plan = h.plan("performance").expect("plannable");
        section(&mut out, pass, &plan_body("circuit", "performance", &plan));
        section(&mut out, "status", &status_body(&h));
    }
    let outcome = h.replan("performance").expect("replannable");
    section(&mut out, "replan", &replan_body("performance", &outcome));
    for target in ["netlist", "performance"] {
        let report = h.execute(target).expect("executable");
        section(
            &mut out,
            &format!("run {target}"),
            &run_body("circuit", &report, &h),
        );
    }
    out
}

fn layered_bodies() -> String {
    let mut h = Hercules::new(
        examples::layered(20, 50, 3),
        ToolLibrary::standard(),
        Team::of_size(8),
        1995,
    );
    // Whole-day estimates on the first layer give whole planned dates
    // there and fractional ones downstream.
    for w in 0..50 {
        h.set_estimate(&format!("L0W{w}"), WorkDays::new(1.0 + (w % 4) as f64))
            .expect("known activity");
    }
    let mut out = String::new();
    let plan = h.plan("merged").expect("plannable");
    section(&mut out, "plan", &plan_body("large", "merged", &plan));
    section(&mut out, "status", &status_body(&h));
    let report = h
        .execute_with("l9w0", ExecutionPolicy::Fifo, None)
        .expect("executable");
    section(&mut out, "run l9w0", &run_body("large", &report, &h));
    h.set_estimate("L15W7", WorkDays::new(2.5))
        .expect("known activity");
    let outcome = h.replan("merged").expect("replannable");
    section(&mut out, "replan", &replan_body("merged", &outcome));
    section(&mut out, "status", &status_body(&h));
    out
}

fn check(actual: &str, golden_rel: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(golden_rel);
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    if golden != actual {
        let line = golden
            .lines()
            .zip(actual.lines())
            .position(|(g, a)| g != a)
            .map_or_else(
                || "line counts differ".to_owned(),
                |i| {
                    format!(
                        "line {}:\n  golden: {:?}\n  actual: {:?}",
                        i + 1,
                        golden.lines().nth(i).unwrap_or_default(),
                        actual.lines().nth(i).unwrap_or_default()
                    )
                },
            );
        panic!("bodies drifted from {golden_rel}; first difference at {line}");
    }
}

#[test]
fn circuit_bodies_match_golden() {
    check(&circuit_bodies(), "artifacts/bodies_circuit.txt");
}

#[test]
fn layered_bodies_match_golden() {
    check(&layered_bodies(), "artifacts/bodies_layered.txt");
}
