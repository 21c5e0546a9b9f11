//! What one run reports: op counts, output-check failures and named
//! metrics with units, printed as text lines for people, tab lines
//! for the steadiness mode, and one final JSON line.

use crate::stats::{self, Samples};
use crate::trace;

/// Single samples under this many milliseconds are too short to time
/// steadily; an end-to-end latency metric resting on them is refused.
const MIN_SAMPLE_MS: f64 = 0.1;

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Free text for people: percentile detail, the metric a layer
    /// should move, and so on.
    pub note: String,
}

#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub check_failures: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Latency metrics whose reported sample (the median for a p50) is
    /// under [`MIN_SAMPLE_MS`].
    pub too_short: Vec<&'static str>,
}

impl Report {
    pub fn value(&mut self, name: &'static str, unit: &'static str, value: f64, note: String) {
        self.metrics.push(Metric {
            name,
            unit,
            value,
            note,
        });
    }

    /// Reports percentile `q` of `samples` (milliseconds) as `name`.
    ///
    /// # Panics
    ///
    /// If fewer than ten samples lie beyond `q`: a percentile is
    /// reported only where ten samples lie beyond it, and the fixed op
    /// sequence of every workload is sized to allow it.
    pub fn latency(&mut self, name: &'static str, samples: &Samples, q: f64) {
        if q > 0.5 {
            assert!(
                samples.supports(q, 10),
                "{name}: {} samples cannot carry p{}",
                samples.len(),
                q * 100.0
            );
        }
        let value = samples.percentile(q);
        if value < MIN_SAMPLE_MS {
            self.too_short.push(name);
        }
        self.metrics.push(Metric {
            name,
            unit: "ms",
            value,
            note: format!(
                "p{} of {} samples (p50 {:.4}, max {:.4})",
                q * 100.0,
                samples.len(),
                samples.percentile(0.5),
                samples.percentile(1.0)
            ),
        });
    }

    /// Reports, as `name`, the median over consecutive blocks of a run
    /// of each block's percentile `q` (milliseconds); reports nothing
    /// when a block has fewer than ten samples beyond `q`.
    pub fn block_latency(&mut self, name: &'static str, blocks: &[Samples], q: f64) {
        if let Some((b, samples)) = blocks.iter().enumerate().find(|(_, s)| !s.supports(q, 10)) {
            eprintln!(
                "perfbench: {name} left out: block {b} has {} samples, too few for p{}",
                samples.len(),
                q * 100.0
            );
            return;
        }
        let per_block: Vec<f64> = blocks.iter().map(|s| s.percentile(q)).collect();
        let value = stats::median(&per_block);
        if value < MIN_SAMPLE_MS {
            self.too_short.push(name);
        }
        let cells: Vec<String> = per_block.iter().map(|v| format!("{v:.4}")).collect();
        self.value(
            name,
            "ms",
            value,
            format!(
                "median over {} blocks of p{} (blocks of {}+ samples: {})",
                blocks.len(),
                q * 100.0,
                blocks.iter().map(Samples::len).min().unwrap_or(0),
                cells.join(" ")
            ),
        );
    }

    /// Reports the median duration of the spans named `span`, in
    /// `unit` (`ms` or `us`), with the end-to-end metric it targets.
    pub fn per_call(&mut self, name: &'static str, span: &str, unit: &'static str, target: &str) {
        let scale = if unit == "us" { 1e3 } else { 1.0 };
        let values: Vec<f64> = trace::durations_ms(span)
            .iter()
            .map(|ms| ms * scale)
            .collect();
        self.value(
            name,
            unit,
            stats::median(&values),
            format!("median of {} {target}", values.len()),
        );
    }

    /// Counts one op (or output check) as attempted, failing it when
    /// `ok` is false.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Records an output check; a failed one is a failed op.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.op(ok);
        if !ok {
            self.check_failures.push(what());
        }
    }

    /// Prints every metric for people, then the tab lines and the
    /// final JSON line with exactly the metrics named in `manifest`.
    /// The rest print as asides: figures for people that no check
    /// reads. Returns false, printing no JSON line, when a metric of
    /// `manifest` is missing.
    pub fn print(&self, workload: &str, manifest: &[&str]) -> bool {
        for m in &self.metrics {
            let aside = if manifest.contains(&m.name) {
                ""
            } else {
                "(aside) "
            };
            println!(
                "{workload:<13} {:<28} {:>14.4} {:<6} {aside}{}",
                m.name, m.value, m.unit, m.note
            );
        }
        let mut listed = Vec::with_capacity(manifest.len());
        for name in manifest {
            match self.metrics.iter().find(|m| m.name == *name) {
                Some(m) => listed.push(m),
                None => {
                    eprintln!("perfbench: {workload} did not measure {name}");
                    return false;
                }
            }
        }
        for m in &listed {
            println!("metric\t{}\t{}\t{}", m.name, m.value, m.unit);
        }
        for f in &self.check_failures {
            println!("check failed: {f}");
        }
        println!(
            "{workload}: attempted {} ops, failed {}",
            self.attempted, self.failed
        );
        let metrics: Vec<String> = listed
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.check_failures.is_empty() && self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
        true
    }
}

/// A finite JSON number with all its digits (NaN and infinities are
/// not JSON; they report as -1, which no metric here can produce).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "-1".to_owned()
    }
}
