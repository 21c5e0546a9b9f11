//! Offline micro-benchmark harness: warmup + fixed-iteration sampling,
//! median/p95/min wall-times, and machine-readable JSON emission.
//!
//! Replaces Criterion for this workspace: no network, no plotting, no
//! adaptive sampling — a fixed, deterministic amount of work per bench
//! so runs are comparable across commits. Results accumulate into a
//! single report (`BENCH_schedflow.json` at the workspace root) giving
//! the repo a perf trajectory.
//!
//! Set `BENCH_QUICK=1` (or construct the suite with
//! [`Suite::quick`]) for a smoke-test-sized run.

use std::fmt;
use std::io;
use std::path::Path;
use std::time::Instant;

use obs::export::{escape_json, parse_json, JsonValue};
pub use std::hint::black_box;

/// Sampling plan for one suite.
#[derive(Debug, Clone, Copy)]
pub struct BenchConfig {
    /// Untimed iterations executed before sampling starts.
    pub warmup_iters: u32,
    /// Number of timed samples collected.
    pub samples: u32,
    /// Iterations aggregated into one sample (reported times are
    /// per-iteration).
    pub iters_per_sample: u32,
}

impl Default for BenchConfig {
    fn default() -> Self {
        BenchConfig {
            warmup_iters: 3,
            samples: 15,
            iters_per_sample: 1,
        }
    }
}

impl BenchConfig {
    /// The smoke-test plan: just enough to prove the kernel runs.
    pub fn quick() -> Self {
        BenchConfig {
            warmup_iters: 1,
            samples: 3,
            iters_per_sample: 1,
        }
    }
}

/// Wall-time statistics over a bench's samples, in nanoseconds per
/// iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stats {
    /// Median per-iteration time.
    pub median_ns: f64,
    /// 95th-percentile per-iteration time.
    pub p95_ns: f64,
    /// Fastest per-iteration time.
    pub min_ns: f64,
    /// Mean per-iteration time.
    pub mean_ns: f64,
}

impl Stats {
    fn from_samples(mut ns_per_iter: Vec<f64>) -> Stats {
        assert!(!ns_per_iter.is_empty(), "no samples collected");
        ns_per_iter.sort_by(f64::total_cmp);
        let n = ns_per_iter.len();
        let median = if n % 2 == 1 {
            ns_per_iter[n / 2]
        } else {
            (ns_per_iter[n / 2 - 1] + ns_per_iter[n / 2]) / 2.0
        };
        // Nearest-rank p95 (clamped to the last sample).
        let rank = ((0.95 * n as f64).ceil() as usize).clamp(1, n);
        Stats {
            median_ns: median,
            p95_ns: ns_per_iter[rank - 1],
            min_ns: ns_per_iter[0],
            mean_ns: ns_per_iter.iter().sum::<f64>() / n as f64,
        }
    }
}

/// One benchmark's identity and measurements.
#[derive(Debug, Clone)]
pub struct Record {
    /// Kernel group (e.g. `cpm`, `planning`).
    pub kernel: String,
    /// Full bench id within the kernel (e.g. `cpm_analyze/1000`).
    pub bench: String,
    /// Optional problem size (elements processed per iteration).
    pub elements: Option<u64>,
    /// Samples collected.
    pub samples: u32,
    /// Iterations per sample.
    pub iters_per_sample: u32,
    /// Wall-time statistics.
    pub stats: Stats,
}

impl fmt::Display for Record {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{kernel:<18} {bench:<34} median {median:>12.0} ns  p95 {p95:>12.0} ns  min {min:>12.0} ns",
            kernel = self.kernel,
            bench = self.bench,
            median = self.stats.median_ns,
            p95 = self.stats.p95_ns,
            min = self.stats.min_ns,
        )
    }
}

/// Collects [`Record`]s for one kernel group.
pub struct Suite {
    kernel: String,
    config: BenchConfig,
    records: Vec<Record>,
}

impl Suite {
    /// A suite using the default (full) sampling plan, or the quick
    /// plan when `BENCH_QUICK=1` is set in the environment.
    pub fn new(kernel: &str) -> Self {
        let quick = std::env::var("BENCH_QUICK").is_ok_and(|v| v == "1");
        Suite {
            kernel: kernel.to_owned(),
            config: if quick {
                BenchConfig::quick()
            } else {
                BenchConfig::default()
            },
            records: Vec::new(),
        }
    }

    /// A suite forced onto the smoke-test plan.
    pub fn quick(kernel: &str) -> Self {
        Suite {
            kernel: kernel.to_owned(),
            config: BenchConfig::quick(),
            records: Vec::new(),
        }
    }

    /// Overrides the sampling plan for subsequent benches.
    pub fn with_config(mut self, config: BenchConfig) -> Self {
        self.config = config;
        self
    }

    /// Raises `iters_per_sample` for subsequent (cheap) benches so each
    /// sample aggregates enough work to be timeable.
    pub fn iters_per_sample(&mut self, iters: u32) -> &mut Self {
        self.config.iters_per_sample = iters.max(1);
        self
    }

    /// Times `routine` under the current plan.
    pub fn bench<R>(&mut self, bench: &str, elements: Option<u64>, mut routine: impl FnMut() -> R) {
        let cfg = self.config;
        for _ in 0..cfg.warmup_iters {
            black_box(routine());
        }
        let mut ns = Vec::with_capacity(cfg.samples as usize);
        for _ in 0..cfg.samples {
            let t0 = Instant::now();
            for _ in 0..cfg.iters_per_sample {
                black_box(routine());
            }
            ns.push(t0.elapsed().as_nanos() as f64 / f64::from(cfg.iters_per_sample));
        }
        self.push(bench, elements, ns);
    }

    /// Times `routine` with a fresh untimed `setup` product per
    /// iteration (Criterion's `iter_batched`). The routine's output is
    /// dropped after its time is taken, so a routine that hands its
    /// input back times none of its teardown.
    pub fn bench_with_setup<S, R>(
        &mut self,
        bench: &str,
        elements: Option<u64>,
        mut setup: impl FnMut() -> S,
        mut routine: impl FnMut(S) -> R,
    ) {
        let cfg = self.config;
        for _ in 0..cfg.warmup_iters {
            let input = setup();
            black_box(routine(input));
        }
        let mut ns = Vec::with_capacity(cfg.samples as usize);
        for _ in 0..cfg.samples {
            let mut elapsed = 0u128;
            for _ in 0..cfg.iters_per_sample {
                let input = setup();
                let t0 = Instant::now();
                let output = black_box(routine(input));
                elapsed += t0.elapsed().as_nanos();
                drop(output);
            }
            ns.push(elapsed as f64 / f64::from(cfg.iters_per_sample));
        }
        self.push(bench, elements, ns);
    }

    fn push(&mut self, bench: &str, elements: Option<u64>, ns: Vec<f64>) {
        let record = Record {
            kernel: self.kernel.clone(),
            bench: bench.to_owned(),
            elements,
            samples: self.config.samples,
            iters_per_sample: self.config.iters_per_sample,
            stats: Stats::from_samples(ns),
        };
        eprintln!("{record}");
        self.records.push(record);
    }

    /// Consumes the suite, yielding its records.
    pub fn into_records(self) -> Vec<Record> {
        self.records
    }
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.1}")
    } else {
        "null".to_owned()
    }
}

/// Serializes records to the `schedflow-bench/v1` JSON schema (see
/// `crates/harness/README.md`).
pub fn to_json(records: &[Record]) -> String {
    let mut out = String::from("{\n  \"schema\": \"schedflow-bench/v1\",\n  \"kernels\": [\n");
    for (i, r) in records.iter().enumerate() {
        let elements = r.elements.map_or("null".to_owned(), |e| e.to_string());
        out.push_str("    {\"kernel\": \"");
        escape_json(&r.kernel, &mut out);
        out.push_str("\", \"bench\": \"");
        escape_json(&r.bench, &mut out);
        out.push_str(&format!(
            "\", \"elements\": {elements}, \
             \"samples\": {samples}, \"iters_per_sample\": {iters}, \
             \"median_ns\": {median}, \"p95_ns\": {p95}, \"min_ns\": {min}, \"mean_ns\": {mean}}}{comma}\n",
            samples = r.samples,
            iters = r.iters_per_sample,
            median = json_f64(r.stats.median_ns),
            p95 = json_f64(r.stats.p95_ns),
            min = json_f64(r.stats.min_ns),
            mean = json_f64(r.stats.mean_ns),
            comma = if i + 1 == records.len() { "" } else { "," },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Writes the JSON report to `path`, creating missing parent
/// directories and writing **atomically**: the report is staged in a
/// temporary file beside the target and renamed into place, so a
/// crashed or interrupted run can never leave a truncated report for
/// the CI comparison gate to choke on.
///
/// Delegates to the workspace-wide atomic write primitive
/// ([`obs::export::write_atomic`]), the same path the trace and
/// metrics exporters use.
pub fn write_report(path: &Path, records: &[Record]) -> io::Result<()> {
    obs::export::write_atomic(path, &to_json(records))
}

/// Parses a `schedflow-bench/v1` report back into [`Record`]s — the
/// inverse of [`to_json`], used by the `bench_compare` CI gate to read
/// the committed baseline and the fresh run.
///
/// Built on the workspace's one JSON reader
/// ([`obs::export::parse_json`]): any layout parses, but the schema
/// marker and the flat record shape [`to_json`] emits are required.
///
/// # Errors
///
/// A human-readable description of the first malformed construct.
pub fn parse_report(json: &str) -> Result<Vec<Record>, String> {
    let root = parse_json(json)?;
    if root.get("schema").and_then(JsonValue::as_str) != Some("schedflow-bench/v1") {
        return Err("not a schedflow-bench/v1 report (schema marker missing)".to_owned());
    }
    root.get("kernels")
        .and_then(JsonValue::as_array)
        .ok_or_else(|| "missing \"kernels\" array".to_owned())?
        .iter()
        .map(parse_record)
        .collect()
}

fn parse_record(obj: &JsonValue) -> Result<Record, String> {
    let field = |key: &str| {
        obj.get(key)
            .ok_or_else(|| format!("missing field \"{key}\""))
    };
    let text = |key: &str| {
        field(key)?
            .as_str()
            .map(str::to_owned)
            .ok_or_else(|| format!("field \"{key}\" is not a string"))
    };
    // `to_json` writes a non-finite statistic as `null`.
    let num = |key: &str| match field(key)? {
        JsonValue::Null => Ok(f64::NAN),
        v => v
            .as_f64()
            .ok_or_else(|| format!("field \"{key}\" is not a number")),
    };
    let elements = match obj.get("elements") {
        None | Some(JsonValue::Null) => None,
        Some(v) => Some(
            v.as_f64()
                .filter(|n| n.fract() == 0.0 && *n >= 0.0)
                .ok_or_else(|| "\"elements\" is not an integer".to_owned())? as u64,
        ),
    };
    Ok(Record {
        kernel: text("kernel")?,
        bench: text("bench")?,
        elements,
        samples: num("samples")? as u32,
        iters_per_sample: num("iters_per_sample")? as u32,
        stats: Stats {
            median_ns: num("median_ns")?,
            p95_ns: num("p95_ns")?,
            min_ns: num("min_ns")?,
            mean_ns: num("mean_ns")?,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_order_invariants() {
        let s = Stats::from_samples(vec![5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!(s.min_ns, 1.0);
        assert_eq!(s.median_ns, 3.0);
        assert_eq!(s.p95_ns, 5.0);
        assert!((s.mean_ns - 3.0).abs() < 1e-9);
        assert!(s.min_ns <= s.median_ns && s.median_ns <= s.p95_ns);
    }

    #[test]
    fn even_sample_median_interpolates() {
        let s = Stats::from_samples(vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.median_ns, 2.5);
    }

    #[test]
    fn suite_collects_records() {
        let mut suite = Suite::quick("selftest");
        let mut acc = 0u64;
        suite.bench("add", Some(1), || {
            acc = acc.wrapping_add(1);
            acc
        });
        let records = suite.into_records();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].kernel, "selftest");
        assert_eq!(records[0].bench, "add");
        assert!(records[0].stats.min_ns >= 0.0);
    }

    #[test]
    fn json_shape_is_stable() {
        let mut suite = Suite::quick("k");
        suite.bench("b/10", Some(10), || 1 + 1);
        let json = to_json(&suite.into_records());
        for needle in [
            "\"schema\": \"schedflow-bench/v1\"",
            "\"kernel\": \"k\"",
            "\"bench\": \"b/10\"",
            "\"elements\": 10",
            "\"median_ns\":",
            "\"p95_ns\":",
            "\"min_ns\":",
            "\"mean_ns\":",
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
        // Balanced braces/brackets — cheap well-formedness check.
        assert_eq!(json.matches('{').count(), json.matches('}').count(),);
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn escape_handles_specials() {
        let mut records = sample_records();
        records[0].bench = "a\"b\\c\nd".to_owned();
        assert!(to_json(&records).contains(r#""bench": "a\"b\\c\nd""#));
    }

    fn sample_records() -> Vec<Record> {
        vec![
            Record {
                kernel: "cpm".to_owned(),
                bench: "analyze/1000".to_owned(),
                elements: Some(1000),
                samples: 15,
                iters_per_sample: 2,
                stats: Stats {
                    median_ns: 123.0,
                    p95_ns: 456.5,
                    min_ns: 100.0,
                    mean_ns: 222.2,
                },
            },
            Record {
                kernel: "replan".to_owned(),
                bench: "weird \"name\"\nhere".to_owned(),
                elements: None,
                samples: 3,
                iters_per_sample: 1,
                stats: Stats {
                    median_ns: 1.0,
                    p95_ns: 2.0,
                    min_ns: 0.5,
                    mean_ns: 1.2,
                },
            },
        ]
    }

    #[test]
    fn parse_report_roundtrips_to_json() {
        let records = sample_records();
        let parsed = parse_report(&to_json(&records)).unwrap();
        assert_eq!(parsed.len(), records.len());
        for (a, b) in parsed.iter().zip(&records) {
            assert_eq!(a.kernel, b.kernel);
            assert_eq!(a.bench, b.bench);
            assert_eq!(a.elements, b.elements);
            assert_eq!(a.samples, b.samples);
            assert_eq!(a.iters_per_sample, b.iters_per_sample);
            assert!((a.stats.median_ns - b.stats.median_ns).abs() < 0.05);
            assert!((a.stats.p95_ns - b.stats.p95_ns).abs() < 0.05);
            assert!((a.stats.min_ns - b.stats.min_ns).abs() < 0.05);
            assert!((a.stats.mean_ns - b.stats.mean_ns).abs() < 0.05);
        }
    }

    #[test]
    fn parse_report_rejects_garbage() {
        assert!(parse_report("{}").is_err());
        assert!(parse_report("not json at all").is_err());
        assert!(
            parse_report("{\"schema\": \"schedflow-bench/v1\"}").is_err(),
            "kernels array required"
        );
        // Empty kernels array is a valid (empty) report.
        let empty = parse_report("{\"schema\": \"schedflow-bench/v1\", \"kernels\": []}").unwrap();
        assert!(empty.is_empty());
        // A record missing a stat field is malformed.
        assert!(parse_report(
            "{\"schema\": \"schedflow-bench/v1\", \"kernels\": [\
             {\"kernel\": \"k\", \"bench\": \"b\", \"elements\": null, \
              \"samples\": 3, \"iters_per_sample\": 1, \"median_ns\": 1.0}]}"
        )
        .is_err());
    }

    #[test]
    fn write_report_creates_parents_and_is_atomic() {
        let dir = std::env::temp_dir().join(format!(
            "schedflow-bench-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("deep/nested/report.json");
        // Parent directories do not exist yet: must be created.
        write_report(&path, &sample_records()).unwrap();
        let back = parse_report(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(back.len(), 2);
        // No stray temporary files left beside the report.
        let leftovers: Vec<_> = std::fs::read_dir(path.parent().unwrap())
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(leftovers, vec![std::ffi::OsString::from("report.json")]);
        // Overwriting in place also works (rename over existing file).
        write_report(&path, &sample_records()[..1]).unwrap();
        assert_eq!(
            parse_report(&std::fs::read_to_string(&path).unwrap())
                .unwrap()
                .len(),
            1
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
