//! Monte Carlo schedule risk analysis.
//!
//! PERT's normal approximation (see [`pert`](crate::pert)) only sums
//! variance along a single critical path; when near-critical parallel
//! paths exist it underestimates risk (the classic "merge bias").
//! Monte Carlo sampling fixes that: draw every activity duration from
//! its three-point (triangular) distribution, run CPM per sample, and
//! read completion probabilities and per-activity *criticality
//! indices* off the empirical distribution.
//!
//! Sampling is deterministic per seed, like everything in this
//! workspace — including across thread counts: every sample draws from
//! its own RNG stream derived from `(seed, sample_index)`, so
//! [`simulate`] returns bit-identical results whether the per-sample
//! CPM passes run on one core or sixteen.

use crate::cpm::CpmAnalysis;
use crate::error::ScheduleError;
use crate::network::{ActivityId, ScheduleNetwork, WorkDays};
use crate::pert::ThreePoint;

/// A tiny deterministic generator (SplitMix64). Duplicated from the
/// `simtools` crate on purpose: `schedule` sits *below* the simulation
/// substrate in the workspace layering and must stay dependency-free.
#[derive(Debug, Clone)]
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// The SplitMix64 finaliser: scrambles `(seed, index)` into a
/// well-separated starting state for one sample's RNG stream, making
/// samples independent of how they are chunked across threads.
fn sample_rng(seed: u64, index: u64) -> Rng {
    let mut z = seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    Rng(z ^ (z >> 31))
}

/// Minimum samples per worker before another thread pays for itself:
/// each sample is a full CPM pass, so only meaningfully sized runs
/// fan out.
const MIN_SAMPLES_PER_THREAD: usize = 64;

/// Default worker count: the machine's parallelism, bounded so small
/// runs stay sequential.
fn default_threads(samples: usize) -> usize {
    let hw = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    hw.min(samples / MIN_SAMPLES_PER_THREAD).max(1)
}

/// Inverse-CDF sample from the triangular distribution `(a, m, b)`.
fn triangular(rng: &mut Rng, a: f64, m: f64, b: f64) -> f64 {
    if b <= a {
        return a;
    }
    let u = rng.next_f64();
    let fc = (m - a) / (b - a);
    if u < fc {
        a + (u * (b - a) * (m - a)).sqrt()
    } else {
        b - ((1.0 - u) * (b - a) * (b - m)).sqrt()
    }
}

/// The result of a Monte Carlo schedule simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct RiskAnalysis {
    samples: Vec<f64>,
    criticality: Vec<f64>,
    mean: f64,
}

impl RiskAnalysis {
    /// Number of samples drawn.
    pub fn samples(&self) -> usize {
        self.samples.len()
    }

    /// Mean simulated project duration, in days.
    pub fn mean_duration(&self) -> WorkDays {
        WorkDays::new(self.mean)
    }

    /// The `q`-quantile (0–1) of project duration — e.g. `0.8` gives
    /// the duration you can commit to with 80% confidence.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= q <= 1.0`.
    pub fn quantile(&self, q: f64) -> WorkDays {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        let idx = ((self.samples.len() - 1) as f64 * q).round() as usize;
        WorkDays::new(self.samples[idx])
    }

    /// Probability the project finishes within `deadline`.
    pub fn probability_within(&self, deadline: WorkDays) -> f64 {
        let n = self
            .samples
            .iter()
            .filter(|&&d| d <= deadline.days() + 1e-12)
            .count();
        n as f64 / self.samples.len() as f64
    }

    /// The *criticality index* of an activity: the fraction of samples
    /// in which it lay on the critical path. Activities with high
    /// indices are where management attention buys the most.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not from the analyzed network.
    pub fn criticality(&self, id: ActivityId) -> f64 {
        self.criticality[id.index()]
    }
}

/// Runs `samples` Monte Carlo CPM passes over `network`, with each
/// estimated activity's duration drawn from its triangular three-point
/// distribution (activities without an estimate keep their
/// deterministic duration).
///
/// # Errors
///
/// * [`ScheduleError::UnknownActivity`] — an estimate names a foreign
///   activity.
/// * [`ScheduleError::InvalidDuration`] — `samples == 0` is reported as
///   an invalid configuration.
///
/// # Example
///
/// ```
/// use schedule::montecarlo::simulate;
/// use schedule::pert::ThreePoint;
/// use schedule::{ScheduleNetwork, WorkDays};
///
/// # fn main() -> Result<(), schedule::ScheduleError> {
/// let mut net = ScheduleNetwork::new();
/// let a = net.add_activity("layout", WorkDays::new(10.0))?;
/// let est = vec![(a, ThreePoint::new(6.0, 10.0, 20.0)?)];
/// let risk = simulate(&net, &est, 2000, 7)?;
/// // The triangular (6, 10, 20) has mean 12: well above the mode.
/// assert!(risk.mean_duration().days() > 10.0);
/// assert!(risk.probability_within(WorkDays::new(20.0)) > 0.99);
/// # Ok(())
/// # }
/// ```
pub fn simulate(
    network: &ScheduleNetwork,
    estimates: &[(ActivityId, ThreePoint)],
    samples: usize,
    seed: u64,
) -> Result<RiskAnalysis, ScheduleError> {
    simulate_threaded(network, estimates, samples, seed, default_threads(samples))
}

/// One worker's contribution: project durations for its sample range
/// plus per-activity critical-path hit counts.
type ChunkResult = Result<(Vec<f64>, Vec<usize>), ScheduleError>;

/// [`simulate`] with an explicit worker count.
///
/// The per-sample CPM passes are independent, so they fan out over
/// `threads` scoped OS threads (`std::thread::scope` — no external
/// runtime). Each sample's durations are drawn from an RNG stream
/// derived from `(seed, sample_index)`, so the result is **identical
/// for every `threads` value** — parallelism is purely a wall-clock
/// knob, verified by `threading_is_invisible`.
///
/// `threads` is clamped to `[1, samples]`.
///
/// # Errors
///
/// Same as [`simulate`].
pub fn simulate_threaded(
    network: &ScheduleNetwork,
    estimates: &[(ActivityId, ThreePoint)],
    samples: usize,
    seed: u64,
    threads: usize,
) -> Result<RiskAnalysis, ScheduleError> {
    if samples == 0 {
        return Err(ScheduleError::InvalidDuration(0.0));
    }
    for (id, _) in estimates {
        if !network.activities().any(|a| a == *id) {
            return Err(ScheduleError::UnknownActivity(*id));
        }
    }
    let threads = threads.clamp(1, samples);
    let n = network.activity_count();
    let mut mc_span = obs::span!("schedule.montecarlo", samples = samples, threads = threads);
    let (mut durations, critical_hits) = if threads == 1 {
        let _chunk = obs::span!("mc.chunk", chunk = 0u64, samples = samples);
        run_chunk(network, estimates, 0..samples, seed)?
    } else {
        // Contiguous chunks, remainder spread over the first workers.
        let base = samples / threads;
        let extra = samples % threads;
        let mut ranges = Vec::with_capacity(threads);
        let mut start = 0usize;
        for t in 0..threads {
            let len = base + usize::from(t < extra);
            ranges.push(start..start + len);
            start += len;
        }
        let context = obs::Collector::context();
        let results: Vec<ChunkResult> = std::thread::scope(|scope| {
            let handles: Vec<_> = ranges
                .into_iter()
                .enumerate()
                .map(|(k, range)| {
                    scope.spawn(move || {
                        // Workers join the caller's trace. Lane = 1 +
                        // chunk index (0 is the orchestrating thread's
                        // convention): the merged trace is a function
                        // of the chunking, not OS scheduling.
                        let _context = context.enter();
                        obs::Collector::set_lane(1 + k as u64);
                        let _chunk = obs::span!("mc.chunk", chunk = k, samples = range.len());
                        run_chunk(network, estimates, range, seed)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("worker panicked"))
                .collect()
        });
        let mut durations = Vec::with_capacity(samples);
        let mut critical_hits = vec![0usize; n];
        for result in results {
            let (d, hits) = result?;
            durations.extend(d);
            for (acc, h) in critical_hits.iter_mut().zip(hits) {
                *acc += h;
            }
        }
        (durations, critical_hits)
    };
    durations.sort_by(|a, b| a.total_cmp(b));
    let mean = durations.iter().sum::<f64>() / samples as f64;
    mc_span.record("mean_days", mean);
    let criticality = critical_hits
        .iter()
        .map(|&h| h as f64 / samples as f64)
        .collect();
    Ok(RiskAnalysis {
        samples: durations,
        criticality,
        mean,
    })
}

/// Runs the samples in `range` sequentially on a private clone of the
/// network, returning their project durations (in range order) and
/// per-activity critical-path hit counts.
fn run_chunk(
    network: &ScheduleNetwork,
    estimates: &[(ActivityId, ThreePoint)],
    range: std::ops::Range<usize>,
    seed: u64,
) -> ChunkResult {
    let mut durations: Vec<f64> = Vec::with_capacity(range.len());
    let mut critical_hits = vec![0usize; network.activity_count()];
    let mut working = network.clone();
    for sample in range {
        let mut rng = sample_rng(seed, sample as u64);
        for (id, est) in estimates {
            let d = triangular(&mut rng, est.optimistic, est.most_likely, est.pessimistic);
            working.set_duration(*id, WorkDays::new(d))?;
        }
        let cpm: CpmAnalysis = working.analyze()?;
        durations.push(cpm.project_duration().days());
        for id in working.activities() {
            if cpm.is_critical(id) {
                critical_hits[id.index()] += 1;
            }
        }
    }
    Ok((durations, critical_hits))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn estimate(a: f64, m: f64, b: f64) -> ThreePoint {
        ThreePoint::new(a, m, b).expect("valid three-point")
    }

    #[test]
    fn deterministic_per_seed() {
        let mut net = ScheduleNetwork::new();
        let a = net.add_activity("a", WorkDays::new(5.0)).unwrap();
        let est = vec![(a, estimate(2.0, 5.0, 10.0))];
        let r1 = simulate(&net, &est, 500, 9).unwrap();
        let r2 = simulate(&net, &est, 500, 9).unwrap();
        assert_eq!(r1, r2);
        let r3 = simulate(&net, &est, 500, 10).unwrap();
        assert_ne!(r1.mean_duration(), r3.mean_duration());
    }

    #[test]
    fn triangular_mean_matches_theory() {
        // Triangular(0, 3, 9) has mean (0+3+9)/3 = 4.
        let mut net = ScheduleNetwork::new();
        let a = net.add_activity("a", WorkDays::new(1.0)).unwrap();
        let est = vec![(a, estimate(0.0, 3.0, 9.0))];
        let r = simulate(&net, &est, 20_000, 1).unwrap();
        assert!((r.mean_duration().days() - 4.0).abs() < 0.05);
    }

    #[test]
    fn quantiles_are_ordered_and_bounded() {
        let mut net = ScheduleNetwork::new();
        let a = net.add_activity("a", WorkDays::new(1.0)).unwrap();
        let est = vec![(a, estimate(2.0, 4.0, 12.0))];
        let r = simulate(&net, &est, 5000, 2).unwrap();
        let q10 = r.quantile(0.1).days();
        let q50 = r.quantile(0.5).days();
        let q90 = r.quantile(0.9).days();
        assert!(q10 <= q50 && q50 <= q90);
        assert!(q10 >= 2.0 - 1e-9 && q90 <= 12.0 + 1e-9);
        assert_eq!(r.probability_within(WorkDays::new(12.0)), 1.0);
        assert_eq!(r.probability_within(WorkDays::new(1.9)), 0.0);
    }

    #[test]
    fn merge_bias_exceeds_single_path_pert() {
        // Two identical parallel activities into a sink: the project
        // duration is the MAX of two triangulars, so its mean exceeds
        // one triangular's mean — the merge bias PERT misses.
        let mut net = ScheduleNetwork::new();
        let a = net.add_activity("a", WorkDays::new(5.0)).unwrap();
        let b = net.add_activity("b", WorkDays::new(5.0)).unwrap();
        let sink = net.add_activity("sink", WorkDays::ZERO).unwrap();
        net.add_precedence(a, sink).unwrap();
        net.add_precedence(b, sink).unwrap();
        let tri = estimate(2.0, 5.0, 8.0); // mean 5
        let r = simulate(&net, &[(a, tri), (b, tri)], 10_000, 3).unwrap();
        assert!(
            r.mean_duration().days() > 5.2,
            "mean {} should show merge bias",
            r.mean_duration()
        );
    }

    #[test]
    fn criticality_index_splits_between_symmetric_paths() {
        let mut net = ScheduleNetwork::new();
        let a = net.add_activity("a", WorkDays::new(5.0)).unwrap();
        let b = net.add_activity("b", WorkDays::new(5.0)).unwrap();
        let tri = estimate(2.0, 5.0, 8.0);
        let r = simulate(&net, &[(a, tri), (b, tri)], 4000, 4).unwrap();
        // Symmetric parallel activities are each critical about half
        // the time (both when they tie, rare for continuous draws).
        assert!(
            (r.criticality(a) - 0.5).abs() < 0.05,
            "{}",
            r.criticality(a)
        );
        assert!((r.criticality(b) - 0.5).abs() < 0.05);
        assert!((r.criticality(a) + r.criticality(b) - 1.0).abs() < 0.05);
    }

    #[test]
    fn dominant_path_has_criticality_one() {
        let mut net = ScheduleNetwork::new();
        let long = net.add_activity("long", WorkDays::new(50.0)).unwrap();
        let short = net.add_activity("short", WorkDays::new(1.0)).unwrap();
        let r = simulate(&net, &[(short, estimate(0.5, 1.0, 1.5))], 1000, 5).unwrap();
        assert_eq!(r.criticality(long), 1.0);
        assert_eq!(r.criticality(short), 0.0);
        assert_eq!(r.samples(), 1000);
    }

    #[test]
    fn threading_is_invisible() {
        // Same seed, any worker count: bit-identical analysis. This is
        // the contract that lets `simulate` pick a thread count from
        // the machine without breaking reproducibility.
        let mut net = ScheduleNetwork::new();
        let a = net.add_activity("a", WorkDays::new(5.0)).unwrap();
        let b = net.add_activity("b", WorkDays::new(2.0)).unwrap();
        let sink = net.add_activity("sink", WorkDays::new(1.0)).unwrap();
        net.add_precedence(a, sink).unwrap();
        net.add_precedence(b, sink).unwrap();
        let est = vec![(a, estimate(2.0, 5.0, 9.0)), (b, estimate(1.0, 2.0, 6.0))];
        let sequential = simulate_threaded(&net, &est, 501, 11, 1).unwrap();
        for threads in [2, 3, 4, 8] {
            let parallel = simulate_threaded(&net, &est, 501, 11, threads).unwrap();
            assert_eq!(sequential, parallel, "threads={threads} diverged");
        }
        // And the auto-threaded entry point agrees as well.
        assert_eq!(sequential, simulate(&net, &est, 501, 11).unwrap());
    }

    #[test]
    fn thread_count_is_clamped() {
        let mut net = ScheduleNetwork::new();
        let a = net.add_activity("a", WorkDays::new(1.0)).unwrap();
        let est = vec![(a, estimate(1.0, 2.0, 3.0))];
        // More workers than samples: clamped, still correct.
        let r = simulate_threaded(&net, &est, 5, 3, 64).unwrap();
        assert_eq!(r.samples(), 5);
        // Zero workers: clamped to one.
        let r0 = simulate_threaded(&net, &est, 5, 3, 0).unwrap();
        assert_eq!(r, r0);
    }

    #[test]
    fn rejects_bad_input() {
        let net = ScheduleNetwork::new();
        assert!(simulate(&net, &[], 0, 1).is_err());
        let mut other = ScheduleNetwork::new();
        let foreign = other.add_activity("x", WorkDays::new(1.0)).unwrap();
        assert!(simulate(&net, &[(foreign, estimate(1.0, 1.0, 1.0))], 10, 1).is_err());
    }

    #[test]
    fn degenerate_triangular_is_constant() {
        let mut net = ScheduleNetwork::new();
        let a = net.add_activity("a", WorkDays::new(1.0)).unwrap();
        let r = simulate(&net, &[(a, estimate(3.0, 3.0, 3.0))], 100, 6).unwrap();
        assert_eq!(r.quantile(0.0), WorkDays::new(3.0));
        assert_eq!(r.quantile(1.0), WorkDays::new(3.0));
    }
}
