//! Sample summaries: nearest-rank percentiles over latency samples.

/// Latency samples of one operation kind, in milliseconds.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    values: Vec<f64>,
}

impl Samples {
    pub fn push(&mut self, ms: f64) {
        self.values.push(ms);
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Sum of the samples at positions `range`.
    pub fn sum_ms(&self, range: std::ops::Range<usize>) -> f64 {
        self.values[range].iter().sum()
    }

    /// Nearest-rank percentile `q` in `[0, 1]`.
    ///
    /// # Panics
    ///
    /// On an empty sample set: every reported metric must rest on
    /// samples, so an empty set is a bug in the workload.
    pub fn percentile(&self, q: f64) -> f64 {
        percentile(&self.values, q)
    }

    /// Whether at least `min_beyond` samples lie above percentile `q`,
    /// the condition under which that percentile is reported.
    pub fn supports(&self, q: f64, min_beyond: usize) -> bool {
        let n = self.values.len() as f64;
        (n * (1.0 - q)).floor() as usize >= min_beyond
    }
}

/// Nearest-rank percentile of `values` (unsorted).
pub fn percentile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of an empty sample set");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// First and third quartile as `statistics.quantiles(values, n=4)`
/// computes them (the "exclusive" method), so the spreads printed here
/// match the ones an outside check derives from the same values.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n < 2 {
        let v = sorted.first().copied().unwrap_or(f64::NAN);
        return (v, v, v);
    }
    let at = |i: usize| {
        let m = (n + 1) as i64;
        let j = (i as i64 * m / 4).clamp(1, n as i64 - 1);
        let delta = (i as i64 * m - j * 4) as f64;
        let j = j as usize;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (at(1), at(2), at(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 500.0);
        assert_eq!(percentile(&v, 0.99), 990.0);
        let s = Samples { values: v };
        assert!(s.supports(0.99, 10));
        assert!(!s.supports(0.999, 10));
    }
}
