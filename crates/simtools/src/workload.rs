//! Workload generation: design teams and primary-input data for driving
//! flows through the execution engine, plus synthetic duration
//! histories for exercising prediction models.

use crate::rng::{hash_str, mix, SplitMix64};

/// A design team: named designers that activities can be assigned to.
///
/// # Example
///
/// ```
/// use simtools::workload::Team;
///
/// let team = Team::of_size(3);
/// assert_eq!(team.len(), 3);
/// assert_eq!(team.designer(0), "designer0");
/// // Round-robin assignment cycles through members.
/// assert_eq!(team.assignee(5), "designer2");
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Team {
    names: Vec<String>,
}

impl Team {
    /// A team of `n` designers named `designer0..designer{n-1}`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn of_size(n: usize) -> Self {
        assert!(n > 0, "a team needs at least one designer");
        Team {
            names: (0..n).map(|i| format!("designer{i}")).collect(),
        }
    }

    /// A team with explicit names.
    ///
    /// # Panics
    ///
    /// Panics if `names` is empty.
    pub fn with_names<I, S>(names: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let names: Vec<String> = names.into_iter().map(Into::into).collect();
        assert!(!names.is_empty(), "a team needs at least one designer");
        Team { names }
    }

    /// Number of designers.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Returns `true` if... never: teams are non-empty by construction.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The `i`-th designer's name.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn designer(&self, i: usize) -> &str {
        &self.names[i]
    }

    /// Round-robin assignee for the `k`-th activity.
    pub fn assignee(&self, k: usize) -> &str {
        &self.names[k % self.names.len()]
    }

    /// Iterates over designer names.
    pub fn iter(&self) -> impl Iterator<Item = &str> + '_ {
        self.names.iter().map(String::as_str)
    }
}

/// Generates deterministic primary-input design data for `class` under
/// a project `seed`: a few KiB of pseudo-random bytes prefixed by the
/// class name, sized by a per-class hash.
pub fn primary_input_data(class: &str, seed: u64) -> Vec<u8> {
    let mut rng = SplitMix64::new(mix(&[hash_str(class), seed]));
    let size = 512 + (rng.next_below(8) as usize) * 512;
    let mut data = Vec::with_capacity(size);
    data.extend_from_slice(class.as_bytes());
    while data.len() < size {
        data.extend_from_slice(&rng.next_u64().to_le_bytes());
    }
    data.truncate(size);
    data
}

/// A synthetic history of measured activity durations with a trend and
/// noise — the input shape for evaluating prediction models (bench B7).
///
/// Durations follow `base * (1 + drift)^k` with relative noise, clamped
/// positive; `k` is the observation index.
pub fn duration_history(base: f64, drift: f64, noise: f64, count: usize, seed: u64) -> Vec<f64> {
    assert!(base > 0.0, "base duration must be positive");
    let mut rng = SplitMix64::new(seed);
    (0..count)
        .map(|k| {
            let trend = base * (1.0 + drift).powi(k as i32);
            rng.next_duration(trend, trend * noise).max(0.01)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn team_round_robin() {
        let t = Team::of_size(2);
        assert_eq!(t.assignee(0), "designer0");
        assert_eq!(t.assignee(1), "designer1");
        assert_eq!(t.assignee(2), "designer0");
        assert!(!t.is_empty());
        assert_eq!(t.iter().count(), 2);
    }

    #[test]
    fn team_with_names() {
        let t = Team::with_names(["alice", "bob"]);
        assert_eq!(t.designer(1), "bob");
    }

    #[test]
    #[should_panic(expected = "at least one designer")]
    fn empty_team_panics() {
        Team::of_size(0);
    }

    #[test]
    fn primary_input_deterministic_and_class_dependent() {
        let a = primary_input_data("stimuli", 1);
        let b = primary_input_data("stimuli", 1);
        let c = primary_input_data("testbench", 1);
        let d = primary_input_data("stimuli", 2);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
        assert!(a.len() >= 512);
        assert!(a.starts_with(b"stimuli"));
    }

    #[test]
    fn history_trend_and_positivity() {
        let h = duration_history(10.0, 0.05, 0.1, 40, 3);
        assert_eq!(h.len(), 40);
        assert!(h.iter().all(|&d| d > 0.0));
        // With positive drift the later half should average higher.
        let first: f64 = h[..20].iter().sum::<f64>() / 20.0;
        let second: f64 = h[20..].iter().sum::<f64>() / 20.0;
        assert!(second > first);
    }

    #[test]
    fn history_deterministic() {
        assert_eq!(
            duration_history(5.0, 0.0, 0.2, 10, 9),
            duration_history(5.0, 0.0, 0.2, 10, 9)
        );
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn history_rejects_bad_base() {
        duration_history(0.0, 0.0, 0.0, 1, 0);
    }
}
