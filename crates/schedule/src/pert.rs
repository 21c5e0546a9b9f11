//! PERT three-point estimation.
//!
//! PERT (the paper cites Stilian's 1962 text) models each activity
//! duration as a beta-distributed random variable summarised by three
//! designer estimates: optimistic `a`, most likely `m`, pessimistic
//! `b`. The classic approximations are
//!
//! ```text
//! mean     = (a + 4m + b) / 6
//! variance = ((b - a) / 6)^2
//! ```
//!
//! Summing means and variances along the critical path and applying the
//! central limit theorem gives the probability of finishing by a given
//! date.

use crate::cpm::CpmAnalysis;
use crate::error::ScheduleError;
use crate::network::{ActivityId, ScheduleNetwork, WorkDays};

/// A three-point (optimistic / most-likely / pessimistic) estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThreePoint {
    /// Optimistic duration in days (`a`).
    pub optimistic: f64,
    /// Most likely duration in days (`m`).
    pub most_likely: f64,
    /// Pessimistic duration in days (`b`).
    pub pessimistic: f64,
}

impl ThreePoint {
    /// Creates an estimate.
    ///
    /// # Errors
    ///
    /// [`ScheduleError::InvalidDuration`] if any value is negative or
    /// non-finite, or if the ordering `a <= m <= b` is violated.
    pub fn new(optimistic: f64, most_likely: f64, pessimistic: f64) -> Result<Self, ScheduleError> {
        for v in [optimistic, most_likely, pessimistic] {
            if !v.is_finite() || v < 0.0 {
                return Err(ScheduleError::InvalidDuration(v));
            }
        }
        if optimistic > most_likely || most_likely > pessimistic {
            return Err(ScheduleError::InvalidDuration(most_likely));
        }
        Ok(ThreePoint {
            optimistic,
            most_likely,
            pessimistic,
        })
    }

    /// The PERT expected duration `(a + 4m + b) / 6`.
    pub fn mean(self) -> WorkDays {
        WorkDays::new((self.optimistic + 4.0 * self.most_likely + self.pessimistic) / 6.0)
    }

    /// The PERT variance `((b - a) / 6)^2`, in days squared.
    pub fn variance(self) -> f64 {
        let d = (self.pessimistic - self.optimistic) / 6.0;
        d * d
    }
}

/// Probability estimate for completing a PERT network by a deadline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompletionEstimate {
    /// Expected project duration (sum of critical-path means).
    pub expected: WorkDays,
    /// Standard deviation of the critical path, in days.
    pub std_dev: f64,
    /// Probability the project finishes by the queried deadline.
    pub probability: f64,
}

/// Builds a [`ScheduleNetwork`] whose durations are the PERT means of
/// `estimates`, then reports the probability of finishing within
/// `deadline` using the normal approximation along the critical path.
///
/// `estimates` pairs each activity id of `network` with its three-point
/// estimate; activities without an estimate keep their deterministic
/// duration and contribute zero variance.
///
/// # Errors
///
/// [`ScheduleError::UnknownActivity`] if an estimate names a foreign
/// activity.
///
/// # Example
///
/// ```
/// use schedule::{pert, ScheduleNetwork, WorkDays};
///
/// # fn main() -> Result<(), schedule::ScheduleError> {
/// let mut net = ScheduleNetwork::new();
/// let a = net.add_activity("layout", WorkDays::new(10.0))?;
/// let est = vec![(a, pert::ThreePoint::new(6.0, 10.0, 20.0)?)];
/// let report = pert::completion_probability(&net, &est, WorkDays::new(12.0))?;
/// assert!(report.probability > 0.5); // deadline above the ~11d mean
/// # Ok(())
/// # }
/// ```
pub fn completion_probability(
    network: &ScheduleNetwork,
    estimates: &[(ActivityId, ThreePoint)],
    deadline: WorkDays,
) -> Result<CompletionEstimate, ScheduleError> {
    let mut pert_net = network.clone();
    for (id, est) in estimates {
        pert_net.set_duration(*id, est.mean())?;
    }
    let cpm: CpmAnalysis = pert_net.analyze()?;
    let critical = cpm.critical_path();
    let variance: f64 = estimates
        .iter()
        .filter(|(id, _)| critical.contains(id))
        .map(|(_, est)| est.variance())
        .sum();
    let expected = cpm.project_duration();
    let std_dev = variance.sqrt();
    let probability = if std_dev == 0.0 {
        if deadline >= expected {
            1.0
        } else {
            0.0
        }
    } else {
        let z = (deadline.days() - expected.days()) / std_dev;
        normal_cdf(z)
    };
    Ok(CompletionEstimate {
        expected,
        std_dev,
        probability,
    })
}

/// Standard normal CDF via the Abramowitz–Stegun 7.1.26 `erf`
/// approximation (max absolute error ~1.5e-7, ample for planning).
pub fn normal_cdf(z: f64) -> f64 {
    0.5 * (1.0 + erf(z / std::f64::consts::SQRT_2))
}

fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    const A1: f64 = 0.254_829_592;
    const A2: f64 = -0.284_496_736;
    const A3: f64 = 1.421_413_741;
    const A4: f64 = -1.453_152_027;
    const A5: f64 = 1.061_405_429;
    const P: f64 = 0.327_591_1;
    let t = 1.0 / (1.0 + P * x);
    let y = 1.0 - (((((A5 * t + A4) * t) + A3) * t + A2) * t + A1) * t * (-x * x).exp();
    sign * y
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn three_point_mean_and_variance() {
        let e = ThreePoint::new(2.0, 5.0, 14.0).unwrap();
        assert!((e.mean().days() - 6.0).abs() < 1e-9);
        assert!((e.variance() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn three_point_validation() {
        assert!(ThreePoint::new(-1.0, 2.0, 3.0).is_err());
        assert!(ThreePoint::new(3.0, 2.0, 4.0).is_err());
        assert!(ThreePoint::new(1.0, 2.0, f64::NAN).is_err());
        assert!(ThreePoint::new(2.0, 2.0, 2.0).is_ok());
    }

    #[test]
    fn normal_cdf_reference_points() {
        assert!((normal_cdf(0.0) - 0.5).abs() < 1e-7);
        assert!((normal_cdf(1.0) - 0.841_344_7).abs() < 1e-4);
        assert!((normal_cdf(-1.0) - 0.158_655_3).abs() < 1e-4);
        assert!((normal_cdf(1.96) - 0.975).abs() < 1e-3);
        assert!(normal_cdf(8.0) > 0.999_999);
    }

    #[test]
    fn deterministic_network_steps_at_deadline() {
        let mut net = ScheduleNetwork::new();
        net.add_activity("a", WorkDays::new(5.0)).unwrap();
        let r = completion_probability(&net, &[], WorkDays::new(4.0)).unwrap();
        assert_eq!(r.probability, 0.0);
        let r = completion_probability(&net, &[], WorkDays::new(5.0)).unwrap();
        assert_eq!(r.probability, 1.0);
        assert_eq!(r.std_dev, 0.0);
    }

    #[test]
    fn probability_at_mean_is_half() {
        let mut net = ScheduleNetwork::new();
        let a = net.add_activity("a", WorkDays::new(1.0)).unwrap();
        let est = vec![(a, ThreePoint::new(2.0, 5.0, 8.0).unwrap())];
        let r = completion_probability(&net, &est, WorkDays::new(5.0)).unwrap();
        assert_eq!(r.expected, WorkDays::new(5.0));
        assert!((r.probability - 0.5).abs() < 1e-6);
    }

    #[test]
    fn chain_variances_accumulate() {
        let mut net = ScheduleNetwork::new();
        let a = net.add_activity("a", WorkDays::new(1.0)).unwrap();
        let b = net.add_activity("b", WorkDays::new(1.0)).unwrap();
        net.add_precedence(a, b).unwrap();
        let est = vec![
            (a, ThreePoint::new(2.0, 5.0, 8.0).unwrap()),
            (b, ThreePoint::new(2.0, 5.0, 8.0).unwrap()),
        ];
        let r = completion_probability(&net, &est, WorkDays::new(10.0)).unwrap();
        assert_eq!(r.expected, WorkDays::new(10.0));
        assert!((r.std_dev - 2.0f64.sqrt()).abs() < 1e-9);
    }

    #[test]
    fn off_critical_variance_ignored() {
        let mut net = ScheduleNetwork::new();
        let long = net.add_activity("long", WorkDays::new(10.0)).unwrap();
        let short = net.add_activity("short", WorkDays::new(1.0)).unwrap();
        let est = vec![(short, ThreePoint::new(0.5, 1.0, 1.5).unwrap())];
        let r = completion_probability(&net, &est, WorkDays::new(10.0)).unwrap();
        let _ = long;
        // `short` is off the critical path, so variance stays zero.
        assert_eq!(r.std_dev, 0.0);
        assert_eq!(r.probability, 1.0);
    }

    #[test]
    fn unknown_activity_rejected() {
        let net = ScheduleNetwork::new();
        let mut other = ScheduleNetwork::new();
        let foreign = other.add_activity("x", WorkDays::new(1.0)).unwrap();
        let est = vec![(foreign, ThreePoint::new(1.0, 1.0, 1.0).unwrap())];
        assert!(completion_probability(&net, &est, WorkDays::new(1.0)).is_err());
    }
}
