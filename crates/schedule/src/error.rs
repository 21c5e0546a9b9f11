use std::error::Error;
use std::fmt;

use crate::network::ActivityId;

/// Errors produced by schedule construction and analysis.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ScheduleError {
    /// A duration was negative, not finite, or more than 10^12 days.
    InvalidDuration(f64),
    /// An activity id did not refer to an activity of this network.
    UnknownActivity(ActivityId),
    /// Adding the precedence would create a cycle.
    PrecedenceCycle {
        /// Predecessor of the rejected constraint.
        from: ActivityId,
        /// Successor of the rejected constraint.
        to: ActivityId,
    },
    /// Two activities share a name.
    DuplicateActivity(String),
    /// A resource demand exceeds the pool's total capacity, so no
    /// feasible schedule exists.
    InfeasibleDemand {
        /// The over-demanding activity.
        activity: ActivityId,
        /// The resource that cannot satisfy it.
        resource: String,
    },
    /// A resource name was not found in the pool.
    UnknownResource(String),
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::InvalidDuration(d) => {
                write!(
                    f,
                    "duration must be finite, non-negative and at most 1e12 days, got {d}"
                )
            }
            ScheduleError::UnknownActivity(id) => write!(f, "unknown activity {id}"),
            ScheduleError::PrecedenceCycle { from, to } => {
                write!(f, "precedence {from} -> {to} would create a cycle")
            }
            ScheduleError::DuplicateActivity(name) => {
                write!(f, "activity {name:?} already exists in the network")
            }
            ScheduleError::InfeasibleDemand { activity, resource } => write!(
                f,
                "activity {activity} demands more {resource:?} than the pool provides"
            ),
            ScheduleError::UnknownResource(name) => write!(f, "unknown resource {name:?}"),
        }
    }
}

impl Error for ScheduleError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_name_the_problem() {
        let e = ScheduleError::InvalidDuration(-1.0);
        assert!(e.to_string().contains("-1"));
        let e = ScheduleError::UnknownResource("layout_team".into());
        assert!(e.to_string().contains("layout_team"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ScheduleError>();
    }
}
