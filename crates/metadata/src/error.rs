use std::error::Error;
use std::fmt;

use crate::ids::{EntityInstanceId, RunId, ScheduleInstanceId};

/// Errors produced by metadata-database operations.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum MetadataError {
    /// The named activity has no schedule container (not in the schema
    /// this database was initialised from).
    UnknownActivity(String),
    /// The named entity class has no container.
    UnknownClass(String),
    /// An id did not refer to an object of this database.
    UnknownId(String),
    /// `finish_run` was called with an output class that the run's
    /// activity does not produce.
    WrongOutputClass {
        /// The run being finished.
        run: RunId,
        /// The activity's declared output class.
        expected: String,
        /// The class actually supplied.
        found: String,
    },
    /// The run was already finished.
    RunAlreadyFinished(RunId),
    /// A completion link's endpoints disagree: the entity instance was
    /// not produced by the schedule instance's activity.
    MismatchedLink {
        /// The schedule instance being linked.
        schedule: ScheduleInstanceId,
        /// The entity instance offered as the final result.
        entity: EntityInstanceId,
    },
    /// The schedule instance is already linked to a final result.
    AlreadyLinked(ScheduleInstanceId),
    /// A run finished before it started, or another impossible
    /// timestamp ordering.
    InvalidTimestamps {
        /// Start offset in days.
        started: f64,
        /// Finish offset in days.
        finished: f64,
    },
    /// A handle minted under an older store generation was used after a
    /// compaction bumped the database's generation. The slot space is
    /// renumbered by compaction, so resolving the stale handle could
    /// silently alias a different object — the database rejects it
    /// instead. Re-query through the store to obtain fresh handles.
    StaleHandle(String),
    /// A simulated crash point fired between a journal append and its
    /// apply ([`MetadataDb::inject_crash_after`](crate::MetadataDb::inject_crash_after)),
    /// or an operation was attempted on a database that already
    /// crashed. Recover with
    /// [`MetadataDb::recover`](crate::MetadataDb::recover).
    InjectedCrash,
    /// The store behind this database lost durability (a tail append
    /// failed — disk full, I/O error) and is **wedged**: it refuses
    /// every further fallible mutation rather than acknowledge writes
    /// it cannot persist. Reads remain served; reopen the store to
    /// resume from the last durable prefix.
    StorageFailed(String),
    /// A carry ([`MetadataDb::carry_plan`](crate::MetadataDb::carry_plan)
    /// or the replay of its `carry-plan` record) names a version it
    /// cannot carry: an activity with no version yet, a version that
    /// does not exist or is no longer its activity's latest, or the
    /// same activity twice.
    CannotCarry(String),
}

impl fmt::Display for MetadataError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MetadataError::UnknownActivity(name) => {
                write!(f, "no schedule container for activity {name:?}")
            }
            MetadataError::UnknownClass(name) => {
                write!(f, "no entity container for class {name:?}")
            }
            MetadataError::UnknownId(id) => write!(f, "unknown id {id}"),
            MetadataError::WrongOutputClass {
                run,
                expected,
                found,
            } => write!(f, "{run} must produce {expected:?} but was given {found:?}"),
            MetadataError::RunAlreadyFinished(run) => {
                write!(f, "{run} was already finished")
            }
            MetadataError::MismatchedLink { schedule, entity } => write!(
                f,
                "cannot link {schedule} to {entity}: the instance was not produced by that activity"
            ),
            MetadataError::AlreadyLinked(schedule) => {
                write!(f, "{schedule} is already linked to a final result")
            }
            MetadataError::InvalidTimestamps { started, finished } => {
                write!(f, "finish time {finished} precedes start time {started}")
            }
            MetadataError::StaleHandle(id) => {
                write!(
                    f,
                    "stale handle {id}: minted before the last compaction; re-query for a fresh id"
                )
            }
            MetadataError::InjectedCrash => {
                write!(
                    f,
                    "injected crash: the process died between journal append and apply"
                )
            }
            MetadataError::StorageFailed(detail) => {
                write!(
                    f,
                    "storage failed, store is wedged (reopen to resume): {detail}"
                )
            }
            MetadataError::CannotCarry(detail) => write!(f, "cannot carry {detail}"),
        }
    }
}

impl Error for MetadataError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_carry_context() {
        let e = MetadataError::WrongOutputClass {
            run: RunId::new(2, 0),
            expected: "netlist".into(),
            found: "layout".into(),
        };
        let s = e.to_string();
        assert!(s.contains("run2") && s.contains("netlist") && s.contains("layout"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<MetadataError>();
    }
}
