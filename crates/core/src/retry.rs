//! Retry and timeout rules for fault-tolerant execution.
//!
//! When the tool substrate injects failures (see
//! [`simtools::FaultPlan`]), the execution engine does what a real
//! design team does: retry transient crashes with backoff, kill hung
//! runs at a timeout, and — when an activity keeps failing — mark it
//! *blocked* and replan around it rather than abort the session.
//!
//! The rules are fixed: up to [`MAX_ATTEMPTS`] failed attempts with
//! backoff 0.25 → 0.5 → 1.0 → 2.0 days (capped at 2 days), hangs killed
//! after 1 working day, and an activity blocked once faults have burned
//! more than 10 working days.
//!
//! All budgets are expressed in simulated [`WorkDays`], the same unit
//! as tool durations, so fault handling shows up in the schedule like
//! any other work: a transient crash costs the fraction of the run
//! that elapsed before the crash plus the backoff; a hang costs the
//! full [`timeout`].

use schedule::WorkDays;

/// Maximum failed attempts (transient or hang) per activity before it
/// is declared blocked. Successful runs and corrupt-output runs do not
/// count against this budget — they are *iterations*, not attempts.
pub(crate) const MAX_ATTEMPTS: u32 = 4;

/// Backoff after the first failed attempt, in milli-days; each further
/// failure doubles it.
const BASE_BACKOFF_MD: i64 = 250;

/// Upper bound on any single backoff interval, in milli-days.
const MAX_BACKOFF_MD: i64 = 2_000;

/// Time charged for a hung run before it is killed, in milli-days.
const TIMEOUT_MD: i64 = 1_000;

/// Total simulated time an activity may burn on faults (crash
/// fractions, timeouts, backoffs) before it is declared blocked,
/// regardless of the attempt count, in milli-days.
const ACTIVITY_BUDGET_MD: i64 = 10_000;

fn millidays(md: i64) -> WorkDays {
    WorkDays::try_from_millidays(md).expect("retry constants are non-negative")
}

/// The backoff interval after the `attempt`-th failed attempt
/// (1-based): `0.25 × 2^(attempt−1)` days, capped at 2 days. Attempt 0
/// returns zero.
pub(crate) fn backoff(attempt: u32) -> WorkDays {
    if attempt == 0 {
        return WorkDays::ZERO;
    }
    let doublings = (attempt - 1).min(32);
    millidays((BASE_BACKOFF_MD << doublings).min(MAX_BACKOFF_MD))
}

/// The time a hung run burns before it is killed.
pub(crate) fn timeout() -> WorkDays {
    millidays(TIMEOUT_MD)
}

/// Whether an activity with `attempts` failed attempts and
/// `fault_time` burned on faults is blocked.
pub(crate) fn exhausted(attempts: u32, fault_time: WorkDays) -> bool {
    attempts >= MAX_ATTEMPTS || fault_time.millidays() > ACTIVITY_BUDGET_MD
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_backoff_doubles_and_caps() {
        assert_eq!(backoff(0), WorkDays::ZERO);
        assert_eq!(backoff(1), WorkDays::new(0.25));
        assert_eq!(backoff(2), WorkDays::new(0.5));
        assert_eq!(backoff(3), WorkDays::new(1.0));
        assert_eq!(backoff(4), WorkDays::new(2.0));
        // Capped from here on.
        assert_eq!(backoff(5), WorkDays::new(2.0));
        assert_eq!(backoff(40), WorkDays::new(2.0));
    }

    #[test]
    fn huge_attempt_does_not_overflow() {
        assert_eq!(backoff(u32::MAX), WorkDays::new(2.0));
    }
}
