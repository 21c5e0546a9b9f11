//! The network schedule model of the DAC'95 reproduction.
//!
//! "Constraint or network models predominate in project planning"
//! (Johnson & Brockman, §III): designers break the process into
//! activities, estimate durations and resources, and the *network* of
//! precedence constraints determines the schedule. This crate is the
//! planning math that MacProject / Microsoft Project implement, built
//! as a library so a flow manager can call it directly:
//!
//! * [`ScheduleNetwork`] — activities + precedence constraints on the
//!   [`flowgraph`] substrate.
//! * [`CpmAnalysis`] — critical-path method: forward/backward pass,
//!   earliest/latest dates, total and free slack, the critical path.
//! * [`pert`] — three-point (PERT) estimates and completion-probability
//!   analysis.
//! * [`Calendar`] / [`CalDate`] — work-week calendars mapping working
//!   days to civil dates.
//! * [`Resource`] / [`level_resources`] — capacity-constrained serial
//!   scheduling.
//! * [`gantt`] — the Gantt chart rendering of Fig. 8, planned bars over
//!   accomplished bars.
//! * [`variance`] — plan-versus-actual comparison and slip reports.
//!
//! # Example
//!
//! ```
//! use schedule::{ScheduleNetwork, WorkDays};
//!
//! # fn main() -> Result<(), schedule::ScheduleError> {
//! let mut net = ScheduleNetwork::new();
//! let create = net.add_activity("Create", WorkDays::new(2.0))?;
//! let simulate = net.add_activity("Simulate", WorkDays::new(3.0))?;
//! net.add_precedence(create, simulate)?;
//! let cpm = net.analyze()?;
//! assert_eq!(cpm.project_duration(), WorkDays::new(5.0));
//! assert!(cpm.is_critical(create) && cpm.is_critical(simulate));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod calendar;
mod cpm;
mod cpm_incremental;
mod csr;
mod error;
mod leveling;
mod network;
mod resource;

pub mod gantt;
pub mod montecarlo;
pub mod pert;
pub mod text;
pub mod variance;

pub use calendar::{CalDate, Calendar, Weekday};
pub use cpm::{ActivityTimes, CpmAnalysis};
pub use cpm_incremental::{IncrementalCpm, UpdateStats};
pub use error::ScheduleError;
pub use leveling::{level_resources, LeveledSchedule};
pub use network::{ActivityId, ScheduleNetwork, WorkDays};
pub use resource::{Resource, ResourceId, ResourcePool};
