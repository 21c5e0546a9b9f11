//! The Hercules workflow manager with integrated design schedule
//! management — the primary contribution of Johnson & Brockman,
//! *Incorporating Design Schedule Management into a Flow Management
//! System*, DAC 1995.
//!
//! The paper's thesis: schedule management and process (flow)
//! management belong in **one** system. The process decomposition built
//! for planning is the same task structure the flow manager executes;
//! the flow manager already knows the status of every activity, so the
//! project schedule updates itself; and the metadata of past designs is
//! sitting right there to predict future durations.
//!
//! The key mechanism is **planning as simulated execution** (§III):
//! Hercules plans a schedule by performing the *same post-order
//! traversal of the task tree* it uses to execute the flow — but
//! instead of running tools and creating entity instances, it creates
//! *schedule instances* (Level-3 schedule data mirroring the Level-3
//! execution data). Tracking then works by *linking*: when the designer
//! declares an activity done, its final entity instance is linked to
//! the schedule instance, and actual dates flow into the plan.
//!
//! # Walkthrough (the paper's §IV example)
//!
//! ```
//! use hercules::Hercules;
//! use schema::examples;
//! use simtools::{workload::Team, ToolLibrary};
//!
//! # fn main() -> Result<(), hercules::HerculesError> {
//! // 1. Define a task schema and initialise the task database.
//! let schema = examples::circuit_design();
//! let mut hercules = Hercules::new(schema, ToolLibrary::standard(), Team::of_size(2), 42);
//!
//! // 2. Extract the task tree covering the intended target.
//! let tree = hercules.extract_task_tree("performance")?;
//! assert_eq!(tree.activities(), ["Create", "Simulate"]);
//!
//! // 3. Plan: simulate the execution, creating schedule instances.
//! let plan = hercules.plan("performance")?;
//! assert_eq!(plan.len(), 2);
//!
//! // 4. Execute the flow; runs create entity instances, and on
//! //    convergence the final instance is linked to the plan.
//! let report = hercules.execute("performance")?;
//! assert!(report.all_converged());
//!
//! // 5. Examine status: every activity complete, plan vs actual known.
//! let status = hercules.status();
//! assert_eq!(status.complete_count(), 2);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
mod error;
mod execute;
mod forecast;
mod manager;
mod optimize;
mod plan;
mod replan;
mod retry;
mod rollup;
mod status;
mod task;
#[cfg(test)]
mod view_properties;
mod workspace;

pub mod browse;
pub mod chaos;
pub mod fsck;
pub mod policy;
pub mod report;
pub mod trace;

pub use error::HerculesError;
pub use execute::{ActivityExecution, BlockedActivity, ExecutionReport};
pub use forecast::Forecast;
pub use manager::Hercules;
pub use optimize::{CrashAdvice, TeamPoint, TeamSweep};
pub use plan::{PlannedActivity, SchedulePlan};
pub use policy::{ExecutionPolicy, SchedulingPolicy};
pub use replan::ReplanOutcome;
pub use rollup::{BlockStatus, Decomposition};
pub use status::{ActivityState, StatusReport};
pub use task::TaskTree;
pub use workspace::{Project, Workspace, WorkspaceError, PROJECT_CONF_MAGIC};
