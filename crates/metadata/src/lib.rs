//! Levels 3 and 4 of the four-level flow-management architecture: the
//! design-metadata database.
//!
//! Level 3 "describes the metadata objects created from the execution of
//! a flow"; Level 4 "depicts the actual design data generated from the
//! execution of a flow" (Johnson & Brockman, §II). The paper's key move
//! is to store *schedule* data at Level 3 too, mirroring the execution
//! objects:
//!
//! ```text
//! execution space          schedule space
//! ---------------          --------------
//! Run                 ↔    Schedule (planning session)
//! EntityInstance      ↔    ScheduleInstance
//! instance dependency ↔    schedule dependency
//! ```
//!
//! "Level 3 design metadata describes when an activity *is* performed
//! and by whom; Level 3 schedule data ought to describe when an activity
//! *should be* performed and which person or persons are assigned the
//! task" (§III).
//!
//! [`MetadataDb`] holds both spaces plus the Level-4
//! [`DataObject`]s, and the *links* between a schedule instance and the
//! entity instance the designer declares to be the activity's final
//! result. Queries over both spaces (§IV-B) live in [`query`].
//!
//! # Example
//!
//! ```
//! use metadata::MetadataDb;
//! use schema::examples;
//! use schedule::WorkDays;
//!
//! # fn main() -> Result<(), metadata::MetadataError> {
//! let schema = examples::circuit_design();
//! let mut db = MetadataDb::for_schema(&schema);
//! // Containers exist for every entity class and every activity.
//! assert!(db.entity_container("netlist").is_some());
//! assert!(db.schedule_container("Simulate").is_some());
//!
//! // Plan: one schedule instance for Create.
//! let session = db.begin_planning(WorkDays::ZERO);
//! let sc = db.plan_activity(session, "Create", WorkDays::ZERO, WorkDays::new(2.0))?;
//!
//! // Execute: a run of Create producing a netlist instance.
//! let run = db.begin_run("Create", "alice", WorkDays::ZERO)?;
//! let data = db.store_data("counter.net", b"module counter".to_vec());
//! let inst = db.finish_run(run, "netlist", data, WorkDays::new(1.5), &[])?;
//!
//! // Designer declares the task complete: link plan ↔ result.
//! db.link_completion(sc, inst)?;
//! assert_eq!(db.schedule_instance(sc).linked_entity(), Some(inst));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod database;
mod error;
mod fields;
mod ids;
mod names;
mod objects;

pub mod export;
pub mod framing;
pub mod fsck;
pub mod journal;
pub mod query;
pub mod segment;
pub mod store;

pub use database::MetadataDb;
pub use error::MetadataError;
pub use export::LoadError;
pub use framing::Framing;
pub use ids::{DataObjectId, EntityInstanceId, PlanningSessionId, RunId, ScheduleInstanceId};
pub use journal::{Journal, JournalOp, SlotRange};
pub use objects::{
    Assignees, DataObject, EntityInstance, PlanningSession, Run, RunState, ScheduleInstance,
};
pub use store::{
    ArenaStore, CompactionStats, CorruptionKind, CorruptionReport, PersistentStore, Store,
    StoreError,
};
